"""Inverse problem: peak centroids, recoil / roto-recoil mass fits, deficit
reporting against the conventional bound, calibration-masking audit, and
the spectrum and centroid files, both tablefile tables (spectra need at
least two rows, centroid tables do not).

Two numpy least-squares routines serve every fit.  The roto-recoil fit
E = E_rot + C_A K^2 / M is linear in (E_rot, 1/M), so one weighted linear
least squares (_linear_mass_fit) solves it in closed form; the recoil fit is
its case with E_rot pinned at 0.  The calibration audit maps peaks onto that
line with E_rot profiled, under the mass fits' weighting rule, through one
damped Gauss-Newton (Levenberg-Marquardt) routine (_levenberg_marquardt),
which also serves the Gaussian peak refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import constants as C
from .errors import (
    CollinearDegeneracy,
    DegeneratePeak,
    EmptyWindow,
    InsufficientPoints,
    MissingMetadata,
    NonConvergence,
    ParseError,
    Underdetermined,
    UnknownDetector,
)
from .kinematics import (
    KEPoint,
    effective_mass_bound_check,
    recoil_energy,
    trajectory,
)
from .spectra import (
    SPECTRUM_COLUMNS,
    InstrumentConfig,
    Spectrum,
    _trajectory_arrays,
    json_field,
    metadata_instrument,
    table_axis,
)
from .tablefile import read_table, write_table

# Levenberg-Marquardt limits: function evaluations, and the relative tolerance
# (MINPACK's default ftol/xtol) on the cost drop still available to a
# Gauss-Newton step and on the step length.
LM_MAX_EVAL = 400
LM_TOL = 1.49012e-8
# Forward-difference step, relative to max(|x|, 1), for numerical Jacobians.
FD_STEP = math.sqrt(np.finfo(float).eps)


@dataclass(frozen=True)
class PeakFit:
    """Gaussian-refined peak location. first_moment is the coarse windowed
    centroid kept for comparison; the refined centroid is used downstream."""

    centroid: float
    width: float
    amplitude: float
    residual_norm: float
    first_moment: float = float("nan")
    centroid_err: float | None = None


@dataclass(frozen=True)
class MassFitResult:
    m_eff: float
    stderr: float
    e_rot_fit: float = 0.0
    e_rot_stderr: float = 0.0
    classification: str | None = None
    left_out: tuple = ()   # indices of the given points without sigma_e, not fitted


@dataclass(frozen=True)
class CalibrationReport:
    adjusted_params: dict
    refit_mass: float
    refit_e_rot: float
    masking_flag: bool
    residual_norm: float
    assumed_mass: float
    delta_sigmas: dict   # each adjusted parameter in units of its prior sigma


def _levenberg_marquardt(fun, x0):
    """Minimize |r(x)|^2 by damped Gauss-Newton; fun(x) returns (r, J).

    Steps solve (J^T J + mu D) h = -J^T r, D the running max of diag(J^T J)
    (MINPACK's scaling), with Nielsen's update of mu.  Stops when an accepted
    step and an undamped Gauss-Newton step would both lower the cost by a
    relative LM_TOL or less (a damped step alone can crawl along a flat
    valley), or the step is within LM_TOL of |x|.  Returns (x, r, J); raises
    NonConvergence on a non-finite start or after LM_MAX_EVAL evaluations.
    """
    x = np.asarray(x0, dtype=float)
    r, jac = fun(x)
    cost = float(r @ r)
    if not np.isfinite(cost):
        raise NonConvergence("non-finite residuals at the starting point")
    scale = (jac * jac).sum(axis=0)
    scale[scale == 0] = 1.0
    mu, nu = 1e-3, 2.0
    small_drop = False
    for _ in range(LM_MAX_EVAL):
        grad = jac.T @ r
        jtj = jac.T @ jac
        if small_drop:
            try:
                if grad @ np.linalg.solve(jtj, grad) <= LM_TOL * cost:
                    return x, r, jac
            except np.linalg.LinAlgError:
                pass
        np.maximum(scale, jtj.diagonal(), out=scale)
        damp = mu * scale
        jtj.flat[::len(x) + 1] += damp   # J^T J + mu D: positive definite
        step = np.linalg.solve(jtj, -grad)
        small_step = step @ step <= (LM_TOL * (math.sqrt(x @ x) + LM_TOL)) ** 2
        x_new = x + step
        r_new, jac_new = fun(x_new)
        cost_new = float(r_new @ r_new)
        drop = cost - cost_new
        if drop > 0:   # False for a NaN cost: the step is rejected
            x, r, jac, cost = x_new, r_new, jac_new, cost_new
            rho = drop / float(step @ (damp * step - grad))
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
            small_drop = drop <= LM_TOL * (cost + drop)
        else:
            mu *= nu
            nu *= 2.0
            small_drop = False
        if small_step:
            return x, r, jac
    raise NonConvergence(f"no convergence in {LM_MAX_EVAL} evaluations")


def _refine_gaussian(e, y, window):
    """Locate the peak of counts y versus energy e (equal-length arrays).

    First-moment centroid over the window, then an unweighted Gaussian
    least-squares refinement by _levenberg_marquardt with the analytic
    Jacobian, started from the window's moments.  When window is None it
    defaults to +-3 coarse widths around the coarse centroid, iterated once.
    Returns (PeakFit without centroid_err, residuals, Jacobian, window mask):
    the residuals and Jacobian at the solution, on the bins of e[mask].
    """
    if window is None:
        lo, hi = _auto_window(e, y)
    else:
        lo, hi = window
    mask = (e >= lo) & (e <= hi)
    if np.count_nonzero(mask & (y > 0)) < 5:
        raise EmptyWindow(
            f"window [{lo}, {hi}] holds fewer than 5 bins with positive counts")
    ew, yw = e[mask], y[mask]
    y_max = yw.max()
    if y_max == yw.min():
        raise DegeneratePeak("all counts in the window are equal")
    first, width = _moments(ew, yw)
    p0 = [float(y_max), first, max(width, math.sqrt((ew[1] - ew[0]) ** 2 / 12.0))]

    def residuals(p):
        jac = _gauss_jac(ew, *p)
        return p[0] * jac[:, 0] - yw, jac

    try:
        popt, res, jac = _levenberg_marquardt(residuals, p0)
    except NonConvergence as exc:
        raise NonConvergence(f"Gaussian refinement failed: {exc}") from exc
    fit = PeakFit(float(popt[1]), abs(float(popt[2])), float(popt[0]),
                  float(np.linalg.norm(res)), first_moment=first)
    return fit, res, jac, mask


def _centroid_stderr(res, jac, var=None):
    """Centroid stderr from inv(J^T J) of the fit: the sandwich
    inv(J^T J) J^T V J inv(J^T J) with per-bin variances var, or scaled by
    chi^2 / dof without them; None if J^T J is singular."""
    try:
        cov = np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        return None
    if var is None:
        cov *= float(res @ res) / (len(res) - jac.shape[1])
    else:
        cov = cov @ ((jac.T * var) @ jac) @ cov
    return float(math.sqrt(abs(cov[1, 1])))


def _spacing(x):
    """np.gradient(x) of a 1-D array with at least 2 entries, by slicing:
    central differences inside, one-sided differences at the two ends."""
    d = np.empty_like(x)
    d[1:-1] = (x[2:] - x[:-2]) / 2.0
    d[0] = x[1] - x[0]
    d[-1] = x[-1] - x[-2]
    return d


def _moments(e, y):
    if len(e) < 2:
        raise EmptyWindow(f"{len(e)} bins with a finite energy")
    de = _spacing(e)
    tot = (y * de).sum()
    if tot <= 0:
        raise EmptyWindow("no counts at all")
    c = float((e * y * de).sum() / tot)
    w = math.sqrt(max(float(((e - c) ** 2 * y * de).sum() / tot), 0.0))
    if w == 0:
        raise DegeneratePeak("zero-width count distribution")
    return c, w


def _auto_window(e, y):
    """Coarse moments over every bin with a finite energy, +-3 widths,
    iterated once."""
    fin = np.isfinite(e)
    if not fin.all():   # bins before the incident flight time have no energy
        e, y = e[fin], y[fin]
    c, w = _moments(e, y)
    for _ in range(2):
        mask = (e >= c - 3.0 * w) & (e <= c + 3.0 * w)
        if np.count_nonzero(mask) < 5:
            break
        c, w = _moments(e[mask], y[mask])
    return c - 3.0 * w, c + 3.0 * w


def _linear_mass_fit(points, with_offset: bool) -> MassFitResult:
    """Weighted linear least squares of E = [E_rot +] C_A K^2 * beta.

    The model is linear in (E_rot, beta = 1/M_eff), so the closed-form
    solution is the optimum.  When any point carries sigma_e, only those
    points are fitted, with absolute weights, and the indices of the others
    are left_out; with no sigma_e anywhere every point is fitted unweighted.
    The covariance is (A^T W A)^-1, scaled by chi^2 / dof when unweighted;
    the mass stderr follows by the delta method, sigma_M = sigma_beta /
    beta^2.  A sigma_e that is given must be positive (ValueError otherwise).
    """
    sig = [p.sigma_e for p in points]
    if any(s is not None and not s > 0 for s in sig):
        raise ValueError("every given sigma_E must be positive")
    absolute = any(s is not None for s in sig)
    left_out = tuple(i for i, s in enumerate(sig) if s is None) if absolute else ()
    if left_out:
        points = [p for p in points if p.sigma_e is not None]
    n_min = 4 if with_offset else 3
    if len(points) < n_min:
        raise InsufficientPoints(
            f"need >= {n_min} points, got {len(points)}"
            + (f" with sigma_E ({len(left_out)} without it)" if left_out else ""))
    x = C.ATOM_E_COEF * np.array([p.k for p in points]) ** 2
    if np.ptp(x) == 0:
        raise CollinearDegeneracy("all |K| values coincide")
    es = np.array([p.e for p in points])
    sw = 1.0 / np.array([p.sigma_e for p in points]) if absolute else np.ones(len(points))
    design = (np.column_stack([np.ones_like(x), x]) if with_offset
              else x[:, None]) * sw[:, None]
    coef, *_ = np.linalg.lstsq(design, es * sw, rcond=None)
    beta = float(coef[-1])
    if beta <= 0:
        raise NonConvergence("fitted curvature is non-positive; no mass solution")
    cov = np.linalg.inv(design.T @ design)
    if not absolute:
        r = es * sw - design @ coef
        cov *= float(r @ r) / (len(points) - len(coef))
    e_rot, e_rot_err = (float(coef[0]), math.sqrt(cov[0, 0])) if with_offset \
        else (0.0, 0.0)
    return MassFitResult(1.0 / beta, math.sqrt(cov[-1, -1]) / beta**2,
                         e_rot_fit=e_rot, e_rot_stderr=e_rot_err, left_out=left_out)


def fit_roto_recoil(points, pin_e_rot: float | None = None,
                    m_free: float | None = None) -> MassFitResult:
    """Two-parameter fit E = E_rot + C_A K^2 / M_eff, linear in (E_rot, 1/M_eff).

    With pin_e_rot set, the offset is held fixed: E - pin_e_rot = C_A K^2 /
    M_eff, the free-recoil fit at 0.0.  m_free sets classification.
    """
    points = list(points)
    if pin_e_rot is None:
        fit = _linear_mass_fit(points, with_offset=True)
    else:
        shifted = [KEPoint(p.k, p.e - pin_e_rot, p.sigma_e) for p in points]
        fit = replace(_linear_mass_fit(shifted, with_offset=False), e_rot_fit=pin_e_rot)
    if m_free is None:
        return fit
    return replace(fit, classification=effective_mass_bound_check(fit.m_eff, m_free))


def deficit_report(fit: MassFitResult, m_free: float) -> dict:
    """Deficit record for a fitted mass against the free-mass bound.

    The momentum-deficit percentage uses the fixed-E reading K ~ sqrt(M): a
    mass ratio r gives a momentum ratio sqrt(r), hence -100*(1 - sqrt(r)).
    The linear mass-ratio form is included for transparency but is not the
    adopted convention.
    """
    ratio = fit.m_eff / m_free
    frac_sqrt = 1.0 - math.sqrt(ratio)
    return {
        "m_eff": fit.m_eff,
        "stderr": fit.stderr,
        "e_rot_fit": fit.e_rot_fit,
        "m_free": m_free,
        "mass_ratio": ratio,
        "momentum_ratio": math.sqrt(ratio),
        "deficit_fraction": frac_sqrt,
        "deficit_percent": -100.0 * frac_sqrt,
        "deficit_percent_linear": -100.0 * (1.0 - ratio),
        "classification": effective_mass_bound_check(fit.m_eff, m_free),
    }


# --- spectrum reduction --------------------------------------------------------

@dataclass(frozen=True)
class ReducedDetector:
    """One detector converted from TOF to the (K, E) plane.

    intensity is counts divided by the instrument factor (k1/k0) * |dE/dt| * dt,
    i.e. samples of the energy-shell intensity along the trajectory; factor
    holds that per-bin conversion.  poisson says whether the counts are
    Poisson draws, so centroid_ke models their variances, or a noiseless
    density, so it scales by the fit's chi^2.  t, k, e and factor are
    read-only arrays shared with the trajectory memo of spectra.
    """

    detector_index: int
    t: np.ndarray
    k: np.ndarray
    e: np.ndarray
    intensity: np.ndarray
    factor: np.ndarray
    poisson: bool


def reduce_spectrum(spec: Spectrum, cfg: InstrumentConfig | None = None,
                    det_index: int | None = None,
                    poisson_errors: bool = False) -> ReducedDetector:
    """Map a TOF spectrum to (K, E) and divide out the instrument factors;
    poisson_errors says whether the counts are Poisson draws.

    Without an explicit cfg the single-detector geometry embedded in the
    spectrum metadata is used; MissingMetadata names the keys it lacks, or
    the field it holds in a form no instrument takes (a null detector.theta).
    """
    if cfg is None:
        meta = spec.metadata
        missing = [k for k in ("beam", "detector", "tof_bins") if k not in meta]
        if missing:
            raise MissingMetadata(
                f"spectrum metadata lacks {', '.join(missing)}; pass an instrument config")
        try:
            cfg = metadata_instrument(meta)
        except ValueError as exc:
            raise MissingMetadata(f"spectrum metadata: {exc}") from None
        det_index = 0
    elif det_index is None:
        det_index = spec.detector_index
    t, valid, _, e, kk, _, factor = _trajectory_arrays(cfg, det_index)
    with np.errstate(invalid="ignore", divide="ignore"):
        inten = np.where(valid, spec.counts / factor, 0.0)
    return ReducedDetector(spec.detector_index, t, kk, e, inten, factor,
                           bool(poisson_errors))


def _gauss_jac(e, amp, center, width):
    """Jacobian of amp * exp(-(e - center)^2 / (2 width^2)) in (amp, center,
    width); column 0 is the unit-amplitude Gaussian itself."""
    u = (e - center) / width
    jac = np.empty((len(e), 3), order="F")
    jac[:, 0] = np.exp(-0.5 * u * u)
    jac[:, 1] = (amp / width) * jac[:, 0] * u
    jac[:, 2] = jac[:, 1] * u
    return jac


def centroid_ke(red: ReducedDetector, window=None) -> tuple:
    """Per-detector peak centroid mapped to a KEPoint on the trajectory.

    Returns (KEPoint, PeakFit); K is interpolated at the fitted energy centroid.
    The Gaussian location fit is unweighted (Poisson weighting would emphasize
    the wings, where the shell lineshape departs from a Gaussian).  The
    centroid uncertainty comes from that fit's own window and Jacobian: for
    counting data the sandwich covariance with per-bin Poisson variances
    modeled as (fitted counts, floored at 1), otherwise the fit's
    chi^2-scaled covariance.
    """
    fit, res, jac, mask = _refine_gaussian(red.e, np.maximum(red.intensity, 0.0), window)
    var = None
    if red.poisson:
        factor = red.factor[mask]
        var = np.maximum(fit.amplitude * jac[:, 0] * factor, 1.0) / factor ** 2
    cerr = _centroid_stderr(res, jac, var)
    fit = replace(fit, centroid_err=cerr)
    fin = np.isfinite(red.e)
    k_at = float(np.interp(fit.centroid, red.e[fin], red.k[fin]))
    sigma = cerr if (cerr and cerr > 0) else None
    return KEPoint(k_at, fit.centroid, sigma), fit


# --- calibration audit -----------------------------------------------------------

AUDIT_PARAMS = ("L0", "L1", "t0", "theta", "E0")
# Prior standard deviations of the calibration deltas: the tolerances to which
# a calibrated instrument is trusted.  E0's is a fraction of E0.
AUDIT_PRIOR_SIGMA = {"L0": 0.01, "L1": 0.01, "t0": 1.0, "theta": math.radians(0.5)}
AUDIT_PRIOR_E0_FRACTION = 0.01
# A recalibration masks an anomaly only with every delta within this many sigma.
AUDIT_MAX_SIGMAS = 3.0


def calibration_audit(cfg: InstrumentConfig, observed_peaks, assumed_m: float,
                      free_params=(), masking_tol: float = 0.01) -> CalibrationReport:
    """Adjust chosen instrument parameters so the observed peak positions land
    on fit_roto_recoil's line E = E_rot + C_A K^2 / M of the assumed mass.

    observed_peaks: sequence of (detector_index, PeakFit) with energy-domain
    centroids referred to cfg.  As in the mass fits, when any peak has a
    stderr (a positive centroid_err) only those are used, absolutely
    weighted; otherwise all are used unweighted.  They are converted once to
    their (fixed, map-independent) TOF positions; the chosen parameter deltas
    (shared across detectors) are then fitted by least squares, every peak
    mapped back to (K, E) by one trajectory call.  E_rot is profiled: the
    weighted mean of E - C_A K^2 / M over the peaks the shifted calibration
    can map; a peak it cannot map gets a 1e6 residual and no refit point.
    The refit is fit_roto_recoil with E_rot free.  masking_flag reports
    whether the refitted mass agrees with assumed_m within masking_tol and
    every delta lies within AUDIT_MAX_SIGMAS of its prior, i.e. whether a
    plausible recalibration has absorbed whatever anomaly was present.  Each
    free delta x_j adds the prior residual x_j / sigma_j to the fit, so
    residual_norm includes those terms.
    """
    peaks = list(observed_peaks)
    free = tuple(free_params)
    for i, name in enumerate(free):
        if name not in AUDIT_PARAMS:
            raise ValueError(f"unknown calibration parameter {name!r}")
        if name in free[:i]:
            raise ValueError(f"calibration parameter {name!r} given twice")
    if len(free) > len(peaks):
        raise Underdetermined(
            f"{len(free)} free parameters but only {len(peaks)} peaks")
    beam, dets = cfg.beam, cfg.detectors
    for d, pf in peaks:
        if not 0 <= d < len(dets):
            raise UnknownDetector(f"no detector {d} among the instrument's {len(dets)}")
        if pf.centroid >= beam.e0:
            raise ValueError(f"centroid {pf.centroid} meV exceeds the incident energy")
    errs = np.array([pf.centroid_err or np.nan for _, pf in peaks], dtype=float)
    absolute = bool((errs > 0).any())
    if absolute:
        peaks = [p for p, err in zip(peaks, errs) if err > 0]
    sig = errs[errs > 0] if absolute else np.ones(len(peaks))
    base = {name: np.array([getattr(dets[d], name.lower()) for d, _ in peaks])
            for name in ("L0", "L1", "theta", "t0")}
    v1 = np.sqrt(C.VEL_SQ_PER_MEV * (beam.e0 - np.array([pf.centroid for _, pf in peaks])))
    t_peak = (base["L0"] / beam.v0 + base["L1"] / v1) / C.US_S + base["t0"]
    prior = {**AUDIT_PRIOR_SIGMA, "E0": AUDIT_PRIOR_E0_FRACTION * beam.e0}
    free_prior = np.array([prior[name] for name in free])

    def mapped(x):
        """(valid, E, K) of every peak under the calibration deltas x."""
        shift = dict(zip(free, x))
        e0 = beam.e0 + shift.get("E0", 0.0)
        if e0 <= 0:
            nan = np.full_like(t_peak, np.nan)
            return np.zeros(len(peaks), bool), nan, nan
        geo = [base[name] + shift.get(name, 0.0) for name in base]
        valid, _, e, kk, _ = trajectory(e0, *geo, t_peak)
        return valid, e, kk

    def residuals(x):
        valid, e, kk = mapped(x)
        off = e - recoil_energy(kk, assumed_m)   # less the profiled E_rot:
        off -= np.average(off[valid], weights=sig[valid] ** -2) if valid.any() else 0.0
        return np.concatenate([np.where(valid, off / sig, 1e6), x / free_prior])

    def residuals_and_jacobian(x):
        r = residuals(x)
        jac = np.empty((len(r), len(x)))
        for j in range(len(x)):
            shifted = x.copy()
            shifted[j] += FD_STEP * max(abs(x[j]), 1.0)
            jac[:, j] = (residuals(shifted) - r) / (shifted[j] - x[j])
        return r, jac

    x = np.zeros(len(free))
    resid_norm = float(np.linalg.norm(residuals(x)))
    if free:
        try:
            x, r, _ = _levenberg_marquardt(residuals_and_jacobian, x)
        except NonConvergence as exc:
            raise NonConvergence(f"calibration adjustment failed: {exc}") from exc
        resid_norm = float(np.linalg.norm(r))
    deltas = {name: 0.0 for name in AUDIT_PARAMS} | dict(zip(free, x.tolist()))
    valid, e, kk = mapped(x)
    refit = fit_roto_recoil([KEPoint(kk[i], e[i], sig[i] if absolute else None)
                             for i in np.flatnonzero(valid)])
    sigmas = {name: deltas[name] / prior[name] for name in AUDIT_PARAMS}
    masking = bool(abs(refit.m_eff - assumed_m) / assumed_m < masking_tol
                   and all(abs(v) <= AUDIT_MAX_SIGMAS for v in sigmas.values()))
    return CalibrationReport(deltas, refit.m_eff, refit.e_rot_fit, masking, resid_norm,
                             assumed_m, sigmas)


def report_text(report: CalibrationReport) -> str:
    """Human-readable audit table (4 significant digits)."""
    lines = ["calibration audit",
             f"  assumed mass : {report.assumed_mass:.4g} amu",
             f"  refit mass   : {report.refit_mass:.4g} amu",
             f"  refit E_rot  : {report.refit_e_rot:.4g} meV",
             f"  masking      : {'YES' if report.masking_flag else 'no'}",
             f"  residual norm: {report.residual_norm:.4g}",
             "  parameter deltas (prior sigmas):"]
    for name in AUDIT_PARAMS:
        lines.append(f"    {name:<6} {report.adjusted_params[name]:+.4g} "
                     f"({report.delta_sigmas[name]:+.4g})")
    return "\n".join(lines) + "\n"


# --- file ingestion ---------------------------------------------------------------

def ingest_spectrum(path) -> Spectrum:
    """Read a spectrum file written by spectra.write_spectrum_csv.

    The first line must be a '#'-prefixed JSON metadata record
    (MissingMetadata otherwise).  Malformed rows, non-finite values and
    negative counts raise ParseError with their 1-based line number, and
    fewer than 2 data rows one at the file's last line.  A null or wrongly
    shaped detector_index or tof_bins field raises ParseError at line 1,
    naming the field.
    """
    meta, data, n_lines = read_table(path, SPECTRUM_COLUMNS, _spectrum_fault,
                                     axis=table_axis)
    if len(data) < 2:   # the bin edges need two TOF rows
        raise ParseError(n_lines, "need at least 2 data rows")
    c = np.ascontiguousarray(data[:, 1])
    try:
        det_index = json_field(meta, "detector_index", int, default=0)
        tb = json_field(meta, "tof_bins", dict) if meta.get("tof_bins") else None
        if tb is not None:
            n_bins = json_field(tb, "n_bins", int, at="tof_bins.")
            t_min = json_field(tb, "t_min", at="tof_bins.")
            t_max = json_field(tb, "t_max", at="tof_bins.")
    except ValueError as exc:
        raise ParseError(1, f"metadata {exc}") from None
    if tb is None:
        t = data[:, 0]
        half = 0.5 * (t[1] - t[0])
        edges = np.concatenate([t - half, [t[-1] + half]])
    elif n_bins != len(c):
        raise ParseError(n_lines, f"metadata says {n_bins} bins, file has {len(c)}")
    else:
        edges = np.linspace(t_min, t_max, len(c) + 1)
    return Spectrum(det_index, edges, c, meta)


def _spectrum_fault(data, row_text):
    """First row with a non-finite value or negative counts, as (row, message)."""
    finite = np.isfinite(data).all(axis=1)
    bad = ~finite | (data[:, 1] < 0)
    if not bad.any():
        return None
    i = int(bad.argmax())
    if not finite[i]:
        return i, f"non-finite value in row {row_text(i)!r}"
    return i, f"negative counts {float(data[i, 1])}"


# --- centroid table I/O (a tablefile table, used by the CLI) --------------------

CENTROID_COLUMNS = ("detector", "K", "E", "sigma_E")


def write_centroids_csv(records, path, metadata=None):
    """records: iterable of (detector_index, KEPoint); a missing sigma_E is
    written as nan."""
    rows = np.array([(d, pt.k, pt.e, math.nan if pt.sigma_e is None else pt.sigma_e)
                     for d, pt in records], dtype=float).reshape(-1, 4)
    write_table(path, {"schema": 1, **(metadata or {})}, CENTROID_COLUMNS, rows.T)


def read_centroids_csv(path):
    """Returns (metadata, list of (detector_index, KEPoint)); a nan sigma_E
    reads as None.  Bad rows raise ParseError with their 1-based line."""
    meta, data, _ = read_table(path, CENTROID_COLUMNS, _centroid_fault)
    return meta, [(int(d), KEPoint(k, e, None if math.isnan(sig) else sig))
                  for d, k, e, sig in data.tolist()]


def _centroid_fault(data, row_text):
    """First row with a non-finite value (a nan sigma_E is a missing one), a
    detector index that is not a non-negative integer or a non-positive
    sigma_E, as (row, message)."""
    d, sig = data[:, 0], data[:, 3]
    finite = np.isfinite(data[:, :3]).all(axis=1) & ~np.isinf(sig)
    bad = ~finite | (d < 0) | (d != np.floor(d)) | (sig <= 0)
    if not bad.any():
        return None
    i = int(bad.argmax())
    if not finite[i]:
        return i, f"non-finite value in row {row_text(i)!r}"
    if d[i] != math.floor(d[i]):
        return i, f"detector index {float(d[i])} is not an integer"
    if d[i] < 0:
        return i, f"negative detector index {int(d[i])}"
    return i, f"non-positive sigma_E {float(sig[i])}"
