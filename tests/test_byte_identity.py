"""The column-wise table writer, the vectorised pixel-binned ribbon, and the
memoised trajectory with the lean centroid path produce the same bytes as the
point-at-a-time code kept here as references."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from wmscatter import analysis, cli, spectra, svgplot
from wmscatter import constants as C
from wmscatter.errors import InsufficientPoints
from wmscatter.kinematics import DetectorGeometry, NeutronBeam
from wmscatter.kinematics import KEPoint

BEAM = NeutronBeam(90.0)


def ref_write_rows(path, meta, names, rows):
    """A table file written row by row, each value by repr."""
    with open(path, "w", newline="") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def ref_write_spectrum_csv(spec, path):
    meta = dict(spec.metadata)
    meta.setdefault("detector_index", spec.detector_index)
    meta.setdefault("tof_bins", {
        "t_min": float(spec.bin_edges[0]),
        "t_max": float(spec.bin_edges[-1]),
        "n_bins": len(spec.counts),
    })
    ref_write_rows(path, meta, spectra.SPECTRUM_COLUMNS, zip(spec.bin_centers, spec.counts))


def ref_write_ke_csv(red, meta, path):
    keep = {k: meta[k] for k in ("schema", "seed", "run_seed", "detector_index",
                                 "beam", "detector", "tof_bins", "sample")
            if k in meta}
    ref_write_rows(path, keep, cli.KE_COLUMNS, zip(red.t, red.k, red.e, red.intensity))


def ref_circles(points):
    """Ribbon circles binned to pixels one point at a time: one at the centre
    of each pixel a shown point falls in, row by row, with the opacity
    1 - prod(1 - a) of that pixel's points, in their order."""
    pts = [p for p in points if all(map(math.isfinite, p))]
    ks = [p[0] for p in pts]
    es = [p[1] for p in pts]
    imax = max(p[2] for p in pts) or 1.0
    kpad = 0.05 * (max(ks) - min(ks) or 1.0)
    epad = 0.05 * (max(es) - min(es) or 1.0)
    ax = svgplot._Axes((min(ks) - kpad, max(ks) + kpad),
                       (min(es) - epad, max(es) + epad))
    survive = {}
    for k, e, inten in pts:
        a = min(inten / imax, 1.0)
        if a > 0:
            pixel = (math.floor(ax.y(e)), math.floor(ax.x(k)))
            survive[pixel] = survive.get(pixel, 1.0) * (1.0 - a)
    return [f'<circle cx="{col + 0.5:.2f}" cy="{row + 0.5:.2f}" r="2.4" '
            f'fill="steelblue" fill-opacity="{1.0 - s:.3f}"/>'
            for (row, col), s in sorted(survive.items())]


def h2_config(t_min, t_max, n_bins):
    geom = DetectorGeometry(11.6, 4.0, math.radians(15.0))
    return spectra.InstrumentConfig(BEAM, (geom,), spectra.TofBinning(t_min, t_max, n_bins))


def h2_sample():
    return spectra.SampleModel(2.01, ((1.0, 0.3),), 14.7)


def peak_config(n_bins=2048, t_offset=0.0):
    """One detector whose TOF window brackets the H2 recoil peak, with edges
    shifted off round values so the bin centres print with 17 digits."""
    sample = h2_sample()
    geom = DetectorGeometry(11.6, 4.0, math.radians(15.0))
    bins = spectra.recoil_tof_window(BEAM, (geom,), sample, 0.3, n_bins=n_bins)
    return h2_config(bins.t_min + 0.1234567 + t_offset, bins.t_max + t_offset, n_bins)


def same_bytes(a, b):
    return a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("poisson", [True, False], ids=["poisson", "noiseless"])
def test_spectrum_file_matches_row_writer(tmp_path, poisson):
    cfg = peak_config()
    spec = spectra.simulate_spectrum(cfg, h2_sample(), 0)
    if poisson:
        spec = spectra.poisson_sample(spec, 200000, seed=4)
        # the writer formats each distinct count once
        assert len(np.unique(spec.counts)) < len(spec.counts) / 4
    else:
        assert np.any(spec.counts != np.round(spec.counts))
    assert max(len(repr(t)) for t in spec.bin_centers.tolist()) >= 18
    spectra.write_spectrum_csv(spec, tmp_path / "new.csv")
    ref_write_spectrum_csv(spec, tmp_path / "ref.csv")
    assert same_bytes(tmp_path / "new.csv", tmp_path / "ref.csv")
    back = analysis.ingest_spectrum(tmp_path / "new.csv")
    assert np.array_equal(back.counts, spec.counts)


def test_alternating_binnings_keep_their_own_tof_column(tmp_path):
    sample = h2_sample()
    specs = [spectra.simulate_spectrum(peak_config(512, dt), sample, 0)
             for dt in (0.0, 0.5)]
    assert not np.array_equal(specs[0].bin_centers, specs[1].bin_centers)
    for n in range(4):
        spec = specs[n % 2]
        spectra.write_spectrum_csv(spec, tmp_path / f"new{n}.csv")
        ref_write_spectrum_csv(spec, tmp_path / f"ref{n}.csv")
        assert same_bytes(tmp_path / f"new{n}.csv", tmp_path / f"ref{n}.csv")


# Values whose text a writer could get wrong: both zeros, both NaN signs
# (whose repr is the same), both infinities, the smallest subnormal and a
# double that repr writes in exponent form.
EDGE_VALUES = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 1e16]


def ke_reduction():
    """A 64-bin K-E reduction whose first bins arrive before the incident
    flight time, so they hold nan K and E."""
    t_in = 11.6 / BEAM.v0 / C.US_S
    cfg = h2_config(t_in - 40.0 + 0.1234567, t_in + 600.0, 64)
    spec = spectra.Spectrum(0, cfg.tof_bins.edges, np.linspace(0.0, 63.0, 64),
                            {"schema": 1, "seed": 3})
    red = analysis.reduce_spectrum(spec, cfg, 0, poisson_errors=True)
    assert np.isnan(red.e).any() and np.isfinite(red.e).any()
    return red, spec.metadata


def rows_of(red, rows):
    return replace(red, t=red.t[rows], k=red.k[rows], e=red.e[rows],
                   intensity=red.intensity[rows])


@pytest.mark.parametrize("case", ["ke-nan-rows", "ke-edge-values", "ke-0-rows", "ke-1-row",
                                  "centroids"])
def test_table_file_matches_row_writer(tmp_path, case):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    if case == "centroids":   # the first column is a detector index, not a TOF axis
        records = [(d, KEPoint(2.0 + d / 3, 20.0 + 5.0 * d, None if d == 2 else 0.1))
                   for d in range(5)]
        analysis.write_centroids_csv(records, new, metadata={"seed": 3})
        ref_write_rows(ref, {"schema": 1, "seed": 3}, analysis.CENTROID_COLUMNS,
                       [(d, pt.k, pt.e, math.nan if pt.sigma_e is None else pt.sigma_e)
                        for d, pt in records])
        assert same_bytes(new, ref)
        assert analysis.read_centroids_csv(new)[1] == records
        return
    red, meta = ke_reduction()
    if case == "ke-edge-values":
        red = replace(red, intensity=np.resize(EDGE_VALUES, len(red.t)))
    elif case == "ke-0-rows":
        red = rows_of(red, slice(0, 0))
    elif case == "ke-1-row":
        red = rows_of(red, slice(-1, None))
    cli._write_ke_csv(red, meta, new)
    ref_write_ke_csv(red, meta, ref)
    assert same_bytes(new, ref)
    back = cli._read_ke_csv(new)
    assert np.array_equal(back, np.column_stack([red.k, red.e, red.intensity]),
                          equal_nan=True)


@pytest.mark.parametrize("as_array", [False, True], ids=["triples", "array"])
def test_ribbon_circles_match_point_loop(as_array):
    cfg = peak_config(512)
    spec = spectra.poisson_sample(
        spectra.simulate_spectrum(cfg, h2_sample(), 0), 5000, seed=2)
    red = analysis.reduce_spectrum(spec, cfg, 0)
    points = list(zip(red.k, red.e, red.intensity))
    points += [(2.5, float("nan"), 1.0), (2.6, 30.0, 0.0), (2.7, 31.0, -1.0)]
    assert sum(p[2] == 0 for p in points) > 10
    svg = svgplot.ribbon_svg(np.array(points) if as_array else points,
                             m_conventional=2.01, m_fitted=0.64, e_rot_fitted=14.7,
                             centroids=[(3.0, 30.0)])
    drawn = [line for line in svg.splitlines() if 'r="2.4"' in line]
    assert drawn == ref_circles(points)
    assert 0 < len(drawn) < len(points) - 10


def test_ribbon_draws_one_circle_per_occupied_pixel():
    cfg = peak_config(512)
    points = []
    for seed in range(4):   # four draws of one detector stack onto the same pixels
        spec = spectra.poisson_sample(
            spectra.simulate_spectrum(cfg, h2_sample(), 0), 5000, seed=seed)
        red = analysis.reduce_spectrum(spec, cfg, 0)
        points += zip(red.k, red.e, red.intensity)
    svg = svgplot.ribbon_svg(points)
    drawn = [line for line in svg.splitlines() if 'r="2.4"' in line]
    assert drawn == ref_circles(points)
    centres = [tuple(float(v) for v in re.findall(r'c[xy]="([^"]+)"', line)) for line in drawn]
    ax, _ = svgplot._ribbon(points)
    occupied = {(math.floor(ax.x(k)), math.floor(ax.y(e))) for k, e, i in points
                if math.isfinite(e) and i > 0}
    assert len(set(centres)) == len(centres) <= len(occupied)
    assert all((x - 0.5).is_integer() and (y - 0.5).is_integer() for x, y in centres)
    assert len(centres) < sum(1 for p in points if p[2] > 0) / 2


def test_ribbon_skips_non_finite_intensity():
    points = [(1.0, 10.0, 2.0), (1.5, 12.0, 4.0), (2.0, 14.0, 1.0)]
    bad = points + [(1.7, 13.0, float("nan")), (1.8, 13.5, float("inf"))]
    svg = svgplot.ribbon_svg(bad)
    assert "nan" not in svg and "inf" not in svg
    assert svg == svgplot.ribbon_svg(points)


# --- reduce_spectrum and centroid_ke before the trajectory memo and the lean
# centroid path: a Spectrum wrapper around the intensities, np.gradient and
# np.sum moments, and a chi^2-scaled stderr that the sandwich then replaces.

def ref_trajectory_arrays(cfg, det_index):
    geom = cfg.detectors[det_index]
    beam = cfg.beam
    t = cfg.tof_bins.centers
    remain_us = (t - geom.t0) - geom.l0 / beam.v0 / C.US_S
    valid = remain_us > 0
    safe = np.where(valid, remain_us, np.nan)
    v1 = geom.l1 / (safe * C.US_S)
    k1 = v1 / C.VEL_PER_WAVENUMBER
    e = C.NEUTRON_E_COEF * (beam.k0**2 - k1**2)
    kk = np.sqrt(np.maximum(
        beam.k0**2 + k1**2 - 2.0 * beam.k0 * k1 * math.cos(geom.theta), 0.0))
    jac = 2.0 * C.NEUTRON_E_COEF * k1**2 / safe
    return t, valid, v1, k1, e, kk, jac


def ref_reduce_spectrum(spec, cfg, det_index, poisson_errors=False):
    t, valid, v1, k1, e, kk, jac = ref_trajectory_arrays(cfg, det_index)
    factor = (k1 / cfg.beam.k0) * jac * cfg.tof_bins.width
    with np.errstate(invalid="ignore", divide="ignore"):
        inten = np.where(valid, spec.counts / factor, 0.0)
    return analysis.ReducedDetector(spec.detector_index, t, kk, e, inten,
                                    np.where(valid, factor, np.nan), poisson_errors)


def ref_gauss_jac(e, amp, center, width):
    u = (e - center) / width
    jac = np.empty((len(e), 3), order="F")
    jac[:, 0] = np.exp(-0.5 * u * u)
    jac[:, 1] = (amp / width) * jac[:, 0] * u
    jac[:, 2] = jac[:, 1] * u
    return jac


def ref_moments(e, y):
    de = np.gradient(e)
    tot = np.sum(y * de)
    c = float(np.sum(e * y * de) / tot)
    w = math.sqrt(max(float(np.sum((e - c) ** 2 * y * de) / tot), 0.0))
    return c, w


def ref_auto_window(e, y):
    fin = np.isfinite(e)
    if not fin.all():
        e, y = e[fin], y[fin]
    c, w = ref_moments(e, y)
    for _ in range(2):
        mask = (e >= c - 3.0 * w) & (e <= c + 3.0 * w)
        if np.count_nonzero(mask) < 5:
            break
        c, w = ref_moments(e[mask], y[mask])
    return c - 3.0 * w, c + 3.0 * w


def ref_peak_centroid(spec, energy_axis, window=None):
    e = np.asarray(energy_axis, dtype=float)
    y = np.asarray(spec.counts, dtype=float)
    lo, hi = ref_auto_window(e, y) if window is None else window
    mask = (e >= lo) & (e <= hi)
    ew, yw = e[mask], y[mask]
    de = np.gradient(ew)
    tot = np.sum(yw * de)
    first = float(np.sum(ew * yw * de) / tot)
    var = float(np.sum((ew - first) ** 2 * yw * de) / tot)
    width0 = math.sqrt(max(var, (ew[1] - ew[0]) ** 2 / 12.0))

    def residuals(p):
        jac = ref_gauss_jac(ew, *p)
        return p[0] * jac[:, 0] - yw, jac

    popt, wres, wjac = analysis._levenberg_marquardt(
        residuals, [float(yw.max()), first, width0])
    cov = np.linalg.inv(wjac.T @ wjac)
    cov *= float(wres @ wres) / (len(yw) - len(popt))
    return analysis.PeakFit(float(popt[1]), abs(float(popt[2])), float(popt[0]),
                            float(np.linalg.norm(wres)), first_moment=first,
                            centroid_err=float(math.sqrt(abs(cov[1, 1]))))


def ref_centroid_ke(red, window=None):
    spec_like = spectra.Spectrum(red.detector_index,
                                 np.arange(len(red.intensity) + 1, dtype=float),
                                 np.maximum(red.intensity, 0.0))
    fit = ref_peak_centroid(spec_like, red.e, window=window)
    if red.poisson:
        lo, hi = window if window is not None else ref_auto_window(red.e, spec_like.counts)
        mask = (red.e >= lo) & (red.e <= hi) & np.isfinite(red.factor)
        if np.count_nonzero(mask) >= 5:
            ew = red.e[mask]
            jac = ref_gauss_jac(ew, fit.amplitude, fit.centroid, fit.width)
            model_counts = fit.amplitude * jac[:, 0] * red.factor[mask]
            var_i = np.maximum(model_counts, 1.0) / red.factor[mask] ** 2
            jtj_inv = np.linalg.inv(jac.T @ jac)
            cov = jtj_inv @ ((jac.T * var_i) @ jac) @ jtj_inv
            fit = replace(fit, centroid_err=float(math.sqrt(abs(cov[1, 1]))))
    fin = np.isfinite(red.e)
    k_at = float(np.interp(fit.centroid, red.e[fin], red.k[fin]))
    sigma = fit.centroid_err if (fit.centroid_err and fit.centroid_err > 0) else None
    return KEPoint(k_at, fit.centroid, sigma), fit


def h2_bank(n_bins=2048):
    """The Monte-Carlo H2 bank: 8..28 degrees in 2-degree steps, M_eff = 0.64."""
    lam = 2.0 * (1.0 - math.sqrt(0.64 / 2.01))
    sample = spectra.SampleModel(2.01, h2_sample().momentum_dist, 14.7,
                                 spectra.DeficitInjection(lam, 1.0))
    dets = tuple(DetectorGeometry(11.6, 4.0, math.radians(a)) for a in range(8, 29, 2))
    bins = spectra.recoil_tof_window(BEAM, dets, sample, 0.3, n_bins=n_bins)
    return spectra.InstrumentConfig(BEAM, dets, bins), sample


def reduced_bytes(red):
    return [np.asarray(a).tobytes()
            for a in (red.t, red.k, red.e, red.intensity, red.factor)] + \
        [red.detector_index, red.poisson]


def assert_same_reduction_and_centroid(spec, cfg, d, poisson_errors, window=None):
    red = analysis.reduce_spectrum(spec, cfg, d, poisson_errors=poisson_errors)
    ref = ref_reduce_spectrum(spec, cfg, d, poisson_errors=poisson_errors)
    assert reduced_bytes(red) == reduced_bytes(ref)
    got = analysis.centroid_ke(red, window)
    want = ref_centroid_ke(ref, window)
    assert repr(got) == repr(want)
    return got


@pytest.mark.parametrize("poisson", [True, False], ids=["poisson", "noiseless"])
def test_h2_bank_reduction_and_centroids_match_reference(poisson):
    cfg, sample = h2_bank()
    for d in range(len(cfg.detectors)):
        spec = spectra.simulate_spectrum(cfg, sample, d)
        if poisson:
            spec = spectra.poisson_sample(spec, 200000, seed=100 + d)
        # noiseless: no count errors, so the stderr is the chi^2-scaled one
        assert_same_reduction_and_centroid(spec, cfg, d, poisson_errors=poisson)


def test_explicit_window_matches_reference():
    cfg, sample = h2_bank()
    spec = spectra.poisson_sample(spectra.simulate_spectrum(cfg, sample, 2), 200000, seed=9)
    auto = assert_same_reduction_and_centroid(spec, cfg, 2, True)[1]
    window = (auto.centroid - 2.0 * auto.width, auto.centroid + 2.5 * auto.width)
    assert_same_reduction_and_centroid(spec, cfg, 2, True, window)


def test_stderr_at_22_degrees_comes_from_the_fit_window():
    # at 22 degrees the auto window is narrower than +-3 fitted widths, so a
    # stderr over +-3 fitted widths would use bins the fit never saw
    cfg, sample = h2_bank()
    spec = spectra.poisson_sample(spectra.simulate_spectrum(cfg, sample, 7), 200000, seed=107)
    auto = assert_same_reduction_and_centroid(spec, cfg, 7, True)
    red = analysis.reduce_spectrum(spec, cfg, 7, poisson_errors=True)
    lo, hi = analysis._auto_window(red.e, np.maximum(red.intensity, 0.0))
    fit = auto[1]
    assert lo > fit.centroid - 3.0 * fit.width and hi < fit.centroid + 3.0 * fit.width
    assert repr(analysis.centroid_ke(red, (lo, hi))) == repr(auto)


def test_leading_nan_energy_bins_match_reference():
    cfg, sample = h2_bank()
    d = 0
    spec = spectra.poisson_sample(spectra.simulate_spectrum(cfg, sample, d), 200000, seed=5)
    bins = cfg.tof_bins
    t_floor = 11.6 / BEAM.v0 / C.US_S
    extra = math.ceil((bins.t_min - t_floor) / bins.width) + 30
    wide = spectra.TofBinning(bins.t_min - extra * bins.width, bins.t_max,
                              bins.n_bins + extra)
    wide_cfg = spectra.InstrumentConfig(BEAM, cfg.detectors, wide)
    wide_spec = spectra.Spectrum(d, wide.edges,
                                 np.concatenate([np.zeros(extra), spec.counts]))
    assert np.count_nonzero(np.isnan(analysis.reduce_spectrum(wide_spec, wide_cfg, d).e)) >= 30
    assert_same_reduction_and_centroid(wide_spec, wide_cfg, d, True)


def test_chi2_stderr_fallback_matches_reference():
    # Poisson counts reduced as a noiseless density: the chi^2-scaled stderr
    cfg, sample = h2_bank()
    spec = spectra.poisson_sample(spectra.simulate_spectrum(cfg, sample, 4), 200000, seed=6)
    red = analysis.reduce_spectrum(spec, cfg, 4, poisson_errors=False)
    got, want = analysis.centroid_ke(red), ref_centroid_ke(red)
    assert repr(got) == repr(want)
    sandwich = analysis.centroid_ke(replace(red, poisson=True))
    assert sandwich[0].sigma_e != got[0].sigma_e


@pytest.mark.parametrize("axis", ["uniform", "nonuniform"])
def test_spacing_matches_np_gradient(axis):
    rng = np.random.default_rng(3)
    for n in range(2, 40):
        x = np.linspace(-3.0, 7.0, n) if axis == "uniform" \
            else np.cumsum(rng.uniform(0.01, 2.0, n)) - 5.0
        assert analysis._spacing(x).tobytes() == np.gradient(x).tobytes()


# --- the calibration audit before the trajectory kernel: one scalar TOF and
# one scalar (K, E) per peak and residual evaluation.

def ref_peak_tof(cfg, det_index, e_centroid):
    geom = cfg.detectors[det_index]
    v1 = C.neutron_speed(cfg.beam.e0 - e_centroid)
    return (geom.l0 / cfg.beam.v0 + geom.l1 / v1) / C.US_S + geom.t0


def ref_ke_under(cfg, det_index, t_peak, deltas):
    geom = cfg.detectors[det_index]
    e0 = cfg.beam.e0 + deltas.get("E0", 0.0)
    if e0 <= 0:
        return None
    v0 = C.neutron_speed(e0)
    k0 = C.neutron_wavenumber(e0)
    l0 = geom.l0 + deltas.get("L0", 0.0)
    l1 = geom.l1 + deltas.get("L1", 0.0)
    t0 = geom.t0 + deltas.get("t0", 0.0)
    theta = geom.theta + deltas.get("theta", 0.0)
    if l0 <= 0 or l1 <= 0:
        return None
    remain = (t_peak - t0) * C.US_S - l0 / v0
    if remain <= 0:
        return None
    k1 = l1 / remain / C.VEL_PER_WAVENUMBER
    e = C.NEUTRON_E_COEF * (k0**2 - k1**2)
    kk = math.sqrt(max(k0**2 + k1**2 - 2 * k0 * k1 * math.cos(theta), 0.0))
    return kk, e


def ref_audit_points(cfg, peaks, assumed_m, deltas):
    """Per peak that the mass fits' weighting rule keeps: the data residual
    about the profiled E_rot (1e6 where the deltas leave no (K, E)) and the
    KEPoint the refit uses (None there)."""
    errs = [pf.centroid_err if (pf.centroid_err and pf.centroid_err > 0) else None
            for _, pf in peaks]
    if any(err is not None for err in errs):
        peaks = [p for p, err in zip(peaks, errs) if err is not None]
        errs = [err for err in errs if err is not None]
    kes = [ref_ke_under(cfg, d, ref_peak_tof(cfg, d, pf.centroid), deltas)
           for d, pf in peaks]
    num = den = 0.0
    for ke, err in zip(kes, errs):
        if ke is not None:
            w = 1.0 / (err or 1.0) ** 2
            num += w * (ke[1] - C.ATOM_E_COEF * ke[0]**2 / assumed_m)
            den += w
    e_rot = num / den if den else 0.0
    out = []
    for ke, err in zip(kes, errs):
        if ke is None:
            out.append((1e6, None))
        else:
            off = ke[1] - C.ATOM_E_COEF * ke[0]**2 / assumed_m
            out.append(((off - e_rot) / (err or 1.0), KEPoint(ke[0], ke[1], err)))
    return out


def h2_bank_peaks():
    cfg, sample = h2_bank()
    peaks = []
    for d in range(len(cfg.detectors)):
        spec = spectra.poisson_sample(spectra.simulate_spectrum(cfg, sample, d),
                                      200000, seed=40 + d)
        pt, _ = analysis.centroid_ke(analysis.reduce_spectrum(spec, cfg, d, True))
        peaks.append((d, analysis.PeakFit(pt.e, 1.0, 1.0, 0.0, centroid_err=pt.sigma_e)))
    return cfg, peaks


def audit_at(monkeypatch, cfg, peaks, deltas):
    """calibration_audit with every parameter of deltas free and a solver that
    returns deltas as its solution: (report or raised error, data residuals)."""
    free = tuple(deltas)
    x = np.array([deltas[name] for name in free])
    seen = {}

    def solver(fun, x0):
        r, jac = fun(x)
        seen["r"] = r
        return x, r, jac

    monkeypatch.setattr(analysis, "_levenberg_marquardt", solver)
    try:
        rep = analysis.calibration_audit(cfg, peaks, 2.01, free)
    except InsufficientPoints as exc:
        rep = exc
    return rep, seen["r"][:len(peaks)]


@pytest.mark.parametrize("deltas", [
    {"t0": 0.0},
    {"L1": -0.015, "theta": math.radians(0.7)},
    {"L0": 0.02, "L1": -0.015, "t0": 1.5, "theta": math.radians(-0.4), "E0": 0.9},
    {"L0": -1.58, "L1": -1.04, "t0": -56.7, "theta": 1.03, "E0": -22.6},
], ids=["zero", "l1-theta", "all-small", "all-absurd"])
def test_audit_residuals_match_scalar_reference(monkeypatch, deltas):
    cfg, peaks = h2_bank_peaks()
    rep, got = audit_at(monkeypatch, cfg, peaks, deltas)
    ref = ref_audit_points(cfg, peaks, 2.01, deltas)
    assert all(pt is not None for _, pt in ref)
    np.testing.assert_allclose(got, [r for r, _ in ref], rtol=1e-12, atol=0.0)
    want = analysis.fit_roto_recoil([pt for _, pt in ref])
    assert rep.refit_mass == pytest.approx(want.m_eff, rel=1e-12)


def test_audit_sentinels_match_scalar_reference(monkeypatch):
    # alternate L0 and L1 so a shared delta turns half of the paths negative
    cfg, peaks = h2_bank_peaks()
    dets = tuple(replace(g, l0=(11.6, 9.0)[d % 2], l1=(4.0, 2.5)[d % 2])
                 for d, g in enumerate(cfg.detectors))
    cfg = replace(cfg, detectors=dets)
    legs = [ref_peak_tof(cfg, d, pf.centroid) - 11.6 / BEAM.v0 / C.US_S
            for d, pf in peaks if d % 2 == 0]
    cases = [({"E0": -BEAM.e0 - 1.0}, range(11)),
             ({"L0": -10.0}, range(1, 11, 2)),
             ({"L1": -3.0}, range(1, 11, 2)),
             ({"t0": 0.5 * (min(legs) + max(legs))}, None)]
    for deltas, dropped in cases:
        rep, got = audit_at(monkeypatch, cfg, peaks, deltas)
        ref = ref_audit_points(cfg, peaks, 2.01, deltas)
        gone = [d for d, (_, pt) in enumerate(ref) if pt is None]
        if dropped is None:
            assert 0 < len(gone) < 11
        else:
            assert gone == list(dropped), deltas
        assert all(got[d] == 1e6 for d in gone)
        kept = [d for d in range(11) if d not in gone]
        np.testing.assert_allclose(got[kept], [ref[d][0] for d in kept], rtol=1e-12)
        if len(kept) < 4:   # the roto-recoil refit's minimum
            assert isinstance(rep, InsufficientPoints), deltas
        else:
            want = analysis.fit_roto_recoil([ref[d][1] for d in kept])
            assert rep.refit_mass == pytest.approx(want.m_eff, rel=1e-12), deltas
