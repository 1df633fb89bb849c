"""Forward instrument model: impulse-approximation structure factor, detector
K-E trajectories, TOF-binned spectrum synthesis and Poisson counting noise.

The dynamic structure factor in the impulse approximation is the initial
momentum density evaluated on the energy shell,

    S(K, E) = n(P*) * M / (2 C_A K),    P* = (E - E_rec(K, M)) * M / (2 C_A K),

with C_A = hbar^2/(2 u) in meV A^2, so that integral S dE = 1 for each K.
Spectra are binned in TOF; the analytic Jacobian dE/dt = 2 C_E k1^2 / T
(T = TOF over the scattered flight path) converts shell intensity to expected
counts per bin, together with the standard k1/k0 cross-section prefactor.

An optional momentum-transfer deficit can be injected: the recorded
(neutron-side) momentum transfer K then relates to the atom-side transfer by
K = K_atom * (1 - lam * d) with d = w^2/(1 + w^2) for a Gaussian final state
of width ratio w, so the energy shell sampled at recorded K is the one at
K_atom = K / (1 - lam * d).  A recoil fit to such spectra returns the reduced
apparent mass M * (1 - lam * d)^2.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import constants as C
from .errors import NonPositiveK, NotNormalized, UnphysicalTOF
from .kinematics import (
    DetectorGeometry,
    NeutronBeam,
    doppler_term,
    energy_rate,
    k_transfer,
    recoil_energy,
    tof,
    trajectory,
)
from .qstate import (
    MixedState,
    WaveFunction,
    expectation_p,
    gaussian_state,
    grid_for_gaussians,
)
from .tablefile import write_table


@dataclass(frozen=True)
class TofBinning:
    t_min: float
    t_max: float
    n_bins: int

    def __post_init__(self):
        for name, value in (("t_min", self.t_min), ("t_max", self.t_max)):
            if not math.isfinite(value):
                raise ValueError(f"{name} = {value!r} must be finite")
        if not self.t_min < self.t_max:
            raise ValueError("require t_min < t_max")
        if self.n_bins < 16:
            raise ValueError("require n_bins >= 16")

    @property
    def edges(self):
        return np.linspace(self.t_min, self.t_max, self.n_bins + 1)

    @property
    def centers(self):
        e = self.edges
        return 0.5 * (e[:-1] + e[1:])

    @property
    def width(self):
        return (self.t_max - self.t_min) / self.n_bins


@dataclass(frozen=True)
class InstrumentConfig:
    beam: NeutronBeam
    detectors: tuple
    tof_bins: TofBinning

    def __post_init__(self):
        dets = tuple(self.detectors)
        if not dets:
            raise ValueError("need at least one detector")
        object.__setattr__(self, "detectors", dets)


@dataclass(frozen=True)
class DeficitInjection:
    """Weak-value momentum-transfer deficit: smallness lam, final-state width
    ratio w (Gaussian family, deficit fraction d = w^2/(1+w^2))."""

    lam: float
    width_ratio: float

    def __post_init__(self):
        if not 0 < self.lam <= 1:
            raise ValueError("lambda must lie in (0, 1]")
        if not 0 < self.width_ratio <= 1:
            raise ValueError("width_ratio must lie in (0, 1]")

    @property
    def k_scale(self):
        """Recorded K divided by atom-side K."""
        d = self.width_ratio**2 / (1.0 + self.width_ratio**2)
        return 1.0 - self.lam * d


@dataclass(frozen=True)
class SampleModel:
    """Scattering sample: mass, initial momentum distribution (centered at 0),
    optional rotational offset E_rot, optional deficit injection."""

    mass: float
    momentum_dist: object   # WaveFunction or MixedState
    e_rot: float = 0.0
    deficit: DeficitInjection | None = None

    def __post_init__(self):
        if not 0 < self.mass < math.inf:
            raise ValueError(f"sample mass M = {self.mass!r} must be positive and finite")
        if not 0 <= self.e_rot < math.inf:
            raise ValueError(f"E_rot = {self.e_rot!r} must be nonnegative and finite")
        center = expectation_p(self.momentum_dist)
        if abs(center) > 1e-6:
            raise ValueError(
                f"momentum distribution centered at {center:.3e}; scatterer must start at rest")


@dataclass(frozen=True)
class Spectrum:
    """Counts (or expected counts) versus TOF for one detector."""

    detector_index: int
    bin_edges: np.ndarray
    counts: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if counts.shape != (len(edges) - 1,):
            raise ValueError("counts length must be n_bins = len(edges) - 1")
        if not np.all(np.isfinite(counts)):
            raise ValueError("counts must be finite")
        if np.any(counts < 0):
            raise ValueError("counts must be nonnegative")
        edges.setflags(write=False)
        counts.setflags(write=False)
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "counts", counts)

    @property
    def bin_centers(self):
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])


@dataclass(frozen=True)
class TabulatedDensity:
    """Momentum density n(P) sampled on a uniform axis; integrates to 1."""

    p: np.ndarray
    n: np.ndarray

    def __call__(self, p_query):
        return np.interp(p_query, self.p, self.n, left=0.0, right=0.0)


def momentum_density(state) -> TabulatedDensity:
    """n(P) = |Xi(P)|^2 (diagonal part only; mixtures add densities by weight)."""
    if isinstance(state, MixedState):
        dens = np.zeros(state.grid.n_points)
        for w, wf in state.components:
            dens += w * momentum_density(wf).n
        return TabulatedDensity(state.grid.points, dens)
    total = state.norm_sq()
    if abs(total - 1.0) > 1e-6:
        raise NotNormalized(f"density integrates to {total!r}")
    n = np.abs(state.amplitudes) ** 2 / total
    return TabulatedDensity(state.grid.points, n)


def s_ia(k, omega_grid, density: TabulatedDensity, mass: float):
    """Impulse-approximation S(K, E) tabulated on the given energy grid [meV].

    k is one K or one per grid point (a detector trajectory).  Normalized so
    that the integral over E is 1 for each K (delta-function reduction).
    """
    if np.any(np.less_equal(k, 0)):
        raise NonPositiveK("K must be positive")
    if mass <= 0:
        raise ValueError("mass must be positive")
    omega_grid = np.asarray(omega_grid, dtype=float)
    e_rec = recoil_energy(k, mass)
    jac = mass / (2.0 * C.ATOM_E_COEF * k)   # dP/dE on the shell
    p_star = (omega_grid - e_rec) * jac
    return density(p_star) * jac


# Trajectories kept by _trajectory: one per detector of the 11-detector H2
# bank, so a Monte-Carlo study over it recomputes none of them.  Beyond the
# t, K, E and factor arrays its ReducedDetectors hold, an entry keeps valid,
# k1 and dE/dt alive.
TRAJECTORY_MEMO_SIZE = 11


def _trajectory_arrays(cfg, det_index):
    """Read-only (t, valid, k1, E, K, dE/dt, factor) along one detector's TOF
    bin centers, shared by the simulator and the reducer.  factor is the
    counts-per-shell-intensity conversion (k1/k0) * dE/dt * dt, nan where the
    TOF is unphysical."""
    return _trajectory(cfg.beam, cfg.detectors[det_index], cfg.tof_bins)


@functools.lru_cache(maxsize=TRAJECTORY_MEMO_SIZE)
def _trajectory(beam, geom, bins):
    """Memoised on what the trajectory depends on, so a geometry rebuilt from
    spectrum-file metadata finds the entry its simulation filled."""
    t = bins.centers
    valid, k1, e, kk, jac = trajectory(beam.e0, geom.l0, geom.l1, geom.theta,
                                       geom.t0, t)
    factor = np.where(valid, (k1 / beam.k0) * jac * bins.width, np.nan)
    out = (t, valid, k1, e, kk, jac, factor)
    for a in out:
        a.setflags(write=False)
    return out


def simulate_spectrum(cfg: InstrumentConfig, sample: SampleModel,
                      det_index: int) -> Spectrum:
    """Noiseless expected counts for one detector.

    Per bin: (k1/k0) * S_IA(K_atom, E - E_rot) * |dE/dt| * dt, with
    K_atom = K_recorded / k_scale when a deficit is injected.  Raises
    UnphysicalTOF if any bin of the TOF window is not invertible.
    """
    t, valid, k1, e, kk, jac, _ = _trajectory_arrays(cfg, det_index)
    if not np.all(valid):
        bad = int(np.argmin(valid))
        raise UnphysicalTOF(
            f"detector {det_index}: TOF bin at {t[bad]:.1f} us precedes the "
            "incident flight time; shrink the TOF window")
    k_atom = kk / sample.deficit.k_scale if sample.deficit else kk
    s_vals = s_ia(k_atom, e - sample.e_rot, momentum_density(sample.momentum_dist),
                  sample.mass)
    counts = (k1 / cfg.beam.k0) * s_vals * jac * cfg.tof_bins.width
    meta = {
        "schema": 1,
        "seed": None,
        "detector_index": det_index,
        "beam": {"E0": cfg.beam.e0},
        "detector": _geom_dict(cfg.detectors[det_index]),
        "tof_bins": {"t_min": cfg.tof_bins.t_min, "t_max": cfg.tof_bins.t_max,
                     "n_bins": cfg.tof_bins.n_bins},
        "sample": sample_summary(sample),
    }
    return Spectrum(det_index, cfg.tof_bins.edges, counts, meta)


def poisson_sample(spec: Spectrum, total_counts: int, seed: int) -> Spectrum:
    """Poisson-distributed counts scaled to the requested total; deterministic
    for a given seed."""
    if total_counts <= 0:
        raise ValueError("total_counts must be positive")
    expected = spec.counts
    s = expected.sum()
    if s == 0:
        sampled = np.zeros_like(expected)
    else:
        rng = np.random.default_rng(seed)
        sampled = rng.poisson(expected * (total_counts / s)).astype(float)
    meta = dict(spec.metadata)
    meta["seed"] = int(seed)
    meta["total_counts"] = int(total_counts)
    return Spectrum(spec.detector_index, spec.bin_edges, sampled, meta)


def sample_summary(sample: SampleModel) -> dict:
    d = {"M": sample.mass, "E_rot": sample.e_rot}
    if sample.deficit is not None:
        d["deficit"] = {"lambda": sample.deficit.lam,
                        "width_ratio": sample.deficit.width_ratio}
    dist = sample.momentum_dist
    if isinstance(dist, MixedState):
        d["momentum_dist"] = {
            "type": "mixture",
            "components": [
                {"weight": w,
                 "sigma": wf.descriptor.sigma if wf.descriptor else None}
                for w, wf in dist.components],
        }
    else:
        d["momentum_dist"] = {
            "type": "gaussian" if dist.descriptor else "tabulated",
            "sigma": dist.descriptor.sigma if dist.descriptor else None,
        }
    return d


def _geom_dict(geom: DetectorGeometry) -> dict:
    return {"L0": geom.l0, "L1": geom.l1, "theta": geom.theta, "t0": geom.t0}


# --- recoil-peak location and TOF window selection ----------------------------

def recoil_peak_k1(beam: NeutronBeam, theta: float, mass_eff: float,
                   e_rot: float = 0.0) -> float:
    """Scattered wavenumber at the center of the recoil peak.

    Solves C_E(k0^2 - k1^2) = E_rot + C_A K^2 / M_eff for k1 (the
    generalization of the elastic two-body ratio to a rotational offset and an
    arbitrary effective mass; for E_rot = 0 it reduces to the elastic
    k1/k0 = (cos theta + sqrt(rho^2 - sin^2 theta)) / (rho + 1), rho = M_eff/m_n).
    """
    k0 = beam.k0
    a = C.NEUTRON_E_COEF + C.ATOM_E_COEF / mass_eff
    b = 2.0 * C.ATOM_E_COEF * k0 * math.cos(theta) / mass_eff
    c0 = (C.NEUTRON_E_COEF - C.ATOM_E_COEF / mass_eff) * k0**2 - e_rot
    disc = b**2 + 4.0 * a * c0
    if disc < 0:
        raise UnphysicalTOF(
            f"no recoil-peak solution at theta={theta} for M_eff={mass_eff}")
    k1 = (b + math.sqrt(disc)) / (2.0 * a)
    if k1 <= 0:
        raise UnphysicalTOF(
            f"recoil peak sits at the kinematic boundary (theta={theta})")
    return k1


# Doppler widths that recoil_tof_window keeps on each side of a recoil peak
TOF_WINDOW_MARGIN_SIGMAS = 8.0


def recoil_tof_window(beam: NeutronBeam, detectors, sample: SampleModel,
                      sigma_p: float, n_bins: int = 512) -> TofBinning:
    """TOF binning that brackets every detector's recoil peak.

    The margin is TOF_WINDOW_MARGIN_SIGMAS Doppler widths converted to TOF
    through the local Jacobian, so the full lineshape fits for each detector.
    """
    t_lo, t_hi = math.inf, -math.inf
    k_scale = sample.deficit.k_scale if sample.deficit else 1.0
    m_eff = sample.mass * k_scale**2
    for geom in detectors:
        k1 = recoil_peak_k1(beam, geom.theta, m_eff, sample.e_rot)
        tp = tof(geom, beam.v0, k1 * C.VEL_PER_WAVENUMBER)   # the peak center
        kk = k_transfer(beam.k0, k1, geom.theta) / k_scale   # atom-side K
        sigma_e = doppler_term(kk, sigma_p, sample.mass)
        t_leg = tp - geom.t0 - geom.l0 / beam.v0 / C.US_S
        dt = TOF_WINDOW_MARGIN_SIGMAS * sigma_e / energy_rate(k1, t_leg)
        t_lo = min(t_lo, tp - dt)
        t_hi = max(t_hi, tp + dt)
    # every bin must stay invertible for every detector
    t_floor = max(tof(g, beam.v0, math.inf) for g in detectors)
    t_lo = max(t_lo, t_floor + 1.0)
    return TofBinning(t_lo, t_hi, n_bins)


# --- instrument presets and JSON config I/O -----------------------------------

def arcs_like_instrument(theta_deg=None, e0=90.0, tof_window=None, n_bins=512):
    """Synthetic direct-geometry preset: L0 = 11.6 m, L1 = 4.0 m, detectors at
    10..130 degrees in 5-degree steps, t0 = 0.  Only E0 = 90 meV is tied to a
    real measurement; the rest are plumbing defaults."""
    if theta_deg is None:
        theta_deg = list(range(10, 135, 5))
    beam = NeutronBeam(e0)
    dets = tuple(DetectorGeometry(11.6, 4.0, math.radians(a)) for a in theta_deg)
    if tof_window is None:
        t_elastic = (11.6 + 4.0) / beam.v0 / C.US_S
        tof_window = (0.85 * t_elastic, 2.0 * t_elastic)
    bins = TofBinning(tof_window[0], tof_window[1], n_bins)
    return InstrumentConfig(beam, dets, bins)


def instrument_to_dict(cfg: InstrumentConfig) -> dict:
    return {
        "schema": 1,
        "beam": {"E0": cfg.beam.e0},
        "detectors": [_geom_dict(g) for g in cfg.detectors],
        "tof_bins": {"t_min": cfg.tof_bins.t_min, "t_max": cfg.tof_bins.t_max,
                     "n_bins": cfg.tof_bins.n_bins},
    }


def instrument_from_dict(doc: dict) -> InstrumentConfig:
    if doc.get("schema") != 1:
        raise ValueError(f"unsupported config schema {doc.get('schema')!r}")
    beam = NeutronBeam(float(doc["beam"]["E0"]))
    dets = []
    for g in doc["detectors"]:
        theta = math.radians(float(g["theta_deg"])) if "theta_deg" in g \
            else float(g["theta"])
        dets.append(DetectorGeometry(float(g["L0"]), float(g["L1"]),
                                     theta, float(g.get("t0", 0.0))))
    tb = doc["tof_bins"]
    bins = TofBinning(float(tb["t_min"]), float(tb["t_max"]), int(tb["n_bins"]))
    return InstrumentConfig(beam, tuple(dets), bins)


def load_instrument_json(path) -> InstrumentConfig:
    with open(path) as fh:
        return instrument_from_dict(json.load(fh))


def save_instrument_json(cfg: InstrumentConfig, path):
    with open(path, "w") as fh:
        json.dump(instrument_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def sample_from_dict(doc: dict) -> SampleModel:
    """Build a SampleModel from its JSON form.

    momentum_dist is either {"type": "gaussian", "sigma": s} or
    {"type": "mixture", "components": [{"weight": w, "sigma": s}, ...]};
    distributions are always centered at zero.
    """
    if doc.get("schema") != 1:
        raise ValueError(f"unsupported config schema {doc.get('schema')!r}")
    dist = doc["momentum_dist"]
    if dist["type"] == "gaussian":
        sigma = float(dist["sigma"])
        grid = grid_for_gaussians([0.0], [sigma])
        momentum = gaussian_state(grid, 0.0, sigma)
    elif dist["type"] == "mixture":
        sigmas = [float(c["sigma"]) for c in dist["components"]]
        weights = [float(c["weight"]) for c in dist["components"]]
        grid = grid_for_gaussians([0.0] * len(sigmas), sigmas)
        momentum = MixedState(tuple(
            (w, gaussian_state(grid, 0.0, s)) for w, s in zip(weights, sigmas)))
    else:
        raise ValueError(f"unknown momentum_dist type {dist['type']!r}")
    deficit = None
    if doc.get("deficit"):
        deficit = DeficitInjection(float(doc["deficit"]["lambda"]),
                                   float(doc["deficit"]["width_ratio"]))
    return SampleModel(float(doc["M"]), momentum,
                       float(doc.get("E_rot", 0.0)), deficit)


def load_sample_json(path) -> SampleModel:
    with open(path) as fh:
        return sample_from_dict(json.load(fh))


# --- spectrum files: tablefile tables with columns tof_us,counts ---------------

SPECTRUM_COLUMNS = ("tof_us", "counts")


def table_axis(meta: dict, n_rows: int):
    """The TOF axis the package's writers put in the first column of a
    spectrum or K-E table: the bin centres of meta's tof_bins when they
    number n_rows, else None (also for absent or malformed tof_bins).
    tablefile.read_table takes these values only where the file's text is
    theirs."""
    tb = meta.get("tof_bins")
    try:
        bins = TofBinning(float(tb["t_min"]), float(tb["t_max"]), int(tb["n_bins"]))
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    return bins.centers if bins.n_bins == n_rows else None


def write_spectrum_csv(spec: Spectrum, path):
    meta = dict(spec.metadata)
    meta.setdefault("detector_index", spec.detector_index)
    meta.setdefault("tof_bins", {
        "t_min": float(spec.bin_edges[0]),
        "t_max": float(spec.bin_edges[-1]),
        "n_bins": len(spec.counts),
    })
    write_table(path, meta, SPECTRUM_COLUMNS, (spec.bin_centers, spec.counts))
