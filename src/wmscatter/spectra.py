"""Forward instrument model: impulse-approximation structure factor, detector
K-E trajectories, TOF-binned spectrum synthesis and Poisson counting noise.

The dynamic structure factor in the impulse approximation is the initial
momentum density evaluated on the energy shell,

    S(K, E) = n(P*) * M / (2 C_A K),    P* = (E - E_rec(K, M)) * M / (2 C_A K),

with C_A = hbar^2/(2 u) in meV A^2, so that integral S dE = 1 for each K.
The sample's n(P) is a Gaussian or a Gaussian mixture centred at zero,
sum_i w_i N(P; 0, sigma_i), and s_ia evaluates it in closed form: the
simulator and a fit of the spectra share that one model.  Spectra are binned
in TOF; the analytic Jacobian dE/dt = 2 C_E k1^2 / T (T = TOF over the
scattered flight path) converts shell intensity to expected counts per bin,
together with the standard k1/k0 cross-section prefactor.

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
from .errors import NonPositiveK, UnphysicalTOF
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
    """Scattering sample: mass, initial momentum density, optional rotational
    offset E_rot, optional deficit injection.

    momentum_dist is a tuple of (weight, sigma) components, read as
    n(P) = sum_i w_i N(P; 0, sigma_i): centred at zero by construction.  There
    is at least one component, each weight is finite and >= 0, the weights sum
    to 1 within 1e-10, and each sigma is positive and finite.

    One other form is taken for momentum_dist: a Gaussian state carrying an
    analytic descriptor centred at 0 (qstate.gaussian_state(grid, 0.0, s)),
    read as ((1.0, s),).  It exists for the benchmark's h2_sample alone and
    goes with the next change to the benchmark (ROADMAP Direction 1).
    """

    mass: float
    momentum_dist: tuple
    e_rot: float = 0.0
    deficit: DeficitInjection | None = None

    def __post_init__(self):
        if not 0 < self.mass < math.inf:
            raise ValueError(f"sample mass M = {self.mass!r} must be positive and finite")
        if not 0 <= self.e_rot < math.inf:
            raise ValueError(f"E_rot = {self.e_rot!r} must be nonnegative and finite")
        object.__setattr__(self, "momentum_dist", _components(self.momentum_dist))


def _components(dist) -> tuple:
    """The validated (weight, sigma) tuple of a SampleModel's momentum_dist."""
    if hasattr(dist, "amplitudes"):   # the tagged Gaussian state of h2_sample
        tag = dist.descriptor
        if tag is None:
            raise ValueError("a momentum_dist state needs a Gaussian descriptor")
        if tag.center != 0:
            raise ValueError(f"momentum_dist centred at {tag.center!r}; "
                             "scatterer must start at rest")
        dist = ((1.0, tag.sigma),)
    comps = tuple((float(w), float(s)) for w, s in dist)
    if not comps:
        raise ValueError("momentum_dist needs at least one component")
    for w, s in comps:
        if not 0 <= w < math.inf:
            raise ValueError(f"momentum_dist weight = {w!r} must be finite and nonnegative")
        if not 0 < s < math.inf:
            raise ValueError(f"momentum_dist sigma = {s!r} must be positive and finite")
    wsum = sum(w for w, _ in comps)
    if abs(wsum - 1.0) > 1e-10:
        raise ValueError(f"momentum_dist weights must sum to 1 (got {wsum!r})")
    return comps


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


def s_ia(k, omega_grid, components, mass: float):
    """Impulse-approximation S(K, E) tabulated on the given energy grid [meV].

    k is one K or one per grid point (a detector trajectory); components are
    a SampleModel's (weight, sigma) pairs, so n(P*) = sum_i w_i N(P*; 0, sigma_i)
    in closed form.  Normalized so that the integral over E is 1 for each K
    (delta-function reduction).
    """
    if np.any(np.less_equal(k, 0)):
        raise NonPositiveK("K must be positive")
    if mass <= 0:
        raise ValueError("mass must be positive")
    omega_grid = np.asarray(omega_grid, dtype=float)
    e_rec = recoil_energy(k, mass)
    jac = mass / (2.0 * C.ATOM_E_COEF * k)   # dP/dE on the shell
    p_star = (omega_grid - e_rec) * jac
    density = sum(w / (s * math.sqrt(2.0 * math.pi)) * np.exp(-0.5 * np.square(p_star / s))
                  for w, s in components)
    return density * jac


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
    s_vals = s_ia(k_atom, e - sample.e_rot, sample.momentum_dist, sample.mass)
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
    comps = sample.momentum_dist
    if len(comps) == 1:
        d["momentum_dist"] = {"type": "gaussian", "sigma": comps[0][1]}
    else:
        d["momentum_dist"] = {
            "type": "mixture",
            "components": [{"weight": w, "sigma": s} for w, s in comps],
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


# --- instrument and sample JSON config I/O -----------------------------------

_REQUIRED = object()
# What each kind of field read takes, and its name in an error message
_JSON_KINDS = {float: ((int, float), "number"), int: ((int, float), "integer"),
               dict: (dict, "object"), list: (list, "array")}


def json_field(doc: dict, key: str, kind=float, at: str = "", default=_REQUIRED):
    """doc[key] read by json_value as the field at + key, or default when doc
    lacks key; a ValueError names the field when it is missing without one."""
    if key in doc:
        return json_value(doc[key], at + key, kind)
    if default is _REQUIRED:
        raise ValueError(f"{at}{key} is missing")
    return default


def json_value(value, name: str, kind=float):
    """value read as a JSON field of kind: float takes a number, int a whole
    number, dict an object and list an array.  Anything else, null, true and
    a numeric string among them, raises a ValueError naming the field, so a
    config or metadata fault never escapes as a TypeError."""
    types, noun = _JSON_KINDS[kind]
    if isinstance(value, bool) or not isinstance(value, types) \
            or (kind is int and not (isinstance(value, int) or value.is_integer())):
        text = json.dumps(value, default=repr)
        raise ValueError(f"{name} = {text} is not a JSON {noun}")
    return kind(value) if kind in (float, int) else value


def instrument_to_dict(cfg: InstrumentConfig) -> dict:
    return {
        "schema": 1,
        "beam": {"E0": cfg.beam.e0},
        "detectors": [_geom_dict(g) for g in cfg.detectors],
        "tof_bins": {"t_min": cfg.tof_bins.t_min, "t_max": cfg.tof_bins.t_max,
                     "n_bins": cfg.tof_bins.n_bins},
    }


def instrument_from_dict(doc: dict) -> InstrumentConfig:
    doc = json_value(doc, "instrument config", dict)
    return _instrument(doc, [(f"detectors[{i}]", g)
                             for i, g in enumerate(json_field(doc, "detectors", list))])


def metadata_instrument(meta: dict) -> InstrumentConfig:
    """The one-detector instrument a spectrum's metadata records under beam,
    detector and tof_bins."""
    return _instrument(meta, [("detector", meta.get("detector"))])


def _instrument(doc: dict, detectors) -> InstrumentConfig:
    """The InstrumentConfig of doc's beam and tof_bins and the detectors, given
    as (field name, JSON object) pairs."""
    if doc.get("schema") != 1:
        raise ValueError(f"unsupported config schema {doc.get('schema')!r}")
    beam = NeutronBeam(json_field(json_field(doc, "beam", dict), "E0", at="beam."))
    dets = []
    for at, g in detectors:
        g = json_value(g, at, dict)
        at += "."
        theta = math.radians(json_field(g, "theta_deg", at=at)) if "theta_deg" in g \
            else json_field(g, "theta", at=at)
        dets.append(DetectorGeometry(json_field(g, "L0", at=at), json_field(g, "L1", at=at),
                                     theta, json_field(g, "t0", at=at, default=0.0)))
    tb = json_field(doc, "tof_bins", dict)
    bins = TofBinning(json_field(tb, "t_min", at="tof_bins."),
                      json_field(tb, "t_max", at="tof_bins."),
                      json_field(tb, "n_bins", int, at="tof_bins."))
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
    doc = json_value(doc, "sample config", dict)
    if doc.get("schema") != 1:
        raise ValueError(f"unsupported config schema {doc.get('schema')!r}")
    dist = json_field(doc, "momentum_dist", dict)
    kind = dist.get("type")
    if kind == "gaussian":
        momentum = ((1.0, json_field(dist, "sigma", at="momentum_dist.")),)
    elif kind == "mixture":
        momentum = []
        for i, c in enumerate(json_field(dist, "components", list, at="momentum_dist.")):
            at = f"momentum_dist.components[{i}]"
            c = json_value(c, at, dict)
            momentum.append((json_field(c, "weight", at=at + "."),
                             json_field(c, "sigma", at=at + ".")))
    else:
        raise ValueError(f"unknown momentum_dist type {kind!r}")
    deficit = None
    if doc.get("deficit"):
        d = json_field(doc, "deficit", dict)
        deficit = DeficitInjection(json_field(d, "lambda", at="deficit."),
                                   json_field(d, "width_ratio", at="deficit."))
    return SampleModel(json_field(doc, "M"), tuple(momentum),
                       json_field(doc, "E_rot", default=0.0), deficit)


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
