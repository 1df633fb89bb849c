"""One-dimensional momentum-space quantum states on uniform grids.

States live on a shared uniform momentum axis P (units hbar/Angstrom) and are
normalized so that sum |Xi(P_j)|^2 dP = 1 by the trapezoidal rule.  Every
integral (norms, overlaps, moments, weak-value numerators) is one pass of
trapezoid_vdot: np.vdot over the grid plus the two endpoint corrections.
Gaussian states carry an analytic descriptor so momentum shifts can be
evaluated exactly; tabulated states are shifted by band-limited (FFT)
interpolation.

Everything here is immutable after construction and all operations are pure
functions, so concurrent use from multiple threads is safe.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    GridMismatch,
    GridTooNarrow,
    NonPositiveSigma,
    NotNormalized,
    ParseError,
)

# Gaussian grids keep at least this many nodes per (smallest) sigma so that
# trapezoidal sums are exponentially converged far below the 1e-8 tolerances.
POINTS_PER_SIGMA = 4.0
SPAN_SIGMAS = 10.0
MIN_POINTS = 1024


def trapezoid_vdot(a, b, dx):
    """Trapezoidal <a|b> = integral of conj(a) * b over uniform samples."""
    return (np.vdot(a, b) - 0.5 * (np.conj(a[0]) * b[0] + np.conj(a[-1]) * b[-1])) * dx


@dataclass(frozen=True)
class MomentumGrid:
    """Uniform momentum axis from p_min to p_max with n_points nodes."""

    p_min: float
    p_max: float
    n_points: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.p_min < self.p_max:
            raise ValueError("require p_min < p_max")
        if self.n_points < 8:
            raise ValueError("require n_points >= 8")
        pts = np.linspace(self.p_min, self.p_max, self.n_points)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def dp(self):
        return (self.p_max - self.p_min) / (self.n_points - 1)

    @property
    def span(self):
        return self.p_max - self.p_min


def grid_for_gaussians(centers, sigmas, span_sigmas=SPAN_SIGMAS,
                       points_per_sigma=POINTS_PER_SIGMA, min_points=MIN_POINTS):
    """Grid wide enough for all the listed Gaussians and fine enough for the
    narrowest one.

    The span covers every center +- span_sigmas * max(sigma); n_points is the
    smallest power of two >= min_points keeping dp <= min(sigma)/points_per_sigma.
    """
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    if np.any(sigmas <= 0):
        raise NonPositiveSigma("all sigmas must be positive")
    pad = span_sigmas * sigmas.max()
    lo = centers.min() - pad
    hi = centers.max() + pad
    target_dp = sigmas.min() / points_per_sigma
    n = max(min_points, int(math.ceil((hi - lo) / target_dp)) + 1)
    n = 1 << (n - 1).bit_length()
    return MomentumGrid(lo, hi, n)


@dataclass(frozen=True)
class GaussianTag:
    """Analytic descriptor of a Gaussian state: |Xi|^2 has std sigma."""

    center: float
    sigma: float


@dataclass(frozen=True)
class WaveFunction:
    """Complex momentum-space amplitudes on a MomentumGrid.

    When ``descriptor`` is set the amplitudes are exactly a normalized
    Gaussian and shift() re-evaluates instead of interpolating.
    """

    grid: MomentumGrid
    amplitudes: np.ndarray
    descriptor: GaussianTag | None = None

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (self.grid.n_points,):
            raise ValueError("amplitudes length must equal grid.n_points")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if self.descriptor is not None and self.descriptor.sigma <= 0:
            raise NonPositiveSigma("descriptor sigma must be positive")

    def norm_sq(self):
        return float(trapezoid_vdot(self.amplitudes, self.amplitudes, self.grid.dp).real)

    def tabulated(self):
        """Same amplitudes with the analytic descriptor dropped."""
        return WaveFunction(self.grid, self.amplitudes, descriptor=None)


@dataclass(frozen=True)
class MixedState:
    """Statistical mixture of wavefunctions sharing one grid."""

    components: tuple

    def __post_init__(self):
        comps = tuple((float(w), wf) for w, wf in self.components)
        if not comps:
            raise ValueError("mixed state needs at least one component")
        wsum = sum(w for w, _ in comps)
        if any(w < 0 for w, _ in comps):
            raise ValueError("weights must be nonnegative")
        if abs(wsum - 1.0) > 1e-10:
            raise ValueError(f"weights must sum to 1 (got {wsum!r})")
        g0 = comps[0][1].grid
        for _, wf in comps[1:]:
            if wf.grid != g0:
                raise GridMismatch("all mixture components must share one grid")
        object.__setattr__(self, "components", comps)

    @property
    def grid(self):
        return self.components[0][1].grid


def _unit(values, dx):
    n = float(trapezoid_vdot(values, values, dx).real)
    if n <= 0:
        raise NotNormalized("zero-norm state cannot be normalized")
    return values / math.sqrt(n)


def normalize(state: WaveFunction) -> WaveFunction:
    """Rescale so the trapezoidal norm is exactly 1."""
    return WaveFunction(state.grid, _unit(state.amplitudes, state.grid.dp), state.descriptor)


def gaussian_state(grid: MomentumGrid, center: float, sigma: float) -> WaveFunction:
    """Normalized Gaussian amplitudes exp(-(P-center)^2/(4 sigma^2)).

    The probability density |Xi|^2 then has standard deviation sigma. The
    5-sigma window around the center must fit inside the grid.
    """
    if sigma <= 0:
        raise NonPositiveSigma(f"sigma must be positive (got {sigma})")
    if center - 5 * sigma < grid.p_min or center + 5 * sigma > grid.p_max:
        raise GridTooNarrow(
            f"5-sigma window [{center - 5 * sigma}, {center + 5 * sigma}] "
            f"exceeds grid [{grid.p_min}, {grid.p_max}]")
    # exp(-x) is exactly 0.0 for x > 745.2, so evaluate it only inside +-half
    half = 2.0 * sigma * math.sqrt(746.0)
    lo, hi = np.searchsorted(grid.points, (center - half, center + half))
    env = np.zeros(grid.n_points)
    env[lo:hi] = np.exp(-((grid.points[lo:hi] - center) ** 2) / (4.0 * sigma**2))
    return WaveFunction(grid, _unit(env, grid.dp), GaussianTag(center, sigma))


def _require_same_grid(a, b):
    if a.grid != b.grid:
        raise GridMismatch("states live on different momentum grids")


def inner_product(bra: WaveFunction, ket: WaveFunction) -> complex:
    """<bra|ket> by trapezoidal quadrature; conjugate-symmetric."""
    _require_same_grid(bra, ket)
    return complex(trapezoid_vdot(bra.amplitudes, ket.amplitudes, bra.grid.dp))


def expectation_p(state) -> float:
    """<P> of a normalized WaveFunction or MixedState."""
    if isinstance(state, MixedState):
        return sum(w * expectation_p(wf) for w, wf in state.components)
    dev = abs(state.norm_sq() - 1.0)
    if dev > 1e-6:
        raise NotNormalized(f"norm deviates from 1 by {dev:.3e}")
    amps = state.amplitudes
    return float(trapezoid_vdot(amps, state.grid.points * amps, state.grid.dp).real)


def variance_p(state: WaveFunction) -> float:
    """Var(P) of a normalized state."""
    mean = expectation_p(state)
    dev = (state.grid.points - mean) * state.amplitudes
    return float(trapezoid_vdot(dev, dev, state.grid.dp).real)


def shift(state: WaveFunction, dp: float) -> WaveFunction:
    """Translate the state by dp in momentum.

    Gaussian-tagged states are re-evaluated exactly at the new center;
    tabulated states are shifted by band-limited FFT interpolation (requires
    |dp| < span/4 so the periodic wrap stays in the vanishing tails).
    """
    if dp == 0.0:
        return state
    if state.descriptor is not None:
        tag = state.descriptor
        return gaussian_state(state.grid, tag.center + dp, tag.sigma)
    if abs(dp) >= state.grid.span / 4.0:
        raise GridTooNarrow(
            f"tabulated shift |{dp}| must be < span/4 = {state.grid.span / 4.0}")
    n = state.grid.n_points
    freqs = np.fft.fftfreq(n, d=state.grid.dp)
    shifted = np.fft.ifft(np.fft.fft(state.amplitudes) * np.exp(-2j * np.pi * freqs * dp))
    return WaveFunction(state.grid, shifted, descriptor=None)


def apply_impulse(neutron: WaveFunction, atom: WaveFunction, hbar_k: float):
    """Impulsive momentum exchange: neutron loses hbar_k, atom gains hbar_k.

    The product state stays unentangled; returns (neutron', atom').
    """
    return shift(neutron, -hbar_k), shift(atom, +hbar_k)


def with_global_phase(state: WaveFunction, chi: float) -> WaveFunction:
    """Multiply the amplitudes by exp(i chi) (drops the analytic tag)."""
    return WaveFunction(state.grid, state.amplitudes * np.exp(1j * chi), None)


# --- CSV serialization: header "P,re,im", one row per node -------------------

def write_state_csv(state: WaveFunction, path):
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["P", "re", "im"])
        for p, a in zip(state.grid.points, state.amplitudes):
            wr.writerow([repr(float(p)), repr(float(a.real)), repr(float(a.imag))])


def read_state_csv(path) -> WaveFunction:
    """Inverse of write_state_csv; a bad header or row raises ParseError."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, [])
        if [h.strip() for h in header] != ["P", "re", "im"]:
            raise ParseError(1, f"unexpected CSV header {header}")
        rows = []
        for row in filter(None, rd):   # blank lines are skipped
            try:
                vals = [float(v) for v in row]
            except ValueError:
                vals = [math.nan]
            if len(vals) != 3 or not all(map(math.isfinite, vals)):
                raise ParseError(rd.line_num, f"expected 3 finite numbers, got {row}")
            rows.append(vals)
    p, re, im = np.array(rows, dtype=float).reshape(-1, 3).T
    dp = np.diff(p)
    if len(p) < 8 or not np.allclose(dp, dp[0], rtol=1e-9, atol=0):
        raise ValueError("CSV grid is not uniform")
    grid = MomentumGrid(float(p[0]), float(p[-1]), len(p))
    return WaveFunction(grid, re + 1j * im)
