"""One-dimensional momentum-space quantum states on uniform grids.

States live on a shared uniform momentum axis P (units hbar/Angstrom) and are
normalized so that sum |Xi(P_j)|^2 dP = 1 by the trapezoidal rule.  Every
integral (norms, overlaps, moments, weak-value numerators) is one pass of
trapezoid_vdot: np.vdot over the grid plus the two endpoint corrections.
Gaussian states carry an analytic descriptor of their center and width.

Amplitudes keep the kind of their input, float64 for real and complex128 for
complex; every Gaussian state is real.  Bit-for-bit statements hold at a fixed
BLAS thread count, since np.vdot over a large grid is split across threads.

The descriptor is trusted: a tagged state is taken to be exactly zero
outside the index window where its Gaussian underflows to 0.0
(WaveFunction.support()), so integrals with it as the bra may run over that
window alone.

Everything here is immutable after construction and all operations are pure
functions, so concurrent use from multiple threads is safe.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import GridMismatch, GridTooNarrow, NonPositiveSigma, NotNormalized

# Gaussian grids keep at least this many nodes per (smallest) sigma so that
# trapezoidal sums are exponentially converged far below the 1e-8 tolerances.
POINTS_PER_SIGMA = 4.0
SPAN_SIGMAS = 10.0
MIN_POINTS = 1024


def trapezoid_vdot(a, b, dx, ends=(True, True)):
    """Trapezoidal <a|b> = integral of conj(a) * b over uniform samples.

    a and b may hold only a window of the grid's samples outside which a is
    zero; ends then tells whether the window's first and last samples are
    grid nodes 0 and n-1, the only nodes with the half-weight correction.
    """
    head = np.conj(a[0]) * b[0] if ends[0] else 0.0
    tail = np.conj(a[-1]) * b[-1] if ends[1] else 0.0
    return (np.vdot(a, b) - 0.5 * (head + tail)) * dx


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


def _gaussian_support(grid: MomentumGrid, center: float, sigma: float):
    """Index window [lo, hi) of grid outside which the Gaussian state of this
    center and sigma is exactly 0.0.

    exp(-x) is 0.0 for x > 745.2, and the window's edges sit where
    (P - center)^2 / (4 sigma^2) = 746; two binary searches, no scan.
    """
    half = 2.0 * sigma * math.sqrt(746.0)
    pts = grid.points
    return int(pts.searchsorted(center - half)), int(pts.searchsorted(center + half))


@dataclass(frozen=True)
class WaveFunction:
    """Real (float64) or complex (complex128) momentum amplitudes on a MomentumGrid.

    When ``descriptor`` is set the amplitudes are exactly that normalized
    Gaussian.  The amplitudes are a read-only copy of the array passed in;
    only this module passes _built=True, for a fresh array it made itself.
    """

    grid: MomentumGrid
    amplitudes: np.ndarray
    descriptor: GaussianTag | None = None
    _built: InitVar[bool] = False

    def __post_init__(self, _built):
        amps = self.amplitudes if _built else np.array(
            self.amplitudes, dtype=complex if np.iscomplexobj(self.amplitudes) else float)
        if amps.shape != (self.grid.n_points,):
            raise ValueError("amplitudes length must equal grid.n_points")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)
        if self.descriptor is not None and self.descriptor.sigma <= 0:
            raise NonPositiveSigma("descriptor sigma must be positive")

    def norm_sq(self):
        return float(trapezoid_vdot(self.amplitudes, self.amplitudes, self.grid.dp).real)

    def support(self):
        """Index window [lo, hi) outside which the amplitudes are exactly zero:
        _gaussian_support() of the descriptor, or the whole grid without one."""
        tag = self.descriptor
        if tag is None:
            return 0, self.grid.n_points
        return _gaussian_support(self.grid, tag.center, tag.sigma)


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
    # exp is evaluated on the support only, in place: -((P - center)^2) / (4 sigma^2)
    lo, hi = _gaussian_support(grid, center, sigma)
    amps = np.zeros(grid.n_points)
    seg = amps[lo:hi]
    np.subtract(grid.points[lo:hi], center, out=seg)
    np.square(seg, out=seg)
    np.negative(seg, out=seg)
    np.divide(seg, 4.0 * sigma**2, out=seg)
    np.exp(seg, out=seg)
    # normalised by the dot product over the whole contiguous buffer: one over
    # the support alone can differ in the last bit
    norm_sq = float(trapezoid_vdot(amps, amps, grid.dp).real)
    if norm_sq <= 0:
        raise NotNormalized("zero-norm state cannot be normalized")
    np.divide(seg, math.sqrt(norm_sq), out=seg)
    return WaveFunction(grid, amps, GaussianTag(center, sigma), _built=True)


def expectation_p(state) -> float:
    """<P> of a normalized WaveFunction or MixedState."""
    if isinstance(state, MixedState):
        return sum(w * expectation_p(wf) for w, wf in state.components)
    dev = abs(state.norm_sq() - 1.0)
    if dev > 1e-6:
        raise NotNormalized(f"norm deviates from 1 by {dev:.3e}")
    amps = state.amplitudes
    return float(trapezoid_vdot(amps, state.grid.points * amps, state.grid.dp).real)

