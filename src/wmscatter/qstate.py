"""One-dimensional momentum-space quantum states on uniform grids.

States live on a shared uniform momentum axis P (units hbar/Angstrom) and are
normalized so that sum |Xi(P_j)|^2 dP = 1 by the trapezoidal rule.  Every
integral (norms, overlaps, weak-value numerators) is one pass of
trapezoid_vdot: np.vdot over the samples it is given, the whole grid or a
window of it, plus the endpoint corrections of the grid ends that window
reaches.  Gaussian states carry an analytic descriptor of their center and
width, and are built and normalised on that window alone.  The axis itself is
computed per window (MomentumGrid.segment) with the bits np.linspace gives.

Amplitudes keep the kind of their input, float64 for real and complex128 for
complex; every Gaussian state is real.  Bit-for-bit statements hold at a fixed
BLAS thread count, since np.vdot over a large grid is split across threads.

The descriptor is trusted: a tagged state is taken to be exactly zero
outside the index window where its Gaussian underflows to 0.0
(WaveFunction.support()), so integrals with it as the bra may run over that
window alone.

Everything here is immutable after construction and all operations are pure
functions, so concurrent use from multiple threads is safe; a grid's full
axis is built on first use, with the same bits whichever thread builds it.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    GridMismatch,
    GridTooLarge,
    GridTooNarrow,
    NonFiniteInput,
    NonPositiveSigma,
    NotNormalized,
)

# Gaussian grids keep at least this many nodes per (smallest) sigma so that
# trapezoidal sums are exponentially converged far below the 1e-8 tolerances.
POINTS_PER_SIGMA = 4.0
SPAN_SIGMAS = 10.0
MIN_POINTS = 1024
# no grid has more nodes than this (128 MiB per float64 array), so an input
# that asks for a finer grid fails before anything is allocated
MAX_POINTS = 1 << 24


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
    """Uniform momentum axis from p_min to p_max with n_points nodes.

    Node i is i * dp + p_min and the last node is p_max, bit for bit as
    np.linspace makes them; no node is stored until something asks for it.
    """

    p_min: float
    p_max: float
    n_points: int
    dp: float = field(init=False, repr=False, compare=False)   # node spacing

    def __post_init__(self):
        if not (math.isfinite(self.p_min) and math.isfinite(self.p_max)
                and math.isfinite(self.p_max - self.p_min)):
            raise NonFiniteInput(f"grid ends p_min = {self.p_min!r}, p_max = {self.p_max!r} "
                                 "and their distance must be finite")
        if not self.p_min < self.p_max:
            raise ValueError("require p_min < p_max")
        if self.n_points < 8:
            raise ValueError("require n_points >= 8")
        if self.n_points > MAX_POINTS:
            raise GridTooLarge(f"n_points = {self.n_points} exceeds MAX_POINTS = {MAX_POINTS}")
        dp = (self.p_max - self.p_min) / (self.n_points - 1)
        if dp == 0:
            raise ValueError("p_max - p_min is too small to split into n_points - 1 steps")
        object.__setattr__(self, "dp", dp)

    def segment(self, lo, hi):
        """Nodes lo .. hi-1 as a fresh writable array."""
        seg = np.arange(lo, hi, dtype=float)
        seg *= self.dp
        seg += self.p_min
        if hi == self.n_points and hi > lo:
            seg[-1] = self.p_max
        return seg

    @cached_property
    def points(self):
        """All the nodes, read-only; built on first use."""
        pts = self.segment(0, self.n_points)
        pts.setflags(write=False)
        return pts

    def index_at(self, p):
        """np.searchsorted(points, p): how many nodes lie below p."""
        n, dp, p_min = self.n_points, self.dp, self.p_min
        if not p <= self.p_max:      # past the last node, or NaN
            return n
        # nodes 0 .. n-2 from their arithmetic, starting at the estimate
        t = (p - p_min) / dp
        i = 0 if t <= 0 else min(math.ceil(t), n - 1)
        while i > 0 and (i - 1) * dp + p_min >= p:
            i -= 1
        while i < n - 1 and i * dp + p_min < p:
            i += 1
        return i


def grid_for_gaussians(centers, sigmas):
    """Grid wide enough for all the listed Gaussians and fine enough for the
    narrowest one.

    The span covers every center +- SPAN_SIGMAS * max(sigma); n_points is the
    smallest power of two >= MIN_POINTS keeping dp <= min(sigma)/POINTS_PER_SIGMA.
    """
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    sigmas = np.atleast_1d(np.asarray(sigmas, dtype=float))
    c_min, c_max = float(centers.min()), float(centers.max())
    s_min, s_max = float(sigmas.min()), float(sigmas.max())
    # a min and a max are both finite only when every value is (NaN propagates)
    if not (math.isfinite(c_min) and math.isfinite(c_max)):
        raise NonFiniteInput(f"centers must be finite (got {centers.tolist()})")
    if not (math.isfinite(s_min) and math.isfinite(s_max)):
        raise NonFiniteInput(f"sigmas must be finite (got {sigmas.tolist()})")
    if s_min <= 0:
        raise NonPositiveSigma("all sigmas must be positive")
    pad = SPAN_SIGMAS * s_max
    lo = c_min - pad
    hi = c_max + pad
    target_dp = s_min / POINTS_PER_SIGMA
    if not hi - lo < MAX_POINTS * target_dp:
        raise GridTooLarge(f"spanning [{lo}, {hi}] at dp <= {target_dp} "
                           f"needs more than MAX_POINTS = {MAX_POINTS} nodes")
    n = max(MIN_POINTS, int(math.ceil((hi - lo) / target_dp)) + 1)
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
    (P - center)^2 / (4 sigma^2) = 746; each edge is found from the node
    arithmetic (MomentumGrid.index_at), no axis is built.
    """
    half = 2.0 * sigma * math.sqrt(746.0)
    return grid.index_at(center - half), grid.index_at(center + half)


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
        if not all(0 <= w < math.inf for w, _ in comps):
            raise ValueError("weights must be finite and nonnegative")
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
    if not (math.isfinite(center) and math.isfinite(4.0 * sigma * sigma)):
        raise NonFiniteInput(f"center {center!r} and 4 sigma^2 (sigma = {sigma!r}) must be finite")
    if center - 5 * sigma < grid.p_min or center + 5 * sigma > grid.p_max:
        raise GridTooNarrow(
            f"5-sigma window [{center - 5 * sigma}, {center + 5 * sigma}] "
            f"exceeds grid [{grid.p_min}, {grid.p_max}]")
    # evaluated and normalised on the support only, in place:
    # (P - center)^2 / (-4 sigma^2), the bits of -((P - center)^2) / (4 sigma^2)
    lo, hi = _gaussian_support(grid, center, sigma)
    seg = grid.segment(lo, hi)
    seg -= center
    np.square(seg, out=seg)
    seg /= -4.0 * sigma**2
    np.exp(seg, out=seg)
    norm_sq = float(trapezoid_vdot(seg, seg, grid.dp, (lo == 0, hi == grid.n_points)).real)
    if norm_sq <= 0:
        raise NotNormalized("zero-norm state cannot be normalized")
    seg /= math.sqrt(norm_sq)
    # a state on the whole grid keeps its own buffer; a narrower one sits in
    # zeros whose untouched pages nothing reads
    amps = seg
    if hi - lo < grid.n_points:
        amps = np.zeros(grid.n_points)
        amps[lo:hi] = seg
    return WaveFunction(grid, amps, GaussianTag(center, sigma), _built=True)
