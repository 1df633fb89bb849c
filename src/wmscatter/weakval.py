"""Weak values of atomic momentum under pre/post-selection.

Computes A_w = <post|A|pre>/<post|pre> for A = P - shift*I on momentum-space
states (shift 0 gives P_w, shift hbarK the coupling's (P - hbarK)_w), the
resulting pointer shifts for a von Neumann-type impulsive coupling, the
momentum-transfer deficit pi(hbarK) = -Re (P - hbarK)_w, and the scenario
constructors for the three canonical final-state cases:

    A  final state a (near-)plane wave: narrow Gaussian, width ratio 1e-3;
    B  final state narrower than the initial state (ratio in (0,1));
    C  final and initial states share one width.

For Gaussian pre (center 0, sigma_i) and Gaussian post (center hbarK,
sigma_f) the weak value has the closed form

    Re(P_w) = hbarK * sigma_i^2 / (sigma_i^2 + sigma_f^2),

so case C gives hbarK/2 independent of the shared width and case A recovers
the conventional full transfer.  The quadrature path below is checked against
that closed form (and an independent brute-force sum) in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import constants as C
from .errors import (
    GridMismatch,
    NonFiniteInput,
    NonPositiveInput,
    NonPositiveLength,
    OrthogonalSelection,
)
from .qstate import (
    MixedState,
    WaveFunction,
    gaussian_state,
    grid_for_gaussians,
    trapezoid_vdot,
)

EPS_OVERLAP_DEFAULT = 1e-8

# width ratio sigma_f/sigma_i used to realize the plane-wave limit of case A
PLANE_WAVE_RATIO = 1e-3


@dataclass(frozen=True)
class WeakValueResult:
    """Complex weak value and the pre/post overlap it was divided by."""

    value: complex
    overlap_mag: float


@dataclass(frozen=True)
class CouplingModel:
    """Impulsive coupling lambda * q (P - hbarK) between neutron and atom;
    hbarK enters through the (P - hbarK)_w that pointer_momentum_shift takes.

    sign="plus" is the physical choice; sign="minus_mu" is the deliberately
    wrong-signed variant used to demonstrate that it produces an increased
    pointer shift while the weak value itself is unchanged.
    """

    lam: float
    sign: str = "plus"

    def __post_init__(self):
        if not 0 < self.lam <= 1:
            raise ValueError("lambda must lie in (0, 1]")
        if self.sign not in ("plus", "minus_mu"):
            raise ValueError("sign must be 'plus' or 'minus_mu'")


def _post_overlaps(post: WaveFunction, grid, kets, shift):
    """<post|post> and, for each ket, (<post|ket>, <(P - shift) post|ket>).

    The sums run over post's support only, where it is not exactly zero; the
    trapezoid's endpoint terms count only where that window reaches a grid end.
    P - shift is built on the window's own slice of the axis.
    """
    if post.grid != grid:
        raise GridMismatch("states live on different momentum grids")
    lo, hi = post.support()
    ends, dp = (lo == 0, hi == grid.n_points), grid.dp
    bra = post.amplitudes[lo:hi]
    a_bra = (grid.segment(lo, hi) - shift) * bra
    return (float(trapezoid_vdot(bra, bra, dp, ends).real),
            [(complex(trapezoid_vdot(bra, k.amplitudes[lo:hi], dp, ends)),
              complex(trapezoid_vdot(a_bra, k.amplitudes[lo:hi], dp, ends))) for k in kets])


def weak_value(pre: WaveFunction, post: WaveFunction, shift: float = 0.0) -> WeakValueResult:
    """(P - shift)_w = <post|P - shift|pre>/<post|pre>: P_w at shift 0, the
    coupling's (P - hbarK)_w at shift hbarK.

    Raises OrthogonalSelection when the overlap magnitude (relative to the
    product of norms) falls below EPS_OVERLAP_DEFAULT.
    """
    post_norm, [(denom, numer)] = _post_overlaps(post, pre.grid, [pre], shift)
    norms = math.sqrt(post_norm * pre.norm_sq())
    overlap_mag = abs(denom) / norms if norms > 0 else 0.0
    if overlap_mag < EPS_OVERLAP_DEFAULT:
        raise OrthogonalSelection(
            f"|<post|pre>| = {overlap_mag:.3e} < eps = {EPS_OVERLAP_DEFAULT:.3e}")
    return WeakValueResult(numer / denom, overlap_mag)


def weak_value_mixed(pre: MixedState, post: WaveFunction, shift: float = 0.0) -> WeakValueResult:
    """Weak value of A = P - shift for a pre-selected mixture
    rho = sum_i w_i |psi_i><psi_i|:

        (A)_w = sum_i w_i <post|A|psi_i><psi_i|post> / sum_i w_i |<post|psi_i>|^2.

    Reduces to weak_value() for a single component, and raises
    OrthogonalSelection as it does, a zero-norm post state included.
    """
    post_norm, overlaps = _post_overlaps(
        post, pre.grid, [psi for _, psi in pre.components], shift)
    numer = 0.0 + 0.0j
    denom = 0.0
    for (w, _), (ov, a_ov) in zip(pre.components, overlaps):
        numer += w * a_ov * ov.conjugate()
        denom += w * abs(ov) ** 2
    overlap_mag = math.sqrt(max(denom, 0.0) / post_norm) if post_norm > 0 else 0.0
    if overlap_mag < EPS_OVERLAP_DEFAULT:
        raise OrthogonalSelection(
            f"mixed overlap {overlap_mag:.3e} < eps = {EPS_OVERLAP_DEFAULT:.3e}")
    return WeakValueResult(complex(numer / denom), overlap_mag)


def pointer_momentum_shift(model: CouplingModel, coupling_wv: WeakValueResult) -> float:
    """Mean neutron-momentum correction from the weak coupling.

    sign="plus":     -lambda * Re[(P - hbarK)_w]   (= +lambda*pi, a deficit)
    sign="minus_mu": +lambda * Re[(P - hbarK)_w]   (= -lambda*pi, unphysical)
    """
    re = coupling_wv.value.real
    return -model.lam * re if model.sign == "plus" else +model.lam * re


def _width_ratio(kind: str, width_ratio: float) -> float:
    """sigma_f/sigma_i of case A, B or C; case B's is width_ratio."""
    if kind == "B" and not 0 < width_ratio <= 1:
        raise NonPositiveInput("width_ratio must lie in (0, 1] for case B")
    ratios = {"A": PLANE_WAVE_RATIO, "B": width_ratio, "C": 1.0}
    if kind not in ratios:
        raise ValueError(f"unknown scenario kind {kind!r}")
    return ratios[kind]


def scenario(kind: str, sigma_i: float, hbar_k: float, width_ratio: float = 0.5):
    """Pre/post state pair for the canonical final-state cases A, B, C.

    pre is always Gaussian(0, sigma_i); post is Gaussian(hbarK, sigma_f) with
    sigma_f = PLANE_WAVE_RATIO*sigma_i (A), width_ratio*sigma_i (B), sigma_i (C).
    Every input must be finite, width_ratio too where the case ignores it.
    """
    for name, value in (("sigma_i", sigma_i), ("hbarK", hbar_k), ("width_ratio", width_ratio)):
        if not math.isfinite(value):
            raise NonFiniteInput(f"{name} must be finite (got {value!r})")
    if sigma_i <= 0:
        raise NonPositiveInput("sigma_i must be positive")
    if hbar_k <= 0:
        raise NonPositiveInput("hbarK must be positive")
    sigma_f = _width_ratio(kind.upper(), width_ratio) * sigma_i
    grid = grid_for_gaussians([0.0, hbar_k], [sigma_i, sigma_f])
    pre = gaussian_state(grid, 0.0, sigma_i)
    post = gaussian_state(grid, hbar_k, sigma_f)
    return pre, post


def scenario_record(kind: str, sigma_i: float, hbar_k: float,
                    width_ratio: float = 0.5, lam: float = 0.01,
                    sign: str = "plus") -> dict:
    """One JSON-ready record of a full scenario evaluation.

    The total pointer momentum transfer is the conventional -hbarK plus the
    pointer shift: -hbarK + lambda*deficit for sign "plus" (magnitude <= hbarK
    for a deficit in [0, hbarK]), -hbarK - lambda*deficit for "minus_mu".
    """
    kind = kind.upper()
    pre, post = scenario(kind, sigma_i, hbar_k, width_ratio)
    # the deficit straight from (P - hbarK)_w: hbarK - Re(P_w) would cancel
    # about six digits in case A, where Re(P_w) agrees with hbarK to 1e-6
    coupling = weak_value(pre, post, hbar_k)
    p_w = coupling.value + hbar_k
    shift = pointer_momentum_shift(CouplingModel(lam, sign), coupling)
    total = -hbar_k + shift
    return {
        "case": kind,
        "sigma_i": sigma_i,
        "hbarK": hbar_k,
        "width_ratio": _width_ratio(kind, width_ratio),
        "lambda": lam,
        "sign": sign,
        "P_w_re": p_w.real,
        "P_w_im": p_w.imag,
        "deficit": -coupling.value.real,
        "pointer_shift": shift,
        "total_transfer": total,
        "deficit_fraction": (abs(total) - hbar_k) / hbar_k,
    }


def deficit_sweep(sigma_i: float, width_ratio: float, hbar_k_values) -> list:
    """Deficit versus hbarK at fixed width ratio (case B, or C at ratio >= 1),
    as plain data records: each row's deficit is scenario_record's.

    No functional model of the K-dependence is committed; this exposes the
    sweep for inspection/plotting.
    """
    kind = "B" if width_ratio < 1 else "C"
    return [{"hbarK": hk, "deficit": scenario_record(kind, sigma_i, hk, width_ratio)["deficit"]}
            for hk in map(float, hbar_k_values)]


def weakness_estimate(b_fm: float, wavelength_angstrom: float) -> float:
    """Interaction smallness b/lambda with b in fm and lambda in Angstrom."""
    if b_fm <= 0 or wavelength_angstrom <= 0:
        raise NonPositiveLength("scattering length and wavelength must be positive")
    return (b_fm * C.FEMTOMETER_M) / (wavelength_angstrom * C.ANGSTROM_M)

