"""Weak values of atomic momentum under pre/post-selection.

Computes A_w = <post|A|pre>/<post|pre> for A = P or A = P - hbarK*I on
momentum-space states, the resulting pointer shifts for a von Neumann-type
impulsive coupling, the momentum-transfer deficit, and the scenario
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
    BadCentering,
    GridMismatch,
    NonFiniteInput,
    NonPositiveInput,
    NonPositiveLength,
    OrthogonalSelection,
)
from .qstate import (
    MixedState,
    WaveFunction,
    expectation_p,
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
    """Impulsive coupling lambda * q (P - hbarK) between neutron and atom.

    sign="plus" is the physical choice; sign="minus_mu" is the deliberately
    wrong-signed variant used to demonstrate that it produces an increased
    pointer shift while the weak value itself is unchanged.
    """

    lam: float
    hbar_k: float
    sign: str = "plus"

    def __post_init__(self):
        if not 0 < self.lam <= 1:
            raise ValueError("lambda must lie in (0, 1]")
        if self.hbar_k <= 0:
            raise ValueError("hbarK must be positive")
        if self.sign not in ("plus", "minus_mu"):
            raise ValueError("sign must be 'plus' or 'minus_mu'")


def _post_overlaps(post: WaveFunction, grid, kets, observable, hbar_k):
    """<post|post> and, for each ket, (<post|ket>, <A post|ket>).

    The sums run over post's support only, where it is not exactly zero; the
    trapezoid's endpoint terms count only where that window reaches a grid end.
    A's values are built on the window's own slice of the axis.
    """
    if post.grid != grid:
        raise GridMismatch("states live on different momentum grids")
    if observable not in ("P", "P_minus_hbarK"):
        raise ValueError(f"unknown observable {observable!r}")
    lo, hi = post.support()
    ends, dp = (lo == 0, hi == grid.n_points), grid.dp
    bra = post.amplitudes[lo:hi]
    a_bra = grid.segment(lo, hi)
    if observable == "P_minus_hbarK":
        a_bra -= hbar_k
    a_bra = a_bra * bra
    return (float(trapezoid_vdot(bra, bra, dp, ends).real),
            [(complex(trapezoid_vdot(bra, k.amplitudes[lo:hi], dp, ends)),
              complex(trapezoid_vdot(a_bra, k.amplitudes[lo:hi], dp, ends))) for k in kets])


def weak_value(pre: WaveFunction, post: WaveFunction, observable: str = "P",
               hbar_k: float = 0.0) -> WeakValueResult:
    """<post|A|pre>/<post|pre> for A = P or A = P - hbarK.

    Raises OrthogonalSelection when the overlap magnitude (relative to the
    product of norms) falls below EPS_OVERLAP_DEFAULT.
    """
    post_norm, [(denom, numer)] = _post_overlaps(post, pre.grid, [pre], observable, hbar_k)
    norms = math.sqrt(post_norm * pre.norm_sq())
    overlap_mag = abs(denom) / norms if norms > 0 else 0.0
    if overlap_mag < EPS_OVERLAP_DEFAULT:
        raise OrthogonalSelection(
            f"|<post|pre>| = {overlap_mag:.3e} < eps = {EPS_OVERLAP_DEFAULT:.3e}")
    return WeakValueResult(numer / denom, overlap_mag)


def weak_value_mixed(pre: MixedState, post: WaveFunction, observable: str = "P",
                     hbar_k: float = 0.0) -> WeakValueResult:
    """Weak value for a pre-selected mixture rho = sum_i w_i |psi_i><psi_i|:

        (A)_w = sum_i w_i <post|A|psi_i><psi_i|post> / sum_i w_i |<post|psi_i>|^2.

    Reduces to weak_value() for a single component, and raises
    OrthogonalSelection as it does.
    """
    post_norm, overlaps = _post_overlaps(
        post, pre.grid, [psi for _, psi in pre.components], observable, hbar_k)
    numer = 0.0 + 0.0j
    denom = 0.0
    for (w, _), (ov, a_ov) in zip(pre.components, overlaps):
        numer += w * a_ov * ov.conjugate()
        denom += w * abs(ov) ** 2
    overlap_mag = math.sqrt(max(denom, 0.0) / post_norm)
    if overlap_mag < EPS_OVERLAP_DEFAULT:
        raise OrthogonalSelection(
            f"mixed overlap {overlap_mag:.3e} < eps = {EPS_OVERLAP_DEFAULT:.3e}")
    return WeakValueResult(complex(numer / denom), overlap_mag)


def momentum_deficit(pre: WaveFunction, post: WaveFunction, hbar_k: float) -> float:
    """Deficit pi(hbarK) = hbarK - Re(P_w) for pre centered at 0 and post at hbarK.

    Computed as -Re (P - hbarK)_w, which does not cancel the digits that
    hbarK and Re(P_w) share.  Positive for symmetric post states no wider
    than the pre state.
    """
    c_pre = expectation_p(pre)
    c_post = expectation_p(post)
    if abs(c_pre) > 1e-6:
        raise BadCentering(f"pre state centered at {c_pre:.3e}, expected 0")
    if abs(c_post - hbar_k) > 1e-6:
        raise BadCentering(f"post state centered at {c_post!r}, expected {hbar_k!r}")
    return -weak_value(pre, post, "P_minus_hbarK", hbar_k).value.real


def pointer_momentum_shift(model: CouplingModel, coupling_wv: WeakValueResult) -> float:
    """Mean neutron-momentum correction from the weak coupling.

    sign="plus":     -lambda * Re[(P - hbarK)_w]   (= +lambda*pi, a deficit)
    sign="minus_mu": +lambda * Re[(P - hbarK)_w]   (= -lambda*pi, unphysical)
    """
    re = coupling_wv.value.real
    return -model.lam * re if model.sign == "plus" else +model.lam * re


def total_momentum_transfer(model: CouplingModel, deficit: float) -> float:
    """Total pointer momentum transfer: conventional -hbarK plus the correction.

    sign="plus" gives -hbarK + lambda*deficit (magnitude <= hbarK for
    deficit in [0, hbarK]); sign="minus_mu" gives -hbarK - lambda*deficit.
    """
    if model.sign == "plus":
        return -model.hbar_k + model.lam * deficit
    return -model.hbar_k - model.lam * deficit


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
    kind = kind.upper()
    if kind == "A":
        sigma_f = PLANE_WAVE_RATIO * sigma_i
    elif kind == "B":
        if not 0 < width_ratio <= 1:
            raise NonPositiveInput("width_ratio must lie in (0, 1] for case B")
        sigma_f = width_ratio * sigma_i
    elif kind == "C":
        sigma_f = sigma_i
    else:
        raise ValueError(f"unknown scenario kind {kind!r}")
    grid = grid_for_gaussians([0.0, hbar_k], [sigma_i, sigma_f])
    pre = gaussian_state(grid, 0.0, sigma_i)
    post = gaussian_state(grid, hbar_k, sigma_f)
    return pre, post


def scenario_record(kind: str, sigma_i: float, hbar_k: float,
                    width_ratio: float = 0.5, lam: float = 0.01,
                    sign: str = "plus") -> dict:
    """One JSON-ready record of a full scenario evaluation."""
    pre, post = scenario(kind, sigma_i, hbar_k, width_ratio)
    # the deficit straight from (P - hbarK)_w: hbarK - Re(P_w) would cancel
    # about six digits in case A, where Re(P_w) agrees with hbarK to 1e-6
    coupling = weak_value(pre, post, "P_minus_hbarK", hbar_k)
    p_w = coupling.value + hbar_k
    deficit = -coupling.value.real
    model = CouplingModel(lam, hbar_k, sign)
    total = total_momentum_transfer(model, deficit)
    return {
        "case": kind.upper(),
        "sigma_i": sigma_i,
        "hbarK": hbar_k,
        "width_ratio": width_ratio if kind.upper() == "B" else
                       (PLANE_WAVE_RATIO if kind.upper() == "A" else 1.0),
        "lambda": lam,
        "sign": sign,
        "P_w_re": p_w.real,
        "P_w_im": p_w.imag,
        "deficit": deficit,
        "pointer_shift": pointer_momentum_shift(model, coupling),
        "total_transfer": total,
        "deficit_fraction": (abs(total) - hbar_k) / hbar_k,
    }


def deficit_sweep(sigma_i: float, width_ratio: float, hbar_k_values) -> list:
    """Deficit versus hbarK at fixed width ratio, as plain data records.

    No functional model of the K-dependence is committed; this exposes the
    sweep for inspection/plotting.
    """
    out = []
    for hk in hbar_k_values:
        pre, post = scenario("B" if width_ratio < 1 else "C",
                             sigma_i, float(hk), width_ratio)
        out.append({"hbarK": float(hk),
                    "deficit": momentum_deficit(pre, post, float(hk))})
    return out


def weakness_estimate(b_fm: float, wavelength_angstrom: float) -> float:
    """Interaction smallness b/lambda with b in fm and lambda in Angstrom."""
    if b_fm <= 0 or wavelength_angstrom <= 0:
        raise NonPositiveLength("scattering length and wavelength must be positive")
    return (b_fm * C.FEMTOMETER_M) / (wavelength_angstrom * C.ANGSTROM_M)

