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
from dataclasses import dataclass, replace

import numpy as np

from . import constants as C
from .errors import (
    BadCentering,
    IllConditionedWeakValue,
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
    inner_product,
    trapezoid_vdot,
)

EPS_OVERLAP_DEFAULT = 1e-8

# width ratio sigma_f/sigma_i used to realize the plane-wave limit of case A
PLANE_WAVE_RATIO = 1e-3


@dataclass(frozen=True)
class WeakValueResult:
    """Complex weak value with conditioning diagnostics."""

    value: complex
    overlap_mag: float
    ill_conditioned: bool


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


def _observable_values(points, observable, hbar_k):
    if observable == "P":
        return points
    if observable == "P_minus_hbarK":
        return points - hbar_k
    raise ValueError(f"unknown observable {observable!r}")


def weak_value(pre: WaveFunction, post: WaveFunction, observable: str = "P",
               hbar_k: float = 0.0, eps_overlap: float = EPS_OVERLAP_DEFAULT,
               raise_on_orthogonal: bool = True) -> WeakValueResult:
    """<post|A|pre>/<post|pre> for A = P or A = P - hbarK.

    Raises OrthogonalSelection when the overlap magnitude (relative to the
    product of norms) falls below eps_overlap; pass raise_on_orthogonal=False
    to get an ill-conditioned result with value=nan instead.
    """
    denom = inner_product(post, pre)
    norms = math.sqrt(post.norm_sq() * pre.norm_sq())
    overlap_mag = abs(denom) / norms if norms > 0 else 0.0
    if overlap_mag < eps_overlap:
        if raise_on_orthogonal:
            raise OrthogonalSelection(
                f"|<post|pre>| = {overlap_mag:.3e} < eps = {eps_overlap:.3e}")
        return WeakValueResult(complex(float("nan"), float("nan")),
                               overlap_mag, True)
    a_post = _observable_values(pre.grid.points, observable, hbar_k) * post.amplitudes
    numer = trapezoid_vdot(a_post, pre.amplitudes, pre.grid.dp)
    return WeakValueResult(complex(numer / denom), overlap_mag, False)


def weak_value_mixed(pre: MixedState, post: WaveFunction, observable: str = "P",
                     hbar_k: float = 0.0,
                     eps_overlap: float = EPS_OVERLAP_DEFAULT,
                     raise_on_orthogonal: bool = True) -> WeakValueResult:
    """Weak value for a pre-selected mixture rho = sum_i w_i |psi_i><psi_i|:

        (A)_w = sum_i w_i <post|A|psi_i><psi_i|post> / sum_i w_i |<post|psi_i>|^2.

    Reduces to weak_value() for a single component.
    """
    a_post = _observable_values(post.grid.points, observable, hbar_k) * post.amplitudes
    numer = 0.0 + 0.0j
    denom = 0.0
    for w, psi in pre.components:
        ov = inner_product(post, psi)
        numer += w * trapezoid_vdot(a_post, psi.amplitudes, post.grid.dp) * np.conj(ov)
        denom += w * abs(ov) ** 2
    overlap_mag = math.sqrt(max(denom, 0.0) / post.norm_sq())
    if overlap_mag < eps_overlap:
        if raise_on_orthogonal:
            raise OrthogonalSelection(
                f"mixed overlap {overlap_mag:.3e} < eps = {eps_overlap:.3e}")
        return WeakValueResult(complex(float("nan"), float("nan")),
                               overlap_mag, True)
    return WeakValueResult(complex(numer / denom), overlap_mag, False)


def momentum_deficit(pre: WaveFunction, post: WaveFunction, hbar_k: float,
                     eps_overlap: float = EPS_OVERLAP_DEFAULT) -> float:
    """Deficit pi(hbarK) = hbarK - Re(P_w) for pre centered at 0 and post at hbarK.

    Positive for symmetric post states no wider than the pre state.
    """
    c_pre = expectation_p(pre)
    c_post = expectation_p(post)
    if abs(c_pre) > 1e-6:
        raise BadCentering(f"pre state centered at {c_pre:.3e}, expected 0")
    if abs(c_post - hbar_k) > 1e-6:
        raise BadCentering(f"post state centered at {c_post!r}, expected {hbar_k!r}")
    wv = weak_value(pre, post, "P", eps_overlap=eps_overlap)
    return hbar_k - wv.value.real


def pointer_momentum_shift(model: CouplingModel, coupling_wv: WeakValueResult) -> float:
    """Mean neutron-momentum correction from the weak coupling.

    sign="plus":     -lambda * Re[(P - hbarK)_w]   (= +lambda*pi, a deficit)
    sign="minus_mu": +lambda * Re[(P - hbarK)_w]   (= -lambda*pi, unphysical)
    """
    if coupling_wv.ill_conditioned:
        raise IllConditionedWeakValue("cannot form a pointer shift near orthogonal selection")
    re = coupling_wv.value.real
    return -model.lam * re if model.sign == "plus" else +model.lam * re


def pointer_position_shift(g: float, var_q: float, wv: WeakValueResult) -> float:
    """Mean pointer-position shift -2 g var_q Im[A_w]."""
    if var_q <= 0:
        raise NonPositiveInput("pointer position variance must be positive")
    if wv.ill_conditioned:
        raise IllConditionedWeakValue("cannot form a pointer shift near orthogonal selection")
    return -2.0 * g * var_q * wv.value.imag


def total_momentum_transfer(model: CouplingModel, deficit: float) -> float:
    """Total pointer momentum transfer: conventional -hbarK plus the correction.

    sign="plus" gives -hbarK + lambda*deficit (magnitude <= hbarK for
    deficit in [0, hbarK]); sign="minus_mu" gives -hbarK - lambda*deficit.
    """
    if model.sign == "plus":
        return -model.hbar_k + model.lam * deficit
    return -model.hbar_k - model.lam * deficit


def scenario(kind: str, sigma_i: float, hbar_k: float, width_ratio: float = 0.5,
             narrow_ratio: float = PLANE_WAVE_RATIO):
    """Pre/post state pair for the canonical final-state cases A, B, C.

    pre is always Gaussian(0, sigma_i); post is Gaussian(hbarK, sigma_f) with
    sigma_f = narrow_ratio*sigma_i (A), width_ratio*sigma_i (B), sigma_i (C).
    """
    if sigma_i <= 0:
        raise NonPositiveInput("sigma_i must be positive")
    if hbar_k <= 0:
        raise NonPositiveInput("hbarK must be positive")
    kind = kind.upper()
    if kind == "A":
        sigma_f = narrow_ratio * sigma_i
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
    wv = weak_value(pre, post, "P")
    coupling = replace(wv, value=wv.value - hbar_k)   # (P - hbarK)_w, by linearity
    deficit = hbar_k - wv.value.real
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
        "P_w_re": wv.value.real,
        "P_w_im": wv.value.imag,
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


def collision_time(mass_amu: float, k_invA: float, delta_p: float) -> float:
    """Impulsive collision time tau = M/(K dP) in seconds.

    mass in a.m.u., K in 1/A, dP (momentum-distribution width) in hbar/A.
    """
    if mass_amu <= 0 or k_invA <= 0 or delta_p <= 0:
        raise NonPositiveInput("mass, K and dP must all be positive")
    mass_kg = mass_amu * C.AMU_KG
    k_si = k_invA / C.ANGSTROM_M
    dp_si = delta_p * C.HBAR_JS / C.ANGSTROM_M
    return mass_kg / (k_si * dp_si)
