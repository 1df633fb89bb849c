"""Weak-value engine tests.

The independent oracle used throughout is a plain Riemann sum over a finer,
separately constructed axis -- it never calls the library quadrature.
"""

import math

import numpy as np
import pytest

from wmscatter import constants as C
from wmscatter.errors import (
    BadCentering,
    IllConditionedWeakValue,
    NonPositiveInput,
    NonPositiveLength,
    OrthogonalSelection,
)
from wmscatter.qstate import (
    MixedState,
    MomentumGrid,
    WaveFunction,
    expectation_p,
    gaussian_state,
    grid_for_gaussians,
    with_global_phase,
)
from wmscatter.weakval import (
    PLANE_WAVE_RATIO,
    CouplingModel,
    WeakValueResult,
    collision_time,
    deficit_sweep,
    momentum_deficit,
    pointer_momentum_shift,
    pointer_position_shift,
    scenario,
    scenario_record,
    total_momentum_transfer,
    weak_value,
    weak_value_mixed,
    weakness_estimate,
)


def brute_force_pw(sigma_i, sigma_f, hbar_k, n=400001, span=12.0, phase_slope=0.0):
    """Independent P_w for Gaussian pre (0, s_i) / post (hbar_k, s_f): plain
    Riemann sum, own axis, optional linear phase ramp on the post state."""
    lo = min(0.0, hbar_k) - span * max(sigma_i, sigma_f)
    hi = max(0.0, hbar_k) + span * max(sigma_i, sigma_f)
    p = np.linspace(lo, hi, n)
    dp = p[1] - p[0]
    pre = np.exp(-(p**2) / (4 * sigma_i**2))
    post = np.exp(-((p - hbar_k) ** 2) / (4 * sigma_f**2)) * np.exp(1j * phase_slope * p)
    num = np.sum(np.conj(post) * p * pre) * dp
    den = np.sum(np.conj(post) * pre) * dp
    return num / den


def closed_form_pw(sigma_i, sigma_f, hbar_k):
    return hbar_k * sigma_i**2 / (sigma_i**2 + sigma_f**2)


def elementwise_trapezoid(values, dx):
    """The trapezoidal rule written out elementwise."""
    return (values.sum() - 0.5 * (values[0] + values[-1])) * dx


GRID = grid_for_gaussians([0.0, 4.0], [1.0, 0.5])


def test_weak_value_equals_expectation_when_post_is_pre():
    g = gaussian_state(GRID, 0.0, 1.0)
    wv = weak_value(g, g, "P")
    assert abs(wv.value - expectation_p(g)) < 1e-12
    assert not wv.ill_conditioned


def test_equal_width_weak_value_is_half_transfer():
    pre = gaussian_state(GRID, 0.0, 1.0)
    post = gaussian_state(GRID, 4.0, 1.0)
    wv = weak_value(pre, post, "P")
    assert wv.value.real == pytest.approx(2.0, abs=1e-12)
    assert wv.value.imag == pytest.approx(0.0, abs=1e-12)


def test_narrow_post_weak_value_closed_form():
    pre = gaussian_state(GRID, 0.0, 1.0)
    post = gaussian_state(GRID, 4.0, 0.5)
    wv = weak_value(pre, post, "P")
    assert wv.value.real == pytest.approx(3.2, rel=1e-10)
    assert wv.value.real == pytest.approx(
        brute_force_pw(1.0, 0.5, 4.0).real, rel=1e-8)


def test_coupling_observable_identity():
    pre = gaussian_state(GRID, 0.0, 1.0)
    post = gaussian_state(GRID, 4.0, 0.5)
    pw = weak_value(pre, post, "P").value
    cw = weak_value(pre, post, "P_minus_hbarK", hbar_k=4.0).value
    assert abs(cw - (pw - 4.0)) < 1e-10


def test_weak_value_orthogonal_raises():
    grid = grid_for_gaussians([0.0, 40.0], [1.0, 1.0])
    pre = gaussian_state(grid, 0.0, 1.0)
    post = gaussian_state(grid, 40.0, 1.0)
    with pytest.raises(OrthogonalSelection):
        weak_value(pre, post, "P")
    wv = weak_value(pre, post, "P", raise_on_orthogonal=False)
    assert wv.ill_conditioned
    assert math.isnan(wv.value.real)
    with pytest.raises(IllConditionedWeakValue):
        pointer_momentum_shift(CouplingModel(0.01, 4.0), wv)


def test_global_phase_on_post_cancels():
    pre = gaussian_state(GRID, 0.0, 1.0)
    post = gaussian_state(GRID, 4.0, 0.5)
    wv0 = weak_value(pre, post, "P").value
    wv1 = weak_value(pre, with_global_phase(post, 1.9), "P").value
    assert abs(wv0 - wv1) < 1e-12


def test_weak_value_mixed_reduces_to_pure():
    pre = gaussian_state(GRID, 0.0, 1.0)
    post = gaussian_state(GRID, 4.0, 1.0)
    single = MixedState(((1.0, pre),))
    a = weak_value_mixed(single, post, "P").value
    b = weak_value(pre, post, "P").value
    assert abs(a - b) < 1e-12


def test_weak_value_mixed_symmetric_mixture():
    grid = grid_for_gaussians([-2.0, 0.0, 2.0], [1.0, 0.8])
    mix = MixedState(((0.5, gaussian_state(grid, +1.5, 1.0)),
                      (0.5, gaussian_state(grid, -1.5, 1.0))))
    post = gaussian_state(grid, 0.0, 0.8)
    wv = weak_value_mixed(mix, post, "P")
    assert wv.value.real == pytest.approx(0.0, abs=1e-10)


def test_weak_value_mixed_against_brute_force():
    grid = grid_for_gaussians([0.0, 4.0], [1.0, 2.0])
    mix = MixedState(((0.7, gaussian_state(grid, 0.0, 1.0)),
                      (0.3, gaussian_state(grid, 0.0, 2.0))))
    post = gaussian_state(grid, 4.0, 1.0)
    got = weak_value_mixed(mix, post, "P").value
    # independent evaluation of the density-operator weak value
    p = np.linspace(-30.0, 34.0, 640001)
    dp = p[1] - p[0]

    def norm_gauss(c, s):
        f = np.exp(-((p - c) ** 2) / (4 * s**2))
        return f / math.sqrt(np.sum(f**2) * dp)

    psis = [(0.7, norm_gauss(0.0, 1.0)), (0.3, norm_gauss(0.0, 2.0))]
    post_o = norm_gauss(4.0, 1.0)
    num = sum(w * (np.sum(post_o * p * f) * dp) * (np.sum(f * post_o) * dp)
              for w, f in psis)
    den = sum(w * abs(np.sum(post_o * f) * dp) ** 2 for w, f in psis)
    assert got.real == pytest.approx(num / den, rel=1e-8)
    assert got.imag == pytest.approx(0.0, abs=1e-12)


def test_momentum_deficit_cases():
    # plane-wave limit: vanishing deficit
    pre, post = scenario("A", 1.0, 4.0)
    assert momentum_deficit(pre, post, 4.0) < 1e-5 * 4.0
    # equal widths: half the transfer
    pre, post = scenario("C", 1.0, 4.0)
    assert momentum_deficit(pre, post, 4.0) == pytest.approx(2.0, abs=1e-10)
    # derived Gaussian value: hbarK * s_f^2 / (s_i^2 + s_f^2)
    pre, post = scenario("B", 1.0, 4.0, width_ratio=0.5)
    assert momentum_deficit(pre, post, 4.0) == pytest.approx(0.8, rel=1e-9)


def test_momentum_deficit_centering_check():
    pre = gaussian_state(GRID, 0.5, 1.0)
    post = gaussian_state(GRID, 4.0, 1.0)
    with pytest.raises(BadCentering):
        momentum_deficit(pre, post, 4.0)
    with pytest.raises(BadCentering):
        momentum_deficit(gaussian_state(GRID, 0.0, 1.0), post, 3.0)


def test_case_b_positivity_random():
    rng = np.random.default_rng(314159)
    for _ in range(100):
        sigma_i = rng.uniform(0.4, 2.0)
        ratio = rng.uniform(0.05, 1.0)
        hbar_k = rng.uniform(0.2, 3.0) * sigma_i
        pre, post = scenario("B", sigma_i, hbar_k, width_ratio=ratio)
        assert momentum_deficit(pre, post, hbar_k) > 0.0


def test_case_c_width_invariance():
    for sigma in (0.5, 1.0, 2.0):
        pre, post = scenario("C", sigma, 4.0)
        wv = weak_value(pre, post, "P")
        assert wv.value.real == pytest.approx(2.0, abs=1e-10)


def test_gaussian_oracle_sweep_small():
    for ratio in (1e-3, 1e-2, 0.1, 0.5, 1.0):
        for hbar_k in (0.4, 1.7, 3.0):
            pre, post = scenario("B" if ratio < 1 else "C", 1.0, hbar_k, ratio)
            wv = weak_value(pre, post, "P")
            assert wv.value.real == pytest.approx(
                closed_form_pw(1.0, ratio, hbar_k), rel=1e-8)


def test_pointer_momentum_shift_signs():
    # case C at hbarK=4: coupling weak value -2
    cw = WeakValueResult(complex(-2.0, 0.0), 0.2, False)
    assert pointer_momentum_shift(CouplingModel(0.01, 4.0, "plus"), cw) == \
        pytest.approx(+0.02)
    assert pointer_momentum_shift(CouplingModel(0.01, 4.0, "minus_mu"), cw) == \
        pytest.approx(-0.02)
    zero = WeakValueResult(0j, 0.9, False)
    assert pointer_momentum_shift(CouplingModel(0.5, 4.0), zero) == 0.0


def test_pointer_position_shift():
    real_wv = WeakValueResult(complex(3.0, 0.0), 0.5, False)
    assert pointer_position_shift(1.0, 0.5, real_wv) == 0.0
    imag_wv = WeakValueResult(complex(0.0, 1.0), 0.5, False)
    assert pointer_position_shift(1.0, 0.5, imag_wv) == pytest.approx(-1.0)
    with pytest.raises(NonPositiveInput):
        pointer_position_shift(1.0, 0.0, imag_wv)


def test_pointer_position_shift_phase_ramp_oracle():
    # a linear phase on the post state makes P_w complex; check Im against
    # the brute-force sum and the -2 g var_q Im rule
    slope = 0.35
    grid = grid_for_gaussians([0.0, 4.0], [1.0, 0.5])
    pre = gaussian_state(grid, 0.0, 1.0)
    base = gaussian_state(grid, 4.0, 0.5)
    post = WaveFunction(grid, base.amplitudes * np.exp(1j * slope * grid.points))
    wv = weak_value(pre, post, "P")
    oracle = brute_force_pw(1.0, 0.5, 4.0, phase_slope=slope)
    assert wv.value.imag == pytest.approx(oracle.imag, rel=1e-8)
    assert pointer_position_shift(2.0, 0.25, wv) == \
        pytest.approx(-2.0 * 2.0 * 0.25 * oracle.imag, rel=1e-8)


def test_total_momentum_transfer():
    m = CouplingModel(1.0, 4.0, "plus")
    assert total_momentum_transfer(m, 2.0) == pytest.approx(-2.0)
    assert total_momentum_transfer(m, 0.0) == pytest.approx(-4.0)
    m2 = CouplingModel(0.1, 4.0, "plus")
    assert total_momentum_transfer(m2, 0.8) == pytest.approx(-3.92)


def test_total_transfer_bound_plus_sign():
    rng = np.random.default_rng(99)
    for _ in range(200):
        hbar_k = rng.uniform(0.5, 6.0)
        lam = rng.uniform(1e-3, 1.0)
        deficit = rng.uniform(0.0, hbar_k / 2.0)
        m = CouplingModel(lam, hbar_k, "plus")
        assert abs(total_momentum_transfer(m, deficit)) <= hbar_k + 1e-12


def test_sign_flip_consistency():
    pre, post = scenario("C", 1.0, 4.0)
    pw_a = weak_value(pre, post, "P").value
    pw_b = weak_value(pre, post, "P").value
    assert pw_a == pw_b   # bit-identical on identical inputs
    deficit = 4.0 - pw_a.real
    plus = CouplingModel(0.3, 4.0, "plus")
    minus = CouplingModel(0.3, 4.0, "minus_mu")
    assert abs(total_momentum_transfer(plus, deficit)) <= 4.0
    assert abs(total_momentum_transfer(minus, deficit)) >= 4.0
    # the pointer corrections have opposite signs
    cw = weak_value(pre, post, "P_minus_hbarK", hbar_k=4.0)
    assert pointer_momentum_shift(plus, cw) > 0 > pointer_momentum_shift(minus, cw)


def test_scenario_records_and_sweep():
    rec = scenario_record("C", 1.0, 4.0, lam=1.0)
    assert rec["total_transfer"] == pytest.approx(-2.0)
    assert rec["deficit_fraction"] == pytest.approx(-0.5)
    sweep = deficit_sweep(1.0, 0.5, [1.0, 2.0, 3.0])
    assert [r["hbarK"] for r in sweep] == [1.0, 2.0, 3.0]
    # Gaussian family: deficit grows linearly with hbarK at fixed ratio
    assert sweep[1]["deficit"] == pytest.approx(2 * sweep[0]["deficit"], rel=1e-8)


def test_weakness_estimate():
    assert weakness_estimate(10.0, 1.0) == pytest.approx(1e-4, rel=1e-12)
    assert weakness_estimate(1.0, 1.0) == pytest.approx(1e-5, rel=1e-12)
    assert weakness_estimate(5.0, 2.0) == pytest.approx(2.5e-5, rel=1e-12)
    with pytest.raises(NonPositiveLength):
        weakness_estimate(-1.0, 1.0)


def test_collision_time():
    tau = collision_time(1.00866, 100.0, 4.0)
    # independent SI substitution
    expect = (1.00866 * C.AMU_KG) / ((100.0 / C.ANGSTROM_M)
                                     * (4.0 * C.HBAR_JS / C.ANGSTROM_M))
    assert tau == pytest.approx(expect, rel=1e-12)
    assert tau == pytest.approx(4.0e-16, rel=0.02)
    assert collision_time(1.00866, 200.0, 4.0) == pytest.approx(tau / 2)
    assert collision_time(2.01732, 100.0, 4.0) == pytest.approx(tau * 2)
    with pytest.raises(NonPositiveInput):
        collision_time(0.0, 1.0, 1.0)


def test_coupling_model_validation():
    with pytest.raises(ValueError):
        CouplingModel(0.0, 4.0)
    with pytest.raises(ValueError):
        CouplingModel(0.5, -1.0)
    with pytest.raises(ValueError):
        CouplingModel(0.5, 4.0, "times")


def test_weak_values_match_elementwise_trapezoid():
    # complex and tabulated (non-Gaussian) states that do not vanish at the
    # grid ends, so a wrongly conjugated <post| or endpoint term shows
    rng = np.random.default_rng(11)
    p, dp = GRID.points, GRID.dp
    pre_tab = WaveFunction(GRID, (1.0 + 0.4 * np.cos(2.0 * p)) * np.exp(0.3j * p - np.abs(p) / 2))
    post_tab = WaveFunction(GRID, np.exp(1j * rng.uniform(0, 6, p.size) - np.abs(p - 4.0) / 1.5))
    post_phased = with_global_phase(gaussian_state(GRID, 4.0, 0.5), 0.7)
    pairs = [(gaussian_state(GRID, 0.0, 1.0), post_phased), (pre_tab, post_tab),
             (pre_tab, post_phased)]
    for pre, post in pairs:
        for observable, hbar_k in (("P", 0.0), ("P_minus_hbarK", 4.0)):
            bra = np.conj(post.amplitudes)
            ref = elementwise_trapezoid(bra * (p - hbar_k) * pre.amplitudes, dp) \
                / elementwise_trapezoid(bra * pre.amplitudes, dp)
            got = weak_value(pre, post, observable, hbar_k=hbar_k).value
            assert abs(got - ref) <= 1e-13 * abs(ref)
    num = den = 0.0
    for w, psi in ((0.3, pairs[0][0]), (0.7, pre_tab)):
        ov = elementwise_trapezoid(np.conj(post_tab.amplitudes) * psi.amplitudes, dp)
        num += w * elementwise_trapezoid(np.conj(post_tab.amplitudes) * p * psi.amplitudes, dp) \
            * np.conj(ov)
        den += w * abs(ov) ** 2
    mix = MixedState(((0.3, pairs[0][0]), (0.7, pre_tab)))
    got = weak_value_mixed(mix, post_tab, "P").value
    assert abs(got - num / den) <= 1e-13 * abs(num / den)


@pytest.mark.parametrize("hbar_k", [0.5, 4.0])
def test_case_a_post_state_zero_where_exp_underflows(hbar_k):
    _, post = scenario("A", 1.0, hbar_k)
    sigma_f = PLANE_WAVE_RATIO * 1.0
    env = np.exp(-((post.grid.points - hbar_k) ** 2) / (4.0 * sigma_f**2))
    assert np.count_nonzero(env) < post.grid.n_points // 100
    assert np.array_equal(post.amplitudes == 0, env == 0)
    ref = env / math.sqrt(elementwise_trapezoid(env**2, post.grid.dp))
    np.testing.assert_allclose(post.amplitudes.real, ref, rtol=1e-13, atol=1e-300)
    assert not post.amplitudes.imag.any()


@pytest.mark.parametrize("case", ["A", "B", "C"])
@pytest.mark.parametrize("hbar_k", [0.5, 2.0, 4.0])
def test_scenario_record_closed_form(case, hbar_k):
    lam = 0.3
    rec = scenario_record(case, 1.0, hbar_k, width_ratio=0.5, lam=lam)
    sigma_f = {"A": PLANE_WAVE_RATIO, "B": 0.5, "C": 1.0}[case]
    assert rec["P_w_re"] == pytest.approx(closed_form_pw(1.0, sigma_f, hbar_k), rel=1e-12)
    assert abs(rec["P_w_im"]) <= 1e-12 * hbar_k
    assert rec["deficit"] == hbar_k - rec["P_w_re"]
    assert rec["pointer_shift"] == -lam * (rec["P_w_re"] - hbar_k)
