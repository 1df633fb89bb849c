"""Weak-value engine tests.

The independent oracle used throughout is a plain Riemann sum over a finer,
separately constructed axis -- it never calls the library quadrature.
"""

import math
import tracemalloc

import numpy as np
import pytest

from wmscatter.errors import (
    GridMismatch,
    NonFiniteInput,
    NonPositiveInput,
    NonPositiveLength,
    OrthogonalSelection,
)
from wmscatter.qstate import (
    MixedState,
    MomentumGrid,
    WaveFunction,
    gaussian_state,
    grid_for_gaussians,
    trapezoid_vdot,
)
from wmscatter.weakval import (
    PLANE_WAVE_RATIO,
    CouplingModel,
    WeakValueResult,
    deficit_sweep,
    pointer_momentum_shift,
    scenario,
    scenario_record,
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


def with_global_phase(state, chi):
    """The state times exp(i chi), as a complex tabulated state."""
    return WaveFunction(state.grid, state.amplitudes * np.exp(1j * chi))


GRID = grid_for_gaussians([0.0, 4.0], [1.0, 0.5])


def test_weak_value_equals_expectation_when_post_is_pre():
    g = gaussian_state(GRID, 0.0, 1.0)
    wv = weak_value(g, g)
    mean_p = trapezoid_vdot(g.amplitudes, GRID.points * g.amplitudes, GRID.dp).real
    assert abs(wv.value - mean_p) < 1e-12


def test_equal_width_weak_value_is_half_transfer():
    pre = gaussian_state(GRID, 0.0, 1.0)
    post = gaussian_state(GRID, 4.0, 1.0)
    wv = weak_value(pre, post)
    assert wv.value.real == pytest.approx(2.0, abs=1e-12)
    assert wv.value.imag == pytest.approx(0.0, abs=1e-12)


def test_narrow_post_weak_value_closed_form():
    pre = gaussian_state(GRID, 0.0, 1.0)
    post = gaussian_state(GRID, 4.0, 0.5)
    wv = weak_value(pre, post)
    assert wv.value.real == pytest.approx(3.2, rel=1e-10)
    assert wv.value.real == pytest.approx(
        brute_force_pw(1.0, 0.5, 4.0).real, rel=1e-8)


def test_coupling_observable_identity():
    pre = gaussian_state(GRID, 0.0, 1.0)
    post = gaussian_state(GRID, 4.0, 0.5)
    pw = weak_value(pre, post).value
    cw = weak_value(pre, post, 4.0).value
    assert abs(cw - (pw - 4.0)) < 1e-10


def test_weak_value_orthogonal_raises():
    grid = grid_for_gaussians([0.0, 40.0], [1.0, 1.0])
    pre = gaussian_state(grid, 0.0, 1.0)
    post = gaussian_state(grid, 40.0, 1.0)
    with pytest.raises(OrthogonalSelection):
        weak_value(pre, post)
    with pytest.raises(OrthogonalSelection):
        weak_value_mixed(MixedState(((1.0, pre),)), post)
    # a zero-norm post state, for which the mixed overlap divides by zero
    zero = WaveFunction(grid, np.zeros(grid.n_points))
    with pytest.raises(OrthogonalSelection):
        weak_value(pre, zero)
    with pytest.raises(OrthogonalSelection):
        weak_value_mixed(MixedState(((1.0, pre),)), zero)


def test_states_on_different_grids_raise():
    pre = gaussian_state(GRID, 0.0, 1.0)
    post = gaussian_state(MomentumGrid(GRID.p_min, GRID.p_max, GRID.n_points // 2), 4.0, 1.0)
    with pytest.raises(GridMismatch):
        weak_value(pre, post)
    with pytest.raises(GridMismatch):
        weak_value_mixed(MixedState(((1.0, pre),)), post)
    with pytest.raises(GridMismatch):
        MixedState(((0.5, pre), (0.5, post)))


def test_global_phase_on_post_cancels():
    pre = gaussian_state(GRID, 0.0, 1.0)
    post = gaussian_state(GRID, 4.0, 0.5)
    wv0 = weak_value(pre, post).value
    wv1 = weak_value(pre, with_global_phase(post, 1.9)).value
    assert abs(wv0 - wv1) < 1e-12


def test_weak_value_mixed_reduces_to_pure():
    pre = gaussian_state(GRID, 0.0, 1.0)
    post = gaussian_state(GRID, 4.0, 1.0)
    single = MixedState(((1.0, pre),))
    a = weak_value_mixed(single, post).value
    b = weak_value(pre, post).value
    assert abs(a - b) < 1e-12


def test_weak_value_mixed_symmetric_mixture():
    grid = grid_for_gaussians([-2.0, 0.0, 2.0], [1.0, 0.8])
    mix = MixedState(((0.5, gaussian_state(grid, +1.5, 1.0)),
                      (0.5, gaussian_state(grid, -1.5, 1.0))))
    post = gaussian_state(grid, 0.0, 0.8)
    wv = weak_value_mixed(mix, post)
    assert wv.value.real == pytest.approx(0.0, abs=1e-10)


def test_weak_value_mixed_against_brute_force():
    grid = grid_for_gaussians([0.0, 4.0], [1.0, 2.0])
    mix = MixedState(((0.7, gaussian_state(grid, 0.0, 1.0)),
                      (0.3, gaussian_state(grid, 0.0, 2.0))))
    post = gaussian_state(grid, 4.0, 1.0)
    got = weak_value_mixed(mix, post).value
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
    assert scenario_record("A", 1.0, 4.0)["deficit"] < 1e-5 * 4.0
    # equal widths: half the transfer
    [row] = deficit_sweep(1.0, 1.0, [4.0])
    assert row["deficit"] == pytest.approx(2.0, abs=1e-10)
    # derived Gaussian value: hbarK * s_f^2 / (s_i^2 + s_f^2)
    [row] = deficit_sweep(1.0, 0.5, [4.0])
    assert row["deficit"] == pytest.approx(0.8, rel=1e-9)


def test_case_b_positivity_random():
    rng = np.random.default_rng(314159)
    for _ in range(100):
        sigma_i = rng.uniform(0.4, 2.0)
        ratio = rng.uniform(0.05, 1.0)
        hbar_k = rng.uniform(0.2, 3.0) * sigma_i
        assert scenario_record("B", sigma_i, hbar_k, width_ratio=ratio)["deficit"] > 0.0


def test_case_c_width_invariance():
    for sigma in (0.5, 1.0, 2.0):
        pre, post = scenario("C", sigma, 4.0)
        wv = weak_value(pre, post)
        assert wv.value.real == pytest.approx(2.0, abs=1e-10)


def test_gaussian_oracle_sweep_small():
    for ratio in (1e-3, 1e-2, 0.1, 0.5, 1.0):
        for hbar_k in (0.4, 1.7, 3.0):
            pre, post = scenario("B" if ratio < 1 else "C", 1.0, hbar_k, ratio)
            wv = weak_value(pre, post)
            assert wv.value.real == pytest.approx(
                closed_form_pw(1.0, ratio, hbar_k), rel=1e-8)


def test_pointer_momentum_shift_signs():
    # case C at hbarK=4: coupling weak value -2
    cw = WeakValueResult(complex(-2.0, 0.0), 0.2)
    assert pointer_momentum_shift(CouplingModel(0.01, "plus"), cw) == \
        pytest.approx(+0.02)
    assert pointer_momentum_shift(CouplingModel(0.01, "minus_mu"), cw) == \
        pytest.approx(-0.02)
    zero = WeakValueResult(0j, 0.9)
    assert pointer_momentum_shift(CouplingModel(0.5), zero) == 0.0


def test_phase_ramp_weak_value_oracle():
    # a linear phase on the post state makes P_w complex; check Im against
    # the brute-force sum
    slope = 0.35
    grid = grid_for_gaussians([0.0, 4.0], [1.0, 0.5])
    pre = gaussian_state(grid, 0.0, 1.0)
    base = gaussian_state(grid, 4.0, 0.5)
    post = WaveFunction(grid, base.amplitudes * np.exp(1j * slope * grid.points))
    wv = weak_value(pre, post)
    oracle = brute_force_pw(1.0, 0.5, 4.0, phase_slope=slope)
    assert wv.value.imag == pytest.approx(oracle.imag, rel=1e-8)


def test_total_momentum_transfer():
    # -hbarK plus lambda times the deficit: 2.0 (C), ~4e-6 (A), 0.8 (B at 0.5)
    assert scenario_record("C", 1.0, 4.0, lam=1.0)["total_transfer"] == pytest.approx(-2.0)
    assert scenario_record("A", 1.0, 4.0, lam=0.01)["total_transfer"] == pytest.approx(-4.0)
    rec = scenario_record("B", 1.0, 4.0, width_ratio=0.5, lam=0.1)
    assert rec["total_transfer"] == pytest.approx(-3.92)


def test_total_transfer_bound_plus_sign():
    # case B deficits lie in (0, hbarK/2]
    rng = np.random.default_rng(99)
    for _ in range(200):
        hbar_k = rng.uniform(0.5, 6.0)
        lam = rng.uniform(1e-3, 1.0)
        ratio = rng.uniform(0.05, 1.0)
        rec = scenario_record("B", 1.0, hbar_k, width_ratio=ratio, lam=lam)
        assert abs(rec["total_transfer"]) <= hbar_k + 1e-12


def test_total_transfer_is_minus_hbar_k_plus_pointer_shift():
    rng = np.random.default_rng(7)
    for case in "ABC":
        for hbar_k in rng.uniform(0.3, 5.0, 4):
            for sign in ("plus", "minus_mu"):
                rec = scenario_record(case, 1.0, hbar_k, lam=0.3, sign=sign)
                assert rec["total_transfer"] == -hbar_k + rec["pointer_shift"]
                assert rec["pointer_shift"] == (0.3 if sign == "plus" else -0.3) * rec["deficit"]


def test_sweep_deficit_is_the_records_bit_for_bit():
    hks = np.random.default_rng(5).uniform(0.3, 5.0, 12)
    for ratio, case in ((0.05, "B"), (0.5, "B"), (1.0, "C"), (1.7, "C")):
        rows = deficit_sweep(1.3, ratio, hks)
        assert [r["hbarK"] for r in rows] == hks.tolist()
        for row, hk in zip(rows, hks):
            assert row["deficit"] == scenario_record(case, 1.3, hk, ratio)["deficit"]


def test_sign_flip_consistency():
    pre, post = scenario("C", 1.0, 4.0)
    pw_a = weak_value(pre, post).value
    pw_b = weak_value(pre, post).value
    assert pw_a == pw_b   # bit-identical on identical inputs
    plus = scenario_record("C", 1.0, 4.0, lam=0.3, sign="plus")
    minus = scenario_record("C", 1.0, 4.0, lam=0.3, sign="minus_mu")
    assert plus["deficit"] == minus["deficit"] == pytest.approx(4.0 - pw_a.real, abs=1e-12)
    assert abs(plus["total_transfer"]) <= 4.0
    assert abs(minus["total_transfer"]) >= 4.0
    # the pointer corrections have opposite signs
    assert plus["pointer_shift"] > 0 > minus["pointer_shift"]


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


def test_coupling_model_validation():
    with pytest.raises(ValueError):
        CouplingModel(0.0)
    with pytest.raises(ValueError):
        CouplingModel(0.5, "times")
    # hbarK is the scenario's, which must be positive
    with pytest.raises(NonPositiveInput):
        scenario_record("C", 1.0, -1.0)


def tabulated_pre(grid):
    """A complex non-Gaussian state that does not vanish at the grid ends."""
    p = grid.points
    return WaveFunction(grid, (1.0 + 0.4 * np.cos(2.0 * p)) * np.exp(0.3j * p - np.abs(p) / 2))


def elementwise_mixed_pw(mix, post):
    """Mixed-state P_w from the elementwise trapezoid over the whole grid."""
    p, dp = post.grid.points, post.grid.dp
    bra = np.conj(post.amplitudes)
    num = den = 0.0
    for w, psi in mix.components:
        ov = elementwise_trapezoid(bra * psi.amplitudes, dp)
        num += w * elementwise_trapezoid(bra * p * psi.amplitudes, dp) * np.conj(ov)
        den += w * abs(ov) ** 2
    return num / den


def test_weak_values_match_elementwise_trapezoid():
    # complex and tabulated (non-Gaussian) states that do not vanish at the
    # grid ends, so a wrongly conjugated <post| or endpoint term shows; and
    # Gaussian-tagged posts, whose integrals run over their support only
    rng = np.random.default_rng(11)
    p = GRID.points
    pre_tab = tabulated_pre(GRID)
    post_tab = WaveFunction(GRID, np.exp(1j * rng.uniform(0, 6, p.size) - np.abs(p - 4.0) / 1.5))
    post_phased = with_global_phase(gaussian_state(GRID, 4.0, 0.5), 0.7)
    # tagged posts 5.2 sigma from a grid end: support and endpoint term reach it
    post_last = gaussian_state(GRID, GRID.p_max - 2.6, 0.5)
    post_first = gaussian_state(GRID, GRID.p_min + 2.6, 0.5)
    assert post_last.support()[1] == GRID.n_points and post_first.support()[0] == 0
    pre_a, post_a = scenario("A", 1.0, 2.0)   # sigma_f = 1e-3 in the interior
    lo, hi = post_a.support()
    assert 0 < lo < hi < post_a.grid.n_points and hi - lo < post_a.grid.n_points // 100
    pre_a_tab = tabulated_pre(post_a.grid)
    # real (float64) amplitudes on both sides, and a real pre with a complex post
    pre_real = WaveFunction(GRID, (1.0 + 0.4 * np.cos(2.0 * p)) * np.exp(-np.abs(p) / 2))
    post_real = WaveFunction(GRID, (1.0 + 0.3 * np.sin(p)) * np.exp(-np.abs(p - 4.0) / 1.5))
    assert pre_real.amplitudes.dtype == post_real.amplitudes.dtype == np.float64
    assert post_phased.amplitudes.dtype == np.complex128
    pairs = [(gaussian_state(GRID, 0.0, 1.0), post_phased), (pre_tab, post_tab),
             (pre_tab, post_phased), (pre_tab, post_last), (pre_tab, post_first),
             (pre_a, post_a), (pre_a_tab, post_a),
             (pre_real, post_real), (pre_real, post_phased)]
    for pre, post in pairs:
        p, dp = pre.grid.points, pre.grid.dp
        for shift in (0.0, 4.0):
            bra = np.conj(post.amplitudes)
            ref = elementwise_trapezoid(bra * (p - shift) * pre.amplitudes, dp) \
                / elementwise_trapezoid(bra * pre.amplitudes, dp)
            got = weak_value(pre, post, shift).value
            assert abs(got - ref) <= 1e-13 * abs(ref)
    for mix, post in ((MixedState(((0.3, pairs[0][0]), (0.7, pre_tab))), post_tab),
                      (MixedState(((0.4, pre_a), (0.6, pre_a_tab))), post_a)):
        ref = elementwise_mixed_pw(mix, post)
        got = weak_value_mixed(mix, post).value
        assert abs(got - ref) <= 1e-13 * abs(ref)


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
    # the deficit comes without cancellation: case A's Re(P_w) agrees with
    # hbarK to 1e-6, so hbarK - P_w_re would lose about six of its digits
    closed = hbar_k * sigma_f**2 / (1.0 + sigma_f**2)
    assert abs(rec["deficit"] - closed) <= 5e-11 * closed
    assert rec["pointer_shift"] == lam * rec["deficit"]


def peak_bytes(call):
    """tracemalloc peak of call(), after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scenario_records_allocate_only_what_they_integrate():
    # case A's 131072-node grid: the pre state's own 1 MiB buffer and the
    # post state's zero-padded 1 MiB; a materialised axis or a second
    # full-grid buffer for either state would add another 1 MiB
    assert peak_bytes(lambda: scenario_record("A", 1.0, 2.3)) < 2.25 * 2**20
    grid = scenario("A", 1.0, 2.3)[0].grid
    assert peak_bytes(lambda: gaussian_state(grid, 0.0, 1.0)) < 1.25 * 2**20
    for case in "BC":
        assert peak_bytes(lambda: scenario_record(case, 1.0, 2.3)) < 42 * 1024


def test_scenario_rejects_non_finite_inputs():
    for kwargs, name in (({"sigma_i": np.inf}, "sigma_i"), ({"hbar_k": np.nan}, "hbarK"),
                         ({"hbar_k": -np.inf}, "hbarK"), ({"width_ratio": np.nan}, "width_ratio")):
        args = {"sigma_i": 1.0, "hbar_k": 2.0, "width_ratio": 0.5, **kwargs}
        for kind in "ABC":
            with pytest.raises(NonFiniteInput, match=name):
                scenario(kind, **args)
