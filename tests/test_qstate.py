"""Tests for momentum-space states: construction, quadrature, shifts, I/O."""

import math

import numpy as np
import pytest

from wmscatter.errors import (
    GridMismatch,
    GridTooNarrow,
    NonPositiveSigma,
    NotNormalized,
    ParseError,
)
from wmscatter.qstate import (
    MixedState,
    MomentumGrid,
    WaveFunction,
    apply_impulse,
    expectation_p,
    gaussian_state,
    grid_for_gaussians,
    inner_product,
    normalize,
    read_state_csv,
    shift,
    variance_p,
    with_global_phase,
    write_state_csv,
)

GRID = MomentumGrid(-20.0, 20.0, 2048)


def elementwise_trapezoid(values, dx):
    """The trapezoidal rule written out elementwise: the reference the
    one-pass quadrature is held to."""
    return (values.sum() - 0.5 * (values[0] + values[-1])) * dx


def complex_states():
    """Complex states, none of them a plain Gaussian: a phased Gaussian, a
    Gaussian with a linear phase ramp, and two tabulated non-Gaussian states
    with random phases that do not vanish at the grid ends."""
    rng = np.random.default_rng(7)
    p = GRID.points
    ramp = gaussian_state(GRID, 1.0, 0.8).amplitudes * np.exp(0.6j * p)
    phases = np.exp(1j * rng.uniform(0.0, 6.0, p.size))
    tabs = [(1.0 + 0.5 * np.sin(3.0 * p)) * np.exp(-np.abs(p) / 3.0) * phases,
            (rng.normal(size=p.size) + 1j * rng.normal(size=p.size)) / (1.0 + p**2)]
    return [with_global_phase(gaussian_state(GRID, -0.5, 1.3), 0.9),
            WaveFunction(GRID, ramp), *(WaveFunction(GRID, t) for t in tabs)]


def test_gaussian_moments_centered():
    g = gaussian_state(GRID, 0.0, 1.0)
    assert abs(expectation_p(g)) < 1e-12
    assert abs(variance_p(g) - 1.0) < 1e-10


def test_gaussian_moments_translated():
    g = gaussian_state(GRID, 4.0, 1.0)
    assert abs(expectation_p(g) - 4.0) < 1e-10


def test_gaussian_norm():
    g = gaussian_state(GRID, 0.0, 1.0)
    assert abs(g.norm_sq() - 1.0) < 1e-10


def test_gaussian_preconditions():
    with pytest.raises(NonPositiveSigma):
        gaussian_state(GRID, 0.0, -1.0)
    with pytest.raises(GridTooNarrow):
        gaussian_state(GRID, 18.0, 1.0)   # 5-sigma window pokes out


def test_self_overlap_is_one():
    g = gaussian_state(GRID, 0.0, 1.0)
    assert inner_product(g, g) == pytest.approx(1.0, abs=1e-12)


def test_distant_gaussians_orthogonal():
    grid = MomentumGrid(-10.0, 50.0, 4096)
    a = gaussian_state(grid, 0.0, 1.0)
    b = gaussian_state(grid, 40.0, 1.0)   # 40 sigma apart
    assert abs(inner_product(a, b)) < 1e-10


def test_equal_width_overlap_closed_form():
    # <G(0,s)|G(K,s)> = exp(-K^2 / (8 s^2)); K=2, s=1 -> exp(-0.5)
    a = gaussian_state(GRID, 0.0, 1.0)
    b = gaussian_state(GRID, 2.0, 1.0)
    got = inner_product(a, b)
    assert got.imag == pytest.approx(0.0, abs=1e-14)
    assert got.real == pytest.approx(0.6065306597126334, rel=1e-10)
    # independent check: plain Riemann sum at doubled resolution
    p = np.linspace(-20, 20, 8191)
    dp = p[1] - p[0]
    fa = np.exp(-p**2 / 4.0)
    fb = np.exp(-((p - 2.0) ** 2) / 4.0)
    fa /= math.sqrt(np.sum(fa**2) * dp)
    fb /= math.sqrt(np.sum(fb**2) * dp)
    oracle = np.sum(fa * fb) * dp
    assert got.real == pytest.approx(oracle, rel=1e-8)


def test_inner_product_conjugate_symmetry():
    a = gaussian_state(GRID, 0.0, 1.0)
    b = with_global_phase(gaussian_state(GRID, 1.0, 0.7), 0.3)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))


def test_inner_product_grid_mismatch():
    a = gaussian_state(GRID, 0.0, 1.0)
    b = gaussian_state(MomentumGrid(-20.0, 20.0, 1024), 0.0, 1.0)
    with pytest.raises(GridMismatch):
        inner_product(a, b)


def test_expectation_requires_normalization():
    g = gaussian_state(GRID, 0.0, 1.0)
    bad = WaveFunction(GRID, 2.0 * g.amplitudes)
    with pytest.raises(NotNormalized):
        expectation_p(bad)


def test_mixed_state_expectation_linearity():
    a = gaussian_state(GRID, 0.0, 1.0)
    b = gaussian_state(GRID, 2.0, 1.0)
    mix = MixedState(((0.5, a), (0.5, b)))
    assert expectation_p(mix) == pytest.approx(1.0, abs=1e-10)


def test_mixed_state_weight_validation():
    a = gaussian_state(GRID, 0.0, 1.0)
    with pytest.raises(ValueError):
        MixedState(((0.6, a), (0.6, a)))


def test_shift_descriptor_exact():
    g = gaussian_state(GRID, 0.0, 1.0)
    s = shift(g, 3.0)
    ref = gaussian_state(GRID, 3.0, 1.0)
    assert np.allclose(s.amplitudes, ref.amplitudes, atol=1e-14)


def test_shift_zero_identity():
    g = gaussian_state(GRID, 0.0, 1.0)
    assert shift(g, 0.0) is g


def test_shift_tabulated_matches_descriptor():
    g = gaussian_state(GRID, 0.0, 1.0)
    tab = shift(g.tabulated(), 2.5)
    ref = gaussian_state(GRID, 2.5, 1.0)
    assert np.max(np.abs(tab.amplitudes - ref.amplitudes)) < 1e-9


def test_shift_roundtrip_tabulated():
    g = gaussian_state(GRID, 1.0, 0.8).tabulated()
    back = shift(shift(g, 2.0), -2.0)
    assert np.max(np.abs(back.amplitudes - g.amplitudes)) < 1e-9


def test_shift_preserves_normalization():
    g = gaussian_state(GRID, 0.0, 1.0)
    assert abs(shift(g, 4.0).norm_sq() - 1.0) < 1e-10
    assert abs(shift(g.tabulated(), 4.0).norm_sq() - 1.0) < 1e-10


def test_shift_expectation_property_random_gaussians():
    rng = np.random.default_rng(20240811)
    for _ in range(40):
        sigma = rng.uniform(0.3, 2.0)
        center = rng.uniform(-3.0, 3.0)
        d = rng.uniform(-5.0, 5.0)
        g = gaussian_state(GRID, center, sigma)
        assert expectation_p(shift(g, d)) - expectation_p(g) == pytest.approx(d, abs=1e-8)
        t = shift(g.tabulated(), d)
        assert expectation_p(t) - expectation_p(g) == pytest.approx(d, abs=1e-8)


def test_shift_window_checks():
    g = gaussian_state(GRID, 0.0, 1.0)
    with pytest.raises(GridTooNarrow):
        shift(g, 16.0)          # descriptor window leaves the grid
    with pytest.raises(GridTooNarrow):
        shift(g.tabulated(), 11.0)   # > span/4


def test_apply_impulse_signs_and_conservation():
    grid = grid_for_gaussians([-8.0, 8.0], [1.0, 0.5])
    neutron = gaussian_state(grid, 2.0, 1.0)
    atom = gaussian_state(grid, 0.0, 0.5)
    n2, a2 = apply_impulse(neutron, atom, 3.0)
    assert expectation_p(n2) == pytest.approx(-1.0, abs=1e-8)
    assert expectation_p(a2) == pytest.approx(3.0, abs=1e-8)
    dn = expectation_p(n2) - expectation_p(neutron)
    da = expectation_p(a2) - expectation_p(atom)
    assert dn + da == pytest.approx(0.0, abs=1e-10)


def test_apply_impulse_zero_is_identity():
    neutron = gaussian_state(GRID, 2.0, 1.0)
    atom = gaussian_state(GRID, 0.0, 0.5)
    n2, a2 = apply_impulse(neutron, atom, 0.0)
    assert np.array_equal(n2.amplitudes, neutron.amplitudes)
    assert np.array_equal(a2.amplitudes, atom.amplitudes)


def test_quadrature_convergence_on_refinement():
    # halving dp changes the overlap by < 1e-8 for 5-sigma-resolved Gaussians
    coarse = MomentumGrid(-12.0, 12.0, 128)    # dp ~ sigma/5
    fine = MomentumGrid(-12.0, 12.0, 255)      # dp halved, same span
    va = inner_product(gaussian_state(coarse, 0.0, 1.0),
                       gaussian_state(coarse, 1.5, 1.0))
    vb = inner_product(gaussian_state(fine, 0.0, 1.0),
                       gaussian_state(fine, 1.5, 1.0))
    assert abs(va - vb) < 1e-8


def test_grid_for_gaussians_policy():
    grid = grid_for_gaussians([0.0, 4.0], [1.0, 1e-3])
    assert grid.n_points >= 1024
    assert grid.n_points & (grid.n_points - 1) == 0   # power of two
    assert grid.dp <= 1e-3 / 4.0
    assert grid.p_min <= -10.0 and grid.p_max >= 14.0


def test_normalize_rescales():
    g = gaussian_state(GRID, 0.0, 1.0)
    doubled = WaveFunction(GRID, 2.0 * g.amplitudes)
    assert abs(normalize(doubled).norm_sq() - 1.0) < 1e-12


def test_global_phase_preserves_density():
    g = gaussian_state(GRID, 0.0, 1.0)
    ph = with_global_phase(g, 1.234)
    assert np.allclose(np.abs(ph.amplitudes) ** 2, np.abs(g.amplitudes) ** 2)


def test_state_csv_roundtrip(tmp_path):
    g = with_global_phase(gaussian_state(MomentumGrid(-8.0, 8.0, 256), 1.0, 0.9), 0.4)
    path = tmp_path / "state.csv"
    write_state_csv(g, path)
    back = read_state_csv(path)
    assert back.grid == g.grid
    assert np.allclose(back.amplitudes, g.amplitudes, atol=0, rtol=0)


def test_quadrature_matches_elementwise_trapezoid():
    # complex, non-vanishing endpoints: catches a conjugate on the wrong side
    # of <a|b> and a wrong endpoint correction
    states = complex_states()
    for a in states:
        ref = elementwise_trapezoid(np.abs(a.amplitudes) ** 2, GRID.dp).real
        assert a.norm_sq() == pytest.approx(ref, rel=1e-13)
        for b in states:
            got = inner_product(a, b)
            ref = elementwise_trapezoid(np.conj(a.amplitudes) * b.amplitudes, GRID.dp)
            assert abs(got - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("text, line", [
    ("p,re,im\n0.0,1.0,0.0\n", 1),
    ("", 1),
    ("P,re,im\n0.0,1.0,0.0\n0.1,1.0\n", 3),
    ("P,re,im\n0.0,1.0,0.0\n\n0.1,1.0,0.0,9\n", 4),
    ("P,re,im\n0.0,1.0,0.0\n0.1,one,0.0\n", 3),
    ("P,re,im\n0.0,1.0,0.0\n0.1,nan,0.0\n", 3),
    ("P,re,im\n0.0,1.0,0.0\n0.1,1.0,-inf\n", 3),
], ids=["header", "empty", "two-fields", "four-fields", "non-numeric", "nan", "inf"])
def test_state_csv_rejects_malformed(tmp_path, text, line):
    path = tmp_path / "state.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        read_state_csv(path)
    assert err.value.line == line
