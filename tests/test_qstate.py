"""Tests for momentum-space states: construction and quadrature."""

import math
import tracemalloc

import numpy as np
import pytest

from wmscatter.errors import (
    GridTooLarge,
    GridTooNarrow,
    NonFiniteInput,
    NonPositiveSigma,
    NotNormalized,
)
from wmscatter.qstate import (
    MAX_POINTS,
    MixedState,
    MomentumGrid,
    WaveFunction,
    expectation_p,
    gaussian_state,
    grid_for_gaussians,
    trapezoid_vdot,
)

GRID = MomentumGrid(-20.0, 20.0, 2048)


def overlap(bra, ket):
    """<bra|ket> of two states on one grid."""
    return complex(trapezoid_vdot(bra.amplitudes, ket.amplitudes, bra.grid.dp))


def with_global_phase(state, chi):
    """The state times exp(i chi), as a complex tabulated state."""
    return WaveFunction(state.grid, state.amplitudes * np.exp(1j * chi))


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
    dev = GRID.points * g.amplitudes
    assert abs(trapezoid_vdot(dev, dev, GRID.dp).real - 1.0) < 1e-10


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


def reference_gaussian_amplitudes(grid, center, sigma):
    """gaussian_state's amplitudes from the plain windowed expression on
    np.linspace's axis, normalised by the trapezoid over that window alone:
    the bit-for-bit reference."""
    half = 2.0 * sigma * math.sqrt(746.0)
    points = np.linspace(grid.p_min, grid.p_max, grid.n_points)
    lo, hi = np.searchsorted(points, (center - half, center + half))
    win = np.exp(-((points[lo:hi] - center) ** 2) / (4.0 * sigma**2))
    ends = (win[0] ** 2 if lo == 0 else 0.0) + (win[-1] ** 2 if hi == grid.n_points else 0.0)
    norm = (np.vdot(win, win) - 0.5 * ends) * grid.dp
    env = np.zeros(grid.n_points)
    env[lo:hi] = win / math.sqrt(norm)
    return np.array(env, dtype=complex)


def test_gaussian_state_bits_match_reference():
    grid_a = grid_for_gaussians([0.0, 2.3], [1.0, 1e-3])
    cases = [(GRID, 0.0, 1.0),          # support clipped at both ends
             (GRID, 19.4, 0.1),         # clipped at the last node
             (GRID, -19.0, 0.2),        # clipped at node 0
             (GRID, -7.123, 0.0123),    # interior, a few nodes wide
             (grid_a, 2.3, 1e-3), (grid_a, 0.0, 1.0)]   # case A post and pre
    # a norm over the whole zero-padded grid instead of the support changes
    # the last bit of random pairs 54 and 60 here
    rng = np.random.default_rng(5)
    for _ in range(80):
        center, sigma = rng.uniform(-3.0, 3.0), 10 ** rng.uniform(-2.5, 0.3)
        cases.append((grid_for_gaussians([0.0, center], [1.0, sigma]), center, sigma))
    for grid, center, sigma in cases:
        got = gaussian_state(grid, center, sigma)
        want = reference_gaussian_amplitudes(grid, center, sigma)
        assert got.amplitudes.dtype == np.float64
        assert np.asarray(got.amplitudes, dtype=complex).tobytes() == want.tobytes()
        lo, hi = got.support()
        assert not want[:lo].any() and not want[hi:].any()


def random_grids(seed, count):
    """Seeded uniform grids of 8 to 3000 nodes, on both sides of zero, some
    spanning it and some far from it."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        p_min = rng.uniform(-50.0, 20.0) * 10 ** rng.uniform(-3.0, 2.0)
        width = 10 ** rng.uniform(-2.0, 3.0)
        yield MomentumGrid(p_min, p_min + width, int(rng.integers(8, 3000)))


def test_segment_is_linspace_bit_for_bit():
    rng = np.random.default_rng(11)
    for grid in random_grids(11, 60):
        n = grid.n_points
        want = np.linspace(grid.p_min, grid.p_max, n)
        windows = [(0, n), (0, 1), (n - 1, n), (0, 0), (n, n)]
        windows += [tuple(sorted(rng.integers(0, n + 1, 2))) for _ in range(20)]
        for lo, hi in windows:
            seg = grid.segment(lo, hi)
            assert seg.flags.writeable and seg.dtype == np.float64
            assert seg.tobytes() == want[lo:hi].tobytes(), (grid, lo, hi)
        assert grid.points.tobytes() == want.tobytes()


def test_index_at_is_searchsorted():
    # at every node, one ulp either side of it, between nodes and past both ends
    checks = 0
    for grid in random_grids(12, 40):
        pts = np.linspace(grid.p_min, grid.p_max, grid.n_points)
        mid = pts[:-1] + 0.5 * np.diff(pts)
        span = grid.p_max - grid.p_min
        probes = np.concatenate([pts, np.nextafter(pts, -np.inf), np.nextafter(pts, np.inf), mid,
                                 [grid.p_min - span, grid.p_max + span, -np.inf, np.inf, np.nan]])
        want = np.searchsorted(pts, probes)
        got = [grid.index_at(float(p)) for p in probes]
        assert got == want.tolist(), grid
        checks += probes.size
    assert checks > 100000


def test_support_matches_searchsorted_on_random_states():
    rng = np.random.default_rng(13)
    for _ in range(60):
        center, sigma = rng.uniform(-3.0, 3.0), 10 ** rng.uniform(-2.5, 0.3)
        grid = grid_for_gaussians([0.0, center], [1.0, sigma])
        half = 2.0 * sigma * math.sqrt(746.0)
        pts = np.linspace(grid.p_min, grid.p_max, grid.n_points)
        want = np.searchsorted(pts, (center - half, center + half)).tolist()
        assert list(gaussian_state(grid, center, sigma).support()) == want


def test_grid_points_are_cached_and_read_only():
    grid = MomentumGrid(-3.0, 5.0, 101)
    pts = grid.points
    assert grid.points is pts
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0] = 1.0
    assert grid == MomentumGrid(-3.0, 5.0, 101)


def test_grid_rejects_what_it_cannot_hold():
    for p_min, p_max in ((-np.inf, 0.0), (0.0, np.inf), (np.nan, 1.0), (-1e308, 1e308)):
        with pytest.raises(NonFiniteInput):
            MomentumGrid(p_min, p_max, 64)
    with pytest.raises(NonFiniteInput, match="centers"):
        grid_for_gaussians([0.0, np.nan], [1.0, 1.0])
    with pytest.raises(NonFiniteInput, match="sigmas"):
        grid_for_gaussians([0.0, 1.0], [1.0, np.inf])
    with pytest.raises(NonFiniteInput, match="sigma"):
        gaussian_state(MomentumGrid(-1e302, 1e302, 64), 0.0, 1e160)


def test_node_cap_raises_before_allocating():
    # the cap is what keeps a huge grid from being allocated: without it,
    # these calls would ask for up to 2**44 nodes, so they need it to run
    assert MAX_POINTS <= 1 << 24
    tracemalloc.start()
    try:
        with pytest.raises(GridTooLarge):
            MomentumGrid(0.0, 1.0, MAX_POINTS + 1)
        with pytest.raises(GridTooLarge):
            grid_for_gaussians([0.0, 4.0], [1e-9, 1e-12])
        with pytest.raises(GridTooLarge):
            grid_for_gaussians([0.0], [5e-324])
        grid = MomentumGrid(0.0, 1.0, MAX_POINTS)   # a grid at the cap stores no axis
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert grid.segment(MAX_POINTS - 3, MAX_POINTS).tolist() == [
        (MAX_POINTS - 3) * grid.dp, (MAX_POINTS - 2) * grid.dp, 1.0]


def test_wavefunction_copies_callers_array():
    values = gaussian_state(GRID, 0.0, 1.0).amplitudes.copy()
    frozen = values.copy()
    frozen.setflags(write=False)
    states = [WaveFunction(GRID, values), WaveFunction(GRID, frozen), WaveFunction(GRID, list(values))]
    before = values.copy()
    values[:] = 7.0
    for st in states:
        assert np.array_equal(st.amplitudes, before)
        assert not np.shares_memory(st.amplitudes, frozen)


def test_amplitudes_read_only():
    # and they keep the kind of their input: real stays float64, complex is complex128
    g = gaussian_state(GRID, 0.0, 1.0)
    built = {np.float64: [g, WaveFunction(GRID, g.amplitudes), WaveFunction(GRID, list(g.amplitudes)),
                          gaussian_state(GRID, 0.5, 1.0)],
             np.complex128: [WaveFunction(GRID, g.amplitudes + 0j),
                             WaveFunction(GRID, list(g.amplitudes + 0j)),
                             with_global_phase(g, 0.3)]}
    for kind, states in built.items():
        for st in states:
            assert st.amplitudes.dtype == kind
            assert not st.amplitudes.flags.writeable
            with pytest.raises(ValueError):
                st.amplitudes[0] = 1.0


def test_self_overlap_is_one():
    g = gaussian_state(GRID, 0.0, 1.0)
    assert overlap(g, g) == pytest.approx(1.0, abs=1e-12)


def test_distant_gaussians_orthogonal():
    grid = MomentumGrid(-10.0, 50.0, 4096)
    a = gaussian_state(grid, 0.0, 1.0)
    b = gaussian_state(grid, 40.0, 1.0)   # 40 sigma apart
    assert abs(overlap(a, b)) < 1e-10


def test_equal_width_overlap_closed_form():
    # <G(0,s)|G(K,s)> = exp(-K^2 / (8 s^2)); K=2, s=1 -> exp(-0.5)
    a = gaussian_state(GRID, 0.0, 1.0)
    b = gaussian_state(GRID, 2.0, 1.0)
    got = overlap(a, b)
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
    assert overlap(a, b) == pytest.approx(np.conj(overlap(b, a)))


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


def test_expectation_follows_the_center_random_gaussians():
    # tagged and tagless states alike: expectation_p reads the amplitudes only
    rng = np.random.default_rng(20240811)
    for _ in range(40):
        sigma = rng.uniform(0.3, 2.0)
        center = rng.uniform(-3.0, 3.0)
        d = rng.uniform(-5.0, 5.0)
        g = gaussian_state(GRID, center, sigma)
        moved = gaussian_state(GRID, center + d, sigma)
        assert expectation_p(moved) - expectation_p(g) == pytest.approx(d, abs=1e-8)
        t = WaveFunction(GRID, moved.amplitudes)
        assert expectation_p(t) - expectation_p(g) == pytest.approx(d, abs=1e-8)


def test_quadrature_convergence_on_refinement():
    # halving dp changes the overlap by < 1e-8 for 5-sigma-resolved Gaussians
    coarse = MomentumGrid(-12.0, 12.0, 128)    # dp ~ sigma/5
    fine = MomentumGrid(-12.0, 12.0, 255)      # dp halved, same span
    va = overlap(gaussian_state(coarse, 0.0, 1.0),
                 gaussian_state(coarse, 1.5, 1.0))
    vb = overlap(gaussian_state(fine, 0.0, 1.0),
                 gaussian_state(fine, 1.5, 1.0))
    assert abs(va - vb) < 1e-8


def test_grid_for_gaussians_policy():
    grid = grid_for_gaussians([0.0, 4.0], [1.0, 1e-3])
    assert grid.n_points >= 1024
    assert grid.n_points & (grid.n_points - 1) == 0   # power of two
    assert grid.dp <= 1e-3 / 4.0
    assert grid.p_min <= -10.0 and grid.p_max >= 14.0


def test_quadrature_matches_elementwise_trapezoid():
    # complex, non-vanishing endpoints: catches a conjugate on the wrong side
    # of <a|b> and a wrong endpoint correction
    states = complex_states()
    for a in states:
        ref = elementwise_trapezoid(np.abs(a.amplitudes) ** 2, GRID.dp).real
        assert a.norm_sq() == pytest.approx(ref, rel=1e-13)
        for b in states:
            got = overlap(a, b)
            ref = elementwise_trapezoid(np.conj(a.amplitudes) * b.amplitudes, GRID.dp)
            assert abs(got - ref) <= 1e-13 * abs(ref)

