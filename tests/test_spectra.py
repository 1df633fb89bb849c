"""Forward instrument model tests: density, S_IA, trajectories, simulation,
deficit injection, counting noise, file round trips."""

import json
import math

import numpy as np
import pytest

import wmscatter.analysis as analysis
from wmscatter import constants as C
from wmscatter import spectra
from wmscatter.errors import NonPositiveK, UnphysicalTOF
from wmscatter.kinematics import DetectorGeometry, NeutronBeam, k_transfer, tof, trajectory
from wmscatter.qstate import MixedState, WaveFunction, gaussian_state, grid_for_gaussians
from wmscatter.spectra import (
    DeficitInjection,
    InstrumentConfig,
    SampleModel,
    Spectrum,
    TofBinning,
    arcs_like_instrument,
    instrument_from_dict,
    instrument_to_dict,
    momentum_density,
    poisson_sample,
    recoil_peak_k1,
    recoil_tof_window,
    s_ia,
    sample_from_dict,
    simulate_spectrum,
    write_spectrum_csv,
)

BEAM = NeutronBeam(90.0)


def make_sample(sigma_p, mass, e_rot=0.0, deficit=None):
    grid = grid_for_gaussians([0.0], [sigma_p])
    return SampleModel(mass, gaussian_state(grid, 0.0, sigma_p), e_rot, deficit)


def one_detector_cfg(theta_deg, sample, sigma_p, n_bins=512):
    geom = DetectorGeometry(11.6, 4.0, math.radians(theta_deg))
    bins = recoil_tof_window(BEAM, (geom,), sample, sigma_p, n_bins=n_bins)
    return InstrumentConfig(BEAM, (geom,), bins)


def centroid_points(sample, sigma_p, theta_degs, n_bins=512):
    pts = []
    for a in theta_degs:
        cfg = one_detector_cfg(a, sample, sigma_p, n_bins)
        spec = simulate_spectrum(cfg, sample, 0)
        red = analysis.reduce_spectrum(spec, cfg, 0)
        pts.append(analysis.centroid_ke(red)[0])
    return pts


# --- momentum density -----------------------------------------------------------

def test_density_gaussian_std():
    grid = grid_for_gaussians([0.0], [0.7])
    state = gaussian_state(grid, 0.0, 0.7)
    dens = momentum_density(state)
    dp = grid.dp
    total = np.trapezoid(dens.n, dx=dp)
    assert total == pytest.approx(1.0, abs=1e-10)
    var = np.trapezoid(dens.p**2 * dens.n, dx=dp)
    assert math.sqrt(var) == pytest.approx(0.7, rel=1e-8)


def test_density_commutes_with_shift():
    grid = grid_for_gaussians([0.0, 2.0], [0.6, 0.6])
    tagless = WaveFunction(grid, gaussian_state(grid, 1.5, 0.6).amplitudes)
    d1 = momentum_density(tagless)
    # the density of the state moved to 1.5 is the density moved to 1.5
    expect = np.exp(-((grid.points - 1.5) ** 2) / (2 * 0.6**2)) / (0.6 * math.sqrt(2 * math.pi))
    assert np.allclose(d1.n, expect, atol=1e-9)
    assert np.array_equal(d1.n, momentum_density(gaussian_state(grid, 1.5, 0.6)).n)


def test_density_mixture_weighted_sum():
    grid = grid_for_gaussians([0.0], [0.5, 1.0])
    a = gaussian_state(grid, 0.0, 0.5)
    b = gaussian_state(grid, 0.0, 1.0)
    mix = MixedState(((0.25, a), (0.75, b)))
    dm = momentum_density(mix)
    expect = 0.25 * momentum_density(a).n + 0.75 * momentum_density(b).n
    assert np.allclose(dm.n, expect)


# --- impulse-approximation structure factor --------------------------------------

def test_s_ia_sum_rule_and_center():
    grid = grid_for_gaussians([0.0], [0.8], points_per_sigma=32)
    dens = momentum_density(gaussian_state(grid, 0.0, 0.8))
    for k in (1.5, 3.0, 6.0):
        for mass in (1.0079, 2.01, 4.0026):
            e_rec = C.ATOM_E_COEF * k**2 / mass
            width = 2.0 * C.ATOM_E_COEF * k * 0.8 / mass
            e = np.linspace(e_rec - 8 * width, e_rec + 8 * width, 4096)
            s = s_ia(k, e, dens, mass)
            assert np.trapezoid(s, e) == pytest.approx(1.0, abs=1e-6)
            spacing = e[1] - e[0]
            assert np.trapezoid(e * s, e) == pytest.approx(e_rec, abs=spacing)
            # argmax resolution is limited by the density knots mapped into E
            knot = grid.dp * 2.0 * C.ATOM_E_COEF * k / mass
            assert e[np.argmax(s)] == pytest.approx(e_rec, abs=spacing + knot)


def test_s_ia_width_matches_doppler():
    sigma_p = 0.6
    k, mass = 4.0, 2.01
    grid = grid_for_gaussians([0.0], [sigma_p], points_per_sigma=32)
    dens = momentum_density(gaussian_state(grid, 0.0, sigma_p))
    e_rec = C.ATOM_E_COEF * k**2 / mass
    width_pred = 2.0 * C.ATOM_E_COEF * k * sigma_p / mass
    e = np.linspace(e_rec - 10 * width_pred, e_rec + 10 * width_pred, 8192)
    s = s_ia(k, e, dens, mass)
    mean = np.trapezoid(e * s, e)
    std = math.sqrt(np.trapezoid((e - mean) ** 2 * s, e))
    assert std == pytest.approx(width_pred, rel=1e-4)
    # independent histogram oracle: draw P, put each event on its energy shell
    rng = np.random.default_rng(2718)
    p = rng.normal(0.0, sigma_p, size=400_000)
    e_events = e_rec + 2.0 * C.ATOM_E_COEF * k * p / mass
    assert np.std(e_events) == pytest.approx(width_pred, rel=0.01)
    assert np.mean(e_events) == pytest.approx(e_rec, abs=4 * width_pred / math.sqrt(len(p)))


def test_s_ia_rejects_bad_k():
    grid = grid_for_gaussians([0.0], [0.5])
    dens = momentum_density(gaussian_state(grid, 0.0, 0.5))
    with pytest.raises(NonPositiveK):
        s_ia(0.0, np.linspace(0, 10, 64), dens, 1.0)
    with pytest.raises(NonPositiveK):
        s_ia(np.linspace(2.0, -0.5, 64), np.linspace(0, 10, 64), dens, 1.0)


# --- detector trajectories ---------------------------------------------------------

def kernel_trajectory(cfg, det_index):
    """(valid, E, K) along one detector's TOF bin centers from the kernel."""
    g = cfg.detectors[det_index]
    valid, _, e, kk, _ = trajectory(cfg.beam.e0, g.l0, g.l1, g.theta, g.t0,
                                    cfg.tof_bins.centers)
    return valid, e, kk


def test_trajectory_elastic_point():
    geom = DetectorGeometry(11.6, 4.0, math.radians(45.0), t0=12.0)
    t_el = geom.t0 + (geom.l0 + geom.l1) / BEAM.v0 / C.US_S
    width = 2.0
    bins = TofBinning(t_el - 8.5 * width, t_el + 7.5 * width, 16)
    cfg = InstrumentConfig(BEAM, (geom,), bins)
    valid, e, _ = kernel_trajectory(cfg, 0)
    assert valid.all()
    centers = cfg.tof_bins.centers
    j = int(np.argmin(np.abs(centers - t_el)))
    assert centers[j] == pytest.approx(t_el, abs=1e-9)
    assert e[j] == pytest.approx(0.0, abs=1e-9)


def test_trajectory_monotone_energy_and_angle_dependence():
    sample = make_sample(0.3, 1.0079)
    geom1 = DetectorGeometry(11.6, 4.0, math.radians(40.0))
    geom2 = DetectorGeometry(11.6, 4.0, math.radians(60.0))
    bins = TofBinning(3000.0, 6000.0, 64)
    cfg = InstrumentConfig(BEAM, (geom1, geom2), bins)
    v1, e1, k1 = kernel_trajectory(cfg, 0)
    v2, e2, k2 = kernel_trajectory(cfg, 1)
    assert v1.all() and v2.all()
    assert all(b > a for a, b in zip(e1, e1[1:]))
    # same TOF bin -> same E, different K at different angles
    assert e1[10] == pytest.approx(e2[10])
    assert k1[10] != pytest.approx(k2[10])


def test_trajectory_satisfies_k_relation():
    cfg = arcs_like_instrument(theta_deg=[50], n_bins=64)
    valid, es, ks = kernel_trajectory(cfg, 0)
    for e, kk, ok in zip(es, ks, valid):
        if not ok:
            continue
        k1 = math.sqrt((BEAM.k0**2 * C.NEUTRON_E_COEF - e) / C.NEUTRON_E_COEF)
        assert kk == pytest.approx(
            k_transfer(BEAM.k0, k1, math.radians(50.0)), rel=1e-12)


def test_trajectory_flags_unphysical_bins():
    geom = DetectorGeometry(11.6, 4.0, math.radians(45.0))
    t_in = geom.l0 / BEAM.v0 / C.US_S
    bins = TofBinning(t_in - 100.0, t_in + 100.0, 16)
    cfg = InstrumentConfig(BEAM, (geom,), bins)
    valid, e, _ = kernel_trajectory(cfg, 0)
    assert not valid.all() and valid.any()
    assert len(e) == 16
    for en, ok in zip(e, valid):
        if not ok:
            assert math.isnan(en)
    with pytest.raises(UnphysicalTOF):
        simulate_spectrum(cfg, make_sample(0.3, 1.0079), 0)


# --- the trajectory memo ----------------------------------------------------------

def test_memoised_trajectory_is_read_only():
    cfg = arcs_like_instrument(theta_deg=[35], n_bins=64)
    red = analysis.reduce_spectrum(Spectrum(0, cfg.tof_bins.edges, np.ones(64)), cfg, 0)
    for arr in spectra._trajectory_arrays(cfg, 0) + (red.t, red.k, red.e, red.factor):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_geometry_from_spectrum_file_hits_the_simulated_entry(tmp_path):
    sample = make_sample(0.3, 2.01, e_rot=14.7)
    cfg = one_detector_cfg(17.3, sample, 0.3, n_bins=128)
    spec = poisson_sample(simulate_spectrum(cfg, sample, 0), 5000, seed=2)
    write_spectrum_csv(spec, tmp_path / "spec.csv")
    back = analysis.ingest_spectrum(tmp_path / "spec.csv")
    before = spectra._trajectory.cache_info()
    red = analysis.reduce_spectrum(back, poisson_errors=True)   # geometry from metadata
    after = spectra._trajectory.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert red.e is spectra._trajectory_arrays(cfg, 0)[3]


def test_trajectory_memo_stays_bounded():
    info = spectra._trajectory.cache_info()
    assert info.maxsize == spectra.TRAJECTORY_MEMO_SIZE >= 11
    cfg = arcs_like_instrument(theta_deg=range(10, 130, 5), n_bins=32)
    assert len(cfg.detectors) > spectra.TRAJECTORY_MEMO_SIZE
    for d in range(len(cfg.detectors)):
        spectra._trajectory_arrays(cfg, d)
        assert spectra._trajectory.cache_info().currsize <= spectra.TRAJECTORY_MEMO_SIZE


def test_bank_trajectory_matches_each_memo_entry():
    # one (n_det, 1) x (n_bins,) kernel call gives each detector's memoised
    # arrays bit for bit: np.cos on a column and on one scalar theta agree.
    # The window opens before the incident arrival, so nan bins are compared too.
    arcs = arcs_like_instrument(theta_deg=[8, 11, 17.5, 29, 44, 73, 96, 130])
    t_in = 11.6 / BEAM.v0 / C.US_S
    cfg = InstrumentConfig(BEAM, arcs.detectors, TofBinning(t_in - 50.0, 3.0 * t_in, 257))
    col = {name: np.array([[getattr(g, name)] for g in cfg.detectors])
           for name in ("l0", "l1", "theta", "t0")}
    bank = trajectory(cfg.beam.e0, col["l0"], col["l1"], col["theta"], col["t0"],
                      cfg.tof_bins.centers)
    assert all(a.shape == (len(cfg.detectors), 257) for a in bank)
    assert not bank[0].all() and bank[0].any()
    for d in range(len(cfg.detectors)):
        _, valid, k1, e, kk, rate, _ = spectra._trajectory_arrays(cfg, d)
        for got, memo in zip(bank, (valid, k1, e, kk, rate)):
            assert got[d].tobytes() == memo.tobytes()


# --- recoil peak location helpers ----------------------------------------------

def test_recoil_peak_matches_elastic_ratio():
    # E_rot = 0: the elastic two-body closed form
    # k1/k0 = (cos theta + sqrt(rho^2 - sin^2 theta)) / (rho + 1), rho = M/m_n
    mass = 4.0026
    rho = mass * C.AMU_KG / C.NEUTRON_MASS_KG
    for theta in (0.4, 0.9, 1.6, 2.4):
        k1 = recoil_peak_k1(BEAM, theta, mass)
        ratio = (math.cos(theta) + math.sqrt(rho**2 - math.sin(theta) ** 2)) / (rho + 1.0)
        assert k1 == pytest.approx(BEAM.k0 * ratio, rel=1e-12)


def test_peak_tof_lands_on_shell():
    sample = make_sample(0.3, 2.01, e_rot=14.7)
    geom = DetectorGeometry(11.6, 4.0, math.radians(25.0))
    k1 = recoil_peak_k1(BEAM, geom.theta, sample.mass, sample.e_rot)
    tp = tof(geom, BEAM.v0, k1 * C.VEL_PER_WAVENUMBER)
    bins = TofBinning(tp - 200, tp + 200, 64)
    cfg = InstrumentConfig(BEAM, (geom,), bins)
    red = analysis.reduce_spectrum(simulate_spectrum(cfg, sample, 0), cfg, 0)
    e_at_tp = float(np.interp(tp, red.t, red.e))
    k_at_tp = float(np.interp(tp, red.t, red.k))
    assert e_at_tp - 14.7 == pytest.approx(
        C.ATOM_E_COEF * k_at_tp**2 / 2.01, rel=1e-3)


# --- spectrum synthesis -------------------------------------------------------------

def test_simulated_centroids_on_recoil_shell():
    # deficit-free hydrogen: centroid within 0.5% of E_rec(K_c)
    sample = make_sample(0.1, 1.0079)
    for pt in centroid_points(sample, 0.1, range(30, 65, 5), n_bins=768):
        shell = C.ATOM_E_COEF * pt.k**2 / 1.0079
        assert abs(pt.e - shell) / shell < 0.005


def test_centroid_within_half_bin():
    sample = make_sample(0.02, 1.0079, e_rot=5.0)
    for a in (30, 35, 40, 45):
        cfg = one_detector_cfg(a, sample, 0.02, n_bins=1024)
        red = analysis.reduce_spectrum(simulate_spectrum(cfg, sample, 0), cfg, 0)
        pt, _ = analysis.centroid_ke(red)
        j = int(np.argmin(np.abs(red.e - pt.e)))
        half_bin = abs(red.e[min(j + 1, len(red.e) - 1)] - red.e[j]) / 2.0
        shell = 5.0 + C.ATOM_E_COEF * pt.k**2 / 1.0079
        assert abs(pt.e - shell) < half_bin


def test_noiseless_centroids_lie_on_one_parabola():
    # R^2 > 1 - 1e-9 for a narrow momentum distribution
    sample = make_sample(0.01, 1.0079)
    pts = centroid_points(sample, 0.01, range(30, 75, 5), n_bins=6144)
    ks = np.array([p.k for p in pts])
    es = np.array([p.e for p in pts])
    x = C.ATOM_E_COEF * ks**2
    beta = float((x * es).sum() / (x * x).sum())
    r2 = 1.0 - float(((es - beta * x) ** 2).sum() / ((es - es.mean()) ** 2).sum())
    assert r2 > 1.0 - 1e-9
    assert 1.0 / beta == pytest.approx(1.0079, rel=1e-4)


def test_full_deficit_gives_half_momentum_fraction():
    # lambda=1, equal widths: fitted mass M/4, deficit fraction -50%
    sample = make_sample(0.3, 2.01, deficit=DeficitInjection(1.0, 1.0))
    pts = centroid_points(sample, 0.3, range(8, 26, 4), n_bins=256)
    fit = analysis.fit_roto_recoil(pts, pin_e_rot=0.0, m_free=2.01)
    assert fit.m_eff == pytest.approx(2.01 / 4.0, rel=0.02)
    rep = analysis.deficit_report(fit, 2.01)
    assert rep["deficit_percent"] == pytest.approx(-50.0, abs=1.0)
    assert rep["classification"] == "anomalous"


def test_deficit_monotone_in_lambda():
    masses = []
    for lam in (0.2, 0.5, 0.8, 1.0):
        sample = make_sample(0.3, 2.01, deficit=DeficitInjection(lam, 1.0))
        pts = centroid_points(sample, 0.3, range(8, 26, 4), n_bins=256)
        masses.append(analysis.fit_roto_recoil(pts, pin_e_rot=0.0).m_eff)
    assert all(b < a for a, b in zip(masses, masses[1:]))


def test_roto_recoil_ribbon_targets_paper_fit():
    lam = 2.0 * (1.0 - math.sqrt(0.64 / 2.01))
    sample = make_sample(0.3, 2.01, e_rot=14.7, deficit=DeficitInjection(lam, 1.0))
    pts = centroid_points(sample, 0.3, range(8, 30, 2), n_bins=256)
    fit = analysis.fit_roto_recoil(pts)
    assert fit.m_eff == pytest.approx(0.64, abs=0.02)
    assert fit.e_rot_fit == pytest.approx(14.7, abs=0.2)


# --- Poisson sampling ---------------------------------------------------------------

def _toy_expected():
    edges = np.linspace(0.0, 100.0, 65)
    centers = 0.5 * (edges[:-1] + edges[1:])
    counts = np.exp(-((centers - 50.0) ** 2) / 50.0)
    return Spectrum(0, edges, counts, {"schema": 1})


def test_poisson_deterministic_per_seed():
    spec = _toy_expected()
    a = poisson_sample(spec, 100000, seed=7)
    b = poisson_sample(spec, 100000, seed=7)
    c = poisson_sample(spec, 100000, seed=8)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)
    assert a.metadata["seed"] == 7


def test_poisson_total_and_relative_deviations():
    spec = _toy_expected()
    total = 1_000_000
    scale = total / spec.counts.sum()
    zs = []
    for seed in range(100):
        s = poisson_sample(spec, total, seed)
        assert abs(s.counts.sum() - total) <= 3.0 * math.sqrt(total)
        mu = spec.counts * scale
        sel = mu > 25
        zs.append((s.counts[sel] - mu[sel]) / np.sqrt(mu[sel]))
    z = np.concatenate(zs)
    assert np.std(z) == pytest.approx(1.0, abs=0.05)
    assert abs(np.mean(z)) < 0.05


def test_poisson_zero_expectation():
    edges = np.linspace(0, 10, 17)
    spec = Spectrum(0, edges, np.zeros(16), {})
    out = poisson_sample(spec, 1000, seed=3)
    assert np.array_equal(out.counts, np.zeros(16))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_spectrum_rejects_non_finite_or_negative_counts(bad):
    counts = np.ones(16)
    counts[5] = bad
    with pytest.raises(ValueError):
        Spectrum(0, np.linspace(0, 10, 17), counts, {})


# --- config and file I/O --------------------------------------------------------------

def test_instrument_json_roundtrip(tmp_path):
    cfg = arcs_like_instrument()
    doc = instrument_to_dict(cfg)
    assert doc["schema"] == 1
    back = instrument_from_dict(json.loads(json.dumps(doc)))
    assert back.beam.e0 == cfg.beam.e0
    assert len(back.detectors) == len(cfg.detectors)
    assert back.detectors[3].theta == pytest.approx(cfg.detectors[3].theta)


def test_instrument_accepts_degrees():
    doc = {"schema": 1, "beam": {"E0": 90.0},
           "detectors": [{"L0": 11.6, "L1": 4.0, "theta_deg": 45.0}],
           "tof_bins": {"t_min": 3000.0, "t_max": 6000.0, "n_bins": 64}}
    cfg = instrument_from_dict(doc)
    assert cfg.detectors[0].theta == pytest.approx(math.pi / 4.0)


def test_sample_from_dict_mixture_and_deficit():
    doc = {"schema": 1, "M": 2.01, "E_rot": 14.7,
           "momentum_dist": {"type": "mixture", "components": [
               {"weight": 0.6, "sigma": 0.3}, {"weight": 0.4, "sigma": 0.6}]},
           "deficit": {"lambda": 0.5, "width_ratio": 1.0}}
    sample = sample_from_dict(doc)
    assert isinstance(sample.momentum_dist, MixedState)
    assert sample.deficit.lam == 0.5
    assert sample.deficit.k_scale == pytest.approx(0.75)
    gauss = sample_from_dict({**doc, "momentum_dist": {"type": "gaussian", "sigma": 0.3}})
    for _, wf in (*sample.momentum_dist.components, (1.0, gauss.momentum_dist)):
        assert wf.amplitudes.dtype == np.float64
        assert not wf.amplitudes.flags.writeable


def test_density_of_real_state_matches_complex_copy():
    # the H2 samples of the forward model: the density of the real amplitudes
    # is bit for bit that of the same amplitudes held as complex, so spectra
    # do not depend on the amplitudes' kind
    for dist in ({"type": "gaussian", "sigma": 0.3},
                 {"type": "mixture", "components": [{"weight": 0.6, "sigma": 0.3},
                                                    {"weight": 0.4, "sigma": 0.6}]}):
        state = sample_from_dict({"schema": 1, "M": 2.01, "momentum_dist": dist}).momentum_dist
        for _, real in getattr(state, "components", ((1.0, state),)):
            as_complex = WaveFunction(real.grid, real.amplitudes + 0j)
            assert as_complex.amplitudes.dtype == np.complex128
            assert momentum_density(real).n.tobytes() == momentum_density(as_complex).n.tobytes()


def test_sample_requires_centered_distribution():
    grid = grid_for_gaussians([0.0, 2.0], [0.5, 0.5])
    off = gaussian_state(grid, 2.0, 0.5)
    with pytest.raises(ValueError):
        SampleModel(1.0, off)


def test_spectrum_csv_roundtrip(tmp_path):
    sample = make_sample(0.3, 2.01)
    cfg = one_detector_cfg(30.0, sample, 0.3, n_bins=64)
    spec = poisson_sample(simulate_spectrum(cfg, sample, 0), 5000, seed=11)
    path = tmp_path / "spec.csv"
    write_spectrum_csv(spec, path)
    back = analysis.ingest_spectrum(path)
    assert np.array_equal(back.counts, spec.counts)
    assert np.allclose(back.bin_edges, spec.bin_edges)
    assert back.metadata["seed"] == 11
    assert back.detector_index == spec.detector_index
