"""Inverse-problem tests: centroids, mass fits, deficit reports, the
calibration-masking audit, and file ingestion."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import wmscatter.analysis as an
from wmscatter import cli, tablefile
from wmscatter import constants as C
from wmscatter.errors import (
    CollinearDegeneracy,
    DegeneratePeak,
    EmptyWindow,
    InsufficientPoints,
    MissingMetadata,
    ParseError,
    Underdetermined,
)
from wmscatter.kinematics import DetectorGeometry, KEPoint, NeutronBeam
from wmscatter.qstate import gaussian_state, grid_for_gaussians
from wmscatter.spectra import (
    SPECTRUM_COLUMNS,
    DeficitInjection,
    InstrumentConfig,
    SampleModel,
    Spectrum,
    TofBinning,
    poisson_sample,
    recoil_tof_window,
    simulate_spectrum,
    table_axis,
    write_spectrum_csv,
)

BEAM = NeutronBeam(90.0)


def gaussian_counts(center=20.0, width=2.0, amp=1000.0, n=200,
                    lo=0.0, hi=40.0):
    e = np.linspace(lo, hi, n)
    return amp * np.exp(-((e - center) ** 2) / (2 * width**2)), e


def refine(y, e, window):
    """The Gaussian peak refinement's PeakFit."""
    return an._refine_gaussian(e, y, window)[0]


def pipeline_peaks(sample, sigma_p, theta_degs, n_bins=256, counts=None, seed=0):
    """Per-detector (PeakFit, KEPoint) through simulate -> reduce -> centroid."""
    peaks, points, dets = [], [], []
    for i, a in enumerate(theta_degs):
        geom = DetectorGeometry(11.6, 4.0, math.radians(a))
        bins = recoil_tof_window(BEAM, (geom,), sample, sigma_p, n_bins=n_bins)
        cfg = InstrumentConfig(BEAM, (geom,), bins)
        spec = simulate_spectrum(cfg, sample, 0)
        if counts:
            spec = poisson_sample(spec, counts, seed * 1009 + i)
        red = an.reduce_spectrum(spec, cfg, 0, poisson_errors=bool(counts))
        pt, pf = an.centroid_ke(red)
        peaks.append((i, pf))
        points.append(pt)
        dets.append(geom)
    cfg_bank = InstrumentConfig(BEAM, tuple(dets), TofBinning(3000.0, 7000.0, 64))
    return cfg_bank, peaks, points


def make_sample(sigma_p, mass, e_rot=0.0, deficit=None):
    grid = grid_for_gaussians([0.0], [sigma_p])
    return SampleModel(mass, gaussian_state(grid, 0.0, sigma_p), e_rot, deficit)


# --- Gaussian peak refinement ----------------------------------------------------

def test_centroid_symmetric_noiseless():
    y, e = gaussian_counts(center=20.0)
    fit = refine(y, e, (10.0, 30.0))
    assert abs(fit.centroid - 20.0) < 1e-6 * 20.0
    assert fit.width == pytest.approx(2.0, rel=1e-6)
    assert abs(fit.first_moment - 20.0) < 1e-6 * 20.0


def test_centroid_translation_equivariance():
    y1, e = gaussian_counts(center=18.0)
    y2, _ = gaussian_counts(center=18.0 + 3.5)
    f1 = refine(y1, e, (8.0, 28.0))
    f2 = refine(y2, e, (11.5, 31.5))
    assert f2.centroid - f1.centroid == pytest.approx(3.5, abs=1e-9)


def test_centroid_window_errors():
    y, e = gaussian_counts()
    with pytest.raises(EmptyWindow):
        refine(y, e, (39.3, 40.0))   # fewer than 5 bins
    with pytest.raises(DegeneratePeak):
        refine(np.full(50, 7.0), np.linspace(0, 10, 50), (0.0, 10.0))


def test_centroid_skips_bins_before_incident_flight_time():
    # the same counts re-binned onto a TOF window that starts 40 bins before
    # the incident flight time, where reduce_spectrum leaves e and K NaN
    sample = make_sample(4.0, 2.01, e_rot=14.7)
    geom = DetectorGeometry(11.6, 4.0, math.radians(10.0))
    bins = recoil_tof_window(BEAM, (geom,), sample, 4.0, n_bins=256)
    cfg = InstrumentConfig(BEAM, (geom,), bins)
    spec = poisson_sample(simulate_spectrum(cfg, sample, 0), 200000, 3)
    t_floor = geom.t0 + geom.l0 / BEAM.v0 / C.US_S
    extra = math.ceil((bins.t_min - t_floor) / bins.width) + 40
    wide = TofBinning(bins.t_min - extra * bins.width, bins.t_max, bins.n_bins + extra)
    wide_spec = Spectrum(0, wide.edges, np.concatenate([np.zeros(extra), spec.counts]))
    red = an.reduce_spectrum(wide_spec, InstrumentConfig(BEAM, (geom,), wide), 0,
                             poisson_errors=True)
    assert np.count_nonzero(np.isnan(red.e)) == 40
    got_pt, got_fit = an.centroid_ke(red)
    want_pt, want_fit = an.centroid_ke(an.reduce_spectrum(spec, cfg, 0, poisson_errors=True))
    assert got_fit.centroid == pytest.approx(want_fit.centroid, rel=1e-12)
    assert got_pt.k == pytest.approx(want_pt.k, rel=1e-12)
    assert got_pt.sigma_e == pytest.approx(want_pt.sigma_e, rel=1e-9)


# --- mass fits ----------------------------------------------------------------------

def recoil_points(mass, ks, e_rot=0.0, sigma=None, rng=None):
    pts = []
    for k in ks:
        e = e_rot + C.ATOM_E_COEF * k**2 / mass
        if rng is not None and sigma:
            e += rng.normal(0.0, sigma)
        pts.append(KEPoint(k, e, sigma))
    return pts


def test_fit_recoil_exact_recovery():
    pts = recoil_points(2.01, np.linspace(1.0, 8.0, 12))
    fit = an.fit_roto_recoil(pts, pin_e_rot=0.0)
    assert fit.m_eff == pytest.approx(2.01, abs=1e-10)
    assert fit.stderr == pytest.approx(0.0, abs=1e-8)


def test_fit_recoil_errors():
    with pytest.raises(InsufficientPoints):
        an.fit_roto_recoil(recoil_points(2.0, [1.0, 2.0]), pin_e_rot=0.0)
    with pytest.raises(CollinearDegeneracy):
        an.fit_roto_recoil(recoil_points(2.0, [3.0, 3.0, 3.0]), pin_e_rot=0.0)


def test_fit_recoil_rotational_line_mass():
    # points around the observed rotational line position recover the free H mass
    rng = np.random.default_rng(5)
    ks = np.linspace(2.2, 3.2, 8)
    pts = recoil_points(1.0079, ks, sigma=0.05, rng=rng)
    fit = an.fit_roto_recoil(pts, pin_e_rot=0.0, m_free=1.0079)
    assert abs(fit.m_eff - 1.0079) < 3.0 * fit.stderr + 1e-9
    assert fit.classification in ("conventional", "anomalous")


def test_fit_roto_exact_recovery_and_reduction():
    ks = np.linspace(1.0, 6.0, 10)
    pts = recoil_points(0.64, ks, e_rot=14.7)
    fit = an.fit_roto_recoil(pts)
    assert fit.m_eff == pytest.approx(0.64, rel=1e-8)
    assert fit.e_rot_fit == pytest.approx(14.7, rel=1e-8)
    # an offset pinned at 0 is the one-parameter recoil fit, 1/M = sum(x E) / sum(x^2)
    pure = recoil_points(2.01, ks)
    pinned = an.fit_roto_recoil(pure, pin_e_rot=0.0)
    x = C.ATOM_E_COEF * ks**2
    assert pinned.m_eff == pytest.approx((x @ x) / (x @ [p.e for p in pure]), rel=1e-12)
    assert pinned.e_rot_fit == 0.0


def test_fit_roto_noisy_paper_scale():
    rng = np.random.default_rng(77)
    ks = np.linspace(1.2, 4.5, 12)
    pts = recoil_points(0.64, ks, e_rot=14.7, sigma=0.15, rng=rng)
    fit = an.fit_roto_recoil(pts, m_free=2.01)
    assert abs(fit.m_eff - 0.64) < 0.07
    assert abs(fit.e_rot_fit - 14.7) < 0.5
    assert fit.classification == "anomalous"


@pytest.mark.parametrize("weighted", [True, False])
def test_fit_roto_is_the_optimum_in_mass_parameters(weighted):
    """The closed form in (E_rot, 1/M) is a stationary point of the weighted
    cost in (E_rot, M), and its delta-method stderrs equal the covariance
    taken directly in (E_rot, M) there."""
    rng = np.random.default_rng(4)
    ks = np.linspace(1.2, 4.5, 12)
    sig = 0.1 + 0.02 * ks
    x = C.ATOM_E_COEF * ks**2
    es = 14.7 + x / 0.64 + rng.normal(0.0, sig)
    pts = [KEPoint(k, e, s if weighted else None) for k, e, s in zip(ks, es, sig)]
    fit = an.fit_roto_recoil(pts)
    sw = 1.0 / sig if weighted else np.ones_like(ks)
    r = (es - fit.e_rot_fit - x / fit.m_eff) * sw
    jac = np.column_stack([np.ones_like(x), -x / fit.m_eff**2]) * sw[:, None]
    assert np.abs(jac.T @ r).max() < 1e-9 * np.abs(jac).sum(axis=0).max() * np.abs(r).max()
    cov = np.linalg.inv(jac.T @ jac)
    if not weighted:
        cov *= (r @ r) / (len(ks) - 2)
    assert fit.stderr == pytest.approx(math.sqrt(cov[1, 1]), rel=1e-12)
    assert fit.e_rot_stderr == pytest.approx(math.sqrt(cov[0, 0]), rel=1e-12)


def test_fit_rejects_non_positive_sigma():
    # a given sigma_E must be positive; None alone leaves the point out
    ks = np.linspace(1.2, 4.5, 8)
    pts = [KEPoint(k, 14.7 + C.ATOM_E_COEF * k**2 / 0.64, 0.1) for k in ks]
    for bad in (0.0, -0.5, float("nan")):
        worse = [KEPoint(pts[0].k, pts[0].e, bad)] + pts[1:]
        with pytest.raises(ValueError):
            an.fit_roto_recoil(worse)
        with pytest.raises(ValueError):
            an.fit_roto_recoil(worse, pin_e_rot=0.0)
    unweighted = [KEPoint(pts[0].k, pts[0].e, None)] + pts[1:]
    assert an.fit_roto_recoil(unweighted).m_eff == pytest.approx(0.64, rel=1e-8)


def test_fit_leaves_out_points_without_sigma():
    """One missing sigma_E leaves its point out of an absolutely weighted
    fit of the rest; it does not turn every point unweighted."""
    rng = np.random.default_rng(4)
    ks = np.linspace(1.2, 4.5, 12)
    sig = 0.1 + 0.02 * ks
    pts = [KEPoint(k, 14.7 + C.ATOM_E_COEF * k**2 / 0.64 + rng.normal(0.0, s), s)
           for k, s in zip(ks, sig)]
    blank = [KEPoint(pts[0].k, pts[0].e + 3.0, None)] + pts[1:]

    def figures(fit):
        return fit.m_eff, fit.stderr, fit.e_rot_fit, fit.e_rot_stderr
    for fit in (lambda p: an.fit_roto_recoil(p, m_free=2.01),
                lambda p: an.fit_roto_recoil(p, pin_e_rot=0.0),
                lambda p: an.fit_roto_recoil(p, pin_e_rot=14.7)):
        got, want = fit(blank), fit(pts[1:])
        assert got.left_out == (0,) and want.left_out == ()
        assert figures(got) == figures(want)
    # the points left with sigma_E must still be enough
    few = [KEPoint(p.k, p.e, None) for p in pts[:9]] + pts[9:]
    with pytest.raises(InsufficientPoints):
        an.fit_roto_recoil(few)
    assert an.fit_roto_recoil(few, pin_e_rot=0.0).left_out == tuple(range(9))
    # with no sigma_E anywhere every point is fitted, unweighted
    assert an.fit_roto_recoil([KEPoint(p.k, p.e, None) for p in pts]).left_out == ()


def test_fit_roto_needs_four_points():
    with pytest.raises(InsufficientPoints):
        an.fit_roto_recoil(recoil_points(1.0, [1.0, 2.0, 3.0]))


def test_stderr_calibration_against_empirical():
    # reported stderr must track the observed scatter within 30% (200 seeds)
    ks = np.linspace(1.0, 5.0, 10)
    sigma = 0.2
    masses, stderrs = [], []
    for seed in range(200):
        rng = np.random.default_rng(10_000 + seed)
        pts = recoil_points(0.64, ks, e_rot=14.7, sigma=sigma, rng=rng)
        fit = an.fit_roto_recoil(pts)
        masses.append(fit.m_eff)
        stderrs.append(fit.stderr)
    empirical = float(np.std(masses))
    reported = float(np.mean(stderrs))
    assert abs(reported - empirical) / empirical < 0.30


def test_conventional_binding_direction():
    # binding offsets absorbed per the fixed-offset reading give M_eff > M_free
    rng = np.random.default_rng(42)
    ks = np.linspace(2.0, 7.0, 9)
    for _ in range(25):
        e_int = rng.uniform(0.05, 2.0)
        pts = recoil_points(1.0079, ks)   # free-mass locus
        fit = an.fit_roto_recoil(pts, pin_e_rot=e_int, m_free=1.0079)
        assert fit.m_eff > 1.0079
        assert fit.classification == "conventional"


def test_anomalous_upshift_direction():
    # peaks shifted to higher E than free recoil (the 5-10% observation)
    # must come out as a reduced effective mass
    ks = np.linspace(2.0, 7.0, 9)
    pts = [KEPoint(k, 1.07 * C.ATOM_E_COEF * k**2 / 1.0079) for k in ks]
    fit = an.fit_roto_recoil(pts, pin_e_rot=0.0, m_free=1.0079)
    assert fit.m_eff < 1.0079
    assert fit.classification == "anomalous"
    assert 0.91 < fit.m_eff < 0.96


def test_deficit_report_values():
    fit = an.MassFitResult(0.64, 0.01)
    rep = an.deficit_report(fit, 2.01)
    assert rep["deficit_percent"] == pytest.approx(-43.57, abs=0.01)
    assert rep["deficit_percent_linear"] == pytest.approx(-68.16, abs=0.01)
    assert rep["classification"] == "anomalous"
    same = an.deficit_report(an.MassFitResult(2.01, 0.01), 2.01)
    assert same["deficit_percent"] == pytest.approx(0.0, abs=1e-12)
    quarter = an.deficit_report(an.MassFitResult(0.5025, 0.01), 2.01)
    assert quarter["deficit_percent"] == pytest.approx(-50.0, abs=1e-9)


# --- calibration audit ------------------------------------------------------------

def test_audit_clean_data_near_zero_deltas():
    sample = make_sample(0.3, 2.01)
    cfg, peaks, _ = pipeline_peaks(sample, 0.3, range(60, 95, 5))
    rep = an.calibration_audit(cfg, peaks, 2.01, free_params=("t0",))
    # t0 (0.62 us) shares the constant offset with the profiled E_rot
    assert abs(rep.delta_sigmas["t0"]) <= 1.0
    # the roto-recoil line fits clean data (3.29), and freeing t0 lowers the
    # residual below the zero-delta audit's (8.89)
    assert rep.residual_norm < 4.0
    assert rep.residual_norm < an.calibration_audit(cfg, peaks, 2.01).residual_norm
    assert rep.masking_flag
    assert rep.refit_mass == pytest.approx(2.01, rel=2e-3)
    assert "masking      : YES" in an.report_text(rep)


def test_audit_absorbs_small_deficit_with_t0():
    sample = make_sample(0.3, 2.01, deficit=DeficitInjection(0.1, 1.0))
    cfg, peaks, points = pipeline_peaks(sample, 0.3, range(60, 95, 5))
    # without recalibration the data is anomalous
    raw = an.fit_roto_recoil(points, pin_e_rot=0.0, m_free=2.01)
    assert raw.classification == "anomalous"
    rep = an.calibration_audit(cfg, peaks, 2.01, free_params=("t0",))
    # t0 absorbs the deficit, but only by a shift far outside its 1 us prior,
    # so the recalibration is not a plausible explanation
    assert abs(rep.refit_mass - 2.01) / 2.01 < 0.01
    assert abs(rep.adjusted_params["t0"]) > 10.0
    assert rep.delta_sigmas["t0"] == rep.adjusted_params["t0"] / an.AUDIT_PRIOR_SIGMA["t0"]
    assert not rep.masking_flag
    text = an.report_text(rep)
    assert "masking      : no" in text
    assert f"({rep.delta_sigmas['t0']:+.4g})" in text


def test_audit_no_free_params_stays_anomalous():
    sample = make_sample(0.3, 2.01, deficit=DeficitInjection(0.1, 1.0))
    cfg, peaks, _ = pipeline_peaks(sample, 0.3, range(60, 95, 5))
    rep = an.calibration_audit(cfg, peaks, 2.01, free_params=())
    assert not rep.masking_flag
    assert rep.refit_mass < 2.01 * 0.99
    assert all(v == 0.0 for v in rep.adjusted_params.values())


def test_audit_monotone_t0_delta_in_lambda():
    deltas = []
    for lam in (0.05, 0.1, 0.2):
        sample = make_sample(0.3, 2.01, deficit=DeficitInjection(lam, 1.0))
        cfg, peaks, _ = pipeline_peaks(sample, 0.3, range(60, 95, 5))
        rep = an.calibration_audit(cfg, peaks, 2.01, free_params=("t0",))
        deltas.append(abs(rep.adjusted_params["t0"]))
    assert deltas[0] < deltas[1] < deltas[2]


def test_audit_absurd_adjustment_is_not_masking():
    # the 100-detector H2 bank at 8192 bins, Poisson seeds as in the bank_io
    # benchmark with seed 1: freeing L1 and theta comes near the assumed mass
    # only by shortening L1 by ~1.75 m (~175 sigma), theta moving ~4 sigma
    m_free, m_eff = 2.01, 0.64
    lam = 2.0 * (1.0 - math.sqrt(m_eff / m_free))
    sample = make_sample(0.3, m_free, e_rot=14.7, deficit=DeficitInjection(lam, 1.0))
    dets = tuple(DetectorGeometry(11.6, 4.0, math.radians(a))
                 for a in np.linspace(8.0, 28.0, 100))
    cfg = InstrumentConfig(BEAM, dets, recoil_tof_window(BEAM, dets, sample, 0.3,
                                                         n_bins=8192))
    peaks = []
    for d in range(len(dets)):
        seed = int(np.random.SeedSequence([1, 0, d]).generate_state(1)[0])
        spec = poisson_sample(simulate_spectrum(cfg, sample, d), 200000, seed)
        pt, _ = an.centroid_ke(an.reduce_spectrum(spec, cfg, d, poisson_errors=True))
        peaks.append((d, an.PeakFit(pt.e, 1.0, 1.0, 0.0, centroid_err=pt.sigma_e)))
    rep = an.calibration_audit(cfg, peaks, m_free, free_params=("L1", "theta"))
    assert abs(rep.refit_mass - m_free) / m_free < 0.01
    assert rep.adjusted_params["L1"] < -1.0
    assert rep.delta_sigmas["L1"] < -an.AUDIT_MAX_SIGMAS
    assert rep.delta_sigmas["theta"] > an.AUDIT_MAX_SIGMAS
    assert not rep.masking_flag


def test_audit_stderr_of_one_is_a_weight():
    # 1.0 is a stderr like any other, not the "missing" marker: it must not
    # turn the refit unweighted
    sample = make_sample(0.3, 2.01, deficit=DeficitInjection(0.1, 1.0))
    cfg, peaks, _ = pipeline_peaks(sample, 0.3, range(60, 95, 5), counts=200000, seed=2)
    refits = []
    for err in (1.0, 1.0000001):
        moved = [(peaks[0][0], replace(peaks[0][1], centroid_err=err))] + peaks[1:]
        refits.append(an.calibration_audit(cfg, moved, 2.01).refit_mass)
    assert refits[0] == pytest.approx(refits[1], rel=1e-6)


def test_audit_refit_leaves_out_a_peak_without_stderr():
    sample = make_sample(0.3, 2.01, deficit=DeficitInjection(0.1, 1.0))
    cfg, peaks, _ = pipeline_peaks(sample, 0.3, range(60, 95, 5), counts=200000, seed=2)
    blank = [(peaks[0][0], replace(peaks[0][1], centroid_err=None))] + peaks[1:]
    assert an.calibration_audit(cfg, blank, 2.01).refit_mass == \
        an.calibration_audit(cfg, peaks[1:], 2.01).refit_mass


def test_audit_underdetermined():
    sample = make_sample(0.3, 2.01)
    cfg, peaks, _ = pipeline_peaks(sample, 0.3, [60])
    with pytest.raises(Underdetermined):
        an.calibration_audit(cfg, peaks, 2.01, free_params=("t0", "L0"))


# --- ingestion ---------------------------------------------------------------------

def test_ingest_rejects_negative_counts(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text('# {"schema": 1, "detector_index": 0}\n'
                 "tof_us,counts\n100.0,5\n101.0,-2\n")
    with pytest.raises(ParseError) as err:
        an.ingest_spectrum(p)
    assert err.value.line == 4


@pytest.mark.parametrize("row", ["101.0,nan", "101.0,inf", "nan,5", "-inf,5"])
def test_ingest_rejects_non_finite_values(tmp_path, row):
    p = tmp_path / "bad.csv"
    p.write_text('# {"schema": 1, "detector_index": 0}\n'
                 f"tof_us,counts\n100.0,5\n{row}\n102.0,5\n")
    with pytest.raises(ParseError) as err:
        an.ingest_spectrum(p)
    assert err.value.line == 4


INGEST_FAULTS = [
    ("100.0,5\n\n101.0,-2\n", 5, "negative counts -2.0"),
    ("100.0,5\n   \n101.0,nan\n", 5, "non-finite value in row '101.0,nan'"),
    ("100.0,5\n#101.0,5\n102.0,5\n", 4, "non-numeric row '#101.0,5'"),
    ("100.0,5\n101.0,inf\nnot,a,row\n", 4, "non-finite value in row '101.0,inf'"),
    ("100.0,5\n101.0,x\n102.0,-1\n", 4, "non-numeric row '101.0,x'"),
    ("100.0,5\n\n101.0,5,6\n", 5, "expected 2 fields, got 3"),
    ("", 2, "need at least 2 data rows"),
    ("100.0,5\n", 3, "need at least 2 data rows"),
    ("100.0,5\n\n\n", 5, "need at least 2 data rows"),
]
INGEST_FAULT_IDS = ["blank-line", "whitespace-line", "hash-row", "first-fault-wins",
                    "malformed-first", "fields-after-blank", "no-rows", "one-row",
                    "one-row-blank-tail"]


@pytest.mark.parametrize("body, line, message", INGEST_FAULTS, ids=INGEST_FAULT_IDS)
def test_ingest_reports_line_of_first_bad_row(tmp_path, body, line, message):
    p = tmp_path / "bad.csv"
    p.write_text('# {"schema": 1, "detector_index": 0}\ntof_us,counts\n' + body)
    with pytest.raises(ParseError) as err:
        an.ingest_spectrum(p)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


@pytest.fixture
def axis_reads(monkeypatch):
    """Whether each read_table call that tried the axis fast path took it."""
    taken = []
    parse = tablefile._parse_known_axis

    def spy(*args):
        data = parse(*args)
        taken.append(data is not None)
        return data
    monkeypatch.setattr(tablefile, "_parse_known_axis", spy)
    return taken


def ingest_outcome(path):
    """ingest_spectrum's ParseError as (line, message), or the counts' bytes."""
    try:
        return an.ingest_spectrum(path).counts.tobytes()
    except ParseError as err:
        return err.line, str(err)


@pytest.mark.parametrize("body, fast", [(body, False) for body, _, _ in INGEST_FAULTS] + [
    ("100.0,5\n101.0,nan\n", True),
    ("100.0,5\n101.0,-inf\n", True),
    ("100.0,5\n101.0,-2\n", True),
    ("100.0,5\n101.0,5,6\n", False),
    ("100.0,5\n\n101.0,6\n", False),
], ids=[*INGEST_FAULT_IDS, "non-finite", "infinite", "negative-counts", "extra-field",
        "blank-line-reads"])
def test_ingest_axis_fast_path_reads_as_the_general_path(tmp_path, monkeypatch, axis_reads,
                                                         body, fast):
    """The ingest faults, on a file whose tof_bins give its TOF text: rows
    100.0, 101.0 and 102.0 take the first three bin centres as text, and a
    body of two rows or more is padded with good rows to the 16 bins.  The
    axis fast path, where it applies, reads what the general path reads."""
    bins = TofBinning(3012.3456789, 3028.9, 16)
    texts = [repr(t) for t in bins.centers.tolist()]
    text_of = dict(zip(("100.0", "101.0", "102.0"), texts))
    rows = []
    for row in body.splitlines():
        tof, comma, rest = row.partition(",")
        rows.append(text_of.get(tof, tof) + comma + rest)
    n_rows = sum(1 for row in rows if row.strip())
    if n_rows >= 2:
        rows += [f"{t},5.0" for t in texts[n_rows:]]
    meta = {"schema": 1, "detector_index": 0,
            "tof_bins": {"t_min": bins.t_min, "t_max": bins.t_max, "n_bins": 16}}
    p = tmp_path / "case.csv"
    p.write_text(f"# {json.dumps(meta)}\ntof_us,counts\n" + "".join(r + "\n" for r in rows))
    outcome = ingest_outcome(p)
    assert (True in axis_reads) == fast
    monkeypatch.setattr(an, "table_axis", lambda meta, n_rows: None)
    assert outcome == ingest_outcome(p)


def edit_row(i, field, edit):
    """An edit of a table file's text: field 0 or 1 of body row i through edit."""
    def apply(text):
        lines = text.split("\n")
        fields = lines[2 + i].split(",")
        fields[field] = edit(fields[field])
        lines[2 + i] = ",".join(fields)
        return "\n".join(lines)
    return apply


def long_text(tof):
    """tof's text with zeros appended to 25 characters: the same double."""
    assert "." in tof and "e" not in tof and len(tof) < 25
    return tof.ljust(25, "0")


@pytest.mark.parametrize("edit, fast", [
    (edit_row(5, 0, lambda t: t + "\0"), False),
    (edit_row(5, 0, lambda t: " " + t), False),
    (edit_row(5, 0, lambda t: t + " "), False),
    (edit_row(5, 0, lambda t: "\t" + t), False),
    (edit_row(5, 0, lambda t: f'"{t}"'), False),
    (edit_row(5, 0, long_text), False),
    (edit_row(15, 0, lambda t: long_text(t) + "1"), False),
    (edit_row(5, 1, lambda c: c + "\0"), False),
    (edit_row(5, 1, lambda c: c + "\x0c"), False),
    (edit_row(5, 1, lambda c: c + "\x0b"), False),
    (edit_row(5, 1, lambda c: c + "\x85"), False),
    (edit_row(5, 1, lambda c: c + "\x1f"), True),
    (edit_row(0, 1, lambda c: c + ",1"), False),
    (lambda text: text.replace("\n", "\r\n"), True),
    (lambda text: text.replace("\n", "\r"), True),
    (lambda text: text.rstrip("\n"), True),
    (lambda text: text + "\n", False),
    (lambda text: "\n".join(text.split("\n")[:2]) + "\n" * 17, False),
], ids=["tof-trailing-nul", "tof-leading-space", "tof-trailing-space", "tof-leading-tab",
        "tof-quoted", "tof-25-chars", "tof-26-chars", "count-nul", "count-form-feed",
        "count-vertical-tab", "count-nel", "count-unit-separator", "first-row-extra-field",
        "crlf", "cr", "no-final-newline", "blank-last-line", "blank-body"])
@pytest.mark.parametrize("names", [SPECTRUM_COLUMNS, cli.KE_COLUMNS], ids=["spectrum", "ke"])
def test_axis_fast_path_edge_cases_read_as_the_general_path(tmp_path, axis_reads, names,
                                                            edit, fast):
    """A spectrum or K-E table as the package writes it, one detail of its
    text changed: read_table gives the same array and line count, or the same
    ParseError, with the axis as without, and takes the fast path only where
    the text allows it."""
    bins = TofBinning(3012.3456789, 3028.9, 16)
    meta = {"schema": 1, "tof_bins": {"t_min": bins.t_min, "t_max": bins.t_max, "n_bins": 16}}
    others = np.arange(16.0) * np.array([[1.0], [-0.25], [1e-3]])[:len(names) - 1]
    others[:, :2] = np.nan   # as a K-E table's bins before the incident flight time
    p = tmp_path / "table.csv"
    tablefile.write_table(p, meta, names, (bins.centers, *others))
    p.write_text(edit(p.read_text()), newline="")

    def outcome(axis):
        try:
            _, data, n_lines = tablefile.read_table(p, names, axis=axis)
        except ParseError as err:
            return err.line, str(err)
        return data.tobytes(), n_lines
    assert outcome(table_axis) == outcome(None)
    assert (True in axis_reads) == fast


def test_axis_text_longer_than_the_longest_repr_is_refused(tmp_path, axis_reads):
    """A 24-character repr with a digit appended reads as another double; a
    bytes field of 24 would cut it back to the axis text."""
    axis = -np.arange(1.0, 17.0) * 1.2345678901234567e-100
    assert len(repr(float(axis[1]))) == 24
    p = tmp_path / "table.csv"
    tablefile.write_table(p, {"schema": 1}, SPECTRUM_COLUMNS, (axis, np.ones(16)))
    p.write_text(edit_row(1, 0, lambda t: t + "0")(p.read_text()))
    fast = tablefile.read_table(p, SPECTRUM_COLUMNS, axis=lambda meta, n_rows: axis)[1]
    assert axis_reads == [False]
    assert fast.tobytes() == tablefile.read_table(p, SPECTRUM_COLUMNS)[1].tobytes()
    assert fast[1, 0] == 0.0


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_spectrum_named_like_a_compressed_file_reads_as_text(tmp_path, axis_reads, suffix):
    """np.loadtxt would decompress such a name; the file is plain text."""
    bins = TofBinning(3012.3456789, 3028.9, 16)
    spec = Spectrum(0, bins.edges, np.arange(16.0), {"schema": 1})
    p = tmp_path / f"spectrum.csv{suffix}"
    write_spectrum_csv(spec, p)
    assert an.ingest_spectrum(p).counts.tobytes() == spec.counts.tobytes()
    assert axis_reads == [False]


def test_package_files_take_the_axis_fast_path(tmp_path, axis_reads):
    sample = make_sample(0.3, 2.01, 14.7)
    geom = DetectorGeometry(11.6, 4.0, math.radians(15.0))
    bins = recoil_tof_window(BEAM, (geom,), sample, 0.3, n_bins=512)
    cfg = InstrumentConfig(BEAM, (geom,), TofBinning(bins.t_min + 0.1234567, bins.t_max, 512))
    spec = poisson_sample(simulate_spectrum(cfg, sample, 0), 200000, 7)
    spec_path, ke_path = tmp_path / "spectrum.csv", tmp_path / "ke.csv"
    write_spectrum_csv(spec, spec_path)
    back = an.ingest_spectrum(spec_path)
    assert back.counts.tobytes() == spec.counts.tobytes()
    red = an.reduce_spectrum(back, poisson_errors=True)
    cli._write_ke_csv(red, back.metadata, ke_path)
    cli._read_ke_csv(ke_path)
    assert axis_reads == [True, True]
    for path, names in ((spec_path, SPECTRUM_COLUMNS), (ke_path, cli.KE_COLUMNS)):
        fast = tablefile.read_table(path, names, axis=table_axis)[1]
        assert fast.tobytes() == tablefile.read_table(path, names)[1].tobytes()


def test_tof_text_one_digit_off_reads_through_the_general_path(tmp_path, axis_reads):
    bins = TofBinning(3012.3456789, 3028.9, 16)
    spec = Spectrum(0, bins.edges, np.arange(16.0), {"schema": 1})
    p = tmp_path / "spectrum.csv"
    write_spectrum_csv(spec, p)
    lines = p.read_text().splitlines()
    tof, rest = lines[10].split(",")
    i = tof.index(".") + 1
    lines[10] = f"{tof[:i]}{(int(tof[i]) + 1) % 10}{tof[i + 1:]},{rest}"
    p.write_text("\n".join(lines) + "\n")
    meta, data, _ = tablefile.read_table(p, SPECTRUM_COLUMNS, axis=table_axis)
    assert axis_reads == [False]
    assert data.tobytes() == tablefile.read_table(p, SPECTRUM_COLUMNS)[1].tobytes()
    assert data[8, 0] != table_axis(meta, 16)[8]


def test_ingest_skips_blank_lines(tmp_path):
    p = tmp_path / "blank.csv"
    p.write_text('# {"schema": 1, "detector_index": 2}\ntof_us,counts\n'
                 "100.0,5\n\n  \n101.0,6\n102.0,7\n\n")
    spec = an.ingest_spectrum(p)
    assert spec.detector_index == 2
    assert spec.counts.tolist() == [5.0, 6.0, 7.0]


def test_reduce_without_instrument_metadata_names_missing_keys():
    spec = Spectrum(0, np.array([99.5, 100.5, 101.5, 102.5]), np.array([5.0, 6.0, 7.0]),
                    {"schema": 1, "detector_index": 0})
    with pytest.raises(MissingMetadata) as err:
        an.reduce_spectrum(spec)
    assert all(k in str(err.value) for k in ("beam", "detector", "tof_bins"))


def test_ingest_rejects_malformed_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text('# {"schema": 1}\ntof_us,counts\n100.0,5\nnot,a,row\n')
    with pytest.raises(ParseError) as err:
        an.ingest_spectrum(p)
    assert err.value.line == 4


def test_ingest_missing_metadata(tmp_path):
    p = tmp_path / "plain.csv"
    p.write_text("tof_us,counts\n100.0,5\n101.0,6\n102.0,7\n")
    with pytest.raises(MissingMetadata):
        an.ingest_spectrum(p)


@pytest.mark.parametrize("row, message", [
    ("1,3.0,nan,0.1", "non-finite value in row '1,3.0,nan,0.1'"),
    ("1,nan,18.0,0.1", "non-finite value in row '1,nan,18.0,0.1'"),
    ("1,3.0,18.0,inf", "non-finite value in row '1,3.0,18.0,inf'"),
    ("-1,3.0,18.0,0.1", "negative detector index -1"),
    ("1,3.0,18.0", "expected 4 fields, got 3"),
    ("1,3.0,x,0.1", "non-numeric row '1,3.0,x,0.1'"),
    ("1,3.0,18.0,0", "non-positive sigma_E 0.0"),
    ("1,3.0,18.0,-0.5", "non-positive sigma_E -0.5"),
    ("1.5,3.0,18.0,0.1", "detector index 1.5 is not an integer"),
], ids=["nan-E", "nan-K", "inf-sigma", "negative-detector", "short-row",
        "non-numeric", "zero-sigma", "negative-sigma", "fractional-detector"])
def test_centroids_csv_rejects_bad_row(tmp_path, row, message):
    path = tmp_path / "centroids.csv"
    path.write_text('# {"schema": 1}\ndetector,K,E,sigma_E\n0,2.0,8.0,0.1\n'
                    f"{row}\n2,4.0,30.0,\n")
    with pytest.raises(ParseError) as err:
        an.read_centroids_csv(path)
    assert str(err.value) == f"line 4: {message}"


def test_centroids_csv_roundtrip(tmp_path):
    recs = [(0, KEPoint(2.0, 8.0, 0.1)), (1, KEPoint(3.0, 18.0, None))]
    path = tmp_path / "centroids.csv"
    an.write_centroids_csv(recs, path, metadata={"seed": 5})
    meta, back = an.read_centroids_csv(path)
    assert meta["seed"] == 5
    assert back[0][1].k == 2.0 and back[0][1].sigma_e == 0.1
    assert back[1][1].sigma_e is None
    # a missing sigma_E goes through the file as nan; detectors are written as floats
    assert path.read_text().splitlines()[2:] == ["0.0,2.0,8.0,0.1", "1.0,3.0,18.0,nan"]


def test_centroids_csv_reads_integer_and_float_detectors(tmp_path):
    path = tmp_path / "centroids.csv"
    path.write_text('# {"schema": 1}\ndetector,K,E,sigma_E\n'
                    "0,2.0,8.0,0.1\n1.0,3.0,18.0,nan\n\n12,4.0,30.0,0.2\n")
    _, recs = an.read_centroids_csv(path)
    assert recs == [(0, KEPoint(2.0, 8.0, 0.1)), (1, KEPoint(3.0, 18.0, None)),
                    (12, KEPoint(4.0, 30.0, 0.2))]
    assert all(type(d) is int for d, _ in recs)


def test_centroids_csv_with_one_row_reads(tmp_path):
    path = tmp_path / "centroids.csv"
    an.write_centroids_csv([(3, KEPoint(2.0, 8.0, None))], path)
    assert an.read_centroids_csv(path) == ({"schema": 1}, [(3, KEPoint(2.0, 8.0, None))])


def test_centroids_csv_blank_sigma_is_a_parse_error(tmp_path):
    # files written before nan marked a missing sigma_E left it blank
    path = tmp_path / "centroids.csv"
    path.write_text('# {"schema": 1}\ndetector,K,E,sigma_E\n0,2.0,8.0,0.1\n2,4.0,30.0,\n')
    with pytest.raises(ParseError) as err:
        an.read_centroids_csv(path)
    assert str(err.value) == "line 4: non-numeric row '2,4.0,30.0,'"
