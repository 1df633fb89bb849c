"""The numpy least-squares routines against scipy's MINPACK wrappers, on the
same windows and start values: curve_fit for the Gaussian peak refinement
and least_squares(method="lm") for the calibration audit.

Both stop at MINPACK's default tolerances, so neither answer is the exact
minimum; the bounds below are set from that, not from float precision.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import wmscatter.analysis as an
from wmscatter.kinematics import DetectorGeometry, NeutronBeam
from wmscatter.qstate import gaussian_state, grid_for_gaussians
from wmscatter.spectra import (
    DeficitInjection,
    InstrumentConfig,
    SampleModel,
    poisson_sample,
    recoil_tof_window,
    simulate_spectrum,
)

optimize = pytest.importorskip("scipy.optimize")

M_FREE, E_ROT, SIGMA_P = 2.01, 14.7, 0.3
COUNTS = 200000


def h2_config(thetas_deg, n_bins):
    grid = grid_for_gaussians([0.0], [SIGMA_P])
    lam = 2.0 * (1.0 - math.sqrt(0.64 / M_FREE))
    sample = SampleModel(M_FREE, gaussian_state(grid, 0.0, SIGMA_P), E_ROT,
                         DeficitInjection(lam, 1.0))
    beam = NeutronBeam(90.0)
    dets = tuple(DetectorGeometry(11.6, 4.0, math.radians(a)) for a in thetas_deg)
    bins = recoil_tof_window(beam, dets, sample, SIGMA_P, n_bins=n_bins)
    return InstrumentConfig(beam, dets, bins), sample


def reduced_windows(thetas_deg, n_bins, replicas, seed):
    cfg, sample = h2_config(thetas_deg, n_bins)
    out = []
    for d in range(len(thetas_deg)):
        clean = simulate_spectrum(cfg, sample, d)
        for rep in range(replicas):
            noisy = poisson_sample(clean, COUNTS, seed + 1000 * rep + d)
            out.append(an.reduce_spectrum(noisy, cfg, d, poisson_errors=True))
    return cfg, out


def curve_fit_solver(fun, x0):
    """curve_fit on the same residuals, without the analytic Jacobian."""
    n = len(fun(np.asarray(x0, dtype=float))[0])
    popt, _ = optimize.curve_fit(lambda _, *p: fun(np.array(p))[0],
                                 np.zeros(n), np.zeros(n), p0=x0, maxfev=4000)
    return (popt, *fun(popt))


def least_squares_solver(fun, x0):
    res = optimize.least_squares(lambda x: fun(x)[0], x0, method="lm")
    assert res.success, res.message
    return (res.x, *fun(res.x))


def refine(red):
    """The Gaussian refinement exactly as centroid_ke runs it, with the
    chi^2-scaled stderr it gives data without count errors."""
    fit, res, jac, _ = an._refine_gaussian(red.e, np.maximum(red.intensity, 0.0), None)
    return replace(fit, centroid_err=an._centroid_stderr(res, jac))


@pytest.mark.parametrize("thetas, n_bins, replicas", [
    (range(8, 29, 2), 2048, 3),             # the Monte-Carlo bank
    (np.linspace(8.0, 28.0, 6), 8192, 1),   # wide file bank
])
def test_peak_refinement_matches_curve_fit(monkeypatch, thetas, n_bins, replicas):
    _, windows = reduced_windows(list(thetas), n_bins, replicas, seed=1)
    ours = [refine(red) for red in windows]
    monkeypatch.setattr(an, "_levenberg_marquardt", curve_fit_solver)
    ref = [refine(red) for red in windows]
    for a, b in zip(ours, ref):
        assert abs(a.centroid - b.centroid) <= 0.01 * a.centroid_err
        assert a.residual_norm**2 <= b.residual_norm**2 * (1.0 + 1e-7)
        assert a.residual_norm**2 >= b.residual_norm**2 * (1.0 - 1e-7)
        assert a.centroid_err == pytest.approx(b.centroid_err, rel=1e-2)
        assert a.width == pytest.approx(b.width, rel=1e-2)


def test_calibration_audit_matches_least_squares(monkeypatch):
    cfg, windows = reduced_windows(list(np.linspace(8.0, 28.0, 25)), 2048, 1, seed=3)
    peaks = []
    for red in windows:
        pt, _ = an.centroid_ke(red)
        peaks.append((red.detector_index,
                      an.PeakFit(pt.e, 1.0, 1.0, 0.0, centroid_err=pt.sigma_e)))
    ours = an.calibration_audit(cfg, peaks, M_FREE, ("L1", "theta"))
    monkeypatch.setattr(an, "_levenberg_marquardt", least_squares_solver)
    ref = an.calibration_audit(cfg, peaks, M_FREE, ("L1", "theta"))
    assert ours.residual_norm == pytest.approx(ref.residual_norm, rel=1e-6)
    assert ours.refit_mass == pytest.approx(ref.refit_mass, rel=1e-6)
    assert ours.masking_flag == ref.masking_flag
