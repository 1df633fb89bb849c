"""TOF scattering algebra tests."""

import math

import numpy as np
import pytest

from wmscatter import constants as C
from wmscatter.errors import NonPositiveMass, NonPositiveSpeed
from wmscatter.kinematics import (
    DetectorGeometry,
    KEPoint,
    NeutronBeam,
    doppler_term,
    effective_mass_bound_check,
    energy_transfer,
    k_transfer,
    recoil_energy,
    tof,
    trajectory,
)

GEOM = DetectorGeometry(10.0, 4.0, math.radians(60.0), 0.0)


def test_tof_basic_arithmetic():
    assert tof(GEOM, 2000.0, 1000.0) == pytest.approx(9000.0, rel=1e-12)


def test_tof_elastic_limit():
    g = DetectorGeometry(10.0, 4.0, 1.0, 0.0)
    assert tof(g, 1500.0, 1500.0) == pytest.approx(14.0 / 1500.0 * 1e6)


def test_tof_offset_linearity():
    g0 = DetectorGeometry(10.0, 4.0, 1.0, 0.0)
    g1 = DetectorGeometry(10.0, 4.0, 1.0, 100.0)
    assert tof(g1, 2000.0, 900.0) - tof(g0, 2000.0, 900.0) == pytest.approx(100.0)


def test_tof_rejects_nonpositive_speed():
    with pytest.raises(NonPositiveSpeed):
        tof(GEOM, 2000.0, 0.0)


def final_speed(beam, geom, t):
    """v1 [m/s] that the trajectory kernel recovers from a TOF value."""
    valid, k1, *_ = trajectory(beam.e0, geom.l0, geom.l1, geom.theta, geom.t0, t)
    return valid, k1 * C.VEL_PER_WAVENUMBER


def test_invert_tof_inverse():
    beam = NeutronBeam(C.neutron_energy_from_speed(2000.0))
    t = tof(GEOM, beam.v0, 1000.0)
    valid, v1 = final_speed(beam, GEOM, t)
    assert valid
    assert v1 == pytest.approx(1000.0, rel=1e-12)


def test_invert_tof_singular_boundary():
    beam = NeutronBeam(25.0)
    t_edge = GEOM.t0 + GEOM.l0 / beam.v0 / C.US_S
    valid, *rest = trajectory(beam.e0, GEOM.l0, GEOM.l1, GEOM.theta, GEOM.t0, t_edge)
    assert not valid
    assert all(math.isnan(a) for a in rest)


def test_tof_roundtrip_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        geom = DetectorGeometry(rng.uniform(5, 20), rng.uniform(1, 6),
                                rng.uniform(0.1, 3.0), rng.uniform(0, 50))
        v0 = rng.uniform(500, 8000)
        v1 = rng.uniform(200, v0)
        beam = NeutronBeam(C.neutron_energy_from_speed(v0))
        t = tof(geom, beam.v0, v1)
        assert final_speed(beam, geom, t)[1] == pytest.approx(v1, rel=1e-12)


def test_energy_transfer_value_and_signs():
    # C_E * (4 - 1) with C_E = 2.0721 meV A^2 from the pinned constants
    assert energy_transfer(2.0, 1.0) == pytest.approx(3.0 * C.NEUTRON_E_COEF)
    assert energy_transfer(2.0, 1.0) == pytest.approx(6.22, abs=0.01)
    assert energy_transfer(1.7, 1.7) == 0.0
    assert energy_transfer(1.0, 2.0) == -energy_transfer(2.0, 1.0)


def test_k_transfer_special_angles():
    assert k_transfer(1.3, 1.3, math.pi / 2) == pytest.approx(1.3 * math.sqrt(2.0))
    assert k_transfer(2.0, 1.0, 0.0) == pytest.approx(1.0)
    assert k_transfer(2.0, 1.0, math.pi) == pytest.approx(3.0)


def test_k_transfer_triangle_bounds():
    rng = np.random.default_rng(11)
    for _ in range(300):
        k0, k1 = rng.uniform(0.1, 10, size=2)
        theta = rng.uniform(0, math.pi)
        kk = k_transfer(k0, k1, theta)
        assert abs(k0 - k1) - 1e-12 <= kk <= k0 + k1 + 1e-12


def test_transfer_functions_broadcast():
    rng = np.random.default_rng(5)
    k0 = rng.uniform(1.0, 8.0, 50)
    k1 = rng.uniform(0.5, 8.0, (3, 50))
    theta = rng.uniform(0.1, 3.0, (3, 1))
    v1 = rng.uniform(200.0, 4000.0, 50)
    for got, one in [
            (k_transfer(k0, k1, theta), lambda i, j: k_transfer(k0[j], k1[i, j], theta[i, 0])),
            (energy_transfer(k0, k1), lambda i, j: energy_transfer(k0[j], k1[i, j])),
            (recoil_energy(k1, 2.01), lambda i, j: recoil_energy(k1[i, j], 2.01)),
            (np.broadcast_to(tof(GEOM, 2000.0, v1), (3, 50)),
             lambda i, j: tof(GEOM, 2000.0, v1[j]))]:
        assert got.shape == (3, 50)
        assert all(got[i, j] == one(i, j) for i in range(3) for j in range(50))
    with pytest.raises(NonPositiveSpeed):
        tof(GEOM, 2000.0, np.array([1000.0, -1.0]))


def test_trajectory_needs_positive_flight_paths():
    beam = NeutronBeam(90.0)
    t = tof(GEOM, beam.v0, 1500.0)
    valid, k1, e, kk, rate = trajectory(beam.e0, np.array([10.0, -1.0, 10.0]),
                                        np.array([4.0, 4.0, 0.0]), GEOM.theta, 0.0, t)
    assert valid.tolist() == [True, False, False]
    for a in (k1, e, kk, rate):
        assert np.isfinite(a[0]) and np.isnan(a[1:]).all()
    assert k1[0] * C.VEL_PER_WAVENUMBER == pytest.approx(1500.0, rel=1e-12)


def test_recoil_energy_rotational_line():
    # K = 2.7 1/A on a free H atom: ~15.1 meV, within 5% of the measured 14.7
    e = recoil_energy(2.7, 1.0079)
    assert e == pytest.approx(15.117, abs=0.01)
    assert abs(e - 14.7) / 14.7 < 0.05


def test_recoil_energy_scaling():
    assert recoil_energy(0.0, 3.0) == 0.0
    assert recoil_energy(2.0, 4.0) == pytest.approx(recoil_energy(2.0, 2.0) / 2.0)
    with pytest.raises(NonPositiveMass):
        recoil_energy(1.0, 0.0)


def test_doppler_term():
    assert doppler_term(2.0, 0.0, 1.0) == 0.0
    assert doppler_term(2.0, 1.0, 1.0) == pytest.approx(4.0 * C.ATOM_E_COEF)
    assert doppler_term(2.0, 1.0, 1.0) == pytest.approx(8.36, abs=0.01)
    assert doppler_term(2.0, -1.5, 1.0) == -doppler_term(2.0, 1.5, 1.0)


def test_effective_mass_bound_check():
    assert effective_mass_bound_check(2.05, 2.01) == "conventional"
    assert effective_mass_bound_check(0.64, 2.01) == "anomalous"
    assert effective_mass_bound_check(0.94, 1.0079) == "anomalous"


def test_unit_constants_cross_check():
    # the 2.072 meV A^2 and 3956/lambda rules must agree to 0.1%
    assert abs(C.NEUTRON_E_COEF - 2.072) / 2.072 < 1e-3
    assert abs(C.VEL_WAVELENGTH_COEF - 3956.0) / 3956.0 < 1e-3
    beam = NeutronBeam(25.0)
    v_from_lambda = C.VEL_WAVELENGTH_COEF / beam.wavelength
    assert abs(beam.v0 - v_from_lambda) / beam.v0 < 1e-3


def test_kepoint_invariant():
    with pytest.raises(ValueError):
        KEPoint(-1.0, 5.0)
