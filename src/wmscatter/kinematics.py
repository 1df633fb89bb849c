"""Exact algebra of time-of-flight two-body scattering.

Flight paths in meters, times in microseconds, energies in meV, wavenumbers
in 1/Angstrom, masses in a.m.u., angles in radians (degrees only at the CLI
boundary).  The TOF and transfer functions broadcast over numpy arrays;
trajectory is the one TOF -> (k1, E, K, dE/dt) map of the simulator, the
reducer and the calibration audit.  All functions are stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import constants as C
from .errors import NonPositiveMass, NonPositiveSpeed


@dataclass(frozen=True)
class NeutronBeam:
    """Monochromatic incident beam fixed by its energy E0 in meV."""

    e0: float

    def __post_init__(self):
        if self.e0 <= 0:
            raise ValueError("E0 must be positive")

    @property
    def k0(self):
        """Incident wavenumber [1/A]."""
        return C.neutron_wavenumber(self.e0)

    @property
    def v0(self):
        """Incident speed [m/s]."""
        return C.neutron_speed(self.e0)

    @property
    def wavelength(self):
        """de Broglie wavelength [A]."""
        return 2.0 * math.pi / self.k0


@dataclass(frozen=True)
class DetectorGeometry:
    """One detector: flight paths L0 (source-sample) and L1 (sample-detector)
    in meters, scattering angle theta in radians, electronic offset t0 in us."""

    l0: float
    l1: float
    theta: float
    t0: float = 0.0

    def __post_init__(self):
        if self.l0 <= 0 or self.l1 <= 0:
            raise ValueError("flight paths must be positive")
        if not 0 < self.theta < math.pi:
            raise ValueError("theta must lie in (0, pi)")


@dataclass(frozen=True)
class KEPoint:
    """One (momentum transfer, energy transfer) point, optionally with an
    energy uncertainty for weighted fits."""

    k: float
    e: float
    sigma_e: float | None = None

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("K must be nonnegative")


def tof(geom: DetectorGeometry, v0, v1):
    """Total time-of-flight L0/v0 + L1/v1 + t0 in microseconds; v1 = inf gives
    the incident neutron's arrival time."""
    if np.any(np.less_equal(v0, 0)) or np.any(np.less_equal(v1, 0)):
        raise NonPositiveSpeed("speeds must be positive")
    return (geom.l0 / v0 + geom.l1 / v1) / C.US_S + geom.t0


def energy_transfer(k0, k1):
    """Neutron energy loss hbar*omega = C_E (k0^2 - k1^2) in meV."""
    return C.NEUTRON_E_COEF * (k0**2 - k1**2)


def k_transfer(k0, k1, theta):
    """Momentum-transfer magnitude K = sqrt(k0^2 + k1^2 - 2 k0 k1 cos theta)."""
    return np.sqrt(np.maximum(k0**2 + k1**2 - 2.0 * k0 * k1 * np.cos(theta), 0.0))


def energy_rate(k1, t_leg):
    """|dE/dt| = 2 C_E k1^2 / t_leg [meV/us], t_leg the scattered flight time."""
    return 2.0 * C.NEUTRON_E_COEF * k1**2 / t_leg


def trajectory(e0: float, l0, l1, theta, t0, t):
    """(valid, k1, E, K, dE/dt) at TOF t [us] for incident energy e0 [meV].

    All but the scalar e0 broadcast: (n_det, 1) geometry against (n_bins,) t
    gives (n_det, n_bins) arrays.  valid needs positive flight paths and a TOF
    after the incident arrival; k1, E, K and dE/dt are nan elsewhere."""
    v0 = C.neutron_speed(e0)
    k0 = C.neutron_wavenumber(e0)
    remain_us = (t - t0) - l0 / v0 / C.US_S
    valid = (remain_us > 0) & (np.greater(l0, 0) & np.greater(l1, 0))
    safe = np.where(valid, remain_us, np.nan)
    k1 = l1 / (safe * C.US_S) / C.VEL_PER_WAVENUMBER
    return (valid, k1, energy_transfer(k0, k1), k_transfer(k0, k1, theta),
            energy_rate(k1, safe))


def recoil_energy(k, mass_amu: float):
    """Free recoil energy (hbar K)^2 / 2M = C_A K^2 / M in meV."""
    if mass_amu <= 0:
        raise NonPositiveMass("mass must be positive")
    return C.ATOM_E_COEF * k**2 / mass_amu


def doppler_term(k: float, p_par: float, mass_amu: float) -> float:
    """Doppler energy hbar K P_par / M in meV (P_par in hbar/A)."""
    if mass_amu <= 0:
        raise NonPositiveMass("mass must be positive")
    return 2.0 * C.ATOM_E_COEF * k * p_par / mass_amu


def effective_mass_bound_check(m_eff: float, m_free: float) -> str:
    """'conventional' iff M_eff >= M_free (binding can only add mass);
    'anomalous' otherwise."""
    if m_eff <= 0 or m_free <= 0:
        raise NonPositiveMass("masses must be positive")
    return "conventional" if m_eff >= m_free else "anomalous"
