"""Physical constants and unit conversions used throughout the package.

Working units: momenta in hbar*1/Angstrom (so P/hbar is a wavenumber in
1/Angstrom), energies in meV, masses in a.m.u., flight times in microseconds,
flight paths in meters, angles in radians.

All derived conversion factors below are computed once from the pinned CODATA
2018 inputs so that every module shares the same numbers.
"""

import math

# --- pinned CODATA 2018 inputs -------------------------------------------
PLANCK_H_JS = 6.62607015e-34          # J*s, exact (2019 SI)
HBAR_JS = PLANCK_H_JS / (2.0 * math.pi)
NEUTRON_MASS_KG = 1.67492749804e-27   # CODATA 2018
AMU_KG = 1.66053906660e-27            # CODATA 2018
EV_J = 1.602176634e-19                # J, exact (2019 SI)

MEV_J = 1e-3 * EV_J                   # 1 meV in J
ANGSTROM_M = 1e-10
FEMTOMETER_M = 1e-15
US_S = 1e-6                           # 1 microsecond in s

# --- derived coefficients --------------------------------------------------
# E[meV] = NEUTRON_E_COEF * k[1/A]^2 for a free neutron (hbar^2/2m_n)
NEUTRON_E_COEF = HBAR_JS**2 / (2.0 * NEUTRON_MASS_KG) / (MEV_J * ANGSTROM_M**2)

# recoil E[meV] = ATOM_E_COEF * K[1/A]^2 / M[amu]  (hbar^2/2u)
ATOM_E_COEF = HBAR_JS**2 / (2.0 * AMU_KG) / (MEV_J * ANGSTROM_M**2)

# neutron speed [m/s] per unit wavenumber [1/A]: v = hbar k / m_n
VEL_PER_WAVENUMBER = HBAR_JS / (NEUTRON_MASS_KG * ANGSTROM_M)

# v[m/s] = VEL_WAVELENGTH_COEF / lambda[A]  (the classic 3956/lambda rule)
VEL_WAVELENGTH_COEF = PLANCK_H_JS / (NEUTRON_MASS_KG * ANGSTROM_M)

# v[m/s] = sqrt(VEL_SQ_PER_MEV * E[meV]) for a free neutron
VEL_SQ_PER_MEV = 2.0 * MEV_J / NEUTRON_MASS_KG


def neutron_wavenumber(energy_mev):
    """Neutron wavenumber k [1/A] for kinetic energy in meV."""
    if energy_mev < 0:
        raise ValueError("neutron energy must be nonnegative")
    return math.sqrt(energy_mev / NEUTRON_E_COEF)


def neutron_speed(energy_mev):
    """Neutron speed [m/s] for kinetic energy in meV."""
    if energy_mev < 0:
        raise ValueError("neutron energy must be nonnegative")
    return math.sqrt(VEL_SQ_PER_MEV * energy_mev)


def neutron_energy_from_speed(v_ms):
    """Neutron kinetic energy [meV] from speed in m/s."""
    return v_ms**2 / VEL_SQ_PER_MEV


def constants_table():
    """All pinned and derived constants as a flat dict (for JSON audit dumps)."""
    return {
        "planck_h_Js": PLANCK_H_JS,
        "hbar_Js": HBAR_JS,
        "neutron_mass_kg": NEUTRON_MASS_KG,
        "amu_kg": AMU_KG,
        "eV_J": EV_J,
        "meV_J": MEV_J,
        "angstrom_m": ANGSTROM_M,
        "femtometer_m": FEMTOMETER_M,
        "neutron_E_coef_meV_A2": NEUTRON_E_COEF,
        "atom_E_coef_meV_A2": ATOM_E_COEF,
        "vel_per_wavenumber_ms_per_invA": VEL_PER_WAVENUMBER,
        "vel_wavelength_coef_ms_A": VEL_WAVELENGTH_COEF,
        "vel_sq_per_meV_m2s2": VEL_SQ_PER_MEV,
        "source": "CODATA 2018 (h, e exact per 2019 SI redefinition)",
    }
