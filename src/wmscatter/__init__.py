"""wmscatter: weak-value momentum-transfer deficits in impulsive scattering.

A numerical toolkit built around three stages:

* weak values of atomic momentum under pre/post-selection and the resulting
  pointer-level momentum-transfer deficit (qstate, weakval);
* a forward time-of-flight instrument model with impulse-approximation
  lineshapes and optional deficit injection (kinematics, spectra);
* the inverse problem of recovering effective masses and deficit fractions
  from spectra, including the calibration-masking audit (analysis).

The `wmscatter` console script exposes the batch pipeline.
"""

from . import analysis, constants, kinematics, qstate, spectra, weakval
from .analysis import (
    CalibrationReport,
    MassFitResult,
    PeakFit,
    calibration_audit,
    centroid_ke,
    deficit_report,
    fit_roto_recoil,
    ingest_spectrum,
    reduce_spectrum,
)
from .kinematics import (
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
from .qstate import (
    MixedState,
    MomentumGrid,
    WaveFunction,
    expectation_p,
    gaussian_state,
    grid_for_gaussians,
)
from .spectra import (
    DeficitInjection,
    InstrumentConfig,
    SampleModel,
    Spectrum,
    TofBinning,
    arcs_like_instrument,
    momentum_density,
    poisson_sample,
    s_ia,
    simulate_spectrum,
    write_spectrum_csv,
)
from .weakval import (
    CouplingModel,
    WeakValueResult,
    deficit_sweep,
    momentum_deficit,
    pointer_momentum_shift,
    scenario,
    scenario_record,
    total_momentum_transfer,
    weak_value,
    weak_value_mixed,
    weakness_estimate,
)

__version__ = "0.1.0"
