"""Photon-pair emission from a superluminal index perturbation in a dispersive medium."""

from .dispersion import (
    C_M_S,
    C_UM_S,
    ConstantIndex,
    DispersionError,
    DispersionModel,
    LorentzianResonance,
    NegativeRadicandError,
    NumericalError,
    PoleProximityError,
    SellmeierModel,
    fast_light_resonance,
    refractive_index,
)
from .materials import (
    UnknownMaterialError,
    available_materials,
    get_material,
    model_from_dict,
    model_to_dict,
)
from .kinematics import (
    KinematicsError,
    MultipleRootsWarning,
    NoSignChangeError,
    PerturbationKinematics,
    PhotonMode,
    solve_partner,
)
from .emission import (
    DEFAULT_CALIBRATION,
    EmissionConfig,
    EmissionError,
    GaussianProfile,
    PairDensityGrid,
    TanhProfile,
    collinear_grid,
    density_gaussian,
    density_tanh,
)
from .analysis import (
    FAST_LIGHT_AMPLITUDE,
    FAST_LIGHT_WIDTH_UM,
    EmissionMaximum,
    FastLightStudy,
    NoEmissionError,
    QuadratureNotConvergedError,
    SweepResult,
    TotalCount,
    beta_sweep,
    constraint_density,
    count_peaks,
    fast_light_study,
    find_maximum,
    total_count,
)

__version__ = "0.1.0"
