"""Modular-variable observables, Bohmian trajectories, and density-matrix
dynamics for a superposition of two separated Gaussian wave packets in a
uniform gravitational field, with and without environmental friction and
diffusion.  Every closed form ships with an independent numerical oracle.
"""

from .params import (
    BathParams,
    GaussianPacket,
    ParameterError,
    PhysicalConstants,
    SuperpositionSpec,
    TimeGrid,
    TimeSeries,
    diffusion_coefficient,
    friction_drift,
    make_superposition,
    scaled_time_tau,
    validate_regime,
)
from .schrodinger import (
    BohmianTrajectory,
    DomainError,
    PacketStateS,
    bohmian_trajectory,
    bohmian_velocity,
    local_modular_on_trajectory,
    local_modular_pointwise,
    modular_expectation,
    modular_period,
    packet_amplitude,
    packet_state,
    phase_rotated_modular,
    superposed_amplitude,
    superposed_density_and_current,
    superposition_norm,
)
from .caldeira_leggett import (
    PacketStateCL,
    QuadratureError,
    cl_bohmian_trajectory,
    cl_current,
    cl_density,
    cl_local_modular_on_trajectory,
    cl_modular_closed,
    cl_modular_envelope_phase,
    cl_modular_quadrature,
    cl_packet_state,
    density_matrix_rR,
    l1_coherence,
    local_translation,
    trace_check,
)
from .two_particle import (
    CompanionState,
    EarlyTimeModel,
    StatisticsKind,
    early_time_model,
    gaussian_overlap,
    indistinguishable_norm,
    modular_indistinguishable,
    modular_mb,
    reduced_modular_common_bath,
    reduced_modular_components,
    translated_matrix_element,
)
from .oracles import (
    CLSource,
    GridPropagation,
    GridSpec,
    ResidualReport,
    SchrodingerSource,
    characteristic_modular,
    grid_propagator,
    heisenberg_rhs_check,
    l2_error,
    modular_via_momentum_grid,
    moment_ode_window,
    momentum_first_moment_translated,
    pde_residual,
    trajectory_ode_oracle,
)
from .windows import OverlapWindow, overlap_window, two_particle_window
from .config import ConfigError, RunConfig, load_config_file, parse_config_text, resolve_config
from .figures import generate_figure
from .verify import GateResult, run_suite

__version__ = "0.1.0"
