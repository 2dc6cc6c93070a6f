"""Spectral mild-solution engine for semilinear evolution equations.

The state lives in a spectral truncation of a Hilbert space X, the
dynamics are dx/dt = A x + B2 f(x, u) + B u with a C0-semigroup generator
A and an input operator B that may only act into the extrapolation space
X_{-1}.  The solver certifies every Picard window before trusting it, and
the flow_props / bcs / admissibility modules turn the structural theory
(admissibility classes, representation identities, flow-map properties)
into executable checks.
"""

from .core import (
    InputSignal,
    KinfFunction,
    Nonlinearity,
    SpectralState,
    signal_sup_distance,
    stack_channels,
)
from .semigroup import (
    SEMIGROUP_FAMILIES,
    DenseGenerator,
    DiagonalSemigroup,
    heat_dirichlet_semigroup,
    phi1,
    phi2,
)
from .admissibility import (
    AdmissibilityEstimate,
    Bounded,
    InputOperator,
    QAdmissible,
    SmoothClass,
    c_constant,
    convolve,
    estimate_admissibility,
    measure_h,
    upper_bound_h,
)
from .solver import (
    EvolutionSystem,
    PolySignal,
    SolverConfig,
    Status,
    Trajectory,
    WindowDiagnostics,
    global_bound,
    select_step,
    solve,
    solve_analytic,
    trajectory_diagnostics_json,
    trajectory_to_csv,
)
from .nonlinearities import (
    LOCAL_TERM_BUILDERS,
    NONLINEARITY_BUILDERS,
    LocalTerm,
    make_local_term,
    make_nonlinearity,
    zero_nonlinearity,
)
from .flow_props import (
    PropertyReport,
    check_axioms,
    check_brs,
    check_cep,
    check_continuous_dependence,
    check_deviation,
    cocycle_residual,
    deviation_suite,
    format_reports,
    reports_to_json,
    saturated_system,
)
from .burgers import BurgersSystem, SineBasis
from .bcs import (
    BCS_FAMILIES,
    BoundaryControlSystem,
    CrosscheckReport,
    class_octave_ratio,
    dirichlet_heat_0_pi,
    make_input_operator,
    representation_crosscheck,
)
from .scenario import ScenarioError, load_scenario, run_scenario

__version__ = "0.1.0"
