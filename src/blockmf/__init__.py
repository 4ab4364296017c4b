"""Multiclass jump processes on block-structured networks.

Exact finite-N simulation of interacting particles whose rates read
local empirical color measures, the 2rK-dimensional mean-field limit
(Runge-Kutta and fixed-point solvers), exact small-system forward
equations for cross-checking, convergence experiments, and pathwise
deviation costs with their Girsanov machinery.
"""

from .errors import (
    AssumptionViolationError,
    BlockmfError,
    CapacityError,
    InternalConsistencyError,
    InvalidArgumentError,
    InvalidConfigurationError,
    NonConvergenceError,
    NumericalBlowupError,
    NumericalError,
    UnknownEdgeError,
    ValidationError,
    WrongClassError,
)
from .experiments import (
    ConvergenceReport,
    lln_experiment,
    multichaos_test,
    proportional_family,
    sample_block_colors,
)
from .graph import (
    CENTRAL,
    PERIPHERAL,
    BlockGraph,
    ProportionTargets,
    RegularityReport,
    build_complete_peripheral,
    build_regular_peripheral,
    check_regularity,
    neighborhood_proportions,
)
from .ldp import (
    ColorPath,
    DeviationCost,
    RateFamily,
    girsanov_log_densities,
    h_functional,
    legendre_cost,
    sample_reference_path,
    tau,
    tau_star,
    variational_cost,
    variational_norm,
)
from .meanfield import (
    MeanFieldFlow,
    flow_drift,
    flow_rates,
    picard_iterate,
    solve_mckean_vlasov,
)
from .metrics import d_bl, relative_entropy
from .oracle import StateDistribution, master_equation_oracle
from .rates import (
    BlockRates,
    ColorGraph,
    RateSpec,
    as_block_rates,
    queue_spec,
    sis_spec,
)
from .rng import substream
from .scenario import Scenario, load_scenario
from .simulate import (
    EmpiricalSeries,
    LocalMeasure,
    SystemState,
    Trajectory,
    empirical_process,
    local_empirical,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionViolationError",
    "BlockmfError",
    "BlockRates",
    "BlockGraph",
    "CapacityError",
    "CENTRAL",
    "ColorGraph",
    "ColorPath",
    "ConvergenceReport",
    "DeviationCost",
    "EmpiricalSeries",
    "InternalConsistencyError",
    "InvalidArgumentError",
    "InvalidConfigurationError",
    "LocalMeasure",
    "MeanFieldFlow",
    "NonConvergenceError",
    "NumericalBlowupError",
    "NumericalError",
    "PERIPHERAL",
    "ProportionTargets",
    "RateFamily",
    "RateSpec",
    "RegularityReport",
    "Scenario",
    "StateDistribution",
    "SystemState",
    "Trajectory",
    "UnknownEdgeError",
    "ValidationError",
    "WrongClassError",
    "as_block_rates",
    "build_complete_peripheral",
    "build_regular_peripheral",
    "check_regularity",
    "d_bl",
    "empirical_process",
    "flow_drift",
    "flow_rates",
    "girsanov_log_densities",
    "h_functional",
    "legendre_cost",
    "lln_experiment",
    "load_scenario",
    "local_empirical",
    "master_equation_oracle",
    "multichaos_test",
    "neighborhood_proportions",
    "picard_iterate",
    "proportional_family",
    "queue_spec",
    "relative_entropy",
    "sample_block_colors",
    "sample_reference_path",
    "simulate",
    "sis_spec",
    "solve_mckean_vlasov",
    "substream",
    "tau",
    "tau_star",
    "variational_cost",
    "variational_norm",
]
