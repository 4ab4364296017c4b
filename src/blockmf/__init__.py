"""Multiclass jump processes on block-structured networks.

Exact finite-N simulation of interacting particles whose rates read
local empirical color measures, the 2rK-dimensional mean-field limit
(Runge-Kutta and fixed-point solvers), exact small-system forward
equations for cross-checking, convergence experiments, and pathwise
deviation costs with their Girsanov machinery.

Importing the package loads only the simulator and what it reads (the
graph, the rates, the tables and the streams). Every other public name
loads its module at its first use, so `blockmf.d_bl` imports
`blockmf.metrics` when it is first read, and `numpy.random` loads at the
first random stream.
"""

import importlib

# `simulate` is both a function and the submodule that defines it. Loading
# a submodule for the first time binds it as an attribute of the package,
# so a lazy `simulate` would turn into the module the first time anything
# imported `blockmf.simulate`. It is imported here, before anything else
# can load that submodule.
from .simulate import simulate

__version__ = "0.1.0"

# module -> the public names it defines; each module loads at the first
# access to one of its names
_EXPORTS = {
    "errors": (
        "AssumptionViolationError", "BlockmfError", "CapacityError",
        "InternalConsistencyError", "InvalidArgumentError",
        "InvalidConfigurationError", "NonConvergenceError",
        "NumericalBlowupError", "NumericalError", "UnknownEdgeError",
        "ValidationError", "WrongClassError",
    ),
    "experiments": (
        "ConvergenceReport", "lln_experiment", "multichaos_test",
        "proportional_family",
    ),
    "graph": (
        "CENTRAL", "PERIPHERAL", "BlockGraph", "ProportionTargets",
        "RegularityReport", "build_complete_peripheral",
        "build_regular_peripheral", "check_regularity",
        "neighborhood_proportions",
    ),
    "ldp": (
        "ColorPath", "DeviationCost", "girsanov_log_densities",
        "h_functional", "legendre_cost", "sample_reference_path", "tau",
        "tau_star", "variational_cost", "variational_norm",
    ),
    "meanfield": (
        "MeanFieldFlow", "flow_drift", "flow_rates", "picard_iterate",
        "solve_mckean_vlasov",
    ),
    "metrics": ("d_bl", "relative_entropy"),
    "oracle": ("StateDistribution", "master_equation_oracle"),
    "rates": (
        "BlockRates", "ColorGraph", "RateSpec", "as_block_rates",
        "queue_spec", "sis_spec",
    ),
    "rng": ("substream",),
    "scenario": ("Scenario", "load_scenario"),
    "simulate": (
        "EmpiricalSeries", "LocalMeasure", "SystemState", "Trajectory",
        "empirical_process", "local_empirical", "sample_block_colors",
        "simulate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
