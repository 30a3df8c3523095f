"""Sensor selection and LQG control co-design.

Solve finite-horizon LQG problems where the sensor set is part of the
design: pick sensors under a budget to minimize the achievable control
cost, or pick the cheapest sensors that keep the cost under a cap.  Greedy
sweeps come with computable near-optimality certificates driven by the
supermodularity ratio of the sensing objective.
"""

from ._linalg import NumericalError
from .analysis import (
    BoundHypotheses,
    CertificateRecord,
    RatioReport,
    RatioWitness,
    budget_certificate,
    exact_supermodularity_ratio,
    mincost_certificate,
    ratio_lower_bound,
    ratio_report,
)
from .kalman import (
    CovarianceTrajectory,
    ObjectiveCache,
    cost_offset,
    propagate_covariance,
    sensing_objective,
    whiten_sensor,
)
from .model import (
    LqgWeights,
    LtvSystem,
    Scenario,
    Sensor,
    SensorSuite,
    ValidationError,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    set_cost,
    stack_sensors,
)
from .riccati import (
    RiccatiSolution,
    cascade_identity_residual,
    solve_riccati,
    theta_sum_positive_definite,
    zero_control_suboptimal,
)
from .selection import (
    CandidateRecord,
    InfeasibleError,
    IterationRecord,
    SelectionReport,
    baseline_logdet,
    baseline_random,
    evaluate_set,
    greedy_budget,
    greedy_mincost,
    oracle_budget,
    oracle_mincost,
)
from .simulate import (
    MonteCarloSummary,
    SimulationRecord,
    build_formation_scenario,
    build_uav_scenario,
    monte_carlo,
    monte_carlo_many,
    run_closed_loop,
)

__version__ = "0.1.0"

__all__ = [
    "BoundHypotheses",
    "CandidateRecord",
    "CertificateRecord",
    "CovarianceTrajectory",
    "InfeasibleError",
    "IterationRecord",
    "LqgWeights",
    "LtvSystem",
    "MonteCarloSummary",
    "NumericalError",
    "ObjectiveCache",
    "RatioReport",
    "RatioWitness",
    "RiccatiSolution",
    "Scenario",
    "SelectionReport",
    "Sensor",
    "SensorSuite",
    "SimulationRecord",
    "ValidationError",
    "baseline_logdet",
    "baseline_random",
    "budget_certificate",
    "build_formation_scenario",
    "build_uav_scenario",
    "cascade_identity_residual",
    "cost_offset",
    "evaluate_set",
    "exact_supermodularity_ratio",
    "greedy_budget",
    "greedy_mincost",
    "load_scenario",
    "mincost_certificate",
    "monte_carlo",
    "monte_carlo_many",
    "oracle_budget",
    "oracle_mincost",
    "propagate_covariance",
    "ratio_lower_bound",
    "ratio_report",
    "run_closed_loop",
    "save_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "sensing_objective",
    "set_cost",
    "solve_riccati",
    "stack_sensors",
    "theta_sum_positive_definite",
    "whiten_sensor",
    "zero_control_suboptimal",
]
