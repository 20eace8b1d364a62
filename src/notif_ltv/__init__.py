"""Long-term-value send/skip policies for push notifications.

Learns how streaks of opened or ignored notifications shift a user's open
rate, solves a finite-horizon recursion for the score threshold above which
sending maximizes discounted future opens, and validates the resulting
policy against no-filter and fixed-threshold baselines in a deterministic
synthetic A/B simulator.
"""

from .behavior import (
    BehaviorModel,
    FactorTable,
    apply_kappa,
    estimate_factors,
    fit_behavior_model,
    monotone_project,
    summarize_types,
)
from .calibrate import (CalibrationMap, apply_calibration, fit_isotonic, pav, refresh,
                        score_thresholds)
from .core import (
    DEFAULT_STREAK_BOUNDS,
    USER_TYPES,
    SendLimitConfig,
    SolverConfig,
    advance_streak,
)
from .ingest import LogParseError, RecordSet, SendLog, build_dataset, read_log
from .policy import (
    NO_FILTER,
    DecisionContext,
    HeuristicThresholds,
    decide_heuristic,
    decide_no_filter,
    decide_rl,
)
from .sim import (
    BlockState,
    ExperimentReport,
    SimConfig,
    Treatment,
    TreatmentResult,
    UserBlock,
    fit_sim_calibration,
    generate_population,
    ramp_factor_table,
    run_experiment,
    simulate_pass,
    warmup_events,
)
from .solver import (
    NEVER_SEND,
    PolicyTable,
    q_send,
    solve_policy,
    state_values,
)

__version__ = "0.1.0"

__all__ = [
    "BehaviorModel", "BlockState", "CalibrationMap", "DecisionContext", "DEFAULT_STREAK_BOUNDS",
    "ExperimentReport", "FactorTable", "HeuristicThresholds",
    "LogParseError", "NEVER_SEND", "NO_FILTER",
    "PolicyTable", "RecordSet", "SendLimitConfig", "SendLog", "SimConfig",
    "SolverConfig", "Treatment", "TreatmentResult", "USER_TYPES", "UserBlock",
    "advance_streak", "apply_calibration", "apply_kappa", "build_dataset",
    "decide_heuristic", "decide_no_filter", "decide_rl",
    "estimate_factors",
    "fit_behavior_model", "fit_isotonic", "fit_sim_calibration",
    "generate_population", "monotone_project", "pav", "q_send",
    "ramp_factor_table", "read_log", "refresh", "run_experiment", "score_thresholds",
    "simulate_pass",
    "solve_policy", "state_values",
    "summarize_types", "warmup_events",
]
