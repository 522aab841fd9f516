"""stairwalk: simulator, bound calculator, and claim auditor for a
state- and time-dependent random walk on a staircase state space.

The walk lives on {(x, y): x = y or x = y + 1} with target weights y^-2 and
per-step direction probabilities 1/2 -+ 4/a_n.  Flattened to its distance
from (1, 1) it becomes a three-point walk on the nonnegative integers whose
behavior is governed by how fast the schedule a_n grows; this package
constructs the phase schedules, verifies the supporting inequalities
mechanically, computes certified lower bounds on the probability that every
phase event holds, and measures the same quantities by exact dynamic
programming and seeded Monte Carlo.
"""

from .bounds import (
    BoundValue,
    divergence_lower_bound,
    hoeffding_tail,
    phase_success_bound,
    product_limit_check,
    true_mean_phase_bound,
)
from .core import (
    ConstantsProfile,
    OffStairError,
    StairState,
    acceptance_ratio,
    backward_neighbor,
    flatten,
    forward_neighbor,
    paper_profile,
    scaled_profile,
    unflatten,
    weight,
)
from .domination import (
    ZDistribution,
    coupled_sample_many,
    mean_z,
    z_distribution,
)
from .kernel import (
    DEFINITION_LITERAL,
    LEMMA_CONSISTENT,
    StepDistribution,
    flat_step_distribution,
    kernel_equivalence_check,
    stair_step_distribution,
)
from .oracle import (
    ResourceBudgetError,
    TransientLaw,
    event_probability,
    law_at,
    transient_law,
)
from .schedule import (
    FeasibilityReport,
    PhaseSchedule,
    build_paper_schedule,
    check_schedule_feasibility,
    concentration_gain,
    find_M,
    find_M0,
    log_growth_schedule,
    steady_drift_schedule,
    user_schedule,
)
from .simulator import (
    ControlSummary,
    ExperimentResult,
    PhaseStats,
    Trajectory,
    final_positions,
    replication_seed,
    run_control,
    run_coupled_check,
    run_experiment,
    run_replication,
    wilson_interval,
)
from .verifier import AuditReport, ClaimResult, audit_all, audit_single

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BoundValue",
    "ClaimResult",
    "ConstantsProfile",
    "ControlSummary",
    "DEFINITION_LITERAL",
    "ExperimentResult",
    "FeasibilityReport",
    "LEMMA_CONSISTENT",
    "OffStairError",
    "PhaseSchedule",
    "PhaseStats",
    "ResourceBudgetError",
    "StairState",
    "StepDistribution",
    "Trajectory",
    "TransientLaw",
    "ZDistribution",
    "acceptance_ratio",
    "audit_all",
    "audit_single",
    "backward_neighbor",
    "build_paper_schedule",
    "check_schedule_feasibility",
    "concentration_gain",
    "coupled_sample_many",
    "divergence_lower_bound",
    "event_probability",
    "final_positions",
    "find_M",
    "find_M0",
    "flat_step_distribution",
    "flatten",
    "forward_neighbor",
    "hoeffding_tail",
    "kernel_equivalence_check",
    "law_at",
    "log_growth_schedule",
    "mean_z",
    "paper_profile",
    "phase_success_bound",
    "product_limit_check",
    "replication_seed",
    "run_control",
    "run_coupled_check",
    "run_experiment",
    "run_replication",
    "scaled_profile",
    "stair_step_distribution",
    "steady_drift_schedule",
    "transient_law",
    "true_mean_phase_bound",
    "unflatten",
    "user_schedule",
    "weight",
    "wilson_interval",
    "z_distribution",
]
