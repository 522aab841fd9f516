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

Importing the package loads this file alone.  `_EXPORTS` names each public
name's defining module, and the module-level `__getattr__` (PEP 562) imports
that module on the first access to one of its names, so a program pays only
for the layers it uses.  Names are looked up on the defining module at every
access, not cached here, so a name rebound there is the one the package
gives.
"""

import importlib

__version__ = "0.1.0"

# public name -> defining module, grouped by module
_EXPORTS = {
    "bounds": (
        "BoundValue", "divergence_lower_bound", "hoeffding_tail", "phase_success_bound",
        "product_limit_check", "true_mean_phase_bound",
    ),
    "core": (
        "ConstantsProfile", "OffStairError", "ResourceBudgetError", "StairState",
        "acceptance_ratio", "backward_neighbor", "flatten", "forward_neighbor",
        "paper_profile", "scaled_profile", "unflatten", "weight",
    ),
    "domination": ("ZDistribution", "coupled_sample_many", "mean_z", "z_distribution"),
    "kernel": (
        "DEFINITION_LITERAL", "LEMMA_CONSISTENT", "StepDistribution",
        "flat_step_distribution", "kernel_equivalence_check", "stair_step_distribution",
    ),
    "oracle": ("TransientLaw", "event_probability", "law_at", "transient_law"),
    "schedule": (
        "FeasibilityReport", "PhaseSchedule", "build_paper_schedule",
        "check_schedule_feasibility", "concentration_gain", "find_M", "find_M0",
        "log_growth_schedule", "steady_drift_schedule", "user_schedule",
    ),
    "simulator": (
        "ControlSummary", "ExperimentResult", "PhaseStats", "Trajectory",
        "final_positions", "replication_seed", "run_control", "run_coupled_check",
        "run_experiment", "run_replication", "wilson_interval",
    ),
    "verifier": ("AuditReport", "ClaimResult", "audit_all", "audit_single"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
