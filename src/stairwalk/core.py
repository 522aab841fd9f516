"""State space, flattening bijection, target weights, and shared constants.

The state space is the "stair"

    X = {(x, y) in N x N : x = y or x = y + 1},

with an unnormalized target weight w(x, y) = y^-2 on it.  Every other module
builds on the bijection between stair states and their flattened distance
from the corner (1, 1):

    (x, x)     <->  s = 2(x - 1)   (even, "diagonal")
    (x, x - 1) <->  s = 2x - 3     (odd,  "sub-diagonal")

Arithmetic is duck-typed: exact values (`int`, `Fraction`) stay exact, floats
stay floats.  Weights are kept unnormalized; only ratios are ever used.

This module imports only the standard library.  It also holds what every
layer and the CLI share about the process: `usable_cpus` and
`ResourceBudgetError`, so that the CLI can catch the budget error, and the
writers can count CPUs, without loading a numpy layer, and `GENERATOR_ID`,
the Monte Carlo generator's name, so that `--metadata` loads no simulator.
`_check_law`, which checks a three-point law's masses, lives here too, so
that `domination` builds its Z_i law, and the gain schedules their drifts,
without loading the numpy kernel.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import NamedTuple, Union

Number = Union[int, float, Fraction]

PAPER_LITERAL = "paper-literal"
USER_DESIGNED = "user-designed"
GENERATOR_ID = "philox4x64(key=[replication, base_seed])"


class OffStairError(ValueError):
    """A proposal or state falls outside the stair."""


class StairState(NamedTuple):
    """A point (x, y) on the stair; x = y (diagonal) or x = y + 1."""

    x: int
    y: int

    @property
    def diagonal(self) -> bool:
        return self.x == self.y


def require_stair_state(state: StairState) -> StairState:
    """Validate stair membership; raise OffStairError otherwise."""
    x, y = state
    if y < 1 or x < 1 or x - y not in (0, 1):
        raise OffStairError(f"({x}, {y}) is not on the stair")
    return StairState(x, y)


# A flattened position is just the nonnegative distance from (1, 1).
FlatPosition = int


def flatten(state: StairState) -> FlatPosition:
    """Distance from (1, 1) along the stair: 2(x-1) if diagonal, else 2x-3."""
    x, y = require_stair_state(state)
    return 2 * (x - 1) if x == y else 2 * x - 3


def unflatten(s: FlatPosition) -> StairState:
    """Inverse of :func:`flatten`."""
    if s < 0:
        raise ValueError(f"flat position must be >= 0, got {s}")
    if s % 2 == 0:
        x = s // 2 + 1
        return StairState(x, x)
    x = (s + 3) // 2
    return StairState(x, x - 1)


def forward_neighbor(state: StairState) -> StairState:
    """One step away from (1, 1): (x,x) -> (x+1,x); (x,x-1) -> (x,x)."""
    x, y = require_stair_state(state)
    return StairState(x + 1, x) if x == y else StairState(x, x)


def backward_neighbor(state: StairState) -> StairState | None:
    """One step toward (1, 1), or None for the off-stair proposal at (1, 1)."""
    x, y = require_stair_state(state)
    if x == y:
        return StairState(x, x - 1) if x > 1 else None
    return StairState(x - 1, x - 1)


def weight(j: int) -> Fraction:
    """Unnormalized target weight j^-2 of any state at level y = j."""
    if j < 1:
        raise OffStairError(f"level must be >= 1, got {j}")
    return Fraction(1, j * j)


def acceptance_ratio(frm: StairState, to: StairState) -> Fraction:
    """Metropolis acceptance w(to) / (w(to) + w(frm)) for an adjacent move.

    The backward proposal from (1, 1) targets the off-stair point (1, 0);
    that raises OffStairError and the caller must treat the move as rejected
    (the flattened down-probability at s = 0 is defined to be 0).
    """
    require_stair_state(frm)
    if to == (1, 0):
        raise OffStairError("proposal (1, 0) is off the stair; move is rejected")
    require_stair_state(to)
    if to not in (forward_neighbor(frm), backward_neighbor(frm)):
        raise ValueError(f"{to} is not adjacent to {frm} on the stair")
    w_to, w_frm = weight(to.y), weight(frm.y)
    return w_to / (w_to + w_frm)


_SUM_TOL = 1e-15


def _check_law(*parts: Number):
    """Raise a ValueError unless the masses of a law lie in [0, 1] and sum,
    in the order given, to 1: exactly if all are exact, else within _SUM_TOL."""
    for p in parts:
        if not 0 <= p <= 1:  # also rejects NaN
            raise ValueError(f"component {p} outside [0, 1]")
    total = sum(parts)
    exact = all(isinstance(p, (int, Fraction)) for p in parts)
    if (exact and total != 1) or (not exact and abs(total - 1) > _SUM_TOL):
        raise ValueError(f"components sum to {total}, not 1")


# ======================================================================
# Constants profile
# ======================================================================

_MODES = (PAPER_LITERAL, USER_DESIGNED)


@dataclass(frozen=True)
class ConstantsProfile:
    """All hard-coded numeric constants of the construction, parameterized.

    drift_floor     per-step drift the concentration sizing relies on
    drift_target    drift the per-phase adaptation value a_i is solved for
    slack           the +/- slack carved out of the dominated step law
    a_offset        amount subtracted from the solved a_i
    overshoot       per-phase height gain absorbed by worst-case losses
    hoeffding_K     exponent parameter of the concentration bound
    phase1_a        adaptation value during phase 1 (must be 8)
    phase1_up_floor uniform lower bound on the phase-1 up-probability
    schedule_mode   "paper-literal" or "user-designed"

    Exact fields (Fraction/int) keep downstream computation exact; float
    fields make everything float.  See :func:`paper_profile` and
    :func:`scaled_profile`.
    """

    drift_floor: Number
    drift_target: Number
    slack: Number
    a_offset: Number
    overshoot: Number
    hoeffding_K: int
    phase1_a: Number = 8
    phase1_up_floor: Number = field(default_factory=lambda: Fraction(1, 5))
    schedule_mode: str = PAPER_LITERAL

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"profile field {f.name!r} must be finite: {value}")
        if self.drift_floor <= 0:
            raise ValueError("drift_floor must be > 0")
        if self.slack < 0:
            raise ValueError("slack must be >= 0")
        if not self.drift_floor + 2 * self.slack < self.drift_target:
            raise ValueError("need drift_floor + 2*slack < drift_target")
        if self.overshoot <= 0:
            raise ValueError("overshoot must be > 0")
        if not (isinstance(self.hoeffding_K, int) and self.hoeffding_K >= 1):
            raise ValueError("hoeffding_K must be an integer >= 1")
        if not self.phase1_a >= 8:
            raise ValueError("phase1_a must be >= 8")
        if not 0 <= self.phase1_up_floor <= 1:
            raise ValueError("phase1_up_floor must be a probability")
        if self.schedule_mode not in _MODES:
            raise ValueError(f"schedule_mode must be one of {_MODES}")

    def with_mode(self, mode: str) -> "ConstantsProfile":
        return replace(self, schedule_mode=mode)

    def to_json(self) -> str:
        return json.dumps(
            {f.name: _encode_number(getattr(self, f.name)) for f in fields(self)},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ConstantsProfile":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("profile must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown profile fields: {sorted(unknown)}")
        missing = known - set(data)
        if missing:
            raise ValueError(f"missing profile fields: {sorted(missing)}")
        kinds = {"hoeffding_K": int, "schedule_mode": str}  # the rest are numbers
        return cls(**{k: _field(data, k, kinds.get(k, _NUMBER), "profile") for k in data})


def _encode_number(v):
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return v


def _decode_number(v):
    if isinstance(v, str) and "/" in v:
        num, den = v.split("/")
        return Fraction(int(num), int(den))
    return v


_NUMBER = (int, float, Fraction)


def _field(doc, key: str, kind, where: str = "schedule"):
    """doc[key] checked against `kind`; numbers may be "p/q" strings.

    Raises ValueError naming the key when it is missing or mistyped.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    if key not in doc:
        raise ValueError(f"{where} is missing key {key!r}")
    value = doc[key]
    if kind is _NUMBER and isinstance(value, str):
        try:
            value = _decode_number(value)
        except (ValueError, ZeroDivisionError):
            pass
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{where} key {key!r} has the wrong type: {doc[key]!r}")
    return value


def paper_profile() -> ConstantsProfile:
    """The original hard-coded constants, as exact rationals."""
    return ConstantsProfile(
        drift_floor=Fraction(1, 100),
        drift_target=Fraction(1, 10),
        slack=Fraction(1, 10000),
        a_offset=Fraction(1, 1000),
        overshoot=4,
        hoeffding_K=1,
        phase1_a=8,
        phase1_up_floor=Fraction(1, 5),
        schedule_mode=PAPER_LITERAL,
    )


def scaled_profile(
    drift_floor: float = 0.4,
    drift_target: float = 0.45,
    slack: float = 1e-5,
    a_offset: float = 1e-3,
    overshoot: float = 4.0,
    hoeffding_K: int = 1,
    schedule_mode: str = PAPER_LITERAL,
) -> ConstantsProfile:
    """A reparameterization that keeps desk-scale Monte Carlo tractable.

    The defaults give M = 146 and a phase-1 length of a few hundred steps
    instead of the original ~5e5, while exercising identical code paths.
    """
    return ConstantsProfile(
        drift_floor=drift_floor,
        drift_target=drift_target,
        slack=slack,
        a_offset=a_offset,
        overshoot=overshoot,
        hoeffding_K=hoeffding_K,
        schedule_mode=schedule_mode,
    )


# ======================================================================
# Process resources
# ======================================================================


class ResourceBudgetError(RuntimeError):
    """Requested horizon exceeds the configured memory/time budget."""


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
