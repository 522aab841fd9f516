"""Exact transient law of the flattened walk by forward dynamic programming.

Starting from S_0 = 0 with probability 1, the law at step n+1 follows from
the law at step n by one application of the flattened step kernel under the
schedule's in-force adaptation value, so the full distribution at any finite
horizon is computable to floating (or, for short horizons, exact rational)
precision.  This is the independent ground truth the Monte Carlo engine is
validated against.

One engine, `_transient`, serves both arithmetics with the same three-term
array update.  It walks the schedule's phase segments, which alone decide
which a holds at each step, and reads (p_down, p_up) from one table per
distinct a: float64 from `step_prob_tables`, or Fractions from
`flat_step_distribution` in object arrays.

Mass is deliberately never renormalized: the per-step defect stays
observable and is reported by TransientLaw.mass_defect; `tail_probability`
rejects a float law whose defect is past tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator

import numpy as np

from .kernel import flat_step_distribution, step_prob_tables

FLOAT = "float"
RATIONAL = "rational"

DEFAULT_HORIZON_BUDGET = 20_000
RATIONAL_HORIZON_LIMIT = 64  # denominators grow multiplicatively past this

_FLOAT_DEFECT_TOL = 1e-12


class ResourceBudgetError(RuntimeError):
    """Requested horizon exceeds the configured memory/time budget."""


@dataclass
class TransientLaw:
    """Distribution of S_n; mass[s] = P(S_n = s) for s in [0, n]."""

    n: int
    mass: np.ndarray | list

    def total(self):
        if isinstance(self.mass, np.ndarray):
            return float(self.mass.sum())
        return sum(self.mass)

    def mass_defect(self) -> float:
        return abs(float(self.total()) - 1.0)

    def prob_greater(self, threshold, strict: bool = True):
        """P(S_n > threshold) (strict) or P(S_n >= threshold)."""
        if isinstance(self.mass, np.ndarray):
            s = np.arange(len(self.mass))
            sel = s > threshold if strict else s >= threshold
            return float(self.mass[sel].sum())
        acc = Fraction(0)
        for s, p in enumerate(self.mass):
            if (s > threshold) if strict else (s >= threshold):
                acc += p
        return acc

    def cdf(self) -> np.ndarray:
        return np.cumsum(np.asarray(self.mass, dtype=np.float64))


def transient_law(
    horizon: int,
    schedule,
    arithmetic: str = FLOAT,
    horizon_budget: int = DEFAULT_HORIZON_BUDGET,
) -> Iterator[TransientLaw]:
    """Yield the law of S_n for n = 0, 1, ..., horizon.

    Float mode runs in O(horizon^2) time and O(horizon) memory; rational
    mode is exact but limited to horizon <= 64.  Validation, of the horizon
    against the schedule too, is eager; the recursion itself is lazy.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if horizon > horizon_budget:
        raise ResourceBudgetError(
            f"horizon {horizon} exceeds the budget of {horizon_budget} steps; "
            "raise horizon_budget explicitly or use a scaled profile"
        )
    if arithmetic == RATIONAL:
        if horizon > RATIONAL_HORIZON_LIMIT:
            raise ResourceBudgetError(
                f"rational mode supports horizon <= {RATIONAL_HORIZON_LIMIT}"
            )
    elif arithmetic != FLOAT:
        raise ValueError(f"arithmetic must be {FLOAT!r} or {RATIONAL!r}")
    return _transient(horizon, schedule.segments(horizon), arithmetic == RATIONAL)


def _step_table(s_max: int, a, exact: bool) -> tuple[np.ndarray, np.ndarray]:
    """(p_down, p_up) for s in [0, s_max]: Fractions in object arrays when
    exact, float64 otherwise."""
    if not exact:
        return step_prob_tables(s_max, a)
    laws = [flat_step_distribution(s, a) for s in range(s_max + 1)]
    return (np.array([law.p_down for law in laws], dtype=object),
            np.array([law.p_up for law in laws], dtype=object))


def _transient(horizon: int, segments, exact: bool) -> Iterator[TransientLaw]:
    mass = np.array([Fraction(1) if exact else 1.0], dtype=object if exact else np.float64)
    yield TransientLaw(n=0, mass=mass.tolist() if exact else mass.copy())
    tables = {}
    for steps, a in segments:
        a = Fraction(a) if exact else float(a)
        if a not in tables:
            tables[a] = _step_table(horizon, a, exact)
        p_down, p_up = tables[a]
        for _ in range(steps):
            width = len(mass)
            new = np.zeros(width + 1, dtype=mass.dtype)
            new[:width] = mass * (1 - p_down[:width] - p_up[:width])
            new[1:] += mass * p_up[:width]
            new[:-2] += (mass * p_down[:width])[1:]
            mass = new
            yield TransientLaw(n=width, mass=mass.tolist() if exact else mass.copy())


def law_at(
    horizon: int,
    schedule,
    arithmetic: str = FLOAT,
    horizon_budget: int = DEFAULT_HORIZON_BUDGET,
) -> TransientLaw:
    """The law of S_horizon only (still O(horizon^2) work, O(horizon) memory)."""
    law = None
    for law in transient_law(horizon, schedule, arithmetic, horizon_budget):
        pass
    return law


def tail_probability(law: TransientLaw, threshold, strict: bool = True):
    """P(S_n > threshold) (or >= with strict=False) from the law of S_n.

    A float law whose mass has drifted past _FLOAT_DEFECT_TOL raises
    ArithmeticError; otherwise its tail sum is clamped to [0, 1].
    """
    if not isinstance(law.mass, np.ndarray):
        return law.prob_greater(threshold, strict=strict)
    defect = law.mass_defect()
    if defect > _FLOAT_DEFECT_TOL:
        raise ArithmeticError(
            f"transient mass drifted by {defect:.3e}; horizon too deep "
            "for float mode"
        )
    # defect-sized noise can push a tail sum just past the endpoints
    return min(1.0, max(0.0, law.prob_greater(threshold, strict=strict)))


def event_probability(
    horizon: int,
    schedule,
    threshold,
    strict: bool = True,
    arithmetic: str = FLOAT,
    horizon_budget: int = DEFAULT_HORIZON_BUDGET,
):
    """P(S_horizon > threshold) (or >= with strict=False), exactly from the DP."""
    return tail_probability(law_at(horizon, schedule, arithmetic, horizon_budget),
                            threshold, strict=strict)


def phase_ends(schedule, horizon: int) -> set[int]:
    """The phase ends N_i <= horizon: the cumulative step counts of the
    schedule's segments, less a last one that cuts its phase."""
    ends = accumulate(steps for steps, _ in schedule.segments(horizon))
    return {n for i, n in enumerate(ends, 1) if n == schedule.N(i)}


def law_csv_rows(laws: Iterable[TransientLaw], boundaries: set[int] | None = None):
    """(n, s, mass) rows for every law, or only for those whose n is in
    `boundaries`; zero masses are left out."""
    yield ("n", "s", "mass")
    for law in laws:
        if boundaries is not None and law.n not in boundaries:
            continue
        for s, p in enumerate(law.mass):
            p = float(p)
            if p != 0.0:
                yield (law.n, s, p)
