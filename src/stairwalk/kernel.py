"""One-step transition laws for the stair walk and its flattened image.

Two descriptions of the same walk are implemented side by side:

* the 2D law on the stair, built from a direction choice (probabilities
  1/2 -+ 4/a) composed with the Metropolis acceptance ratio, and
* the flattened three-point law of S_{n+1} - S_n on {-1, 0, +1}.

The 2D description comes in two variants because the source construction is
ambiguous for sub-diagonal states: ``lemma-consistent`` assigns the backward
direction probability 1/2 - 4/a for both state types (this is what the
flattened law and everything downstream require, and is the default
everywhere); ``definition-literal`` gives the backward direction 1/2 + 4/a
on sub-diagonal states, as the prose of the walk's definition reads.
`kernel_equivalence_check` verifies the first variant matches the flattened
law exactly and records how the second one differs.

Exact arithmetic: pass `a` as int/Fraction and every probability comes out
a Fraction; pass a float and everything is float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .core import (
    FlatPosition,
    Number,
    StairState,
    acceptance_ratio,
    backward_neighbor,
    flatten,
    forward_neighbor,
    require_stair_state,
    unflatten,
)

LEMMA_CONSISTENT = "lemma-consistent"
DEFINITION_LITERAL = "definition-literal"
VARIANTS = (LEMMA_CONSISTENT, DEFINITION_LITERAL)

_SUM_TOL = 1e-15


@dataclass(frozen=True)
class StepDistribution:
    """Three-point law on {-1, 0, +1}."""

    p_down: Number
    p_stay: Number
    p_up: Number

    def __post_init__(self):
        parts = (self.p_down, self.p_stay, self.p_up)
        for p in parts:
            if p < 0 or p > 1:
                raise ValueError(f"component {p} outside [0, 1]")
        total = self.p_down + self.p_stay + self.p_up
        exact = all(isinstance(p, (int, Fraction)) for p in parts)
        if (exact and total != 1) or (not exact and abs(total - 1) > _SUM_TOL):
            raise ValueError(f"components sum to {total}, not 1")

    @property
    def drift(self) -> Number:
        return self.p_up - self.p_down

    def as_tuple(self):
        return (self.p_down, self.p_stay, self.p_up)


def _check_a(a: Number) -> Number:
    if a < 8:
        raise ValueError(f"adaptation value must satisfy a >= 8, got {a}")
    # ints promote to Fraction so that division stays exact
    return Fraction(a) if isinstance(a, int) else a


def flat_step_distribution(s: FlatPosition, a: Number) -> StepDistribution:
    """Law of the flattened increment from position s under adaptation a.

    Even s (diagonal state, x = s/2 + 1, D = x^2 + (x-1)^2):
        p_down = (1/2 - 4/a) x^2 / D     (0 at s = 0: boundary rejection)
        p_up   = 1/4 + 2/a
    Odd s (sub-diagonal, x = (s+3)/2):
        p_down = 1/4 - 2/a
        p_up   = (1/2 + 4/a) (x-1)^2 / D
    """
    if s < 0:
        raise ValueError(f"flat position must be >= 0, got {s}")
    a = _check_a(a)
    if s % 2 == 0:
        x = s // 2 + 1
        d = x * x + (x - 1) * (x - 1)
        p_down = 0 * a if s == 0 else (a - 8) / (2 * a) * (x * x) / d
        p_up = (a + 8) / (4 * a)
    else:
        x = (s + 3) // 2
        d = x * x + (x - 1) * (x - 1)
        p_down = (a - 8) / (4 * a)
        p_up = (a + 8) / (2 * a) * ((x - 1) * (x - 1)) / d
    return StepDistribution(p_down, 1 - p_down - p_up, p_up)


def stair_step_distribution(
    state: StairState, a: Number, variant: str = LEMMA_CONSISTENT
) -> dict[StairState, Number]:
    """Full one-step law on {backward neighbor, self, forward neighbor}.

    Off-stair backward proposals (only possible at (1, 1)) are rejected and
    their mass stays on the current state.
    """
    state = require_stair_state(state)
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    a = _check_a(a)
    minus, plus = (a - 8) / (2 * a), (a + 8) / (2 * a)
    if state.diagonal or variant == LEMMA_CONSISTENT:
        dir_back, dir_fwd = minus, plus
    else:
        dir_back, dir_fwd = plus, minus

    law: dict[StairState, Number] = {}
    fwd = forward_neighbor(state)
    p_fwd = dir_fwd * acceptance_ratio(state, fwd)
    back = backward_neighbor(state)
    p_back = dir_back * acceptance_ratio(state, back) if back is not None else 0 * a
    if back is not None:
        law[back] = p_back
    law[state] = 1 - p_back - p_fwd
    law[fwd] = p_fwd
    return law


# ======================================================================
# Equivalence of the two descriptions
# ======================================================================


@dataclass
class VariantResult:
    variant: str
    states_checked: int
    mismatch_count: int
    mismatches: list  # [{state, a, expected, got}], capped
    truncated: bool

    def to_jsonable(self) -> dict:
        return {
            "variant": self.variant,
            "states_checked": self.states_checked,
            "mismatch_count": self.mismatch_count,
            "truncated": self.truncated,
            "mismatches": self.mismatches,
        }


@dataclass
class EquivalenceReport:
    x_max: int
    a_values: list[str]
    results: list[VariantResult]

    def result(self, variant: str) -> VariantResult:
        return next(r for r in self.results if r.variant == variant)

    def to_jsonable(self) -> dict:
        return {
            "x_max": self.x_max,
            "a_values": self.a_values,
            "results": [r.to_jsonable() for r in self.results],
        }


def kernel_equivalence_check(
    x_max: int, a_values: Iterable[Number], mismatch_cap: int = 100
) -> EquivalenceReport:
    """Compare the flattened image of the 2D law against the flat law, exactly.

    Runs every state with x <= x_max (both parities) against every a, in
    rational arithmetic, for both variants.  The lemma-consistent variant is
    expected to agree everywhere; the definition-literal one to disagree on
    sub-diagonal states.
    """
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    a_list = [_check_a(Fraction(a) if not isinstance(a, Fraction) else a) for a in a_values]
    states = [StairState(x, x) for x in range(1, x_max + 1)]
    states += [StairState(x, x - 1) for x in range(2, x_max + 1)]

    results = []
    for variant in VARIANTS:
        mismatches = []
        count = 0
        for a in a_list:
            for st in states:
                s = flatten(st)
                flat = flat_step_distribution(s, a)
                law2d = stair_step_distribution(st, a, variant)
                image = {flatten(t): p for t, p in law2d.items()}
                got = (image.get(s - 1, 0), image.get(s, 0), image.get(s + 1, 0))
                if got != flat.as_tuple():
                    count += 1
                    if len(mismatches) < mismatch_cap:
                        mismatches.append(
                            {
                                "state": list(st),
                                "a": str(a),
                                "expected": [str(p) for p in flat.as_tuple()],
                                "got": [str(p) for p in got],
                            }
                        )
        results.append(
            VariantResult(
                variant=variant,
                states_checked=len(states) * len(a_list),
                mismatch_count=count,
                mismatches=mismatches,
                truncated=count > len(mismatches),
            )
        )
    return EquivalenceReport(
        x_max=x_max, a_values=[str(a) for a in a_list], results=results
    )


# ======================================================================
# Height-ratio monotonicity
# ======================================================================


def g_up(x: int) -> Fraction:
    """(x-1)^2 / (x^2 + (x-1)^2); strictly increasing for x >= 1."""
    return Fraction((x - 1) ** 2, x * x + (x - 1) ** 2)


def g_down(x: int) -> Fraction:
    """x^2 / (x^2 + (x-1)^2); strictly decreasing for x >= 1."""
    return Fraction(x * x, x * x + (x - 1) ** 2)


def monotonicity_violation(x_max: int) -> int | None:
    """First x in [1, x_max) where g_up fails to increase or g_down to
    decrease strictly, or None.  Both cross-multiplied differences expand
    to 2x^2 - 1 (the x^4 and x^3 terms cancel), exact in int64 for x < 2^31."""
    if x_max > 2**31:
        raise ValueError(f"x_max must be <= 2**31, got {x_max}")
    x = np.arange(1, x_max, dtype=np.int64)
    bad = np.flatnonzero(2 * x * x - 1 <= 0)
    return int(x[bad[0]]) if bad.size else None


# ======================================================================
# Vectorized float kernels (simulation / dynamic programming)
# ======================================================================


def flat_step_probs_at(s: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray]:
    """(p_down, p_up) as float64 arrays for an int array of flat positions."""
    s = np.asarray(s)
    even = s % 2 == 0
    x = np.where(even, s // 2 + 1, (s + 3) // 2).astype(np.float64)
    d = x * x + (x - 1.0) ** 2
    p_down = np.where(even, (0.5 - 4.0 / a) * x * x / d, 0.25 - 2.0 / a)
    p_up = np.where(even, 0.25 + 2.0 / a, (0.5 + 4.0 / a) * (x - 1.0) ** 2 / d)
    p_down = np.where(s == 0, 0.0, p_down)
    return p_down, p_up


def _inverse_cdf(u: np.ndarray, p_down, up_from) -> np.ndarray:
    """Map uniforms through the CDF of the atoms -1 < 0 < +1 with
    P(-1) = p_down and P(+1) = p_up, given as up_from = 1.0 - p_up."""
    return np.subtract(u >= up_from, u < p_down, dtype=np.int64)


def step_prob_tables(s_max: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense (p_down, p_up) lookup tables for s in [0, s_max]."""
    if a < 8:
        raise ValueError(f"adaptation value must satisfy a >= 8, got {a}")
    return flat_step_probs_at(np.arange(s_max + 1, dtype=np.int64), float(a))
