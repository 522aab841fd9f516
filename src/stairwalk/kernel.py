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

The vectorized float law is split in two: `step_geometry` holds what
depends only on the positions (parity, height x, D and (x-1)^2, the
origin), and `flat_step_probs_on` is the one a-dependent expression on such
a geometry.  `flat_step_probs_at(s, a)` composes the two; the simulator's
rule segments build the geometry once per walk and evaluate the expression
on its head at every step, with the same bits.

`StepDistribution` checks its masses with `core._check_law`, which is
imported here under the same name; it lives in `core` so that
`domination`'s Z_i law can run it without loading this numpy module.
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
    _check_law,
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

@dataclass(frozen=True)
class StepDistribution:
    """Three-point law on {-1, 0, +1}."""

    p_down: Number
    p_stay: Number
    p_up: Number

    def __post_init__(self):
        _check_law(self.p_down, self.p_stay, self.p_up)

    @property
    def drift(self) -> Number:
        return self.p_up - self.p_down

    def as_tuple(self):
        return (self.p_down, self.p_stay, self.p_up)


def _check_a(a: Number) -> Number:
    if not a >= 8:  # also rejects NaN
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


# mismatches listed per variant; the rest are only counted
_MISMATCH_CAP = 100


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


def kernel_equivalence_check(x_max: int, a_values: Iterable[Number]) -> EquivalenceReport:
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
                    if len(mismatches) < _MISMATCH_CAP:
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


def monotonicity_violation(x_max: int) -> int | None:
    """First x in [1, x_max) where the height ratio (x-1)^2/D of the up step
    fails to increase strictly, or x^2/D of the down step to decrease, with
    D = x^2 + (x-1)^2; or None.  Both cross-multiplied differences expand to
    2x^2 - 1 (the x^4 and x^3 terms cancel), exact in int64 for x < 2^31."""
    if x_max > 2**31:
        raise ValueError(f"x_max must be <= 2**31, got {x_max}")
    x = np.arange(1, x_max, dtype=np.int64)
    bad = np.flatnonzero(2 * x * x - 1 <= 0)
    return int(x[bad[0]]) if bad.size else None


# ======================================================================
# Vectorized float kernels (simulation / dynamic programming)
# ======================================================================


def step_geometry(s: np.ndarray) -> tuple[np.ndarray, ...]:
    """The a-free part of the flat step law at an int array of positions:
    (s even, x, D = x^2 + (x-1)^2, (x-1)^2, s == 0), x, D and (x-1)^2 as
    float64.  Slicing every entry alike gives the geometry of that slice
    of the positions."""
    s = np.asarray(s)
    even = s % 2 == 0
    x = np.where(even, s // 2 + 1, (s + 3) // 2).astype(np.float64)
    x1_sq = (x - 1.0) ** 2
    return even, x, x * x + x1_sq, x1_sq, s == 0


def flat_step_probs_on(geometry: Sequence[np.ndarray], a: float
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(p_down, p_up) as float64 arrays on a `step_geometry`: the one float
    expression of the flat step law.  `a` is a float, or a float array with
    one entry per position."""
    even, x, d, x1_sq, origin = geometry
    p_down = np.where(even, (0.5 - 4.0 / a) * x * x / d, 0.25 - 2.0 / a)
    p_up = np.where(even, 0.25 + 2.0 / a, (0.5 + 4.0 / a) * x1_sq / d)
    p_down = np.where(origin, 0.0, p_down)
    return p_down, p_up


def flat_step_probs_at(s: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray]:
    """(p_down, p_up) as float64 arrays for an int array of flat positions."""
    return flat_step_probs_on(step_geometry(s), a)


def _inverse_cdf(u: np.ndarray, p_down, up_from) -> np.ndarray:
    """Map uniforms through the CDF of the atoms -1 < 0 < +1 with
    P(-1) = p_down and P(+1) = p_up, given as up_from = 1.0 - p_up.

    The increments are int8, the two compares' bool results viewed as 0/1
    bytes: a cast to a wider int would cost more than the compares."""
    return (u >= up_from).view(np.int8) - (u < p_down).view(np.int8)


def step_prob_tables(s_max: int, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Dense (p_down, p_up) lookup tables for s in [0, s_max]."""
    if not a >= 8:
        raise ValueError(f"adaptation value must satisfy a >= 8, got {a}")
    return flat_step_probs_at(np.arange(s_max + 1, dtype=np.int64), float(a))
