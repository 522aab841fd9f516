"""Exact transient law of the flattened walk by forward dynamic programming.

Starting from S_0 = 0 with probability 1, the law at step n+1 follows from
the law at step n by one application of the flattened step kernel under the
schedule's in-force adaptation value, so the full distribution at any finite
horizon is computable to floating (or, for short horizons, exact rational)
precision.  This is the independent ground truth the Monte Carlo engine is
validated against.

One engine, `_transient`, serves both arithmetics with the same three-term
update, done in place: two preallocated buffers of horizon + 2 entries
(float64, or Fractions in object arrays) swap each step, and a third holds
the products.  The update runs only over a window [0, top + block] of the
buffers, where top bounds the law's nonzero entries at the start of a block
of steps: one step in exact mode, up to 64 in float mode, whose slice views
are built once per block.  The support grows by at most one entry per step,
so within a block it stays inside the window; the entries above it are +0.0
and add only +0.0.  Where the top falls between blocks, the stale entries
above the next window are cleared.  In float mode (1/2)^n underflows after
about 1075 steps, so the top of the law is exactly 0.0 and the window stops
growing; every entry outside it would have come out exactly +0.0 anyway, so
the laws are bit for bit those of the full-width update.  The engine walks
the schedule's phase segments, which alone decide which a holds at each
step, and builds (p_down, p_up, stay) once per segment, only as far as the
window can reach within it: float64 from `step_prob_tables`, or Fractions
from `flat_step_distribution`.  A law is copied out only at the steps asked
for.

Mass is deliberately never renormalized: the per-step defect stays
observable and is reported by TransientLaw.mass_defect; `tail_probability`
rejects a float law whose defect is past tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Container, Iterator

import numpy as np

from .core import ResourceBudgetError
from .kernel import flat_step_distribution, step_prob_tables

FLOAT = "float"
RATIONAL = "rational"

DEFAULT_HORIZON_BUDGET = 20_000
RATIONAL_HORIZON_LIMIT = 64  # denominators grow multiplicatively past this

_FLOAT_DEFECT_TOL = 1e-12


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
    steps: Container[int] | None = None,
) -> Iterator[TransientLaw]:
    """Yield the law of S_n for n = 0, 1, ..., horizon, or only for the n in
    `steps`; each law is its own copy.

    Float mode runs in O(horizon * support) time and O(horizon) memory;
    rational mode is exact but limited to horizon <= 64.  Validation, of the
    horizon against the schedule too, is eager; the recursion itself is lazy.
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
    return _transient(horizon, schedule.segments(horizon), arithmetic == RATIONAL, steps)


def _step_tables(s_max: int, a, exact: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p_down, p_up, stay) for s in [0, s_max]: Fractions in object arrays
    when exact, float64 otherwise."""
    if exact:
        laws = [flat_step_distribution(s, a) for s in range(s_max + 1)]
        p_down = np.array([law.p_down for law in laws], dtype=object)
        p_up = np.array([law.p_up for law in laws], dtype=object)
    else:
        p_down, p_up = step_prob_tables(s_max, a)
    return p_down, p_up, 1 - p_down - p_up


_BLOCK = 64  # float steps per window


def _transient(horizon: int, segments, exact: bool,
               steps: Container[int] | None) -> Iterator[TransientLaw]:
    zero, one = (Fraction(0), Fraction(1)) if exact else (0.0, 1.0)
    cur, nxt, prod = (np.full(horizon + 2, zero, dtype=object if exact else np.float64)
                      for _ in range(3))
    cur[0] = one
    top, stale = 0, 0  # bounds on the nonzero entries of cur and of nxt
    n = 0
    if steps is None or n in steps:
        yield _copy_law(n, cur, exact)
    for count, a in segments:
        # the support grows by at most one entry per step
        p_down, p_up, stay = _step_tables(top + count, Fraction(a) if exact else float(a), exact)
        left = count
        while left:
            # one window [0, w] for the whole block: within it the support
            # stays below w, and the entries above it are +0.0 and add +0.0
            block = 1 if exact else min(_BLOCK, left)
            left -= block
            w = top + block
            nxt[w + 1:stale + 1] = zero
            views = [(buf[:w], buf[1:w], buf[1:w + 1], buf[:w - 1]) for buf in (cur, nxt)]
            s, u, d, pu, pd = stay[:w], p_up[:w], p_down[1:w], prod[:w], prod[:w - 1]
            for _ in range(block):
                # stay, then up, then down, as the full-width update adds them
                (c, c1, _, _), (x, _, x1, xd) = views
                np.multiply(c, s, out=x)
                nxt[w] = zero
                np.multiply(c, u, out=pu)
                np.add(x1, pu, out=x1)
                np.multiply(c1, d, out=pd)
                np.add(xd, pd, out=xd)
                cur, nxt = nxt, cur
                views.reverse()
                n += 1
                if steps is None or n in steps:
                    yield _copy_law(n, cur, exact)
            # after one step nxt is the old cur; after two, it was written too
            stale = w if block > 1 else top
            top = w
            while top and cur[top] == 0:
                top -= 1
        del p_down, p_up, stay  # before the next segment's tables are built


def _copy_law(n: int, buf: np.ndarray, exact: bool) -> TransientLaw:
    """The law of S_n held in the first n + 1 entries of a DP buffer."""
    return TransientLaw(n=n, mass=buf[:n + 1].tolist() if exact else buf[:n + 1].copy())


def law_at(
    horizon: int,
    schedule,
    arithmetic: str = FLOAT,
    horizon_budget: int = DEFAULT_HORIZON_BUDGET,
) -> TransientLaw:
    """The law of S_horizon only (O(horizon * support) work, O(horizon) memory)."""
    (law,) = transient_law(horizon, schedule, arithmetic, horizon_budget, steps={horizon})
    return law


def tail_probability(law: TransientLaw, threshold, strict: bool = True):
    """P(S_n > threshold) (or >= with strict=False) from the law of S_n.

    A float law whose mass has drifted past _FLOAT_DEFECT_TOL raises
    ArithmeticError; otherwise its tail sum is clamped to [0, 1].
    """
    if not isinstance(law.mass, np.ndarray):
        return law.prob_greater(threshold, strict=strict)
    defect = law.mass_defect()
    if not defect <= _FLOAT_DEFECT_TOL:  # a NaN defect fails too
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
    """The phase ends N_i <= horizon, up to the schedule's last phase."""
    ends, i = set(), 1
    while (schedule.n_phases is None or i <= schedule.n_phases) and schedule.N(i) <= horizon:
        ends.add(schedule.N(i))
        i += 1
    return ends
