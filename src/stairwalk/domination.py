"""Dominated i.i.d. step variables and the monotone coupling that realizes
their stochastic ordering.

For phase i >= 2 the three-point variable Z_i with masses

    c_i = (1/2 - 4/a_i) i^2/D_i + slack        on -1
    b_i = (1/2 + 4/a_i) (i-1)^2/D_i - slack    on +1
    D_i = i^2 + (i-1)^2

is stochastically below every in-phase flattened step taken from height
x >= i: its CDF sits above the step law's at both atoms because
x^2/D_x decreases and (x-1)^2/D_x increases in x, with the +-slack giving
strict margin.  `coupled_sample_many` realizes the ordering constructively:
both variables are inverse-CDF transforms of one uniform draw with atoms
ordered -1 < 0 < 1, so the step dominates the Z value pathwise, draw by
draw.  `_margins` gives both margins over a range of heights; the audit's
C5 reads it at x = i.

`_z_ratio` is the one formula for Z_i in both arithmetics: it gives c_i and
b_i as integers over one positive denominator, exact when a_i and the slack
are exact (ints are promoted), the exact ratios of the float masses
otherwise.  Its exact form is `_c_b_ratio`, which takes a_i as an integer
ratio (P, Q), then `_with_slack`; the audit's per-phase record and the
feasibility check call those two on the schedule's (P, Q) column directly,
with no Fraction per phase.  `z_distribution` reads `_z_ratio`.
`dominated_drift`, and so `mean_z`, reads it in exact arithmetic and takes
b_i - c_i from `_c_b`'s float masses otherwise.

Only `_margins` and `coupled_sample_many` work on arrays, and they import
numpy and the kernel's array functions when called.  Everything else here,
`ZDistribution` included (its law check is `core._check_law`), is stdlib
only, so the gain schedules, which read `dominated_drift`, are built without
loading numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .core import Number, _check_law

if TYPE_CHECKING:
    import numpy as np

    from .kernel import StepDistribution


@dataclass(frozen=True)
class ZDistribution:
    """Three-point law on {-1, 0, +1} dominated by in-phase steps at x >= i."""

    i: int
    c: Number     # mass at -1
    b: Number     # mass at +1
    stay: Number  # mass at 0

    def __post_init__(self):
        _check_phase(self.i)
        _check_law(self.c, self.b, self.stay)

    @property
    def mean(self) -> Number:
        return self.b - self.c


def _check_phase(i: int):
    if i < 2:
        raise ValueError("Z is only defined for phases i >= 2")


def _is_float(a: Number, slack: Number) -> bool:
    """Whether Z_i at (a, slack) is taken in float arithmetic; ints and
    Fractions keep it exact."""
    return isinstance(a, float) or isinstance(slack, float)


def _c_b(i: int, a: Number, slack: Number) -> tuple[float, float]:
    """c_i and b_i in float arithmetic (the exact form is `_z_ratio`).  An
    int a is promoted, so that it divides exactly before the float slack
    is added."""
    if isinstance(a, int):
        a = Fraction(a)
    d = i * i + (i - 1) * (i - 1)
    c = (a - 8) / (2 * a) * (i * i) / d + slack
    b = (a + 8) / (2 * a) * ((i - 1) * (i - 1)) / d - slack
    return c, b


def _c_b_ratio(i: int, a: tuple[int, int]) -> tuple[int, int, int]:
    """Exact (c, b, den) with den > 0, c_i = c/den and b_i = b/den at zero
    slack, so that (b - c)/den is C2's left side.

    a is a_i as integers (P, Q) with Q > 0, in any scale.  Both masses are
    taken over the common denominator 2 P D_i with no normalisation:

        c = (P - 8Q) i^2        b = (P + 8Q) (i-1)^2
    """
    p, q = a
    if p == 0:
        raise ZeroDivisionError(f"a_{i} = 0")
    c, b = (p - 8 * q) * (i * i), (p + 8 * q) * ((i - 1) * (i - 1))
    den = 2 * p * (i * i + (i - 1) * (i - 1))
    return (c, b, den) if den > 0 else (-c, -b, -den)


def _with_slack(law: tuple[int, int, int], slack: Number) -> tuple[int, int, int]:
    """`_c_b_ratio`'s (c, b, den) shifted by an exact slack: c_i + slack and
    b_i - slack over the denominator den times the slack's."""
    c, b, den = law
    sn, sd = slack.as_integer_ratio()
    return c * sd + sn * den, b * sd - sn * den, den * sd


def _z_ratio(i: int, a: Number, slack: Number) -> tuple[int, int, int]:
    """(c, b, den) of Z_i at (a, slack), with den > 0, c_i = c/den and
    b_i = b/den.

    This is the one formula for Z_i.  When a and the slack are exact the
    masses are exact; otherwise they are `_c_b`'s float masses, taken by
    their exact integer ratios over one denominator, so that c/den and
    b/den give back those floats.
    """
    if _is_float(a, slack):
        (c, c_den), (b, b_den) = (m.as_integer_ratio() for m in _c_b(i, a, slack))
        den = math.lcm(c_den, b_den)
        return c * (den // c_den), b * (den // b_den), den
    return _with_slack(_c_b_ratio(i, a.as_integer_ratio()), slack)


def dominated_drift(i: int, a: Number, slack: Number) -> Number:
    """Mean b_i - c_i of the dominated step variable, without building it:
    exact when a and the slack are, in float otherwise."""
    if _is_float(a, slack):
        c, b = _c_b(i, a, slack)
        return b - c
    c, b, den = _z_ratio(i, a, slack)
    return Fraction(b - c, den)


def z_distribution(i: int, schedule) -> ZDistribution:
    """The dominated step variable of phase i under the given schedule."""
    _check_phase(i)
    a, slack = schedule.a_of_phase(i), schedule.profile.slack
    c, b, den = _z_ratio(i, a, slack)
    c, b = (c / den, b / den) if _is_float(a, slack) else (Fraction(c, den), Fraction(b, den))
    return ZDistribution(i=i, c=c, b=b, stay=1 - c - b)


def mean_z(i: int, schedule) -> Number:
    """E(Z_i) = b_i - c_i in the schedule's arithmetic."""
    _check_phase(i)
    return dominated_drift(i, schedule.a_of_phase(i), schedule.profile.slack)


def _margins(c, b, a, x: np.ndarray):
    """(x, c_margins, b_margins) of the law (c, b) against the flattened
    steps at a from the heights x, as float arrays over both parities.

    Rows alternate (x diagonal, x sub-diagonal); the margins are c - p_down
    and p_up - b of the step law at flat positions 2(x-1) and 2x-3.  c, b
    and a are floats, or float arrays with one entry per height."""
    import numpy as np

    from .kernel import flat_step_probs_at

    def rows(v):  # one entry per row
        return np.repeat(v, 2) if np.ndim(v) else v

    s = np.empty(2 * len(x), dtype=np.int64)
    s[0::2] = 2 * (x - 1)   # diagonal
    s[1::2] = 2 * x - 3     # sub-diagonal
    p_down, p_up = flat_step_probs_at(s, rows(a))
    return rows(x), rows(c) - p_down, p_up - rows(b)


# ======================================================================
# Monotone coupling
# ======================================================================


def coupled_sample_many(
    u: Sequence[float], step_law: StepDistribution, z: ZDistribution
) -> tuple[np.ndarray, np.ndarray]:
    """Map each uniform draw to (step, zval), each by inverse CDF, as two
    int64 arrays.

    Marginals are exact and step >= zval for every u in [0, 1).
    """
    import numpy as np

    from .kernel import _inverse_cdf

    # CDF dominance at both atom boundaries; equivalent to the existence of
    # a pathwise-ordered coupling
    if not (z.c >= step_law.p_down and z.b <= step_law.p_up):
        raise ValueError(
            f"step law {step_law.as_tuple()} does not dominate Z "
            f"(c={z.c}, b={z.b}); coupling would not be monotone"
        )
    u = np.asarray(u, dtype=np.float64)
    if not ((u >= 0) & (u < 1)).all():  # NaN fails both
        raise ValueError("uniforms must lie in [0, 1)")
    step = _inverse_cdf(u, float(step_law.p_down), 1.0 - float(step_law.p_up))
    zval = _inverse_cdf(u, float(z.c), 1.0 - float(z.b))
    return step.astype(np.int64), zval.astype(np.int64)
