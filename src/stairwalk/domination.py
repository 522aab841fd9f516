"""Dominated i.i.d. step variables and the monotone coupling that realizes
their stochastic ordering.

For phase i >= 2 the three-point variable Z_i with masses

    c_i = (1/2 - 4/a_i) i^2/D_i + slack        on -1
    b_i = (1/2 + 4/a_i) (i-1)^2/D_i - slack    on +1
    D_i = i^2 + (i-1)^2

is stochastically below every in-phase flattened step taken from height
x >= i: its CDF sits above the step law's at both atoms because
x^2/D_x decreases and (x-1)^2/D_x increases in x, with the +-slack giving
strict margin.  `coupled_sample` realizes the ordering constructively: both
variables are inverse-CDF transforms of one uniform draw with atoms ordered
-1 < 0 < 1, so the step dominates the Z value pathwise, draw by draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import Number
from .kernel import StepDistribution, _inverse_cdf, flat_step_probs_at

_SUM_TOL = 1e-15


@dataclass(frozen=True)
class ZDistribution:
    """Three-point law on {-1, 0, +1} dominated by in-phase steps at x >= i."""

    i: int
    c: Number     # mass at -1
    b: Number     # mass at +1
    stay: Number  # mass at 0

    def __post_init__(self):
        if self.i < 2:
            raise ValueError("Z is only defined for phases i >= 2")
        parts = (self.c, self.b, self.stay)
        for p in parts:
            if p < 0 or p > 1:
                raise ValueError(f"component {p} outside [0, 1]")
        total = self.c + self.b + self.stay
        exact = all(isinstance(p, (int, Fraction)) for p in parts)
        if (exact and total != 1) or (not exact and abs(total - 1) > _SUM_TOL):
            raise ValueError(f"components sum to {total}, not 1")

    @property
    def mean(self) -> Number:
        return self.b - self.c


def _c_b(i: int, a: Number, slack: Number) -> tuple[Number, Number]:
    d = i * i + (i - 1) * (i - 1)
    c = (a - 8) / (2 * a) * (i * i) / d + slack
    b = (a + 8) / (2 * a) * ((i - 1) * (i - 1)) / d - slack
    return c, b


def dominated_drift(i: int, a: Number, slack: Number) -> Number:
    """Mean b_i - c_i of the dominated step variable, without building it."""
    c, b = _c_b(i, a, slack)
    return b - c


def z_distribution(i: int, schedule) -> ZDistribution:
    """The dominated step variable of phase i under the given schedule."""
    if i < 2:
        raise ValueError("Z is only defined for phases i >= 2")
    a = schedule.a_of_phase(i)
    if isinstance(a, int):
        a = Fraction(a)
    c, b = _c_b(i, a, schedule.profile.slack)
    return ZDistribution(i=i, c=c, b=b, stay=1 - c - b)


def mean_z(i: int, schedule) -> Number:
    """E(Z_i) = b_i - c_i in the schedule's arithmetic."""
    if i < 2:
        raise ValueError("Z is only defined for phases i >= 2")
    a = schedule.a_of_phase(i)
    if isinstance(a, int):
        a = Fraction(a)
    return dominated_drift(i, a, schedule.profile.slack)


# ======================================================================
# Stochastic domination over a height range
# ======================================================================


@dataclass
class DominationReport:
    i: int
    x_lo: int
    x_hi: int
    min_c_margin: float          # min over the grid of c_i - p_down(x)
    min_b_margin: float          # min over the grid of p_up(x) - b_i
    argmin_c: tuple[int, str]    # (x, parity)
    argmin_b: tuple[int, str]
    violations: int
    ok: bool

    def to_jsonable(self) -> dict:
        d = self.__dict__.copy()
        d["argmin_c"] = list(self.argmin_c)
        d["argmin_b"] = list(self.argmin_b)
        return d


def domination_margins(
    i: int, schedule, x_lo: int, x_hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, c_margins, b_margins) float arrays over both parities.

    Rows alternate (x diagonal, x sub-diagonal) for x in [x_lo, x_hi]; the
    margins are c_i - p_down and p_up - b_i of the flattened step law at
    flat positions 2(x-1) and 2x-3.
    """
    if x_lo < i:
        raise ValueError(f"domination is only claimed for x >= i, got x_lo={x_lo}")
    z = z_distribution(i, schedule)
    return _margins(float(z.c), float(z.b), float(schedule.a_of_phase(i)), x_lo, x_hi)


def _margins(c: float, b: float, a: float, x_lo: int, x_hi: int):
    """:func:`domination_margins` of the law (c, b) against steps at a."""
    if x_hi < x_lo:
        raise ValueError("empty height range")
    x = np.arange(x_lo, x_hi + 1, dtype=np.int64)
    s = np.empty(2 * len(x), dtype=np.int64)
    s[0::2] = 2 * (x - 1)   # diagonal
    s[1::2] = 2 * x - 3     # sub-diagonal
    p_down, p_up = flat_step_probs_at(s, a)
    xs = np.repeat(x, 2)
    return xs, c - p_down, p_up - b


def check_domination(i: int, schedule, x_lo: int, x_hi: int) -> DominationReport:
    """Assert CDF dominance of Z_i below the step law across [x_lo, x_hi]."""
    xs, c_m, b_m = domination_margins(i, schedule, x_lo, x_hi)
    parity = np.tile(np.array(["diagonal", "sub-diagonal"]), len(xs) // 2)
    kc, kb = int(np.argmin(c_m)), int(np.argmin(b_m))
    violations = int((c_m < 0).sum() + (b_m < 0).sum())
    return DominationReport(
        i=i,
        x_lo=x_lo,
        x_hi=x_hi,
        min_c_margin=float(c_m[kc]),
        min_b_margin=float(b_m[kb]),
        argmin_c=(int(xs[kc]), str(parity[kc])),
        argmin_b=(int(xs[kb]), str(parity[kb])),
        violations=violations,
        ok=violations == 0,
    )


def domination_csv_rows(i: int, schedule, x_lo: int, x_hi: int):
    yield ("i", "x", "parity", "c_margin", "b_margin")
    xs, c_m, b_m = domination_margins(i, schedule, x_lo, x_hi)
    for k in range(len(xs)):
        parity = "diagonal" if k % 2 == 0 else "sub-diagonal"
        yield (i, int(xs[k]), parity, float(c_m[k]), float(b_m[k]))


# ======================================================================
# Monotone coupling
# ======================================================================


def _require_dominated(step_law: StepDistribution, z: ZDistribution):
    # CDF dominance at both atom boundaries; equivalent to the existence of
    # a pathwise-ordered coupling
    if not (z.c >= step_law.p_down and z.b <= step_law.p_up):
        raise ValueError(
            f"step law {step_law.as_tuple()} does not dominate Z "
            f"(c={z.c}, b={z.b}); coupling would not be monotone"
        )


def coupled_sample(
    u: float, step_law: StepDistribution, z: ZDistribution
) -> tuple[int, int]:
    """Map one uniform draw to (step, zval), each by inverse CDF.

    Marginals are exact and step >= zval for every u in [0, 1).
    """
    if not 0 <= u < 1:
        raise ValueError(f"u must be in [0, 1), got {u}")
    _require_dominated(step_law, z)
    step = -1 if u < step_law.p_down else (1 if u >= 1 - step_law.p_up else 0)
    zval = -1 if u < z.c else (1 if u >= 1 - z.b else 0)
    return step, zval


def coupled_sample_many(
    u: Sequence[float], step_law: StepDistribution, z: ZDistribution
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`coupled_sample` over an array of uniforms."""
    _require_dominated(step_law, z)
    u = np.asarray(u, dtype=np.float64)
    if ((u < 0) | (u >= 1)).any():
        raise ValueError("uniforms must lie in [0, 1)")
    step = _inverse_cdf(u, float(step_law.p_down), 1.0 - float(step_law.p_up))
    zval = _inverse_cdf(u, float(z.c), 1.0 - float(z.b))
    return step, zval
