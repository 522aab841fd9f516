"""Concentration tail bounds and the certified divergence product bound.

`hoeffding_tail` is the two-sided bound 2 exp(-t^2 / 2m) for sums of m
variables valued in [-1, 1]; at t = 2 sqrt(K m ln m) it specializes to
2 / m^{2K}, which drives both the per-phase success bound

    1 - 2 / (M - 2 + 2(i-2))^{2K}

and the overall lower bound

    (1 - sigma/2) * prod_{j>=0} (1 - 2 / (M - 2 + 2j)^{2K})

on the probability that every phase event holds.  The infinite product is
returned as a certified enclosure: a truncated partial product times a tail
interval obtained from -q/(1-q) <= ln(1-q) <= -q and integral bounds on the
tail sum, so downstream statistical comparisons have a rigorous number to
test against rather than a point estimate.

Two centerings of the per-phase bound are exposed: the literal one assumes
the dominated-step mean clears the drift floor; `true_mean_phase_bound`
centers at the actual mean E(Z_i) and is the sound variant the feasibility
checker and the Monte Carlo comparisons use.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import Number
from .domination import mean_z

_CHUNK = 1 << 20
_FP_GUARD = 1e-12  # relative slack absorbing float rounding in the product


def _two_over_power(base: float, e: int) -> float:
    """2 / base^e, which is 0 where base^e overflows a float."""
    try:
        return 2.0 / base ** e
    except OverflowError:
        return 0.0


def hoeffding_tail(m: int, t) -> Number:
    """min(1, 2 exp(-t^2 / 2m)): two-sided tail bound for m summands in [-1, 1].

    Accepts float or mpmath.mpf t; mpf input is evaluated in mpmath so the
    algebraic specialization at t = 2 sqrt(K m ln m) can be checked to full
    precision.  mpmath is imported here, and only when the caller has loaded
    it already, since no mpf can exist before that.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    if "mpmath" in sys.modules:
        import mpmath

        if isinstance(t, mpmath.mpf):
            val = 2 * mpmath.exp(-(t * t) / (2 * m))
            return val if val < 1 else mpmath.mpf(1)
    val = 2.0 * math.exp(-(float(t) ** 2) / (2.0 * m))
    return min(1.0, val)


def phase_success_bound(i: int, schedule) -> float:
    """1 - 2 / L_i^{2K} for the rule-generated schedule; 0 when vacuous.

    The bound is the conditional success probability floor of phase i given
    all earlier phase events.  When L_i^{2K} <= 2 the formula goes
    nonpositive and the bound is clamped to 0, so it is vacuous exactly
    when it is 0.  Where L_i^{2K} overflows a float the bound is 1.
    """
    if i < 2:
        raise ValueError("phase success bounds start at phase 2")
    L = schedule.length(i)
    if L < 2:   # for an integer L, L^{2K} <= 2 exactly when L < 2
        return 0.0
    return 1.0 - _two_over_power(float(L), 2 * schedule.profile.hoeffding_K)


def true_mean_phase_bound(i: int, schedule) -> float:
    """One-sided bound 1 - exp(-(L E(Z_i) - gain)^2 / 2L), centered at the
    actual dominated-step mean, with gain the required gain T_i - T_{i-1};
    0 (vacuous) when the mean does not clear it."""
    if i < 2:
        raise ValueError("phase success bounds start at phase 2")
    L = schedule.length(i)
    t = L * float(mean_z(i, schedule)) - float(schedule.required_gain(i))
    if t <= 0:
        return 0.0
    return 1.0 - math.exp(-t * t / (2.0 * L))


# ======================================================================
# Certified infinite product
# ======================================================================


@dataclass(frozen=True)
class BoundValue:
    """A certified enclosure [lo, hi] of a probability."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi <= 1.0):
            raise ValueError(f"invalid enclosure [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


def divergence_lower_bound(
    sigma: Number, M: int, K: int, truncation: int = 10**6
) -> BoundValue:
    """Enclose (1 - sigma/2) * prod_{j=0}^inf (1 - 2/(M-2+2j)^{2K}).

    The first `truncation` factors are multiplied in log space; the rest are
    bracketed via exp(-S_hi / (1 - q_J)) <= tail <= exp(-S_lo) where S_lo,
    S_hi are integral bounds on the tail sum of q_j = 2/(M-2+2j)^{2K}.
    """
    sig = float(sigma)
    if not 0 < sig < 1:
        raise ValueError("sigma must be in (0, 1)")
    if K < 1:
        raise ValueError("K must be >= 1")
    base = M - 2
    if base < 2:   # for an integer base, base^{2K} <= 2 exactly when base < 2
        raise ValueError(
            f"(M-2)^(2K) must exceed 2 for all factors to be positive, got M={M}"
        )
    if truncation < 1:
        raise ValueError("truncation must be >= 1")

    log_partial = 0.0
    lo_j = 0
    while lo_j < truncation:
        hi_j = min(truncation, lo_j + _CHUNK)
        j = np.arange(lo_j, hi_j, dtype=np.float64)
        with np.errstate(over="ignore"):   # an inf power gives q = 0
            q = 2.0 / (base + 2.0 * j) ** (2 * K)
        log_partial += float(np.log1p(-q).sum())
        lo_j = hi_j

    c = float(base + 2 * truncation)
    q_next = _two_over_power(c, 2 * K)
    tail_lo_sum = c ** (1 - 2 * K) / (2 * K - 1)      # (1/2) * int_c^inf 2 u^-2K du
    tail_hi_sum = q_next + tail_lo_sum
    tail_hi = math.exp(-tail_lo_sum)
    tail_lo = math.exp(-tail_hi_sum / (1.0 - q_next))

    partial = math.exp(log_partial)
    lead = 1.0 - sig / 2.0
    lo = max(0.0, lead * partial * tail_lo * (1.0 - _FP_GUARD))
    hi = min(1.0, lead, lead * partial * tail_hi * (1.0 + _FP_GUARD))
    return BoundValue(lo=lo, hi=hi)


@dataclass
class ProductLimitEntry:
    M: int
    bound: BoundValue
    exceeds_sigma: bool

    def to_jsonable(self) -> dict:
        return {
            "M": self.M,
            "lo": self.bound.lo,
            "hi": self.bound.hi,
            "width": self.bound.width,
            "exceeds_sigma": self.exceeds_sigma,
        }


@dataclass
class ProductLimitReport:
    sigma: float
    K: int
    entries: list[ProductLimitEntry]
    monotone_in_M: bool
    least_M_exceeding: int | None

    def to_jsonable(self) -> dict:
        return {
            "sigma": self.sigma,
            "K": self.K,
            "monotone_in_M": self.monotone_in_M,
            "least_M_exceeding": self.least_M_exceeding,
            "entries": [e.to_jsonable() for e in self.entries],
        }


def product_limit_check(
    sigma: Number, K: int, M_list: Iterable[int], truncation: int = 10**6
) -> ProductLimitReport:
    """Evaluate the divergence bound across M values, in increasing order.

    Each factor 1 - 2/(M-2+2j)^{2K} increases with M, so the certified
    bounds must be monotone; the report records whether they are, which M
    (if any) push the bound above sigma, and the least one that does.
    """
    sig = float(sigma)
    Ms = sorted(set(int(M) for M in M_list))
    entries = []
    for M in Ms:
        bound = divergence_lower_bound(sig, M, K, truncation)
        entries.append(
            ProductLimitEntry(M=M, bound=bound, exceeds_sigma=bound.lo > sig)
        )
    monotone = all(
        entries[k + 1].bound.lo >= entries[k].bound.lo
        and entries[k + 1].bound.hi >= entries[k].bound.hi
        for k in range(len(entries) - 1)
    )
    least = next((e.M for e in entries if e.exceeds_sigma), None)
    return ProductLimitReport(
        sigma=sig, K=K, entries=entries, monotone_in_M=monotone, least_M_exceeding=least
    )
