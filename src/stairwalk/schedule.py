"""Phase schedule construction and feasibility checking.

A schedule partitions time into phases [N_{i-1}, N_i) on which the
adaptation value a_n is constant, together with the height thresholds T_i
that the per-phase success events compare against:

    phase 1:   length N_1 = M0,     a = 8,          event  S_{N_1} >  T_1
    phase i>1: length M-2+2(i-2),   a = a_i,        event  S_{N_i} >= T_i

In paper-literal mode everything is generated from two integers M and M0
plus the closed form a_i = 8(2i^2+1-2i)/(2i-1+mu) - offset; user-designed
mode takes explicit per-phase (length, a, threshold) triples.

When mu = u/v and offset = r/t are both exact (int or Fraction), a_i is a
ratio of integer polynomials in i: with w = v(2i - 1) + u,

    a_i = P_i / Q_i,    P_i = 8vt(2i^2 - 2i + 1) - r w,    Q_i = t w,

unnormalised, and Q_i > 0 because the profile requires mu > 0.
`PhaseSchedule.a_ratios` builds the a_i column from these integers, with no
Fraction per phase, and `a_of_phase` returns Fraction(P_i, Q_i), so a_i has
one formula.  A float in either constant makes a_i a float, rounded once per
phase by the closed form as written; those schedules, and user-designed
ones, take each a_i from `a_of_phase`.

`find_M` sizes M so the concentration gain g(m) = delta*m - 2*sqrt(K m ln m)
clears the overshoot for every m >= M-2.  g is convex, so the m where it
falls short form one interval, whose end `find_M` finds by bisection in
`math`; a decision within 2^-40 of the gain's scale is left to numpy's
expression of g, so M is the one a numpy scan of every m gives (the proof is
in `find_M`).  `find_M0` sizes phase 1 so a Binomial(m, 1/5) walk exceeds M
with probability > 1 - sigma for every m >= M0.  Up to M = 10^4 it searches
in stdlib integers, with the tail's exact recurrence in m: the tail is
nondecreasing in m, so the first m that passes is M0 and no guard window is
needed.

The gain schedules (`steady_drift_schedule`, `log_growth_schedule`) give
phase i the threshold gain floor(G_i) of its concentration gain.
`_gain_floor` takes it in `math`, with the same band: `_gain_near`, which
evaluates g for both, leaves a gain within 2^-40 of its scale of an integer
to `concentration_gain`.  So every schedule family is built, and written,
without numpy unless a decision falls in that band: only
`concentration_gain` and `check_schedule_feasibility` import it.

`check_schedule_feasibility` mechanizes the induction conditions (positive
drift, sufficient gain, nonnegative worst-case height margin) phase by
phase, so broken schedules are reported instead of silently simulated.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .core import (
    PAPER_LITERAL,
    USER_DESIGNED,
    _NUMBER,
    ConstantsProfile,
    Number,
    _encode_number,
    _field,
    paper_profile,
    scaled_profile,
)

EXACT_BINOMIAL = "exact-binomial"
HOEFFDING_CONSERVATIVE = "hoeffding-conservative"

# the exact search is cheap up to roughly this M (~0.1 s at 10^4); beyond
# it the provably monotone conservative bound is the default
_EXACT_M0_LIMIT = 10_000

# a decision g(m) < h closer to h, or a floor(g(m)) with g(m) closer to an
# integer, than this fraction of the gain's scale is made by
# `concentration_gain` itself, in numpy (see `find_M` and `_gain_near`)
_GAIN_BAND = 2.0**-40


def concentration_gain(m, delta: float, K: int):
    """g(m) = delta*m - 2*sqrt(K*m*ln(m)); accepts scalars or numpy arrays."""
    import numpy as np

    m = np.asarray(m, dtype=np.float64)
    out = delta * m - 2.0 * np.sqrt(K * m * np.log(m))
    return float(out) if out.ndim == 0 else out


def _gain_scale(m: int, delta: float, K: int) -> float:
    """S(m) = |delta| m + 2 sqrt(K m ln m), the scale against which a band
    around the concentration gain g(m) is measured."""
    return abs(delta) * m + 2.0 * math.sqrt(K * m * math.log(m))


def _gain_near(m: int, delta: float, K: int, mark: float | None,
               band: float) -> tuple[float, bool]:
    """(g(m), whether g(m) lies within band of mark), where mark is the
    integer nearest g(m) when None.

    g is evaluated in `math`, in `concentration_gain`'s operation order, so
    only the logarithm can differ from numpy's, by about an ulp, and the two
    values lie within 2^-49 S(m) of each other (see `find_M`).  So outside
    a band of 2^-40 S (`_GAIN_BAND`) around the mark they lie on the same
    side of it; inside, g is `concentration_gain`'s own value."""
    x = float(m)
    g = delta * x - 2.0 * math.sqrt(K * x * math.log(x))
    if abs(g - (round(g) if mark is None else mark)) > band:
        return g, False
    return concentration_gain(m, delta, K), True


def _gain_floor(m: int, delta: float, K: int) -> int:
    """floor(concentration_gain(m, delta, K)), in `math` unless g(m) lies
    within `_GAIN_BAND` of an integer: floor(g) changes only across an
    integer, and outside that band the math and numpy gains lie between the
    same two integers."""
    band = _GAIN_BAND * _gain_scale(m, delta, K)
    return math.floor(_gain_near(m, delta, K, None, band)[0])


def _gain_slope_ok(m: float, delta: float, K: int) -> bool:
    # derivative of 2*sqrt(K m ln m) is sqrt(K)(ln m + 1)/sqrt(m ln m),
    # which is decreasing for m >= 2; once it drops below delta the gain
    # is nondecreasing from there on
    return math.sqrt(K) * (math.log(m) + 1.0) / math.sqrt(m * math.log(m)) <= delta


def find_M(profile: ConstantsProfile) -> int:
    """Least M with concentration_gain(m) >= overshoot for all m >= M - 2.

    With g = concentration_gain and h the overshoot, the answer is that of
    a scan of g over every m below `hi`: 3 past the last m < hi with
    g(m) < h, or 1 if there is none.  `hi` is the first power of two from 4
    at which `_gain_slope_ok` holds and g >= h, so no m >= hi violates.
    The scan's answer is found by bisection, in `math`:

    * g is convex on [1, inf): for m > 1, d^2/dm^2 sqrt(m ln m) =
      -((ln m)^2 + 1) / (4 (m ln m)^(3/2)) < 0.  So g falls up to the
      root x of g' = 0 and rises after it, and its violators form one
      interval.  x is where f(m) = sqrt(K)(ln m + 1)/sqrt(m ln m), the
      quantity `_gain_slope_ok` compares with delta, crosses delta.
    * c, the least m >= 2 at which `_gain_slope_ok` holds, is found by
      bisection.  The test rounds f by less than 2^-48 of f, and
      |d ln f / d ln m| = ((ln m)^2 + 1) / (2 ln m (ln m + 1)) >= 0.41, so
      a wrong test moves c by at most 1 + 2^-46 x from x.  Hence g rises
      from every m >= c + w and falls up to every m < c - w, with
      w = 2 + floor(c / 2^40).
    * Every decision g(m) < h is the scan's.  `_gain_near` evaluates g in
      the scan's operation order, where only the logarithm can differ from
      numpy's, by about an ulp; the math, numpy and exact values of g then
      lie within 2^-49 of the scale S(m) = delta*m + 2 sqrt(K m ln m) of
      each other.  Where |g - h| <= tau = 2^-40 S(hi) (`_GAIN_BAND`), that one
      point is recomputed by `concentration_gain`.  Outside that band the
      three values lie on one side of h, and on the upper side they exceed
      h + 2^-49 S(hi), so no m with an exact g as large violates.
    * From c + w, where g rises: at a violator, bisect up to hi for a
      violator whose successor is not one; at a non-violator in the band,
      step on, since rounding can put a violator past it; at one outside
      the band, stop.  The last violator met is the scan's.
    * With none from c + w on, step down from c + w - 1: the first
      violator met is the scan's, and below c - w, where g only grows
      downward, a non-violator outside the band ends the search.
    """
    delta = float(profile.drift_floor)
    K = profile.hoeffding_K
    h = float(profile.overshoot)

    def violates(m: int, band: float) -> tuple[bool, bool]:
        """(g(m) < h as the scan decides it, whether g(m) is within band of h)."""
        g, near = _gain_near(m, delta, K, h, band)
        return g < h, near

    # find a point beyond which g is >= h and provably nondecreasing
    hi = 4
    while not (_gain_slope_ok(hi, delta, K)
               and not violates(hi, _GAIN_BAND * _gain_scale(hi, delta, K))[0]):
        hi *= 2
    band = _GAIN_BAND * _gain_scale(hi, delta, K)

    lo, c = 1, hi  # f(1+) is infinite, and the test holds at hi
    while c - lo > 1:
        mid = (lo + c) // 2
        if _gain_slope_ok(mid, delta, K):
            c = mid
        else:
            lo = mid
    w = 2 + (c >> 40)
    start = min(c + w, hi)

    last, m = 0, start
    while m < hi:
        bad, near = violates(m, band)
        if bad:
            lo, m = m, hi
            while m - lo > 1:
                mid = (lo + m) // 2
                if violates(mid, band)[0]:
                    lo = mid
                else:
                    m = mid
            last = lo
        elif near:
            m += 1
        else:
            break
    if last:
        return last + 3
    for m in range(start - 1, 0, -1):
        bad, near = violates(m, band)
        if bad:
            return m + 3
        if m < c - w and not near:
            break
    return 1


def _log_lower_tail(m: int, M: int, p: float) -> float:
    """ln P(Binomial(m, p) <= M) in floats, for m > M >= 0 and 0 < p < 1.

    The point mass at M stays a logarithm, so it never underflows, and the
    masses below it are summed relative to it, downward from j = M.  That
    sum overflows to inf only when M lies so far above the mean that the
    lower tail is within 1e-300 of 1, where inf reads as "not yet crossed",
    which is right for any sigma a float can tell from 1.  Only steers
    `_exact_M0`; never decides.
    """
    log_mass = (math.lgamma(m + 1) - math.lgamma(M + 1) - math.lgamma(m - M + 1)
                + M * math.log(p) + (m - M) * math.log1p(-p))
    odds = (1.0 - p) / p
    total = term = 1.0
    for j in range(M, 0, -1):
        ratio = j * odds / (m - j + 1)  # mass(j - 1) / mass(j), falling as j does
        term *= ratio
        total += term
        if ratio < 1 and term < total * 1e-17:
            break
    return log_mass + math.log(total)


def _tail_split(lo: int, hi: int, m: int, a: int, b: int) -> tuple[int, int, int]:
    """(P, Q, T) of the terms j in [lo, hi) of sum_j prod_{k=lo..j} p_k/q_k,
    p_k = (m - k + 1) a and q_k = k b: P and Q are the products of the p_k
    and q_k, and the sum is T / Q."""
    if hi - lo == 1:
        p = (m - lo + 1) * a
        return p, lo * b, p
    mid = (lo + hi) // 2
    P1, Q1, T1 = _tail_split(lo, mid, m, a, b)
    P2, Q2, T2 = _tail_split(mid, hi, m, a, b)
    return P1 * P2, Q1 * Q2, T1 * Q2 + P1 * T2


def _lower_tail(m: int, M: int, a: int, b: int) -> tuple[int, int]:
    """(q^m P(Bin(m, a/q) <= M), q^m P(Bin(m, a/q) = M)) as ints, q = a + b,
    m >= M.

    The first is b^(m-M) S with S = sum_{j<=M} C(m, j) a^j b^(M-j).  The
    term ratio C(m, j) a^j b^(M-j) / C(m, j-1) a^(j-1) b^(M-j+1) is
    p_j/q_j = (m - j + 1) a / (j b), so S = b^M (1 + T/Q) over j = 1..M by
    binary splitting (`_tail_split`), and since Q = M! b^M, S = b^M + T/M!
    exactly.  Balanced products cost far less than the M-step Horner sum
    when q is large (2^54 for a float floor of 0.2)."""
    rest = b ** (m - M)
    if M == 0:
        return rest, rest
    _, _, T = _tail_split(1, M + 1, m, a, b)
    return (b**M + T // math.factorial(M)) * rest, math.comb(m, M) * a**M * rest


def _locate_M0(sigma: Fraction, M: int, p: Fraction) -> int:
    """A guess above M at `_exact_M0`'s answer, by float bisection on the
    log lower tail, bracketed from ceil(M/p); 0 < p < 1.  It only steers."""
    pf, target = float(p), math.log(sigma.numerator) - math.log(sigma.denominator)
    lo, hi = M, max(-(-M * p.denominator // p.numerator), M + 1)
    while _log_lower_tail(hi, M, pf) >= target:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _log_lower_tail(mid, M, pf) < target:
            hi = mid
        else:
            lo = mid
    return hi


def _exact_M0(sigma: Fraction, M: int, p: Fraction, start: int) -> int:
    """Least m with P(Binomial(m, p) > M) > 1 - sigma, exactly, for
    0 < p < 1, found by walking from any start > M.

    With p = a/q, C_m = q^m P(Bin <= M) and P_m = q^m P(Bin = M) are
    integers, and one step of m is exact either way:

        C_{m+1} = q C_m - a P_m,    P_{m+1} = P_m (m+1)(q-a) / (m+1-M).

    The lower tail C_m / q^m only falls as m grows, so the first m with
    C_m < sigma q^m is the answer, and every later m satisfies the bound
    too.  For m <= M the lower tail is 1, so the answer exceeds M.  One
    Horner sum evaluates C and P at the start, and the recurrence steps
    until the test flips.
    """
    a, q = p.numerator, p.denominator
    b = q - a
    num, den = sigma.numerator, sigma.denominator
    m = start
    C, P = _lower_tail(m, M, a, b)
    qm = q**m
    if C * den < num * qm:
        while m - 1 > M:
            P_back = P * (m - M) // (m * b)
            C_back = (C + a * P_back) // q
            q_back = qm // q
            if not C_back * den < num * q_back:
                break
            m, C, P, qm = m - 1, C_back, P_back, q_back
        return m
    while not C * den < num * qm:
        C, P = q * C - a * P, P * (m + 1) * b // (m + 1 - M)
        m, qm = m + 1, qm * q
    return m


def find_M0(
    sigma: Number,
    M: int,
    profile: ConstantsProfile | None = None,
    method: str = "auto",
) -> int:
    """Least m0 such that P(Binomial(m, p) > M) > 1 - sigma for all m >= m0,
    where p is ``profile.phase1_up_floor`` (1/5 without a profile).

    ``exact-binomial`` searches in integers, with p and sigma at their exact
    values (a float enters at its binary value).  The tail is nondecreasing
    in m, so the least m that satisfies the bound satisfies it for every
    larger m as well, and no guard is needed.  ``hoeffding-conservative``
    returns the least m with m p > M and exp(-2(m p - M)^2 / m) <= sigma;
    the bound dominates P(Bin <= M) and is decreasing in m, so the for-all
    quantifier holds.
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    floor = profile.phase1_up_floor if profile is not None else Fraction(1, 5)
    sig = float(sigma)
    if not 0 <= sig < 1:
        raise ValueError(f"sigma must be in [0, 1), got {sigma}")
    if floor == 0:
        raise ValueError(
            "phase1_up_floor = 0 makes the phase-1 tail P(Bin(m, 0) > M) zero "
            "for every m, so it is unsatisfiable; use phase1_up_floor > 0"
        )
    if method == "auto":
        method = EXACT_BINOMIAL if M <= _EXACT_M0_LIMIT else HOEFFDING_CONSERVATIVE

    if method == EXACT_BINOMIAL:
        sigma = Fraction(sigma)
        if sigma == 0:
            raise ValueError(
                "sigma = 0 is unsatisfiable for exact-binomial "
                "(the tail is never certain); use sigma > 0"
            )
        p = Fraction(floor)
        if p == 1:  # Bin(m, 1) = m
            return M + 1
        return _exact_M0(sigma, M, p, _locate_M0(sigma, M, p))

    if method == HOEFFDING_CONSERVATIVE:
        if sig == 0:
            raise ValueError(
                "sigma = 0 is unsatisfiable (the tail is never certain); "
                "use sigma > 0"
            )
        p = float(floor)
        log_sig = math.log(sig)
        m = int(math.floor(M / p)) + 1
        # closed-form start: 2(m*p - M)^2 / m = ln(1/sigma), then scan up
        L = -log_sig
        b = 2 * M / p + L / (2 * p * p)
        disc = b * b - 4 * (M / p) ** 2
        root = (b + math.sqrt(max(disc, 0.0))) / 2.0
        m = max(m, int(root) - 4, 1)
        while True:
            t = m * p - M
            if t > 0 and -2.0 * t * t / m <= log_sig:
                return m
            m += 1

    raise ValueError(f"unknown method {method!r}")


# ======================================================================
# Phase schedules
# ======================================================================


def _rule_ratio(i: int, u: int, v: int, r: int, t: int) -> tuple[int, int]:
    """(P_i, Q_i) of a rule schedule's a_i for i >= 2, at drift_target = u/v
    and a_offset = r/t (see the module docstring)."""
    w = v * (2 * i - 1) + u
    return 8 * v * t * (2 * i * i - 2 * i + 1) - r * w, t * w


_PHASE_KEYS = (("i", int), ("length", int), ("a", _NUMBER), ("threshold", _NUMBER))


@dataclass
class PhaseSchedule:
    """Per-phase lengths, adaptation values, and success thresholds.

    Paper-literal schedules are rule-generated from (M, M0, profile) and are
    unbounded; user-designed ones carry explicit per-phase arrays.  Phase
    indices are 1-based.  The threshold of phase 1 is compared strictly
    (S > T_1); later ones non-strictly (S >= T_i).
    """

    mode: str
    profile: ConstantsProfile
    sigma: Number | None = None
    sigma_phase1: Number | None = None
    M: int | None = None
    M0: int | None = None
    lengths: Sequence[int] | None = None
    a_values: Sequence[float] | None = None
    thresholds: Sequence[float] | None = None

    def __post_init__(self):
        if self.mode == PAPER_LITERAL:
            if self.M is None or self.M0 is None:
                raise ValueError("paper-literal schedule needs M and M0")
            if self.M < 3:
                raise ValueError("M must be >= 3 so phase lengths are positive")
        elif self.mode == USER_DESIGNED:
            if not (self.lengths and self.a_values and self.thresholds):
                raise ValueError(
                    "user-designed schedule needs lengths, a_values, thresholds"
                )
            if not len(self.lengths) == len(self.a_values) == len(self.thresholds):
                raise ValueError("per-phase arrays must have equal length")
            if any(l < 1 for l in self.lengths):
                raise ValueError("phase lengths must be >= 1")
            if self.a_values[0] != 8:
                raise ValueError("phase 1 must run at a = 8")
            if not all(a >= 8 for a in self.a_values):  # NaN fails too
                raise ValueError("adaptation values must be >= 8")
            rest = self.a_values[1:]
            if any(rest[k + 1] < rest[k] for k in range(len(rest) - 1)):
                raise ValueError("a_i must be nondecreasing from phase 2 on")
        else:
            raise ValueError(f"unknown mode {self.mode!r}")
        self._N_cache = [0]

    # -- per-phase rules ------------------------------------------------

    @property
    def n_phases(self) -> int | None:
        """Number of defined phases; None when rule-generated (unbounded)."""
        return None if self.mode == PAPER_LITERAL else len(self.lengths)

    def _check_phase(self, i: int):
        if i < 1:
            raise ValueError(f"phase index must be >= 1, got {i}")
        if self.n_phases is not None and i > self.n_phases:
            raise ValueError(f"schedule defines {self.n_phases} phases, got {i}")

    def length(self, i: int) -> int:
        self._check_phase(i)
        if self.mode == USER_DESIGNED:
            return int(self.lengths[i - 1])
        return self.M0 if i == 1 else self.M - 2 + 2 * (i - 2)

    @property
    def _rule_terms(self) -> tuple[int, int, int, int] | None:
        """(u, v, r, t) with drift_target = u/v and a_offset = r/t, for a
        rule schedule whose two constants are exact; None otherwise."""
        mu, off = self.profile.drift_target, self.profile.a_offset
        if self.mode != PAPER_LITERAL or not (
                isinstance(mu, (int, Fraction)) and isinstance(off, (int, Fraction))):
            return None
        return (*mu.as_integer_ratio(), *off.as_integer_ratio())

    @property
    def exact_rule(self) -> bool:
        """Whether a_i for i >= 2 come from the integer polynomials P_i/Q_i:
        a rule schedule whose drift_target and a_offset are int or Fraction."""
        return self._rule_terms is not None

    def a_of_phase(self, i: int) -> Number:
        """Adaptation value of phase i, in the profile's arithmetic: for
        i >= 2, Fraction(P_i, Q_i) under exact constants, and the closed form
        in floats when either is a float."""
        self._check_phase(i)
        if self.mode == USER_DESIGNED:
            return self.a_values[i - 1]
        if i == 1:
            return self.profile.phase1_a
        terms = self._rule_terms
        if terms is not None:
            return Fraction(*_rule_ratio(i, *terms))
        mu, off = self.profile.drift_target, self.profile.a_offset
        return 8 * (2 * i * i + 1 - 2 * i) / (2 * i - 1 + mu) - off

    def a_ratios(self, i_max: int) -> list[tuple[int, int]]:
        """(P, Q) with a_i = P/Q and Q > 0 for phases 1..i_max, unnormalised:
        from the integer polynomials when `exact_rule`, with no a_of_phase
        call past phase 1, and each a_of_phase value's integer ratio
        otherwise."""
        self._check_phase(i_max)
        terms = self._rule_terms
        if terms is None:
            return [self.a_of_phase(i).as_integer_ratio() for i in range(1, i_max + 1)]
        return [self.profile.phase1_a.as_integer_ratio(),
                *(_rule_ratio(i, *terms) for i in range(2, i_max + 1))]

    def threshold(self, i: int) -> Number:
        self._check_phase(i)
        if self.mode == USER_DESIGNED:
            return self.thresholds[i - 1]
        return self.M + self.profile.overshoot * (i - 1)

    def strict_threshold(self, i: int) -> bool:
        """Phase 1's success event is strict (S > T_1); later ones are not."""
        return i == 1

    def required_gain(self, i: int) -> Number:
        """T_i - T_{i-1}, the height the walk must gain during phase i >= 2."""
        if i < 2:
            raise ValueError("required_gain is defined for phases >= 2")
        return self.threshold(i) - self.threshold(i - 1)

    # -- absolute step indexing ------------------------------------------

    def N(self, i: int) -> int:
        """End of phase i as an absolute step count (N_0 = 0)."""
        if i == 0:
            return 0
        self._check_phase(i)
        cache = self._N_cache
        while len(cache) <= i:
            cache.append(cache[-1] + self.length(len(cache)))
        return cache[i]

    def phase_of_step(self, n: int) -> int:
        if n < 0:
            raise ValueError("step index must be >= 0")
        while self._N_cache[-1] <= n:
            i = len(self._N_cache)
            if self.n_phases is not None and i > self.n_phases:
                raise ValueError(f"step {n} lies beyond the last defined phase")
            self.N(i)
        return bisect.bisect_right(self._N_cache, n)

    def a_of_step(self, n: int) -> Number:
        return self.a_of_phase(self.phase_of_step(n))

    def segments(self, horizon: int) -> list[tuple[int, Number]]:
        """(steps, a_i) of each phase i that starts before `horizon`, in
        order, the last one cut at the horizon: the one place that decides
        which a holds at each step.  The cumulative steps are N_1, N_2, ...,
        except where the last phase is cut.  A horizon past the end of the
        last defined phase is a ValueError."""
        if horizon < 0:
            raise ValueError("horizon must be >= 0")
        if self.n_phases is not None and horizon > self.N(self.n_phases):
            raise ValueError(f"horizon {horizon} is past the schedule's end, "
                             f"at step {self.N(self.n_phases)}")
        out, i = [], 1
        while self.N(i - 1) < horizon:
            out.append((min(self.N(i), horizon) - self.N(i - 1), self.a_of_phase(i)))
            i += 1
        return out

    # -- serialization ----------------------------------------------------

    def to_jsonable(self) -> dict:
        doc = {
            "mode": self.mode,
            "sigma": _encode_number(self.sigma),
            "sigma_phase1": _encode_number(self.sigma_phase1),
            "profile": json.loads(self.profile.to_json()),
        }
        if self.mode == PAPER_LITERAL:
            doc["M"] = self.M
            doc["M0"] = self.M0
        else:
            doc["phases"] = [
                {
                    "i": k + 1,
                    "length": int(self.lengths[k]),
                    "a": _encode_number(self.a_values[k]),
                    "threshold": _encode_number(self.thresholds[k]),
                }
                for k in range(len(self.lengths))
            ]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "PhaseSchedule":
        """Parse a schedule document; a missing or mistyped key raises a
        ValueError that names it."""
        doc = json.loads(text)
        mode = _field(doc, "mode", str)
        profile = ConstantsProfile.from_json(json.dumps(_field(doc, "profile", dict)))
        common = {
            key: None if doc.get(key) is None else _field(doc, key, _NUMBER)
            for key in ("sigma", "sigma_phase1")
        }
        if mode == PAPER_LITERAL:
            M, M0 = _field(doc, "M", int), _field(doc, "M0", int)
            return cls(mode=PAPER_LITERAL, profile=profile, M=M, M0=M0, **common)
        if mode != USER_DESIGNED:
            raise ValueError(f"unknown mode {mode!r}")
        phases = [
            {key: _field(row, key, kind, f"phases[{k}]") for key, kind in _PHASE_KEYS}
            for k, row in enumerate(_field(doc, "phases", list))
        ]
        phases.sort(key=lambda row: row["i"])
        return cls(
            mode=USER_DESIGNED,
            lengths=[row["length"] for row in phases],
            a_values=[row["a"] for row in phases],
            thresholds=[row["threshold"] for row in phases],
            profile=profile,
            **common,
        )

    def schedule_hash(self) -> str:
        canonical = json.dumps(self.to_jsonable(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def build_paper_schedule(
    sigma: Number,
    profile: ConstantsProfile | None = None,
    sigma_phase1: Number | None = None,
) -> PhaseSchedule:
    """Assemble the rule-generated schedule for a given failure budget sigma.

    The phase-1 sizing uses sigma_phase1 (default sigma/2, so the product
    bound starts from the factor 1 - sigma/2); pass sigma_phase1=sigma to
    size phase 1 against the full budget instead.
    """
    if not 0 < float(sigma) < 1:
        raise ValueError("sigma must be in (0, 1)")
    profile = profile if profile is not None else paper_profile()
    if profile.schedule_mode != PAPER_LITERAL:
        raise ValueError("profile.schedule_mode must be paper-literal")
    if sigma_phase1 is None:
        sigma_phase1 = sigma / 2
    M = find_M(profile)
    M0 = find_M0(sigma_phase1, M, profile)
    return PhaseSchedule(
        mode=PAPER_LITERAL,
        profile=profile,
        sigma=sigma,
        sigma_phase1=sigma_phase1,
        M=M,
        M0=M0,
    )


def user_schedule(
    profile: ConstantsProfile,
    lengths: Sequence[int],
    a_values: Sequence[float],
    thresholds: Sequence[float],
    sigma: Number | None = None,
    sigma_phase1: Number | None = None,
) -> PhaseSchedule:
    """Wrap explicit per-phase (length, a, threshold) arrays in a schedule."""
    return PhaseSchedule(
        mode=USER_DESIGNED,
        profile=profile.with_mode(USER_DESIGNED),
        sigma=sigma,
        sigma_phase1=sigma_phase1,
        lengths=list(lengths),
        a_values=list(a_values),
        thresholds=list(thresholds),
    )


def _gain_schedule(
    profile: ConstantsProfile,
    lengths: Sequence[int],
    a_values: Sequence[float],
    t1_rule: Callable[[list[int]], Number],
    sigma: Number | None,
    m0_method: str,
) -> PhaseSchedule:
    """A user schedule whose phases 2.. have the given lengths and a values,
    with threshold gains floor(G_i) of their concentration gains, so that
    the feasibility check G_i >= gain holds exactly, with no
    float-accumulation hair.  t1_rule maps those gains to T_1.  Phase 1
    runs at a = 8 for 5 ceil(T_1) steps, or, given sigma, for the find_M0
    length (by m0_method) at sigma/2."""
    from .domination import dominated_drift  # deferred: layering

    eps, K = float(profile.slack), profile.hoeffding_K
    gains = [
        _gain_floor(L, dominated_drift(i, a, eps), K)
        for i, (L, a) in enumerate(zip(lengths, a_values), start=2)
    ]
    t1 = t1_rule(gains)
    thresholds = [t1]
    for g in gains:
        thresholds.append(thresholds[-1] + g)
    if sigma is not None:
        n1 = find_M0(float(sigma) / 2, int(math.floor(t1)), profile, method=m0_method)
    else:
        n1 = 5 * int(math.ceil(t1))
    return user_schedule(
        profile=profile,
        lengths=[n1, *lengths],
        a_values=[8.0, *a_values],
        thresholds=thresholds,
        sigma=sigma,
        sigma_phase1=None if sigma is None else float(sigma) / 2,
    )


def log_growth_schedule(
    i_max: int,
    profile: ConstantsProfile | None = None,
    length_scale: float = 1.0,
    t1: float | None = None,
    sigma: Number | None = None,
) -> PhaseSchedule:
    """A slow-adaptation template: a_i = max(8, 4 ln(i+2)), L_i ~ i^3,
    per-phase threshold gains set to the available concentration gain G_i.

    With t1=None the phase-1 threshold is auto-sized to the largest height
    deficit over the first i_max phases, which makes every height margin
    nonnegative; the feasibility checker then passes the whole range by
    construction of the gains and by the positivity of the drifts.
    """
    if i_max < 2:
        raise ValueError("i_max must be >= 2")
    if not math.isfinite(length_scale):
        raise ValueError(f"length_scale must be finite, got {length_scale}")
    if t1 is not None and not math.isfinite(t1):
        raise ValueError(f"t1 must be finite, got {t1}")
    profile = profile if profile is not None else scaled_profile(slack=1e-4)
    phases = range(2, i_max + 1)
    lengths = [max(1, int(round(length_scale * i**3))) for i in phases]

    def t1_rule(gains):
        if t1 is not None:
            return t1
        cum, deficit = 0, 0
        for i, L, g in zip(phases, lengths, gains):
            deficit = max(deficit, L + (2 * i - 2) - cum)
            cum += g
        return deficit + 1

    return _gain_schedule(
        profile, lengths, [max(8.0, 4.0 * math.log(i + 2.0)) for i in phases],
        t1_rule, sigma, HOEFFDING_CONSERVATIVE,
    )


def steady_drift_schedule(
    n_phases: int,
    profile: ConstantsProfile | None = None,
    length: int = 1000,
    a_start: float = 8.0,
    a_step: float = 0.5,
    t1: int | None = None,
    sigma: Number | None = None,
) -> PhaseSchedule:
    """Constant-length phases with slowly growing adaptation values.

    Phases 2..n_phases all have the given length; a_i = a_start +
    a_step*(i-2); threshold gains are floor(G_i) so the feasibility check
    passes by construction whenever the drifts are positive.  Designed for
    desk-scale conditional-success experiments: with the defaults every
    per-phase bound sits at 1 - 1/length^2.
    """
    if n_phases < 2:
        raise ValueError("n_phases must be >= 2")
    if not (isinstance(length, numbers.Integral) and length >= 1):
        raise ValueError(f"length must be an integer >= 1, got {length!r}")
    if not 8 <= a_start < math.inf:
        raise ValueError(f"a_start must be finite and >= 8, got {a_start}")
    if not 0 <= a_step < math.inf:
        raise ValueError(f"a_step must be finite and >= 0, got {a_step}")
    if t1 is not None and not math.isfinite(t1):
        raise ValueError(f"t1 must be finite, got {t1}")
    profile = profile if profile is not None else scaled_profile()
    t1 = length + 20 if t1 is None else t1
    return _gain_schedule(
        profile, [length] * (n_phases - 1),
        [a_start + a_step * (i - 2) for i in range(2, n_phases + 1)],
        lambda gains: t1, sigma, "auto",
    )


# ======================================================================
# Feasibility
# ======================================================================


@dataclass
class PhaseFeasibility:
    i: int
    drift: float
    gain: float
    required_gain: float
    height_margin: float
    ok: bool
    reason: str | None = None

    def to_jsonable(self) -> dict:
        return self.__dict__.copy()


@dataclass
class FeasibilityReport:
    i_max: int
    phases: list[PhaseFeasibility]
    first_violation: tuple[int, str] | None

    @property
    def ok(self) -> bool:
        return self.first_violation is None

    def phase(self, i: int) -> PhaseFeasibility:
        return self.phases[i - 2]

    def to_jsonable(self) -> dict:
        return {
            "i_max": self.i_max,
            "ok": self.ok,
            "first_violation": (
                None
                if self.first_violation is None
                else {"i": self.first_violation[0], "reason": self.first_violation[1]}
            ),
            "phases": [p.to_jsonable() for p in self.phases],
        }

    def csv_rows(self):
        yield ("i", "drift", "gain", "required_gain", "height_margin", "ok", "reason")
        for p in self.phases:
            yield (p.i, p.drift, p.gain, p.required_gain, p.height_margin,
                   p.ok, p.reason or "")


def check_schedule_feasibility(schedule: PhaseSchedule, i_max: int) -> FeasibilityReport:
    """Evaluate the induction conditions for phases 2..i_max.

    Phase i passes iff (a) the dominated-step drift delta_i = E(Z_i) is
    positive, (b) the concentration gain G_i = delta_i L_i - 2 sqrt(K L_i
    ln L_i) covers the required threshold gain T_i - T_{i-1}, and (c) the
    worst-case height margin T_{i-1} - L_i - (2i - 2) is nonnegative, so a
    full phase of -1 steps cannot drop the walk below height i.
    Infeasibility is reported, not raised.

    Under exact constants and an exact slack each drift is taken from the
    (P, Q) column and Z_i's integer triple by one int true division, which
    rounds as float(mean_z(i)) does; otherwise it is float(mean_z(i)).
    """
    import numpy as np

    # deferred: domination builds on schedules
    from .domination import _c_b_ratio, _with_slack, mean_z

    if i_max < 2:
        raise ValueError("i_max must be >= 2")
    if schedule.n_phases is not None and i_max > schedule.n_phases:
        raise ValueError(f"i_max = {i_max} is past the schedule's last phase: "
                         f"it defines {schedule.n_phases} phases")
    indices = range(2, i_max + 1)
    lengths = [schedule.length(i) for i in indices]
    thresholds = [schedule.threshold(i) for i in range(1, i_max + 1)]
    slack = schedule.profile.slack
    if schedule.exact_rule and not isinstance(slack, float):
        laws = (_with_slack(_c_b_ratio(i, a), slack)
                for i, a in zip(indices, schedule.a_ratios(i_max)[1:]))
        drifts = [(b - c) / den for c, b, den in laws]
    else:
        drifts = [float(mean_z(i, schedule)) for i in indices]
    gains = concentration_gain(lengths, np.array(drifts), schedule.profile.hoeffding_K)
    phases = []
    first = None
    for i, L, drift, gain, t_prev, t in zip(indices, lengths, drifts, gains.tolist(),
                                             thresholds, thresholds[1:]):
        required = float(t - t_prev)  # required_gain(i)
        height = float(t_prev) - L - (2 * i - 2)
        reason = None
        if drift <= 0:
            reason = "drift <= 0"
        elif gain < required:
            reason = "gain below required threshold step"
        elif height < 0:
            reason = "worst-case height margin negative"
        ok = reason is None
        if not ok and first is None:
            first = (i, reason)
        phases.append(
            PhaseFeasibility(
                i=i, drift=drift, gain=gain, required_gain=required,
                height_margin=height, ok=ok, reason=reason,
            )
        )
    return FeasibilityReport(i_max=i_max, phases=phases, first_violation=first)
