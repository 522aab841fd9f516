"""Tail bounds and the certified divergence product."""

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from stairwalk import (
    BoundValue,
    PhaseSchedule,
    build_paper_schedule,
    divergence_lower_bound,
    hoeffding_tail,
    paper_profile,
    phase_success_bound,
    product_limit_check,
    run_experiment,
    scaled_profile,
    true_mean_phase_bound,
)
from stairwalk.bounds import _FP_GUARD


def test_hoeffding_tail_basics():
    assert hoeffding_tail(10, 0.0) == 1.0      # raw value 2, capped
    assert hoeffding_tail(8, 4.0) == pytest.approx(2 * math.exp(-1), rel=1e-15)
    with pytest.raises(ValueError):
        hoeffding_tail(0, 1.0)
    with pytest.raises(ValueError):
        hoeffding_tail(5, -0.1)


def test_hoeffding_specialization_small_grid():
    # t = 2 sqrt(K m ln m)  ==>  bound = min(1, 2/m^{2K})
    mpmath.mp.dps = 40
    for K in (1, 2):
        for m in (2, 3, 10, 97, 1024):
            t = 2 * mpmath.sqrt(K * m * mpmath.log(m))
            got = hoeffding_tail(m, t)
            expected = min(mpmath.mpf(1), 2 * mpmath.mpf(m) ** (-2 * K))
            assert abs(got - expected) <= 1e-20 * expected


def test_hoeffding_monotonicity():
    ts = np.linspace(0, 50, 200)
    vals = [hoeffding_tail(100, float(t)) for t in ts]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    ms = [10, 20, 50, 100, 1000]
    vals = [hoeffding_tail(m, 8.0) for m in ms]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_phase_success_bound_values(paper_schedule):
    M, K = paper_schedule.M, 1
    assert phase_success_bound(2, paper_schedule) == 1 - 2 / float(M - 2) ** (2 * K)
    assert phase_success_bound(10**6, paper_schedule) == pytest.approx(1.0)
    # strictly increasing where float64 can resolve the increments
    small = PhaseSchedule(mode="paper-literal", profile=paper_profile(), M=12, M0=5)
    seq = [phase_success_bound(i, small) for i in range(2, 200)]
    assert all(b > a for a, b in zip(seq, seq[1:]))
    # at the original M the increments fall below one ulp; never decreasing
    seq = [phase_success_bound(i, paper_schedule) for i in range(2, 200)]
    assert all(b >= a for a, b in zip(seq, seq[1:]))
    with pytest.raises(ValueError):
        phase_success_bound(1, paper_schedule)


def test_phase_success_bound_vacuous_flag():
    # M - 2 = 2 gives denominator 4: 1 - 2/4 = 1/2; M - 2 = 1 is vacuous,
    # and a vacuous bound is exactly the one that reads 0
    sched = PhaseSchedule(mode="paper-literal", profile=paper_profile(), M=4, M0=5)
    assert phase_success_bound(2, sched) == 0.5
    sched = PhaseSchedule(mode="paper-literal", profile=paper_profile(), M=3, M0=5)
    assert phase_success_bound(2, sched) == 0.0


def test_failure_mass_is_summable():
    # 1 - bound = 2/L_i^2 decays quadratically; the partial sums stay below
    # the integral bound 2/c^2 + 1/c with c = M - 2, so the infinite product
    # of the bounds is bounded away from zero
    sched = PhaseSchedule(mode="paper-literal", profile=paper_profile(), M=12, M0=5)
    c = sched.M - 2
    partial = sum(1 - phase_success_bound(i, sched) for i in range(2, 10**5))
    assert partial <= 2 / c**2 + 1 / c
    # increments die off
    extra = sum(1 - phase_success_bound(i, sched) for i in range(10**5, 2 * 10**5))
    assert extra < 1e-5


def test_true_mean_phase_bound(cond_schedule, paper_schedule):
    from stairwalk import mean_z

    for sched in (cond_schedule, paper_schedule):
        L = sched.length(2)
        t = L * float(mean_z(2, sched)) - float(sched.required_gain(2))
        assert t > 0
        expected = 1 - math.exp(-t * t / (2 * L))
        assert true_mean_phase_bound(2, sched) == pytest.approx(expected, rel=1e-12)
    # the rule-generated mean turns negative at i = 12: the bound is vacuous
    assert true_mean_phase_bound(12, paper_schedule) == 0.0
    assert true_mean_phase_bound(11, paper_schedule) > 0.0


# ----------------------------------------------------------------------
# certified product enclosures
# ----------------------------------------------------------------------


def _gamma_product_oracle(sigma: float, M: int) -> float:
    # K = 1 closed form: prod_j (1 - 2/(M-2+2j)^2) = G(c)^2 / (G(c-w) G(c+w))
    # with c = (M-2)/2 and w = 1/sqrt(2)
    mpmath.mp.dps = 30
    c = mpmath.mpf(M - 2) / 2
    w = 1 / mpmath.sqrt(2)
    prod = mpmath.gamma(c) ** 2 / (mpmath.gamma(c - w) * mpmath.gamma(c + w))
    return float((1 - mpmath.mpf(sigma) / 2) * prod)


@pytest.mark.parametrize("sigma", [0.5, 0.9])
@pytest.mark.parametrize("M", [12, 13, 100, 1001])
def test_enclosure_contains_gamma_oracle(sigma, M):
    bound = divergence_lower_bound(sigma, M, 1)
    assert bound.contains(_gamma_product_oracle(sigma, M))
    assert bound.width <= 1e-8


def test_enclosure_contains_mpmath_oracle_K2():
    mpmath.mp.dps = 30
    truth = mpmath.nprod(lambda j: 1 - 2 / (10 + 2 * j) ** 4, [0, mpmath.inf])
    bound = divergence_lower_bound(0.5, 12, 2)
    assert bound.contains(float(0.75 * truth))
    assert bound.width <= 1e-10


def test_enclosure_width_and_nesting():
    wide = divergence_lower_bound(0.5, 12, 1, truncation=10**4)
    mid = divergence_lower_bound(0.5, 12, 1, truncation=10**6)
    narrow = divergence_lower_bound(0.5, 12, 1, truncation=2 * 10**6)
    assert mid.width <= 1e-8
    # widening the truncation never moves lo down or hi up
    assert wide.lo <= mid.lo <= narrow.lo <= narrow.hi <= mid.hi <= wide.hi


def test_enclosure_domain_errors():
    with pytest.raises(ValueError):
        divergence_lower_bound(0.5, 3, 1)   # (M-2)^2 = 1 <= 2
    with pytest.raises(ValueError):
        divergence_lower_bound(0.0, 12, 1)
    with pytest.raises(ValueError):
        divergence_lower_bound(1.0, 12, 1)
    with pytest.raises(ValueError):
        BoundValue(0.5, 0.4)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("K", [71, 72, 200])
def test_overflowing_powers_are_zero_terms(K):
    # at M = 146 the tail's c^{2K} overflows a float from K = 71 and the
    # first factor's 144^{2K} from K = 72; an overflowing power is a term
    # 2 / c^{2K} of 0, every factor rounds to 1, and nothing warns
    profile = dataclasses.replace(paper_profile(), hoeffding_K=K)
    sched = PhaseSchedule(mode="paper-literal", profile=profile, M=146, M0=5)
    assert [phase_success_bound(i, sched) for i in (2, 3, 10**6)] == [1.0] * 3
    bound = divergence_lower_bound(0.5, 146, K)
    assert bound == BoundValue(lo=0.75 * (1.0 - _FP_GUARD), hi=0.75)
    assert product_limit_check(0.5, K, [146, 10**4]).monotone_in_M
    # the vacuous edge stays where it was: (M - 2)^{2K} = 1 for M = 3
    with pytest.raises(ValueError):
        divergence_lower_bound(0.5, 3, K)
    sched = PhaseSchedule(mode="paper-literal", profile=profile, M=3, M0=5)
    assert phase_success_bound(2, sched) == 0.0


@pytest.mark.filterwarnings("error")
def test_simulate_reports_the_paper_bound_at_large_K():
    # a scaled rule schedule at K = 100: L_i^{2K} overflows for every phase
    schedule = build_paper_schedule(0.5, scaled_profile(hoeffding_K=100))
    result = run_experiment(schedule, 3, 20, 0, threads=1)
    assert [p.bound_paper for p in result.per_phase] == [None, 1.0, 1.0]


def test_bound_monotone_in_M():
    lo_vals = [divergence_lower_bound(0.5, M, 1).lo for M in (100, 10**4)]
    hi_vals = [divergence_lower_bound(0.5, M, 1).hi for M in (100, 10**4)]
    assert lo_vals[1] > hi_vals[0]  # separation far exceeds enclosure widths
    assert hi_vals[1] > lo_vals[0]


def test_consistency_with_phase_bounds():
    # the product bound multiplies exactly the per-phase bounds under the
    # index shift j = i - 2
    sigma, M, K = 0.5, 12, 1
    sched = PhaseSchedule(mode="paper-literal", profile=paper_profile(), M=M, M0=5)
    for i in range(2, 1000):
        j = i - 2
        factor = 1.0 - 2.0 / float(M - 2 + 2 * j) ** (2 * K)
        assert phase_success_bound(i, sched) == factor
    # the enclosure sits just below any finite partial product of them
    n_factors = 3000
    partial = (1 - sigma / 2) * float(
        np.prod([phase_success_bound(i, sched) for i in range(2, 2 + n_factors)])
    )
    bound = divergence_lower_bound(sigma, M, K)
    assert bound.hi <= partial * (1 + 1e-12)
    c_tail = M - 2 + 2 * n_factors
    tail_gap = (1 - sigma / 2) * (2 / c_tail**2 + 1 / c_tail)
    assert partial - bound.lo <= tail_gap


def test_product_limit_check_structure():
    report = product_limit_check(0.5, 1, [100, 10**3, 10**4, 10**5])
    assert report.monotone_in_M
    assert report.least_M_exceeding == 100
    assert [e.M for e in report.entries] == [100, 10**3, 10**4, 10**5]
    assert all(e.bound.hi <= 1 - 0.5 / 2 for e in report.entries)

    # sigma > 2/3 can never be exceeded: the bound is capped by 1 - sigma/2
    report = product_limit_check(0.9, 1, [100, 10**5])
    assert report.least_M_exceeding is None
    assert report.monotone_in_M
