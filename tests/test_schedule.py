"""Schedule construction: M and M0 searches, rule values, feasibility."""

import dataclasses
import hashlib
import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings, strategies as st

from stairwalk import (
    PhaseSchedule,
    build_paper_schedule,
    check_schedule_feasibility,
    concentration_gain,
    find_M,
    find_M0,
    log_growth_schedule,
    paper_profile,
    scaled_profile,
    steady_drift_schedule,
    user_schedule,
)
from stairwalk import schedule
from stairwalk.core import ConstantsProfile


def _brute_find_M(delta, K, h, m_hi):
    """Independent oracle: scan the quantifier directly."""
    m = np.arange(1, m_hi, dtype=np.float64)
    g = delta * m - 2.0 * np.sqrt(K * m * np.log(m))
    bad = np.nonzero(g < h)[0]
    if len(bad) == 0:
        return 1
    m_star = int(bad[-1]) + 1
    assert m_star + 10 < m_hi, "oracle scan window too small"
    return m_star + 3


def _profile(delta, K, h):
    return ConstantsProfile(
        drift_floor=delta, drift_target=delta * 2 + 1e-3, slack=1e-6,
        a_offset=1e-3, overshoot=h, hoeffding_K=K,
    )


@pytest.mark.parametrize(
    "delta,K,h,m_hi,expected",
    [
        (0.5, 1, 4.0, 10**5, 89),
        (1.0, 1, 0.001, 10**4, 11),
        (0.4, 1, 4.0, 10**5, 146),
        (0.25, 2, 3.0, 10**6, None),
    ],
)
def test_find_M_against_brute_force(delta, K, h, m_hi, expected):
    got = find_M(_profile(delta, K, h))
    assert got == _brute_find_M(delta, K, h, m_hi)
    if expected is not None:
        assert got == expected


def test_find_M_paper_profile_magnitude():
    M = find_M(paper_profile())
    assert M == 527866  # brute-scan value, order of several hundred thousand
    # postcondition re-verified on a sample of m >= M-2, including M-2 itself
    m = np.unique(np.concatenate([[M - 2, M - 1, M], np.linspace(M - 2, 10 * M, 200, dtype=np.int64)]))
    assert (concentration_gain(m, 0.01, 1) >= 4).all()
    assert concentration_gain(M - 3, 0.01, 1) < 4


# every drawn profile has M below ~3000, so this oracle window holds it
_M_WINDOW = 1 << 14


def _gains(delta, K):
    """concentration_gain's expression on every m in [1, _M_WINDOW)."""
    m = np.arange(1, _M_WINDOW, dtype=np.float64)
    return delta * m - 2.0 * np.sqrt(K * m * np.log(m))


def _nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def _gain_cases(draw):
    """(delta, K, h): h drawn freely, just above the least gain (tangency,
    where the violators are few and g is flat), or within a few ulps of the
    gain at one m (a crossing, where one decision sets M)."""
    K = draw(st.integers(1, 3))
    mode = draw(st.sampled_from(["free", "tangent", "crossing"]))
    if mode == "tangent":
        # min g > 0 needs delta^2 > 4K ln(m)/m, at most ~1.47 K for integers
        delta = draw(st.floats(1.25 * math.sqrt(K), 3.0 * math.sqrt(K)))
        h = _nudged(float(_gains(delta, K).min()), draw(st.integers(0, 4)))
    else:
        delta = draw(st.floats(0.2, 4.0))
        if mode == "free":
            h = draw(st.floats(1e-3, 50.0))
        else:
            g = float(_gains(delta, K)[draw(st.integers(1, 3000)) - 1])
            h = _nudged(g, draw(st.integers(-3, 3)))
    assume(h > 0)
    return delta, K, h


@settings(max_examples=300, deadline=None)
@given(case=_gain_cases())
# math.log(9170) and np.log(9170) differ by an ulp, and h is the scan's
# g(9170): g in math falls below h, the scan's does not, and M is 9172
@example(case=(0.1, 1, 338.50450019607877))
@example(case=(0.25, 2, 1474.3838184054925))
def test_find_M_matches_the_numpy_scan(case):
    delta, K, h = case
    assert find_M(_profile(delta, K, h)) == _brute_find_M(delta, K, h, _M_WINDOW)


@pytest.mark.parametrize(
    "delta,K,h",
    [(0.5, 1, 4.0), (1.0, 1, 0.001), (0.4, 1, 4.0), (0.25, 2, 3.0),
     (0.1, 1, 338.50450019607877), (1.5, 1, 0.25)],
)
def test_find_M_is_unchanged_when_numpy_makes_every_decision(monkeypatch, delta, K, h):
    # an infinite band sends every g(m) < h through concentration_gain
    profile = _profile(delta, K, h)
    expected = find_M(profile)
    calls = []
    monkeypatch.setattr(schedule, "_GAIN_BAND", math.inf)
    monkeypatch.setattr(schedule, "concentration_gain",
                        lambda *a: calls.append(a[0]) or concentration_gain(*a))
    assert find_M(profile) == expected
    assert calls


@pytest.mark.parametrize("dips,expected", [({145}, 148), ({145, 150}, 153), ({200}, 203)])
def test_find_M_steps_past_rounding_inside_the_band(monkeypatch, dips, expected):
    # inside the band, rounding can decide g(m) >= h at some m and g < h
    # again further on; M must still follow the scan's last violator.  With
    # an infinite band every m is inside it, so dips of g below h past the
    # crossing (at 143 for this profile, M = 146) stand in for that rounding
    def gain(m, delta, K):
        return 0.0 if m in dips else concentration_gain(m, delta, K)

    monkeypatch.setattr(schedule, "_GAIN_BAND", math.inf)
    monkeypatch.setattr(schedule, "concentration_gain", gain)
    assert find_M(_profile(0.4, 1, 4.0)) == expected


def _brute_find_M0(sigma, M, m_hi=None, p=Fraction(1, 5)):
    """Exact-rational oracle for small scales: scans the quantifier directly.

    P(Bin(m, p) > M) > 1 - sigma is decided as q^m P(Bin <= M) den < num q^m
    for p = a/q and sigma = num/den, summing the lower masses anew for every
    m < m_hi.  Without m_hi the window runs to twice the first m that
    passes, plus 10.
    """
    sigma, p = Fraction(sigma), Fraction(p)
    a, q = p.numerator, p.denominator

    def ok(m):
        lower = sum(math.comb(m, k) * a**k * (q - a) ** (m - k) for k in range(min(M, m) + 1))
        return lower * sigma.denominator < sigma.numerator * q**m

    if m_hi is None:
        m_hi = 2 * next(m for m in range(1, 10**6) if ok(m)) + 10
    bad = [m for m in range(1, m_hi) if not ok(m)]
    if not bad:
        return 1
    assert bad[-1] + 1 < m_hi - 5, "oracle scan window too small"
    return bad[-1] + 1


@pytest.mark.parametrize(
    "sigma,M,m_hi,expected",
    [
        (Fraction(1, 2), 0, 60, 4),
        (Fraction(1, 2), 2, 120, None),
        (Fraction(9, 10), 2, 120, None),
        (Fraction(1, 10), 10, 400, 75),
    ],
)
def test_find_M0_exact_against_rational_oracle(sigma, M, m_hi, expected):
    got = find_M0(float(sigma), M, method="exact-binomial")
    assert got == _brute_find_M0(sigma, M, m_hi)
    if expected is not None:
        assert got == expected


_FLOORS = [Fraction(1, 5), Fraction(1, 3), Fraction(2, 7), Fraction(1)]


@settings(max_examples=150, deadline=None)
@given(
    M=st.integers(0, 30),
    p=st.sampled_from(_FLOORS),
    sigma=st.one_of(
        st.floats(min_value=1e-12, max_value=1.0, exclude_max=True),
        st.fractions(min_value=Fraction(1, 10**12), max_value=1, max_denominator=10**12)
        .filter(lambda f: f < 1),
    ),
)
@example(M=0, p=Fraction(1, 5), sigma=Fraction(4, 5) ** 3)  # a tie at m = 3; M0 = 4
def test_find_M0_exact_matches_oracle_for_any_floor(M, p, sigma):
    profile = dataclasses.replace(scaled_profile(), phase1_up_floor=p)
    assert find_M0(sigma, M, profile, method="exact-binomial") == _brute_find_M0(sigma, M, p=p)


# recorded with the float binomial search this exact one replaced
@pytest.mark.parametrize(
    "sigma,M,expected",
    [(0.25, 146, 771), (0.005, 1020, 5482), (0.1, 1000, 5187), (0.5, 10**4, 50004),
     (0.01, 10**4, 51052), (0.9, 3, 10), (0.5, 0, 4)],
)
def test_find_M0_exact_pinned_values(sigma, M, expected):
    assert find_M0(sigma, M, method="exact-binomial") == expected
    # the float locator lands on the answer, so the exact walk takes one test
    assert schedule._locate_M0(Fraction(sigma), M, Fraction(1, 5)) == expected


@settings(max_examples=100, deadline=None)
@given(
    M=st.integers(0, 30),
    p=st.sampled_from(_FLOORS[:-1]),
    sigma=st.fractions(min_value=Fraction(1, 10**9), max_value=1, max_denominator=10**9)
    .filter(lambda f: f < 1),
    offset=st.integers(1, 500),
)
@example(M=0, p=Fraction(1, 3), sigma=Fraction(9, 10), offset=5)  # M0 = M + 1
# sigma equal to the lower tail at m = 3, starting above, at and below it:
# the bound is strict, so M0 = 4
@example(M=0, p=Fraction(1, 5), sigma=Fraction(4, 5) ** 3, offset=6)
@example(M=0, p=Fraction(1, 5), sigma=Fraction(4, 5) ** 3, offset=3)
@example(M=0, p=Fraction(1, 5), sigma=Fraction(4, 5) ** 3, offset=1)
def test_exact_M0_walks_to_the_oracle_from_any_start(M, p, sigma, offset):
    # the locator only steers: from any start above M, backwards or
    # forwards, the exact recurrence reaches the same M0
    assert schedule._exact_M0(sigma, M, p, M + offset) == _brute_find_M0(sigma, M, p=p)


def _horner_lower_tail(m, M, a, b):
    """Oracle: the M-step Horner sum S_j = b S_{j-1} + C(m, j) a^j, times
    b^(m-M), with the point mass C(m, M) a^M b^(m-M)."""
    s = t = 1
    for j in range(1, M + 1):
        t = t * (m - j + 1) * a // j
        s = s * b + t
    rest = b ** (m - M)
    return s * rest, t * rest


@settings(max_examples=200, deadline=None)
@given(M=st.integers(0, 300), extra=st.integers(0, 1500),
       a=st.integers(1, 2**64), b=st.integers(1, 2**64))
# the float floor 0.2 enters as a/q with q = 2^54
@example(M=300, extra=1200, a=3602879701896397, b=14411518807585587)
@example(M=0, extra=0, a=1, b=4)
@example(M=7, extra=0, a=1, b=4)  # m = M: the whole law
def test_lower_tail_matches_the_horner_sum(M, extra, a, b):
    m = M + extra
    assert schedule._lower_tail(m, M, a, b) == _horner_lower_tail(m, M, a, b)


def test_find_M0_conservative():
    # least m >= 51 with exp(-2 (m/5 - 10)^2 / m) <= 0.1
    got = find_M0(0.1, 10, method="hoeffding-conservative")
    assert got == 105
    m = got
    assert m / 5 > 10 and math.exp(-2 * (m / 5 - 10) ** 2 / m) <= 0.1
    assert math.exp(-2 * ((m - 1) / 5 - 10) ** 2 / (m - 1)) > 0.1


# 10^4 + 1 is past the limit where auto switches to Hoeffding
@pytest.mark.parametrize("sigma,M", [(0.5, 0), (0.25, 20), (0.1, 10), (0.9, 3), (0.5, 10**4 + 1)])
def test_find_M0_exact_below_conservative(sigma, M):
    exact = find_M0(sigma, M, method="exact-binomial")
    conservative = find_M0(sigma, M, method="hoeffding-conservative")
    assert exact <= conservative


def test_find_M0_sigma_zero_unsatisfiable():
    with pytest.raises(ValueError, match="unsatisfiable"):
        find_M0(0.0, 5, method="exact-binomial")
    with pytest.raises(ValueError, match="unsatisfiable"):
        find_M0(0.0, 5, method="hoeffding-conservative")


@pytest.mark.parametrize("method", ["exact-binomial", "hoeffding-conservative", "auto"])
def test_find_M0_zero_floor_unsatisfiable(method):
    profile = dataclasses.replace(scaled_profile(), phase1_up_floor=Fraction(0))
    with pytest.raises(ValueError, match="phase1_up_floor.*unsatisfiable"):
        find_M0(0.5, 146, profile, method=method)


# ----------------------------------------------------------------------
# rule-generated schedule
# ----------------------------------------------------------------------


def test_paper_schedule_values(paper_schedule):
    s = paper_schedule
    assert s.a_of_phase(1) == 8
    assert s.a_of_phase(2) == Fraction(399969, 31000)  # 8*5/3.1 - 0.001 exactly
    assert float(s.a_of_phase(2)) == pytest.approx(12.902226, abs=1e-6)
    assert s.length(2) == s.M - 2
    assert s.length(5) == s.M - 2 + 2 * 3
    assert [s.threshold(i) for i in (1, 2, 3)] == [s.M, s.M + 4, s.M + 8]
    assert s.strict_threshold(1) and not s.strict_threshold(2)
    assert s.required_gain(2) == 4


def test_a_of_phase_keeps_int_constants_exact():
    # drift_target = 1 and a_offset = 0: a_2 = 8*5/4 and a_3 = 8*13/6
    profile = dataclasses.replace(paper_profile(), drift_target=1, a_offset=0)
    s = PhaseSchedule(mode="paper-literal", profile=profile, M=10, M0=5)
    assert [s.a_of_phase(i) for i in (2, 3)] == [10, Fraction(52, 3)]
    assert all(type(s.a_of_phase(i)) is Fraction for i in (2, 3))
    # a float anywhere keeps the closed form's float value bit for bit
    for profile in (scaled_profile(), scaled_profile(a_offset=0.0),
                    dataclasses.replace(paper_profile(), drift_target=1, a_offset=1e-3)):
        s = PhaseSchedule(mode="paper-literal", profile=profile, M=10, M0=5)
        mu, off = profile.drift_target, profile.a_offset
        for i in (2, 3, 77, 10**6):
            a = s.a_of_phase(i)
            assert a == 8 * (2 * i * i + 1 - 2 * i) / (2 * i - 1 + mu) - off
            assert type(a) is float


def test_paper_schedule_phase1_sizing(paper_schedule):
    # phase 1 is sized against sigma/2 by default
    assert paper_schedule.sigma_phase1 == Fraction(1, 4)
    assert paper_schedule.M0 == find_M0(Fraction(1, 4), paper_schedule.M)


def test_a_sequence_invariants(paper_schedule):
    s = paper_schedule
    prev = Fraction(8)
    for i in range(2, 2001):
        a = s.a_of_phase(i)
        assert a >= 8
        assert a > prev
        assert a >= 4 * i  # divergence certificate
        prev = a


def test_step_indexing(paper_schedule):
    s = paper_schedule
    assert s.N(0) == 0
    assert s.N(1) == s.M0
    assert s.N(2) == s.M0 + s.M - 2
    assert s.a_of_step(0) == 8
    assert s.a_of_step(s.M0 - 1) == 8
    assert s.a_of_step(s.M0) == s.a_of_phase(2)
    assert s.a_of_step(s.N(2)) == s.a_of_phase(3)
    ns = [s.N(i) for i in range(8)]
    assert all(b > a for a, b in zip(ns, ns[1:]))


def test_phase_of_step_boundaries():
    s = user_schedule(scaled_profile(), lengths=[3, 1, 2],
                      a_values=[8.0, 9.0, 9.0], thresholds=[1, 2, 3])
    assert [s.phase_of_step(n) for n in range(6)] == [1, 1, 1, 2, 3, 3]
    with pytest.raises(ValueError, match="beyond the last defined phase"):
        s.phase_of_step(6)
    with pytest.raises(ValueError):
        s.phase_of_step(-1)


def test_schedule_json_round_trip(paper_schedule, cond_schedule):
    for sched in (paper_schedule, cond_schedule):
        back = PhaseSchedule.from_json(sched.to_json())
        assert back.to_jsonable() == sched.to_jsonable()
        assert back.schedule_hash() == sched.schedule_hash()
        for i in (1, 2, 3):
            assert back.length(i) == sched.length(i)
            assert float(back.a_of_phase(i)) == float(sched.a_of_phase(i))
            assert float(back.threshold(i)) == float(sched.threshold(i))


def test_user_schedule_validation():
    prof = scaled_profile()
    with pytest.raises(ValueError, match="a = 8"):
        user_schedule(prof, [10, 10], [9.0, 9.0], [5, 6])
    with pytest.raises(ValueError, match="nondecreasing"):
        user_schedule(prof, [10, 10, 10], [8.0, 10.0, 9.0], [5, 6, 7])
    with pytest.raises(ValueError, match=">= 8"):
        user_schedule(prof, [10, 10], [8.0, 7.5], [5, 6])
    with pytest.raises(ValueError, match=">= 8"):
        user_schedule(prof, [10, 10], [8.0, float("nan")], [5, 6])
    with pytest.raises(ValueError, match="a_start"):
        steady_drift_schedule(3, a_start=float("nan"))
    with pytest.raises(ValueError, match="equal length"):
        user_schedule(prof, [10], [8.0, 9.0], [5, 6])
    with pytest.raises(ValueError):
        user_schedule(prof, [10, 0], [8.0, 9.0], [5, 6])
    with pytest.raises(ValueError, match="defines 2 phases"):
        user_schedule(prof, [10, 10], [8.0, 9.0], [5, 6]).length(3)
    # a phase 1 of M0 < 1 steps
    paper = json.loads(build_paper_schedule(0.5, prof).to_json())
    for m0 in (-5, 0):
        with pytest.raises(ValueError, match="M0"):
            PhaseSchedule.from_json(json.dumps(dict(paper, M0=m0)))
    # phase indices other than exactly 1..n
    user = json.loads(user_schedule(prof, [10, 10, 10], [8.0, 9.0, 9.0], [5, 6, 7]).to_json())
    for indices in ([1, 1, 2], [1, 2, 4], [0, 1, 2], [2, 3, 4]):
        doc = dict(user, phases=[dict(row, i=i) for row, i in zip(user["phases"], indices)])
        with pytest.raises(ValueError, match="1..n"):
            PhaseSchedule.from_json(json.dumps(doc))
    shuffled = dict(user, phases=user["phases"][::-1])
    assert json.loads(PhaseSchedule.from_json(json.dumps(shuffled)).to_json()) == user
    # thresholds must be finite; a = inf, the limiting case a_n = +inf, stays
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="thresholds must be finite"):
            user_schedule(prof, [10, 10], [8.0, 9.0], [5, bad])
    assert user_schedule(prof, [10, 10], [8.0, float("inf")], [5, 6]).a_of_phase(2) == math.inf


def test_build_paper_schedule_rejects_bad_sigma():
    with pytest.raises(ValueError):
        build_paper_schedule(0.0)
    with pytest.raises(ValueError):
        build_paper_schedule(1.0)


# ----------------------------------------------------------------------
# feasibility
# ----------------------------------------------------------------------


def test_paper_schedule_is_infeasible(paper_schedule):
    report = check_schedule_feasibility(paper_schedule, 10)
    assert report.first_violation is not None
    i, reason = report.first_violation
    assert i == 2 and reason == "gain below required threshold step"
    row = report.phase(2)
    assert row.drift > 0            # the drift itself is still positive at i = 2
    assert row.gain < row.required_gain
    # the worst-case height arithmetic is tight at every phase: T_{i-1} - L_i = 2i-2
    assert all(p.height_margin == 0 for p in report.phases)


def test_feasibility_height_margin_definition(cond_schedule):
    report = check_schedule_feasibility(cond_schedule, 10)
    assert report.ok
    row = report.phase(2)
    expected = float(cond_schedule.threshold(1)) - cond_schedule.length(2) - 2
    assert row.height_margin == expected
    # phase 2 gains enough, but 2000 steps down from T_1 = 10 end far below 0
    report = check_schedule_feasibility(
        user_schedule(scaled_profile(), [30, 2000], [8.0, 8.5], [10, 20]), 2)
    assert report.first_violation == (2, "worst-case height margin negative")
    row = report.phase(2)
    assert row.gain >= row.required_gain and row.height_margin == -1992.0


def test_feasibility_report_serialization(cond_schedule):
    report = check_schedule_feasibility(cond_schedule, 5)
    doc = report.to_jsonable()
    assert doc["ok"] is True and doc["first_violation"] is None
    assert len(doc["phases"]) == 4
    rows = list(report.csv_rows())
    assert rows[0][0] == "i"
    assert len(rows) == 5


def test_log_growth_template():
    sched = log_growth_schedule(300)
    assert sched.a_of_phase(2) == 8.0
    assert sched.a_of_phase(200) == max(8.0, 4.0 * math.log(202.0))
    assert sched.length(50) == 50**3
    report = check_schedule_feasibility(sched, 300)
    assert report.ok
    # spot-check one phase by hand: gain covers the threshold step exactly
    from stairwalk.domination import dominated_drift

    i = 123
    drift = dominated_drift(i, float(sched.a_of_phase(i)), float(sched.profile.slack))
    g = concentration_gain(sched.length(i), drift, 1)
    assert sched.required_gain(i) == math.floor(g)
    assert drift == pytest.approx(report.phase(i).drift)


# m below 2*10^5 at which math.log(m) and numpy 2.4's log differ by an ulp;
# other m are rare enough that random draws alone seldom meet one
_LOG_ULP_APART = (9170, 19143, 94869, 102327, 136085, 136837, 141614, 147674)


@st.composite
def _floor_cases(draw):
    """(L, delta, K): delta drawn freely, or placed so that the gain lies
    within a few ulps of an integer n, where floor(g) turns on the last bit."""
    L = draw(st.one_of(st.integers(1, 10**7), st.sampled_from(_LOG_ULP_APART)))
    K = draw(st.integers(1, 4))
    if draw(st.booleans()):
        return L, draw(st.floats(-1.0, 1.0)), K
    x = float(L)
    n = draw(st.integers(-L, L))
    delta = (n + 2.0 * math.sqrt(K * x * math.log(x))) / x
    return L, _nudged(delta, draw(st.integers(-4, 4))), K


@seed(20261020)
@settings(max_examples=400, deadline=None)
@given(case=_floor_cases())
# math.log(9170) and np.log(9170) differ by an ulp: at this delta the gain in
# math is 6.999999999999886 and numpy's is 7.0, so a floor taken in math
# alone would give 6
@example(case=(9170, 0.06384901851733056, 1))
@example(case=(1, 1.0, 1))      # ln 1 = 0: g = delta, an integer
@example(case=(1, -0.0, 1))
def test_gain_floor_is_the_numpy_floor(case):
    L, delta, K = case
    assert schedule._gain_floor(L, delta, K) == math.floor(concentration_gain(L, delta, K))


def test_gain_schedules_are_unchanged_when_numpy_makes_every_decision(monkeypatch):
    # an infinite band sends every gain through concentration_gain
    built = {"steady": lambda: steady_drift_schedule(10, sigma=0.01),
             "log": lambda: log_growth_schedule(300)}
    expected = {name: build().to_json() for name, build in built.items()}
    calls = []
    monkeypatch.setattr(schedule, "_GAIN_BAND", math.inf)
    monkeypatch.setattr(schedule, "concentration_gain",
                        lambda *a: calls.append(a[0]) or concentration_gain(*a))
    assert {name: build().to_json() for name, build in built.items()} == expected
    assert len(calls) == 9 + 299


@pytest.mark.parametrize("build,name", [
    (lambda: steady_drift_schedule(4, length=0), "length"),
    (lambda: steady_drift_schedule(4, length=-5), "length"),
    (lambda: steady_drift_schedule(4, length=math.nan), "length"),
    # a fractional length would size the gains at 1000.5 but run 1000 steps
    (lambda: steady_drift_schedule(4, length=1000.5), "length"),
    (lambda: steady_drift_schedule(4, a_start=math.inf), "a_start"),
    (lambda: steady_drift_schedule(4, a_step=math.nan), "a_step"),
    (lambda: steady_drift_schedule(4, a_step=math.inf), "a_step"),
    (lambda: steady_drift_schedule(4, a_step=-0.5), "a_step"),
    (lambda: steady_drift_schedule(4, t1=math.nan), "t1"),
    (lambda: log_growth_schedule(4, length_scale=math.nan), "length_scale"),
    (lambda: log_growth_schedule(4, length_scale=math.inf), "length_scale"),
    (lambda: log_growth_schedule(4, t1=math.nan), "t1"),
])
def test_gain_schedule_builders_reject_bad_inputs_up_front(build, name):
    # each is a ValueError naming its parameter, raised before any gain is
    # taken, so no numpy or math warning or error comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            build()


def test_steady_drift_template(cond_schedule):
    s = cond_schedule
    assert s.length(1) == 5482          # exact-binomial sizing at sigma/2 = 0.005
    assert s.threshold(1) == 1020
    assert check_schedule_feasibility(s, 10).ok
    assert s.n_phases == 10


# sha256 of `to_json()` for the two gain-schedule families: the conftest's
# conditional-success schedule, the default three-phase one, and the
# log-growth template at 300 phases and at 10^4 (acceptance's size).  Every
# threshold is a sum of floor(G_i), so one gain rounded the other way moves
# these bytes.
GOLDEN_GAIN_SCHEDULES = {
    "steady_10": "a16f06bf4c8f097161fb506fba3f5f500c9bbccc2d8455b0988acddb73c7a08e",
    "steady_3": "9259d5b7111b007a313b664a077bb8614e97351ebfd4c70bfca1c39bad47f48e",
    "log_300": "4340cfaed8cd660de7f963b156cbf0f6942361751f3735b77c5966e026d38dd1",
    "log_10000": "d9924078a0bdb1a9f3099d16e05a65c5bac33197b10878d9c933f067024fbbb6",
}


def test_golden_gain_schedules():
    built = {
        "steady_10": steady_drift_schedule(10, sigma=0.01),
        "steady_3": steady_drift_schedule(3),
        "log_300": log_growth_schedule(300),
        "log_10000": log_growth_schedule(10**4),
    }
    got = {name: hashlib.sha256(s.to_json().encode()).hexdigest()
           for name, s in built.items()}
    assert got == GOLDEN_GAIN_SCHEDULES


def test_gain_schedules_take_numpy_integers():
    # a numpy integer length or t1 gives the JSON bytes of the plain int
    assert (steady_drift_schedule(3, length=np.int64(1000)).to_json()
            == steady_drift_schedule(3, length=1000).to_json())
    assert (steady_drift_schedule(3, t1=np.int64(1100)).to_json()
            == steady_drift_schedule(3, t1=1100).to_json())
    assert (log_growth_schedule(5, t1=np.int64(100)).to_json()
            == log_growth_schedule(5, t1=100).to_json())
