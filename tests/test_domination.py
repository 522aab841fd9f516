"""Dominated step variables, CDF dominance, and the monotone coupling."""

from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stairwalk import (
    StepDistribution,
    coupled_sample_many,
    flat_step_distribution,
    mean_z,
    scaled_profile,
    user_schedule,
    z_distribution,
)
from stairwalk.domination import _c_b, _z_ratio, dominated_drift


def test_z_distribution_paper_i2(paper_schedule):
    z = z_distribution(2, paper_schedule)
    a = Fraction(399969, 31000)
    eps = Fraction(1, 10000)
    assert z.c == (Fraction(1, 2) - 4 / a) * Fraction(4, 5) + eps
    assert z.b == (Fraction(1, 2) + 4 / a) * Fraction(1, 5) - eps
    assert z.c + z.b + z.stay == 1
    assert z.mean == mean_z(2, paper_schedule)
    assert float(z.mean) == pytest.approx(0.009824026862, abs=1e-12)


def test_z_distribution_rejects_phase1(paper_schedule):
    with pytest.raises(ValueError):
        z_distribution(1, paper_schedule)
    with pytest.raises(ValueError):
        mean_z(0, paper_schedule)


def test_z_large_a_limit():
    # as a -> infinity the masses approach i^2/(2D) + eps and (i-1)^2/(2D) - eps
    prof = scaled_profile()
    sched = user_schedule(prof, [10, 10], [8.0, 1e12], [1, 2])
    z = z_distribution(2, sched)
    d = 5
    assert z.c == pytest.approx(4 / (2 * d) + prof.slack, abs=1e-10)
    assert z.b == pytest.approx(1 / (2 * d) - prof.slack, abs=1e-10)
    # and the mean goes negative: -(2i-1)/(2D) - 2 eps
    assert z.mean == pytest.approx(-3 / (2 * d) - 2 * prof.slack, abs=1e-10)


@pytest.mark.parametrize("i", [2, 3, 7, 50])
@pytest.mark.parametrize("mu", [Fraction(1, 10), Fraction(3, 20)])
def test_mean_hits_target_for_solved_a(i, mu):
    # with zero slack and a solved from the target drift, the mean is exact
    d = i * i + (i - 1) ** 2
    a = 4 / (mu + Fraction(2 * i - 1, 2 * d))
    assert a > 8
    assert dominated_drift(i, a, Fraction(0)) == mu


@settings(max_examples=100, deadline=None)
@given(i=st.integers(2, 10**6),
       a=st.one_of(st.integers(8, 10**4),
                   st.fractions(min_value=8, max_value=10**4, max_denominator=10**6),
                   st.floats(min_value=8, max_value=1e4)),
       slack=st.one_of(st.fractions(min_value=0, max_value=Fraction(1, 100),
                                    max_denominator=10**5),
                       st.floats(min_value=0, max_value=0.01)))
def test_z_matches_fraction_chain(i, a, slack):
    """Z_i and its mean, from integers when exact and in float otherwise,
    are the chain c_i = (a-8)/(2a) i^2/D + slack and
    b_i = (a+8)/(2a) (i-1)^2/D - slack in the inputs' arithmetic."""
    schedule = SimpleNamespace(a_of_phase=lambda i: a, profile=SimpleNamespace(slack=slack))
    a_ = Fraction(a) if isinstance(a, int) else a
    d = i * i + (i - 1) * (i - 1)
    c = (a_ - 8) / (2 * a_) * (i * i) / d + slack
    b = (a_ + 8) / (2 * a_) * ((i - 1) * (i - 1)) / d - slack
    z = z_distribution(i, schedule)
    assert (z.c, z.b, z.stay) == (c, b, 1 - c - b)
    assert type(z.c) is type(c)
    mean = mean_z(i, schedule)
    assert mean == b - c and type(mean) is type(b - c)
    drift = dominated_drift(i, a, slack)
    assert drift == mean and type(drift) is type(mean)


def test_int_a_stays_exact():
    drift = dominated_drift(3, 16, Fraction(1, 10000))
    assert drift == Fraction(3737, 65000) and type(drift) is Fraction
    assert drift == dominated_drift(3, Fraction(16), Fraction(1, 10000))


@settings(max_examples=300, deadline=None)
@given(i=st.integers(2, 10**6), a=st.floats(min_value=8, max_value=1e6),
       slack=st.floats(min_value=0, max_value=0.01))
def test_z_ratio_gives_back_the_float_masses(i, a, slack):
    c, b, den = _z_ratio(i, a, slack)
    assert den > 0
    assert (c / den, b / den) == _c_b(i, a, slack)


def test_validity_bounds_along_rule_values(paper_schedule):
    eps = Fraction(1, 10000)
    for i in list(range(2, 200)) + [1000, 10**4, 10**6]:
        z = z_distribution(i, paper_schedule)
        assert z.c <= Fraction(2, 5) + eps
        assert z.b < Fraction(9, 20)


def test_domination_margin_equals_slack_at_x_equal_i(paper_schedule):
    # exact equality case: at x = i the binding margins are exactly the slack
    eps = paper_schedule.profile.slack
    for i in (2, 5, 41):
        z = z_distribution(i, paper_schedule)
        a = paper_schedule.a_of_phase(i)
        diag = flat_step_distribution(2 * (i - 1), a)
        sub = flat_step_distribution(2 * i - 3, a)
        assert z.c - diag.p_down == eps
        assert sub.p_up - z.b == eps
        # the other parity at x = i has strictly larger margin
        assert z.c - sub.p_down > eps
        assert diag.p_up - z.b > eps


# ----------------------------------------------------------------------
# coupling
# ----------------------------------------------------------------------


def _z(c, b, i=2):
    from stairwalk import ZDistribution

    return ZDistribution(i=i, c=c, b=b, stay=1 - c - b)


def _coupled_sample(u, step, z):
    """One draw through `coupled_sample_many`, as a pair of ints."""
    sv, zv = coupled_sample_many([u], step, z)
    return int(sv[0]), int(zv[0])


def test_coupled_sample_interval_structure():
    step = StepDistribution(0.1, 0.5, 0.4)
    z = _z(c=0.2, b=0.3)
    # u below both down-masses
    assert _coupled_sample(0.05, step, z) == (-1, -1)
    # u in [p_down, c): step has moved on to 0/+1, z still at -1
    step_val, z_val = _coupled_sample(0.15, step, z)
    assert z_val == -1 and step_val >= 0
    # u at the top of both
    assert _coupled_sample(0.99, step, z) == (1, 1)
    # u in the middle band
    assert _coupled_sample(0.5, step, z) == (0, 0)


def test_coupled_sample_rejects_undominated():
    step = StepDistribution(0.3, 0.4, 0.3)
    bad = _z(c=0.1, b=0.5)  # c < p_down and b > p_up
    with pytest.raises(ValueError, match="dominate"):
        _coupled_sample(0.5, step, bad)
    for u in (1.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            _coupled_sample(u, step, _z(0.4, 0.2))
    with pytest.raises(ValueError, match=r"\[0, 1\)"):
        coupled_sample_many([0.5, float("nan")], step, _z(0.4, 0.2))


@given(st.data())
def test_coupling_is_monotone_and_marginal_exact(data):
    # random dominated pair: c >= p_down, b <= p_up
    p_down = data.draw(st.floats(0.0, 0.4))
    p_up = data.draw(st.floats(0.1, 1.0 - p_down - 0.05))
    c = data.draw(st.floats(p_down, min(0.9, p_down + 0.4)))
    b = data.draw(st.floats(0.0, p_up))
    if c + b >= 1:
        return
    step = StepDistribution(p_down, 1 - p_down - p_up, p_up)
    z = _z(c=c, b=b)
    u = data.draw(st.floats(0.0, 1.0, exclude_max=True))
    s_val, z_val = _coupled_sample(u, step, z)
    assert s_val >= z_val
    assert s_val == (-1 if u < p_down else (1 if u >= 1 - p_up else 0))
    assert z_val == (-1 if u < c else (1 if u >= 1 - b else 0))


def test_coupled_sample_many_matches_scalar_and_masses():
    step = StepDistribution(0.15, 0.45, 0.4)
    z = _z(c=0.25, b=0.3)
    n = 100_000
    u = (np.arange(n) + 0.5) / n  # stratified
    sv, zv = coupled_sample_many(u, step, z)
    assert (sv >= zv).all()
    # a one-draw call gives the batch's entry
    for k in (0, 1, n // 2, n - 1):
        assert _coupled_sample(float(u[k]), step, z) == (int(sv[k]), int(zv[k]))
    # stratified frequencies are within 1/n of the exact masses
    for vals, law in ((sv, (0.15, 0.45, 0.4)), (zv, (0.25, 0.45, 0.3))):
        freq = [(vals == v).mean() for v in (-1, 0, 1)]
        assert np.allclose(freq, law, atol=1.5 / n)


@pytest.mark.parametrize("a, s", [(8.0, 6), (8.0, 0), (12.0, 7)])
def test_coupled_sample_many_returns_int64(a, s):
    """Both arrays are int64, also for an a = 8 step law, which has no
    down atom."""
    step = flat_step_distribution(s, a)
    z = _z(c=float(step.p_down), b=float(step.p_up) / 2)
    u = np.linspace(0.0, 1.0, 101)[:-1]
    sv, zv = coupled_sample_many(u, step, z)
    assert sv.dtype == zv.dtype == np.int64
    assert (sv >= zv).all()
    assert sv.tolist() == [-1 if x < step.p_down else (1 if x >= 1 - step.p_up else 0)
                           for x in u.tolist()]


def test_pathwise_sum_domination():
    step = StepDistribution(0.2, 0.3, 0.5)
    z = _z(c=0.35, b=0.25)
    rng = np.random.Generator(np.random.Philox(key=[7, 9]))
    u = rng.random(5000)
    sv, zv = coupled_sample_many(u, step, z)
    assert (np.cumsum(sv) >= np.cumsum(zv)).all()
