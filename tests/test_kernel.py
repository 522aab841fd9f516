"""Step laws: flat kernel, 2D kernel variants, and their exact equivalence."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stairwalk import (
    DEFINITION_LITERAL,
    LEMMA_CONSISTENT,
    StairState,
    StepDistribution,
    flat_step_distribution,
    kernel_equivalence_check,
    stair_step_distribution,
)
from stairwalk.kernel import (
    flat_step_probs_at,
    flat_step_probs_on,
    monotonicity_violation,
    step_geometry,
    step_prob_tables,
)

A2_PAPER = Fraction(399969, 31000)  # rule value of a_2 under the original constants


def g_up(x: int) -> Fraction:
    """(x-1)^2 / (x^2 + (x-1)^2): the height ratio of the sub-diagonal up
    step, the oracle for monotonicity_violation."""
    return Fraction((x - 1) ** 2, x * x + (x - 1) ** 2)


def g_down(x: int) -> Fraction:
    """x^2 / (x^2 + (x-1)^2): the height ratio of the diagonal down step."""
    return Fraction(x * x, x * x + (x - 1) ** 2)


def test_flat_step_examples_exact():
    assert flat_step_distribution(0, 8).as_tuple() == (0, Fraction(1, 2), Fraction(1, 2))
    assert flat_step_distribution(1, 8).as_tuple() == (0, Fraction(4, 5), Fraction(1, 5))
    law = flat_step_distribution(4, 20)
    assert law.p_down == Fraction(27, 130)
    assert law.p_up == Fraction(7, 20)
    assert law.p_stay == 1 - Fraction(27, 130) - Fraction(7, 20)


def test_flat_step_rejects_bad_inputs():
    with pytest.raises(ValueError):
        flat_step_distribution(-1, 8)
    with pytest.raises(ValueError):
        flat_step_distribution(0, 7.999)
    with pytest.raises(ValueError):
        StepDistribution(0.5, 0.2, 0.2)  # does not sum to 1
    # NaN compares false both ways, so it must fail `a >= 8` and `0 <= p <= 1`
    nan = float("nan")
    with pytest.raises(ValueError, match="a >= 8"):
        flat_step_distribution(2, nan)
    with pytest.raises(ValueError, match="a >= 8"):
        step_prob_tables(5, nan)
    with pytest.raises(ValueError, match="outside"):
        StepDistribution(nan, 0.5, 0.5)


@given(
    st.integers(min_value=0, max_value=10**6),
    st.floats(min_value=np.log(8.0), max_value=np.log(1e9)),
)
def test_flat_step_is_a_distribution(s, log_a):
    law = flat_step_distribution(s, max(8.0, float(np.exp(log_a))))
    p = law.as_tuple()
    assert all(0 <= v <= 1 for v in p)
    assert abs(sum(p) - 1) < 1e-15


def test_phase1_facts_at_a8():
    # p_down vanishes everywhere and p_up >= 1/5 with equality only at s = 1
    for s in [0, 1, 2, 3, 17, 10**6]:
        law = flat_step_distribution(s, 8)
        assert law.p_down == 0
        assert law.p_up >= Fraction(1, 5)
        assert (law.p_up == Fraction(1, 5)) == (s == 1)


def test_drift_positive_where_condition_holds():
    # positivity at a given height is exactly the condition
    # (1/2 - 4/a) g_down(x) < 1/4 + 2/a on diagonals (and its mirror on
    # sub-diagonals); it holds for every x once x ~ a/16, not before
    for a in (8.0, 12.9, 100.0, 1e4):
        x_lo = int(a) + 1
        s = np.arange(2 * (x_lo - 1), 2 * (x_lo + 2000), dtype=np.int64)
        p_down, p_up = flat_step_probs_at(s, a)
        assert (p_up - p_down > 0).all()
    # at a = 8 the drift is positive everywhere (p_down = 0)
    s = np.arange(0, 5000, dtype=np.int64)
    p_down, p_up = flat_step_probs_at(s, 8.0)
    assert (p_down == 0).all() and (p_up - p_down > 0).all()
    # ... and for large a it really is negative low on the stair
    p_down, p_up = flat_step_probs_at(np.array([2]), 100.0)  # state (2, 2)
    assert p_up[0] < p_down[0]


def test_vector_kernel_matches_scalar():
    s = np.arange(0, 512, dtype=np.int64)
    for a in (8.0, 13.25, 1e4):
        p_down, p_up = flat_step_probs_at(s, a)
        for k in (0, 1, 2, 3, 100, 511):
            law = flat_step_distribution(int(k), a)
            assert p_down[k] == pytest.approx(law.p_down, abs=1e-15)
            assert p_up[k] == pytest.approx(law.p_up, abs=1e-15)
    tab = step_prob_tables(511, 13.25)
    np.testing.assert_array_equal(tab[0], flat_step_probs_at(s, 13.25)[0])


@settings(max_examples=300)
@given(
    st.lists(st.integers(min_value=0, max_value=5000), max_size=64),
    st.floats(min_value=8.0, max_value=1e16),
)
def test_probs_gathered_from_a_table_match_direct(values, a):
    """A table over [0, max s], indexed by s, holds the same bits as the
    law evaluated at s itself: the simulator's per-step table for a rule."""
    s = np.array(values + [0], dtype=np.int64)
    tab_down, tab_up = flat_step_probs_at(np.arange(s.max() + 1, dtype=np.int64), a)
    p_down, p_up = flat_step_probs_at(s, a)
    np.testing.assert_array_equal(tab_down[s], p_down)
    np.testing.assert_array_equal(tab_up[s], p_up)
    np.testing.assert_array_equal(1.0 - tab_up[s], 1.0 - p_up)


@settings(max_examples=300)
@given(
    st.lists(st.integers(min_value=0, max_value=5000), max_size=64),
    st.integers(min_value=0, max_value=200),
    st.one_of(st.floats(min_value=8.0, max_value=1e16), st.just(float("inf")),
              st.integers(min_value=8, max_value=10**6),
              st.floats(min_value=8.0, max_value=1e16).map(np.float32)),
)
def test_law_on_a_geometry_slice_matches_direct(values, extra, a):
    """The law on the head [:m + 1] of a geometry built over a longer range
    (the simulator's rule table) holds the same bits as the law at the
    positions themselves, for any kind of a."""
    s = np.array(values + [0], dtype=np.int64)
    m = int(s.max())
    geometry = step_geometry(np.arange(m + extra + 1, dtype=np.int64))
    p_down, p_up = flat_step_probs_on(tuple(g[:m + 1] for g in geometry), a)
    ref_down, ref_up = flat_step_probs_at(np.arange(m + 1), a)
    for got, ref in ((p_down, ref_down), (p_up, ref_up), (1.0 - p_up, 1.0 - ref_up)):
        assert got.dtype == ref.dtype == np.float64
        np.testing.assert_array_equal(got, ref)
    direct_down, direct_up = flat_step_probs_at(s, a)
    np.testing.assert_array_equal(p_down[s], direct_down)
    np.testing.assert_array_equal(p_up[s], direct_up)


def test_stair_step_examples():
    law = stair_step_distribution(StairState(2, 2), 8)
    assert law == {
        StairState(2, 1): 0,
        StairState(2, 2): Fraction(1, 2),
        StairState(3, 2): Fraction(1, 2),
    }
    law = stair_step_distribution(StairState(2, 1), 8)
    assert law == {
        StairState(1, 1): 0,
        StairState(2, 1): Fraction(4, 5),
        StairState(2, 2): Fraction(1, 5),
    }


def test_variant_discrepancy_on_sub_diagonal():
    # backward mass at a = 16: literal reading gives (1/2 + 4/16)/2 = 3/8,
    # the flattened law requires 1/4 - 2/16 = 1/8
    lemma = stair_step_distribution(StairState(2, 1), 16, LEMMA_CONSISTENT)
    literal = stair_step_distribution(StairState(2, 1), 16, DEFINITION_LITERAL)
    assert lemma[StairState(1, 1)] == Fraction(1, 8)
    assert literal[StairState(1, 1)] == Fraction(3, 8)
    # diagonal states are unaffected
    assert stair_step_distribution(StairState(3, 3), 16, LEMMA_CONSISTENT) == \
        stair_step_distribution(StairState(3, 3), 16, DEFINITION_LITERAL)


def test_boundary_mass_stays_at_corner():
    law = stair_step_distribution(StairState(1, 1), 8)
    assert StairState(1, 0) not in law
    assert law[StairState(1, 1)] == Fraction(1, 2)
    assert sum(law.values()) == 1


def test_equivalence_check_small():
    report = kernel_equivalence_check(25, [8, A2_PAPER, 100, 10**6])
    lemma = report.result(LEMMA_CONSISTENT)
    assert lemma.mismatch_count == 0
    literal = report.result(DEFINITION_LITERAL)
    # mismatches on every sub-diagonal state, for every a (including a = 8,
    # where the literal reading sends the walk down with probability 1/2)
    assert literal.mismatch_count == 24 * 4
    assert all(m["state"][0] == m["state"][1] + 1 for m in literal.mismatches)


def test_equivalence_check_at_a8_literal_mismatch():
    report = kernel_equivalence_check(5, [8])
    literal = report.result(DEFINITION_LITERAL)
    assert literal.mismatch_count == 4
    m = literal.mismatches[0]
    assert m["got"][0] == "1/2"        # down-probability under the literal text
    assert m["expected"][0] == "0"     # the flattened law at a = 8


def test_equivalence_report_jsonable():
    report = kernel_equivalence_check(3, [8.0])
    doc = report.to_jsonable()
    assert {r["variant"] for r in doc["results"]} == {
        LEMMA_CONSISTENT,
        DEFINITION_LITERAL,
    }
    assert all("mismatches" in r for r in doc["results"])


# ----------------------------------------------------------------------
# height-ratio monotonicity
# ----------------------------------------------------------------------


def test_height_ratio_values():
    assert g_up(1) == 0
    assert g_up(2) == Fraction(1, 5)
    assert g_down(1) == 1
    assert g_down(2) == Fraction(4, 5)
    assert g_up(3) + g_down(3) == 1


def test_monotonicity_exact():
    assert monotonicity_violation(10**4) is None


def _cross_multiplied(x: int) -> tuple[int, int]:
    """The differences whose signs decide g_up(x+1) > g_up(x) and
    g_down(x+1) < g_down(x), in Python integers."""
    dx, dx1 = x * x + (x - 1) ** 2, (x + 1) ** 2 + x * x
    return x * x * dx - (x - 1) ** 2 * dx1, x * x * dx1 - (x + 1) ** 2 * dx


def test_monotonicity_expansion_matches_cross_multiplication():
    # Both differences and 2x^2 - 1 are polynomials in x of degree <= 4, so
    # agreeing at 5 or more points proves the identity for every x.
    x = np.arange(1, 10**4 + 1, dtype=np.int64)
    expansion = (2 * x * x - 1).tolist()
    assert [_cross_multiplied(v) for v in range(1, 10**4 + 1)] == [(e, e) for e in expansion]
    first_bad = next((v for v in range(1, 10**4 + 1) if min(_cross_multiplied(v)) <= 0), None)
    assert monotonicity_violation(10**4 + 1) == first_bad
    with pytest.raises(ValueError):
        monotonicity_violation(2**31 + 1)  # 2x^2 would overflow int64


@settings(max_examples=200)
@given(st.integers(min_value=1, max_value=10**9))
def test_monotonicity_pointwise(x):
    assert g_up(x + 1) > g_up(x)
    assert g_down(x + 1) < g_down(x)
