"""Stair geometry, flattening bijection, weights, and the constants profile."""

import json
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from stairwalk import (
    ConstantsProfile,
    OffStairError,
    StairState,
    acceptance_ratio,
    backward_neighbor,
    flatten,
    forward_neighbor,
    paper_profile,
    scaled_profile,
    unflatten,
    weight,
)


def test_flatten_examples():
    assert flatten(StairState(1, 1)) == 0
    assert flatten(StairState(2, 1)) == 1      # 2x - 3 at x = 2
    assert flatten(StairState(3, 3)) == 4      # 2(x - 1) at x = 3


def test_unflatten_examples():
    assert unflatten(0) == StairState(1, 1)
    assert unflatten(5) == StairState(4, 3)
    assert unflatten(6) == StairState(4, 4)


def test_flatten_rejects_off_stair():
    for bad in [(1, 2), (3, 1), (0, 0), (1, 0), (-1, -1)]:
        with pytest.raises(OffStairError):
            flatten(StairState(*bad))
    with pytest.raises(ValueError):
        unflatten(-1)


@given(st.integers(min_value=1, max_value=10**6), st.booleans())
def test_round_trip_states(x, diagonal):
    if not diagonal and x == 1:
        x = 2
    state = StairState(x, x) if diagonal else StairState(x, x - 1)
    assert unflatten(flatten(state)) == state


@given(st.integers(min_value=0, max_value=2 * 10**6))
def test_round_trip_positions(s):
    assert flatten(unflatten(s)) == s
    # parity law: even <-> diagonal
    assert (s % 2 == 0) == unflatten(s).diagonal


def test_neighbors():
    assert forward_neighbor(StairState(2, 2)) == StairState(3, 2)
    assert forward_neighbor(StairState(3, 2)) == StairState(3, 3)
    assert backward_neighbor(StairState(3, 3)) == StairState(3, 2)
    assert backward_neighbor(StairState(3, 2)) == StairState(2, 2)
    assert backward_neighbor(StairState(1, 1)) is None


def test_neighbors_shift_flat_position_by_one():
    for s in range(0, 200):
        state = unflatten(s)
        assert flatten(forward_neighbor(state)) == s + 1
        back = backward_neighbor(state)
        if s == 0:
            assert back is None
        else:
            assert flatten(back) == s - 1


def test_weight_examples():
    assert weight(1) == 1
    assert weight(2) == Fraction(1, 4)
    with pytest.raises(OffStairError):
        weight(0)


def test_weight_strictly_decreasing():
    assert all(weight(j + 1) < weight(j) for j in range(1, 2000))


def test_two_states_per_level():
    # the stair has exactly the states (j, j) and (j+1, j) at level j
    for j in range(1, 50):
        level = [StairState(j, j), StairState(j + 1, j)]
        assert sum(weight(st.y) for st in level) == 2 * weight(j)


def test_acceptance_ratio_examples():
    assert acceptance_ratio(StairState(2, 2), StairState(2, 1)) == Fraction(4, 5)
    assert acceptance_ratio(StairState(2, 1), StairState(2, 2)) == Fraction(1, 5)
    # same level on both sides: forward from any diagonal state
    assert acceptance_ratio(StairState(7, 7), StairState(8, 7)) == Fraction(1, 2)


def test_acceptance_ratio_boundary_and_errors():
    with pytest.raises(OffStairError):
        acceptance_ratio(StairState(1, 1), StairState(1, 0))
    with pytest.raises(ValueError):
        acceptance_ratio(StairState(2, 2), StairState(4, 4))


@given(st.integers(min_value=1, max_value=10**4))
def test_acceptance_ratio_complement(s):
    a, b = unflatten(s - 1), unflatten(s)
    assert acceptance_ratio(a, b) + acceptance_ratio(b, a) == 1
    assert 0 < acceptance_ratio(a, b) < 1


# ----------------------------------------------------------------------
# constants profile
# ----------------------------------------------------------------------


def test_paper_profile_values():
    p = paper_profile()
    assert p.drift_floor == Fraction(1, 100)
    assert p.drift_target == Fraction(1, 10)
    assert p.slack == Fraction(1, 10000)
    assert p.a_offset == Fraction(1, 1000)
    assert p.overshoot == 4
    assert p.hoeffding_K == 1
    assert p.phase1_a == 8
    assert p.phase1_up_floor == Fraction(1, 5)


def test_profile_validation():
    with pytest.raises(ValueError):
        scaled_profile(drift_floor=0.5, drift_target=0.5)  # floor+2eps < target
    with pytest.raises(ValueError):
        scaled_profile(overshoot=0.0)
    with pytest.raises(ValueError):
        scaled_profile(hoeffding_K=0)
    with pytest.raises(ValueError):
        ConstantsProfile(
            drift_floor=0.1, drift_target=0.2, slack=0.0, a_offset=0.0,
            overshoot=4, hoeffding_K=1, phase1_a=7.9,
        )


def test_profile_rejects_non_finite_numbers():
    for name, value in [("phase1_a", math.nan), ("a_offset", math.inf),
                        ("overshoot", math.inf), ("drift_target", math.nan)]:
        with pytest.raises(ValueError, match=f"'{name}' must be finite"):
            replace(scaled_profile(), **{name: value})


def test_profile_json_round_trip_exact():
    p = paper_profile()
    q = ConstantsProfile.from_json(p.to_json())
    assert q == p
    assert isinstance(q.drift_target, Fraction)

    r = scaled_profile()
    assert ConstantsProfile.from_json(r.to_json()) == r


def test_profile_json_rejects_unknown_and_missing():
    doc = json.loads(paper_profile().to_json())
    doc["mystery"] = 1
    with pytest.raises(ValueError, match="unknown"):
        ConstantsProfile.from_json(json.dumps(doc))
    del doc["mystery"]
    del doc["slack"]
    with pytest.raises(ValueError, match="missing"):
        ConstantsProfile.from_json(json.dumps(doc))
