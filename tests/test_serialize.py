"""JSON writer: `dump_json` must write exactly what `json.dumps(indent=2)`
writes for the report reduced by `jsonable`, the reduction the package used
before it had its own emitter, kept here as the reference."""

import dataclasses
import enum
import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stairwalk.schedule import check_schedule_feasibility
from stairwalk.serialize import dump_json


def jsonable(obj):
    """Recursively reduce package objects to JSON-encodable structures."""
    if hasattr(obj, "to_jsonable"):
        return jsonable(obj.to_jsonable())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(dataclasses.asdict(obj))
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def reference(obj) -> str:
    return json.dumps(jsonable(obj), indent=2)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return tmp_path_factory.mktemp("json") / "out.json"


def check(obj, path):
    text = dump_json(obj, path)
    assert text == reference(obj)
    assert path.read_text() == text + "\n"


class Level(enum.IntEnum):
    LOW = 3


@dataclasses.dataclass
class Pair:
    left: tuple
    right: Fraction


# text with characters the encoder must escape, and `%`
text = st.text(st.sampled_from('ab%"\\\n\x00é☃\U0001f600'), max_size=6) | st.text(max_size=6)
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1])
ints = st.integers() | st.integers(min_value=10**30, max_value=10**60)
scalars = st.one_of(floats, ints, st.booleans(), st.none(), text)
extras = st.one_of(
    st.fractions(),
    floats.map(np.float64), st.floats(width=32).map(np.float32), ints.map(lambda i: np.int64(i % 2**62)),
    st.booleans().map(np.bool_), st.sampled_from([Level.LOW]),
    st.lists(floats, max_size=4).map(np.array),
    st.lists(st.integers(-9, 9), max_size=4).map(lambda v: np.array(v, dtype=np.int64)),
    st.builds(Pair, st.tuples(ints, floats), st.fractions()),
)
keys = st.one_of(text, st.integers(), st.booleans(), st.none(), floats)


@st.composite
def rows(draw):
    """Flat dicts over one key list, mostly in one order, with scalar and
    sometimes reducible values: the shape of a per-phase report."""
    names = draw(st.lists(text, min_size=1, max_size=4, unique=True))
    shuffle = draw(st.booleans())
    out = []
    for _ in range(draw(st.integers(1, 4))):
        order = draw(st.permutations(names)) if shuffle else names
        out.append({k: draw(scalars | extras if shuffle else scalars) for k in order})
    return out


values = st.recursive(
    scalars | extras | rows(),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(values)
def test_emitter_matches_json_dumps(out, obj):
    check(obj, out)


def test_emitter_edge_cases(out):
    cases = [
        {}, [], [{}], [{}, {}], [[]], {"a": {}, "b": []}, (), "é\"\\%",
        {True: 1, 1: 2, None: 3, 1.5: 4, Fraction(1, 2): 5},
        {0: 1, "0": 2}, {None: 1, "None": 2}, {float("nan"): 1, float("nan"): 2},
        {0: object(), "0": 1},                      # the dropped value is not encoded
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}],      # same keys, other order
        [{"a": 1}, {"a": 1, "b": 2}], [{"a": 1}, 3], [{1: 2}, {1: 3}],
        [{"%s": 1, "%%": float("nan")}, {"%s": -0.0, "%%": None}],
        [{"a": Level.LOW, "b": np.float64(0.1)}], Level.LOW, np.float32(0.1),
        np.array([[1.5, 2.0], [3.0, float("inf")]]), Pair((1, 2.5), Fraction(3, 7)),
    ]
    for obj in cases:
        check(obj, out)


def test_emitter_rejects_what_json_rejects(out):
    for obj in (object(), [1j], {"a": {1, 2}}, np.array(1.0), np.array(0)):
        with pytest.raises(TypeError):
            reference(obj)
        with pytest.raises(TypeError):
            dump_json(obj, out)


# sha256 of `dump_json(check_schedule_feasibility(paper, 10**4))` as written
# through `json.dumps(jsonable(...), indent=2)`: 9999 rows, ~2 MB
GOLDEN_FEASIBILITY_1E4 = "7a11654fd0845f9d0f0efc2467767331602219efa5ca1da0cb7543ff66e40af0"


def test_golden_feasibility_report_1e4(paper_schedule, out):
    report = check_schedule_feasibility(paper_schedule, i_max=10**4)
    check(report, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_FEASIBILITY_1E4
