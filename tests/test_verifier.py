"""Claim auditor: verdicts, witnesses, and the C2/C3 cross-link."""

import dataclasses
import hashlib
import json
import re
from collections import Counter
from fractions import Fraction
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stairwalk import (
    ConstantsProfile,
    PhaseSchedule,
    audit_all,
    audit_single,
    check_schedule_feasibility,
    concentration_gain,
    mean_z,
    steady_drift_schedule,
    verifier,
    z_distribution,
)
from stairwalk.core import PAPER_LITERAL
from stairwalk.domination import ZDistribution, _margins, dominated_drift
from stairwalk.kernel import flat_step_probs_at
from stairwalk.schedule import FeasibilityReport, PhaseFeasibility
from stairwalk.verifier import CLAIM_IDS, AuditReport, ClaimResult, _prefix_verdict


@pytest.fixture(scope="module")
def report(paper_schedule):
    return audit_all(paper_schedule, i_max=300, x_depth=100)


def test_overall_verdicts(report):
    assert report.verdicts == {
        "C1": "holds",
        "C2": "fails",
        "C3": "fails",
        "C4": "holds",
        "C5": "holds",
        "C6": "holds",
        "C7": "holds",
        "C8": "holds",
    }


def test_c2_witness_is_exact(report, paper_schedule):
    w = report.claim("C2").witness
    assert w["i"] == 2
    assert Fraction(w["lhs"]["exact"]) == Fraction(40093, 3999690)
    # re-derive: the left side at i = 2 with a_2 = 399969/31000
    a2 = paper_schedule.a_of_phase(2)
    lhs = (Fraction(1, 2) + 4 / a2) * Fraction(1, 5) - (Fraction(1, 2) - 4 / a2) * Fraction(4, 5)
    assert lhs == Fraction(40093, 3999690)
    assert lhs < Fraction(1, 10)  # the inequality indeed fails at the rule's a_2
    assert dominated_drift(2, a2, 0) == lhs


def test_c3_witness_boundaries(report, paper_schedule):
    w = report.claim("C3").witness
    assert w["i"] == 2
    assert Fraction(w["mean"]["exact"]) == mean_z(2, paper_schedule)
    assert w["largest_i_mean_ge_drift_floor"] is None   # never reaches 0.01
    assert w["largest_i_mean_positive"] == 11           # positive through i = 11
    assert mean_z(11, paper_schedule) > 0 > mean_z(12, paper_schedule)


def test_c2_c3_cross_link(report):
    assert report.cross_links["c2_c3_consistent"] is True


def test_c5_min_margin_is_slack(report, paper_schedule):
    details = report.claim("C5").details
    eps = float(paper_schedule.profile.slack)
    assert details["min_c_margin"] == pytest.approx(eps, abs=1e-12)
    assert details["min_b_margin"] == pytest.approx(eps, abs=1e-12)


def test_c6_identity_by_hand(paper_schedule):
    # T_{i-1} - L_i = (M + 4(i-2)) - (M - 2 + 2(i-2)) = 2i - 2
    for i in (2, 3, 17, 1000):
        assert paper_schedule.threshold(i - 1) - paper_schedule.length(i) == 2 * i - 2
    res = audit_single("C6", paper_schedule, i_max=500)
    assert res.verdict == "holds"


def test_audit_single_custom_ranges(paper_schedule):
    assert audit_single("C7", paper_schedule, x_max=10**4).verdict == "holds"
    assert audit_single("C1", paper_schedule, i_max=10**5).verdict == "holds"
    res = audit_single("C5", paper_schedule, i_max=2, x_depth=10**4)
    assert res.verdict == "holds"
    assert res.details["min_c_margin"] >= float(paper_schedule.profile.slack) - 1e-12
    with pytest.raises(ValueError):
        audit_single("C99", paper_schedule)


def test_audit_builds_each_phase_once(paper_schedule, scaled_schedule, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(verifier, "z_distribution", counted("z", verifier.z_distribution))
    monkeypatch.setattr(PhaseSchedule, "a_of_phase", counted("a", PhaseSchedule.a_of_phase))
    # a_1..a_300 once, through a_of_phase only under the float profile, and
    # each Z_i from the record's integers, in both arithmetics
    for schedule, want in ((paper_schedule, {}), (scaled_schedule, {"a": 300})):
        calls.clear()
        audit_all(schedule, i_max=300, x_depth=10)
        assert calls == want
        calls.clear()
        audit_single("C1", schedule, i_max=300)
        assert calls == want


def test_exact_rule_takes_no_a_of_phase_per_phase(paper_schedule, monkeypatch):
    """Under exact constants the audit and the feasibility check read a_i
    from the integer polynomials: their a_of_phase calls do not grow with
    i_max."""
    calls = Counter()
    a_of_phase = PhaseSchedule.a_of_phase

    def counted(self, i):
        calls[i_max] += 1
        return a_of_phase(self, i)

    monkeypatch.setattr(PhaseSchedule, "a_of_phase", counted)
    for i_max in (1000, 2000):
        audit_all(paper_schedule, i_max=i_max, x_depth=10)
        check_schedule_feasibility(paper_schedule, i_max)
    assert calls[1000] == calls[2000] <= 2


@pytest.mark.parametrize("num", [Fraction, lambda p, q=1: p / q])
def test_record_rejects_a_z_that_is_not_a_law(num):
    # a_2 = 8 and slack 1/2 give b_2 = 1/5 - 1/2 < 0, in either arithmetic;
    # the record raises the ValueError that ZDistribution raises
    profile = ConstantsProfile(drift_floor=num(1, 100), drift_target=num(2), slack=num(1, 2),
                               a_offset=num(0), overshoot=4, hoeffding_K=1)
    schedule = PhaseSchedule(mode=PAPER_LITERAL, profile=profile, M=10, M0=5)
    with pytest.raises(ValueError) as exc:
        audit_single("C4", schedule, i_max=5)
    assert str(exc.value) == f"component {num(-3, 10)} outside [0, 1]"


def test_audit_ranges_are_checked(paper_schedule):
    for cid in ("C1", "C2", "C4", "C5"):
        for i_max in (-1, 0, 1):
            with pytest.raises(ValueError, match="i_max"):
                audit_single(cid, paper_schedule, i_max=i_max)
    with pytest.raises(ValueError, match="i_max"):
        audit_all(paper_schedule, i_max=1)
    with pytest.raises(ValueError, match="x_depth"):
        audit_single("C5", paper_schedule, i_max=5, x_depth=-1)
    with pytest.raises(ValueError, match="x_depth"):
        audit_all(paper_schedule, i_max=5, x_depth=-1)
    user = steady_drift_schedule(3)
    for cid in ("C1", "C6"):
        with pytest.raises(ValueError, match="rule-generated"):
            audit_single(cid, user, i_max=3)
    assert audit_single("C5", paper_schedule, i_max=5, x_depth=0).verdict == "holds"
    # each range is checked only by the claims that read it: C7 and C8 read
    # neither the per-phase record nor i_max, and only C5 reads x_depth
    for schedule in (paper_schedule, user):
        for i_max in (0, 3):
            assert audit_single("C7", schedule, i_max=i_max, x_max=100).verdict == "holds"
            assert audit_single("C8", schedule, i_max=i_max, s_max=100).verdict == "holds"
    assert audit_single("C1", paper_schedule, i_max=5, x_depth=-1).verdict == "holds"
    # C7 needs one (x, x + 1) pair and C8 the point s = 1 where it claims
    # equality; a smaller range is an error, not a verdict
    for x_max in (-5, 0, 1):
        with pytest.raises(ValueError, match="x_max"):
            audit_single("C7", paper_schedule, x_max=x_max)
        with pytest.raises(ValueError, match="x_monotone_max"):
            audit_all(paper_schedule, i_max=5, x_monotone_max=x_max)
    for s_max in (-1, 0):
        with pytest.raises(ValueError, match="s_max"):
            audit_single("C8", paper_schedule, s_max=s_max)
        with pytest.raises(ValueError, match="s_phase1_max"):
            audit_all(paper_schedule, i_max=5, s_phase1_max=s_max)
    assert audit_single("C7", user, x_max=2).verdict == "holds"
    assert audit_single("C8", user, s_max=1).verdict == "holds"
    assert audit_single("C8", user, x_max=0).verdict == "holds"
    # a range name that no claim reads is an error, raised before any check
    # of the schedule or the other ranges
    for cid, schedule in (("C1", paper_schedule), ("C1", user), ("C7", user)):
        for key in ("imax", "x_monotone_max", "s_phase1_max"):
            with pytest.raises(ValueError) as exc:
                audit_single(cid, schedule, i_max=-1, **{key: 5})
            assert str(exc.value) == (f"unknown range {key!r}; expected one of "
                                      "('i_max', 'x_depth', 'x_max', 's_max')")


def test_c8_details(report):
    claim = report.claim("C8")
    assert claim.witness is None
    assert claim.details["phase1_up_floor"] == 0.2


def test_audit_requires_rule_schedule():
    user = steady_drift_schedule(3)
    with pytest.raises(ValueError):
        audit_all(user, i_max=3)


def test_claim_result_invariant():
    with pytest.raises(ValueError):
        ClaimResult(
            claim_id="C1", statement="x", range_checked="y",
            verdict="fails", witness=None,
        )


def test_report_jsonable(report):
    doc = report.to_jsonable()
    assert set(doc["verdicts"]) == {f"C{k}" for k in range(1, 9)}
    assert doc["claims"][1]["witness"]["i"] == 2
    assert doc["cross_links"]["c2_c3_consistent"] is True


# sha256 of the sorted-key JSON of every audit output at i_max = 300,
# x_depth = 100: the exact paper profile and the float scaled profile.
GOLDEN_AUDIT = {
    "paper": {
        "all": "55bac272941f0fd72c1f88687674c1e5c9a0da485c478017691c36e3db6598f0",
        "C1": "37bd4d0b0397e05a608f696958cd324824165cf6b309b549945859f4a72f13ec",
        "C2": "7923b0693c33495322c2064eb914e092215f926f8fc06bcb67a999f633a2a495",
        "C3": "fccef842c63549ff9b48496a63ca44df11df67ff8f886ae85d87948b36afe472",
        "C4": "80a51fa1c763fd5ae5ff297bf142dcb45901bb389255b57bd16bdf206057f23f",
        "C5": "8c9a19d037d85fea48c3bac2ec6894d48f0158138aad935ac76cef8ec0654e8f",
        "C6": "bbf4f3a19aedabf14010f996a27c96758f263ad9fedca793741d71c0e1c5b23c",
        "C7": "67a9c7eebab6bcd8c93591d47f7a19743fbdb671ad5184c961928da90bf5beb5",
        "C8": "d0900d19345b6cca6725af9f54f34445095b25406b9733d93c3e3005ea46d475",
    },
    "scaled": {
        "all": "e898116065aac8e59deaa0739e97fdeba17acd94bf29fa15d9fe0bded8c1e504",
        "C1": "37bd4d0b0397e05a608f696958cd324824165cf6b309b549945859f4a72f13ec",
        "C2": "7f851affef25df195e3ad21bbd031dba2236c3b75447d3a7f974c98b6f96dfcf",
        "C3": "de3e5c2a5d4ca30d6d4e4b76faa069ea150bc1790a8ce1b012d774e162d96d51",
        "C4": "80a51fa1c763fd5ae5ff297bf142dcb45901bb389255b57bd16bdf206057f23f",
        "C5": "d8c0016e25a9057275ed1c737cc4608372bcfc19eccd492fd4f9b97545619a0a",
        "C6": "bbf4f3a19aedabf14010f996a27c96758f263ad9fedca793741d71c0e1c5b23c",
        "C7": "67a9c7eebab6bcd8c93591d47f7a19743fbdb671ad5184c961928da90bf5beb5",
        "C8": "d0900d19345b6cca6725af9f54f34445095b25406b9733d93c3e3005ea46d475",
    },
}


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_AUDIT))
def test_golden_audit(name, request):
    schedule = request.getfixturevalue(f"{name}_schedule")
    got = {"all": _digest(audit_all(schedule, i_max=300, x_depth=100).to_jsonable())}
    for cid in CLAIM_IDS:
        res = audit_single(cid, schedule, i_max=300, x_depth=100)
        got[cid] = _digest(res.to_jsonable())
    assert got == GOLDEN_AUDIT[name]


# sha256 of the sorted-key JSON of audit_all at certify's depth, and of every
# audit and feasibility output at i_max = 300 for paper profiles whose a_offset
# pushes a_2 to 64/7 (C4 fails), to 0 and to -10/7 (C1-C3 fail; Z_2 is no
# law).  A claim that raises is pinned by its error.
GOLDEN_AUDIT_DEEP = {
    "paper_1e4": "cb279f2dc95f9a86c8b6f90ab98e04bd93db35e562b04fc1f18973b11ce773f3",
    "a2_low/all": "87773a8508903ed45f6919c8330f4093e9d1de784423aff2465659f21a0e89bc",
    "a2_low/C1": "37bd4d0b0397e05a608f696958cd324824165cf6b309b549945859f4a72f13ec",
    "a2_low/C2": "44302f43cb3416aa2313011f01b6c9181ee38eb97cdfdba41f2d75921c2a693e",
    "a2_low/C3": "bbebae8af557afa5e2b906c106b171304eaf9cdd5e87b1eeaeea6e7992d324d8",
    "a2_low/C4": "4794e24978922855427f4fe13129231cbd55067cc445120de81c1eff2b0472d6",
    "a2_low/C5": "65df13e712202508553999cfd8ceb9b435a7378eba4ab32b1cdf4202ced83734",
    "a2_low/C6": "bbf4f3a19aedabf14010f996a27c96758f263ad9fedca793741d71c0e1c5b23c",
    "a2_low/feasibility":
        "de55f9c61325249789e908b996cb81b6ea05664508dc3a349b0980d63b7a4339",
    "a2_zero/all": "ZeroDivisionError: a_2 = 0",
    "a2_zero/C1": "1f19cef961b65bfacdeda41d9f7ab48f10ae9e334b3b44240d7bc55b818f3714",
    "a2_zero/C2": "ZeroDivisionError: a_2 = 0",
    "a2_zero/C3": "ZeroDivisionError: a_2 = 0",
    "a2_zero/C4": "ZeroDivisionError: a_2 = 0",
    "a2_zero/C5": "ZeroDivisionError: a_2 = 0",
    "a2_zero/C6": "bbf4f3a19aedabf14010f996a27c96758f263ad9fedca793741d71c0e1c5b23c",
    "a2_zero/feasibility": "ZeroDivisionError: a_2 = 0",
    "a2_negative/all": "ValueError: component 26401/10000 outside [0, 1]",
    "a2_negative/C1":
        "d74b8d3223147e6d94580dca313524fb4eb1048099d47cc472c189aed36c7716",
    "a2_negative/C2":
        "e8e869e27c8c35fc0b4536ec2d4013f4268e0ae2490f2fc310500f90058e2268",
    "a2_negative/C3":
        "f776f31faf26d22da61b9d58c6defa0b5f74cea931d95d43e440b1506726e281",
    "a2_negative/C4": "ValueError: component 26401/10000 outside [0, 1]",
    "a2_negative/C5": "ValueError: component 26401/10000 outside [0, 1]",
    "a2_negative/C6":
        "bbf4f3a19aedabf14010f996a27c96758f263ad9fedca793741d71c0e1c5b23c",
    "a2_negative/feasibility":
        "61e7cf3ffffa64dacf6daea8534e80bab2f6d85c51f4cc752e3b4d1b54de8d50",
}
_OFFSETS = {"a2_low": Fraction(400, 31) - Fraction(64, 7), "a2_zero": Fraction(400, 31),
            "a2_negative": Fraction(400, 31) + Fraction(10, 7)}


def _outcome(run) -> str:
    try:
        return _digest(run().to_jsonable())
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_golden_audit_deep(paper_schedule):
    got = {"paper_1e4": _outcome(lambda: audit_all(paper_schedule, i_max=10**4,
                                                   x_depth=10**3))}
    for name, off in _OFFSETS.items():
        profile = dataclasses.replace(paper_schedule.profile, a_offset=off)
        schedule = dataclasses.replace(paper_schedule, profile=profile)
        got[f"{name}/all"] = _outcome(lambda: audit_all(schedule, i_max=300, x_depth=100))
        for cid in CLAIM_IDS[:6]:
            got[f"{name}/{cid}"] = _outcome(
                lambda: audit_single(cid, schedule, i_max=300, x_depth=100))
        got[f"{name}/feasibility"] = _outcome(
            lambda: check_schedule_feasibility(schedule, 300))
    assert got == GOLDEN_AUDIT_DEEP


# ----------------------------------------------------------------------
# Reference: the Fraction-chain record and the per-phase height grid that
# C1-C5 read before the record moved to integers and C5 to x = i, and the
# per-phase a_i and drifts that the record and the feasibility check read
# before a_i came from integer polynomials in i.
# ----------------------------------------------------------------------


def _ref_a(schedule, i):
    """a_i of a rule schedule by the closed form's Fraction expression, one
    phase at a time."""
    if i == 1:
        return schedule.profile.phase1_a
    mu, off = schedule.profile.drift_target, schedule.profile.a_offset
    if isinstance(mu, int):
        mu = Fraction(mu)  # int / int would leave exact arithmetic
    return 8 * (2 * i * i + 1 - 2 * i) / (2 * i - 1 + mu) - off


def _ref_c_b(i, a, slack):
    d = i * i + (i - 1) * (i - 1)
    c = (a - 8) / (2 * a) * (i * i) / d + slack
    b = (a + 8) / (2 * a) * ((i - 1) * (i - 1)) / d - slack
    return c, b


def _ref_grid(c, b, a, x_lo, x_hi):
    """(x, c_margins, b_margins) over [x_lo, x_hi], rows alternating
    diagonal and sub-diagonal."""
    x = np.arange(x_lo, x_hi + 1, dtype=np.int64)
    s = np.empty(2 * len(x), dtype=np.int64)
    s[0::2] = 2 * (x - 1)
    s[1::2] = 2 * x - 3
    p_down, p_up = flat_step_probs_at(s, a)
    return np.repeat(x, 2), c - p_down, p_up - b


class _RefRecord:
    def __init__(self, schedule, i_max):
        self.schedule, self.i_max, self.phases = schedule, i_max, range(2, i_max + 1)

    @cached_property
    def a(self):
        return {i: Fraction(_ref_a(self.schedule, i)) for i in range(1, self.i_max + 1)}

    @cached_property
    def z(self):
        out = {}
        for i in self.phases:
            a = _ref_a(self.schedule, i)
            a = Fraction(a) if isinstance(a, int) else a
            c, b = _ref_c_b(i, a, self.schedule.profile.slack)
            out[i] = ZDistribution(i=i, c=c, b=b, stay=1 - c - b)
        return out

    @cached_property
    def lhs(self):
        out = {}
        for i in self.phases:
            c, b = _ref_c_b(i, self.a[i], 0)
            out[i] = b - c
        return out


def _ref_num(x):
    return {"exact": str(x), "float": float(x)}


def _ref_claim(claim_id, rng, first_bad, first_index, witness, details=None):
    """The reference verdict as a ClaimResult; the statement, fixed text that
    the golden digests pin, is filled in from the audit it is compared with."""
    verdict, witness = _prefix_verdict(first_bad, first_index, witness)
    return ClaimResult(claim_id=claim_id, statement=None, range_checked=rng,
                       verdict=verdict, witness=witness, details=details)


def _ref_c1(rec):
    first_bad, witness = None, None
    if rec.a[1] != 8:
        first_bad, witness = 1, {"i": 1, "a": _ref_num(rec.a[1])}
    else:
        for i in rec.phases:
            a = rec.a[i]
            if not (a >= 8 and a >= 4 * i and (i == 2 or a > rec.a[i - 1])):
                first_bad, witness = i, {"i": i, "a": _ref_num(a)}
                break
    return _ref_claim("C1", f"i in [1, {rec.i_max}]", first_bad, 1, witness)


def _ref_c2(rec):
    target = Fraction(rec.schedule.profile.drift_target)
    first_bad, witness, holds_at = None, None, 0
    for i in rec.phases:
        if rec.lhs[i] > target:
            holds_at += 1
        elif first_bad is None:
            first_bad, witness = i, {"i": i, "lhs": _ref_num(rec.lhs[i])}
    return _ref_claim("C2", f"i in [2, {rec.i_max}], exact rationals", first_bad, 2,
                      witness, {"holds_at": holds_at, "target": float(target)})


def _ref_c3(rec):
    profile = rec.schedule.profile
    twice_slack = 2 * Fraction(profile.slack)
    mean_target = Fraction(profile.drift_target) - twice_slack
    floor = Fraction(profile.drift_floor)
    first_bad, witness = None, None
    last_ge_floor = last_positive = None
    for i in rec.phases:
        mean = rec.lhs[i] - twice_slack
        if mean < mean_target and first_bad is None:
            first_bad, witness = i, {"i": i, "mean": _ref_num(mean)}
        if mean >= floor:
            last_ge_floor = i
        if mean > 0:
            last_positive = i
    boundaries = {"largest_i_mean_ge_drift_floor": last_ge_floor,
                  "largest_i_mean_positive": last_positive}
    if witness is not None:
        witness.update(boundaries)
    return _ref_claim("C3", f"i in [2, {rec.i_max}], exact rationals", first_bad, 2,
                      witness, boundaries)


def _ref_c4(rec):
    c_cap = Fraction(2, 5) + Fraction(rec.schedule.profile.slack)
    first_bad, witness = None, None
    for i in rec.phases:
        a, c, b = rec.a[i], Fraction(rec.z[i].c), Fraction(rec.z[i].b)
        if not (c <= c_cap and b < Fraction(9, 20) and a > 10):
            first_bad = i
            witness = {"i": i, "c": _ref_num(c), "b": _ref_num(b), "a": _ref_num(a)}
            break
    return _ref_claim("C4", f"i in [2, {rec.i_max}], exact rationals", first_bad, 2, witness)


def _ref_c5_phases(rec, x_depth):
    """Per phase, the grid's (min c margin, its row, min b margin, its row)."""
    out = []
    for i in rec.phases:
        z = rec.z[i]
        _, c_m, b_m = _ref_grid(float(z.c), float(z.b), float(rec.a[i]), i, i + x_depth)
        kc, kb = int(np.argmin(c_m)), int(np.argmin(b_m))
        out.append((float(c_m[kc]), kc, float(b_m[kb]), kb))
    return out


def _ref_c5(rec, x_depth):
    min_c = min_b = np.inf
    arg_c = arg_b = None
    first_bad, witness = None, None
    for i, (c_m, kc, b_m, kb) in zip(rec.phases, _ref_c5_phases(rec, x_depth)):
        # row k of the grid is at height i + k // 2
        if c_m < min_c:
            min_c, arg_c = c_m, (i, i + kc // 2)
        if b_m < min_b:
            min_b, arg_b = b_m, (i, i + kb // 2)
        if (c_m < -1e-12 or b_m < -1e-12) and first_bad is None:
            first_bad = i
            witness = {"i": i, "x": i + (kc if c_m < b_m else kb) // 2,
                       "c_margin": c_m, "b_margin": b_m}
    return _ref_claim(
        "C5", f"i in [2, {rec.i_max}], x in [i, i+{x_depth}], float64", first_bad, 2,
        witness, {"min_c_margin": min_c, "min_b_margin": min_b,
                  "argmin_c": list(arg_c) if arg_c else None,
                  "argmin_b": list(arg_b) if arg_b else None})


_REF_CHECKS = {"C1": _ref_c1, "C2": _ref_c2, "C3": _ref_c3, "C4": _ref_c4}


def _ref_audit(schedule, i_max, x_depth, x_max, s_max) -> dict:
    """audit_all's JSON, with C1-C5 and the cross-link from the reference."""
    rec = _RefRecord(schedule, i_max)
    ranges = {"x_depth": x_depth, "x_max": x_max, "s_max": s_max}
    checks = dict(verifier._CHECKS, C5=lambda rec, ranges: _ref_c5(rec, ranges["x_depth"]))
    checks.update({cid: lambda rec, _, f=f: f(rec) for cid, f in _REF_CHECKS.items()})
    claims = [checks[cid](rec, ranges) for cid in CLAIM_IDS]
    profile = schedule.profile
    target, twice_slack = Fraction(profile.drift_target), 2 * Fraction(profile.slack)
    cross_links = {
        "c2_c3_consistent": all(rec.lhs[i] - twice_slack > target - twice_slack
                                for i in rec.phases if rec.lhs[i] > target),
        "note": ("E(Z_i) equals the C2 left side minus 2*slack, so C2 holding at i "
                 "forces C3's target at i; verified exactly at every i"),
    }
    return AuditReport(schedule.schedule_hash(), i_max, x_depth, claims,
                       cross_links).to_jsonable()


def _matches_reference(schedule, i_max, x_depth, x_max=10**6, s_max=10**6):
    """audit_all's JSON equals the reference's byte for byte, or both raise
    the same error."""
    try:
        got = audit_all(schedule, i_max, x_depth, x_max, s_max).to_jsonable()
    except (ValueError, ArithmeticError) as exc:
        with pytest.raises(type(exc)) as ref_exc:
            _ref_audit(schedule, i_max, x_depth, x_max, s_max)
        if isinstance(exc, ZeroDivisionError):  # the reference divides by a_k itself
            k = next(i for i in range(2, i_max + 1) if _ref_a(schedule, i) == 0)
            assert str(exc) == f"a_{k} = 0"
        else:
            assert str(ref_exc.value) == str(exc)
        return
    ref = _ref_audit(schedule, i_max, x_depth, x_max, s_max)
    for g, r in zip(got["claims"], ref["claims"]):
        r["statement"] = r["statement"] or g["statement"]
    assert json.dumps(got, sort_keys=True) == json.dumps(ref, sort_keys=True)


@pytest.mark.parametrize("name, i_max, x_depth", [
    ("paper", 300, 100), ("paper", 2000, 1000), ("scaled", 2000, 1000),
])
def test_audit_matches_reference(name, i_max, x_depth, request):
    _matches_reference(request.getfixturevalue(f"{name}_schedule"), i_max, x_depth)


@pytest.mark.parametrize("name", ["paper", "scaled"])
def test_c5_grid_minimum_is_at_x_equals_i(name, request):
    """For every phase i <= 2000, the height grid's first minimum of each
    margin over x in [i, i + 1000] is a row at x = i, with the value that
    the two rows at x = i give."""
    rec = _RefRecord(request.getfixturevalue(f"{name}_schedule"), 2000)
    laws = [rec.z[i] for i in rec.phases]
    x = np.arange(2, 2001)
    _, c_m, b_m = _margins(np.array([float(z.c) for z in laws]),
                           np.array([float(z.b) for z in laws]),
                           np.array([float(rec.a[i]) for i in rec.phases]), x)
    c_m, b_m = c_m.reshape(-1, 2), b_m.reshape(-1, 2)
    for k, (c_min, kc, b_min, kb) in enumerate(_ref_c5_phases(rec, 1000)):
        assert (kc, kb) == (int(np.argmin(c_m[k])), int(np.argmin(b_m[k])))
        assert (c_min, b_min) == (c_m[k].min(), b_m[k].min())


def test_grid_margins_stay_above_the_slack(paper_schedule):
    """Z_i lies below the step law from every height of a grid above i,
    with each margin at least the slack: at i = 2 over x in [2, 500] and at
    i = 1000 over [1000, 1500]."""
    eps = float(paper_schedule.profile.slack)
    for i, hi in [(2, 500), (1000, 1500)]:
        z = z_distribution(i, paper_schedule)
        _, c_m, b_m = _ref_grid(float(z.c), float(z.b),
                                float(paper_schedule.a_of_phase(i)), i, hi)
        assert (c_m >= 0).all() and (b_m >= 0).all()
        assert c_m.min() >= eps - 1e-12
        assert b_m.min() >= eps - 1e-12


def _fractions(lo, hi, max_den):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=max_den)


def _ref_feasibility(schedule, i_max) -> dict:
    """check_schedule_feasibility's JSON, each drift float(E(Z_i)) at the
    Fraction-chain a_i."""
    indices = range(2, i_max + 1)
    lengths = [schedule.length(i) for i in indices]
    drifts = [float(dominated_drift(i, _ref_a(schedule, i), schedule.profile.slack))
              for i in indices]
    gains = concentration_gain(lengths, np.array(drifts), schedule.profile.hoeffding_K)
    phases, first = [], None
    for i, L, drift, gain in zip(indices, lengths, drifts, gains.tolist()):
        required = float(schedule.required_gain(i))
        height = float(schedule.threshold(i - 1)) - L - (2 * i - 2)
        reason = ("drift <= 0" if drift <= 0 else
                  "gain below required threshold step" if gain < required else
                  "worst-case height margin negative" if height < 0 else None)
        if reason is not None and first is None:
            first = (i, reason)
        phases.append(PhaseFeasibility(i, drift, gain, required, height,
                                       reason is None, reason))
    return FeasibilityReport(i_max, phases, first).to_jsonable()


def _feasibility_matches_reference(schedule, i_max):
    """The feasibility JSON equals the reference's, or both raise the same
    error with the same message."""
    try:
        got = check_schedule_feasibility(schedule, i_max).to_jsonable()
    except (ValueError, ArithmeticError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            _ref_feasibility(schedule, i_max)
        return
    assert json.dumps(got) == json.dumps(_ref_feasibility(schedule, i_max))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_audit_matches_reference_on_random_exact_profiles(data):
    """Random exact paper-literal profiles, valid and not, with laws Z_i that
    are and are not laws and offsets that make some a_k zero: the a_i column
    equals the Fraction chain's, and the audit and the feasibility check
    match the references."""
    target = data.draw(st.one_of(st.integers(1, 3), _fractions(Fraction(1, 50), 3, 50)),
                       label="drift_target")
    slack = data.draw(st.one_of(st.just(0), _fractions(0, target / 2, 1000))
                      .filter(lambda s: 2 * s < target), label="slack")
    k = data.draw(st.integers(2, 200), label="k")
    offset = data.draw(st.one_of(
        st.integers(-10, 10), _fractions(-10, 10, 100),
        st.just(Fraction(8 * (2 * k * k - 2 * k + 1)) / (2 * k - 1 + target)),  # a_k = 0
    ), label="a_offset")
    profile = ConstantsProfile(
        drift_floor=Fraction(target - 2 * slack) / 2, drift_target=target, slack=slack,
        a_offset=offset, overshoot=4, hoeffding_K=1)
    schedule = PhaseSchedule(mode=PAPER_LITERAL, profile=profile,
                             M=data.draw(st.integers(3, 40), label="M"), M0=10)
    i_max = data.draw(st.integers(2, 300), label="i_max")
    ratios = schedule.a_ratios(i_max)
    assert all(q > 0 for _, q in ratios)
    assert [Fraction(p, q) for p, q in ratios] == [_ref_a(schedule, i)
                                                   for i in range(1, i_max + 1)]
    assert all(schedule.a_of_phase(i) == _ref_a(schedule, i) for i in range(1, i_max + 1))
    _matches_reference(schedule, i_max, data.draw(st.integers(0, 50), label="x_depth"),
                       x_max=100, s_max=100)
    _feasibility_matches_reference(schedule, i_max)


@pytest.mark.parametrize("fields", [
    {"slack": 1e-4}, {"drift_target": 0.1}, {"a_offset": 1e-3},
    {"drift_target": 1, "a_offset": 0}, {"drift_target": 1, "a_offset": 1e-3},
], ids=str)
def test_mixed_profiles_match_reference(paper_schedule, fields):
    """Exact constants with a float slack, a float in either constant, and
    int constants: the audit and the feasibility check match the
    references."""
    profile = dataclasses.replace(paper_schedule.profile, **fields)
    schedule = dataclasses.replace(paper_schedule, profile=profile)
    _matches_reference(schedule, 300, 100, x_max=100, s_max=100)
    _feasibility_matches_reference(schedule, 300)


def test_c5_witness_matches_reference(paper_schedule):
    """Laws pushed out of domination at two phases: the failing C5 verdict,
    witness and minima match the reference grid's."""
    rec, ref = verifier._PhaseRecord(paper_schedule, 60), _RefRecord(paper_schedule, 60)
    for i in (17, 40):
        c, b, den = rec.z[i]
        c, b = c - den // 100, b + den // 50
        rec.z[i] = (c, b, den)
        ref.z[i] = ZDistribution(i, Fraction(c, den), Fraction(b, den),
                                 Fraction(den - c - b, den))
    got = verifier.check_c5(rec, 30).to_jsonable()
    want = _ref_c5(ref, 30).to_jsonable()
    assert got["verdict"] == "holds-up-to" and got["witness"]["i"] == 17
    assert got == dict(want, statement=got["statement"])


def test_c2_and_mean_verdicts_for_every_phase(paper_schedule):
    """At the paper profile, C2's left side minus the target and E(Z_i) are
    rational functions of i.  A Cauchy root bound on the numerator and the
    denominator, with an exact scan of the integers below it, gives their
    signs at every i >= 2: C2 fails at every phase, and E(Z_i) > 0 exactly
    for 2 <= i <= 11."""
    sympy = pytest.importorskip("sympy")
    i = sympy.Symbol("i")
    profile = paper_schedule.profile
    mu, off, slack, target = (sympy.Rational(str(v)) for v in (
        profile.drift_target, profile.a_offset, profile.slack, profile.drift_target))
    a = 8 * (2 * i**2 + 1 - 2 * i) / (2 * i - 1 + mu) - off
    d = i**2 + (i - 1)**2
    lhs = (sympy.Rational(1, 2) + 4 / a) * (i - 1)**2 / d \
        - (sympy.Rational(1, 2) - 4 / a) * i**2 / d
    for k in (2, 3, 11, 12, 500):
        a_k = paper_schedule.a_of_phase(k)
        assert lhs.subs(i, k) == sympy.Rational(str(dominated_drift(k, a_k, 0)))
        assert (lhs - 2 * slack).subs(i, k) == sympy.Rational(str(mean_z(k, paper_schedule)))

    def signs(expr):
        """{k: sign at k} for 2 <= k <= the root bound, and the sign beyond."""
        num, den = (sympy.Poly(p, i) for p in sympy.fraction(sympy.cancel(expr)))
        bound = max(1 + max((abs(c / p.LC()) for c in p.all_coeffs()[1:]), default=0)
                    for p in (num, den))
        scan = {k: sympy.sign(num.eval(k)) * sympy.sign(den.eval(k))
                for k in range(2, int(sympy.ceiling(bound)) + 1)}
        return scan, sympy.sign(num.LC()) * sympy.sign(den.LC())

    scan, beyond = signs(lhs - target)
    assert set(scan.values()) == {-1} and beyond == -1
    scan, beyond = signs(lhs - 2 * slack)
    assert {k for k, s in scan.items() if s > 0} == set(range(2, 12))
    assert all(s < 0 for k, s in scan.items() if k > 11) and beyond == -1


def test_c3_floor_boundary_is_inclusive(paper_schedule):
    """With the drift floor set to E(Z_2) exactly, phase 2 counts as at the
    floor, as in the reference."""
    profile = dataclasses.replace(paper_schedule.profile,
                                  drift_floor=mean_z(2, paper_schedule))
    schedule = dataclasses.replace(paper_schedule, profile=profile)
    res = audit_single("C3", schedule, i_max=20)
    assert res.details["largest_i_mean_ge_drift_floor"] == 2
    _matches_reference(schedule, 20, 5, x_max=100, s_max=100)
