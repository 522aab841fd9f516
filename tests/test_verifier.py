"""Claim auditor: verdicts, witnesses, and the C2/C3 cross-link."""

import hashlib
import json
from collections import Counter
from fractions import Fraction

import pytest

from stairwalk import (
    PhaseSchedule,
    audit_all,
    audit_single,
    mean_z,
    steady_drift_schedule,
    verifier,
)
from stairwalk.domination import dominated_drift
from stairwalk.verifier import CLAIM_IDS, ClaimResult


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


def test_audit_builds_each_phase_once(paper_schedule, monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(verifier, "z_distribution", counted("z", verifier.z_distribution))
    monkeypatch.setattr(PhaseSchedule, "a_of_phase", counted("a", PhaseSchedule.a_of_phase))
    audit_all(paper_schedule, i_max=300, x_depth=10)
    # a_1..a_300 once, plus the one read inside each z_distribution
    assert calls == {"a": 300 + 299, "z": 299}
    calls.clear()
    audit_single("C1", paper_schedule, i_max=300)
    assert calls == {"a": 300}


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
