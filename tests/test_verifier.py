"""Claim auditor: verdicts, witnesses, and the C2/C3 cross-link."""

from fractions import Fraction

import pytest

from stairwalk import audit_all, audit_single, mean_z, steady_drift_schedule
from stairwalk.domination import dominated_drift
from stairwalk.verifier import ClaimResult


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
