"""Mechanical audit of the construction's numbered claims.

Each claim is checked as stated, over an explicit finite range, and the
verdict is whatever the arithmetic yields; failures are reported with
witnesses, never repaired.  Exactness matters near boundaries, so C1-C4
and C6-C8 run in rational/integer arithmetic; the grid-shaped C5 runs in
floating point with a 1e-12 guard (its margins are >= the slack constant,
many orders of magnitude above rounding).

Claims:
    C1  adaptation sequence requirements (>= 8, increasing, diverging)
    C2  per-phase drift target inequality at the schedule's a_i
    C3  dominated-step mean: targets, and the indices where it stays
        above the drift floor and above zero
    C4  validity arithmetic of the dominated law (c <= 2/5 + slack,
        b < 9/20, a_i > 10)
    C5  stochastic domination margins over a height grid
    C6  worst-case height identity T_{i-1} - L_i = 2i - 2
    C7  strict monotonicity of the height ratios
    C8  phase-1 law facts at a = 8

C1-C6 read one per-phase record, built once per audit and only as far as
the claims run read it: exact a_i, the law Z_i in the profile's arithmetic
(so C4 and C5 see float masses under a float profile), and the C2 left side
exact from a_i.

C2 and C3 are linked: E(Z_i) equals the C2 left side minus twice the slack,
so whenever C2 holds at i, C3's target holds there too.  audit_all records
that cross-check explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import PAPER_LITERAL
from .domination import _margins, dominated_drift, z_distribution
from .kernel import flat_step_distribution, monotonicity_violation

HOLDS = "holds"
FAILS = "fails"
HOLDS_UP_TO = "holds-up-to"

_GUARD = 1e-12


@dataclass
class ClaimResult:
    claim_id: str
    statement: str
    range_checked: str
    verdict: str
    witness: dict | None = None
    details: dict | None = None

    def __post_init__(self):
        if self.verdict in (FAILS, HOLDS_UP_TO) and self.witness is None:
            raise ValueError(f"{self.claim_id}: verdict {self.verdict} needs a witness")

    def to_jsonable(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "statement": self.statement,
            "range_checked": self.range_checked,
            "verdict": self.verdict,
            "witness": self.witness,
            "details": self.details,
        }


@dataclass
class AuditReport:
    schedule_hash: str
    i_max: int
    x_depth: int
    claims: list[ClaimResult]
    cross_links: dict

    def claim(self, claim_id: str) -> ClaimResult:
        return next(c for c in self.claims if c.claim_id == claim_id)

    @property
    def verdicts(self) -> dict[str, str]:
        return {c.claim_id: c.verdict for c in self.claims}

    def to_jsonable(self) -> dict:
        return {
            "schedule_hash": self.schedule_hash,
            "i_max": self.i_max,
            "x_depth": self.x_depth,
            "verdicts": self.verdicts,
            "cross_links": self.cross_links,
            "claims": [c.to_jsonable() for c in self.claims],
        }


def _num(x: Fraction) -> dict:
    return {"exact": str(x), "float": float(x)}


def _prefix_verdict(first_bad: int | None, first_index: int, witness: dict | None):
    if first_bad is None:
        return HOLDS, None
    if first_bad == first_index:
        return FAILS, witness
    return HOLDS_UP_TO, witness


# ----------------------------------------------------------------------
# The per-phase record
# ----------------------------------------------------------------------


@dataclass
class _PhaseRecord:
    """Per-phase quantities of phases 1..i_max, keyed by phase.  Each column
    is built on its first read and shared by every claim that reads it."""

    schedule: object
    i_max: int

    @property
    def phases(self) -> range:
        return range(2, self.i_max + 1)

    @cached_property
    def a(self) -> dict:
        """Exact a_i for i >= 1."""
        a_of_phase = self.schedule.a_of_phase
        return {i: Fraction(a_of_phase(i)) for i in range(1, self.i_max + 1)}

    @cached_property
    def z(self) -> dict:
        """The law Z_i for i >= 2, in the profile's arithmetic."""
        return {i: z_distribution(i, self.schedule) for i in self.phases}

    @cached_property
    def lhs(self) -> dict:
        """C2's left side for i >= 2: b_i - c_i at zero slack, exact."""
        return {i: dominated_drift(i, self.a[i], 0) for i in self.phases}


# ----------------------------------------------------------------------
# C1: adaptation sequence requirements
# ----------------------------------------------------------------------


def check_c1(rec: _PhaseRecord) -> ClaimResult:
    first_bad, witness = None, None
    if rec.a[1] != 8:
        first_bad, witness = 1, {"i": 1, "a": _num(rec.a[1])}
    else:
        for i in rec.phases:
            a = rec.a[i]
            if not (a >= 8 and a >= 4 * i and (i == 2 or a > rec.a[i - 1])):
                first_bad, witness = i, {"i": i, "a": _num(a)}
                break
    verdict, witness = _prefix_verdict(first_bad, 1, witness)
    return ClaimResult(
        claim_id="C1",
        statement=(
            "adaptation sequence: a_1 = 8, a_i >= 8 for all i, strictly "
            "increasing for i >= 2, with a_i >= 4i certifying divergence"
        ),
        range_checked=f"i in [1, {rec.i_max}]",
        verdict=verdict,
        witness=witness,
    )


# ----------------------------------------------------------------------
# C2 / C3: the drift inequality and the dominated mean
# ----------------------------------------------------------------------


def check_c2(rec: _PhaseRecord) -> ClaimResult:
    target = Fraction(rec.schedule.profile.drift_target)
    first_bad, witness = None, None
    holds_at = 0
    for i in rec.phases:
        if rec.lhs[i] > target:
            holds_at += 1
        elif first_bad is None:
            first_bad, witness = i, {"i": i, "lhs": _num(rec.lhs[i])}
    verdict, witness = _prefix_verdict(first_bad, 2, witness)
    return ClaimResult(
        claim_id="C2",
        statement=(
            "per-phase drift inequality: (1/2 + 4/a_i)(i-1)^2/D_i - "
            "(1/2 - 4/a_i) i^2/D_i > drift_target at the schedule's a_i"
        ),
        range_checked=f"i in [2, {rec.i_max}], exact rationals",
        verdict=verdict,
        witness=witness,
        details={"holds_at": holds_at, "target": float(target)},
    )


def check_c3(rec: _PhaseRecord) -> ClaimResult:
    profile = rec.schedule.profile
    twice_slack = 2 * Fraction(profile.slack)
    mean_target = Fraction(profile.drift_target) - twice_slack
    floor = Fraction(profile.drift_floor)
    first_bad, witness = None, None
    last_ge_floor = last_positive = None
    for i in rec.phases:
        mean = rec.lhs[i] - twice_slack  # == E(Z_i), exact
        if mean < mean_target and first_bad is None:
            first_bad, witness = i, {"i": i, "mean": _num(mean)}
        if mean >= floor:
            last_ge_floor = i
        if mean > 0:
            last_positive = i
    boundaries = {
        "largest_i_mean_ge_drift_floor": last_ge_floor,
        "largest_i_mean_positive": last_positive,
    }
    if witness is not None:
        witness.update(boundaries)
    verdict, witness = _prefix_verdict(first_bad, 2, witness)
    return ClaimResult(
        claim_id="C3",
        statement=(
            "dominated step mean: E(Z_i) >= drift_target - 2*slack for every "
            "phase; boundary indices where E(Z_i) >= drift_floor and > 0"
        ),
        range_checked=f"i in [2, {rec.i_max}], exact rationals",
        verdict=verdict,
        witness=witness,
        details=boundaries,
    )


# ----------------------------------------------------------------------
# C4: validity arithmetic of the dominated law
# ----------------------------------------------------------------------


def check_c4(rec: _PhaseRecord) -> ClaimResult:
    c_cap = Fraction(2, 5) + Fraction(rec.schedule.profile.slack)
    b_cap = Fraction(9, 20)
    first_bad, witness = None, None
    for i in rec.phases:
        a, c, b = rec.a[i], Fraction(rec.z[i].c), Fraction(rec.z[i].b)
        if not (c <= c_cap and b < b_cap and a > 10):
            first_bad = i
            witness = {"i": i, "c": _num(c), "b": _num(b), "a": _num(a)}
            break
    verdict, witness = _prefix_verdict(first_bad, 2, witness)
    return ClaimResult(
        claim_id="C4",
        statement=(
            "the dominated law is valid by the stated arithmetic: "
            "c_i <= 2/5 + slack, b_i < 9/20, and a_i > 10 for i >= 2"
        ),
        range_checked=f"i in [2, {rec.i_max}], exact rationals",
        verdict=verdict,
        witness=witness,
    )


# ----------------------------------------------------------------------
# C5: stochastic domination margins over a height grid
# ----------------------------------------------------------------------


def check_c5(rec: _PhaseRecord, x_depth: int) -> ClaimResult:
    min_c = min_b = np.inf
    arg_c = arg_b = None
    first_bad, witness = None, None
    for i in rec.phases:
        z = rec.z[i]
        xs, c_m, b_m = _margins(float(z.c), float(z.b), float(rec.a[i]), i, i + x_depth)
        kc, kb = int(np.argmin(c_m)), int(np.argmin(b_m))
        if c_m[kc] < min_c:
            min_c, arg_c = float(c_m[kc]), (i, int(xs[kc]))
        if b_m[kb] < min_b:
            min_b, arg_b = float(b_m[kb]), (i, int(xs[kb]))
        if (c_m[kc] < -_GUARD or b_m[kb] < -_GUARD) and first_bad is None:
            first_bad = i
            witness = {
                "i": i,
                "x": int(xs[kc if c_m[kc] < b_m[kb] else kb]),
                "c_margin": float(c_m[kc]),
                "b_margin": float(b_m[kb]),
            }
    verdict, witness = _prefix_verdict(first_bad, 2, witness)
    return ClaimResult(
        claim_id="C5",
        statement=(
            "stochastic domination with slack: c_i >= p_down(x) and "
            "b_i <= p_up(x) for both parities and all x in [i, i + depth]"
        ),
        range_checked=f"i in [2, {rec.i_max}], x in [i, i+{x_depth}], float64",
        verdict=verdict,
        witness=witness,
        details={
            "min_c_margin": min_c,
            "min_b_margin": min_b,
            "argmin_c": list(arg_c) if arg_c else None,
            "argmin_b": list(arg_b) if arg_b else None,
        },
    )


# ----------------------------------------------------------------------
# C6: worst-case height identity
# ----------------------------------------------------------------------


def check_c6(rec: _PhaseRecord) -> ClaimResult:
    first_bad, witness = None, None
    for i in rec.phases:
        lhs = rec.schedule.threshold(i - 1) - rec.schedule.length(i)
        if lhs != 2 * i - 2:
            first_bad = i
            witness = {"i": i, "T_prev_minus_L": float(lhs), "expected": 2 * i - 2}
            break
    verdict, witness = _prefix_verdict(first_bad, 2, witness)
    return ClaimResult(
        claim_id="C6",
        statement=(
            "worst-case height arithmetic: T_{i-1} - L_i = 2i - 2 for every "
            "phase i >= 2, so a full phase of -1 steps keeps x >= i"
        ),
        range_checked=f"i in [2, {rec.i_max}], exact",
        verdict=verdict,
        witness=witness,
    )


# ----------------------------------------------------------------------
# C7: height-ratio monotonicity
# ----------------------------------------------------------------------


def check_c7(x_max: int = 10**6) -> ClaimResult:
    bad = monotonicity_violation(x_max)
    verdict, witness = _prefix_verdict(bad, 1, None if bad is None else {"x": bad})
    return ClaimResult(
        claim_id="C7",
        statement=(
            "(x-1)^2/(x^2+(x-1)^2) is strictly increasing and "
            "x^2/(x^2+(x-1)^2) strictly decreasing for x >= 1"
        ),
        range_checked=f"x in [1, {x_max}], integer cross-multiplication",
        verdict=verdict,
        witness=witness,
    )


# ----------------------------------------------------------------------
# C8: phase-1 law facts at a = 8
# ----------------------------------------------------------------------


def check_c8(schedule, s_max: int = 10**6) -> ClaimResult:
    a = Fraction(8)
    statement = (
        "phase-1 law at a = 8: p_down = 0 at every position and "
        "p_up >= 1/5, with equality exactly at s = 1"
    )
    witness = None
    # coefficient-level exactness: both down-coefficients vanish at a = 8
    coeffs_zero = (a - 8) / (2 * a) == 0 and (a - 8) / (4 * a) == 0
    spots = [
        flat_step_distribution(s, a) for s in (0, 1, 2, 3, 4, 5, s_max, s_max + 1)
    ]
    spot_down_zero = all(law.p_down == 0 for law in spots)

    # p_up >= 1/5 over the full range: diagonal p_up = 1/2; sub-diagonal
    # p_up = (x-1)^2/D >= 1/5  <=>  4(x-1)^2 >= x^2 (exact in int64)
    x = np.arange(2, (s_max + 3) // 2 + 1, dtype=np.int64)
    lhs = 4 * (x - 1) * (x - 1)
    rhs = x * x
    floor_ok = bool((lhs >= rhs).all())
    equality_x = x[lhs == rhs]
    equality_only_at_s1 = equality_x.tolist() == [2]  # x = 2 <-> s = 1

    ok = coeffs_zero and spot_down_zero and floor_ok and equality_only_at_s1
    if not ok:
        witness = {
            "coeffs_zero": coeffs_zero,
            "spot_down_zero": spot_down_zero,
            "floor_ok": floor_ok,
            "equality_at_x": equality_x.tolist()[:5],
        }
    return ClaimResult(
        claim_id="C8",
        statement=statement,
        range_checked=f"s in [0, {s_max}], exact integer arithmetic",
        verdict=HOLDS if ok else FAILS,
        witness=witness,
        details={"phase1_up_floor": float(schedule.profile.phase1_up_floor)},
    )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------


def audit_all(
    schedule,
    i_max: int = 10**4,
    x_depth: int = 10**3,
    x_monotone_max: int = 10**6,
    s_phase1_max: int = 10**6,
) -> AuditReport:
    """Run every claim against a rule-generated schedule and cross-link C2/C3."""
    if schedule.mode != PAPER_LITERAL:
        raise ValueError("the audit interrogates rule-generated schedules only")
    if i_max < 2:
        raise ValueError("i_max must be >= 2")
    rec = _PhaseRecord(schedule, i_max)
    ranges = {"x_depth": x_depth, "x_max": x_monotone_max, "s_max": s_phase1_max}
    claims = [_CHECKS[claim_id](rec, ranges) for claim_id in CLAIM_IDS]
    profile = schedule.profile
    target, twice_slack = Fraction(profile.drift_target), 2 * Fraction(profile.slack)
    cross_links = {
        "c2_c3_consistent": all(
            rec.lhs[i] - twice_slack > target - twice_slack
            for i in rec.phases if rec.lhs[i] > target
        ),
        "note": (
            "E(Z_i) equals the C2 left side minus 2*slack, so C2 holding at i "
            "forces C3's target at i; verified exactly at every i"
        ),
    }
    return AuditReport(
        schedule_hash=schedule.schedule_hash(),
        i_max=i_max,
        x_depth=x_depth,
        claims=claims,
        cross_links=cross_links,
    )


def audit_single(claim_id: str, schedule, **ranges) -> ClaimResult:
    """Run one claim with custom ranges (i_max, x_depth, x_max, s_max)."""
    if claim_id not in _CHECKS:
        raise ValueError(f"unknown claim id {claim_id!r}; expected one of {CLAIM_IDS}")
    ranges = dict(i_max=10**4, x_depth=10**3, x_max=10**6, s_max=10**6) | ranges
    return _CHECKS[claim_id](_PhaseRecord(schedule, ranges["i_max"]), ranges)


# Each claim's check, given the per-phase record and the ranges.  The lambdas
# look check_cN up at call time, so a wrapper bound to that name sees the call.
_CHECKS = {
    "C1": lambda rec, ranges: check_c1(rec),
    "C2": lambda rec, ranges: check_c2(rec),
    "C3": lambda rec, ranges: check_c3(rec),
    "C4": lambda rec, ranges: check_c4(rec),
    "C5": lambda rec, ranges: check_c5(rec, ranges["x_depth"]),
    "C6": lambda rec, ranges: check_c6(rec),
    "C7": lambda rec, ranges: check_c7(ranges["x_max"]),
    "C8": lambda rec, ranges: check_c8(rec.schedule, ranges["s_max"]),
}
CLAIM_IDS = tuple(_CHECKS)
