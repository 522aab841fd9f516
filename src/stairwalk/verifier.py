"""Mechanical audit of the construction's numbered claims.

Each claim is checked as stated, over an explicit finite range, and the
verdict is whatever the arithmetic yields; failures are reported with
witnesses, never repaired.  Exactness matters near boundaries, so C1-C4,
C6 and C7 run in rational/integer arithmetic; the grid-shaped C5 and C8
run in floating point with a 1e-12 guard (their margins are >= the slack
constant, many orders of magnitude above rounding).

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

C2 and C3 are linked: E(Z_i) equals the C2 left side minus twice the slack,
so whenever C2 holds at i, C3's target holds there too.  audit_all records
that cross-check explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import PAPER_LITERAL
from .domination import dominated_drift, domination_margins, mean_z, z_distribution
from .kernel import flat_step_distribution, monotonicity_violation

HOLDS = "holds"
FAILS = "fails"
HOLDS_UP_TO = "holds-up-to"

CLAIM_IDS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8")

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


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _num(x: Fraction) -> dict:
    return {"exact": str(x), "float": float(x)}


def _prefix_verdict(first_bad: int | None, first_index: int, witness: dict | None):
    if first_bad is None:
        return HOLDS, None
    if first_bad == first_index:
        return FAILS, witness
    return HOLDS_UP_TO, witness


# ----------------------------------------------------------------------
# C1: adaptation sequence requirements
# ----------------------------------------------------------------------


def check_c1(schedule, i_max: int) -> ClaimResult:
    statement = (
        "adaptation sequence: a_1 = 8, a_i >= 8 for all i, strictly "
        "increasing for i >= 2, with a_i >= 4i certifying divergence"
    )
    first_bad, witness = None, None
    if _frac(schedule.a_of_phase(1)) != 8:
        first_bad, witness = 1, {"i": 1, "a": _num(_frac(schedule.a_of_phase(1)))}
    prev = None
    if first_bad is None:
        for i in range(2, i_max + 1):
            a = _frac(schedule.a_of_phase(i))
            ok = a >= 8 and a >= 4 * i and (prev is None or a > prev)
            if not ok:
                first_bad, witness = i, {"i": i, "a": _num(a)}
                break
            prev = a
    verdict, witness = _prefix_verdict(first_bad, 1, witness)
    return ClaimResult(
        claim_id="C1",
        statement=statement,
        range_checked=f"i in [1, {i_max}]",
        verdict=verdict,
        witness=witness,
    )


# ----------------------------------------------------------------------
# C2 / C3: the drift inequality and the dominated mean (shared sweep)
# ----------------------------------------------------------------------


def _drift_sweep(schedule, i_max: int) -> dict:
    """Exact per-phase left sides and means, plus all boundary indices."""
    target = _frac(schedule.profile.drift_target)
    floor = _frac(schedule.profile.drift_floor)
    slack = _frac(schedule.profile.slack)
    mean_target = target - 2 * slack

    first_c2 = first_c3 = None
    c2_witness = c3_witness = None
    c2_hold_count = 0
    last_mean_ge_floor = None
    last_mean_positive = None
    consistent = True
    for i in range(2, i_max + 1):
        a = _frac(schedule.a_of_phase(i))
        lhs = dominated_drift(i, a, 0)  # the C2 left side: b_i - c_i at zero slack
        mean = lhs - 2 * slack  # == E(Z_i) by construction
        if lhs > target:
            c2_hold_count += 1
            if not mean > mean_target:
                consistent = False
        elif first_c2 is None:
            first_c2, c2_witness = i, {"i": i, "lhs": _num(lhs)}
        if mean < mean_target and first_c3 is None:
            first_c3, c3_witness = i, {"i": i, "mean": _num(mean)}
        if mean >= floor:
            last_mean_ge_floor = i
        if mean > 0:
            last_mean_positive = i
    return {
        "first_c2": first_c2,
        "c2_witness": c2_witness,
        "c2_hold_count": c2_hold_count,
        "first_c3": first_c3,
        "c3_witness": c3_witness,
        "last_mean_ge_floor": last_mean_ge_floor,
        "last_mean_positive": last_mean_positive,
        "consistent": consistent,
        "target": target,
        "floor": floor,
        "mean_target": mean_target,
    }


def check_c2(schedule, i_max: int, sweep: dict | None = None) -> ClaimResult:
    sweep = sweep if sweep is not None else _drift_sweep(schedule, i_max)
    verdict, witness = _prefix_verdict(sweep["first_c2"], 2, sweep["c2_witness"])
    return ClaimResult(
        claim_id="C2",
        statement=(
            "per-phase drift inequality: (1/2 + 4/a_i)(i-1)^2/D_i - "
            "(1/2 - 4/a_i) i^2/D_i > drift_target at the schedule's a_i"
        ),
        range_checked=f"i in [2, {i_max}], exact rationals",
        verdict=verdict,
        witness=witness,
        details={"holds_at": sweep["c2_hold_count"], "target": float(sweep["target"])},
    )


def check_c3(schedule, i_max: int, sweep: dict | None = None) -> ClaimResult:
    sweep = sweep if sweep is not None else _drift_sweep(schedule, i_max)
    verdict, witness = _prefix_verdict(sweep["first_c3"], 2, sweep["c3_witness"])
    if witness is not None:
        witness = dict(witness)
        witness["largest_i_mean_ge_drift_floor"] = sweep["last_mean_ge_floor"]
        witness["largest_i_mean_positive"] = sweep["last_mean_positive"]
    return ClaimResult(
        claim_id="C3",
        statement=(
            "dominated step mean: E(Z_i) >= drift_target - 2*slack for every "
            "phase; boundary indices where E(Z_i) >= drift_floor and > 0"
        ),
        range_checked=f"i in [2, {i_max}], exact rationals",
        verdict=verdict,
        witness=witness,
        details={
            "largest_i_mean_ge_drift_floor": sweep["last_mean_ge_floor"],
            "largest_i_mean_positive": sweep["last_mean_positive"],
        },
    )


# ----------------------------------------------------------------------
# C4: validity arithmetic of the dominated law
# ----------------------------------------------------------------------


def check_c4(schedule, i_max: int) -> ClaimResult:
    slack = _frac(schedule.profile.slack)
    c_cap = Fraction(2, 5) + slack
    b_cap = Fraction(9, 20)
    first_bad, witness = None, None
    for i in range(2, i_max + 1):
        a = _frac(schedule.a_of_phase(i))
        z = z_distribution(i, schedule)
        c, b = _frac(z.c), _frac(z.b)
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
        range_checked=f"i in [2, {i_max}], exact rationals",
        verdict=verdict,
        witness=witness,
    )


# ----------------------------------------------------------------------
# C5: stochastic domination margins over a height grid
# ----------------------------------------------------------------------


def check_c5(schedule, i_max: int, x_depth: int) -> ClaimResult:
    min_c = min_b = np.inf
    arg_c = arg_b = None
    first_bad, witness = None, None
    for i in range(2, i_max + 1):
        xs, c_m, b_m = domination_margins(i, schedule, i, i + x_depth)
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
        range_checked=f"i in [2, {i_max}], x in [i, i+{x_depth}], float64",
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


def check_c6(schedule, i_max: int) -> ClaimResult:
    first_bad, witness = None, None
    for i in range(2, i_max + 1):
        lhs = schedule.threshold(i - 1) - schedule.length(i)
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
        range_checked=f"i in [2, {i_max}], exact",
        verdict=verdict,
        witness=witness,
    )


# ----------------------------------------------------------------------
# C7: height-ratio monotonicity
# ----------------------------------------------------------------------


def check_c7(x_max: int = 10**6) -> ClaimResult:
    bad = monotonicity_violation(x_max)
    if bad is None:
        verdict, witness = HOLDS, None
    else:
        verdict, witness = (FAILS if bad == 1 else HOLDS_UP_TO), {"x": bad}
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
    sweep = _drift_sweep(schedule, i_max)
    claims = [
        check_c1(schedule, i_max),
        check_c2(schedule, i_max, sweep),
        check_c3(schedule, i_max, sweep),
        check_c4(schedule, i_max),
        check_c5(schedule, i_max, x_depth),
        check_c6(schedule, i_max),
        check_c7(x_monotone_max),
        check_c8(schedule, s_phase1_max),
    ]
    cross_links = {
        "c2_c3_consistent": sweep["consistent"],
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
    i_max = ranges.get("i_max", 10**4)
    if claim_id == "C1":
        return check_c1(schedule, i_max)
    if claim_id == "C2":
        return check_c2(schedule, i_max)
    if claim_id == "C3":
        return check_c3(schedule, i_max)
    if claim_id == "C4":
        return check_c4(schedule, i_max)
    if claim_id == "C5":
        return check_c5(schedule, i_max, ranges.get("x_depth", 10**3))
    if claim_id == "C6":
        return check_c6(schedule, i_max)
    if claim_id == "C7":
        return check_c7(ranges.get("x_max", 10**6))
    if claim_id == "C8":
        return check_c8(schedule, ranges.get("s_max", 10**6))
    raise ValueError(f"unknown claim id {claim_id!r}; expected one of {CLAIM_IDS}")
