"""Mechanical audit of the construction's numbered claims.

Each claim is checked as stated, over an explicit finite range, and the
verdict is whatever the arithmetic yields; failures are reported with
witnesses, never repaired.  Exactness matters near boundaries, so C1-C4
and C6-C8 run in rational/integer arithmetic; C5 runs in floating point
with a 1e-12 guard (its margins are >= the slack constant, many orders of
magnitude above rounding).

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
the claims run read it, of integer columns: a_i as (P, Q) with Q > 0, from
`PhaseSchedule.a_ratios` (the integer polynomials in i under exact
constants, with no Fraction per phase; the integer ratio of the float a_i
otherwise); c_i and b_i at zero slack as a triple (c, b, den) over one
positive denominator, exact from (P, Q) (b_i - c_i over it is the C2 left
side); and the law Z_i, from the one Z_i formula (`domination._z_ratio`, or
its exact form `_with_slack` of that triple), as a triple in the profile's
arithmetic: exact masses under an exact profile, the exact ratios of the
float masses under a float one.  C1-C4 compare these integers by
cross-multiplication, C5 divides them once per value, and a Fraction is
built only for a witness.

C5 is evaluated at x = i only, so its cost does not depend on the depth.
By C7, x^2/D_x falls and (x-1)^2/D_x rises with x, so the diagonal p_down
and the sub-diagonal p_up are monotone in x, while the sub-diagonal
p_down = 1/4 - 2/a_i and the diagonal p_up = 1/4 + 2/a_i do not depend on
x.  Each margin's smallest value over x in [i, i + depth] therefore lies in
a row at x = i, and np.argmin's first such row is at x = i.  (When
1/2 - 4/a_i < 0 the diagonal c margins fall towards the constant row
instead, but stay above it, since x^2/D_x > 1/2.)  In float64 the monotone
rows keep that order while their step between neighbouring heights, about
1/x^2 relative, is larger than their few-ulp rounding, which holds for x up
to about 2e7; up to there the two rows at x = i give the height grid's
doubles, argmin rows and witnesses bit for bit.  The tests keep the grid as
a reference.

C2 and C3 are linked: E(Z_i) equals the C2 left side minus twice the slack,
so whenever C2 holds at i, C3's target holds there too.  audit_all records
that cross-check explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import PAPER_LITERAL, Number
from .domination import _c_b_ratio, _margins, _with_slack, _z_ratio, z_distribution
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


def _num(x: Number) -> dict:
    return {"exact": str(Fraction(x)), "float": float(x)}


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
    """Per-phase quantities of phases 1..i_max, keyed by phase: a_i as
    integer pairs (P, Q), the laws as integer triples (c, b, den), each over
    a positive denominator and unnormalised.  Each column is built on its
    first read and shared by every claim that reads it."""

    schedule: object
    i_max: int

    @property
    def phases(self) -> range:
        return range(2, self.i_max + 1)

    @cached_property
    def a(self) -> dict:
        """(P, Q) with a_i = P/Q and Q > 0 for i >= 1: exact under exact
        constants, the float a_i's integer ratio otherwise."""
        return dict(enumerate(self.schedule.a_ratios(self.i_max), start=1))

    @cached_property
    def z0(self) -> dict:
        """(c, b, den) of c_i and b_i at zero slack for i >= 2, exact from
        (P, Q): (b - c)/den is C2's left side."""
        return {i: _c_b_ratio(i, self.a[i]) for i in self.phases}

    @cached_property
    def z(self) -> dict:
        """The law Z_i for i >= 2 as (c, b, den), with c_i = c/den and
        b_i = b/den, in the profile's arithmetic: z0 shifted by the slack
        when a_i and the slack are exact, and float masses, by their exact
        ratios, when either is a float.  Raises ZDistribution's ValueError
        at the first phase whose Z_i is not a law."""
        slack, exact = self.schedule.profile.slack, self.schedule.exact_rule
        if exact and not isinstance(slack, float):
            out = {i: _with_slack(law, slack) for i, law in self.z0.items()}
        else:  # a_i as the number a_of_phase gives
            out = {i: _z_ratio(i, Fraction(p, q) if exact else p / q, slack)
                   for i, (p, q) in self.a.items() if i > 1}
        for i, (c, b, den) in out.items():
            if not (c >= 0 and b >= 0 and c + b <= den):
                z_distribution(i, self.schedule)  # raises
        return out


# ----------------------------------------------------------------------
# C1: adaptation sequence requirements
# ----------------------------------------------------------------------


def check_c1(rec: _PhaseRecord) -> ClaimResult:
    first_bad, witness = None, None
    p, q = rec.a[1]
    if p != 8 * q:
        first_bad, witness = 1, {"i": 1, "a": _num(Fraction(p, q))}
    else:
        prev = None
        for i in rec.phases:
            p, q = rec.a[i]
            # a_i >= 8, a_i >= 4i and a_i > a_{i-1}, over positive denominators
            if not (p >= 8 * q and p >= 4 * i * q and (i == 2 or p * prev[1] > prev[0] * q)):
                first_bad, witness = i, {"i": i, "a": _num(Fraction(p, q))}
                break
            prev = p, q
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
    tn, td = target.as_integer_ratio()
    first_bad, witness = None, None
    holds_at = 0
    for i, (c, b, den) in rec.z0.items():
        if (b - c) * td > tn * den:
            holds_at += 1
        elif first_bad is None:
            first_bad, witness = i, {"i": i, "lhs": _num(Fraction(b - c, den))}
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
    # E(Z_i) = lhs_i - 2*slack exactly, so each bound on the mean is the
    # same bound, shifted by 2*slack, on the C2 left side
    profile = rec.schedule.profile
    twice_slack = 2 * Fraction(profile.slack)
    target = Fraction(profile.drift_target)
    floor = Fraction(profile.drift_floor) + twice_slack
    (tn, td), (fn, fd), (zn, zd) = (r.as_integer_ratio() for r in (target, floor, twice_slack))
    first_bad, witness = None, None
    last_ge_floor = last_positive = None
    for i, (c, b, den) in rec.z0.items():
        num = b - c
        if num * td < tn * den and first_bad is None:
            first_bad = i
            witness = {"i": i, "mean": _num(Fraction(num, den) - twice_slack)}
        if num * fd >= fn * den:
            last_ge_floor = i
        if num * zd > zn * den:
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
    cn, cd = (Fraction(2, 5) + Fraction(rec.schedule.profile.slack)).as_integer_ratio()
    first_bad, witness = None, None
    for i, (c, b, den) in rec.z.items():
        p, q = rec.a[i]
        # c_i <= c_cap, b_i < 9/20 and a_i > 10, over positive denominators
        if not (c * cd <= cn * den and 20 * b < 9 * den and p > 10 * q):
            first_bad = i
            witness = {"i": i, "c": _num(Fraction(c, den)),
                       "b": _num(Fraction(b, den)), "a": _num(Fraction(p, q))}
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
    # Every margin's first minimum over x in [i, i + x_depth] is in a row at
    # x = i (see the module docstring), so only those two rows are evaluated.
    laws = rec.z.values()
    c = np.array([c / den for c, _, den in laws])
    b = np.array([b / den for _, b, den in laws])
    a = np.array([p / q for i, (p, q) in rec.a.items() if i > 1])
    x = np.arange(2, rec.i_max + 1, dtype=np.int64)
    _, c_m, b_m = _margins(c, b, a, x)
    kc, kb = int(np.argmin(c_m)), int(np.argmin(b_m))
    c_min, b_min = c_m.reshape(-1, 2).min(axis=1), b_m.reshape(-1, 2).min(axis=1)
    bad = np.flatnonzero((c_min < -_GUARD) | (b_min < -_GUARD))
    first_bad, witness = None, None
    if len(bad):
        k = int(bad[0])
        first_bad = int(x[k])
        witness = {"i": first_bad, "x": first_bad,
                   "c_margin": float(c_min[k]), "b_margin": float(b_min[k])}
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
            "min_c_margin": float(c_m[kc]),
            "min_b_margin": float(b_m[kb]),
            "argmin_c": [int(x[kc // 2])] * 2,
            "argmin_b": [int(x[kb // 2])] * 2,
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


def check_c7(x_max: int) -> ClaimResult:
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


def check_c8(schedule, s_max: int) -> ClaimResult:
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


def _record(schedule, claim_ids, ranges: dict) -> _PhaseRecord:
    """The per-phase record for the given claims, once the schedule and the
    ranges those claims read are checked."""
    if not _RECORD_CLAIMS.isdisjoint(claim_ids):
        if schedule.mode != PAPER_LITERAL:
            raise ValueError("the audit interrogates rule-generated schedules only")
        if ranges["i_max"] < 2:
            raise ValueError(f"i_max must be >= 2, got {ranges['i_max']}")
    if "C5" in claim_ids and ranges["x_depth"] < 0:
        raise ValueError(f"x_depth must be >= 0, got {ranges['x_depth']}")
    # C7 compares x with x + 1, so it needs x = 1 and 2; C8 claims equality
    # at s = 1, so its range must hold s = 1
    if "C7" in claim_ids and ranges["x_max"] < 2:
        raise ValueError(
            f"x_max (x_monotone_max in audit_all) must be >= 2, got {ranges['x_max']}")
    if "C8" in claim_ids and ranges["s_max"] < 1:
        raise ValueError(
            f"s_max (s_phase1_max in audit_all) must be >= 1, got {ranges['s_max']}")
    return _PhaseRecord(schedule, ranges["i_max"])


def audit_all(
    schedule,
    i_max: int = 10**4,
    x_depth: int = 10**3,
    x_monotone_max: int = 10**6,
    s_phase1_max: int = 10**6,
) -> AuditReport:
    """Run every claim against a rule-generated schedule and cross-link C2/C3."""
    ranges = {"i_max": i_max, "x_depth": x_depth, "x_max": x_monotone_max,
              "s_max": s_phase1_max}
    rec = _record(schedule, CLAIM_IDS, ranges)
    claims = [_CHECKS[claim_id](rec, ranges) for claim_id in CLAIM_IDS]
    profile = schedule.profile
    target, twice_slack = Fraction(profile.drift_target), 2 * Fraction(profile.slack)
    tn, td = target.as_integer_ratio()
    cross_links = {
        "c2_c3_consistent": all(
            Fraction(b - c, den) - twice_slack > target - twice_slack
            for c, b, den in rec.z0.values() if (b - c) * td > tn * den
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
    defaults = dict(i_max=10**4, x_depth=10**3, x_max=10**6, s_max=10**6)
    unknown = sorted(ranges.keys() - defaults.keys())
    if unknown:
        raise ValueError(f"unknown range {unknown[0]!r}; expected one of {tuple(defaults)}")
    ranges = defaults | ranges
    return _CHECKS[claim_id](_record(schedule, (claim_id,), ranges), ranges)


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
# the claims that read the per-phase record; C7 and C8 read none of it
_RECORD_CLAIMS = frozenset({"C1", "C2", "C3", "C4", "C5", "C6"})
