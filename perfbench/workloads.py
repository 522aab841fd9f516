"""The benchmark's workloads: inputs made from a seed, one timed pass, checks.

A workload is a fixed list of entry-point calls ("steps") driven the way a
user drives them: CLI subcommands through ``stairwalk.cli.main`` with
schedule files written at set-up, plus the library calls the CLI has no
subcommand for.  The seed picks the Monte Carlo seeds and the free
thresholds and M values; the schedules themselves are fixed shapes, so every
seed asks for the same amount of work.

This module imports only the standard library at the top, so the fresh
interpreter that measures set-up pays for ``stairwalk.cli`` alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0

# Each workload runs in a single process; pools are capped at two workers.
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else (
    os.cpu_count() or 1
)
THREADS = min(2, NPROC)
# The thread count each workload is timed at.  mc-long-paths is the
# single-threaded baseline; certify has no worker pool.
MAIN_THREADS = {"mc-short-paths": THREADS, "mc-long-paths": 1, "certify": 1}

# mc-short-paths: acceptance-6 shape at a third of its replications, so that
# a pass takes a few seconds; the share of stream opening does not depend on
# the count.  8 chunks of 4096 replications, so both pool workers get work.
SHORT_REPS = 8 * 4096
# mc-long-paths: acceptance-7/10 shape, cut so that a pass takes a few
# seconds.  4500 replications are two chunks, so the threads=2 determinism
# pass really splits the work.
LONG_REPS = 4500
LONG_PHASES = 10
CONTROL_HORIZON = 10**4
CONTROL_REPS = 1000
COUPLED_REPS = 1000
# certify: the paper schedule at the audit's documented depth, and the DP on
# the scaled schedule, whose ~100 phase boundaries below 2e4 make the
# boundary-law CSV and the phase lookup real work.
AUDIT_I_MAX = 10**4
AUDIT_X_DEPTH = 10**3
DP_HORIZON = 2 * 10**4
DP_RATIONAL_HORIZON = 64
BOUND_SIGMA = 0.5
BOUND_M_COUNT = 6

# The DP-vs-MC check runs on every seed, so its interval is far wider than
# the CLI's 99 % one: a false alarm would have to be a 1-in-1e6 event.
WILSON_CONFIDENCE = 1.0 - 1e-6
MASS_DEFECT_TOL = 1e-12


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def build_schedules(workload: str, sw) -> dict:
    """The schedules a workload reads, by file stem; independent of the seed."""
    scaled = lambda: sw.build_paper_schedule(0.5, sw.scaled_profile())  # noqa: E731
    if workload == "mc-short-paths":
        return {"scaled": scaled()}
    if workload == "mc-long-paths":
        return {"cond": sw.steady_drift_schedule(LONG_PHASES, sigma=0.01)}
    if workload == "certify":
        return {"paper": sw.build_paper_schedule(Fraction(1, 2)), "scaled": scaled()}
    raise ValueError(f"unknown workload {workload!r}")


def write_schedules(schedules: dict, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    for stem, sched in schedules.items():
        (workdir / f"{stem}.json").write_text(sched.to_json())


@dataclass
class Step:
    """One entry-point call.  ``call`` is timed; ``collect`` turns its return
    value into named output bytes, which are digested and checked."""

    name: str
    call: Callable[[], object]
    collect: Callable[[object], dict[str, bytes]]
    rep_steps: int = 0        # replication-steps advanced (Monte Carlo only)
    threaded: bool = False    # result must not depend on the thread count


@dataclass
class Plan:
    workload: str
    seed: int
    threads: int
    steps: list[Step]
    sizes: dict                           # input sizes, for the record
    schedules: dict


def _cli_step(cli, name: str, argv: list[str], files: dict[str, Path], **kw) -> Step:
    """A CLI call with stdout captured; outputs are the files it writes."""

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def collect(value):
        code, stdout = value
        out = {f"{name}.exit": str(code).encode(), f"{name}.stdout": stdout.encode()}
        for label, path in files.items():
            out[f"{name}.{label}"] = path.read_bytes()
        return out

    return Step(name=name, call=call, collect=collect, **kw)


def _seeds(workload: str, seed: int, n: int) -> list[int]:
    rng = random.Random(f"{workload}/{seed}")
    return [rng.getrandbits(63) for _ in range(n)]


def make_plan(workload: str, seed: int, workdir: Path, threads: int, sw, cli) -> Plan:
    """Read the schedule files and lay out the workload's steps."""
    files = {p.stem: p for p in workdir.glob("*.json") if p.stem in
             {"scaled", "cond", "paper"}}
    scheds = {stem: sw.PhaseSchedule.from_json(p.read_text()) for stem, p in files.items()}
    T = str(threads)

    if workload == "mc-short-paths":
        sched = scheds["scaled"]
        n1 = sched.N(1)
        (s_mc,) = _seeds(workload, seed, 1)
        steps = [
            _cli_step(cli, "simulate", [
                "simulate", "--schedule", str(files["scaled"]), "--phases", "1",
                "--reps", str(SHORT_REPS), "--seed", str(s_mc), "--threads", T,
                "--out", str(workdir / "simulate.json"), "--csv", str(workdir / "simulate.csv"),
            ], {"json": workdir / "simulate.json", "csv": workdir / "simulate.csv"},
                rep_steps=SHORT_REPS * n1, threaded=True),
            Step(
                name="final_positions",
                call=lambda: sw.final_positions(sched, n1, SHORT_REPS, s_mc, threads=threads),
                collect=lambda fin: {"final_positions.s": fin.astype("<i8").tobytes()},
                rep_steps=SHORT_REPS * n1, threaded=True,
            ),
        ]
        sizes = {"replications": SHORT_REPS, "steps_per_replication": n1,
                 "M": sched.M, "base_seed": s_mc}
    elif workload == "mc-long-paths":
        sched = scheds["cond"]
        n_end = sched.N(LONG_PHASES)
        s_sim, s_const, s_fast, s_coup = _seeds(workload, seed, 4)

        def control(mode, s):
            path = workdir / f"control-{mode}.json"
            return _cli_step(cli, f"control-{mode}", [
                "control", "--mode", mode, "--horizon", str(CONTROL_HORIZON),
                "--reps", str(CONTROL_REPS), "--seed", str(s), "--threads", T,
                "--out", str(path),
            ], {"json": path}, rep_steps=CONTROL_REPS * CONTROL_HORIZON, threaded=True)

        steps = [
            _cli_step(cli, "simulate", [
                "simulate", "--schedule", str(files["cond"]),
                "--phases", str(LONG_PHASES), "--reps", str(LONG_REPS),
                "--seed", str(s_sim), "--threads", T, "--out", str(workdir / "simulate.json"),
            ], {"json": workdir / "simulate.json"},
                rep_steps=LONG_REPS * n_end, threaded=True),
            control("constant", s_const),
            control("fast-growth", s_fast),
            Step(
                name="coupled",
                call=lambda: sw.run_coupled_check(
                    sched, LONG_PHASES, COUPLED_REPS, s_coup, threads=threads),
                collect=lambda rep: {"coupled.json": json.dumps(
                    rep.to_jsonable(), sort_keys=True).encode()},
                rep_steps=COUPLED_REPS * n_end, threaded=True,
            ),
        ]
        sizes = {"replications": LONG_REPS, "steps_per_replication": n_end,
                 "control_replications": CONTROL_REPS, "control_horizon": CONTROL_HORIZON,
                 "coupled_replications": COUPLED_REPS,
                 "base_seeds": [s_sim, s_const, s_fast, s_coup]}
    elif workload == "certify":
        rng = random.Random(f"{workload}/{seed}")
        scaled = scheds["scaled"]
        threshold = scaled.M + rng.randrange(200)
        threshold_r = rng.randrange(32)
        m_values = sorted(rng.sample(range(50, 10**5), BOUND_M_COUNT))
        paper, scaled_f = str(files["paper"]), str(files["scaled"])
        steps = [
            _cli_step(cli, "audit", [
                "audit", "--schedule", paper, "--i-max", str(AUDIT_I_MAX),
                "--x-depth", str(AUDIT_X_DEPTH), "--out", str(workdir / "audit.json"),
            ], {"json": workdir / "audit.json"}),
            _cli_step(cli, "feasibility", [
                "feasibility", "--schedule", paper, "--i-max", str(AUDIT_I_MAX),
                "--out", str(workdir / "feasibility.json"),
            ], {"json": workdir / "feasibility.json"}),
            _cli_step(cli, "dp-float", [
                "dp", "--schedule", scaled_f, "--horizon", str(DP_HORIZON),
                "--threshold", str(threshold), "--out", str(workdir / "law.csv"),
                "--boundaries-only", "--json", str(workdir / "dp.json"),
            ], {"csv": workdir / "law.csv", "json": workdir / "dp.json"}),
            _cli_step(cli, "dp-rational", [
                "dp", "--schedule", scaled_f, "--horizon", str(DP_RATIONAL_HORIZON),
                "--arithmetic", "rational", "--threshold", str(threshold_r),
                "--out", str(workdir / "law-rational.csv"), "--json", str(workdir / "dp-rational.json"),
            ], {"csv": workdir / "law-rational.csv", "json": workdir / "dp-rational.json"}),
            _cli_step(cli, "bound", [
                "bound", "--sigma", str(BOUND_SIGMA),
                *[arg for m in m_values for arg in ("--M", str(m))],
                "--out", str(workdir / "bound.json"), "--csv", str(workdir / "bound.csv"),
            ], {"json": workdir / "bound.json", "csv": workdir / "bound.csv"}),
        ]
        sizes = {"audit_i_max": AUDIT_I_MAX, "audit_x_depth": AUDIT_X_DEPTH,
                 "dp_horizon": DP_HORIZON, "dp_threshold": threshold,
                 "dp_rational_horizon": DP_RATIONAL_HORIZON,
                 "dp_rational_threshold": threshold_r, "bound_M": m_values}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Plan(workload=workload, seed=seed, threads=threads, steps=steps,
                sizes=sizes, schedules=scheds)


# ----------------------------------------------------------------------
# Output checks.  Each compares an output and never repairs it; each
# yields (name, ok, detail).
# ----------------------------------------------------------------------


def semantic_checks(plan: Plan, outputs: dict[str, bytes], sw, reference: dict):
    """Checks on the content of one pass's outputs."""
    import numpy as np

    w = plan.workload
    for name, data in outputs.items():
        if name.endswith(".exit"):
            yield f"{name} == 0", data == b"0", data.decode()

    if w == "mc-short-paths":
        sched = plan.schedules["scaled"]
        n1, t1 = sched.N(1), sched.threshold(1)
        sim = json.loads(outputs["simulate.json"])
        succ = sim["per_phase"][0]["successes"]
        fin = np.frombuffer(outputs["final_positions.s"], dtype="<i8")
        yield ("final_positions successes == simulate successes",
               int((fin > t1).sum()) == succ, succ)
        lo, hi = sw.wilson_interval(succ, SHORT_REPS, WILSON_CONFIDENCE)
        p = float(sw.event_probability(n1, sched, t1, strict=True))
        yield "DP P(S_N1 > M) in MC Wilson interval", lo <= p <= hi, (lo, p, hi)

    elif w == "mc-long-paths":
        sim = json.loads(outputs["simulate.json"])
        for ps in sim["per_phase"][1:]:
            freq, att, bound = ps["frequency"], ps["attempts"], ps["bound_true_mean"]
            se = math.sqrt(max(freq * (1 - freq), 0.0) / att)
            yield (f"phase {ps['i']} frequency >= true-mean bound - 3 se",
                   freq >= bound - 3 * se, (freq, bound, se))
        coupled = json.loads(outputs["coupled.json"])
        yield "coupling violations == 0", coupled["violations"] == 0, coupled["violations"]
        const = json.loads(outputs["control-constant.json"])
        yield ("constant control nondecreasing_fraction == 1",
               const["nondecreasing_fraction"] == 1.0, const["nondecreasing_fraction"])
        fast = json.loads(outputs["control-fast-growth.json"])
        yield ("fast-growth occupancy_mode <= 4",
               fast["occupancy_mode"] <= 4, fast["occupancy_mode"])

    elif w == "certify":
        audit = json.loads(outputs["audit.json"])
        got = {c["claim_id"]: [c["verdict"], c["witness"]] for c in audit["claims"]}
        yield ("audit verdicts and witnesses == recorded",
               got == reference.get("audit_verdicts"), got)
        for name in ("dp-float.csv", "dp-rational.csv"):
            worst = _worst_mass_defect(outputs[name])
            yield f"{name} mass defect <= {MASS_DEFECT_TOL}", worst <= MASS_DEFECT_TOL, worst
        bound = json.loads(outputs["bound.json"])
        yield ("bound monotone in M and enclosures <= 1e-8 wide",
               bound["monotone_in_M"] and all(e["width"] <= 1e-8 for e in bound["entries"]),
               bound["least_M_exceeding"])


def _worst_mass_defect(csv_bytes: bytes) -> float:
    """max over the laws in an (n, s, mass) CSV of |sum of mass - 1|."""
    totals: dict[str, list[float]] = {}
    lines = csv_bytes.decode().splitlines()
    for line in lines[1:]:
        n, _, mass = line.split(",")
        totals.setdefault(n, []).append(float(mass))
    if not totals:
        return math.inf
    return max(abs(math.fsum(v) - 1.0) for v in totals.values())
