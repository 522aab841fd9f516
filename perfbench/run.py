"""stairwalk benchmark: end-to-end entry points per workload, and a traced
run that splits their time over the package's layers.

    python3 perfbench/run.py --workload {mc-short-paths,mc-long-paths,certify}
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the package is imported from ``src/``.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a readable
report.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Target  # noqa: E402

SETUP_SAMPLES = 5
SUBPROCESS_TIMEOUT_S = 60

TRACE_TARGETS = [
    Target("stairwalk.serialize", "dump_json", "timed"),
    Target("stairwalk.serialize", "dump_csv", "timed"),
    Target("stairwalk.kernel", "step_prob_tables", "timed"),
    Target("stairwalk.kernel", "flat_step_probs_at", "timed"),
    Target("stairwalk.simulator", "replication_seed", "count"),
    Target("stairwalk.simulator", "run_experiment", "timed"),
    Target("stairwalk.simulator", "final_positions", "timed"),
    Target("stairwalk.simulator", "run_control", "timed"),
    Target("stairwalk.simulator", "run_coupled_check", "timed"),
    Target("stairwalk.oracle", "transient_law", "lazy", lambda a: a["arithmetic"]),
    Target("stairwalk.oracle", "event_probability", "timed"),
    Target("stairwalk.schedule", "PhaseSchedule.a_of_step", "timed"),
    Target("stairwalk.schedule", "PhaseSchedule.a_of_phase", "count"),
    Target("stairwalk.schedule", "check_schedule_feasibility", "timed"),
    Target("stairwalk.verifier", "audit_all", "timed"),
    *[Target("stairwalk.verifier", f"check_c{k}", "timed") for k in range(1, 9)],
    Target("stairwalk.domination", "domination_margins", "timed"),
    Target("stairwalk.domination", "z_distribution", "count"),
    Target("stairwalk.domination", "mean_z", "count"),
    Target("stairwalk.bounds", "product_limit_check", "timed"),
    Target("stairwalk.bounds", "divergence_lower_bound", "timed", lambda a: a["truncation"]),
]

# Units of every layer metric the traced run reports.
LAYER_UNITS = {
    "cli.import_s": "s", "schedule.build_s": "s", "serialize.dump_s": "s",
    "simulator.streams": "count", "simulator.stream_open_us": "us",
    "simulator.workers": "count", "simulator.thread_speedup": "ratio",
    "simulator.rep_steps": "count", "simulator.step_ns": "ns",
    "kernel.tables_calls": "count", "kernel.tables_s": "s",
    "kernel.probs_at_calls": "count", "kernel.probs_at_s": "s",
    "oracle.step_us": "us", "oracle.rational_step_ms": "ms",
    "schedule.a_of_step_calls": "count", "schedule.a_of_step_s": "s",
    **{f"verifier.c{k}_s": "s" for k in range(1, 9)},
    "verifier.sweep_s": "s", "schedule.a_of_phase_calls": "count",
    "domination.z_distribution_calls": "count", "domination.margins_s": "s",
    "domination.mean_z_calls": "count", "bounds.product_s": "s",
    "bounds.factors_per_s": "1/s", "trace.spans": "count", "trace.overhead_frac": "ratio",
}
# The layer metrics in BENCHMARK.json.  Every run must report each of them,
# so this keeps the times every workload exercises (a time that is 0 on some
# workload is only in the report) and the counts, which may be 0.
PER_LAYER = [
    "cli.import_s", "schedule.build_s", "serialize.dump_s",
    "kernel.tables_s", "kernel.tables_calls", "kernel.probs_at_s", "kernel.probs_at_calls",
    "schedule.a_of_phase_calls", "schedule.a_of_step_calls",
    "simulator.streams", "simulator.rep_steps", "simulator.workers",
    "domination.z_distribution_calls", "domination.mean_z_calls",
    "trace.spans", "trace.overhead_frac",
]


# ----------------------------------------------------------------------
# calibrated time
# ----------------------------------------------------------------------

# The host's effective CPU speed drifts by tens of percent within minutes,
# and the drift shows in process CPU time as much as in wall time.  So every
# timed interval is expressed in calibrated seconds: its wall time times
# CALIBRATION_REF_S over the mean time of a fixed loop measured just before
# and just after it.  The loop runs on every worker the workloads may use,
# because a pool uses them all and a single thread can move between them.
# It is benchmark code, so no change to stairwalk can move it.
# CALIBRATION_REF_S is its median time on the 2-vCPU Xeon the benchmark was
# written on, which keeps calibrated seconds close to wall seconds there.
CALIBRATION_REF_S = 0.048


def calibrate() -> float:
    """Time a fixed mix of interpreter, numpy and big-integer work, run by
    ``workloads.THREADS`` threads at once; the result is per thread."""
    t0 = time.perf_counter()
    with ThreadPoolExecutor(workloads.THREADS) as pool:
        list(pool.map(_calibration_loop, range(workloads.THREADS)))
    return (time.perf_counter() - t0) / workloads.THREADS


def _calibration_loop(_):
    import numpy as np

    acc = 0
    for i in range(60_000):
        acc += i * i
    x = np.arange(4096, dtype=np.int64)
    u = np.linspace(0.0, 1.0, 4096)
    for _ in range(450):
        x = (x * 3 + 1) % 1_000_003
        u = np.where(u < 0.5, u * 1.5, u * 0.5)
    f = Fraction(0)
    for i in range(1, 4500):
        f += Fraction(1, i)


class Gauge:
    """Turns wall intervals into calibrated seconds, calibrating after each."""

    def __init__(self):
        self.last = calibrate()
        self.samples = [self.last]

    def calibrated(self, wall: float) -> float:
        now = calibrate()
        self.samples.append(now)
        factor = CALIBRATION_REF_S / ((self.last + now) / 2)
        self.last = now
        return wall * factor


# ----------------------------------------------------------------------
# environment and set-up
# ----------------------------------------------------------------------


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    found = _read(ROOT / ".git" / ref)
    if found is None:
        for line in (_read(ROOT / ".git" / "packed-refs") or "").splitlines():
            if line.endswith(" " + ref):
                found = line.split()[0]
    return found


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": workloads.NPROC, "threads": workloads.THREADS,
        "cpu_model": model or platform.processor(), **caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "git_commit": git_commit(),
    }


def measure_setup(workload: str, workdir: Path, gauge: Gauge) -> list[dict]:
    """Spawn fresh interpreters that import the CLI and write the schedules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
             "--dir", str(workdir)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=SUBPROCESS_TIMEOUT_S, check=True,
        )
        wall = time.perf_counter() - t0
        parts = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(parts["module"]).resolve().parent.parent != SRC.resolve():
            raise RuntimeError(f"set-up imported stairwalk from {parts['module']}")
        samples.append({"wall_s": wall, "cal_s": gauge.calibrated(wall), **parts})
    return samples


# ----------------------------------------------------------------------
# passes and checks
# ----------------------------------------------------------------------


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list[tuple[str, object]] = []

    def check(self, name: str, ok: bool, detail=None):
        self.attempted += 1
        if not ok:
            self.failures.append((name, detail))


def run_pass(plan: workloads.Plan, checks: Checks, gauge: Gauge, tracer=None,
             keep=False) -> dict:
    """One call of every step.  Only the calls are timed; outputs are
    digested afterwards, and kept whole when ``keep`` is set."""
    walls, cal, digests, outputs, workers = {}, {}, {}, {}, 0
    for step in plan.steps:
        if tracer is not None:
            tracer.threads_seen.get("simulator.replication_seed", set()).clear()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                value = step.call()
            else:
                with tracer.entry(f"entry.{step.name}"):
                    value = step.call()
        except Exception as exc:  # the pass goes on; the failure is counted
            walls[step.name] = time.perf_counter() - t0
            cal[step.name] = gauge.calibrated(walls[step.name])
            checks.check(f"{step.name} raised no exception", False, repr(exc))
            continue
        walls[step.name] = time.perf_counter() - t0
        cal[step.name] = gauge.calibrated(walls[step.name])
        if tracer is not None:
            workers = max(workers, len(tracer.threads_seen.get("simulator.replication_seed", ())))
        produced = step.collect(value)
        digests.update({k: workloads.digest(v) for k, v in produced.items()})
        if keep:
            outputs.update(produced)
    return {"walls": walls, "wall_s": sum(walls.values()), "cal": cal,
            "cal_s": sum(cal.values()), "digests": digests, "outputs": outputs,
            "workers": workers}


def compare_digests(checks: Checks, label: str, got: dict, want: dict):
    for name in sorted(set(got) | set(want)):
        checks.check(f"{label}: {name}", got.get(name) == want.get(name),
                     (got.get(name), want.get(name)))


def entry_metrics(plan: workloads.Plan, passes: list[dict]) -> dict:
    """The per-entry-point end-to-end figures, medians over untraced passes."""
    med = {s.name: statistics.median(p["cal"][s.name] for p in passes) for s in plan.steps}
    steps = {s.name: s for s in plan.steps}

    def msteps(*names):
        return sum(steps[n].rep_steps for n in names) / sum(med[n] for n in names) / 1e6

    m = {}
    if "simulate" in steps:
        m["simulate_msteps_per_s"] = (msteps("simulate"), "Mstep/s")
    if "final_positions" in steps:
        m["final_positions_msteps_per_s"] = (msteps("final_positions"), "Mstep/s")
    if "control-constant" in steps:
        m["control_msteps_per_s"] = (msteps("control-constant", "control-fast-growth"), "Mstep/s")
    if "coupled" in steps:
        m["coupled_msteps_per_s"] = (msteps("coupled"), "Mstep/s")
    if "audit" in steps:
        m["audit_s"] = (med["audit"], "s")
        m["feasibility_s"] = (med["feasibility"], "s")
        m["dp_s"] = (med["dp-float"] + med["dp-rational"], "s")
        m["bound_s"] = (med["bound"], "s")
    return m


def layer_metrics(plan, spans, counts, n_traced, missing, passes, alt, probe_s) -> dict:
    """The per-layer figures of the traced passes, per pass.  A value of
    None carries the reason the metric is absent."""
    lt = tracing.layer_times(spans)
    missing = set(missing)

    def spanned(name, field="total_s"):
        if name in missing:
            return None, f"stairwalk no longer has {name}"
        if name not in lt:
            return None, "not exercised by this workload"
        return getattr(lt[name], field) / n_traced, None

    def calls(name):
        if name in missing:
            return None, f"stairwalk no longer has {name}"
        n = lt[name].calls if name in lt else counts.get(name, 0)
        return n / n_traced, None

    def ratio(num, den, scale=1.0):
        (a, why_a), (b, why_b) = num, den
        if a is None or not b:
            return None, why_a or why_b or "not exercised by this workload"
        return a / b * scale, None

    m = {}
    dump = [spanned(n, "self_s") for n in ("serialize.dump_json", "serialize.dump_csv")]
    present = [v for v, _ in dump if v is not None]
    m["serialize.dump_s"] = (sum(present), None) if present else dump[0]
    m["kernel.tables_calls"] = calls("kernel.step_prob_tables")
    m["kernel.tables_s"] = spanned("kernel.step_prob_tables")
    m["kernel.probs_at_calls"] = calls("kernel.flat_step_probs_at")
    m["kernel.probs_at_s"] = spanned("kernel.flat_step_probs_at")
    m["schedule.a_of_phase_calls"] = calls("schedule.PhaseSchedule.a_of_phase")
    m["schedule.a_of_step_calls"] = calls("schedule.PhaseSchedule.a_of_step")
    m["schedule.a_of_step_s"] = spanned("schedule.PhaseSchedule.a_of_step")
    m["oracle.step_us"] = ratio(spanned("oracle.transient_law.float"),
                                calls("oracle.transient_law.float"), 1e6)
    m["oracle.rational_step_ms"] = ratio(spanned("oracle.transient_law.rational"),
                                         calls("oracle.transient_law.rational"), 1e3)
    for k in range(1, 9):
        m[f"verifier.c{k}_s"] = spanned(f"verifier.check_c{k}")
    m["verifier.sweep_s"] = spanned("verifier.audit_all", "self_s")
    m["domination.margins_s"] = spanned("domination.domination_margins")
    m["domination.z_distribution_calls"] = calls("domination.z_distribution")
    m["domination.mean_z_calls"] = calls("domination.mean_z")
    m["bounds.product_s"] = spanned("bounds.divergence_lower_bound")
    m["bounds.factors_per_s"] = ratio(
        (counts.get("bounds.divergence_lower_bound.work", 0) / n_traced, None),
        m["bounds.product_s"])

    mc = [s for s in plan.steps if s.rep_steps]
    streams = calls("simulator.replication_seed")
    m["simulator.streams"] = streams
    m["simulator.rep_steps"] = (sum(s.rep_steps for s in mc), None)
    m["simulator.workers"] = (max((p["workers"] for p in passes["traced"]), default=0), None)
    if not mc:
        why = "this workload runs no Monte Carlo"
        for name in ("simulator.stream_open_us", "simulator.thread_speedup",
                     "simulator.step_ns"):
            m[name] = (None, why)
    else:
        reps = max(plan.sizes.get("replications", 0), 1)
        m["simulator.stream_open_us"] = (probe_s / reps * 1e6, None)
        main_sim = statistics.median(p["cal"]["simulate"] for p in passes["plain"])
        t1, t2 = (alt["cal"]["simulate"], main_sim) if plan.threads > 1 else (
            main_sim, alt["cal"]["simulate"])
        m["simulator.thread_speedup"] = (t1 / t2, None)
        mc_wall = sum(statistics.median(p["walls"][s.name] for p in passes["plain"])
                      for s in mc)
        open_s = (streams[0] or 0) * probe_s / reps
        m["simulator.step_ns"] = ((mc_wall - open_s) / m["simulator.rep_steps"][0] * 1e9, None)
    m["trace.spans"] = (len(spans) / n_traced, None)
    plain = statistics.median(p["cal_s"] for p in passes["plain"])
    traced = statistics.median(p["cal_s"] for p in passes["traced"])
    m["trace.overhead_frac"] = (traced / plain - 1.0, None)
    return m


def stream_open_probe(sw, plan) -> float:
    """Wall time of a one-phase, one-step run at the workload's replication
    count: opening the streams and filling their first block, little else."""
    sched = sw.user_schedule(sw.scaled_profile(), [1], [8.0], [0])
    reps = plan.sizes["replications"]
    walls = []
    for _ in range(3):
        t0 = time.perf_counter()
        sw.run_experiment(sched, 1, reps, 0, threads=plan.threads)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


# ----------------------------------------------------------------------
# main
# ----------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.MAIN_THREADS))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="length of the measured window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="record this run's digests as the reference (default seed only)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.write_reference and (args.seed != workloads.DEFAULT_SEED or args.trace):
        p.error("--write-reference needs the default seed and --trace 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stairwalk" / "__init__.py").is_file():
        print(f"error: no stairwalk sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir: Path) -> int:
    gauge = Gauge()
    setup = measure_setup(args.workload, workdir, gauge)
    sys.path.insert(0, str(SRC))
    import stairwalk as sw
    import stairwalk.cli as cli

    if Path(sw.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"imported stairwalk from {sw.__file__}")
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    checks = Checks()
    plan = workloads.make_plan(args.workload, args.seed, workdir,
                               workloads.MAIN_THREADS[args.workload], sw, cli)

    # Untimed first pass at the other thread count: it warms lazy set-up and
    # gives the digests every timed pass must reproduce.
    alt = None
    first = None
    if any(s.threaded for s in plan.steps):
        alt_threads = 1 if plan.threads > 1 else workloads.THREADS
        alt_plan = workloads.make_plan(args.workload, args.seed, workdir, alt_threads, sw, cli)
        alt = first = run_pass(alt_plan, checks, gauge, keep=True)

    tracer = tracing.Tracer(TRACE_TARGETS) if args.trace else None
    plain, traced = [], []
    t_start = time.perf_counter()
    while True:
        rec = run_pass(plan, checks, gauge, keep=first is None)
        first = first or rec
        plain.append(rec)
        if tracer is not None:
            tracer.run_id = f"{args.workload}-s{args.seed}-p{len(traced)}"
            with tracer:
                traced.append(run_pass(plan, checks, gauge, tracer=tracer))
        elapsed = time.perf_counter() - t_start
        per_round = statistics.median(p["wall_s"] for p in plain) + (
            statistics.median(p["wall_s"] for p in traced) if traced else 0.0)
        if elapsed + per_round > args.seconds:
            break

    # -- checks ------------------------------------------------------------
    labelled = [(f"pass {k}", r) for k, r in enumerate(plain)]
    labelled += [(f"traced pass {k}", r) for k, r in enumerate(traced)]
    for label, rec in labelled:
        if rec is not first:
            compare_digests(checks, f"{label} == first pass", rec["digests"], first["digests"])
    if args.seed == workloads.DEFAULT_SEED and not args.write_reference:
        want = reference.get("digests", {}).get(args.workload)
        checks.check("reference digests recorded", want is not None)
        if want is not None:
            compare_digests(checks, "reference", first["digests"], want)
    try:
        for name, ok, detail in workloads.semantic_checks(plan, first["outputs"], sw, reference):
            checks.check(name, ok, detail)
    except Exception as exc:  # a missing output or a raising check is one failure
        checks.check("output checks ran to the end", False, repr(exc))

    # -- metrics -----------------------------------------------------------
    setup_s = statistics.median(s["cal_s"] for s in setup)
    entries = entry_metrics(plan, plain)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "sizes": plan.sizes,
        "passes": len(plain), "traced_passes": len(traced),
        "pass_walls": [p["walls"] for p in plain],
        "pass_calibrated": [p["cal"] for p in plain],
        "calibration_s": gauge.samples,
        "setup": setup,
    }
    if args.trace:
        probe_s = stream_open_probe(sw, plan) if any(s.rep_steps for s in plan.steps) else 0.0
        layers = layer_metrics(plan, tracer.spans, tracer.counts(), len(traced),
                               tracer.missing, {"plain": plain, "traced": traced}, alt,
                               probe_s)
        layers["cli.import_s"] = (statistics.median(s["import_s"] for s in setup), None)
        layers["schedule.build_s"] = (statistics.median(s["build_s"] for s in setup), None)
        report["layers"] = {k: {"value": v, "absent": why} for k, (v, why) in layers.items()}
        tracer.write_csv(OUT / f"spans_{args.workload}_s{args.seed}.csv")
        metrics = {name: {"value": layers[name][0], "unit": LAYER_UNITS[name]}
                   for name in PER_LAYER if layers[name][0] is not None}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": statistics.median(p["cal_s"] for p in plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    failed = len(checks.failures)
    report["entry_metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in entries.items()}
    report["failed_frac"] = failed / max(checks.attempted, 1)
    report["failures"] = [[n, repr(d)] for n, d in checks.failures]
    report["metrics"] = metrics

    if args.write_reference:
        reference.setdefault("digests", {})[args.workload] = first["digests"]
        if args.workload == "certify":
            audit = json.loads(first["outputs"]["audit.json"])
            reference["audit_verdicts"] = {
                c["claim_id"]: [c["verdict"], c["witness"]] for c in audit["claims"]}
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")

    (OUT / f"result_{args.workload}_s{args.seed}_t{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str) + "\n")
    print_report(report, entries, setup_s, checks)
    print(json.dumps({"correct": failed == 0, "attempted": checks.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_report(report: dict, entries: dict, setup_s: float, checks: Checks):
    env = report["environment"]
    print(f"# stairwalk benchmark  workload={report['workload']}  seed={report['seed']}  "
          f"trace={report['trace']}  passes={report['passes']}")
    print("# environment: " + json.dumps(env))
    print("# sizes: " + json.dumps(report["sizes"]))
    print("# end to end (untraced, median over passes)")
    rows = [("setup_s", setup_s, "s"), *[(k, v, u) for k, (v, u) in entries.items()]]
    if "pass_s" in report["metrics"]:
        rows += [(k, report["metrics"][k]["value"], report["metrics"][k]["unit"])
                 for k in ("pass_s", "peak_rss_mb")]
    rows.append(("failed_frac", report["failed_frac"], "ratio"))
    for name, value, unit in rows:
        print(f"  {name:32s} {value:14.6g} {unit}")
    if "layers" in report:
        print("# per layer (traced passes, per pass)")
        for name, entry in report["layers"].items():
            if entry["value"] is None:
                print(f"  {name:32s} {'absent':>14s} ({entry['absent']})")
            else:
                print(f"  {name:32s} {entry['value']:14.6g} {LAYER_UNITS[name]}")
    print(f"# checks: {checks.attempted} attempted, {len(checks.failures)} failed")
    for name, detail in checks.failures[:20]:
        print(f"  FAILED {name}: {detail!r}")


if __name__ == "__main__":
    sys.exit(main())
