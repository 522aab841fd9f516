"""Command-line entry point.

Subcommands mirror the library surface: `schedule` builds and serializes a
phase schedule, `audit` runs the claim auditor, `simulate` runs seeded
Monte Carlo experiments, `bound` evaluates the certified product bound,
`dp` dumps exact transient laws, `feasibility` checks the per-phase
induction conditions, and `control` runs the qualitative regime controls.

Outputs are machine-first (JSON/CSV); whatever is printed is rendered from
the same data.  Exit codes: 0 on success (audit findings are findings, not
errors), 1 for usage/configuration problems and for a float DP whose mass
drifts past its tolerance, 2 when a resource budget is exceeded, as when a
walk is too long for its step tables to fit in memory; that is one
`resource budget exceeded:` line on stderr.  --threads of `simulate` and
`control` (env STAIRWALK_THREADS is the fallback) is the number of forked
worker processes that run Monte Carlo chunks; each worker receives its job
through the pool's initializer.  It must be >= 1, defaults to every usable
CPU, and is capped at the usable CPUs and the chunk count.  Results are
invariant to the setting.  `dp` has no --threads: when fork is
available and more than one CPU is usable, it writes its law CSV through one
forked writer process while it goes on stepping the DP, and its outputs do not
depend on that.

Importing this module loads only it and `core`, which needs nothing beyond
the standard library.  Each `cmd_*` handler imports the layers it runs when
it is called, so `--help`, a usage error and each command load no layer, and
no library, that they do not use: `bound` never loads the DP or the Monte
Carlo engine, and no command but `simulate` and `control` (or `--metadata`,
for the generator's name) loads the simulator.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .core import (
    PAPER_LITERAL,
    USER_DESIGNED,
    ConstantsProfile,
    ResourceBudgetError,
    paper_profile,
)

if TYPE_CHECKING:
    from .schedule import PhaseSchedule

USAGE_EXIT = 1
RESOURCE_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(USAGE_EXIT)


def _threads(args) -> int | None:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("STAIRWALK_THREADS")
    return int(env) if env else None


def _load_profile(path: str | None) -> ConstantsProfile:
    if path is None:
        return paper_profile()
    return ConstantsProfile.from_json(Path(path).read_text())


def _load_schedule(path: str) -> PhaseSchedule:
    from .schedule import PhaseSchedule

    return PhaseSchedule.from_json(Path(path).read_text())


def _attach_metadata(doc: dict, args, profile: ConstantsProfile | None) -> dict:
    if getattr(args, "metadata", False):
        from .simulator import GENERATOR_ID

        doc = dict(doc)
        doc["run_metadata"] = {
            "version": __version__,
            "generator": GENERATOR_ID,
            "profile": None if profile is None else profile.to_json(),
        }
    return doc


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_schedule(args) -> int:
    from .schedule import build_paper_schedule
    from .serialize import dump_json

    profile = _load_profile(args.profile)
    if args.mode == USER_DESIGNED:
        if not args.phases:
            raise ValueError("user-designed mode needs --phases FILE")
        sched = _load_schedule(args.phases)
        if sched.mode != USER_DESIGNED:
            raise ValueError("--phases file does not hold a user-designed schedule")
    else:
        sched = build_paper_schedule(
            args.sigma, profile, sigma_phase1=args.sigma_phase1
        )
        print(f"M  = {sched.M}")
        print(f"M0 = {sched.M0}")
    show = 10 if sched.n_phases is None else min(10, sched.n_phases)
    for i in range(1, show + 1):
        print(f"phase {i:2d}: N_{i} = {sched.N(i)}  a = {float(sched.a_of_phase(i)):.6f}")
    doc = _attach_metadata(sched.to_jsonable(), args, profile)
    if args.out:
        dump_json(doc, args.out)
    return 0


def cmd_audit(args) -> int:
    from .serialize import dump_json
    from .verifier import audit_all

    sched = _load_schedule(args.schedule)
    report = audit_all(sched, i_max=args.i_max, x_depth=args.x_depth)
    print(f"{'claim':6s} {'verdict':12s} witness")
    for claim in report.claims:
        witness = "-" if claim.witness is None else str(claim.witness)
        print(f"{claim.claim_id:6s} {claim.verdict:12s} {witness}")
    print(f"C2/C3 cross-link consistent: {report.cross_links['c2_c3_consistent']}")
    if args.out:
        dump_json(_attach_metadata(report.to_jsonable(), args, sched.profile), args.out)
    return 0  # findings are findings, not errors


def cmd_simulate(args) -> int:
    from .serialize import dump_csv, dump_json
    from .simulator import run_experiment, trajectory_csv_rows

    if args.traj_count < 0:  # checked before any output is written
        raise ValueError(f"--traj-count must be >= 0, got {args.traj_count}")
    sched = _load_schedule(args.schedule)
    result = run_experiment(
        sched,
        max_phase=args.phases,
        replications=args.reps,
        base_seed=args.seed,
        threads=_threads(args),
    )
    for ps in result.per_phase:
        freq = "n/a" if ps.frequency is None else f"{ps.frequency:.6f}"
        print(f"phase {ps.i}: attempts={ps.attempts} successes={ps.successes} freq={freq}")
    print(f"product estimate: {result.product_estimate:.6g}")
    if args.out:
        dump_json(_attach_metadata(result.to_jsonable(), args, sched.profile), args.out)
    if args.csv:
        rows = [("i", "attempts", "successes", "frequency", "wilson_lo",
                 "wilson_hi", "bound_paper", "bound_true_mean")]
        rows += [
            (p.i, p.attempts, p.successes, p.frequency, p.wilson_lo,
             p.wilson_hi, p.bound_paper, p.bound_true_mean)
            for p in result.per_phase
        ]
        dump_csv(rows, args.csv)
    if args.traj_csv:
        dump_csv(
            trajectory_csv_rows(sched, args.phases, args.seed, args.traj_count),
            args.traj_csv,
        )
    return 0


def cmd_bound(args) -> int:
    from .bounds import divergence_lower_bound, product_limit_check
    from .serialize import dump_csv, dump_json, fmt_real

    if len(args.M) == 1:
        bound = divergence_lower_bound(args.sigma, args.M[0], args.K)
        doc = {
            "sigma": args.sigma, "M": args.M[0], "K": args.K,
            "lo": bound.lo, "hi": bound.hi, "width": bound.width,
        }
        entries = [(args.M[0], bound.lo, bound.hi, bound.lo > args.sigma)]
        print(f"bound in [{fmt_real(bound.lo)}, {fmt_real(bound.hi)}]")
    else:
        report = product_limit_check(args.sigma, args.K, args.M)
        doc = report.to_jsonable()
        entries = [
            (e.M, e.bound.lo, e.bound.hi, e.exceeds_sigma) for e in report.entries
        ]
        for entry in report.entries:
            marker = " > sigma" if entry.exceeds_sigma else ""
            print(f"M={entry.M}: [{fmt_real(entry.bound.lo)}, {fmt_real(entry.bound.hi)}]{marker}")
        print(f"monotone in M: {report.monotone_in_M}; least M exceeding sigma: "
              f"{report.least_M_exceeding}")
    if args.out:
        dump_json(_attach_metadata(doc, args, None), args.out)
    if args.csv:
        dump_csv([("M", "lo", "hi", "exceeds_sigma")] + entries, args.csv)
    return 0


def _keep_last(laws, kept: deque):
    """Pass `laws` through, keeping the latest one in `kept`."""
    for law in laws:
        kept.append(law)
        yield law


def cmd_dp(args) -> int:
    from .oracle import phase_ends, tail_probability, transient_law
    from .serialize import dump_json, dump_law_csv, fmt_real

    sched = _load_schedule(args.schedule)
    if not args.out and args.threshold is None:
        raise ValueError("nothing to do: pass --out for a law dump and/or --threshold")
    if args.json and args.threshold is None:
        raise ValueError("--json writes the event probability, which needs --threshold")
    # one pass over the laws serves both the CSV and the event probability,
    # and it copies out only the laws they read
    ends = None
    steps = None if args.out else {args.horizon}
    if args.out and args.boundaries_only:
        ends = phase_ends(sched, args.horizon)
        steps = ends | {args.horizon}
    laws = transient_law(args.horizon, sched, arithmetic=args.arithmetic, steps=steps)
    final = deque(maxlen=1)
    if args.out:
        dump_law_csv(_keep_last(laws, final), args.out, ends)
    final.extend(laws)  # without --out, this runs the whole pass
    if args.threshold is not None:
        p = tail_probability(final[0], args.threshold, strict=not args.non_strict)
        rel = ">" if not args.non_strict else ">="
        print(f"P(S_{args.horizon} {rel} {args.threshold}) = {fmt_real(p)}")
        if args.json:
            doc = {"horizon": args.horizon, "threshold": args.threshold,
                   "strict": not args.non_strict, "probability": float(p)}
            dump_json(_attach_metadata(doc, args, sched.profile), args.json)
    return 0


def cmd_feasibility(args) -> int:
    from .schedule import check_schedule_feasibility
    from .serialize import dump_csv, dump_json

    sched = _load_schedule(args.schedule)
    report = check_schedule_feasibility(sched, i_max=args.i_max)
    if report.first_violation is None:
        print(f"feasible through phase {args.i_max}")
    else:
        i, reason = report.first_violation
        print(f"first violation at phase {i}: {reason}")
    if args.out:
        dump_json(_attach_metadata(report.to_jsonable(), args, sched.profile), args.out)
    if args.csv:
        dump_csv(report.csv_rows(), args.csv)
    return 0


def cmd_control(args) -> int:
    from .serialize import dump_json
    from .simulator import run_control

    summary = run_control(
        mode=args.mode,
        horizon=args.horizon,
        replications=args.reps,
        base_seed=args.seed,
        a=args.a,
        threads=_threads(args),
    )
    print(f"drift = {summary.drift:.6f}")
    if summary.mode == "constant":
        print(f"nondecreasing fraction = {summary.nondecreasing_fraction:.4f}")
    else:
        print(f"tail occupancy mode at s = {summary.occupancy_mode}")
    if args.out:
        dump_json(_attach_metadata(summary.to_jsonable(), args, None), args.out)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stairwalk", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--metadata", action="store_true",
                       help="embed version/generator/profile in outputs")

    def monte_carlo(p):
        p.add_argument("--threads", type=int, default=None,
                       help="forked worker processes for Monte Carlo chunks, capped at "
                            "the usable CPUs (default: all; env STAIRWALK_THREADS)")
        common(p)

    p = sub.add_parser("schedule", help="build and serialize a phase schedule")
    p.add_argument("--sigma", type=float, default=0.5)
    p.add_argument("--sigma-phase1", type=float, default=None)
    p.add_argument("--profile", help="profile JSON file (default: original constants)")
    p.add_argument("--mode", choices=[PAPER_LITERAL, USER_DESIGNED],
                   default=PAPER_LITERAL)
    p.add_argument("--phases", help="user-designed schedule JSON file")
    p.add_argument("--out", help="output schedule JSON path")
    common(p)
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser("audit", help="run the claim auditor")
    p.add_argument("--schedule", required=True)
    p.add_argument("--i-max", type=int, default=10**4)
    p.add_argument("--x-depth", type=int, default=10**3)
    p.add_argument("--out", help="audit report JSON path")
    common(p)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("simulate", help="run a seeded Monte Carlo experiment")
    p.add_argument("--schedule", required=True)
    p.add_argument("--phases", type=int, required=True, help="deepest phase to run")
    p.add_argument("--reps", type=int, default=10**4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="experiment JSON path")
    p.add_argument("--csv", help="per-phase stats CSV path")
    p.add_argument("--traj-csv", help="checkpoint dump (replication, n, s) path")
    p.add_argument("--traj-count", type=int, default=10,
                   help="replications to include in the checkpoint dump")
    monte_carlo(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("bound", help="certified divergence product bound")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--M", type=int, action="append", required=True,
                   help="repeat for a monotonicity sweep over M")
    p.add_argument("--K", type=int, default=1)
    p.add_argument("--out", help="bound JSON path")
    p.add_argument("--csv", help="per-M CSV path")
    common(p)
    p.set_defaults(fn=cmd_bound)

    p = sub.add_parser("dp", help="exact transient law by dynamic programming")
    p.add_argument("--schedule", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--arithmetic", choices=["float", "rational"], default="float")
    p.add_argument("--threshold", type=int, default=None)
    p.add_argument("--non-strict", action="store_true",
                   help="use P(S >= threshold) instead of P(S > threshold)")
    p.add_argument("--boundaries-only", action="store_true",
                   help="emit laws only at phase boundaries")
    p.add_argument("--out", help="law CSV path")
    p.add_argument("--json", help="event-probability JSON path")
    common(p)
    p.set_defaults(fn=cmd_dp)

    p = sub.add_parser("feasibility", help="per-phase induction conditions")
    p.add_argument("--schedule", required=True)
    p.add_argument("--i-max", type=int, required=True)
    p.add_argument("--out", help="report JSON path")
    p.add_argument("--csv", help="per-phase CSV path")
    common(p)
    p.set_defaults(fn=cmd_feasibility)

    p = sub.add_parser("control", help="constant-a and fast-growth control runs")
    p.add_argument("--mode", choices=["constant", "fast-growth"], required=True)
    p.add_argument("--horizon", type=int, default=10**4)
    p.add_argument("--reps", type=int, default=10**3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--a", type=float, default=8.0)
    p.add_argument("--out", help="summary JSON path")
    monte_carlo(p)
    p.set_defaults(fn=cmd_control)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ResourceBudgetError, MemoryError) as exc:
        # a walk too long for its step tables fails to allocate them at once
        print(f"resource budget exceeded: {exc or 'out of memory'}", file=sys.stderr)
        return RESOURCE_EXIT
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
