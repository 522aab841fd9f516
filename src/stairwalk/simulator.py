"""Seeded Monte Carlo engine for the flattened walk.

Reproducibility contract: replication r of an experiment draws its uniforms
from its own counter-based stream, a Philox4x64 generator keyed by
(replication index, base seed).  Each stream is a pure function of
(base_seed, r) with 128-bit key and 128-bit counter state, so results are
independent of batching, execution order, and thread count; replications
are partitioned into fixed-size chunks and aggregated by exact integer
sums, which commute.

A chunk reads its streams through one Philox bit generator, re-keyed to
(r, base_seed) with its counter set to the block's first draw, so draw #j
of stream r is the same as from a generator built for that stream alone.
Only as many draws as the walk takes are made.  Uniforms are buffered in
blocks laid out (column, replication), so each step reads one contiguous
row; a yielded row is valid until the next step.

One step engine, `_walk`, drives every entry point.  It advances a chunk
of replications, vectorized, through a list of segments.  A segment is a
number of steps at either a constant adaptation value a, whose step laws
are read from one lookup table per distinct a, or under a rule a(n)
evaluated at every absolute step n.  Step n consumes uniform column n
(draw #n of every stream) and maps it through the inverse CDF of the
current three-point step law (atom order -1 < 0 < 1, matching the
monotone coupling construction); the coupling check draws its dominated
variable Z from the same uniform through the same inverse CDF.  Callers
only observe between steps: phase outcomes and checkpoints, phase minima
and Z sums, down steps, tail occupancy.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np
from scipy import stats as _scipy_stats

from .bounds import phase_success_bound, true_mean_phase_bound
from .core import PAPER_LITERAL
from .domination import z_distribution
from .kernel import _inverse_cdf, flat_step_probs_at, step_prob_tables

GENERATOR_ID = "philox4x64(key=[replication, base_seed])"

_MASK64 = (1 << 64) - 1
_CHUNK = 4096          # replication chunk: determinism & memory unit
_BLOCK = 1024          # uniform columns buffered per refill
_TILE = 128            # streams drawn before one transposed copy into a block
assert _BLOCK % 4 == 0, "a block must start on a Philox counter boundary"


def replication_seed(base_seed: int, r: int) -> int:
    """Compose the 128-bit stream seed of replication r."""
    if not 0 <= base_seed <= _MASK64:
        raise ValueError("base_seed must fit in 64 bits")
    if not 0 <= r <= _MASK64:
        raise ValueError("replication index must fit in 64 bits")
    return (base_seed << 64) | r


class _UniformFeed:
    """Column-at-a-time access to the uniform streams of a chunk.

    Column j always holds draw #j of every stream, regardless of block
    size, so step n of a replication consumes the same uniform no matter
    how the batch is arranged.  One Philox bit generator serves all the
    streams: each refill re-keys it to (r, base_seed) and points its counter
    at the block's first draw.  Philox emits four doubles per counter value
    and `_BLOCK` is a multiple of four, so a block split from a stream is
    bit-identical to the same draws taken in one call.  Only the `total`
    draws the walk takes are made.

    The block is stored (column, replication), filled a tile of streams at
    a time, and refilled in place: a returned column is valid until the
    next call.
    """

    def __init__(self, seeds: Sequence[int], total: int):
        self._keys = [(seed & _MASK64, (seed >> 64) & _MASK64) for seed in seeds]
        self._total = total
        self._bg = np.random.Philox(0)
        self._gen = np.random.Generator(self._bg)
        self._state = self._bg.state    # template: key and counter set per refill
        rows = min(_BLOCK, total)
        self._buf = np.empty((rows, len(seeds)))
        self._tile = np.empty((min(_TILE, len(seeds)), rows))
        self._drawn = self._col = self._end = 0

    def _refill(self) -> None:
        width = min(_BLOCK, self._total - self._drawn)
        if width <= 0:
            raise IndexError(f"the walk has taken all {self._total} draws")
        state = self._state["state"]
        state["counter"][:] = (self._drawn // 4, 0, 0, 0)
        for lo in range(0, len(self._keys), _TILE):
            keys = self._keys[lo:lo + _TILE]
            for k, key in enumerate(keys):
                state["key"][:] = key
                self._bg.state = self._state
                self._gen.random(out=self._tile[k, :width])
            self._buf[:width, lo:lo + len(keys)] = self._tile[:len(keys), :width].T
        self._drawn += width
        self._col, self._end = 0, width

    def next_column(self) -> np.ndarray:
        if self._col == self._end:
            self._refill()
        u = self._buf[self._col]
        self._col += 1
        return u


class Segment(NamedTuple):
    """`length` steps at a constant adaptation value `a`, or under a rule
    `a(n)` of the absolute step index n (counted from 0)."""

    length: int
    a: float | Callable[[int], float]


def _walk(seeds: Sequence[int], segments: Sequence[Segment], s: np.ndarray,
          move: np.ndarray | None = None) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Advance positions `s` in place through `segments`, one step per
    uniform column, yielding each step's (uniforms, unmasked increments)
    after `s` has moved.  The uniforms are valid until the next step.

    `move`, when given, masks every increment; callers may update it in
    place between steps (early stop clears it after a failed phase).
    """
    s_max = sum(seg.length for seg in segments)
    feed = _UniformFeed(seeds, s_max)
    tables: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    n0 = 0
    for seg in segments:
        rule = seg.a if callable(seg.a) else None
        if rule is None:
            if seg.a not in tables:
                p_down_tab, p_up_tab = step_prob_tables(s_max, seg.a)
                tables[seg.a] = p_down_tab, 1.0 - p_up_tab
            p_down_tab, up_from_tab = tables[seg.a]
        for n in range(n0, n0 + seg.length):
            u = feed.next_column()
            if rule is None:
                ds = _inverse_cdf(u, p_down_tab[s], up_from_tab[s])
            else:
                p_down, p_up = flat_step_probs_at(s, rule(n))
                ds = _inverse_cdf(u, p_down, 1.0 - p_up)
            s += ds if move is None else ds * move
            yield u, ds
        n0 += seg.length


def _advance(steps: Iterator, count: int) -> None:
    """Take `count` steps from a walk without observing them."""
    for _ in islice(steps, count):
        pass


def _phase_plan(schedule, max_phase: int):
    """Segments of phases 1..max_phase and each phase's success test
    (threshold T_i, strict comparison)."""
    if max_phase < 1:
        raise ValueError("max_phase must be >= 1")
    phases = range(1, max_phase + 1)
    segments = [Segment(schedule.length(i), float(schedule.a_of_phase(i))) for i in phases]
    tests = [(float(schedule.threshold(i)), schedule.strict_threshold(i)) for i in phases]
    return segments, tests


def _phase_chunk(seeds, segments, tests, early_stop: bool):
    """Per-phase outcomes (phase x replication) and S at every phase end.

    Outcome k compares S_{N_k} with T_k; with early_stop a replication
    stops moving after its first failed phase.
    """
    s = np.zeros(len(seeds), dtype=np.int64)
    alive = np.ones(len(seeds), dtype=bool)
    steps = _walk(seeds, segments, s, alive if early_stop else None)
    outcomes = np.zeros((len(segments), len(seeds)), dtype=bool)
    checkpoints = []
    for k, (seg, (t, strict)) in enumerate(zip(segments, tests)):
        _advance(steps, seg.length)
        outcomes[k] = s > t if strict else s >= t
        alive &= outcomes[k]
        checkpoints.append(s.copy())
    return outcomes, checkpoints


def _run_chunks(fn: Callable, replications: int, base_seed: int, threads: int | None):
    """Run fn(seeds) over the fixed chunks of replications; ordered results."""
    def chunk(lo):
        hi = min(lo + _CHUNK, replications)
        return fn([replication_seed(base_seed, r) for r in range(lo, hi)])

    ranges = range(0, replications, _CHUNK)
    workers = threads if threads is not None else (os.cpu_count() or 1)
    workers = max(1, min(int(workers), len(ranges)))
    if workers == 1:
        return [chunk(lo) for lo in ranges]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(chunk, ranges))


# ======================================================================
# Single trajectories
# ======================================================================


@dataclass
class Trajectory:
    """Outcome record of a single replication."""

    seed: int
    checkpoints: list[tuple[int, int]]   # (step index N_i, S_{N_i})
    phase_outcomes: list[bool]
    final_s: int

    @property
    def deepest_phase(self) -> int:
        depth = 0
        for ok in self.phase_outcomes:
            if not ok:
                break
            depth += 1
        return depth


def run_replication(
    schedule, max_phase: int, seed: int, early_stop: bool = True
) -> Trajectory:
    """Simulate one replication through phase max_phase, deterministic in seed.

    `seed` is the composed 128-bit value from :func:`replication_seed`.
    With early_stop (the default) the walk freezes at the end of the first
    failed phase; later checkpoints then record the frozen position.
    """
    segments, tests = _phase_plan(schedule, max_phase)
    outcomes, checkpoints = _phase_chunk([seed], segments, tests, early_stop)
    return Trajectory(
        seed=seed,
        checkpoints=[(schedule.N(i), int(cp[0])) for i, cp in enumerate(checkpoints, 1)],
        phase_outcomes=[bool(v) for v in outcomes[:, 0]],
        final_s=int(checkpoints[-1][0]),
    )


# ======================================================================
# Replicated experiments
# ======================================================================


def wilson_interval(
    successes: int, n: int, confidence: float = 0.99
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n < 0 or not 0 <= successes <= max(n, 0):
        raise ValueError("need 0 <= successes <= n")
    if n == 0:
        return (0.0, 1.0)
    z = float(_scipy_stats.norm.ppf(0.5 + confidence / 2.0))
    phat = successes / n
    denom = 1.0 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = (z / denom) * np.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n))
    return (max(0.0, float(center - half)), min(1.0, float(center + half)))


@dataclass
class PhaseStats:
    i: int
    attempts: int
    successes: int
    frequency: float | None
    wilson_lo: float | None
    wilson_hi: float | None
    bound_paper: float | None       # 1 - 2/L^2K (rule-generated schedules)
    bound_true_mean: float | None   # centered at E(Z_i)

    def to_jsonable(self) -> dict:
        return self.__dict__.copy()


@dataclass
class ExperimentResult:
    schedule_hash: str
    max_phase: int
    replications: int
    base_seed: int
    early_stop: bool
    per_phase: list[PhaseStats]
    product_estimate: float
    product_wilson: tuple[float, float]
    survivors: int
    metadata: dict = field(default_factory=dict)

    def phase(self, i: int) -> PhaseStats:
        return self.per_phase[i - 1]

    def to_jsonable(self) -> dict:
        return {
            "schedule_hash": self.schedule_hash,
            "max_phase": self.max_phase,
            "replications": self.replications,
            "base_seed": self.base_seed,
            "early_stop": self.early_stop,
            "survivors": self.survivors,
            "product_estimate": self.product_estimate,
            "product_wilson": list(self.product_wilson),
            "per_phase": [p.to_jsonable() for p in self.per_phase],
            "metadata": self.metadata,
        }


def run_experiment(
    schedule,
    max_phase: int,
    replications: int,
    base_seed: int,
    early_stop: bool = True,
    threads: int | None = None,
    confidence: float = 0.99,
) -> ExperimentResult:
    """Estimate the conditional phase success chain over many replications.

    Replication r is driven by the stream keyed (r, base_seed); attempts of
    phase i count replications whose phases 1..i-1 all succeeded, so the
    per-phase frequency estimates P(phase i succeeds | earlier successes)
    and the product estimate is the survivor fraction of the whole chain.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    segments, tests = _phase_plan(schedule, max_phase)

    def job(seeds):
        outcomes, _ = _phase_chunk(seeds, segments, tests, early_stop)
        return np.logical_and.accumulate(outcomes).sum(axis=1)

    # successes of phase i are the attempts of phase i + 1
    chunks = _run_chunks(job, replications, base_seed, threads)
    successes = [int(v) for v in np.sum(chunks, axis=0)]
    attempts = [replications] + successes[:-1]

    per_phase = []
    for k in range(max_phase):
        i = k + 1
        att, suc = attempts[k], successes[k]
        freq = suc / att if att else None
        wilson = wilson_interval(suc, att, confidence) if att else (None, None)
        bound_paper = None
        if i >= 2 and schedule.mode == PAPER_LITERAL:
            bound_paper = phase_success_bound(i, schedule)
        bound_true = true_mean_phase_bound(i, schedule) if i >= 2 else None
        per_phase.append(
            PhaseStats(
                i=i, attempts=att, successes=suc, frequency=freq,
                wilson_lo=wilson[0], wilson_hi=wilson[1],
                bound_paper=bound_paper, bound_true_mean=bound_true,
            )
        )

    survivors = successes[max_phase - 1]
    return ExperimentResult(
        schedule_hash=schedule.schedule_hash(),
        max_phase=max_phase,
        replications=replications,
        base_seed=base_seed,
        early_stop=early_stop,
        per_phase=per_phase,
        product_estimate=survivors / replications,
        product_wilson=wilson_interval(survivors, replications, confidence),
        survivors=survivors,
        metadata={
            "generator": GENERATOR_ID,
            "base_seed": base_seed,
            "chunk": _CHUNK,
            "confidence": confidence,
        },
    )


def trajectory_csv_rows(schedule, max_phase: int, base_seed: int, count: int):
    """(replication, n, s) checkpoint rows for the first `count` replications."""
    yield ("replication", "n", "s")
    for r in range(count):
        traj = run_replication(schedule, max_phase, replication_seed(base_seed, r))
        for n, s in traj.checkpoints:
            yield (r, n, s)


def final_positions(
    schedule, horizon: int, replications: int, base_seed: int,
    threads: int | None = None,
) -> np.ndarray:
    """S_horizon for each replication (no phase events evaluated)."""
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    segments = []
    covered, i = 0, 1
    while covered < horizon:
        take = min(schedule.length(i), horizon - covered)
        segments.append(Segment(take, float(schedule.a_of_phase(i))))
        covered += take
        i += 1

    def job(seeds):
        s = np.zeros(len(seeds), dtype=np.int64)
        _advance(_walk(seeds, segments, s), horizon)
        return s

    parts = _run_chunks(job, replications, base_seed, threads)
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


# ======================================================================
# Control experiments
# ======================================================================


@dataclass
class ControlSummary:
    mode: str
    horizon: int
    replications: int
    base_seed: int
    drift: float
    final_quantiles: dict[str, float]
    nondecreasing_fraction: float | None = None
    a: float | None = None
    growth_rule: str | None = None
    occupancy_mode: int | None = None
    low_state_fraction: float | None = None
    tail_histogram: list[int] | None = None

    def to_jsonable(self) -> dict:
        return self.__dict__.copy()


_QUANTILES = (0.01, 0.25, 0.5, 0.75, 0.99)


def run_control(
    mode: str,
    horizon: int,
    replications: int,
    base_seed: int,
    a: float = 8.0,
    growth: Callable[[int], float] | None = None,
    growth_label: str = "n^2+8",
    tail_fraction: float = 0.5,
    low_threshold: int = 4,
    threads: int | None = None,
) -> ControlSummary:
    """Qualitative control runs for the two limiting regimes.

    mode="constant": fixed adaptation value a (>= 8); reports empirical
    drift and final-position quantiles, plus the fraction of trajectories
    that never stepped down (1.0 is expected at a = 8).

    mode="fast-growth": a_n from `growth` (default n^2 + 8, growing so fast
    the walk behaves like the draw-from-target sampler); reports the tail
    occupancy histogram of s, its mode, and the fraction of tail time spent
    at s <= low_threshold.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if mode == "constant":
        if a < 8:
            raise ValueError("constant mode needs a >= 8")

        def job(seeds):
            s = np.zeros(len(seeds), dtype=np.int64)
            decreased = np.zeros(len(seeds), dtype=bool)
            for _, ds in _walk(seeds, [Segment(horizon, a)], s):
                decreased |= ds < 0
            return s, decreased

    elif mode == "fast-growth":
        rule = growth if growth is not None else (lambda n: float(n * n + 8))
        tail_start = max(0, int(horizon * (1.0 - tail_fraction)))

        def job(seeds):
            s = np.zeros(len(seeds), dtype=np.int64)
            hist = np.zeros(horizon + 2, dtype=np.int64)
            low = 0
            steps = _walk(seeds, [Segment(horizon, rule)], s)
            _advance(steps, tail_start)
            for _ in steps:
                hist += np.bincount(s, minlength=horizon + 2)
                low += int((s <= low_threshold).sum())
            return s, hist, low

    else:
        raise ValueError(f"unknown control mode {mode!r}")

    parts = _run_chunks(job, replications, base_seed, threads)
    final = np.concatenate([p[0] for p in parts])
    summary = ControlSummary(
        mode=mode,
        horizon=horizon,
        replications=replications,
        base_seed=base_seed,
        drift=float(final.mean()) / horizon,
        final_quantiles={str(q): float(np.quantile(final, q)) for q in _QUANTILES},
    )
    if mode == "constant":
        summary.a = a
        decreased = np.concatenate([p[1] for p in parts])
        summary.nondecreasing_fraction = float(1.0 - decreased.mean())
        return summary
    hist = sum(p[1] for p in parts)
    tail_steps = int(hist.sum())
    support = int(np.nonzero(hist)[0].max()) if hist.any() else 0
    summary.growth_rule = growth_label
    summary.occupancy_mode = int(np.argmax(hist))
    low = sum(p[2] for p in parts)
    summary.low_state_fraction = low / tail_steps if tail_steps else None
    summary.tail_histogram = [int(v) for v in hist[: support + 1]]
    return summary


# ======================================================================
# Pathwise coupling check
# ======================================================================


@dataclass
class CoupledCheckReport:
    max_phase: int
    replications: int
    pairs_checked: int      # (replication, phase) pairs with x >= i throughout
    violations: int         # pairs where the phase gain fell below the Z sum

    @property
    def ok(self) -> bool:
        return self.violations == 0

    def to_jsonable(self) -> dict:
        return {
            "max_phase": self.max_phase,
            "replications": self.replications,
            "pairs_checked": self.pairs_checked,
            "violations": self.violations,
            "ok": self.ok,
        }


def run_coupled_check(
    schedule, max_phase: int, replications: int, base_seed: int,
    threads: int | None = None,
) -> CoupledCheckReport:
    """Drive the walk and the dominated i.i.d. variables from the same
    uniforms and verify S_{N_i} - S_{N_{i-1}} >= sum of Z draws pathwise,
    for every phase i >= 2 during which the walk stayed at height x >= i.
    """
    if max_phase < 2:
        raise ValueError("the coupling check needs max_phase >= 2")
    segments, _ = _phase_plan(schedule, max_phase)
    z_laws = [z_distribution(i, schedule) for i in range(2, max_phase + 1)]

    def job(seeds):
        s = np.zeros(len(seeds), dtype=np.int64)
        steps = _walk(seeds, segments, s)
        _advance(steps, segments[0].length)
        checked = violations = 0
        for i, (seg, z) in enumerate(zip(segments[1:], z_laws), 2):
            c, b_from = float(z.c), 1.0 - float(z.b)
            start, phase_min = s.copy(), s.copy()
            z_sum = np.zeros(len(seeds), dtype=np.int64)
            for _ in range(seg.length):
                np.minimum(phase_min, s, out=phase_min)
                u, _ = next(steps)
                z_sum += _inverse_cdf(u, c, b_from)
            valid = phase_min >= 2 * i - 3  # x >= i throughout
            checked += int(valid.sum())
            violations += int((s - start < z_sum)[valid].sum())
        return checked, violations

    results = _run_chunks(job, replications, base_seed, threads)
    return CoupledCheckReport(
        max_phase=max_phase,
        replications=replications,
        pairs_checked=sum(r[0] for r in results),
        violations=sum(r[1] for r in results),
    )
