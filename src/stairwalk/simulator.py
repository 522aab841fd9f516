"""Seeded Monte Carlo engine for the flattened walk.

Reproducibility contract: replication r of an experiment draws its uniforms
from its own counter-based stream, a Philox4x64 generator keyed by
(replication index, base seed).  Each stream is a pure function of
(base_seed, r) with 128-bit key and 128-bit counter state, so results are
independent of batching, execution order, and worker count; replications
are partitioned into fixed-size chunks and aggregated by exact integer
sums, which commute.

Chunks run in forked worker processes, at most `threads` of them, capped by
the usable CPUs and the chunk count; one worker, or a platform without
fork, runs them in-process.  `multiprocessing` and `concurrent.futures`
are imported only by a call that has more than one worker, so a one-worker
run never loads them.  Each call builds its job (a closure over the
segments, step tables and any user `growth` rule) and hands it to its own
pool through the pool's initializer, which fork passes on without pickling;
each task then carries only a chunk's seeds, built in the parent, and
returns the chunk's small result.  Two chunks per worker are in flight at
a time, and results come back in chunk order.

A worker first moves every object it inherited into the collector's
permanent generation (`gc.freeze`).  Otherwise a full collection in the
worker would walk, and so copy, the parent's whole heap, and how soon one
comes depends on how many objects the parent happens to hold: with fewer
modules loaded, such collections cost mc-short-paths about 4 % of its time.

A chunk reads its streams through one Philox bit generator, re-keyed to
(r, base_seed) with its counter set to the block's first draw, so draw #j
of stream r is the same as from a generator built for that stream alone.
Philox is counter-based, so a re-key is one state write, made from a
template of plain Python ints (see `_UniformFeed`).  Only as many draws as
the walk takes are made.  Uniforms are buffered in blocks laid out
(column, replication), so each step reads one contiguous row; a yielded
row is valid until the next step.

One step engine, `_walk`, drives every entry point.  It advances a chunk
of replications, vectorized, through a list of segments.  A segment is a
number of steps at either a constant adaptation value a or under a rule
a(n) of the absolute step n.  Either way each step reads its laws from a
lookup table indexed by position: a constant segment's table, one per
distinct a, is built once per call in the parent; a rule segment's is built
at every step over [0, max s] of the chunk, since a changes but the chunk's
positions stay low.  It evaluates the law's expression on the head of the
step geometry (`kernel.step_geometry`), built once per walk over every
position the walk can reach.  Step n consumes uniform column n (draw #n
of every stream) and maps it through the inverse CDF of the current
three-point step law (atom order -1 < 0 < 1, matching the monotone
coupling construction); the coupling check draws its dominated variable Z
from the same uniform through the same inverse CDF.  Increments are int8
and positions int64.  At a = 8 the backward probability 1/2 - 4/a is zero,
so a constant segment there has no down table and steps with one compare.
An early-stop mask is read once per segment and applied only once some
replication has stopped.  Callers only observe between steps: phase
outcomes and checkpoints, phase minima and Z sums, down steps, tail
occupancy.
"""

from __future__ import annotations

import gc
import math
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .bounds import phase_success_bound, true_mean_phase_bound
from .core import PAPER_LITERAL, usable_cpus
from .domination import z_distribution
from .kernel import _inverse_cdf, flat_step_probs_on, step_geometry, step_prob_tables

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

    The state template holds plain Python ints, and a refill writes only
    the key and the counter's first word into it: assigning the template
    to `Philox.state` converts every entry, and a Python int converts in
    about a third of the time of the numpy uint64 scalars that
    `Philox.state` itself returns.  `buffer_pos` 4 drops any output left
    from the previous stream.  The tile-row views and the bound
    `Generator.random` are made once per feed, not per stream and refill.
    """

    def __init__(self, seeds: Sequence[int], total: int):
        self._keys = [(seed & _MASK64, (seed >> 64) & _MASK64) for seed in seeds]
        self._total = total
        self._bg = np.random.Philox(0)
        self._gen = np.random.Generator(self._bg)
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": [0, 0, 0, 0], "key": (0, 0)},
                       "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}
        rows = min(_BLOCK, total)
        self._buf = np.empty((rows, len(seeds)))
        self._tile = np.empty((min(_TILE, len(seeds)), rows))
        self._rows = list(self._tile)   # one view per tile row, full width
        self._random = self._gen.random
        self._drawn = self._col = self._end = 0

    def _refill(self) -> None:
        width = min(_BLOCK, self._total - self._drawn)
        if width <= 0:
            raise IndexError(f"the walk has taken all {self._total} draws")
        if width < self._tile.shape[1]:   # the walk's last, short block
            self._rows = [row[:width] for row in self._rows]
        bg, state, random = self._bg, self._state, self._random
        philox = state["state"]
        philox["counter"][0] = self._drawn // 4
        for lo in range(0, len(self._keys), _TILE):
            keys = self._keys[lo:lo + _TILE]
            for key, row in zip(keys, self._rows):
                philox["key"] = key
                bg.state = state
                random(out=row)
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


# constant a -> (p_down, 1 - p_up) lookup tables over s in [0, total steps];
# p_down is None where it is all 0.0 (a = 8: no step goes down)
Tables = dict[float, tuple[np.ndarray | None, np.ndarray]]


def _step_tables(segments: Sequence[Segment]) -> Tables:
    """The lookup tables of every constant-a segment, one per distinct a,
    sized for the whole walk (s never exceeds the number of steps)."""
    s_max = sum(seg.length for seg in segments)
    tables = {}
    for seg in segments:
        if not callable(seg.a) and seg.a not in tables:
            p_down, p_up = step_prob_tables(s_max, seg.a)
            tables[seg.a] = (p_down if p_down.any() else None), 1.0 - p_up
    return tables


def _walk(seeds: Sequence[int], segments: Sequence[Segment], tables: Tables,
          s: np.ndarray, move: np.ndarray | None = None
          ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Advance positions `s` in place through `segments`, one step per
    uniform column, yielding each step's (uniforms, unmasked int8
    increments) after `s` has moved.  Both are valid until the next step.

    `tables` comes from `_step_tables(segments)`.  A constant segment whose
    down table is None steps with one gather and one compare; the dropped
    compare, u < 0.0, is False for every uniform.  A rule segment builds
    its table at every step, over positions [0, max s], from a step
    geometry made once per walk; its rule must give a >= 8.  `move`, when
    given, masks every increment.  It is read once per segment, at the
    segment's start, and multiplies the increments only while some entry
    is False, so callers may update it in place between segments (early
    stop clears it at the end of a failed phase).
    """
    total = sum(seg.length for seg in segments)
    feed = _UniformFeed(seeds, total)
    if any(callable(seg.a) for seg in segments):
        geometry = step_geometry(np.arange(total + 1, dtype=np.int64))
    n0 = 0
    for seg in segments:
        rule = seg.a if callable(seg.a) else None
        if rule is None:
            p_down, up_from = tables[seg.a]
        mask = None if move is None or move.all() else move
        for n in range(n0, n0 + seg.length):
            u = feed.next_column()
            if rule is not None:
                a = rule(n)
                if not a >= 8:  # also rejects NaN
                    raise ValueError(f"growth rule gave a({n}) = {a}; need a >= 8")
                top = int(s.max()) + 1
                p_down, p_up = flat_step_probs_on([g[:top] for g in geometry], a)
                up_from = np.subtract(1.0, p_up, out=p_up)
            if p_down is None:
                ds = (u >= up_from[s]).view(np.int8)
            else:
                ds = _inverse_cdf(u, p_down[s], up_from[s])
            s += ds if mask is None else ds * mask
            yield u, ds
        n0 += seg.length


def _advance(steps: Iterator, count: int) -> None:
    """Take `count` steps from a walk without observing them."""
    for _ in islice(steps, count):
        pass


def _phase_plan(schedule, max_phase: int):
    """Segments of phases 1..max_phase, their step tables, and each phase's
    success test (threshold T_i, strict comparison)."""
    if max_phase < 1:
        raise ValueError("max_phase must be >= 1")
    segments = [Segment(steps, float(a))
                for steps, a in schedule.segments(schedule.N(max_phase))]
    tests = [(float(schedule.threshold(i)), schedule.strict_threshold(i))
             for i in range(1, max_phase + 1)]
    return segments, _step_tables(segments), tests


def _phase_chunk(seeds, segments, tables, tests, early_stop: bool):
    """Per-phase outcomes (phase x replication) and S at every phase end.

    Outcome k compares S_{N_k} with T_k; with early_stop a replication
    stops moving after its first failed phase.
    """
    s = np.zeros(len(seeds), dtype=np.int64)
    alive = np.ones(len(seeds), dtype=bool)
    steps = _walk(seeds, segments, tables, s, alive if early_stop else None)
    outcomes = np.zeros((len(segments), len(seeds)), dtype=bool)
    checkpoints = []
    for k, (seg, (t, strict)) in enumerate(zip(segments, tests)):
        _advance(steps, seg.length)
        outcomes[k] = s > t if strict else s >= t
        alive &= outcomes[k]
        checkpoints.append(s.copy())
    return outcomes, checkpoints


_job: Callable | None = None   # set only in pool workers, by _install_job


def _install_job(fn: Callable) -> None:
    global _job
    gc.freeze()  # the collector never walks, and so never copies, what fork shared
    _job = fn


def _run_job(seeds: list[int]):
    return _job(seeds)


def _run_chunks(fn: Callable, replications: int, base_seed: int, threads: int | None):
    """Run fn(seeds) over the fixed chunks of replications; ordered results.

    Up to `threads` forked workers (default: every usable CPU), never more
    than the usable CPUs or the chunks, since a fork pool starts all its
    workers at once.
    """
    if replications < 1:
        raise ValueError("replications must be >= 1")
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    cpus = usable_cpus()
    ranges = range(0, replications, _CHUNK)
    workers = min(cpus if threads is None else int(threads), cpus, len(ranges))
    chunks = ([replication_seed(base_seed, r) for r in range(lo, min(lo + _CHUNK, replications))]
              for lo in ranges)
    if workers <= 1:
        return [fn(seeds) for seeds in chunks]
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(seeds) for seeds in chunks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_install_job, initargs=(fn,)) as pool:
        # Enough to keep every worker busy, without holding every chunk's seeds.
        inflight = deque(pool.submit(_run_job, seeds) for seeds in islice(chunks, 2 * workers))
        results = []
        while inflight:
            results.append(inflight.popleft().result())
            inflight.extend(pool.submit(_run_job, seeds) for seeds in islice(chunks, 1))
        return results


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
    segments, tables, tests = _phase_plan(schedule, max_phase)
    outcomes, checkpoints = _phase_chunk([seed], segments, tables, tests, early_stop)
    return Trajectory(
        seed=seed,
        checkpoints=[(schedule.N(i), int(cp[0])) for i, cp in enumerate(checkpoints, 1)],
        phase_outcomes=[bool(v) for v in outcomes[:, 0]],
        final_s=int(checkpoints[-1][0]),
    )


# ======================================================================
# Replicated experiments
# ======================================================================


def _check_confidence(confidence: float) -> None:
    if not 0 < confidence < 1:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")


# Cephes ndtri's rational approximations, highest degree first.  Each monic
# Q table carries its leading 1.0: 1.0 * x is exact, so `_horner` gives
# Cephes' p1evl bits
_EXP_M2 = 0.13533528323661269189   # exp(-2)
_S2PI = 2.50662827463100050242     # sqrt(2 pi)
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.0, 1.95448858338141759834e0, 4.67627912898881538453e0,
             8.63602421390890590575e1, -2.25462687854119370527e2, 2.00260212380060660359e2,
             -8.20372256168333339912e1, 1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.0, 1.57799883256466749731e1, 4.53907635128879210584e1,
             4.13172038254672030440e1, 1.50425385692907503408e1, 2.50464946208309415979e0,
             -1.42182922854787788574e-1, -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (1.0, 6.02427039364742014255e0, 3.67983563856160859403e0,
             1.37702099489081330271e0, 2.16236993594496635890e-1, 1.34204006088543189037e-2,
             3.28014464682127739104e-4, 2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(coeffs: tuple[float, ...], x: float) -> float:
    ans = 0.0
    for c in coeffs:
        ans = ans * x + c
    return ans


def _ndtri(y: float) -> float:
    """Standard normal quantile: Cephes `ndtri` (S. L. Moshier, Methods and
    Programs for Mathematical Functions, 1989), ported operation for
    operation, so its results are bit for bit those of the C routine.

    A rational function of (y - 1/2)^2 on the centre, exp(-2) < y <
    1 - exp(-2); in the tails, x = sqrt(-2 ln y') with y' the smaller of
    y and 1 - y, and a correction rational in 1/x, one table pair for
    x < 8 and another from there on.
    """
    if y == 0.0:
        return -math.inf
    if y == 1.0:
        return math.inf
    if not 0.0 < y < 1.0:
        return math.nan
    lower = y <= 1.0 - _EXP_M2
    if not lower:
        y = 1.0 - y
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _horner(_NDTRI_P0, y2) / _horner(_NDTRI_Q0, y2))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    p, q = (_NDTRI_P1, _NDTRI_Q1) if x < 8.0 else (_NDTRI_P2, _NDTRI_Q2)
    x = x0 - z * _horner(p, z) / _horner(q, z)
    return -x if lower else x


def wilson_interval(
    successes: int, n: int, confidence: float = 0.99
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    _check_confidence(confidence)
    if n < 0 or not 0 <= successes <= max(n, 0):
        raise ValueError("need 0 <= successes <= n")
    if n == 0:
        return (0.0, 1.0)
    z = _ndtri(0.5 + confidence / 2.0)
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
    _check_confidence(confidence)
    segments, tables, tests = _phase_plan(schedule, max_phase)

    def job(seeds):
        outcomes, _ = _phase_chunk(seeds, segments, tables, tests, early_stop)
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


def trajectory_csv_rows(schedule, max_phase: int, base_seed: int, count: int
                        ) -> Iterator[tuple]:
    """(replication, n, s) checkpoint rows for the first `count` replications,
    after a header row: the checkpoints of `run_replication`, walked as one
    batch with early stop, in-process."""
    if count < 0:
        raise ValueError(f"trajectory count must be >= 0, got {count}")
    header = [("replication", "n", "s")]
    if count == 0:
        return iter(header)
    segments, tables, tests = _phase_plan(schedule, max_phase)

    def job(seeds):
        _, checkpoints = _phase_chunk(seeds, segments, tables, tests, early_stop=True)
        return np.stack(checkpoints, axis=1)   # (replication, phase)

    paths = np.concatenate(_run_chunks(job, count, base_seed, threads=1)).tolist()
    ends = [schedule.N(i) for i in range(1, max_phase + 1)]
    return chain(header, ((r, n, s) for r, path in enumerate(paths)
                          for n, s in zip(ends, path)))


def final_positions(
    schedule, horizon: int, replications: int, base_seed: int,
    threads: int | None = None,
) -> np.ndarray:
    """S_horizon for each replication (no phase events evaluated)."""
    segments = [Segment(steps, float(a)) for steps, a in schedule.segments(horizon)]
    tables = _step_tables(segments)

    def job(seeds):
        s = np.zeros(len(seeds), dtype=np.int64)
        _advance(_walk(seeds, segments, tables, s), horizon)
        return s

    return np.concatenate(_run_chunks(job, replications, base_seed, threads))


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
# the fast-growth control: its reported default and custom rules, the share
# of the horizon at its end whose occupancy is counted, and the top of the
# "low" states
_GROWTH_LABEL = "n^2+8"
_CUSTOM_GROWTH_LABEL = "custom"
_TAIL_FRACTION = 0.5
_LOW_THRESHOLD = 4


def run_control(
    mode: str,
    horizon: int,
    replications: int,
    base_seed: int,
    a: float = 8.0,
    growth: Callable[[int], float] | None = None,
    threads: int | None = None,
) -> ControlSummary:
    """Qualitative control runs for the two limiting regimes.

    mode="constant": fixed adaptation value a (>= 8); reports empirical
    drift and final-position quantiles, plus the fraction of trajectories
    that never stepped down (1.0 is expected at a = 8).

    mode="fast-growth": a_n from `growth` (default n^2 + 8, growing so fast
    the walk behaves like the draw-from-target sampler; a rule must give
    a_n >= 8 at every step n); reports the occupancy histogram of s over
    the last half of the horizon, its mode, and the fraction of that time
    spent at s <= 4.  `growth_rule` reads "n^2+8" for the default rule and
    "custom" when `growth` is given.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if mode == "constant":
        if not a >= 8:  # also rejects NaN
            raise ValueError("constant mode needs a >= 8")
        segments = [Segment(horizon, a)]
        tables = _step_tables(segments)

        def job(seeds):
            s = np.zeros(len(seeds), dtype=np.int64)
            decreased = np.zeros(len(seeds), dtype=bool)
            for _, ds in _walk(seeds, segments, tables, s):
                decreased |= ds < 0
            return s, decreased

    elif mode == "fast-growth":
        rule = growth if growth is not None else (lambda n: float(n * n + 8))
        tail_start = max(0, int(horizon * (1.0 - _TAIL_FRACTION)))

        def job(seeds):
            s = np.zeros(len(seeds), dtype=np.int64)
            hist = np.zeros(horizon + 1, dtype=np.int64)   # s <= horizon
            steps = _walk(seeds, [Segment(horizon, rule)], {}, s)
            _advance(steps, tail_start)
            for _ in steps:
                counts = np.bincount(s)
                hist[:counts.size] += counts
            return s, hist

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
    summary.growth_rule = _GROWTH_LABEL if growth is None else _CUSTOM_GROWTH_LABEL
    summary.occupancy_mode = int(np.argmax(hist))
    low = int(hist[:_LOW_THRESHOLD + 1].sum())
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
    segments, tables, _ = _phase_plan(schedule, max_phase)
    z_laws = [z_distribution(i, schedule) for i in range(2, max_phase + 1)]

    def job(seeds):
        s = np.zeros(len(seeds), dtype=np.int64)
        steps = _walk(seeds, segments, tables, s)
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
