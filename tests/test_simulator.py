"""Monte Carlo engine: determinism, statistics, controls, coupling."""

import gc
import hashlib
import json
import multiprocessing
import os
import pickle
import select
import signal
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stairwalk import (
    event_probability,
    final_positions,
    law_at,
    replication_seed,
    run_control,
    run_coupled_check,
    run_experiment,
    run_replication,
    scaled_profile,
    steady_drift_schedule,
    user_schedule,
    wilson_interval,
)
from stairwalk import simulator, workers
from stairwalk.cli import main
from stairwalk.kernel import step_prob_tables
from stairwalk.simulator import _BLOCK, _CHUNK, _TILE, _UniformFeed

# a pool that deadlocks, or a worker that outlives its pipe, fails its test
pytestmark = pytest.mark.usefixtures("child_deadline")

SEED = 20240817
POOLED_REPS = 2 * _CHUNK + 5    # three chunks, the last one short
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker pools need the fork start method")


@pytest.fixture
def usable_cpus(monkeypatch):
    """Set the CPU count the worker cap reads."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                            raising=False)
    return set_cpus


def test_replication_seed_composition():
    s = replication_seed(3, 5)
    assert s == (3 << 64) | 5
    with pytest.raises(ValueError):
        replication_seed(-1, 0)
    with pytest.raises(ValueError):
        replication_seed(0, 1 << 64)


@pytest.mark.parametrize("total", [1, 3, 771, _BLOCK, _BLOCK + 5, 2 * _BLOCK + 3])
@pytest.mark.parametrize("count", [1, _TILE + 3])
def test_uniform_feed_column_j_is_draw_j(total, count):
    """Column j of the feed is draw #j of the stream keyed [r, base_seed],
    across block and tile boundaries, and the feed stops at `total`."""
    feed = _UniformFeed([replication_seed(SEED, r) for r in range(count)], total)
    columns = np.array([feed.next_column().copy() for _ in range(total)])
    for r in range(count):
        stream = np.random.Generator(np.random.Philox(key=[r, SEED]))
        np.testing.assert_array_equal(columns[:, r], stream.random(total))
    with pytest.raises(IndexError):
        feed.next_column()


@pytest.mark.parametrize("base", [2**63, 2**64 - 1])
def test_uniform_feed_at_full_width_keys(base):
    """Keys that use all 64 bits of both words read the same streams, across
    a block boundary.  The reference key is a uint64 array: a list of ints
    that large would reach Philox through float64."""
    total = _BLOCK + 5
    replications = [0, 2**64 - 1]
    feed = _UniformFeed([replication_seed(base, r) for r in replications], total)
    columns = np.array([feed.next_column().copy() for _ in range(total)])
    for k, r in enumerate(replications):
        key = np.array([r, base], dtype=np.uint64)
        stream = np.random.Generator(np.random.Philox(key=key))
        np.testing.assert_array_equal(columns[:, k], stream.random(total))


def test_trajectory_rows_are_single_replications(cond_schedule):
    """The batched checkpoint rows are each replication's own checkpoints,
    across a chunk boundary."""
    count = _CHUNK + 2
    rows = list(simulator.trajectory_csv_rows(cond_schedule, 2, SEED, count))
    assert rows[0] == ("replication", "n", "s")
    assert len(rows) == 1 + 2 * count
    for r in (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1):
        traj = run_replication(cond_schedule, 2, replication_seed(SEED, r))
        assert rows[1 + 2 * r: 3 + 2 * r] == [(r, n, s) for n, s in traj.checkpoints]
    assert list(simulator.trajectory_csv_rows(cond_schedule, 2, SEED, 0)) == [rows[0]]
    with pytest.raises(ValueError, match="count"):
        simulator.trajectory_csv_rows(cond_schedule, 2, SEED, -3)


def test_trajectory_determinism(scaled_schedule):
    seed = replication_seed(SEED, 12)
    t1 = run_replication(scaled_schedule, 1, seed)
    t2 = run_replication(scaled_schedule, 1, seed)
    assert t1 == t2
    t3 = run_replication(scaled_schedule, 1, replication_seed(SEED, 13))
    assert t3.final_s != t1.final_s or t3.checkpoints != t1.checkpoints


def test_trajectory_structure(scaled_schedule):
    traj = run_replication(scaled_schedule, 1, replication_seed(SEED, 0))
    assert traj.checkpoints[0][0] == scaled_schedule.N(1)
    assert traj.final_s == traj.checkpoints[-1][1]
    # phase-1 success is the strict comparison at the checkpoint
    s_n1 = traj.checkpoints[0][1]
    assert traj.phase_outcomes[0] == (s_n1 > scaled_schedule.threshold(1))
    assert traj.deepest_phase in (0, 1)


def test_deepest_phase_counts_prefix():
    from stairwalk.simulator import Trajectory

    t = Trajectory(seed=0, checkpoints=[], phase_outcomes=[True, True, False, True],
                   final_s=0)
    assert t.deepest_phase == 2


def test_experiment_reproducible_and_thread_invariant(cond_schedule):
    kwargs = dict(max_phase=2, replications=600, base_seed=SEED)
    r1 = run_experiment(cond_schedule, threads=1, **kwargs)
    r2 = run_experiment(cond_schedule, threads=4, **kwargs)
    assert r1.to_jsonable() == r2.to_jsonable()
    r3 = run_experiment(cond_schedule, threads=None, **kwargs)
    assert r3.to_jsonable() == r1.to_jsonable()


def test_experiment_matches_single_replications(cond_schedule):
    reps = 40
    result = run_experiment(cond_schedule, 2, reps, SEED)
    outcomes = [
        run_replication(cond_schedule, 2, replication_seed(SEED, r)).phase_outcomes
        for r in range(reps)
    ]
    assert result.phase(1).successes == sum(o[0] for o in outcomes)
    assert result.phase(2).attempts == sum(o[0] for o in outcomes)
    assert result.phase(2).successes == sum(o[0] and o[1] for o in outcomes)
    assert result.survivors == sum(all(o) for o in outcomes)
    assert result.product_estimate == result.survivors / reps


def test_early_stop_agrees_on_conditional_stats(cond_schedule):
    a = run_experiment(cond_schedule, 2, 300, SEED, early_stop=True)
    b = run_experiment(cond_schedule, 2, 300, SEED, early_stop=False)
    for pa, pb in zip(a.per_phase, b.per_phase):
        assert (pa.attempts, pa.successes) == (pb.attempts, pb.successes)


def test_experiment_metadata(cond_schedule):
    result = run_experiment(cond_schedule, 1, 50, SEED)
    doc = result.to_jsonable()
    assert doc["metadata"]["generator"].startswith("philox4x64")
    assert doc["base_seed"] == SEED
    assert doc["schedule_hash"] == cond_schedule.schedule_hash()
    assert len(doc["per_phase"]) == 1


def test_phase1_estimate_covers_dp(scaled_schedule):
    reps = 4000
    result = run_experiment(scaled_schedule, 1, reps, SEED)
    stats = result.phase(1)
    p_exact = float(
        event_probability(scaled_schedule.N(1), scaled_schedule, scaled_schedule.M)
    )
    assert stats.wilson_lo <= p_exact <= stats.wilson_hi


def test_final_positions_match_dp_distribution(scaled_schedule):
    horizon, reps = 300, 30_000
    fin = final_positions(scaled_schedule, horizon, reps, SEED)
    assert fin.shape == (reps,)
    law = law_at(horizon, scaled_schedule)
    # simultaneous Dvoretzky-Kiefer-Wolfowitz band at 99%
    eps = np.sqrt(np.log(2 / 0.01) / (2 * reps))
    emp_cdf = np.searchsorted(np.sort(fin), np.arange(horizon + 1), side="right") / reps
    assert np.abs(emp_cdf - law.cdf()).max() <= eps


def test_final_positions_thread_invariant(scaled_schedule):
    a = final_positions(scaled_schedule, 50, 200, SEED, threads=1)
    b = final_positions(scaled_schedule, 50, 200, SEED, threads=3)
    np.testing.assert_array_equal(a, b)


# sha256 of `_pooled_outputs(reps, 1)`, recorded before the pool kept its
# workers: three chunks with 5 or 1 replications in the last, and 4500
# replications (one full chunk and 404)
POOLED_DIGESTS = {
    POOLED_REPS: "7ac822ae0f5514aab5817f2ecaeaa9064d6f16a5d8b3e9c9c7b9f6f80a2db3de",
    2 * _CHUNK + 1: "83200cf3667f608d8df514a1bdbb7d0a8e58a12345c0160ef2db8fc29d9044c8",
    4500: "e8c1ee2865e4d2159246eb4c754a4660c4e6c5913f6eedc237fc91ec4679b9b1",
}


def _pooled_outputs(reps, threads):
    """Every entry point that runs chunks, as one byte string: the
    experiment with and without early stop, both controls (the constant one
    at a = 8, where no step goes down, and at 9; fast-growth under its
    default rule and a custom one), the coupling check, and final positions."""
    sch = user_schedule(scaled_profile(), lengths=[30, 20, 20],
                        a_values=[8.0, 9.0, 10.0], thresholds=[12, 21, 29])
    docs = [run_experiment(sch, 3, reps, SEED, early_stop=e, threads=threads)
            for e in (True, False)]
    docs += [run_control("constant", 40, reps, SEED, a=a, threads=threads) for a in (8.0, 9.0)]
    docs += [run_control("fast-growth", 40, reps, SEED, threads=threads),
             run_control("fast-growth", 40, reps, SEED, growth=lambda n: 8.0 + n / 3,
                         threads=threads),
             run_coupled_check(sch, 3, reps, SEED, threads=threads)]
    text = json.dumps([d.to_jsonable() for d in docs]).encode()
    return text + final_positions(sch, 55, reps, SEED, threads=threads).tobytes()


@needs_fork
def test_pool_matches_serial(usable_cpus, monkeypatch, no_stray_children):
    """Chunk counts that two forked workers cannot split evenly give the
    same bytes as one in-process loop, for every entry point that runs
    chunks, and those bytes are the recorded ones."""
    usable_cpus(2)
    pools = []
    kept = workers._kept_workers
    monkeypatch.setattr(workers, "_kept_workers", lambda n: pools.append(n) or kept(n))
    for reps, digest in POOLED_DIGESTS.items():
        pools.clear()
        serial = _pooled_outputs(reps, 1)
        assert pools == []
        assert _pooled_outputs(reps, 2) == serial, reps
        assert pools == [2] * 8
        assert hashlib.sha256(serial).hexdigest() == digest, reps
    no_stray_children()


def _worker_pid(seeds):
    return os.getpid()


def _fail_at(seeds, bad_seed):
    if seeds[0] == bad_seed:
        raise ValueError("chunk failed")
    return os.getpid()


def _freeze_count(seeds):
    return gc.get_freeze_count()


def _worker_pids(threads, chunks=4):
    return set(simulator._run_chunks(_worker_pid, (), chunks * _CHUNK, SEED, threads))


@needs_fork
def test_workers_are_kept_across_calls(usable_cpus, no_stray_children):
    """Calls share one set of workers; a call that needs more forks only the
    missing ones, and one that needs fewer uses the oldest."""
    usable_cpus(2)
    workers._close_workers()
    pids = _worker_pids(2)
    assert len(pids) == 2 and os.getpid() not in pids
    assert _worker_pids(2) == pids == {proc.pid for proc, _ in workers._workers}
    usable_cpus(3)
    more = _worker_pids(3, chunks=6)
    assert len(more) == 3 and pids < more
    assert _worker_pids(2) == pids
    no_stray_children()


@needs_fork
def test_close_leaves_no_worker(usable_cpus):
    usable_cpus(2)
    _worker_pids(2)
    procs = [proc for proc, _ in workers._workers]
    assert len(procs) >= 2
    workers._close_workers()
    assert workers._workers == []
    assert not any(proc.is_alive() for proc in procs)
    assert multiprocessing.active_children() == []


def _wait_for_eof(fd, timeout):
    """True when every copy of the write end of the pipe `fd` reads from is
    closed within `timeout` seconds."""
    deadline = time.monotonic() + timeout
    while (left := deadline - time.monotonic()) > 0:
        if select.select([fd], [], [], left)[0]:
            return os.read(fd, 1) == b""
    return False


@needs_fork
def test_workers_exit_when_the_parent_is_killed():
    """A parent killed with SIGKILL never closes its workers; they exit on
    end of file.  The workers keep the parent's stdout, a pipe here, so it
    reads end of file once every worker has exited."""
    script = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from stairwalk import final_positions, scaled_profile, simulator, user_schedule, workers\n"
        "sch = user_schedule(scaled_profile(), [5], [8.0], [1])\n"
        "final_positions(sch, 5, 2 * simulator._CHUNK, 1, threads=2)\n"
        "print(len(workers._workers), flush=True)\n"
        "sys.stdin.read()\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(simulator.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    parent = subprocess.Popen([sys.executable, "-c", script], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, text=True, env=env)
    try:
        assert select.select([parent.stdout], [], [], 20)[0], "no workers within 20 s"
        assert parent.stdout.readline() == "2\n"
        parent.kill()
        parent.wait(timeout=5)
        assert _wait_for_eof(parent.stdout.fileno(), timeout=5), "a worker outlived its parent"
    finally:
        parent.kill()
        parent.wait(timeout=5)
        parent.stdin.close()
        parent.stdout.close()


@needs_fork
def test_workers_keep_no_file_of_the_caller(usable_cpus, no_stray_children):
    """Workers forked while the caller feeds a child through a pipe close
    their copy of its end, so the child still sees end of file when the
    caller closes that end."""
    usable_cpus(2)
    workers._close_workers()
    echo = subprocess.Popen([sys.executable, "-c", "import sys; print(sys.stdin.read())"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        _worker_pids(2)   # forks the workers while the pipe is open
        assert len(workers._workers) == 2
        assert echo.communicate("end of file", timeout=10)[0] == "end of file\n"
    finally:
        echo.kill()
        echo.wait(timeout=5)
    no_stray_children()


@needs_fork
def test_a_later_fork_does_not_keep_the_workers(usable_cpus):
    """A process forked after the workers, a plain forked child here,
    closes its copies of the parent's pipe ends, so closing them in the
    parent still ends the workers while that process lives."""
    usable_cpus(2)
    _worker_pids(2)
    kept = list(workers._workers)
    ctx = multiprocessing.get_context("fork")
    release = ctx.Event()
    child = ctx.Process(target=release.wait, args=(20,))
    child.start()
    exited = []
    try:
        workers._workers.clear()
        for _, conn in kept:
            conn.close()
        for proc, _ in kept:
            proc.join(timeout=10)
            exited.append(not proc.is_alive())
        assert child.is_alive()
    finally:
        release.set()
        child.join(timeout=10)
    assert exited == [True, True]
    assert multiprocessing.active_children() == []


@needs_fork
def test_failed_chunk_discards_the_workers(usable_cpus, no_stray_children):
    """A chunk that raises surfaces its error and ends every kept worker;
    the next call forks new ones and is correct."""
    usable_cpus(2)
    pids = _worker_pids(2)
    procs = [proc for proc, _ in workers._workers]
    with pytest.raises(ValueError, match="chunk failed"):
        simulator._run_chunks(_fail_at, (replication_seed(SEED, 2 * _CHUNK),),
                              4 * _CHUNK, SEED, 2)
    assert workers._workers == []
    assert not any(proc.is_alive() for proc in procs)
    sch = user_schedule(scaled_profile(), lengths=[30, 20], a_values=[8.0, 9.0],
                        thresholds=[12, 21])
    np.testing.assert_array_equal(final_positions(sch, 45, POOLED_REPS, SEED, threads=2),
                                  final_positions(sch, 45, POOLED_REPS, SEED, threads=1))
    assert not pids & {proc.pid for proc, _ in workers._workers}
    no_stray_children()


@needs_fork
def test_worker_killed_between_calls_is_replaced(usable_cpus, no_stray_children):
    """A worker that died while idle, killed from outside, say, does not fail
    the next call: that call forks a new set and is correct."""
    usable_cpus(2)
    pids = _worker_pids(2)
    proc = workers._workers[1][0]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=10)
    sch = user_schedule(scaled_profile(), lengths=[30, 20], a_values=[8.0, 9.0],
                        thresholds=[12, 21])
    np.testing.assert_array_equal(final_positions(sch, 45, POOLED_REPS, SEED, threads=2),
                                  final_positions(sch, 45, POOLED_REPS, SEED, threads=1))
    assert len(workers._workers) == 2
    assert not pids & {proc.pid for proc, _ in workers._workers}
    no_stray_children()


@needs_fork
@pytest.mark.parametrize("threads", [1, 2])
def test_worker_error_surfaces(threads, usable_cpus, no_stray_children):
    """A growth rule's error surfaces, raised in the caller."""
    usable_cpus(2)

    def growth(n):
        if n == 30:
            raise ValueError("no a at step 30")
        return 8.0

    with pytest.raises(ValueError, match="step 30"):
        run_control("fast-growth", 50, POOLED_REPS, SEED, growth=growth, threads=threads)
    no_stray_children()


@needs_fork
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("bad", [1.0, 7.999, float("nan")])
def test_growth_rule_below_8_is_rejected(threads, bad, usable_cpus, no_stray_children):
    """A rule's a is checked at every step, in the caller."""
    usable_cpus(2)
    growth = lambda n: bad if n == 30 else 8.0  # noqa: E731
    with pytest.raises(ValueError, match=r"a\(30\) = .*a >= 8"):
        run_control("fast-growth", 50, POOLED_REPS, SEED, growth=growth, threads=threads)
    no_stray_children()


@pytest.mark.parametrize("threads", [1, 2])
def test_growth_rule_runs_once_per_step_before_any_chunk(threads, usable_cpus, monkeypatch):
    """The rule is called once per step, in step order, however many chunks
    run, and a failing call raises before any chunk has run."""
    usable_cpus(2)
    calls = []
    rule = lambda n: calls.append(n) or 8.0 + n / 7  # noqa: E731
    run_control("fast-growth", 60, POOLED_REPS, SEED, growth=rule, threads=threads)
    assert calls == list(range(60))

    def fails_last(n):
        if n == 59:
            raise ValueError("no a at the last step")
        return 8.0

    monkeypatch.setattr(simulator, "_run_chunks",
                        lambda *args: pytest.fail("a chunk ran before the rule's error"))
    with pytest.raises(ValueError, match="last step"):
        run_control("fast-growth", 60, POOLED_REPS, SEED, growth=fails_last, threads=threads)


@needs_fork
def test_workers_freeze_what_they_inherit(usable_cpus, no_stray_children):
    """A kept worker's collections skip the objects fork shared with it;
    the caller's own collector is left as it was."""
    usable_cpus(2)
    frozen = simulator._run_chunks(_freeze_count, (), 2 * _CHUNK, SEED, 2)
    assert len(frozen) == 2 and min(frozen) > 0
    assert gc.get_freeze_count() == 0
    no_stray_children()


class _InlineWorker:
    """A kept worker's side of its pipe, run in-process: a chunk runs when
    its result is read, and only once the next message has been sent, as a
    worker reads that message before it answers."""

    def __init__(self):
        self.inbox = deque()
        self.most = 0   # chunks in flight at once

    def send(self, message):
        if isinstance(message, tuple):   # the call's job, pickled as for a worker
            fn, self.job = pickle.loads(pickle.dumps(message))
            assert fn is simulator._serve_chunks
            return
        self.inbox.append(message)
        self.most = max(self.most, sum(m is not None for m in self.inbox))

    def recv(self):
        seeds = self.inbox.popleft()
        assert seeds is not None and self.inbox, "answered before the next message came"
        if self.inbox[0] is None:   # the end marker, read before this answer
            self.inbox.popleft()
        job, args = self.job
        return True, job(seeds, *args)


@needs_fork
def test_worker_count_is_capped(usable_cpus, monkeypatch):
    """min(threads, usable CPUs, chunks) workers, none for one worker, and
    at most two chunks in flight per worker.  In-process stand-ins take the
    workers' place, so no process starts."""
    sizes, stand_ins = [], []

    def kept_workers(count):
        sizes.append(count)
        stand_ins[:] = [_InlineWorker() for _ in range(count)]
        return list(stand_ins)

    monkeypatch.setattr(workers, "_kept_workers", kept_workers)
    monkeypatch.setattr(simulator, "_ready", lambda conns: conns)
    sch = user_schedule(scaled_profile(), lengths=[3], a_values=[8.0], thresholds=[1])
    reps = 5 * _CHUNK + 1    # six chunks
    want = final_positions(sch, 3, reps, SEED, threads=1)
    # (usable CPUs, threads, expected workers, most chunks in flight on one)
    for cpus, threads, count, most in [(2, 100_000, 2, 2), (64, None, 6, 1), (64, 3, 3, 2),
                                       (64, 4, 4, 2), (64, 1, None, 0), (1, 8, None, 0)]:
        usable_cpus(cpus)
        sizes.clear()
        stand_ins.clear()
        got = final_positions(sch, 3, reps, SEED, threads=threads)
        np.testing.assert_array_equal(got, want)
        assert sizes == ([] if count is None else [count]), (cpus, threads)
        assert max((w.most for w in stand_ins), default=0) == most, (cpus, threads)
        assert all(not w.inbox for w in stand_ins)   # every message was read


class _DeadWorker(_InlineWorker):
    """A kept worker that dies mid-call: its pipe reads end of file."""

    def recv(self):
        raise EOFError


@needs_fork
def test_worker_end_of_file_mid_call_is_one_os_error(usable_cpus, monkeypatch, capsys,
                                                     no_stray_children):
    """A worker's end of file mid-call is a ChildProcessError, an OSError,
    which discards the kept set; the CLI prints it as one error line.
    Stand-ins that read end of file take the workers' place."""
    usable_cpus(2)
    _worker_pids(2)   # a kept set for the failed call to discard
    procs = [proc for proc, _ in workers._workers]
    monkeypatch.setattr(workers, "_kept_workers",
                        lambda count: [_DeadWorker() for _ in range(count)])
    monkeypatch.setattr(simulator, "_ready", lambda conns: conns)
    sch = user_schedule(scaled_profile(), lengths=[3], a_values=[8.0], thresholds=[1])
    with pytest.raises(OSError) as failure:
        final_positions(sch, 3, 2 * _CHUNK, SEED, threads=2)
    assert failure.type is ChildProcessError
    assert workers._workers == []
    assert not any(proc.is_alive() for proc in procs)
    capsys.readouterr()
    assert main(["control", "--mode", "constant", "--horizon", "5",
                 "--reps", str(2 * _CHUNK), "--threads", "2"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    no_stray_children()


def test_step_tables_built_once_per_call(monkeypatch):
    """One lookup table per distinct constant a and call, however many
    chunks the call runs."""
    calls = []
    build = simulator.step_prob_tables
    monkeypatch.setattr(simulator, "step_prob_tables",
                        lambda s_max, a: calls.append(a) or build(s_max, a))
    sch = user_schedule(scaled_profile(), lengths=[30, 20, 20],
                        a_values=[8.0, 8.0, 9.0], thresholds=[12, 21, 29])
    run_experiment(sch, 3, POOLED_REPS, SEED, threads=1)
    assert calls == [8.0, 9.0]
    calls.clear()
    final_positions(sch, 25, POOLED_REPS, SEED, threads=1)
    assert calls == [8.0]


@pytest.mark.parametrize("threads", [0, -1, 2.5, float("nan"), "2"])
def test_threads_must_be_positive(cond_schedule, threads):
    """Worker counts are integers >= 1, rejected with an error that names
    them, never truncated; a numpy integer is an integer."""
    with pytest.raises(ValueError, match="threads"):
        run_experiment(cond_schedule, 1, 10, SEED, threads=threads)
    with pytest.raises(ValueError, match="threads"):
        final_positions(cond_schedule, 5, 10, SEED, threads=threads)
    np.testing.assert_array_equal(final_positions(cond_schedule, 5, 10, SEED, threads=np.int64(2)),
                                  final_positions(cond_schedule, 5, 10, SEED, threads=1))


def test_golden_streams():
    """Literal outputs pinned per (base_seed, r): any change to the random
    streams, the step inversion or the phase bookkeeping fails here."""
    sch = user_schedule(scaled_profile(), lengths=[60, 40, 40],
                        a_values=[8.0, 9.0, 10.0], thresholds=[25, 42, 58])

    def traj(r, early_stop):
        t = run_replication(sch, 3, replication_seed(SEED, r), early_stop=early_stop)
        return [s for _, s in t.checkpoints], t.phase_outcomes, t.final_s

    T, F = True, False
    assert traj(0, T) == traj(0, F) == ([26, 43, 59], [T, T, T], 59)
    assert traj(1, T) == ([23, 23, 23], [F, F, F], 23)
    assert traj(1, F) == ([23, 41, 53], [F, F, F], 53)
    assert traj(4, T) == ([24, 24, 24], [F, F, F], 24)
    assert traj(4, F) == ([24, 48, 67], [F, T, T], 67)
    assert traj(5, T) == traj(5, F) == ([27, 45, 57], [T, T, F], 57)
    assert run_replication(sch, 3, replication_seed(SEED, 2)).checkpoints == [
        (60, 18), (100, 18), (140, 18)]

    for early_stop in (True, False):
        res = run_experiment(sch, 3, 300, SEED, early_stop=early_stop)
        assert [(p.attempts, p.successes) for p in res.per_phase] == [
            (300, 158), (158, 140), (140, 113)]

    assert final_positions(sch, 0, 300, SEED).tolist() == [0] * 300
    fin = final_positions(sch, 85, 300, SEED)  # ends 25 steps into phase 2
    assert int(fin.sum()) == 11099
    assert fin[:8].tolist() == [38, 34, 25, 43, 39, 39, 38, 30]

    const = run_control("constant", 200, 50, SEED, a=20.0).to_jsonable()
    assert const["drift"] == 0.141
    assert const["final_quantiles"] == {
        "0.01": 1.98, "0.25": 19.5, "0.5": 28.0, "0.75": 39.0,
        "0.99": 54.03999999999999}
    assert const["nondecreasing_fraction"] == 0.0
    fast = run_control("fast-growth", 200, 50, SEED).to_jsonable()
    assert fast["drift"] == 0.0101
    assert fast["final_quantiles"] == {
        "0.01": 0.0, "0.25": 0.0, "0.5": 1.0, "0.75": 3.0,
        "0.99": 11.529999999999994}
    assert (fast["occupancy_mode"], fast["low_state_fraction"]) == (0, 0.8622)
    assert fast["tail_histogram"] == [
        1709, 1574, 412, 445, 171, 200, 97, 74, 50, 58, 59, 62, 30, 29, 14, 14, 2]

    report = run_coupled_check(sch, 3, 300, SEED)
    assert (report.pairs_checked, report.violations) == (600, 0)


def test_golden_a8_walks():
    """Walks whose a = 8 segments cannot step down, pinned whole: the
    constant control, a coupling check whose checked phase runs at a = 8,
    and early-stop checkpoints of a chunk in which some replications fail
    an a = 8 phase, so the stop mask switches on partway through."""
    assert run_control("constant", 200, 50, SEED, a=8.0).to_jsonable() == {
        "mode": "constant", "horizon": 200, "replications": 50, "base_seed": SEED,
        "drift": 0.46630000000000005,
        "final_quantiles": {"0.01": 70.96, "0.25": 89.25, "0.5": 94.0, "0.75": 99.0,
                            "0.99": 111.53},
        "nondecreasing_fraction": 1.0, "a": 8.0, "growth_rule": None,
        "occupancy_mode": None, "low_state_fraction": None, "tail_histogram": None,
    }

    sch = user_schedule(scaled_profile(), lengths=[60, 40, 40],
                        a_values=[8.0, 8.0, 9.0], thresholds=[25, 42, 58])
    assert run_coupled_check(sch, 2, 300, SEED).to_jsonable() == {
        "max_phase": 2, "replications": 300, "pairs_checked": 300, "violations": 0,
        "ok": True}
    assert run_coupled_check(sch, 3, 300, SEED).to_jsonable() == {
        "max_phase": 3, "replications": 300, "pairs_checked": 600, "violations": 0,
        "ok": True}

    rows = list(simulator.trajectory_csv_rows(sch, 3, SEED, 300))[1:]
    paths = [[s for _, _, s in rows[k:k + 3]] for k in range(0, len(rows), 3)]
    assert [sum(path[k] for path in paths) for k in range(3)] == [7873, 10899, 13453]
    assert [path[0] for path in paths[:12]] == [26, 23, 18, 29, 24, 27, 27, 22, 24, 23, 16, 27]
    assert [path[2] for path in paths[:12]] == [63, 23, 18, 72, 24, 61, 56, 22, 24, 23, 16, 69]
    # without early stop the walks that failed phase 1 move on
    assert int(final_positions(sch, 140, 300, SEED).sum()) == 18805
    for early_stop in (True, False):
        res = run_experiment(sch, 3, 300, SEED, early_stop=early_stop)
        assert [(p.attempts, p.successes) for p in res.per_phase] == [
            (300, 158), (158, 154), (154, 145)]


def _reference_walk(schedule, r, base_seed, early_stop, horizon=None):
    """One replication walked a step at a time in Python: stream r is
    `Generator(Philox(key=[r, base_seed]))`, and step n compares its draw
    with the `step_prob_tables` entries of the phase's a at the current s.
    Returns the positions at the phase ends and their outcomes, or with
    `horizon` the position after that many steps, with no phase events."""
    phases = schedule.n_phases
    ends = [schedule.N(i) for i in range(1, phases + 1)]
    total = ends[-1] if horizon is None else horizon
    key = np.array([r, base_seed], dtype=np.uint64)
    u = np.random.Generator(np.random.Philox(key=key)).random(total).tolist()
    tables = {a: step_prob_tables(total, a) for a in {float(schedule.a_of_phase(i))
                                                      for i in range(1, phases + 1)}}
    s, alive, phase, checkpoints, outcomes = 0, True, 1, [], []
    for n in range(total):
        p_down, p_up = tables[float(schedule.a_of_phase(phase))]
        if alive:
            s += -1 if u[n] < p_down[s] else (1 if u[n] >= 1.0 - p_up[s] else 0)
        if n + 1 == ends[phase - 1]:
            if horizon is None:
                t = schedule.threshold(phase)
                ok = s > t if schedule.strict_threshold(phase) else s >= t
                checkpoints.append(s)
                outcomes.append(ok)
                alive = alive and (ok or not early_stop)
            phase += 1
    return s if horizon is not None else (checkpoints, outcomes)


@st.composite
def _small_user_schedules(draw):
    """Two to four short phases: phase 1 at a = 8, then nondecreasing a
    drawn from 8 (no down steps), a few values above 8, and inf."""
    phases = draw(st.integers(2, 4))
    later = sorted(draw(st.lists(st.sampled_from([8.0, 8.5, 11.0, 40.0, float("inf")]),
                                 min_size=phases - 1, max_size=phases - 1)))
    lengths = draw(st.lists(st.integers(1, 30), min_size=phases, max_size=phases))
    thresholds = draw(st.lists(st.integers(0, 25), min_size=phases, max_size=phases))
    return user_schedule(scaled_profile(), lengths, [8.0, *later], thresholds)


@settings(max_examples=40, deadline=None)
@given(schedule=_small_user_schedules(), base_seed=st.integers(0, 2**64 - 1),
       replications=st.integers(1, 40), early_stop=st.booleans(), data=st.data())
def test_walks_match_a_scalar_reference(schedule, base_seed, replications, early_stop,
                                        data):
    """`run_replication`, a batch of early-stop checkpoints and
    `final_positions` equal a step-at-a-time reference walk, on schedules
    that mix a = 8, a > 8 and a = inf phases."""
    phases = schedule.n_phases
    want = [_reference_walk(schedule, r, base_seed, early_stop)
            for r in range(replications)]
    for r in sorted({0, replications - 1}):
        traj = run_replication(schedule, phases, replication_seed(base_seed, r),
                               early_stop=early_stop)
        assert ([s for _, s in traj.checkpoints], traj.phase_outcomes) == want[r]
    if early_stop:
        rows = list(simulator.trajectory_csv_rows(schedule, phases, base_seed,
                                                  replications))[1:]
        assert [s for _, _, s in rows] == [s for cps, _ in want for s in cps]
    horizon = data.draw(st.integers(0, schedule.N(phases)), label="horizon")
    fin = final_positions(schedule, horizon, replications, base_seed, threads=1)
    assert fin.tolist() == [_reference_walk(schedule, r, base_seed, False, horizon)
                            for r in range(replications)]


def test_golden_fast_growth_rule():
    """A rule whose a changes at every step, pinned whole."""
    doc = run_control("fast-growth", 300, 50, SEED, growth=lambda n: 8.0 + n / 7).to_jsonable()
    assert doc == {
        "mode": "fast-growth", "horizon": 300, "replications": 50, "base_seed": SEED,
        "drift": 0.1362,
        "final_quantiles": {"0.01": 12.49, "0.25": 32.0, "0.5": 41.5, "0.75": 50.0,
                            "0.99": 65.57},
        "nondecreasing_fraction": None, "a": None, "growth_rule": "custom",
        "occupancy_mode": 43, "low_state_fraction": 0.0032,
        "tail_histogram": [
            0, 0, 1, 15, 8, 25, 17, 48, 35, 31, 23, 45, 47, 36, 30, 76, 78, 103, 133,
            163, 155, 116, 116, 144, 148, 172, 148, 205, 171, 167, 163, 137, 146, 203,
            178, 212, 260, 220, 189, 234, 254, 232, 221, 283, 236, 171, 193, 225, 210,
            141, 119, 138, 94, 69, 59, 71, 50, 51, 45, 40, 33, 44, 23, 27, 10, 11, 4,
            30, 12, 6],
    }


def test_wilson_interval_against_external_values():
    # cross-checked against an independent implementation
    lo, hi = wilson_interval(8, 10, confidence=0.95)
    assert (lo, hi) == pytest.approx((0.4901624715366418, 0.9433178485456247), abs=1e-12)
    lo, hi = wilson_interval(990, 1000, confidence=0.99)
    assert (lo, hi) == pytest.approx((0.9780707139163345, 0.9954699444783268), abs=1e-12)
    assert wilson_interval(0, 0) == (0.0, 1.0)
    assert wilson_interval(0, 100)[0] == 0.0
    assert wilson_interval(100, 100)[1] == 1.0
    with pytest.raises(ValueError):
        wilson_interval(5, 4)


@pytest.mark.parametrize("args, interval", [
    ((8, 10, 0.95), (0.4901624715366418, 0.9433178485456248)),
    ((990, 1000, 0.99), (0.9780707139163345, 0.9954699444783268)),
    ((0, 50, 0.99), (0.0, 0.11715209171762797)),
    ((50, 50, 0.99), (0.8828479082823721, 1.0)),
    ((3, 7, 1 - 1e-6), (0.04505813803441161, 0.9226088338208686)),
    ((4096, 4500, 0.95), (0.9015163830274997, 0.918228280224197)),
])
def test_wilson_interval_golden_values(args, interval):
    # recorded bit for bit from the norm.ppf quantile; any other way of
    # computing z must reproduce them exactly
    assert wilson_interval(*args) == interval


def _ndtri_branch(p):
    # which side and which of Cephes ndtri's three branches p takes, by its
    # own tests: the centre, or a tail with x = sqrt(-2 ln y) below 8 or not
    upper = p > 1.0 - np.exp(-2.0)
    y = 1.0 - p if upper else p
    if y > np.exp(-2.0):
        return "centre"
    return ("upper" if upper else "lower", bool(np.sqrt(-2.0 * np.log(y)) < 8.0))


def test_ndtri_is_norm_ppf():
    # wilson_interval's z quantile is `_ndtri`, a port of Cephes ndtri, so it
    # must return scipy.special.ndtri's bits; scipy.stats.norm.ppf is ndtri
    # on (0, 1) and handles the ends and out-of-range values itself, so
    # compare the three bit for bit there too
    from scipy.special import ndtri
    from scipy.stats import norm

    e2, e32 = np.exp(-2.0), np.exp(-32.0)   # the branch edges, both sides
    k = np.arange(1.0, 16.0, 0.1)           # 1 - 10**-k up to k = 15.9
    edges = [e2, 1.0 - e2, e32, 1.0 - e32]
    q = np.concatenate([
        np.linspace(0.0, 1.0, 20001),
        [0.5, np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0), 5e-324,
         0.995, 0.975, 0.5 + (1 - 1e-6) / 2, -0.5, 1.5, -np.inf, np.inf, np.nan],
        [np.nextafter(e, d) for e in edges for d in (0.0, 1.0)], edges,
        10.0 ** -k, 1.0 - 10.0 ** -k, 10.0 ** -np.arange(20.0, 320.0, 10.0),
    ])
    ours = np.array([simulator._ndtri(float(p)) for p in q])
    np.testing.assert_array_equal(ours, ndtri(q))
    np.testing.assert_array_equal(ndtri(q), norm.ppf(q))
    # bit for bit, the sign of zero included, wherever the value is finite
    finite = np.isfinite(ours)
    assert (ours[finite].view(np.int64) == ndtri(q[finite]).view(np.int64)).all()
    interior = q[(q > 0.0) & (q < 1.0)]
    assert {_ndtri_branch(p) for p in interior} == {
        "centre", ("lower", True), ("lower", False), ("upper", True), ("upper", False)}


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_ndtri_port_matches_scipy(p):
    from scipy.special import ndtri

    assert simulator._ndtri(p).hex() == float(ndtri(p)).hex()


@pytest.mark.parametrize("confidence", [0.0, 1.0, -1.0, 1.5, float("nan")])
def test_confidence_must_be_a_probability(confidence, scaled_schedule, monkeypatch):
    for successes, n in ((5, 10), (0, 0)):
        with pytest.raises(ValueError, match="confidence"):
            wilson_interval(successes, n, confidence)
    # checked on entry, before any replication runs
    monkeypatch.setattr(simulator, "_phase_plan",
                        lambda *args: pytest.fail("simulated before the check"))
    with pytest.raises(ValueError, match="confidence"):
        run_experiment(scaled_schedule, 3, 10, SEED, confidence=confidence)


def test_wilson_coverage_meta_check(scaled_schedule):
    # the DP-exact value should land inside the 99% interval in almost all
    # repeated batches (deterministic given the seed ladder)
    horizon = 150
    p_exact = float(event_probability(horizon, scaled_schedule, 60))
    batches, covered = 40, 0
    for b in range(batches):
        fin = final_positions(scaled_schedule, horizon, 800, SEED + 1000 + b)
        lo, hi = wilson_interval(int((fin > 60).sum()), len(fin))
        covered += lo <= p_exact <= hi
    assert covered >= int(0.95 * batches)


# ----------------------------------------------------------------------
# controls
# ----------------------------------------------------------------------


def test_control_constant_a8():
    out = run_control("constant", horizon=3000, replications=300, base_seed=SEED)
    assert out.nondecreasing_fraction == 1.0
    assert out.drift > 0.2
    assert out.final_quantiles["0.01"] > 0


def test_control_constant_larger_a_grows_linearly():
    # a = 40 keeps the low-stair potential well tiny (drift turns positive
    # around x ~ a/16), so escape is fast and growth is linear
    short = run_control("constant", 4000, 300, SEED, a=40.0)
    long = run_control("constant", 8000, 300, SEED, a=40.0)
    assert short.final_quantiles["0.5"] > 0
    ratio = long.final_quantiles["0.5"] / short.final_quantiles["0.5"]
    assert 1.7 < ratio < 2.3  # linear growth in the horizon
    assert short.nondecreasing_fraction < 1.0  # down-steps do occur at a > 8


def test_control_fast_growth_concentrates_low():
    out = run_control("fast-growth", horizon=4000, replications=300, base_seed=SEED)
    assert out.occupancy_mode <= 4
    assert out.low_state_fraction > 0.5
    assert sum(out.tail_histogram) > 0


def test_control_growth_rule_label():
    default = run_control("fast-growth", 50, 4, SEED, threads=1)
    custom = run_control("fast-growth", 50, 4, SEED, growth=lambda n: 9.0, threads=1)
    assert (default.growth_rule, custom.growth_rule) == ("n^2+8", "custom")


def test_control_validation():
    with pytest.raises(ValueError):
        run_control("constant", 100, 10, SEED, a=7.0)
    with pytest.raises(ValueError, match="a >= 8"):
        run_control("constant", 100, 10, SEED, a=float("nan"))
    with pytest.raises(ValueError, match="replications"):
        run_control("constant", 100, 0, SEED)
    with pytest.raises(ValueError):
        run_control("warp", 100, 10, SEED)


# ----------------------------------------------------------------------
# pathwise coupling
# ----------------------------------------------------------------------


def test_coupled_check_holds(cond_schedule):
    report = run_coupled_check(cond_schedule, 4, 1000, SEED)
    assert report.ok
    assert report.violations == 0
    # essentially every surviving phase should qualify for the check
    assert report.pairs_checked > 0.9 * 3 * 1000


def test_coupled_check_needs_later_phases(cond_schedule):
    with pytest.raises(ValueError):
        run_coupled_check(cond_schedule, 1, 10, SEED)


@pytest.mark.parametrize("replications", [0, -1])
def test_replications_must_be_positive(replications):
    """Every Monte Carlo entry point refuses to run no replications, so no
    report can pass a check that checked nothing."""
    sch = steady_drift_schedule(4, sigma=0.01)
    calls = [
        lambda: run_coupled_check(sch, 2, replications, 0),
        lambda: final_positions(sch, 10, replications, SEED),
        lambda: final_positions(sch, 0, replications, SEED),
        lambda: run_experiment(sch, 1, replications, SEED),
        lambda: run_control("fast-growth", 10, replications, SEED),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="replications must be >= 1"):
            call()
