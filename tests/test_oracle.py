"""Dynamic-programming transient laws vs. hand values and path enumeration."""

import contextlib
import csv
import gc
import hashlib
import io
import multiprocessing
import os
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from stairwalk import (
    ResourceBudgetError,
    oracle,
    event_probability,
    flat_step_distribution,
    law_at,
    scaled_profile,
    serialize,
    transient_law,
    user_schedule,
    workers,
)
from stairwalk.cli import main
from stairwalk.kernel import step_prob_tables
from stairwalk.oracle import phase_ends, tail_probability
from stairwalk.serialize import dump_csv, dump_law_csv


@pytest.fixture(scope="module")
def a8_schedule():
    return user_schedule(scaled_profile(), [100], [8.0], [10])


def test_hand_values_n1_n2(a8_schedule):
    law1 = law_at(1, a8_schedule, arithmetic="rational")
    assert law1.mass == [Fraction(1, 2), Fraction(1, 2)]
    law2 = law_at(2, a8_schedule, arithmetic="rational")
    assert law2.mass == [Fraction(1, 4), Fraction(13, 20), Fraction(1, 10)]
    assert law2.total() == 1


def _enumerate_paths(horizon, a_of_step):
    """Independent oracle: sum over all +-1/0 step sequences."""
    out = {}

    def walk(n, s, prob):
        if prob == 0:
            return
        if n == horizon:
            out[s] = out.get(s, Fraction(0)) + prob
            return
        law = flat_step_distribution(s, a_of_step(n))
        if s > 0:
            walk(n + 1, s - 1, prob * law.p_down)
        walk(n + 1, s, prob * law.p_stay)
        walk(n + 1, s + 1, prob * law.p_up)

    walk(0, 0, Fraction(1))
    return out


@pytest.mark.parametrize("a2", [Fraction(399969, 31000), Fraction(100)])
@pytest.mark.parametrize("horizon", [1, 3, 6])
def test_dp_matches_path_enumeration(a2, horizon):
    # phase 1 (two steps at a = 8), then the enumerated a
    sched = user_schedule(scaled_profile(), [2, 100], [8.0, a2], [1, 2])
    dp = law_at(horizon, sched, arithmetic="rational")
    brute = _enumerate_paths(horizon, lambda n: Fraction(8) if n < 2 else a2)
    for s, p in enumerate(dp.mass):
        assert brute.get(s, Fraction(0)) == p
    assert dp.total() == 1


def test_phase1_never_steps_down(a8_schedule):
    # at a = 8 the mass at s-1 never receives anything: P(S_n < S_{n-1}) = 0
    prev = None
    for law in transient_law(40, a8_schedule, arithmetic="rational"):
        if prev is not None:
            # tail mass P(S >= k) is nondecreasing in n for every k
            for k in range(len(prev.mass)):
                assert law.prob_greater(k, strict=False) >= prev.prob_greater(
                    k, strict=False
                )
        prev = law


def test_phase1_tail_monotone_float(scaled_schedule):
    laws = list(transient_law(300, scaled_schedule))
    for a, b in zip(laws, laws[1:]):
        ca, cb = a.cdf(), b.cdf()
        assert (cb[: len(ca)] <= ca + 1e-13).all()


def test_conservation_float(scaled_schedule):
    law = law_at(2000, scaled_schedule)
    assert law.mass_defect() <= 1e-12


def test_nan_mass_fails_the_defect_gate(scaled_schedule):
    law = law_at(20, scaled_schedule)
    law.mass[3] = np.nan  # the tail sum above s = 10 would not see it
    with pytest.raises(ArithmeticError, match="drifted by nan"):
        tail_probability(law, 10)


def test_rational_float_agreement(scaled_schedule):
    exact = law_at(50, scaled_schedule, arithmetic="rational")
    approx = law_at(50, scaled_schedule)
    assert np.allclose(
        np.asarray([float(p) for p in exact.mass]), approx.mass, atol=1e-14
    )


def test_phase_switch_changes_law():
    prof = scaled_profile()
    switched = user_schedule(prof, [3, 40], [8.0, 12.0], [1, 2])
    flat = user_schedule(prof, [100], [8.0], [1])
    n = 6
    law_s = law_at(n, switched, arithmetic="rational")
    law_f = law_at(n, flat, arithmetic="rational")
    assert law_s.mass != law_f.mass
    # manual two-kernel recursion as an oracle
    mass = {0: Fraction(1)}
    for step in range(n):
        a = Fraction(8) if step < 3 else Fraction(12)
        new = {}
        for s, p in mass.items():
            law = flat_step_distribution(s, a)
            if s > 0:
                new[s - 1] = new.get(s - 1, Fraction(0)) + p * law.p_down
            new[s] = new.get(s, Fraction(0)) + p * law.p_stay
            new[s + 1] = new.get(s + 1, Fraction(0)) + p * law.p_up
        mass = new
    for s, p in enumerate(law_s.mass):
        assert mass.get(s, Fraction(0)) == p


def test_event_probability(a8_schedule, scaled_schedule):
    assert event_probability(1, a8_schedule, 0, strict=True, arithmetic="rational") == Fraction(1, 2)
    assert event_probability(1, a8_schedule, -1, strict=True, arithmetic="rational") == 1
    assert event_probability(2, a8_schedule, 0, strict=False, arithmetic="rational") == 1
    # strict vs non-strict differ by the point mass
    p_gt = event_probability(30, scaled_schedule, 10, strict=True)
    p_ge = event_probability(30, scaled_schedule, 10, strict=False)
    law = law_at(30, scaled_schedule)
    assert p_ge - p_gt == pytest.approx(float(law.mass[10]), abs=1e-15)


def test_phase1_sizing_anchor(scaled_schedule):
    # the scaled-profile phase-1 event probability clears 1 - sigma/2
    p = event_probability(scaled_schedule.M0, scaled_schedule, scaled_schedule.M)
    assert p > 1 - float(scaled_schedule.sigma) / 2


def test_budget_errors(a8_schedule, scaled_schedule):
    with pytest.raises(ResourceBudgetError):
        transient_law(30_000, scaled_schedule)
    with pytest.raises(ResourceBudgetError):
        transient_law(100, a8_schedule, arithmetic="rational")
    with pytest.raises(ValueError):
        transient_law(10, a8_schedule, arithmetic="decimal")
    # raising the budget explicitly is allowed
    law = law_at(70, a8_schedule, arithmetic="float", horizon_budget=10**5)
    assert law.n == 70


def _csv_rows(path):
    with open(path, newline="") as fp:
        return list(csv.reader(fp))


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the law writer needs the fork start method")


@pytest.mark.usefixtures("child_deadline")
def test_law_csv_rows(scaled_schedule, tmp_path):
    path = tmp_path / "law.csv"
    dump_law_csv(transient_law(5, scaled_schedule), path)
    rows = _csv_rows(path)
    assert rows[0] == ["n", "s", "mass"]
    assert all(len(r) == 3 for r in rows[1:])
    n1 = scaled_schedule.N(1)
    dump_law_csv(transient_law(n1, scaled_schedule), path, phase_ends(scaled_schedule, n1))
    rows_b = _csv_rows(path)
    assert {int(r[0]) for r in rows_b[1:]} == {n1}


def _law_csv_rows(laws, boundaries=None):
    """The law CSV's rows, for `dump_csv` to format cell by cell through
    csv.writer and fmt_real: the reference `dump_law_csv` must match byte
    for byte."""
    yield ("n", "s", "mass")
    for law in laws:
        if boundaries is not None and law.n not in boundaries:
            continue
        for s, p in enumerate(law.mass):
            p = float(p)
            if p != 0.0:
                yield (law.n, s, p)


@pytest.mark.usefixtures("child_deadline")
def test_law_csv_writer_matches_csv_writer(scaled_schedule, paper_schedule, tmp_path,
                                           monkeypatch, no_stray_children):
    """Both writer paths, the forked writer and the in-process one with a
    single usable CPU or rational laws, write the bytes of the csv.writer
    reference."""
    user = user_schedule(scaled_profile(), [5, 7, 9, 40],
                         [8.0, 10.0, Fraction(25, 2), 20.0], [3, 6, 10, 20])
    cases = [
        (user, 40, "float", None),
        (user, 30, "rational", None),
        (scaled_schedule, 64, "rational", None),
        (scaled_schedule, 1000, "float", {0, 1, 770, 771, 772, 1000}),
        # past step ~1075, zero masses sit above the support
        (paper_schedule, 1500, "float", {0, 1100, 1499, 1500}),
    ]
    requested = []
    kept = workers._kept_workers
    monkeypatch.setattr(workers, "_kept_workers",
                        lambda count: requested.append(count) or kept(count))
    paths = [2, 1] if "fork" in multiprocessing.get_all_start_methods() else [1]
    fast, slow = tmp_path / "fast.csv", tmp_path / "slow.csv"
    for sched, horizon, arithmetic, steps in cases:
        laws = list(transient_law(horizon, sched, arithmetic, steps=steps))
        for boundaries in (None, phase_ends(sched, horizon) | {horizon}, set()):
            dump_csv(_law_csv_rows(laws, boundaries), slow)
            for cpus in paths:
                monkeypatch.setattr(serialize, "usable_cpus", lambda cpus=cpus: cpus)
                requested.clear()
                dump_law_csv(laws, fast, boundaries)
                # a writer is used only for float laws
                assert requested == ([1] if cpus > 1 and arithmetic == "float" else [])
                assert fast.read_bytes() == slow.read_bytes()
    no_stray_children()


@pytest.fixture
def through_writer(monkeypatch):
    """through_writer(in_writer) routes float laws through the law writer,
    and passes each law's text formatted there through in_writer(text).  It
    returns the list of the n of the laws the caller formatted itself.

    Workers run the code they were forked with, so the kept set is closed
    first, for the writer to be forked with the patch, and again after the
    test, for no later writer to run it."""
    def route(in_writer=None):
        caller, real, formatted = os.getpid(), serialize._law_text, []

        def text(n, mass):
            out = real(n, mass)
            if os.getpid() != caller:
                return in_writer(out) if in_writer else out
            formatted.append(n)
            return out

        workers._close_workers()
        monkeypatch.setattr(serialize, "_law_text", text)
        monkeypatch.setattr(serialize, "usable_cpus", lambda: 2)
        return formatted

    yield route
    workers._close_workers()


def _slowly(text):
    time.sleep(0.05)
    return text


def _paced(laws, seconds):
    for law in laws:
        time.sleep(seconds)
        yield law


@needs_fork
@pytest.mark.usefixtures("child_deadline")
@pytest.mark.parametrize("pace", ["writer-slow", "caller-slow", "free"])
def test_caller_formats_while_the_writer_is_behind(pace, scaled_schedule, through_writer, tmp_path,
                                                   no_stray_children):
    """The caller formats a law itself while two it sent are unwritten; the
    bytes are the reference's whether it formats every law after the first
    two (a slow writer), none (a slow caller) or some."""
    horizon, boundaries = 1000, {0, 1, 2, 3, 500, 770, 771, 772, 999, 1000}
    laws = list(transient_law(horizon, scaled_schedule, steps=boundaries))
    reference, path = tmp_path / "reference.csv", tmp_path / "law.csv"
    dump_csv(_law_csv_rows(laws), reference)
    formatted = through_writer(_slowly if pace == "writer-slow" else None)
    dump_law_csv(_paced(laws, 0.05) if pace == "caller-slow" else laws, path)
    assert path.read_bytes() == reference.read_bytes()
    if pace == "writer-slow":
        assert formatted and set(formatted) <= boundaries - {0, 1}
    no_stray_children()


@needs_fork
@pytest.mark.usefixtures("child_deadline")
def test_law_writer_killed_mid_stream_is_an_os_error(scaled_schedule, through_writer, tmp_path,
                                                      no_stray_children):
    """A writer killed while the caller still sends is an OSError in the
    caller, not a hang."""
    through_writer(_slowly)

    def laws():
        for law in transient_law(40, scaled_schedule):
            if law.n == 3:
                (writer,) = workers._workers   # the kept worker that serves the writer
                writer[0].kill()
            yield law

    with pytest.raises(OSError):
        dump_law_csv(laws(), tmp_path / "law.csv")
    no_stray_children()


class _DeadWriter:
    """A kept worker that dies while it serves the law writer: its pipe
    takes what is sent and reads end of file."""

    def send(self, message):
        pass

    def poll(self):
        return False

    def recv(self):
        raise EOFError


@needs_fork
@pytest.mark.usefixtures("child_deadline")
def test_law_writer_end_of_file_is_a_child_process_error(scaled_schedule, monkeypatch,
                                                         tmp_path, no_stray_children):
    """A writer's end of file is the error a dead Monte Carlo worker
    raises, ChildProcessError, and it discards the kept set.  A stand-in
    that reads end of file takes the writer's place."""
    import multiprocessing.reduction

    workers._kept_workers(1)   # a kept set for the failed call to discard
    procs = [proc for proc, _ in workers._workers]
    monkeypatch.setattr(serialize, "usable_cpus", lambda: 2)
    monkeypatch.setattr(workers, "_kept_workers", lambda count: [_DeadWriter()] * count)
    monkeypatch.setattr(multiprocessing.reduction, "send_handle", lambda *args: None)
    with pytest.raises(ChildProcessError):
        dump_law_csv(transient_law(40, scaled_schedule), tmp_path / "law.csv")
    assert workers._workers == []
    assert not any(proc.is_alive() for proc in procs)
    no_stray_children()


@needs_fork
@pytest.mark.usefixtures("child_deadline")
def test_law_writer_freezes_what_it_inherits(through_writer, tmp_path, no_stray_children):
    """The writer's collections skip the objects fork shared with it; the
    caller's own collector is left as it was."""
    through_writer(lambda text: f"{gc.get_freeze_count()}\n")
    path = tmp_path / "law.csv"
    dump_law_csv(transient_law(0, user_schedule(scaled_profile(), [5], [8.0], [3])), path)
    (frozen,) = path.read_text().splitlines()[1:]  # the one law, formatted in the writer
    assert int(frozen) > 0
    assert gc.get_freeze_count() == 0
    no_stray_children()


@needs_fork
@pytest.mark.usefixtures("child_deadline")
def test_one_kept_set_serves_both_users(scaled_schedule, through_writer, monkeypatch, tmp_path,
                                        no_stray_children):
    """The law writer runs on the oldest kept worker, before and after a
    pooled Monte Carlo call on the same set, and neither user moves the
    other's bytes."""
    from test_simulator import POOLED_DIGESTS, POOLED_REPS, _pooled_outputs

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    writers = tmp_path / "writers"

    def record(text):
        with open(writers, "a") as fp:
            fp.write(f"{os.getpid()}\n")
        return text

    through_writer(record)
    laws = list(transient_law(1000, scaled_schedule, steps={0, 1, 500, 770, 771, 1000}))
    reference, path = tmp_path / "reference.csv", tmp_path / "law.csv"
    dump_csv(_law_csv_rows(laws), reference)
    pids = []
    for step in ("law", "chunks", "law"):
        if step == "chunks":
            pooled = _pooled_outputs(POOLED_REPS, 2)
            assert hashlib.sha256(pooled).hexdigest() == POOLED_DIGESTS[POOLED_REPS]
            assert len(workers._workers) == 2
            continue
        writers.unlink(missing_ok=True)
        dump_law_csv(laws, path)
        assert path.read_bytes() == reference.read_bytes()
        pids.append(set(writers.read_text().split()))
        assert pids[-1] == {str(workers._workers[0][0].pid)}
    assert pids[0] == pids[1]
    no_stray_children()


@needs_fork
@pytest.mark.usefixtures("child_deadline")
def test_kept_worker_holds_no_file_of_a_finished_call(scaled_schedule, monkeypatch, tmp_path,
                                                      no_stray_children):
    """Once a law CSV is written, no kept worker has the file open.  A
    write error discards the set, and the next call forks a new one that
    writes the reference bytes."""
    monkeypatch.setattr(serialize, "usable_cpus", lambda: 2)
    laws = list(transient_law(1000, scaled_schedule, steps={0, 1, 500, 770, 771, 1000}))
    reference, path = tmp_path / "reference.csv", tmp_path / "law.csv"
    dump_csv(_law_csv_rows(laws), reference)
    dump_law_csv(laws, path)
    assert path.read_bytes() == reference.read_bytes()
    pids = {proc.pid for proc, _ in workers._workers}
    assert pids
    if os.path.isdir("/proc/self/fd"):
        for pid in pids:
            fds = f"/proc/{pid}/fd"
            assert str(path.resolve()) not in {os.readlink(f"{fds}/{fd}") for fd in os.listdir(fds)}
    if os.path.exists("/dev/full"):
        with pytest.raises(OSError, match="No space left on device"):
            dump_law_csv(laws, "/dev/full")
        assert workers._workers == []
        dump_law_csv(laws, path)
        assert path.read_bytes() == reference.read_bytes()
        assert workers._workers and not pids & {proc.pid for proc, _ in workers._workers}
    no_stray_children()


def _kernel_tables(s_max, a):
    p_down, p_up = step_prob_tables(s_max, a)
    return p_down, p_up, 1 - p_down - p_up


def _full_width_laws(horizon, schedule, tables=_kernel_tables):
    """The float DP's three-term update over the whole width n + 1 at every
    step, with a fresh array per step and tables(s_max, a) of (p_down, p_up,
    stay) over [0, horizon]: the reference the windowed, in-place engine
    must match bit for bit."""
    mass = np.array([1.0])
    yield mass
    for steps, a in schedule.segments(horizon):
        p_down, p_up, stay = tables(horizon, a)
        for _ in range(steps):
            width = len(mass)
            new = np.zeros(width + 1)
            new[:width] = mass * stay[:width]
            new[1:] += mass * p_up[:width]
            new[:-2] += (mass * p_down[:width])[1:]
            mass = new
            yield mass


def test_windowed_dp_matches_full_width(scaled_schedule, paper_schedule):
    for sched, horizons in ((scaled_schedule, [0, 1, 770, 771, 772, 1100, 3000, 6000]),
                            (paper_schedule, [1074, 1100, 2500])):
        reference = {n: m for n, m in enumerate(_full_width_laws(max(horizons), sched))
                     if n in horizons}
        for horizon in horizons:
            assert law_at(horizon, sched).mass.tobytes() == reference[horizon].tobytes()
    # every law of the stream, across the underflow of the law's top
    for law, mass in zip(transient_law(1300, paper_schedule),
                         _full_width_laws(1300, paper_schedule), strict=True):
        assert law.mass.tobytes() == mass.tobytes()
    # many segments shorter than a 64-step block, and one longer than two
    lengths = [1, 2, 3, 5, 63, 64, 65, 7, 11, 300, *[13] * 30, 29, 31, 500]
    user = user_schedule(scaled_profile(), lengths, np.linspace(8.0, 60.0, len(lengths)),
                         list(range(1, len(lengths) + 1)))
    horizon = sum(lengths)  # past the underflow
    for law, mass in zip(transient_law(horizon, user), _full_width_laws(horizon, user),
                         strict=True):
        assert law.mass.tobytes() == mass.tobytes()


def test_windowed_dp_clears_what_a_falling_support_leaves(monkeypatch):
    """Where the support's top falls below the next window at the end of a
    block, the stale entries above that window are cleared, in both
    buffers."""
    def tables(s_max, a, exact=False):
        low = np.arange(s_max + 1) <= 5
        if a != 9:  # up or stay, with probability 1/2 each
            return np.zeros(s_max + 1), np.full(s_max + 1, 0.5), np.full(s_max + 1, 0.5)
        # above s = 5 the mass moves up by a factor of 1e-200, so it
        # underflows at the second step
        return np.zeros(s_max + 1), np.where(low, 0.5, 1e-200), np.where(low, 0.5, 0.0)

    sched = user_schedule(scaled_profile(), [100, 2, 30], [8.0, 9.0, 10.0], [1, 2, 3])
    reference = list(_full_width_laws(132, sched, tables))
    assert reference[101][101] > 0 and reference[102][7] > 0 and not reference[102][8:].any()
    monkeypatch.setattr(oracle, "_step_tables", tables)
    for law, mass in zip(transient_law(132, sched), reference, strict=True):
        assert law.mass.tobytes() == mass.tobytes()


@seed(20261021)
@settings(max_examples=30, deadline=None)
@given(st.data())
def test_windowed_dp_matches_full_width_on_user_schedules(data):
    """Over random user schedules, segments shorter and longer than a block,
    every float law is that of the full-width update, bit for bit."""
    k = data.draw(st.integers(1, 6), label="phases")
    lengths = data.draw(st.lists(st.integers(1, 300), min_size=k, max_size=k), label="lengths")
    a_rest = data.draw(st.lists(st.floats(8.0, 1000.0), min_size=k - 1, max_size=k - 1),
                       label="a")
    sched = user_schedule(scaled_profile(), lengths, [8.0] + sorted(a_rest),
                          list(range(1, k + 1)))
    horizon = data.draw(st.integers(0, sum(lengths)), label="horizon")
    for law, mass in zip(transient_law(horizon, sched), _full_width_laws(horizon, sched),
                         strict=True):
        assert law.mass.tobytes() == mass.tobytes()


def test_law_at_memory(scaled_schedule):
    """law_at keeps two laws, a scratch buffer and one segment's step
    tables, not a full-width table per adaptation value."""
    tracemalloc.start()
    try:
        law_at(2 * 10**4, scaled_schedule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_requested_steps_match_full_stream(data):
    """transient_law(..., steps=S) yields the full stream's laws at S, in
    both arithmetics."""
    k = data.draw(st.integers(1, 4), label="phases")
    lengths = data.draw(st.lists(st.integers(1, 8), min_size=k, max_size=k), label="lengths")
    a_rest = data.draw(st.lists(
        st.fractions(min_value=8, max_value=1000, max_denominator=1000),
        min_size=k - 1, max_size=k - 1), label="a")
    sched = user_schedule(scaled_profile(), lengths, [Fraction(8)] + sorted(a_rest),
                          list(range(1, k + 1)))
    horizon = data.draw(st.integers(0, min(30, sum(lengths))), label="horizon")
    steps = data.draw(st.sets(st.integers(-1, horizon + 2)), label="steps")
    for arithmetic in ("float", "rational"):
        full = [law for law in transient_law(horizon, sched, arithmetic) if law.n in steps]
        asked = list(transient_law(horizon, sched, arithmetic, steps=steps))
        assert [law.n for law in asked] == [law.n for law in full]
        for got, want in zip(asked, full):
            if arithmetic == "float":
                assert got.mass.tobytes() == want.mass.tobytes()
            else:
                assert got.mass == want.mass
                assert all(isinstance(p, Fraction) for p in got.mass)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rational_dp_matches_float_dp(data):
    """Over random small user schedules, the float law is float() of the
    rational law to within 1e-14 at every step, and the rational law holds
    its mass exactly."""
    k = data.draw(st.integers(2, 4), label="phases")
    lengths = data.draw(st.lists(st.integers(1, 8), min_size=k, max_size=k), label="lengths")
    a_rest = data.draw(st.lists(
        st.fractions(min_value=8, max_value=1000, max_denominator=1000),
        min_size=k - 1, max_size=k - 1), label="a")
    sched = user_schedule(scaled_profile(), lengths, [Fraction(8)] + sorted(a_rest),
                          list(range(1, k + 1)))
    horizon = data.draw(st.integers(0, min(30, sum(lengths))), label="horizon")
    exact = list(transient_law(horizon, sched, arithmetic="rational"))
    approx = list(transient_law(horizon, sched))
    assert [law.n for law in exact] == [law.n for law in approx] == list(range(horizon + 1))
    for e, f in zip(exact, approx):
        assert all(isinstance(p, Fraction) for p in e.mass)
        assert sum(e.mass) == 1
        assert np.abs(np.array([float(p) for p in e.mass]) - f.mass).max() <= 1e-14


# ----------------------------------------------------------------------
# golden digests
# ----------------------------------------------------------------------

# sha256 of DP outputs: the float law of S_20000 and the rational law of
# S_64 on the scaled schedule, and `stairwalk dp` CSV + JSON + stdout on the
# scaled schedule (phase boundaries only) and on a four-phase user schedule
# whose last phase is cut at the horizon.
GOLDEN_DP = {
    "law_at_float_20000": "657f715d412fa71f0f1ab2282f3a7ff00ec817b8112fe9279453f19ded698e95",
    "law_at_rational_64": "f5cb520eb6eb64dd31546880a7e2003d3ef1b8ac34bad38e2853da39077a44b9",
    "dp_scaled_5000_boundaries": "275d7870eef3b213aab14e08fdcb6baf86870375f861ebd14dae535206d0a3a1",
    "dp_user_40": "97a21509e93e4272cada46f5c681418e531303c217861dea9079898f621af90d",
    "dp_user_40_boundaries": "b0293cfa0637a131d93c56e13f6880feefaa24c2dad3a509daf7991089718b56",
    "dp_user_30_rational": "71676484108d021b2b1c744f5adacbfc96bfdfdf22f0070cc2bce86e10322573",
}


@pytest.mark.usefixtures("child_deadline")
def test_golden_dp(scaled_schedule, tmp_path):
    """Any change to a bit of the DP's laws, CSV rows or event probability
    fails here."""
    out = {
        "law_at_float_20000": law_at(2 * 10**4, scaled_schedule).mass.tobytes(),
        "law_at_rational_64": "\n".join(
            str(p) for p in law_at(64, scaled_schedule, arithmetic="rational").mass
        ).encode(),
    }
    user = user_schedule(scaled_profile(), [5, 7, 9, 40],
                         [8.0, 10.0, Fraction(25, 2), 20.0], [3, 6, 10, 20])
    for stem, sched in {"scaled": scaled_schedule, "user": user}.items():
        (tmp_path / f"{stem}.json").write_text(sched.to_json())
    runs = {
        "scaled_5000_boundaries": ["scaled", "5000", "--boundaries-only", "--threshold", "300"],
        "user_40": ["user", "40", "--threshold", "12"],
        "user_40_boundaries": ["user", "40", "--boundaries-only", "--threshold", "12",
                               "--non-strict"],
        "user_30_rational": ["user", "30", "--arithmetic", "rational", "--threshold", "9"],
    }
    for name, (stem, horizon, *rest) in runs.items():
        csv, doc = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["dp", "--schedule", str(tmp_path / f"{stem}.json"),
                         "--horizon", horizon, *rest, "--out", str(csv),
                         "--json", str(doc)]) == 0
        out[f"dp_{name}"] = csv.read_bytes() + doc.read_bytes() + stdout.getvalue().encode()
    assert {k: hashlib.sha256(v).hexdigest() for k, v in out.items()} == GOLDEN_DP


# sha256 of DP outputs past step ~1075, where (1/2)^n underflows and the top
# of a float law is exactly 0.0: the float law of S_3000 on the paper
# schedule (phase 1, a = 8), `stairwalk dp` on it without --out, and a
# phase-boundary dump of a three-phase user schedule cut at step 2000.
GOLDEN_DP_UNDERFLOW = {
    "law_at_paper_3000": "13aae2f9a4fe95178ed6dc6313c95a807b5fb56c2bf559ecbc684ea172388509",
    "dp_paper_3000": "6de35199233fb9ee90eaaa00cd750ca996e81f4d3670b9c8f4710012030f80bb",
    "dp_user_2000_boundaries": "55161fd4e39d096008bac0d6110d4e72b6610d5ea280c70065c3e3ad14304ec1",
}


@pytest.mark.usefixtures("child_deadline")
def test_golden_dp_past_underflow(paper_schedule, tmp_path):
    """The laws and dp outputs where zero entries sit above the support."""
    law = law_at(3000, paper_schedule)
    assert not law.mass[-400:].any()
    out = {"law_at_paper_3000": law.mass.tobytes()}
    user = user_schedule(scaled_profile(), [600, 700, 900], [8.0, 11.0, 30.0], [3, 6, 10])
    for stem, sched in {"paper": paper_schedule, "user": user}.items():
        (tmp_path / f"{stem}.json").write_text(sched.to_json())
    runs = {
        "paper_3000": ["paper", "3000", "--threshold", "1500"],
        "user_2000_boundaries": ["user", "2000", "--boundaries-only", "--threshold", "900",
                                 "--out", str(tmp_path / "user_2000_boundaries.csv")],
    }
    for name, (stem, horizon, *rest) in runs.items():
        csv, doc = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["dp", "--schedule", str(tmp_path / f"{stem}.json"),
                         "--horizon", horizon, *rest, "--json", str(doc)]) == 0
        out[f"dp_{name}"] = ((csv.read_bytes() if csv.exists() else b"")
                             + doc.read_bytes() + stdout.getvalue().encode())
    assert {k: hashlib.sha256(v).hexdigest() for k, v in out.items()} == GOLDEN_DP_UNDERFLOW
