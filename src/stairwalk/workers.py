"""Kept worker processes, shared by the Monte Carlo pool and the law writer.

A process keeps one set of forked workers for its whole life, oldest first.
`_kept_workers(count)` forks only the missing ones, so only the first call
that needs a worker pays for a fork and a fresh worker's page faults.
`multiprocessing` is loaded only when a worker may be forked.

Every use of the set goes through `call(count, fn, args)`, which holds
`_workers_lock` for the call, so one call at a time uses the set.  It sends
each of the first `count` workers the job (fn, args), fn a module-level
function pickled by name, and yields their pipes; the worker runs fn(conn,
*args), which speaks fn's own protocol with the caller until it returns:
`simulator._serve_chunks` runs Monte Carlo chunks and
`serialize._law_writer` writes a law CSV.  Where fork is unavailable it
yields no pipe, and the caller runs the work in-process.  Workers run the
code they were forked with.  A call that fails in any way (a job that
raises, a worker that dies, an interrupt) discards the whole set, and a
worker's end of file mid-call is raised as one error, `ChildProcessError`
(an `OSError`).  A call that finds a worker dead before it starts replaces
the set.

A worker closes every descriptor it inherited but stdio and its own pipe,
so it holds no pipe, socket or file of the caller: a child that the caller
feeds through a pipe still sees end of file when the caller closes its end.
A file that a job writes comes with the job
(`multiprocessing.reduction.send_handle`), and the job closes it before its
last answer.  A worker then freezes what it inherited (`gc.freeze`):
otherwise a full collection in it would walk, and so copy, the parent's
whole heap, which cost mc-short-paths about 4 % of its time.  It ignores
SIGINT and exits at end of file on its pipe.  At exit the parent closes
every pipe and joins the workers; if the parent dies first, its pipe ends
close with it.  A process forked later closes its copies of those ends
(`os.register_at_fork`), so it cannot keep a worker alive.
"""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import threading

# The kept workers, oldest first: (process, the parent's end of its pipe).
_workers: list = []
_workers_lock = threading.Lock()


def _serve(conn, inherited) -> None:
    """A kept worker's loop: run each job (fn, args) as fn(conn, *args),
    until end of file on `conn`.

    `inherited` lists the descriptors the caller had open just before the
    fork; the worker closes all of them but stdio and its own pipe."""
    for fd in inherited:
        if fd > 2 and fd != conn.fileno():
            try:
                os.close(fd)
            except OSError:  # closed already, as the other workers' pipes are
                pass
    gc.freeze()  # the collector never walks, and so never copies, what fork shared
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles ^C
    try:
        while True:
            fn, args = conn.recv()
            fn(conn, *args)
    except (EOFError, OSError):  # the parent closed the pipe, or died
        pass


def _open_fds() -> list[int]:
    """This process's open file descriptors; empty where they cannot be
    listed.  The descriptor of the listing itself is among them."""
    for listing in ("/proc/self/fd", "/dev/fd"):
        try:
            return [int(name) for name in os.listdir(listing)]
        except OSError:
            continue
    return []


def _forget_workers() -> None:
    """In a forked child: close the inherited ends of the parent's pipes,
    so that the parent's workers see end of file when the parent goes."""
    for _, conn in _workers:
        conn.close()
    _workers.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def _close_workers(kill: bool = False) -> None:
    """Close every kept worker's pipe and join it; `kill` first stops one
    that may be busy with a job."""
    workers = _workers[:]
    _workers.clear()
    for proc, conn in workers:
        conn.close()
        if kill:
            proc.terminate()
    for proc, _ in workers:
        proc.join()


def _kept_workers(count: int) -> list:
    """The pipes of the first `count` kept workers, forking the missing ones.
    A set in which a worker died between calls is replaced whole."""
    import atexit
    import multiprocessing

    if not all(proc.is_alive() for proc, _ in _workers):
        _close_workers(kill=True)
    ctx = multiprocessing.get_context("fork")
    while len(_workers) < count:
        # listed before any descriptor of this worker exists, so the worker
        # closes none of its own nor of multiprocessing's
        inherited = _open_fds()
        ours, theirs = ctx.Pipe()
        proc = ctx.Process(target=_serve, args=(theirs, inherited), daemon=True,
                           name=f"stairwalk-worker-{len(_workers)}")
        _workers.append((proc, ours))  # listed first, so the child closes `ours`
        try:
            proc.start()
        except BaseException:
            _workers.pop()
            ours.close()
            raise
        finally:
            theirs.close()
        # registered after multiprocessing's own exit hook, so it runs first
        atexit.unregister(_close_workers)
        atexit.register(_close_workers)
    return [conn for _, conn in _workers[:count]]


@contextlib.contextmanager
def call(count: int, fn, args: tuple):
    """Send the job (fn, args) to each of the first `count` kept workers and
    yield their pipes, holding the set until the call ends; yield [] where
    fork is unavailable.  Any failure discards the set, and a worker's end
    of file is raised as `ChildProcessError`."""
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        yield []
        return
    with _workers_lock:
        try:
            conns = _kept_workers(count)
            for conn in conns:
                conn.send((fn, args))
            yield conns
        except BaseException as exc:
            _close_workers(kill=True)
            if isinstance(exc, EOFError):
                raise ChildProcessError("a kept worker exited during a call") from None
            raise
