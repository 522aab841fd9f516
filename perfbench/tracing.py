"""Spans around the calls into each stairwalk layer, recorded from outside.

The tracer wraps public functions and methods by patching module globals and
class attributes: every ``stairwalk`` module global bound to a target
function is rebound to the wrapper, so ``from .kernel import
step_prob_tables`` call sites are traced too.  ``uninstall`` puts every
original back.  Nothing is added to the package.

Three kinds of wrapper:

* ``timed``: one span per call (name, start, end, parent, run id);
* ``lazy``: the function returns an iterator, and one span is recorded per
  item it produces, so work done on demand is charged to the producer and not
  to the consumer that drives it;
* ``count``: a per-thread call counter and no span, for functions called
  ~1e5 times per pass whose cost is a few attribute reads.

Spans live in memory until ``write_csv`` at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Callable, NamedTuple


class Target(NamedTuple):
    module: str               # e.g. "stairwalk.kernel"
    attr: str                 # "func" or "Class.method"
    kind: str                 # "timed" | "lazy" | "count"
    # lazy: span name from the call's bound arguments; timed: optional work
    # count from the bound arguments, summed under "<span>.work"
    hook: Callable | None = None


class Span(NamedTuple):
    run_id: str
    span_id: int
    parent_id: int | None
    name: str
    start_ns: int
    end_ns: int


def span_name(target: Target) -> str:
    return f"{target.module.rsplit('.', 1)[-1]}.{target.attr}"


class Tracer:
    def __init__(self, targets: list[Target], package: str = "stairwalk"):
        self.targets = targets
        self.package = package
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.run_id = ""
        self._root: int | None = None     # parent for spans opened in pool threads
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: list[Counter] = []
        self.threads_seen: dict[str, set[int]] = defaultdict(set)
        self._undo: list[Callable[[], None]] = []

    # -- per-thread state --------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self) -> Counter:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            with self._lock:
                self._counters.append(counter)
        return counter

    def counts(self) -> Counter:
        total = Counter()
        with self._lock:
            for c in self._counters:
                total.update(c)
        return total

    # -- spans ---------------------------------------------------------------

    def _open(self) -> tuple[int, int | None]:
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent

    def _close(self, name: str, sid: int, parent: int | None, t0: int):
        t1 = perf_counter_ns()
        self._stack().pop()
        self.spans.append(Span(self.run_id, sid, parent, name, t0, t1))

    @contextlib.contextmanager
    def entry(self, name: str):
        """The benchmark's own span around one entry call.  Spans opened by
        pool threads while it is open become its children."""
        sid, parent = self._open()
        self._root = sid
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self._root = None
            self._close(name, sid, parent, t0)

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, fn, hook):
        sig = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self._counter()[f"{name}.work"] += hook(bound.arguments)
            sid, parent = self._open()
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, sid, parent, t0)

        return wrapper

    def _lazy(self, name: str, fn, hook):
        sig = inspect.signature(fn)

        def produce(it, item_name):
            while True:
                sid, parent = self._open()
                t0 = perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(item_name, sid, parent, t0)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            it = fn(*args, **kwargs)  # eager validation stays eager
            return produce(iter(it), f"{name}.{hook(bound.arguments)}")

        return wrapper

    def _count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._counter()[name] += 1
            self.threads_seen[name].add(threading.get_ident())
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def install(self):
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for target in self.targets:
            name = span_name(target)
            try:
                mod = importlib.import_module(target.module)
            except ImportError:
                self.missing.append(name)
                continue
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = None if owner is None else inspect.getattr_static(owner, attr, None)
            if not callable(original):
                self.missing.append(name)
                continue
            if target.kind == "timed":
                wrapper = self._timed(name, original, target.hook)
            elif target.kind == "lazy":
                wrapper = self._lazy(name, original, target.hook)
            else:
                self.threads_seen[name] = set()  # created here, not racily in pool threads
                wrapper = self._count(name, original)
            if owner_name:
                setattr(owner, attr, wrapper)
                self._undo.append(functools.partial(setattr, owner, attr, original))
                continue
            for m in modules:
                ns = vars(m)
                for key, value in list(ns.items()):
                    if value is original:
                        ns[key] = wrapper
                        self._undo.append(functools.partial(ns.__setitem__, key, original))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ------------------------------------------------------------

    def write_csv(self, path):
        with open(path, "w") as fp:
            fp.write("run_id,span_id,parent_id,name,start_ns,end_ns\n")
            for s in self.spans:
                parent = "" if s.parent_id is None else s.parent_id
                fp.write(f"{s.run_id},{s.span_id},{parent},{s.name},{s.start_ns},{s.end_ns}\n")


class LayerTime(NamedTuple):
    calls: int
    total_s: float
    self_s: float


def layer_times(spans: list[Span]) -> dict[str, LayerTime]:
    """Per span name: calls, summed duration and self time.

    Self time is a span's duration minus the part of its interval covered by
    the union of its children, so children running in parallel pool threads
    are not subtracted twice.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append((s.start_ns, s.end_ns))
    calls: Counter = Counter()
    total: Counter = Counter()
    own: Counter = Counter()
    for s in spans:
        dur = s.end_ns - s.start_ns
        covered, reach = 0, s.start_ns
        for lo, hi in sorted(children.get(s.span_id, ())):
            lo, hi = max(lo, reach), min(hi, s.end_ns)
            if hi > lo:
                covered += hi - lo
                reach = hi
        calls[s.name] += 1
        total[s.name] += dur
        own[s.name] += dur - covered
    return {n: LayerTime(calls[n], total[n] / 1e9, own[n] / 1e9) for n in calls}
