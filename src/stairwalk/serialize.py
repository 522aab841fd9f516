"""Shared JSON/CSV emission helpers.

CSV cells carry reals formatted with 17 significant digits; JSON uses native
floats, whose text form round-trips to the exact same double.  Fractions are
encoded as "p/q" strings in both.

`dump_json` writes the text of `json.dumps(..., indent=2)` on the report
reduced to plain JSON values, byte for byte, but walks the report once: exact
dicts, lists and scalars are encoded as they are met, everything else is
reduced first (`to_jsonable`, dataclass fields, "p/q" Fractions, tuples,
numpy scalars and arrays).  No numpy value can exist before numpy is
imported, so the numpy types are tested for only once it is loaded, and only
the law writer imports it: writing a schedule loads no numpy.

`dump_law_csv` formats float laws in a forked writer process when fork is
available and more than one CPU is usable, so that the caller goes on
stepping the DP while the previous law is formatted; otherwise the same
per-law formatter runs in-process.  Rational laws are always written
in-process: the exact DP stops at horizon 64, so they are at most 65 laws of
at most 65 entries, too few to pay for a fork.  `multiprocessing` is
imported only when a writer may be forked, so a one-CPU write never loads
it.  The protocol:

* the caller opens the file and the writer inherits it, so a bad path fails
  before the first law is drawn, and only the writer writes to it;
* the writer first moves what it inherited to the collector's permanent
  generation (`gc.freeze`), so that its collections neither walk nor copy
  the caller's memory;
* the caller sends (n, float64 masses) of each selected law over a pipe,
  then an end marker (None).  The writer answers each law once it is
  written, and the end marker once the file is closed, with None; or, once,
  with the (errno, strerror) of its first write error, which the caller
  raises as an `OSError`.  After a write error the writer drains the pipe
  to the end marker, so the caller never blocks on a full pipe;
* while two laws the caller sent are unanswered, the caller formats the
  next law itself, waits for one answer, and sends the text, which the
  writer writes as it is, in order.  So the formatting is shared when the
  writer falls behind, and no more than three messages are ever unanswered:
  the writer's answers never fill the pipe back;
* each process closes its copy of the other's end of the pipe.  The writer
  closes the caller's end, so that when the caller stops early (its laws
  raised) and closes its end, the writer reads EOF and exits instead of
  waiting forever.  The caller closes the writer's end, so that a writer
  that dies is EOF, not a hang;
* the writer ignores SIGINT and prints nothing; the caller always closes its
  end and joins the writer, so no process outlives the call.
"""

from __future__ import annotations

import csv
import dataclasses
import gc
import itertools
import signal
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str
from pathlib import Path

from .core import usable_cpus

_INF = float("inf")


def fmt_real(x) -> str:
    """A real as text with 17 significant digits (Fractions stay exact)."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    np = _loaded_numpy()
    if isinstance(x, float) or (np is not None and isinstance(x, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _loaded_numpy():
    """numpy if this process has imported it, else None: no numpy value can
    exist before then, so a caller need not test for one."""
    return sys.modules.get("numpy")


def _encode_float(x) -> str:
    # json's own spelling of the non-finite values, float repr otherwise
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# Encoders by exact type; subclasses (an IntEnum, np.float64) go through
# `_encode_other`, so that a reduction can never lead back to itself.
_SCALARS = {
    str: _encode_str,
    float: _encode_float,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _encode(obj, indent: str) -> str:
    """The indent-2 JSON text of `obj`, whose closing bracket, if it has one,
    follows a newline and `indent`."""
    kind = type(obj)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(obj)
    if kind is dict:
        return _encode_dict(obj, indent)
    if kind is list:
        return _encode_list(obj, indent)
    return _encode_other(obj, indent)


def _encode_dict(obj: dict, indent: str) -> str:
    if not obj:
        return "{}"
    inner = indent + "  "
    if not all(type(k) is str for k in obj):
        # keys whose text is equal (0 and "0", two NaNs) merge: the first
        # one's place, the last one's value, which alone is encoded
        obj = {str(k): v for k, v in obj.items()}
    items = [f"{_encode_str(k)}: {_encode(v, inner)}" for k, v in obj.items()]
    return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"


def _encode_list(obj: list, indent: str) -> str:
    if not obj:
        return "[]"
    inner = indent + "  "
    rows = (",\n" + inner).join([_encode(v, inner) for v in obj])
    return "[\n" + inner + rows + "\n" + indent + "]"


def _encode_other(obj, indent: str) -> str:
    """Reduce what is not an exact dict, list or scalar, in the order the
    package has always used, and encode the result."""
    if hasattr(obj, "to_jsonable"):
        return _encode(obj.to_jsonable(), indent)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _encode(dataclasses.asdict(obj), indent)
    if isinstance(obj, Fraction):
        return _encode_str(f"{obj.numerator}/{obj.denominator}")
    if isinstance(obj, dict):
        return _encode_dict(obj, indent)
    if isinstance(obj, (list, tuple)):
        return _encode_list(list(obj), indent)
    np = _loaded_numpy()
    if np is not None:
        if isinstance(obj, np.ndarray):
            # list() raises for a 0-d array, whose tolist() is a scalar
            return _encode_list(list(obj.tolist()), indent)
        if isinstance(obj, np.integer):
            return int.__repr__(int(obj))
        if isinstance(obj, np.floating):
            return _encode_float(float(obj))
        if isinstance(obj, np.bool_):
            return "true" if obj else "false"
    if isinstance(obj, str):
        return _encode_str(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _encode_float(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_json(obj, path: str | Path) -> str:
    """Write `obj` as indent-2 JSON and a newline to `path`; return the text."""
    text = _encode(obj, "")
    Path(path).write_text(text + "\n")
    return text


def dump_csv(rows, path: str | Path):
    """Write an iterable of row tuples; reals go out with 17 digits."""
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp)
        for row in rows:
            writer.writerow([fmt_real(v) for v in row])


_LAW_HEADER = "n,s,mass\r\n"


def _selected_laws(laws, boundaries):
    """(n, float64 masses) of each law to write."""
    import numpy as np

    for law in laws:
        if boundaries is None or law.n in boundaries:
            yield law.n, np.asarray(law.mass, dtype=np.float64)


def _law_text(n: int, mass: np.ndarray) -> str:
    """The CSV rows of one law: one `%` over its nonzero entries."""
    import numpy as np

    support = np.flatnonzero(mass)
    flat = [None] * (2 * len(support))
    flat[0::2] = support.tolist()
    flat[1::2] = mass[support].tolist()
    return (f"{n},%d,%.17g\r\n" * len(support)) % tuple(flat)


def _write_laws(fp, items) -> None:
    """Write the header and the rows of each (n, masses) in `items`."""
    fp.write(_LAW_HEADER)
    for item in items:
        fp.write(_law_text(*item))


def _law_writer(fp, conn, parent_end) -> None:
    """The forked writer: write the header, then each law or text from
    `conn` to `fp` until the end marker.  Answer each law once it is
    written, and the end marker once the file is closed, with None; answer
    a write error once, with its (errno, strerror)."""
    gc.freeze()  # the collector never walks, and so never copies, what fork shared
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_end.close()  # else the parent closing its end is no EOF here
    laws = iter(conn.recv, None)  # the laws up to the end marker
    try:
        try:
            with fp:
                fp.write(_LAW_HEADER)
                for item in laws:
                    fp.write(item if isinstance(item, str) else _law_text(*item))
                    conn.send(None)
        except OSError as exc:  # a write, or the flush on close
            conn.send((exc.errno, exc.strerror))
            for _ in laws:  # drain to the end marker, unless it came already
                pass
        else:
            conn.send(None)
    except (EOFError, OSError):
        pass  # the parent stopped early, and raises its own error


def _answer(conn) -> None:
    """Read one answer of the writer; raise its write error."""
    status = conn.recv()
    if status is not None:
        raise OSError(*status)


def _feed_writer(conn, items) -> None:
    """Send each (n, masses) in `items` to the writer, then the end marker,
    and read all the writer's answers.  While two laws sent are unanswered,
    format the next one here and send its text."""
    unanswered = 0
    for item in items:
        while unanswered and conn.poll():
            _answer(conn)
            unanswered -= 1
        if unanswered == 2:  # the writer is behind
            item = _law_text(*item)
            _answer(conn)
            unanswered -= 1
        conn.send(item)
        unanswered += 1
    conn.send(None)
    for _ in range(unanswered + 1):
        _answer(conn)


def dump_law_csv(laws, path: str | Path, boundaries: set[int] | None = None):
    """Write (n, s, mass) rows for every law of S_n, or only for those whose
    n is in `boundaries`, leaving out zero masses; rational masses go out as
    floats.  The bytes are those of `dump_csv` on the same rows, but each
    law's rows are formatted by one `%` over its nonzero entries.

    For float laws, with fork and more than one usable CPU, a forked writer
    formats and writes while the caller goes on producing laws (see the
    module notes)."""
    with open(path, "w", newline="") as fp:
        laws = iter(laws)
        first = next(laws, None)
        items = _selected_laws(laws if first is None else itertools.chain([first], laws),
                               boundaries)
        # exact laws, at most 65 of at most 65 entries, cannot pay for a fork
        if first is None or isinstance(first.mass, list) or usable_cpus() < 2:
            return _write_laws(fp, items)
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            return _write_laws(fp, items)
        ctx = multiprocessing.get_context("fork")
        ours, theirs = ctx.Pipe()
        writer = ctx.Process(target=_law_writer, args=(fp, theirs, ours))
        writer.start()
        theirs.close()  # else the writer dying is no EOF here
        try:
            _feed_writer(ours, items)
        except EOFError:
            raise OSError("the law writer exited without a status") from None
        finally:
            ours.close()
            writer.join()
