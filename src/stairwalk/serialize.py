"""Shared JSON/CSV emission helpers.

CSV cells carry reals formatted with 17 significant digits; JSON uses native
floats, whose text form round-trips to the exact same double.  Fractions are
encoded as "p/q" strings in both.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import numpy as np


def fmt_real(x) -> str:
    """A real as text with 17 significant digits (Fractions stay exact)."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def jsonable(obj):
    """Recursively reduce package objects to JSON-encodable structures."""
    if hasattr(obj, "to_jsonable"):
        return jsonable(obj.to_jsonable())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(dataclasses.asdict(obj))
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dump_json(obj, path: str | Path | None) -> str:
    text = json.dumps(jsonable(obj), indent=2)
    if path is not None:
        Path(path).write_text(text + "\n")
    return text


def dump_csv(rows, path: str | Path):
    """Write an iterable of row tuples; reals go out with 17 digits."""
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp)
        for row in rows:
            writer.writerow([fmt_real(v) for v in row])


def dump_law_csv(laws, path: str | Path, boundaries: set[int] | None = None):
    """Write (n, s, mass) rows for every law of S_n, or only for those whose
    n is in `boundaries`, leaving out zero masses; rational masses go out as
    floats.  The bytes are those of `dump_csv` on the same rows, but each
    law's rows are formatted in one join over its nonzero entries."""
    with open(path, "w", newline="") as fp:
        fp.write("n,s,mass\r\n")
        for law in laws:
            if boundaries is not None and law.n not in boundaries:
                continue
            mass = np.asarray(law.mass, dtype=np.float64)
            support = np.flatnonzero(mass)
            fp.write("".join([f"{law.n},{s},{m:.17g}\r\n"
                              for s, m in zip(support.tolist(), mass[support].tolist())]))
