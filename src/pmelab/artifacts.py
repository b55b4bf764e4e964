"""The JSON and CSV formats of every artifact the lab writes.

JSON artifacts hold plain JSON types only: a non-finite float is written as
the string ``"nan"``, ``"inf"`` or ``"-inf"``, keys are sorted and the file
ends in a newline.  CSV floats are written with ``%.17g``, so they read back
exactly.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass

import numpy as np


def jsonable(obj):
    """``obj`` in plain JSON types.

    A dataclass becomes a dict with one entry per field; dicts, lists,
    tuples, numpy arrays and numpy scalars are converted recursively, and
    non-finite floats become ``"nan"``, ``"inf"`` or ``"-inf"``.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0.0 else "-inf"
    return obj


def write_json(path, obj) -> None:
    """Write :func:`jsonable` of ``obj`` indented by 2, with sorted keys."""
    import json  # only writing an artifact needs it, not ``import pmelab``

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """Write a header line and one line per row: floats as ``%.17g``, the rest by ``str``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("%.17g" % v if isinstance(v, float) else str(v) for v in row) + "\n")
