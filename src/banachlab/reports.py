"""Canonical machine-readable reports.

Identical runs must produce byte-identical files, so serialization is
fully deterministic: keys sorted, floats printed at 17 significant digits
(round-trip exact for float64), no volatile fields (timings go to stderr,
never into the payload).
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any

import numpy as np

from . import __version__
from .core_model import Enclosure, Measure, PLFunction, function_to_dict, measure_to_dict


def _dump(obj: Any, out: list[str]) -> None:
    """Append obj's canonical JSON text to out, in one walk: Enclosure,
    PLFunction and Measure as their dicts, arrays as their lists, tuples as
    lists, dict keys str()'d and sorted, numpy scalars as Python's, non-finite
    floats as the strings "nan", "inf" and "-inf", and anything else as its
    str()."""
    if isinstance(obj, Enclosure):
        _dump({"lo": obj.lo, "hi": obj.hi}, out)
    elif isinstance(obj, PLFunction):
        _dump(function_to_dict(obj), out)
    elif isinstance(obj, Measure):
        _dump(measure_to_dict(obj), out)
    elif isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        out.append("{")
        for i, k in enumerate(sorted(items)):
            if i:
                out.append(",")
            _dump(k, out)
            out.append(":")
            _dump(items[k], out)
        out.append("}")
    elif isinstance(obj, np.ndarray):
        _dump(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        if all(type(v) is float and math.isfinite(v) for v in obj):
            # the bytes of the per-item path below, without its recursion
            out.append("[" + ",".join(map("{:.17g}".format, obj)) + "]")
            return
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _dump(v, out)
        out.append("]")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)  # numpy 2's repr of np.float64(inf) names its type
        out.append(format(x, ".17g") if math.isfinite(x) else '"' + repr(x) + '"')
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    else:
        _dump(str(obj), out)


def canonical_json(obj: Any) -> str:
    out: list[str] = []
    _dump(obj, out)
    return "".join(out)


def build_report(subcommand: str, config: dict, results: Any) -> dict:
    return {
        "subcommand": subcommand,
        "config": config,
        "results": results,
        "version": __version__,
    }


def rows_to_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for c in row:
            if isinstance(c, float):
                cells.append(format(c, ".17g"))
            else:
                cells.append(str(c))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def emit_report(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text + ("" if text.endswith("\n") else "\n"))
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
