"""Canonical machine-readable reports.

Identical runs must produce byte-identical files, so serialization is
fully deterministic: keys sorted, floats printed at 17 significant digits
(round-trip exact for float64), no volatile fields (timings go to stderr,
never into the payload).
"""

from __future__ import annotations

import json
import sys
from typing import Any

import numpy as np

from .core_model import Enclosure, Measure, PLFunction, function_to_dict, measure_to_dict

VERSION = "0.1.0"


def _convert(obj: Any) -> Any:
    if isinstance(obj, Enclosure):
        return {"lo": obj.lo, "hi": obj.hi}
    if isinstance(obj, PLFunction):
        return function_to_dict(obj)
    if isinstance(obj, Measure):
        return measure_to_dict(obj)
    if isinstance(obj, dict):
        return {str(k): _convert(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_convert(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_convert(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    return str(obj)


def _dump(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            out.append('"' + repr(obj) + '"')
        else:
            out.append(format(obj, ".17g"))
    elif isinstance(obj, dict):
        out.append("{")
        for i, k in enumerate(sorted(obj)):
            if i:
                out.append(",")
            _dump(k, out)
            out.append(":")
            _dump(obj[k], out)
        out.append("}")
    elif isinstance(obj, list):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _dump(v, out)
        out.append("]")
    else:  # pragma: no cover - _convert normalizes everything above
        _dump(str(obj), out)


def canonical_json(obj: Any) -> str:
    out: list[str] = []
    _dump(_convert(obj), out)
    return "".join(out)


def build_report(subcommand: str, config: dict, results: Any) -> dict:
    return {
        "subcommand": subcommand,
        "config": config,
        "results": results,
        "version": VERSION,
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
