"""In-memory span tracing of banachlab's public functions, from outside.

The benchmark never edits the program.  `Tracer.install` replaces each
traced function with a wrapper in every namespace that holds it: the
defining module, every other `banachlab` module that bound it with
`from .x import f`, and any extra namespace the caller passes (the
benchmark's own workload module).  Methods are replaced on their class.
`Tracer.uninstall` puts every original back.

A span is `[name, start, end, parent index, counters]`.  Spans stay in
memory; `aggregate` folds one pass of them into calls, inclusive seconds
and self seconds (inclusive minus the time covered by traced children),
plus the exact work counters derived from arguments or return values.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

CLI_SUBCOMMANDS = (
    "norm", "seminorms", "dual-norm", "slice-witness", "diam", "combo-diam",
    "subslice", "mlur-cert", "mlur-modulus", "octa-local", "octa-gap",
    "rigidity", "op-check", "c0-control", "nested",
)


def _rows(a, k, r):
    return {"rows": int(np.atleast_2d(a[1]).shape[0])}


def _dispatch_name(argv) -> str:
    sub = next((a for a in argv if a in CLI_SUBCOMMANDS), "unknown")
    if sub == "nested" and "--op" in argv:
        sub += "." + argv[argv.index("--op") + 1]
    return "cli.dispatch." + sub


#: (module, attribute path, counters(args, kwargs, result) -> dict).
#: Counters are exact counts taken from argument shapes or return values,
#: so they repeat exactly from run to run.
TRACED = (
    ("banachlab._kernels", "sup_abs_many",
     lambda a, k, r: {"intervals": int(np.shape(a[2])[0])}),
    ("banachlab._kernels", "range_abs_max",
     lambda a, k, r: {"cells": int(np.shape(a[0])[0] * np.shape(a[0])[1])}),
    ("banachlab.core_model", "integrate", None),
    ("banachlab.core_model", "lin_comb", None),
    ("banachlab.core_model", "abs_integral", None),
    ("banachlab.neighborhood_base", "NeighborhoodBase.weight", None),
    ("banachlab.neighborhood_base", "build_leveled", None),
    ("banachlab.d_norm", "d_norm", None),
    ("banachlab.d_norm", "dual_norm", None),
    ("banachlab.d_norm", "weighted_tv_upper", None),
    ("banachlab.d_norm", "DNormContext.weight_cells", None),
    ("banachlab.d_norm", "DNormContext.min_weight", None),
    ("banachlab.gridsearch", "GridContext.__init__", None),
    ("banachlab.gridsearch", "GridContext.functional_coeffs", None),
    ("banachlab.gridsearch", "GridContext.enclosures", _rows),
    ("banachlab.gridsearch", "GridContext.rescale_to_ball", _rows),
    ("banachlab.gridsearch", "maximize_linear_functional", None),
    ("banachlab.slice_lab", "tent_flip_witness", None),
    ("banachlab.slice_lab", "WitnessCertificate.verify", None),
    ("banachlab.slice_lab", "diameter_lower_bound", None),
    ("banachlab.slice_lab", "subslice", None),
    ("banachlab.slice_lab", "small_diameter_combo", None),
    ("banachlab.rotundity_lab", "mlur_certificate", None),
    ("banachlab.rotundity_lab", "mlur_adversarial_search",
     lambda a, k, r: {"scanned": int(r["scanned"]),
                      "survivors": int(r["survivors_full_checked"])}),
    ("banachlab.operator_lab", "ld2p_plus_projection_check", None),
    ("banachlab.nested_sum_space", "nested_norm", None),
    ("banachlab.nested_sum_space", "large_slice_check",
     lambda a, k, r: {"members": int(r["members"])}),
    ("banachlab.reports", "canonical_json", None),
    ("banachlab.reports", "emit_report", None),
    ("banachlab.cli", "dispatch", None),
)


def span_name(module: str, path: str) -> str:
    """Metric prefix of a traced function: `_kernels` reads `kernels` (a
    metric name must start with a letter) and `__init__` reads `init`."""
    mod = module.removeprefix("banachlab.").lstrip("_")
    return f"{mod}.{path.replace('__init__', 'init')}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self, extra_namespaces=()) -> None:
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "banachlab" or n.startswith("banachlab.")]
        namespaces.extend(extra_namespaces)
        for module, path, counters in TRACED:
            owner = importlib.import_module(module)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            if path == "dispatch":
                wrapper = self._wrap(original, _dispatch_name, counters)
            else:
                wrapper = self._wrap(original, span_name(module, path), counters)
            self._replace(owner, attr, original, wrapper)
            if not cls_path:
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is original:
                            self._replace(ns, name, original, wrapper)

    def _replace(self, owner, attr, original, wrapper) -> None:
        if getattr(owner, attr) is wrapper:
            return
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, counters):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name(args[0]) if callable(name) else name, 0.0, 0.0,
                   stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counters is not None:
                rec[4] = counters(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # -- results ---------------------------------------------------------

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-name `calls`, `s` (inclusive) and `self_s`, plus summed counters,
    for one pass of spans.  Keys read `<name>.<field>`."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, counters) in enumerate(spans):
        out[name + ".calls"] += 1
        out[name + ".s"] += end - start
        out[name + ".self_s"] += end - start - child_time[i]
        for key, value in (counters or {}).items():
            out[f"{name}.{key}"] += value
    return dict(out)
