#!/usr/bin/env python3
"""banachlab benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload dual-bracket --seed 3 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` the run times the workload's task passes untraced and
prints every end-to-end metric of BENCHMARK.json.  With `--trace 1` it
runs untraced passes for half the time, then traced passes, and prints
every per-layer metric (per pass) with the tracing overhead.  The last
line of stdout is the JSON result; the lines above it are for people.
See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys

# one caller, one process: keep BLAS to one thread (set before numpy loads)
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NoReturn  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 5
#: every timed metric comes from at least this many passes
MIN_PASSES = 5
#: a task's latency is this quantile of its latencies over the passes
TASK_Q = 0.75
#: task_tail_norm_ms is this quantile over the tasks
TAIL_Q = 0.9
#: reference-kernel samples taken before each task
REF_SAMPLES = 3


def fail(msg: str) -> NoReturn:
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import banachlab.cli; print(time.perf_counter() - t0)")


def import_program() -> list[float]:
    """Import banachlab from this checkout's src/.  Returns import times:
    this process's, then those of fresh interpreters, so set-up time can
    report a median like the other set-up steps."""
    pkg = ROOT / "src" / "banachlab"
    if not (pkg / "__init__.py").is_file():
        fail(f"no program at {pkg}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import banachlab.cli  # noqa: F401  (pulls in every module)
    times = [time.perf_counter() - t0]
    import banachlab

    if Path(banachlab.__file__).resolve().parent != pkg.resolve():
        fail(f"imported banachlab from {banachlab.__file__}, not from {pkg}")
    for _ in range(SETUP_REPS - 1):
        res = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src")],
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(res.stdout))
    return times


# ---------------------------------------------------------------------------
# running passes
# ---------------------------------------------------------------------------

class Pass:
    """One pass over the task list: latencies, digests, failures, and
    REF_SAMPLES latencies of the reference kernel (`probe`, untimed)
    before each task."""

    def __init__(self, tasks, canonical_json, keep_payloads: bool, probe=None):
        self.latency: list[float] = []
        self.ref: list[float] = []
        self.digests: dict[str, str] = {}
        self.payloads: dict[str, dict] = {}
        self.problems: dict[str, list[str]] = {}
        for task in tasks:
            if probe is not None:
                self.ref.extend(probe() for _ in range(REF_SAMPLES))
            t0 = time.perf_counter()
            try:
                raw = task.run()
            except Exception as exc:  # a failed task is counted, not fatal
                self.latency.append(time.perf_counter() - t0)
                self.problems[task.name] = [f"raised {type(exc).__name__}: {exc}"]
                continue
            self.latency.append(time.perf_counter() - t0)
            try:
                payload = task.finish(raw)
                self.digests[task.name] = hashlib.sha256(
                    canonical_json(payload).encode()).hexdigest()[:16]
                bad = task.check(payload)
            except Exception as exc:
                bad = [f"check raised {type(exc).__name__}: {exc}"]
                payload = None
            if bad:
                self.problems[task.name] = bad
            if keep_payloads and payload is not None:
                self.payloads[task.name] = payload
        self.wall = sum(self.latency)


def run_passes(tasks, canonical_json, seconds: float, min_passes: int, on_pass=None):
    """Closed loop: passes back to back; start another only while it is
    expected to end within `seconds`, and always run `min_passes`."""
    import reference

    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(Pass(tasks, canonical_json, keep_payloads=not passes,
                           probe=reference.sample))
        if on_pass is not None:
            on_pass(passes[-1])
        elapsed = time.perf_counter() - t_start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def task_latencies(passes) -> list[float]:
    """Each task's latency: the TASK_Q quantile of its latencies over the
    passes.  Every input is fixed, so every pass does the same work, and
    only the host's speed moves a task's latency.  A small shared host
    runs slow for most of a run and fast for brief stretches whose share
    changes from minute to minute, so the fastest pass or the median pass
    of a task jumps between the two speeds from run to run.  An upper
    quantile stays on the slow speed, which every run reaches."""
    import numpy as np

    return [float(np.percentile(col, 100.0 * TASK_Q))
            for col in zip(*(p.latency for p in passes))]


def host_scale(passes) -> float:
    """The factor that takes these passes' latencies to the reference
    kernel's nominal speed: NOMINAL_S over the same quantile of the
    reference latencies sampled between their tasks (see reference.py)."""
    import numpy as np
    import reference

    ref = [x for p in passes for x in p.ref]
    return reference.NOMINAL_S / float(np.percentile(ref, 100.0 * TASK_Q))


def count_failures(passes) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages).  A task also fails when a later pass
    gives a different output than the first: every input is fixed."""
    first = passes[0].digests
    attempted = failed = 0
    messages = []
    for k, p in enumerate(passes):
        for name in first.keys() | p.digests.keys() | p.problems.keys():
            attempted += name in p.digests or name in p.problems
            bad = list(p.problems.get(name, []))
            if k and name in p.digests and p.digests[name] != first.get(name):
                bad.append("output differs from the first pass")
            if bad:
                failed += 1
                messages.append(f"pass {k + 1} {name}: {'; '.join(bad)}")
    return attempted, failed, messages


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------

def env_stamp() -> dict:
    import numpy as np
    from banachlab import _kernels

    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or commit
    src = hashlib.sha256()
    for f in sorted((ROOT / "src" / "banachlab").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "backend": _kernels.backend_name(),
        "has_numba": _kernels.HAS_NUMBA,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def untraced_run(tasks, seed, seconds, canonical_json, workloads):
    import numpy as np
    import reference

    passes = run_passes(tasks, canonical_json, seconds, MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, messages = count_failures(passes)

    # quality panel: reuse the loop's own outputs, run the rest untimed
    quality = workloads.quality_tasks(seed)
    payloads = {t.name: passes[0].payloads[t.name] for t in quality
                if t.name in passes[0].payloads}
    missing = [t for t in quality if t.name not in payloads]
    panel = Pass(missing, canonical_json, keep_payloads=True)
    attempted += len(missing)
    failed += len(panel.problems)
    messages += [f"quality {n}: {'; '.join(b)}" for n, b in panel.problems.items()]
    payloads.update(panel.payloads)

    raw_ms = [1e3 * x for x in task_latencies(passes)]
    scale = host_scale(passes)
    task_ms = [scale * x for x in raw_ms]
    tail = float(np.percentile(task_ms, 100.0 * TAIL_Q))
    metrics = {
        "wall_norm_s": 1e-3 * sum(task_ms),
        "task_p50_norm_ms": statistics.median(task_ms),
        "task_tail_norm_ms": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    try:
        metrics.update(workloads.quality_metrics(payloads))
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        messages.append(f"quality metrics: {type(exc).__name__}: {exc}")
    notes = [
        f"passes: {len(passes)} (at least {MIN_PASSES}), {len(tasks)} tasks each, "
        f"pass wall s: {', '.join(f'{p.wall:.3f}' for p in passes)}",
        f"a task's latency is the p{round(100 * TASK_Q)} of its {len(passes)} passes; "
        f"task_tail_norm_ms is the p{round(100 * TAIL_Q)} of the {len(task_ms)} tasks' "
        f"latencies ({sum(x > tail for x in task_ms)} tasks beyond it)",
        f"host scale: {scale:.4f} (reference p{round(100 * TASK_Q)} "
        f"{1e3 * reference.NOMINAL_S / scale:.4f} ms over "
        f"{sum(len(p.ref) for p in passes)} samples); before it, wall_s "
        f"{1e-3 * sum(raw_ms):.4f}, task_p50_ms {statistics.median(raw_ms):.4f}, "
        f"task_tail_ms {float(np.percentile(raw_ms, 100.0 * TAIL_Q)):.4f}",
        f"check.fail_frac: {failed / attempted:.6g} ({failed} of {attempted}; "
        f"{len(missing)} quality-panel tasks run untimed)",
    ]
    return passes, metrics, attempted, failed, messages, notes


def traced_run(tasks, seconds, canonical_json, workloads):
    import numpy as np
    import tracing

    untraced = run_passes(tasks, canonical_json, seconds / 2.0, 1)
    tracer = tracing.Tracer()
    per_pass: list[dict] = []
    first_spans: list[list] = []

    def collect(_):
        spans = tracer.take()
        if not first_spans:
            first_spans.extend(spans)
        per_pass.append(tracing.aggregate(spans))

    tracer.install([workloads])
    try:
        traced = run_passes(tasks, canonical_json, seconds / 2.0, 1, on_pass=collect)
    finally:
        tracer.uninstall()

    keys = set().union(*per_pass)
    m = {k: float(np.median([p.get(k, 0.0) for p in per_pass])) for k in keys}
    cells = m.get("kernels.range_abs_max.cells", 0.0)
    m["kernels.range_abs_max.bytes_computed"] = 8.0 * cells
    enc_calls = m.get("gridsearch.GridContext.enclosures.calls", 0.0)
    m["gridsearch.rows_per_call"] = (
        m.get("gridsearch.GridContext.enclosures.rows", 0.0) / enc_calls if enc_calls else 0.0)
    scanned = m.get("rotundity_lab.mlur_adversarial_search.scanned", 0.0)
    m["rotundity_lab.survivor_ratio"] = (
        m.get("rotundity_lab.mlur_adversarial_search.survivors", 0.0) / scanned
        if scanned else 0.0)
    m["trace.overhead_s"] = (sum(task_latencies(traced)) * host_scale(traced)
                             - sum(task_latencies(untraced)) * host_scale(untraced))

    attempted, failed, messages = count_failures(untraced + traced)
    changed = sorted(n for n in untraced[0].digests.keys() | traced[0].digests.keys()
                     if untraced[0].digests.get(n) != traced[0].digests.get(n))
    failed += len(changed)
    messages += [f"traced output differs from untraced: {n}" for n in changed]
    notes = [
        f"passes: {len(untraced)} untraced, {len(traced)} traced; per-layer values "
        f"are medians over traced passes, per pass",
        f"check.trace_digests_equal: {not changed} ({len(traced[0].digests)} tasks)",
    ]
    return untraced + traced, m, attempted, failed, messages, notes, first_spans


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main() -> None:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail(f"{spec_path} is missing")
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--store-digests", action="store_true",
                    help="record this run's output digests as the expected ones")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    import_times = import_program()
    sys.path.insert(0, str(HERE))
    from banachlab.reports import canonical_json  # bound before any tracing

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    env = env_stamp()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        tasks = None
        for _ in range(SETUP_REPS):
            del tasks  # free the last build first, so peak memory holds one
            gc.collect()
            t0 = time.perf_counter()
            tasks = wl.setup(args.seed, str(workdir))
            setup_times.append(time.perf_counter() - t0)
        setup_s = statistics.median(import_times) + statistics.median(setup_times)

        spans = []
        if args.trace:
            passes, values, attempted, failed, messages, notes, spans = traced_run(
                tasks, args.seconds, canonical_json, workloads)
            declared = spec["per_layer"]
        else:
            passes, values, attempted, failed, messages, notes = untraced_run(
                tasks, args.seed, args.seconds, canonical_json, workloads)
            values["setup_s"] = setup_s
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digests = passes[0].digests
    stored_path = HERE / "digests.json"
    stored_all = json.loads(stored_path.read_text()) if stored_path.is_file() else {}
    stored = stored_all.get(args.workload, {}).get(str(args.seed))
    if stored is None:
        changed_note = f"n/a (no stored digests for seed {args.seed})"
    else:
        changed = sum(stored.get(n) != d for n, d in digests.items())
        changed += len(stored.keys() - digests.keys())
        changed_note = f"{changed} of {len(stored)} tasks"
    if args.store_digests:
        stored_all.setdefault(args.workload, {})[str(args.seed)] = dict(sorted(digests.items()))
        stored_path.write_text(json.dumps(stored_all, indent=1, sort_keys=True) + "\n")

    correct = failed == 0
    metrics = {}
    for m in declared:
        if args.trace:  # a layer this workload never calls did no work
            values.setdefault(m["name"], 0.0)
        if m["name"] not in values:
            correct = False
            messages.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("why: " + next(w["why"] for w in spec["workloads"] if w["name"] == wl.name))
    print("env: " + json.dumps(env, sort_keys=True))
    print("setup: imports " + ", ".join(f"{t:.4f}" for t in import_times)
          + " s; builds " + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
    for line in notes:
        print(line)
    print(f"check.outputs_changed: {changed_note}")
    for msg in messages:
        print(f"FAILED {msg}")
    rows = [(m["name"], metrics[m["name"]]["value"], m["unit"], m["better"])
            for m in declared if m["name"] in metrics]
    if not args.trace:  # printed only: a metric that is 0 when correct cannot carry a bound
        rows.append(("fail_frac", failed / attempted, "ratio", "lower"))
    for name, value, unit, better in rows:
        print(f"  {name:<56} {value:>16.6g} {unit:<6} ({better} is better)")

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "correct": correct,
              "attempted": attempted, "failed": failed, "metrics": metrics,
              "pass_walls": [p.wall for p in passes],
              "latency": [p.latency for p in passes], "ref": [p.ref for p in passes],
              "digests": digests,
              "failures": messages}
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    if spans:
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w",
                  encoding="utf-8") as fh:
            for span in spans:  # [name, start, end, parent index, counters]
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
