"""mnlmix benchmark: one workload, one process, a closed loop with one caller.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload identify-n4 --seed 1 --seconds 20 --trace 0

With --trace 0 the benchmark sets up several times (import, input generation,
model-file writing, warm-up) and reports the median as setup_s, then calls the
library once per operation for --seconds seconds, checking every output, and
prints the end-to-end metrics. Times are the process's CPU time, so that
time other tenants of a shared host take from it does not count, scaled to a
reference machine speed by a fixed loop run next to every operation
(reference_kernel_ms); the raw wall-clock values are printed beside them.
With --trace 1 it runs each operation of the workload's fixed traced list
twice, untraced and with span wrappers installed, and prints the per-layer
metrics and the tracing overhead, and writes the spans to
.perfbench/spans-<workload>-seed<seed>.csv.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The library is imported from src/ of the
checkout; without it the benchmark exits with code 2 and prints no result.
See README.md in this directory for workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time, process_time_ns
from types import SimpleNamespace

from tracing import Tracer, per_layer_metrics, wrapper_cost_ns
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
LAYERS = ("model", "polynomials", "systems", "identify", "learn", "cli")
SETUP_REPEATS = 7
# Operation CPU times are scaled to the machine speed at which one unit of
# reference_kernel takes REF_UNIT_MS, the median kernel_unit_ms of sixteen
# calibration runs made before the baseline; see README.md.
REF_UNIT_MS = 0.48
KERNEL_UNIT_STEPS = 1500
SETUP_KERNEL_UNITS = 40
MAX_REPORTED_ERRORS = 3


class LibraryMissing(RuntimeError):
    """The checkout holds no importable mnlmix package under src/."""


def import_library():
    """Fresh import of every mnlmix module from the checkout's src/."""
    src = ROOT / "src"
    if not (src / "mnlmix" / "__init__.py").is_file():
        raise LibraryMissing(f"no mnlmix package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "mnlmix" or m.startswith("mnlmix.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"mnlmix.{name}") for name in LAYERS + ("experiments",)}
    if not Path(mods["model"].__file__).resolve().is_relative_to(src.resolve()):
        raise LibraryMissing(f"mnlmix imported from {mods['model'].__file__}, not {src}")
    return SimpleNamespace(**mods)


def set_up(cls, seed: int, workdir: str, tally):
    """Import, generate the input pool, write model files and warm up.

    Warm-up operations are checked and counted in `tally` like timed ones.
    """
    lib = import_library()
    wl = cls(lib, seed, workdir)
    for i in range(max(cls.pool, cls.warmup)):
        wl.input(i)
    for i in range(cls.warmup):
        tally.record(wl, wl.input(i), wl.run)
    return lib, wl


def _kernel_step(x, y):
    return x * 1.0000001 + y


def reference_kernel_ms(units: int) -> float:
    """CPU time of a fixed pure-Python loop, the machine-speed reference.

    It allocates no objects the garbage collector tracks, so it neither
    triggers nor absorbs collections caused by the library.
    """
    t0 = process_time_ns()
    acc = 0.0
    n = 0
    for i in range(units * KERNEL_UNIT_STEPS):
        acc = _kernel_step(acc, i & 255) % 1e6
        n = (n * 31 + i) % 1000003
    return (process_time_ns() - t0) / 1e6


class Tally:
    """Attempted/failed/verdict counts over the operations of a run."""

    def __init__(self):
        self.attempted = self.failed = self.verdict_ok = self.success = 0
        self.errors_shown = 0

    def record(self, wl, inp, fn):
        """Run one operation through fn; return (output, cpu_ns, wall_ns).

        The output is None when the operation raised.
        """
        self.attempted += 1
        t0, c0 = perf_counter_ns(), process_time_ns()
        try:
            out = fn(inp)
        except Exception:
            cpu_ns, ns = process_time_ns() - c0, perf_counter_ns() - t0
            self.failed += 1
            if self.errors_shown < MAX_REPORTED_ERRORS:
                self.errors_shown += 1
                traceback.print_exc(file=sys.stderr)
            return None, cpu_ns, ns
        cpu_ns, ns = process_time_ns() - c0, perf_counter_ns() - t0
        outcome = wl.check(inp, out)
        if not outcome.ok:
            self.failed += 1
            if self.errors_shown < MAX_REPORTED_ERRORS:
                self.errors_shown += 1
                sys.stderr.write(f"output check failed on {wl.name} input {inp!r}\n")
        self.verdict_ok += outcome.verdict_ok
        self.success += outcome.success
        return out, cpu_ns, ns


def percentile(sorted_values: list, pct: float) -> tuple:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def measure(cls, seed: int, seconds: int, workdir: str) -> tuple:
    setups = []
    raw_setups = []
    kernel_unit_ms = []
    for _ in range(SETUP_REPEATS):
        # the set-ups repeat the same work; the last one's warm-up is counted
        tally = Tally()
        t0, c0 = perf_counter(), process_time()
        lib, wl = set_up(cls, seed, workdir, tally)
        cpu_s = process_time() - c0
        raw_setups.append(perf_counter() - t0)
        kernel = reference_kernel_ms(SETUP_KERNEL_UNITS)
        kernel_unit_ms.append(kernel / SETUP_KERNEL_UNITS)
        setups.append(cpu_s * REF_UNIT_MS * SETUP_KERNEL_UNITS / kernel)
    gc.collect()

    latencies = []
    raw = []
    i = cls.warmup
    before = reference_kernel_ms(cls.kernel_units)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        out, cpu_ns, ns = tally.record(wl, wl.input(i), wl.run)
        after = reference_kernel_ms(cls.kernel_units)
        kernel_unit_ms.append(after / cls.kernel_units)
        if out is not None:
            raw.append(ns / 1e6)
            speed = REF_UNIT_MS * cls.kernel_units / ((before + after) / 2)
            latencies.append(cpu_ns / 1e6 * speed)
        before = after
        wl.release(i)
        i += 1

    notes = {
        "setup_s": (
            "median of " + ", ".join(f"{s:.4f}" for s in setups)
            + "; raw wall clock " + ", ".join(f"{s:.4f}" for s in raw_setups)
        ),
    }
    if latencies:
        latencies.sort()
        tail, beyond = percentile(latencies, cls.tail_pct)
        timing = (1e3 / statistics.fmean(latencies), statistics.median(latencies), tail)
        notes |= {
            "ops_per_s": f"raw wall clock {1e3 / statistics.fmean(raw):.4g}",
            "latency_p50_ms": f"raw wall clock {statistics.median(raw):.4g}",
            "latency_tail_ms": (
                f"p{cls.tail_pct:g}, {beyond} of {len(latencies)} samples beyond it; "
                f"raw wall clock {percentile(sorted(raw), cls.tail_pct)[0]:.4g}"
            ),
        }
    else:
        # no operation completed, so there is nothing to time
        timing = (None, None, None)
    metrics = {
        "ops_per_s": (timing[0], "1/s"),
        "latency_p50_ms": (timing[1], "ms"),
        "latency_tail_ms": (timing[2], "ms"),
        "failed_share": (tally.failed / tally.attempted, "ratio"),
        "verdict_ok_share": (tally.verdict_ok / tally.attempted, "ratio"),
        "success_rate": (tally.success / tally.attempted, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics, notes, statistics.median(kernel_unit_ms)


def measure_traced(cls, seed: int, workdir: str) -> tuple:
    tally = Tally()
    lib, wl = set_up(cls, seed, workdir, tally)
    ops = [wl.input(cls.warmup + k) for k in range(cls.trace_ops)]
    tracer = Tracer()
    modules = {layer: getattr(lib, layer) for layer in LAYERS}
    # each operation runs untraced and traced back to back, in alternating
    # order, so that machine-speed phases and warm caches hit both sides of
    # the overhead alike
    untraced_ns = traced_ns = 0
    gc.collect()
    for k, inp in enumerate(ops):
        for traced in (False, True) if k % 2 == 0 else (True, False):
            if not traced:
                untraced_ns += tally.record(wl, inp, wl.run)[1]
                continue
            with tracer.installed(modules):
                traced_ns += tally.record(wl, inp, lambda x: tracer.run_op(k, wl.run, x))[1]

    metrics = per_layer_metrics(tracer, len(ops))
    overhead = traced_ns / untraced_ns - 1 if untraced_ns else None
    metrics["trace.overhead_share"] = (overhead, "ratio")
    notes = {
        "trace.overhead_share": (
            f"traced {traced_ns / 1e9:.3f} s vs untraced {untraced_ns / 1e9:.3f} s of CPU time "
            f"over the same {len(ops)} ops; {len(tracer.names)} spans at about "
            f"{wrapper_cost_ns():.0f} ns each"
        )
    }
    return tally, metrics, notes, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    cls = WORKLOADS[args.workload]

    try:
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="work-", dir=ROOT / ".perfbench") as workdir:
            env = environment(args.workload, args.seed)
            if args.trace:
                tally, metrics, notes, tracer = measure_traced(cls, args.seed, workdir)
                spans_path = ROOT / ".perfbench" / f"spans-{cls.name}-seed{args.seed}.csv"
                tracer.write_spans(spans_path)
            else:
                tally, metrics, notes, env["kernel_unit_ms"] = measure(cls, args.seed, args.seconds, workdir)
    except LibraryMissing as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    print("# env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value!r} {unit}{note}")
    print(f"# attempted {tally.attempted}, failed {tally.failed}")

    reported = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
