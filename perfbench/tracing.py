"""Span and count tracing around the public functions of each mnlmix layer.

The library carries no instrumentation of its own, so tracing happens from
outside: every boundary function listed in ``BOUNDARY`` is replaced by a
wrapper in each module namespace that holds it. Modules import names directly
(``from .systems import pair_quartic``), so the wrapper has to go into the
consumer's namespace, not only into the defining module. ``Tracer.installed``
restores the original objects on exit.

Each wrapped call records one span: name, start, end, parent span and
operation id. Spans stay in memory; ``write_spans`` dumps them at the end of
a run. A span's self time is its duration minus the durations of its child
spans (calls are strictly nested in one thread, so children never overlap).
"""

from __future__ import annotations

import contextlib
import functools
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

# layer -> public functions timed at their call sites
BOUNDARY = {
    "model": ("all_slates", "oracle_table", "sample_empirical", "load_model", "slate_distribution"),
    "polynomials": ("solve_all_roots", "interpolate", "sylvester_resultant", "deflate_root"),
    "systems": (
        "pair_system",
        "pair_quartic",
        "pair_slate_quartic",
        "partner_value",
        "pair_system_residual",
        "degenerate_partner_quadratic",
        "back_substitute",
        "resultant_gate",
    ),
    "identify": ("check_identifiability", "enumerate_candidates", "solve_pair_system"),
    "learn": ("learn_from_samples",),
    "cli": ("main",),
}

OP = "op"


def _observe_all_slates(tracer, args, result):
    tracer.counts["model.all_slates.slates_built"] += len(result)


def _observe_interpolate(tracer, args, result):
    xs = args[0]
    if xs and isinstance(xs[0], Fraction):
        tracer.counts["polynomials.interpolate.exact_calls"] += 1


def _observe_pair_quartic(tracer, args, result):
    tracer.pair_quartic_inputs.add((tracer.op_id, args[0]))


def _observe_solve_pair_system(tracer, args, result):
    tracer.counts["identify.solve_pair_system.solutions"] += len(result)


def _observe_learn(tracer, args, result):
    tracer.counts["learn.queries"] += result.queries_used
    tracer.counts["learn.samples"] += result.samples_used


OBSERVERS = {
    "model.all_slates": _observe_all_slates,
    "polynomials.interpolate": _observe_interpolate,
    "systems.pair_quartic": _observe_pair_quartic,
    "identify.solve_pair_system": _observe_solve_pair_system,
    "learn.learn_from_samples": _observe_learn,
}


class Tracer:
    """In-memory span log plus counters taken at the same boundaries."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.ops: list = []
        self.counts: Counter = Counter()
        self.pair_quartic_inputs: set = set()
        self.op_id = -1
        self._stack: list = []

    def _enter(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op_id)
        self.starts.append(0)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts[idx] = perf_counter_ns()
        return idx

    def _exit(self, idx: int) -> None:
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                self._exit(idx)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as operation op_id under a root span named OP."""
        self.op_id = op_id
        idx = self._enter(OP)
        try:
            return fn(*args)
        finally:
            self._exit(idx)

    @contextlib.contextmanager
    def installed(self, modules):
        """Swap every boundary function for its traced wrapper in `modules`.

        `modules` maps layer name to module object. Each boundary function is
        found by identity in every module's namespace, which covers both the
        defining module and every module that imported the name.
        """
        wrappers = {}
        for layer, names in BOUNDARY.items():
            for fname in names:
                fn = getattr(modules[layer], fname)
                wrappers[id(fn)] = (fn, self.wrap(f"{layer}.{fname}", fn))
        patched = []
        try:
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        patched.append((mod, attr, value))
                        setattr(mod, attr, hit[1])
            yield self
        finally:
            for mod, attr, value in reversed(patched):
                setattr(mod, attr, value)

    def self_times(self) -> list:
        """Self time in ns of every span: duration minus child durations."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        return [d - c for d, c in zip(dur, child)]

    def layer_summary(self) -> tuple:
        """(calls, self_ns) per span name over the whole log."""
        calls: Counter = Counter(self.names)
        self_ns: Counter = Counter()
        for name, t in zip(self.names, self.self_times()):
            self_ns[name] += t
        return calls, self_ns

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span,name,start_ns,end_ns,parent,op\n")
            for i, row in enumerate(zip(self.names, self.starts, self.ends, self.parents, self.ops)):
                fh.write(f"{i},{row[0]},{row[1]},{row[2]},{row[3]},{row[4]}\n")


def wrapper_cost_ns(calls: int = 20000) -> float:
    """Time in ns that one span adds to a call: a traced no-op against a bare one."""

    def noop(x):
        return x

    def loop(fn):
        t0 = perf_counter_ns()
        for i in range(calls):
            fn(i)
        return perf_counter_ns() - t0

    wrapped = Tracer().wrap("noop", noop)
    bare = min(loop(noop) for _ in range(3))
    return (min(loop(wrapped) for _ in range(3)) - bare) / calls


def per_layer_metrics(tracer: Tracer, ops: int) -> dict:
    """Per-layer metrics, each a mean per operation over `ops` operations."""
    calls, self_ns = tracer.layer_summary()
    counts = tracer.counts

    def per_op(x):
        return x / ops

    def ms(name):
        return self_ns[name] / ops / 1e6

    def layer_ms(layer):
        return sum(t for n, t in self_ns.items() if n.startswith(layer + ".")) / ops / 1e6

    def share(num, den):
        return num / den if den else 0.0

    out = {
        "model.all_slates.slates_built": (per_op(counts["model.all_slates.slates_built"]), "count/op"),
        "model.all_slates.self_ms": (ms("model.all_slates"), "ms"),
        "model.oracle_table.self_ms": (ms("model.oracle_table"), "ms"),
        "model.sample_empirical.self_ms": (ms("model.sample_empirical"), "ms"),
        "model.load_model.self_ms": (ms("model.load_model"), "ms"),
        "model.self_ms": (layer_ms("model"), "ms"),
        "polynomials.solve_all_roots.calls": (per_op(calls["polynomials.solve_all_roots"]), "count/op"),
        "polynomials.solve_all_roots.self_ms": (ms("polynomials.solve_all_roots"), "ms"),
        "polynomials.interpolate.calls": (per_op(calls["polynomials.interpolate"]), "count/op"),
        "polynomials.interpolate.exact_calls": (
            per_op(counts["polynomials.interpolate.exact_calls"]),
            "count/op",
        ),
        "polynomials.interpolate.self_ms": (ms("polynomials.interpolate"), "ms"),
        "polynomials.sylvester_resultant.self_ms": (ms("polynomials.sylvester_resultant"), "ms"),
        "polynomials.deflate_root.calls": (per_op(calls["polynomials.deflate_root"]), "count/op"),
        "polynomials.deflate_root.errors": (per_op(counts["polynomials.deflate_root.errors"]), "count/op"),
        "polynomials.self_ms": (layer_ms("polynomials"), "ms"),
        "systems.pair_system.calls": (per_op(calls["systems.pair_system"]), "count/op"),
        "systems.pair_quartic.calls": (per_op(calls["systems.pair_quartic"]), "count/op"),
        "systems.pair_quartic.distinct_share": (
            share(len(tracer.pair_quartic_inputs), calls["systems.pair_quartic"]),
            "ratio",
        ),
        "systems.pair_quartic.self_ms": (ms("systems.pair_quartic"), "ms"),
        "systems.pair_slate_quartic.self_ms": (ms("systems.pair_slate_quartic"), "ms"),
        "systems.partner_value.degenerate_share": (
            share(counts["systems.partner_value.errors"], calls["systems.partner_value"]),
            "ratio",
        ),
        "systems.resultant_gate.calls": (per_op(calls["systems.resultant_gate"]), "count/op"),
        "systems.self_ms": (layer_ms("systems"), "ms"),
        "identify.check_identifiability.self_ms": (ms("identify.check_identifiability"), "ms"),
        "identify.enumerate_candidates.self_ms": (ms("identify.enumerate_candidates"), "ms"),
        "identify.solve_pair_system.calls": (per_op(calls["identify.solve_pair_system"]), "count/op"),
        "identify.solve_pair_system.self_ms": (ms("identify.solve_pair_system"), "ms"),
        # pair_system_residual is only called from identify.solve_pair_system
        "identify.pair_candidates.accepted_per_attempt": (
            share(counts["identify.solve_pair_system.solutions"], calls["systems.pair_system_residual"]),
            "ratio",
        ),
        "identify.self_ms": (layer_ms("identify"), "ms"),
        "learn.learn_from_samples.self_ms": (ms("learn.learn_from_samples"), "ms"),
        "learn.queries_per_op": (per_op(counts["learn.queries"]), "count/op"),
        "learn.samples_per_op": (per_op(counts["learn.samples"]), "count/op"),
        "learn.self_ms": (layer_ms("learn"), "ms"),
        "cli.main.calls": (per_op(calls["cli.main"]), "count/op"),
        "cli.main.self_ms": (ms("cli.main"), "ms"),
    }
    return out
