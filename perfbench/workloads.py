"""The benchmark's workloads: seeded inputs, one library call per operation,
and the check applied to every output.

Each workload draws its per-operation seeds from ``random.Random(seed)`` in
order, so a workload seed fixes the whole input stream. The library is passed
in as ``lib``, a namespace of freshly imported ``mnlmix`` modules; calls go
through module attributes so that traced wrappers take effect.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction

LAMBDA = 2.0


@dataclass(frozen=True)
class Outcome:
    """Result of checking one operation's output.

    ok: the output passed its correctness check (else the op counts as failed).
    verdict_ok: the program's verdict matched the expected one.
    success: ok and verdict_ok, plus the learner's accuracy target on learn.
    """

    ok: bool
    verdict_ok: bool
    success: bool


def _close(u, v, rtol) -> bool:
    # mnlmix.identify's dedup closeness rule, restated here so that the
    # output check does not run the code under test
    return all(
        abs(float(x) - float(y)) <= rtol * max(1.0, abs(float(x)), abs(float(y)))
        for x, y in zip(u, v)
    )


def _truth_among(solutions, a, b, rtol) -> bool:
    """True when (a, b) is one of the full-level solutions."""
    target = tuple(a) + tuple(b)
    return any(
        len(s_a) == len(a) and _close(tuple(s_a) + tuple(s_b), target, rtol)
        for s_a, s_b in solutions
    )


class Workload:
    """Base: subclasses define make_input, run and check.

    tail_pct: percentile reported as latency_tail_ms, fixed so that runs stay
      comparable; in a run of BENCHMARK.json's run_seconds at the first
      baseline at least 10 samples lie beyond it.
    pool: inputs generated during set-up; later ones are made between timed
      operations.
    kernel_units: size of the reference kernel run after each operation,
      about a tenth of the operation's time.
    warmup: operations run during set-up, on the first inputs of the stream;
      they are checked like timed ones but never timed.
    trace_ops: operations in each pass of a traced run.
    """

    name = ""
    tail_pct = 99.0
    pool = 0
    kernel_units = 1
    warmup = 0
    trace_ops = 0

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.workdir = workdir
        self._rng = random.Random(seed)
        self._inputs: list = []

    def next_seed(self) -> int:
        return self._rng.getrandbits(32)

    def input(self, i: int):
        """The i-th input of the stream, generating as far as needed."""
        while len(self._inputs) <= i:
            self._inputs.append(self.make_input(len(self._inputs)))
        return self._inputs[i]

    def release(self, i: int) -> None:
        """Drop input i once used, so long runs keep a flat footprint."""
        self._inputs[i] = None

    def make_input(self, i: int):
        raise NotImplementedError

    def run(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> Outcome:
        raise NotImplementedError


class _IdentifyFloat(Workload):
    n = 4

    def make_input(self, i: int):
        return self.lib.model.random_instance(self.n, LAMBDA, self.next_seed())

    def run(self, model):
        return self.lib.identify.check_identifiability(model)

    def check(self, model, report) -> Outcome:
        sols = [(s.a, s.b) for s in report.solutions if s.level == "full"]
        ok = _truth_among(sols, model.a.w, model.b.w, self.lib.identify.DEDUP_RTOL)
        verdict_ok = report.unique
        return Outcome(ok, verdict_ok, ok and verdict_ok)


class IdentifyN4(_IdentifyFloat):
    name = "identify-n4"
    n = 4
    # p99 of 20-second runs moved by up to 45% when operations were timed
    # by wall clock, with interference bursts on the shared machine
    tail_pct = 95.0
    pool = 200
    kernel_units = 1
    warmup = 20
    trace_ops = 1000


class IdentifyN14(_IdentifyFloat):
    name = "identify-n14"
    n = 14
    tail_pct = 90.0
    pool = 8
    kernel_units = 20
    warmup = 2
    trace_ops = 40


class IdentifyExactCli(Workload):
    """In-process `mnlmix identify <file> --out <report>` on rational models.

    Input 0, run in every set-up's warm-up and never timed, is the exact
    two-solution counterexample (expected exit code 2 with pair-multiplicity);
    its check also requires the companion pair-level solution. The timed
    inputs are seeded 4-item draws rationalized to denominators of at most
    1000 (expected exit code 0), so timing comes from seeded draws alone.
    """

    name = "identify-exact-cli"
    tail_pct = 95.0
    pool = 24
    kernel_units = 8
    warmup = 4
    trace_ops = 96

    def __init__(self, lib, seed: int, workdir: str):
        super().__init__(lib, seed, workdir)
        self.report_path = os.path.join(workdir, "report.json")
        self.counterexample = lib.experiments.counterexample_model(exact=True)
        self.counterexample_path = os.path.join(workdir, "counterexample.json")
        lib.model.save_model(self.counterexample, self.counterexample_path)

    def _rational_draw(self):
        while True:
            m = self.lib.model.random_instance(4, 2, self.next_seed())
            a = [Fraction(x).limit_denominator(1000) for x in m.a.w[:-1]]
            b = [Fraction(x).limit_denominator(1000) for x in m.b.w[:-1]]
            a.append(1 - sum(a))
            b.append(1 - sum(b))
            if min(a) > 0 and min(b) > 0:
                return self.lib.model.MixtureModel.of(a, b, Fraction(2))

    def make_input(self, i: int):
        if i == 0:
            return self.counterexample_path, self.counterexample, 2
        model = self._rational_draw()
        path = os.path.join(self.workdir, f"model-{i}.json")
        self.lib.model.save_model(model, path)
        return path, model, 0

    def run(self, inp):
        path = inp[0]
        return self.lib.cli.main(["identify", path, "--out", self.report_path])

    def check(self, inp, code) -> Outcome:
        _, model, expected = inp
        if code not in (0, 2):
            return Outcome(False, False, False)
        try:
            with open(self.report_path) as fh:
                report = json.load(fh)
            unique, codes = report["unique"], report["codes"]
            sols = {
                level: [
                    ([Fraction(x) for x in s["a"]], [Fraction(x) for x in s["b"]])
                    for s in report["solutions"]
                    if s["level"] == level and (level == "full" or s["items"] == [1, 2])
                ]
                for level in ("full", "pair")
            }
        except (OSError, ValueError, KeyError, TypeError):
            return Outcome(False, False, False)
        rtol = self.lib.identify.DEDUP_RTOL
        ok = _truth_among(sols["full"], model.a.w, model.b.w, rtol)
        if expected == 2:
            # the counterexample's second solution on items (1, 2)
            second = self.lib.experiments.COUNTEREXAMPLE_SECOND
            ok = ok and _truth_among(sols["pair"], second[:2], second[2:], rtol)
            verdict_ok = code == 2 and not unique and "pair-multiplicity" in codes
        else:
            verdict_ok = code == 0 and unique
        return Outcome(ok, verdict_ok, ok and verdict_ok)


class LearnSamplesN6(Workload):
    """learn_from_samples at n = 6, eps = 0.05 and N = 8 n^3 / eps^2 per slate."""

    name = "learn-samples-n6"
    # p95 leaves only about 13 samples beyond it and moved by 10% between runs
    tail_pct = 90.0
    # regular_instance's rejection sampling takes 0 to 45 ms per input,
    # depending on the seed, so set-up makes no more inputs than it warms up on
    pool = 2
    kernel_units = 12
    warmup = 2
    trace_ops = 60
    n = 6
    eps = 0.05
    samples_per_slate = 691200  # ceil(8 * 6**3 / 0.05**2)

    def make_input(self, i: int):
        s = self.next_seed()
        model = self.lib.experiments.regular_instance(self.n, LAMBDA, s)
        cfg = self.lib.learn.LearnConfig(
            eps=self.eps, samples_per_slate=self.samples_per_slate, seed=s
        )
        return model, cfg

    def run(self, inp):
        model, cfg = inp
        return self.lib.learn.learn_from_samples(model, cfg=cfg)

    def check(self, inp, report) -> Outcome:
        if not isinstance(report, self.lib.learn.LearnReport):
            return Outcome(False, False, False)
        err = report.max_rel_error
        success = report.ok and err is not None and err <= self.eps
        return Outcome(True, report.ok, success)


WORKLOADS = {w.name: w for w in (IdentifyN4, IdentifyN14, IdentifyExactCli, LearnSamplesN6)}
