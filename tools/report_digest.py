"""SHA-256 digests of mnlmix reports over fixed seeds, one line per family.

A change that must leave every report byte-identical prints the same lines
before and after. Run the script at both commits on one machine and diff
the output:

    PYTHONPATH=src python tools/report_digest.py > after.txt
    PYTHONPATH=/path/to/parent/src python tools/report_digest.py > before.txt
    diff before.txt after.txt

The digests are not golden values. The last digits of float results depend
on the platform and the numpy build, so compare two commits on one machine,
never against a stored list.

With `--dump PATH` the script also writes every report, as JSON
`{label: [reports]}`, so that `tools/report_diff.py` can say how far the
reports of a family moved when its digest changed.

Families: `check_identifiability` by n and lambda over random instances, on
rational models at n = 3, 4, 5 and 6 (n = 4 drawn as the
`identify-exact-cli` benchmark draws them), on the exact model with item 1
pinned, on float weights with the Fraction lambda 3/2 at n = 3, 4 and 6 and
with the int lambda 2 at n = 4 and 8, on the two-solution counterexample
(exact and float), on exact exchangeable n = 5 models at lambda 2 and 1/2
(`exchangeable_models`), whose every pair among items 1 to 4 carries a
second solution, and on two edge draws (`EDGE_DRAWS`) whose pair screen
sends pairs to the scalar solver; on rational draws at lambda = 1, where
exact solutions merge up to component swap, and at lambda = 1/2
(`RATIONAL_LAMBDA_DRAWS`), on rational draws with small denominators
(`SMALL_DENOMINATOR_DRAWS`), on float weights with the Fraction lambda 1,
on float draws with a_i = b_i on one or two of items 1 to 3 at lambda 2,
1 and 1/2 (`pinned_pivot_models`), which reach the full enumeration's
second-pivot and all-pinned extensions,
and on the exact counterexample perturbed along a[idx] += e, a[4] -= e
(`near_counterexamples`), whose exact and Fraction-lambda tables lie near
the two-solution variety;
`enumerate_candidates` with tol = inf, so that every admissible full
candidate's residual is hashed and not only the survivors a report shows,
on float n = 4 and n = 14 tables (the slates `check_identifiability`
reads), on the rational n = 4 tables and on the pinned-pivot tables, and
at the default tol, where pivot pairs are also rejected on the slate
{1, 2} before extension, on the float and rational tables and on the
`near_counterexamples` tables;
`solve_all_roots` on seeded cubics and quartics, with leading
coefficients as drawn, near the trim cut and at 1e-10 of the rest, and on
the two inputs the earlier Cardano solver failed on (`root_rows`; an
exception is recorded by its type name, so that every version runs);
`solve_pair_system` on every ordered pair of float n = 5 draws and of the
float counterexample, which reaches pair-level residuals that a report
shows only under pair multiplicity;
`learn_from_oracle` by n and lambda, on rational models at n = 4, 5
and 6, whose block solve builds exact quartics, on n = 5 draws at
lambda = 1 with a_1 = b_1 (`pinned_item_one_models`), whose (a, b) order
the swap-class rule decides, and on the `pinned_pivot_models` draws at
n = 4 and 6, whose pinned block items the extension must not pivot on (an
exception is recorded by its type name); `learn_from_samples` at
eps = 0.05 on model seeds 1000 + t with sampling seed t, at lambda = 2 for
n = 5 to 8 and at lambda = 1 and 0.7 for n = 6, and on the
`learn-samples-n6` benchmark's inputs (`regular_instance` draws at
N = 691200 per slate, seeds from `random.Random(1)`), and at 1, 2 and 5
samples per slate on n = 4, 6 and 8 draws at lambda = 2 with sampling
seed = model seed (`SMALL_BUDGETS`), where the partner map can divide by
zero (an exception is recorded by its type name);
the pair cubic's discriminant evaluators `discriminant_at`,
`discriminant_exact` and `_exact_record` at seeded points, the
three-roots witness, a collapse tuple, a tuple symmetric in the two
off-pair items, the float and exact counterexample pair and two tuples
whose pair system divides by zero (`discriminant_points`);
and one small run of each experiment driver (`experiment_families`). A run
takes about 18 s of CPU time on one core of a two-core Xeon: the
`solve_all_roots` families and the n = 20 identify family about 0.1 s
each, the other random identify families about 5.3 s, the rational and
float-weight identify families about 1 s, the families near the pair
scan's number-type edges (lambda 1 and 1/2, small denominators, Fraction
lambda 1, perturbed counterexample) about 1.7 s, the pair-solver
families about 1.5 s, the candidate families about 2 s, the pinned-pivot
families about 1.2 s (0.7 s of identify reports, 0.25 s of candidates
and 0.25 s of learn reports), the other learn-oracle families about
0.9 s, the eps = 0.05 sampling families about 2.8 s (1.2 s of them the
benchmark inputs), the small-budget family about 1 s and the experiments
about 0.7 s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from itertools import chain, permutations
from fractions import Fraction

import numpy as np

from mnlmix import experiments as xp
from mnlmix.experiments import counterexample_model
from mnlmix.identify import (
    RESIDUAL_TOL,
    check_identifiability,
    enumerate_candidates,
    identify_slates,
    solve_pair_system,
)
from mnlmix.learn import LearnConfig, learn_from_oracle, learn_from_samples
from mnlmix.model import MixtureModel, all_slates, oracle_table, random_instance
from mnlmix.polynomials import DEFAULT_TOL, RealPolynomial, solve_all_roots
from mnlmix.systems import pair_system

LAMBDAS = (2.0, 1.0, 0.7)
# n -> number of seeds, per lambda
IDENTIFY_DRAWS = {3: 300, 4: 600, 5: 150, 6: 100, 8: 40, 14: 20, 20: 10}
ORACLE_DRAWS = {4: 40, 5: 40, 6: 40, 8: 20, 12: 10}
# n -> number of rational draws at lambda = 2 whose exact oracle is learned
RATIONAL_ORACLE_DRAWS = {4: 30, 5: 30, 6: 30}
# seeds of the n = 5 lambda = 1 draws with b_1 set to a_1 whose exact oracle
# is learned (`pinned_item_one_models`)
PINNED_ORACLE_DRAWS = 60
# n -> number of rational draws at lambda = 2
RATIONAL_DRAWS = {4: 60, 3: 100, 5: 20, 6: 20}
# item 1 pinned (a_1 = b_1), so every gate is exactly 0
PINNED_MODEL = MixtureModel.of(
    [Fraction(1, 4), Fraction(3, 10), Fraction(1, 10), Fraction(7, 20)],
    [Fraction(1, 4), Fraction(1, 5), Fraction(3, 10), Fraction(1, 4)],
    Fraction(2),
)
# n -> number of float draws given the exact lambda 3/2: float oracle values
# with a Fraction lambda
FRACTION_LAMBDA_DRAWS = {3: 20, 4: 20, 6: 10}
# n -> number of float draws given the int lambda 2, as a model file with
# "lambda": 2 loads
INT_LAMBDA_DRAWS = {4: 100, 8: 20}
# (n, lambda) -> number of rational draws: the swap merge of exact tables
# at lambda = 1, and lambda = 1/2
RATIONAL_LAMBDA_DRAWS = {(4, 1): 30, (4, Fraction(1, 2)): 30, (5, 1): 8, (5, Fraction(1, 2)): 8}
# (n, denominator limit) -> number of rational draws at lambda = 2
SMALL_DENOMINATOR_DRAWS = {(4, 12): 30, (4, 30): 30, (5, 30): 8}
# (x, u) of the exact exchangeable n = 5 models a = (x, x, x, x, 1 - 4x),
# b = (u, u, u, u, 1 - 4u), at each of EXCHANGEABLE_LAMBDAS: every pair
# among items 1 to 4 carries a second solution (`exchangeable_models`)
EXCHANGEABLE_WEIGHTS = (
    (Fraction(1, 50), Fraction(1, 25)), (Fraction(1, 25), Fraction(1, 50)),
    (Fraction(1, 20), Fraction(1, 10)), (Fraction(1, 10), Fraction(1, 20)),
    (Fraction(1, 8), Fraction(1, 5)), (Fraction(1, 6), Fraction(1, 12)),
)
EXCHANGEABLE_LAMBDAS = (Fraction(2), Fraction(1, 2))
# n -> number of float draws at lambda 1.0 given the Fraction lambda 1
FRACTION_ONE_DRAWS = {4: 30, 6: 8}
# (n, lambda, seed): b_1 1e-4 from the pin c_1 / (1 + lambda), and a
# four-root cluster in pair (1, 3)
EDGE_DRAWS = ((14, 2.0, 73186270), (4, 2.0, 496))
# n -> number of float draws per lambda whose candidates are all hashed
CANDIDATE_DRAWS = {4: 200, 14: 20}
# n -> number of float draws per lambda with a_i = b_i on one or two of
# items 1 to 3 (`pinned_pivot_models`)
PINNED_PIVOT_DRAWS = {4: 60, 6: 20}
PINNED_PIVOT_LAMBDAS = (2.0, 1.0, 0.5)
PINNED_PIVOT_SETS = ((1,), (2,), (3,), (1, 2), (1, 3), (2, 3))
# n = 5 draws per lambda whose every pair system is solved
PAIR_DRAWS = 100
# n -> number of sampling draws at lambda = 2
SAMPLE_DRAWS = {6: 150, 5: 25, 7: 25, 8: 25}
# lambda -> number of n = 6 sampling draws off lambda = 2
SAMPLE_LAMBDA_DRAWS = {1.0: 40, 0.7: 40}
# random_instance(n, 2, s) draws, s < SMALL_BUDGET_DRAWS, sampled with seed s
# at each of SMALL_BUDGETS samples per slate
SMALL_BUDGET_NS = (4, 6, 8)
SMALL_BUDGETS = (1, 2, 5)
SMALL_BUDGET_DRAWS = 40
# learn-samples-n6 benchmark inputs drawn from random.Random(1)
BENCH_SAMPLE_DRAWS = 100
# lambda -> number of seeded formal 4-tuples whose pair-cubic discriminants
# are hashed (`discriminant_points`)
DISCRIMINANT_DRAWS = {2.0: 20, 5.0: 20, 0.5: 10}
# seeded normal rows per degree given to `solve_all_roots`, and their
# leading coefficients relative to the row's other coefficients: as drawn,
# near the trim cut tau_lead (above it, and below it, where the row is
# trimmed to a lower degree) and at 1e-10
ROOT_DRAWS = 200
ROOT_LEADS = (None, 2 * DEFAULT_TOL.tau_lead, DEFAULT_TOL.tau_lead / 2, 1e-10)


def digest(reports) -> str:
    h = hashlib.sha256()
    for rep in reports:
        h.update(json.dumps(rep, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def rational_models(n: int, count: int, lam=Fraction(2), limit: int = 1000):
    """`count` exact n-item models with mixing parameter `lam` from seeds
    0, 1, ...: each lambda = 2 draw's weights rounded to denominators up to
    `limit`, the last weight one minus the others; draws with a non-positive
    weight are skipped."""
    seed = 0
    while count:
        m = random_instance(n, 2, seed)
        seed += 1
        a = [Fraction(x).limit_denominator(limit) for x in m.a.w[:-1]]
        b = [Fraction(x).limit_denominator(limit) for x in m.b.w[:-1]]
        a.append(1 - sum(a))
        b.append(1 - sum(b))
        if min(a) > 0 and min(b) > 0:
            count -= 1
            yield MixtureModel.of(a, b, lam)


def near_counterexamples():
    """The exact counterexample with a[idx] += e and a[4] -= e, for
    e = +-10^-k, k = 1..12, idx = 1, 2, 3, under lambda 2, 2 + e and 2.0;
    perturbations that leave a weight non-positive are skipped."""
    base = counterexample_model(True)
    for k in range(1, 13):
        for e in (Fraction(1, 10**k), -Fraction(1, 10**k)):
            for idx in (1, 2, 3):
                a = list(base.a.w)
                a[idx - 1] += e
                a[3] -= e
                if min(a) <= 0:
                    continue
                for lam in (Fraction(2), 2 + e, 2.0):
                    yield MixtureModel.of(a, base.b.w, lam)


def exchangeable_models(lam):
    """The exact n = 5 models a = (x, x, x, x, 1 - 4x), b = (u, u, u, u,
    1 - 4u) with mixing parameter `lam`, for each (x, u) of
    EXCHANGEABLE_WEIGHTS."""
    for x, u in EXCHANGEABLE_WEIGHTS:
        yield MixtureModel.of([x] * 4 + [1 - 4 * x], [u] * 4 + [1 - 4 * u], lam)


def pinned_pivot_models(n: int, lam: float, count: int):
    """`count` float n-item models with mixing parameter `lam`: the weights
    of `random_instance(n, 2.0, s)`, s = 0, 1, ..., with a_i = b_i on the
    items of `PINNED_PIVOT_SETS[s % 6]` and a_n taking up what a's sum
    needs; draws with a non-positive a_n are skipped. A pinned first or
    second item sends the full enumeration's tail to its other pivot or,
    with both pinned, to the all-pinned value."""
    seed = 0
    while count:
        m = random_instance(n, 2.0, seed)
        pinned = PINNED_PIVOT_SETS[seed % len(PINNED_PIVOT_SETS)]
        seed += 1
        a = [m.b.w[i] if i + 1 in pinned else m.a.w[i] for i in range(n - 1)]
        a.append(1.0 - sum(a))
        if a[-1] > 0:
            count -= 1
            yield MixtureModel.of(a, m.b.w, lam)


def pinned_item_one_models():
    """`random_instance(5, 1.0, s)`, s < PINNED_ORACLE_DRAWS, with b_1 set
    to a_1 and b's other items rescaled to sum to one: a learned a_1 and b_1
    then differ only by rounding, so the learner's lambda = 1 order of
    (a, b) rests on later items."""
    for s in range(PINNED_ORACLE_DRAWS):
        m = random_instance(5, 1.0, s)
        a1, b1 = m.a.w[0], m.b.w[0]
        yield MixtureModel.of(m.a.w, [a1] + [v * (1 - a1) / (1 - b1) for v in m.b.w[1:]], 1.0)


def pair_solutions(model) -> list:
    """`solve_pair_system` reports for every ordered pair of `model`, with
    the two-item slate value included."""
    table = oracle_table(model, all_slates(model.n))
    return [
        [s.to_dict() for s in solve_pair_system(pair_system(table, i, j, include_pair=True))]
        for i, j in permutations(range(1, model.n + 1), 2)
    ]


def root_rows():
    """(label, rows) for the `solve_all_roots` families: seeded normal cubics
    and quartics at each of `ROOT_LEADS`, then x^3 + 2.4e-288 x and 300
    normal cubics with a leading coefficient 1e-10 of the sup-norm, the
    two inputs that the earlier Cardano solver failed on."""
    for degree in (3, 4):
        for lead in ROOT_LEADS:
            rng = np.random.default_rng(degree)
            rows = rng.normal(size=(ROOT_DRAWS, degree + 1))
            if lead is not None:
                rows[:, -1] = np.copysign(lead * abs(rows[:, :-1]).max(axis=1), rows[:, -1])
            yield f"solve_all_roots degree={degree} lead={lead} seed={degree} rows={ROOT_DRAWS}", rows
    rng = np.random.default_rng(0)
    small = rng.normal(size=(300, 4))
    small[:, 3] = np.copysign(1e-10 * abs(small[:, :3]).max(axis=1), small[:, 3])
    found = [[0.0, 2.3668360709099062e-288, 0.0, 1.0], *small.tolist()]
    yield "solve_all_roots x^3+2.4e-288x and lead=1e-10 cubics seed=0", np.array(found)


def root_report(row) -> dict:
    """`solve_all_roots` on one row: its roots as [real, imag] pairs with
    their realness flags, or the name of the exception it raises."""
    try:
        rs = solve_all_roots(RealPolynomial.of(row.tolist()))
    except Exception as err:  # every version's failure is part of the record
        return {"error": type(err).__name__}
    return {"roots": [[r.real, r.imag] for r in rs.roots], "real": list(rs.real_flags)}


def discriminant_points():
    """(lambda, point) pairs for the discriminant family: seeded uniform
    draws in [0.005, 0.65]^4, the range `experiment_discriminant_max`
    starts from, per `DISCRIMINANT_DRAWS`; then the three-roots witness, a
    collapse tuple (a = b), a tuple whose implied third items equal the
    second ones, the counterexample's pair in Fractions and in floats, and
    two tuples whose pair system divides by zero (a_1 = 1, and 1 - b_1 = 0)."""
    for lam, count in DISCRIMINANT_DRAWS.items():
        rng = np.random.default_rng(int(lam * 10))
        for row in rng.uniform(0.005, 0.65, size=(count, 4)):
            yield lam, tuple(row.tolist())
    yield xp.THREE_ROOTS_LAMBDA, xp.THREE_ROOTS_TUPLE
    yield 2.0, (0.48, 0.26, 0.48, 0.26)
    yield 2.0, (0.58, 0.21, 0.48, 0.26)
    pair = (*xp.COUNTEREXAMPLE_A[:2], *xp.COUNTEREXAMPLE_B[:2])
    yield xp.COUNTEREXAMPLE_LAMBDA, pair
    yield float(xp.COUNTEREXAMPLE_LAMBDA), tuple(float(v) for v in pair)
    yield 2.0, (1.0, 0.0, 0.2, 0.3)
    yield 2.0, (0.2, 0.3, 1.0, 0.0)


def discriminant_report(lam, point) -> dict:
    """`discriminant_at`, `discriminant_exact` and `_exact_record` at one
    point, exact values as strings; an exception is recorded by its type
    name."""

    def run(fn, *args):
        try:
            out = fn(*args)
        except Exception as err:  # every version's failure is part of the record
            return {"error": type(err).__name__}
        if isinstance(out, dict):
            return {k: str(v) if isinstance(v, Fraction) else v for k, v in out.items()}
        return str(out) if isinstance(out, Fraction) else out

    return {
        "at": run(xp.discriminant_at, lam, point),
        "exact": run(xp.discriminant_exact, lam, *point),
        "record": run(xp._exact_record, lam, point),
    }


def learn_report(learner, model, cfg=LearnConfig()) -> dict:
    """`learner(model, cfg=cfg)` as a dict, or the name of the exception it
    raises, so that a draw the learner rejects is part of the record."""
    try:
        return learner(model, cfg=cfg).to_dict()
    except Exception as err:  # every version's failure is part of the record
        return {"error": type(err).__name__}


def all_candidates(table, items, tol) -> dict:
    """Every admissible full candidate of `enumerate_candidates` with its
    residual at most `tol`; at tol = inf, whatever its size. The empty
    statuses list keeps the shape that earlier versions, which also
    returned statuses, hashed."""
    cands = enumerate_candidates(table, items, tol=tol)
    return {"candidates": [c.to_dict() for c in cands], "statuses": []}


def candidate_families():
    """Yield (label, reports) for the `enumerate_candidates` families: at
    tol = inf, and at the default tol, where pivot pairs are also rejected
    on their two-item slate before extension."""
    for tol in (float("inf"), RESIDUAL_TOL):
        for n, draws in CANDIDATE_DRAWS.items():
            items = tuple(range(1, n + 1))
            for lam in LAMBDAS:
                yield f"candidates n={n} lam={lam} tol={tol} seeds=0..{draws - 1}", (
                    all_candidates(oracle_table(m, identify_slates(n)), items, tol)
                    for m in (random_instance(n, lam, s) for s in range(draws))
                )
        yield f"candidates rational n=4 lam=2 tol={tol} first {RATIONAL_DRAWS[4]} positive draws", (
            all_candidates(oracle_table(m, all_slates(4)), (1, 2, 3, 4), tol)
            for m in rational_models(4, RATIONAL_DRAWS[4])
        )
    for n, draws in PINNED_PIVOT_DRAWS.items():
        items = tuple(range(1, n + 1))
        for lam in PINNED_PIVOT_LAMBDAS:
            yield f"candidates pinned pivots n={n} lam={lam} tol=inf first {draws} draws", (
                all_candidates(oracle_table(m, identify_slates(n)), items, float("inf"))
                for m in pinned_pivot_models(n, lam, draws)
            )
    yield f"candidates near counterexample a[idx]+=e a[4]-=e lam=2,2+e,2.0 tol={RESIDUAL_TOL}", (
        all_candidates(oracle_table(m, all_slates(4)), (1, 2, 3, 4), RESIDUAL_TOL)
        for m in near_counterexamples()
    )


def families():
    """Yield (label, iterable of report dicts) for every family."""
    for n, draws in IDENTIFY_DRAWS.items():
        for lam in LAMBDAS:
            yield f"identify n={n} lam={lam} seeds=0..{draws - 1}", (
                check_identifiability(random_instance(n, lam, s)).to_dict()
                for s in range(draws)
            )
    for n, draws in RATIONAL_DRAWS.items():
        yield f"identify rational n={n} lam=2 first {draws} positive draws", (
            check_identifiability(m).to_dict() for m in rational_models(n, draws)
        )
    for (n, lam), draws in RATIONAL_LAMBDA_DRAWS.items():
        yield f"identify rational n={n} lam={lam} first {draws} positive draws", (
            check_identifiability(m).to_dict() for m in rational_models(n, draws, Fraction(lam))
        )
    for (n, limit), draws in SMALL_DENOMINATOR_DRAWS.items():
        yield f"identify rational n={n} lam=2 denominators<={limit} first {draws} positive draws", (
            check_identifiability(m).to_dict()
            for m in rational_models(n, draws, limit=limit)
        )
    yield "identify near counterexample a[idx]+=e a[4]-=e lam=2,2+e,2.0", (
        check_identifiability(m).to_dict() for m in near_counterexamples()
    )
    yield "identify pinned item 1 exact", (check_identifiability(PINNED_MODEL).to_dict(),)
    for n, draws in FRACTION_LAMBDA_DRAWS.items():
        yield f"identify float weights n={n} lam=Fraction(3, 2) seeds 0..{draws - 1}", (
            check_identifiability(MixtureModel.of(m.a.w, m.b.w, Fraction(3, 2))).to_dict()
            for m in (random_instance(n, 2.0, s) for s in range(draws))
        )
    for n, draws in FRACTION_ONE_DRAWS.items():
        yield f"identify float weights n={n} lam=Fraction(1) seeds 0..{draws - 1}", (
            check_identifiability(MixtureModel.of(m.a.w, m.b.w, Fraction(1))).to_dict()
            for m in (random_instance(n, 1.0, s) for s in range(draws))
        )
    for n, draws in INT_LAMBDA_DRAWS.items():
        yield f"identify float weights n={n} lam=int 2 seeds 0..{draws - 1}", (
            check_identifiability(MixtureModel.of(m.a.w, m.b.w, 2)).to_dict()
            for m in (random_instance(n, 2.0, s) for s in range(draws))
        )
    for exact in (True, False):
        yield f"identify counterexample {'exact' if exact else 'float'}", (
            check_identifiability(counterexample_model(exact)).to_dict(),
        )
    for lam in EXCHANGEABLE_LAMBDAS:
        yield f"identify exchangeable n=5 lam={lam} {len(EXCHANGEABLE_WEIGHTS)} models", (
            check_identifiability(m).to_dict() for m in exchangeable_models(lam)
        )
    for n, draws in PINNED_PIVOT_DRAWS.items():
        for lam in PINNED_PIVOT_LAMBDAS:
            yield f"identify pinned pivots n={n} lam={lam} first {draws} draws", (
                check_identifiability(m).to_dict() for m in pinned_pivot_models(n, lam, draws)
            )
    yield "identify edge draws " + " ".join(
        f"n={n},lam={lam},seed={s}" for n, lam, s in EDGE_DRAWS
    ), (check_identifiability(random_instance(*d)).to_dict() for d in EDGE_DRAWS)
    yield from candidate_families()
    for label, rows in root_rows():
        yield label, (root_report(row) for row in rows)
    for lam in LAMBDAS:
        yield f"pair-solver n=5 lam={lam} seeds=0..{PAIR_DRAWS - 1}", (
            pair_solutions(random_instance(5, lam, s)) for s in range(PAIR_DRAWS)
        )
    yield "pair-solver counterexample float", (
        pair_solutions(counterexample_model(False)),
    )
    for n, draws in ORACLE_DRAWS.items():
        for lam in LAMBDAS:
            yield f"learn-oracle n={n} lam={lam} seeds=0..{draws - 1}", (
                learn_from_oracle(random_instance(n, lam, s)).to_dict()
                for s in range(draws)
            )
    for n, draws in RATIONAL_ORACLE_DRAWS.items():
        yield f"learn-oracle rational n={n} lam=2 first {draws} positive draws", (
            learn_from_oracle(m).to_dict() for m in rational_models(n, draws)
        )
    yield f"learn-oracle pinned item 1 n=5 lam=1.0 seeds=0..{PINNED_ORACLE_DRAWS - 1}", (
        learn_from_oracle(m).to_dict() for m in pinned_item_one_models()
    )
    for n, draws in PINNED_PIVOT_DRAWS.items():
        for lam in PINNED_PIVOT_LAMBDAS:
            yield f"learn-oracle pinned pivots n={n} lam={lam} first {draws} draws", (
                learn_report(learn_from_oracle, m) for m in pinned_pivot_models(n, lam, draws)
            )
    for n, draws in SAMPLE_DRAWS.items():
        yield f"learn-samples n={n} lam=2.0 eps=0.05 seeds=1000+t, t=0..{draws - 1}", (
            learn_from_samples(
                random_instance(n, 2.0, 1000 + t), cfg=LearnConfig(eps=0.05, seed=t)
            ).to_dict()
            for t in range(draws)
        )
    for lam, draws in SAMPLE_LAMBDA_DRAWS.items():
        yield f"learn-samples n=6 lam={lam} eps=0.05 seeds=1000+t, t=0..{draws - 1}", (
            learn_from_samples(
                random_instance(6, lam, 1000 + t), cfg=LearnConfig(eps=0.05, seed=t)
            ).to_dict()
            for t in range(draws)
        )
    yield (
        f"learn-samples small budgets n={','.join(map(str, SMALL_BUDGET_NS))} lam=2.0 "
        f"N={','.join(map(str, SMALL_BUDGETS))} seeds=0..{SMALL_BUDGET_DRAWS - 1}"
    ), (
        learn_report(
            learn_from_samples, random_instance(n, 2.0, s),
            LearnConfig(samples_per_slate=size, seed=s),
        )
        for n in SMALL_BUDGET_NS for size in SMALL_BUDGETS for s in range(SMALL_BUDGET_DRAWS)
    )
    rng = random.Random(1)
    seeds = [rng.getrandbits(32) for _ in range(BENCH_SAMPLE_DRAWS)]
    yield f"learn-samples benchmark inputs n=6 N=691200 first {BENCH_SAMPLE_DRAWS} seeds", (
        learn_from_samples(
            xp.regular_instance(6, 2.0, s),
            cfg=LearnConfig(eps=0.05, samples_per_slate=691200, seed=s),
        ).to_dict()
        for s in seeds
    )


def experiment_families():
    """Yield (label, reports) for one small run of each experiment driver,
    called only with arguments that every version of the drivers accepts."""
    yield "discriminant evaluators " + " ".join(
        f"lam={lam}:{count}" for lam, count in DISCRIMINANT_DRAWS.items()
    ) + " seeded, and named tuples", (
        discriminant_report(lam, point) for lam, point in discriminant_points()
    )
    for exact in (True, False):
        yield f"experiment counterexample {'exact' if exact else 'float'}", (
            xp.experiment_counterexample(exact=exact),
        )
    yield "experiment three-roots", (xp.experiment_three_roots(),)
    yield "experiment discriminant-max lam=2 restarts=20 seed=0", (
        xp.experiment_discriminant_max(2.0, restarts=20, seed=0),
    )
    yield "experiment lambda-threshold grid=2,5 restarts=10 refine=1 seed=0", (
        xp.experiment_lambda_threshold([2.0, 5.0], restarts=10, seed=0, refine_steps=1),
    )
    yield "experiment identifiability-sweep n=4 lam=2 trials=50 seed=0", (
        xp.experiment_identifiability_sweep(4, 2.0, trials=50, seed=0),
    )
    yield "experiment sample-complexity n=4 lam=2 eps=0.2 trials=3 start=4000", (
        xp.experiment_sample_complexity(4, 2.0, [0.2], trials=3, seed=0, start_size=4000),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dump", metavar="PATH", help="also write {label: [reports]} as JSON")
    args = parser.parse_args()
    dumped = {}
    for label, reports in chain(families(), experiment_families()):
        reports = list(reports)
        print(f"{digest(reports)}  {label}", flush=True)
        dumped[label] = reports
    if args.dump:
        with open(args.dump, "w") as f:
            json.dump(dumped, f)


if __name__ == "__main__":
    main()
