"""Desk-scale experiment drivers: discriminant landscapes, identifiability
sweeps, and sample-complexity curves.

Every experiment is a pure function of its parameters and seed: trials use
counter-based derived streams, reports are plain dicts (JSON-ready, schema
versioned), and curve data additionally renders to CSV.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .identify import RESIDUAL_TOL, check_identifiability, solve_pair_system
from .learn import LearnConfig, learn_from_samples
from .model import (
    MixtureModel,
    ParameterError,
    model_to_dict,
    oracle_table,
    random_instance,
    rng_stream,
)
from .polynomials import (
    NotARootError,
    PolynomialShapeError,
    cubic_discriminant,
    deflate_root,
    solve_all_roots,
)
from .systems import formal_pair_system, pair_quartic, pair_slates, pair_system

SCHEMA = "mnlmix-report-1"

# the two-solution instance: both candidate weight pairs satisfy the full
# (a_1,a_2,b_1,b_2) system including the two-item slate
COUNTEREXAMPLE_A = (Fraction(2, 5), Fraction(2, 5), Fraction(1, 10), Fraction(1, 10))
COUNTEREXAMPLE_B = (Fraction(3, 10), Fraction(3, 10), Fraction(1, 5), Fraction(1, 5))
COUNTEREXAMPLE_LAMBDA = Fraction(2)
COUNTEREXAMPLE_SECOND = (Fraction(5, 19), Fraction(5, 19), Fraction(7, 19), Fraction(7, 19))

# the three-real-roots witness: formal 4-tuple at lambda = 5 whose deflated
# pair cubic has three real roots (its implied third coordinates sit just
# outside the simplex, so it is a witness tuple, not a model)
THREE_ROOTS_LAMBDA = 5.0
THREE_ROOTS_TUPLE = (0.0389099, 0.000870832, 0.0565171, 0.943483)
THREE_ROOTS_EXPECTED = (0.043916, 0.164599, 0.281671)


def counterexample_model(exact: bool = True) -> MixtureModel:
    if exact:
        return MixtureModel.of(COUNTEREXAMPLE_A, COUNTEREXAMPLE_B, COUNTEREXAMPLE_LAMBDA)
    return MixtureModel.of(
        [float(v) for v in COUNTEREXAMPLE_A],
        [float(v) for v in COUNTEREXAMPLE_B],
        float(COUNTEREXAMPLE_LAMBDA),
    )


def regular_instance(n: int, lam: float, seed: int) -> MixtureModel:
    """Seeded random instance satisfying the sampling learner's regularity conditions.

    Rejects draws until every weight is at least 0.3/n (the slate
    probabilities are then ratio-bounded) and the two components are
    separated by at least 0.03 in every coordinate (the estimation problem is
    ill-conditioned on the collapse set).
    """
    for trial in range(20000):
        m = random_instance(n, lam, seed + 1000003 * trial)
        if min(min(m.a.w), min(m.b.w)) * n < 0.3:
            continue
        if min(abs(x - y) for x, y in zip(m.a.w, m.b.w)) < 0.03:
            continue
        return m
    raise ValueError(f"no regular instance for n={n} in 20000 draws")


def pair_cubic_from_tuple(lam, a1, a2, b1, b2):
    """Deflated pair cubic generated by a formal 4-tuple."""
    sys = formal_pair_system(lam, a1, a2, b1, b2)
    return deflate_root(pair_quartic(sys), b1)


# what a degenerate tuple raises: deflation fails, the cubic loses degree,
# or a slate equation of its pair system divides by zero
_DEGENERATE = (NotARootError, PolynomialShapeError, ZeroDivisionError)


def _discriminants(lam, point) -> tuple:
    """Raw and sup-norm-scaled discriminant of the pair cubic at a 4-tuple,
    in the arithmetic of lam and the point; raises `_DEGENERATE` on a
    degenerate tuple."""
    cubic = pair_cubic_from_tuple(lam, *point)
    return cubic_discriminant(cubic), cubic_discriminant(cubic.scaled_to_unit())


def _rationalized(lam, point) -> tuple:
    """lam and the point as Fractions with denominators up to 10^9."""
    return tuple(Fraction(v).limit_denominator(10**9) for v in (lam, *point))


def discriminant_at(lam, point) -> Optional[dict]:
    """Raw and sup-norm-scaled discriminant of the pair cubic at a 4-tuple.

    None when the tuple is degenerate (deflation fails or the cubic loses
    degree), which happens on measure-zero exceptional sets.
    """
    try:
        raw, scaled = _discriminants(lam, point)
    except _DEGENERATE:
        return None
    if not (math.isfinite(float(raw)) and math.isfinite(float(scaled))):
        return None
    return {"raw": float(raw), "scaled": float(scaled)}


def discriminant_exact(lam, a1, a2, b1, b2) -> Fraction:
    """Exact-rational discriminant at a rational 4-tuple."""
    lam, *point = _rationalized(lam, (a1, a2, b1, b2))
    return _discriminants(lam, point)[0]


def _exact_record(lam, point) -> dict:
    """discriminant_at's raw and scaled values, computed in exact arithmetic
    at the rationalized point, with the raw value also as the exact
    Fraction; -inf where the tuple is degenerate."""
    lam, *point = _rationalized(lam, point)
    try:
        exact, scaled = _discriminants(lam, point)
    except _DEGENERATE:
        return {"exact": -math.inf, "raw": -math.inf, "scaled": -math.inf}
    return {"exact": exact, "raw": float(exact), "scaled": float(scaled)}


DOMAIN_MARGIN = 1e-7


def _project(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, DOMAIN_MARGIN, 1 - DOMAIN_MARGIN)
    for lo in (0, 2):
        s = x[lo] + x[lo + 1]
        if s > 1 - DOMAIN_MARGIN:
            x[lo] *= (1 - DOMAIN_MARGIN) / s
            x[lo + 1] *= (1 - DOMAIN_MARGIN) / s
    return x


def _compass_max(f, x0: np.ndarray):
    """Projected pattern search from step 0.1 down to 1e-6; derivative-free,
    deterministic."""
    x = _project(np.array(x0, dtype=float))
    fx = f(x)
    step = 0.1
    while step > 1e-6:
        moved = False
        for i in range(len(x)):
            for sgn in (1.0, -1.0):
                y = x.copy()
                y[i] += sgn * step
                y = _project(y)
                fy = f(y)
                if fy > fx:
                    x, fx, moved = y, fy, True
                    break
            if moved:
                break
        if not moved:
            step /= 2
    return fx, x


def experiment_discriminant_max(
    lam: float,
    restarts: int = 500,
    seed: int = 0,
    extra_starts: Sequence[Sequence[float]] = (),
    objective: str = "raw",
) -> dict:
    """Multistart maximization of the pair-cubic discriminant over the domain
    of formal 4-tuples with nonnegative implied third coordinates.

    Restarts whose endpoints land on degenerate structure (weights within
    0.02 of collapse or a repeated-root variety at float resolution) are
    tallied separately: on those sets the discriminant is exactly zero for
    structural reasons, not because a robust three-real-root instance exists.

    The search runs in floats, which near the variety round to either sign;
    every endpoint is therefore re-evaluated in exact arithmetic (at its
    rationalization), and the reported values and the maximum are exact ones.
    """
    if restarts < 1:
        raise ParameterError("restarts must be at least 1")
    rng = rng_stream(seed, 0xD15C)

    def f(x) -> float:
        d = discriminant_at(lam, x)
        if d is None:
            return -math.inf
        return d[objective]

    starts = [np.array(s, dtype=float) for s in extra_starts]
    while len(starts) < restarts:
        starts.append(rng.uniform(0.005, 0.65, size=4))

    records = []
    for x0 in starts[:max(restarts, len(extra_starts))]:
        _, x = _compass_max(f, x0)
        d = _exact_record(lam, x)
        gap = max(abs(x[0] - x[2]), abs(x[1] - x[3]))
        degenerate = gap < 0.02 or abs(d["scaled"]) < 1e-12
        records.append(
            {
                "exact": d["exact"],
                "value": d["raw"],
                "scaled": d["scaled"],
                "point": [float(v) for v in x],
                "collapse_gap": float(gap),
                "degenerate": bool(degenerate),
            }
        )

    key = "value" if objective == "raw" else "scaled"
    best = max(records, key=lambda r: r[key])
    nondeg = [r for r in records if not r["degenerate"]]
    best_nondeg = max(nondeg, key=lambda r: r[key]) if nondeg else None
    exact_best = best["exact"]
    return {
        "schema": SCHEMA,
        "experiment": "discriminant-max",
        "lambda": float(lam),
        "restarts": restarts,
        "objective": objective,
        "best_value": best[key],
        "best_point": best["point"],
        "best_value_exact_sign": (
            0 if exact_best == 0 else (1 if exact_best > 0 else -1)
        ),
        "best_value_exact": float(exact_best),
        "best_nondegenerate_value": best_nondeg[key] if best_nondeg else None,
        "best_nondegenerate_point": best_nondeg["point"] if best_nondeg else None,
        "degenerate_restarts": sum(r["degenerate"] for r in records),
        "positive_found": best["scaled"] > 1e-12,
        "restart_values": [r[key] for r in records],
    }


def experiment_lambda_threshold(
    lams: Sequence[float],
    restarts: int = 200,
    seed: int = 0,
    refine_steps: int = 0,
) -> dict:
    """Sign of the maximized (scaled) discriminant along a mixing-parameter grid.

    A grid value is marked "+" when some restart reaches a robustly positive
    scaled discriminant (> 1e-12), i.e. a genuine three-real-root instance;
    "-" means none was found. Reports the first sign-change bracket; optional
    bisection refinement narrows it.
    """
    lams = sorted(float(v) for v in lams)

    def probe(lam: float) -> dict:
        rep = experiment_discriminant_max(
            lam,
            restarts=restarts,
            seed=seed,
            extra_starts=[THREE_ROOTS_TUPLE],
            objective="scaled",
        )
        return {
            "lambda": lam,
            "best_scaled": rep["best_value"],
            "sign": "+" if rep["positive_found"] else "-",
        }

    rows = [probe(lam) for lam in lams]
    bracket = None
    for left, right in zip(rows, rows[1:]):
        if left["sign"] == "-" and right["sign"] == "+":
            bracket = [left["lambda"], right["lambda"]]
            break
    for _ in range(refine_steps if bracket else 0):
        mid = 0.5 * (bracket[0] + bracket[1])
        row = probe(mid)
        rows.append(row)
        if row["sign"] == "+":
            bracket[1] = mid
        else:
            bracket[0] = mid
    return {
        "schema": SCHEMA,
        "experiment": "lambda-threshold",
        "restarts": restarts,
        "grid": [r for r in sorted(rows, key=lambda r: r["lambda"])],
        "signs": [r["sign"] for r in sorted(rows, key=lambda r: r["lambda"])],
        "threshold_bracket": bracket,
    }


def _sweep_seeds(seed: int, trials: int) -> list:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(trials)]


def _sweep_one(args: tuple) -> dict:
    n, lam, tol, trial_seed = args
    model = random_instance(n, lam, trial_seed)
    rep = check_identifiability(model, tol=tol)
    return {
        "seed": trial_seed,
        "codes": list(rep.codes),
        "unique": rep.unique,
        "min_gate": min(rep.gate_values.values()) if rep.gate_values else None,
        "model": model_to_dict(model) if not rep.unique and "collapse" not in rep.codes else None,
    }


def _run_trials(worker, arglist: list, jobs: int) -> list:
    if jobs <= 1:
        return [worker(a) for a in arglist]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, arglist))


def experiment_identifiability_sweep(
    n: int,
    lam: float,
    trials: int,
    seed: int = 0,
    tol: float = RESIDUAL_TOL,
    jobs: int = 1,
) -> dict:
    """check_identifiability over seeded random instances; non-unique hits are
    dumped in full so candidate counterexamples survive the run."""
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    if not tol > 0:
        raise ParameterError("tol must be positive")
    counts = {"unique": 0, "non_unique": 0, "collapse": 0, "pair_multiplicity": 0}
    min_gates = []
    dumps = []
    args = [(n, lam, tol, ts) for ts in _sweep_seeds(seed, trials)]
    for res in _run_trials(_sweep_one, args, jobs):
        if "collapse" in res["codes"]:
            counts["collapse"] += 1
            continue
        if res["unique"]:
            counts["unique"] += 1
        else:
            counts["non_unique"] += 1
            dumps.append(
                {"seed": res["seed"], "model": res["model"], "codes": res["codes"]}
            )
        if "pair-multiplicity" in res["codes"]:
            counts["pair_multiplicity"] += 1
        if res["min_gate"] is not None:
            min_gates.append(res["min_gate"])
    gate_summary = {}
    if min_gates:
        arr = np.array(min_gates)
        gate_summary = {
            "min": float(arr.min()),
            "median": float(np.median(arr)),
            "max": float(arr.max()),
            "log10_histogram": {
                str(b): int(c)
                for b, c in zip(*_log_hist(arr))
            },
        }
    return {
        "schema": SCHEMA,
        "experiment": "identifiability-sweep",
        "n": n,
        "lambda": float(lam),
        "trials": trials,
        "counts": counts,
        "min_gate_summary": gate_summary,
        "non_unique_instances": dumps,
    }


def _log_hist(values: np.ndarray) -> tuple:
    logs = np.floor(np.log10(np.maximum(values, 1e-300))).astype(int)
    bins = sorted(set(logs.tolist()))
    return bins, [int((logs == b).sum()) for b in bins]


def experiment_sample_complexity(
    n: int,
    lam: float,
    eps_grid: Sequence[float],
    trials: int = 50,
    seed: int = 0,
    k: int = 4,
    grid_ratio: float = 2.0,
    start_size: int = 1000,
    jobs: int = 1,
) -> dict:
    """Smallest per-slate sample size reaching a 90% success rate, per
    accuracy level, plus the fitted exponent of size against 1/accuracy.

    The sample-size grid is geometric with the given ratio (doubling by
    default; sqrt(2) tightens the exponent fit at desk scale) and has at most
    40 steps from start_size, none above the 2^63 - 1 samples numpy can draw;
    an accuracy that no step reaches gets n_star None.
    """
    if trials < 1:
        raise ParameterError("trials must be at least 1")
    if not grid_ratio > 1:
        raise ParameterError("grid_ratio must exceed 1")
    if not all(e > 0 for e in eps_grid):
        raise ParameterError("every accuracy must be positive")
    # each trial's model is drawn once and reused at every (eps, size) step
    draws = [(regular_instance(n, lam, ts), ts) for ts in _sweep_seeds(seed, trials)]
    rows = []
    for eps in sorted((float(e) for e in eps_grid), reverse=True):
        size = float(start_size)
        found = None
        for _ in range(40):
            size_int = int(math.ceil(size))
            if size_int > np.iinfo(np.int64).max:
                break
            succ = _success_rate(draws, eps, size_int, k, jobs)
            if succ >= 0.9:
                found = (size_int, succ)
                break
            size *= grid_ratio
        if found is None:
            rows.append({"eps": eps, "n_star": None, "success": None})
        else:
            rows.append({"eps": eps, "n_star": found[0], "success": found[1]})
    fitted = None
    good = [(r["eps"], r["n_star"]) for r in rows if r["n_star"]]
    if len(good) >= 2:
        xs = np.log([1.0 / e for e, _ in good])
        ys = np.log([s for _, s in good])
        fitted = float(np.polyfit(xs, ys, 1)[0])
    constants = [r["n_star"] * r["eps"] ** 2 / n**3 for r in rows if r["n_star"]]
    return {
        "schema": SCHEMA,
        "experiment": "sample-complexity",
        "n": n,
        "lambda": float(lam),
        "trials": trials,
        "grid_ratio": grid_ratio,
        "rows": sorted(rows, key=lambda r: -r["eps"]),
        "fitted_exponent": fitted,
        "empirical_constant": float(np.median(constants)) if constants else None,
    }


def _learn_trial(args: tuple) -> bool:
    model, eps, size, k, ts = args
    cfg = LearnConfig(k=k, eps=eps, samples_per_slate=size, seed=ts)
    rep = learn_from_samples(model, cfg=cfg)
    return bool(
        rep.ok and rep.max_rel_error is not None and rep.max_rel_error <= eps
    )


def _success_rate(draws, eps, size, k, jobs: int = 1) -> float:
    """Share of the (model, seed) trials learned within eps at this size."""
    args = [(model, eps, size, k, ts) for model, ts in draws]
    wins = sum(_run_trials(_learn_trial, args, jobs))
    return wins / len(draws)


def sample_complexity_csv(report: dict) -> str:
    lines = ["eps,n_star,success"]
    for r in report["rows"]:
        n_star = "" if r["n_star"] is None else r["n_star"]
        succ = "" if r["success"] is None else f"{r['success']:.4f}"
        lines.append(f"{r['eps']},{n_star},{succ}")
    return "\n".join(lines) + "\n"


def experiment_counterexample(exact: bool = True) -> dict:
    """Verify the two-solution instance: the pair system including the
    two-item slate admits exactly the generating values and the companion
    pair, and the `pair:2` resultant gate that `check_identifiability`
    reports vanishes."""
    model = counterexample_model(exact)
    table = oracle_table(model, pair_slates(range(1, model.n + 1), 1, 2))
    sys = pair_system(table, 1, 2, include_pair=True)
    sols = solve_pair_system(sys, tol=1e-9)
    expected = [COUNTEREXAMPLE_A[:2] + COUNTEREXAMPLE_B[:2], COUNTEREXAMPLE_SECOND]
    found = [tuple(s.a) + tuple(s.b) for s in sols]
    if exact:
        matched = sorted(found) == sorted(expected)
    else:
        matched = len(found) == len(expected) and all(
            any(max(abs(float(x) - float(y)) for x, y in zip(f, e)) < 1e-9 for e in expected)
            for f in found
        )
    gate = check_identifiability(model).gate_values["pair:2"]
    return {
        "schema": SCHEMA,
        "experiment": "counterexample",
        "exact": exact,
        "solutions": [s.to_dict() for s in sols],
        "two_solutions": len(sols) == 2,
        "values_match": bool(matched),
        "pair_gate": gate,
        "gate_vanishes": gate <= 1e-8,
        "verdict": bool(len(sols) == 2 and matched and gate <= 1e-8),
    }


def experiment_three_roots(tol: float = 1e-3) -> dict:
    """Verify the three-real-roots witness: deflating the pair quartic at the
    generating pivot weight leaves a cubic with the three known roots."""
    a1, a2, b1, b2 = THREE_ROOTS_TUPLE
    cubic = pair_cubic_from_tuple(THREE_ROOTS_LAMBDA, a1, a2, b1, b2)
    roots = sorted(solve_all_roots(cubic).real_roots)
    disc = float(cubic_discriminant(cubic))
    exact_disc = discriminant_exact(THREE_ROOTS_LAMBDA, a1, a2, b1, b2)
    match = len(roots) == 3 and all(
        abs(r - e) <= tol for r, e in zip(roots, THREE_ROOTS_EXPECTED)
    )
    return {
        "schema": SCHEMA,
        "experiment": "three-roots",
        "roots": roots,
        "expected": list(THREE_ROOTS_EXPECTED),
        "discriminant": disc,
        "discriminant_exact_sign": 0 if exact_disc == 0 else (1 if exact_disc > 0 else -1),
        "verdict": bool(match and disc > 0 and exact_disc > 0),
    }
