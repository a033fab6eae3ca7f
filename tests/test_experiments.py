"""Experiment driver tests (desk-scale parameters for speed)."""

import ast
import math
from fractions import Fraction

import numpy as np
import pytest

from mnlmix import experiments as xp
from mnlmix.identify import check_identifiability
from mnlmix.model import ParameterError


def test_three_roots_witness_report():
    rep = xp.experiment_three_roots()
    assert rep["verdict"] is True
    assert rep["roots"] == pytest.approx([0.043916, 0.164599, 0.281671], abs=1e-3)
    assert rep["discriminant"] > 0
    assert rep["discriminant_exact_sign"] == 1


def test_counterexample_report_exact_and_double():
    exact = xp.experiment_counterexample(exact=True)
    assert exact["verdict"] is True
    assert exact["pair_gate"] == 0.0
    double = xp.experiment_counterexample(exact=False)
    assert double["verdict"] is True
    assert double["pair_gate"] <= 1e-8
    assert double["two_solutions"] and double["values_match"]


@pytest.mark.parametrize("exact", [True, False])
def test_counterexample_gate_is_the_reported_gate(exact):
    """The experiment's gate is the `pair:2` gate of identify's report."""
    rep = xp.experiment_counterexample(exact=exact)
    gates = check_identifiability(xp.counterexample_model(exact)).gate_values
    assert rep["pair_gate"] == gates["pair:2"]


def test_experiments_import_no_private_name():
    tree = ast.parse(open(xp.__file__).read())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for a in node.names]
    assert names and not [n for n in names if n.startswith("_")]


def test_discriminant_evaluators_agree():
    """`discriminant_at` on a rational tuple computes exactly what
    `discriminant_exact` and `_exact_record` compute, and a tuple that
    divides by zero gives None, -inf and a ZeroDivisionError."""
    lam, point = 5, (Fraction(1, 25), Fraction(1, 1000), Fraction(3, 50), Fraction(19, 20))
    exact = xp.discriminant_exact(lam, *point)
    assert exact > 0
    record = xp._exact_record(lam, point)
    assert record["exact"] == exact and record["raw"] == float(exact)
    assert xp.discriminant_at(lam, point) == {"raw": float(exact), "scaled": record["scaled"]}
    bad = (1.0, 0.0, 0.2, 0.3)
    assert xp.discriminant_at(2.0, bad) is None
    assert xp._exact_record(2.0, bad)["exact"] == -math.inf
    with pytest.raises(ZeroDivisionError):
        xp.discriminant_exact(2.0, *bad)


def test_discriminant_at_witness_positive():
    d = xp.discriminant_at(xp.THREE_ROOTS_LAMBDA, xp.THREE_ROOTS_TUPLE)
    assert d is not None and d["raw"] > 0 and d["scaled"] > 0


def test_discriminant_exact_zero_on_collapse():
    # the collapse set carries a structurally repeated root
    assert xp.discriminant_exact(2.0, 0.48, 0.26, 0.48, 0.26) == 0


def test_discriminant_exact_zero_on_symmetric_models():
    # models symmetric in the two off-pair items also sit on the variety
    assert xp.discriminant_exact(2.0, 0.58, 0.21, 0.48, 0.26) == 0


def test_discriminant_max_report_fields():
    rep = xp.experiment_discriminant_max(2.0, restarts=40, seed=3)
    assert rep["restarts"] == 40
    assert len(rep["restart_values"]) == 40
    assert rep["best_value"] == max(rep["restart_values"])
    # exact re-evaluation of the float optimum never certifies a positive
    # discriminant at lambda = 2
    assert rep["best_value_exact_sign"] <= 0
    assert not rep["positive_found"]


def test_discriminant_max_finds_positive_at_lambda5():
    rep = xp.experiment_discriminant_max(
        5.0, restarts=40, seed=3, extra_starts=[xp.THREE_ROOTS_TUPLE], objective="scaled"
    )
    assert rep["positive_found"]


def test_lambda_threshold_sign_pattern():
    rep = xp.experiment_lambda_threshold([2.0, 5.0], restarts=40, seed=1)
    assert rep["signs"] == ["-", "+"]
    assert rep["threshold_bracket"] == [2.0, 5.0]


def test_lambda_threshold_single_point():
    rep = xp.experiment_lambda_threshold([2.0], restarts=30, seed=1)
    assert rep["signs"] == ["-"]
    assert rep["threshold_bracket"] is None


def test_lambda_threshold_bisection_moves_the_upper_end():
    """The midpoint 5 of [2, 8] is already '+', so the bisection keeps the
    lower end and moves the upper one."""
    rep = xp.experiment_lambda_threshold([2.0, 8.0], restarts=10, seed=0, refine_steps=1)
    assert rep["signs"] == ["-", "+", "+"]
    assert [r["lambda"] for r in rep["grid"]] == [2.0, 5.0, 8.0]
    assert rep["threshold_bracket"] == [2.0, 5.0]


def test_lambda_threshold_refinement():
    rep = xp.experiment_lambda_threshold([2.0, 5.0], restarts=30, seed=1, refine_steps=1)
    assert rep["threshold_bracket"] is not None
    lo, hi = rep["threshold_bracket"]
    assert 2.0 <= lo < hi <= 5.0
    assert hi - lo <= 1.6


def test_identifiability_sweep_structure():
    rep = xp.experiment_identifiability_sweep(3, 2.0, trials=25, seed=5)
    c = rep["counts"]
    assert c["unique"] + c["non_unique"] + c["collapse"] == 25
    assert c["unique"] == 25
    assert rep["min_gate_summary"]["min"] > 0


def test_identifiability_sweep_deterministic():
    r1 = xp.experiment_identifiability_sweep(4, 2.0, trials=10, seed=9)
    r2 = xp.experiment_identifiability_sweep(4, 2.0, trials=10, seed=9)
    assert r1 == r2


def test_identifiability_sweep_counts_each_outcome(monkeypatch):
    """Collapse trials count only as collapse; a non-unique trial is dumped
    with its model and codes, pair multiplicity is counted on top, and only
    trials with gates enter the gate summary."""
    rows = [
        {"codes": ["collapse"], "unique": False, "min_gate": None, "model": None},
        {"codes": [], "unique": True, "min_gate": 1e-3, "model": None},
        {"codes": ["no-solution"], "unique": False, "min_gate": None, "model": {"n": 4}},
        {
            "codes": ["pair-multiplicity"], "unique": False, "min_gate": 1e-9,
            "model": {"n": 4},
        },
    ]
    seeds = xp._sweep_seeds(7, len(rows))
    by_seed = dict(zip(seeds, rows))
    monkeypatch.setattr(
        xp, "_sweep_one", lambda args: {"seed": args[3], **by_seed[args[3]]}
    )
    rep = xp.experiment_identifiability_sweep(4, 2.0, trials=len(rows), seed=7)
    assert rep["counts"] == {
        "unique": 1, "non_unique": 2, "collapse": 1, "pair_multiplicity": 1,
    }
    assert rep["non_unique_instances"] == [
        {"seed": seeds[2], "model": {"n": 4}, "codes": ["no-solution"]},
        {"seed": seeds[3], "model": {"n": 4}, "codes": ["pair-multiplicity"]},
    ]
    summary = rep["min_gate_summary"]
    assert (summary["min"], summary["max"]) == (1e-9, 1e-3)
    assert summary["log10_histogram"] == {"-9": 1, "-3": 1}


def test_identifiability_sweep_rejects_zero_trials():
    with pytest.raises(ParameterError, match="trials"):
        xp.experiment_identifiability_sweep(4, 2.0, trials=0, seed=0)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_identifiability_sweep_rejects_nonpositive_tol_before_any_trial(tol, monkeypatch):
    monkeypatch.setattr(xp, "_sweep_one", None)
    with pytest.raises(ParameterError, match="tol"):
        xp.experiment_identifiability_sweep(4, 2.0, trials=3, seed=0, tol=tol)


@pytest.mark.parametrize("kwargs", [
    {"trials": 0}, {"trials": -1}, {"grid_ratio": 1.0}, {"grid_ratio": 0.5},
    {"grid_ratio": float("nan")}, {"eps_grid": [0.2, 0.0]}, {"eps_grid": [-0.1]},
    {"eps_grid": [float("nan")]},
])
def test_sample_complexity_rejects_unusable_sizes(kwargs):
    """No trial gives no success rate, a grid that does not grow runs 40
    equal sizes, and no trial reaches an accuracy that is not positive: all
    are errors before any model is drawn."""
    with pytest.raises(ParameterError):
        xp.experiment_sample_complexity(4, 2.0, **{"eps_grid": [0.2], "trials": 3, **kwargs})


def test_discriminant_max_rejects_zero_restarts():
    with pytest.raises(ParameterError, match="restarts"):
        xp.experiment_discriminant_max(2.0, restarts=0)
    with pytest.raises(ParameterError, match="restarts"):
        xp.experiment_lambda_threshold([2.0, 5.0], restarts=0)


def test_sample_complexity_single_row():
    rep = xp.experiment_sample_complexity(
        4, 2.0, [0.2], trials=3, seed=0, start_size=4000
    )
    rows = rep["rows"]
    assert len(rows) == 1
    assert rows[0]["n_star"] is not None
    csv = xp.sample_complexity_csv(rep)
    lines = csv.strip().split("\n")
    assert lines[0] == "eps,n_star,success"
    assert len(lines) == 2


def test_sample_complexity_grid_ends_below_numpy_draw_limit():
    """At ratio 10 the grid reaches 10^18 samples; the next step, 10^19,
    passes 2^63 - 1, so the grid ends there and the unreached accuracy gets
    n_star None."""
    rep = xp.experiment_sample_complexity(4, 2.0, [1e-9], trials=1, grid_ratio=10)
    assert rep["rows"] == [{"eps": 1e-9, "n_star": None, "success": None}]
    assert rep["fitted_exponent"] is None and rep["empirical_constant"] is None
    assert xp.sample_complexity_csv(rep) == "eps,n_star,success\n1e-09,,\n"


def test_sample_complexity_scaling_shape():
    rep = xp.experiment_sample_complexity(
        4, 2.0, [0.2, 0.1], trials=8, seed=0, start_size=2000, grid_ratio=2.0
    )
    good = [r for r in rep["rows"] if r["n_star"]]
    assert len(good) == 2
    # quartering the accuracy costs roughly 4x the samples
    assert rep["fitted_exponent"] == pytest.approx(2.0, abs=1.0)


def test_regular_instance_constraints():
    m = xp.regular_instance(6, 2.0, 123)
    assert min(min(m.a.w), min(m.b.w)) * 6 >= 0.3
    assert min(abs(x - y) for x, y in zip(m.a.w, m.b.w)) >= 0.03


def test_counterexample_model_modes():
    exact = xp.counterexample_model(True)
    assert exact.exact
    dbl = xp.counterexample_model(False)
    assert not dbl.exact
    assert float(exact.a[0]) == dbl.a[0]


def test_discriminant_max_reports_exact_values():
    # floats near the variety round to either sign; the reported maximum is
    # the exact value at the rationalized endpoint
    rep = xp.experiment_discriminant_max(2.0, restarts=20, seed=0)
    assert rep["best_value"] == rep["best_value_exact"]
    assert rep["best_value"] <= 0
    assert rep["best_value_exact_sign"] <= 0
    point = rep["best_point"]
    assert rep["best_value"] == float(xp.discriminant_exact(2.0, *point))
