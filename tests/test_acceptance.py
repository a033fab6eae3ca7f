"""Acceptance suite: one test per criterion, asserted at stated tolerances.

Each test prints a single [PASS]/[FAIL] line with the measured values before
asserting. Two criteria still fail, each on a clause whose target nothing in
the repository settles (see the project README's "Acceptance status"
section): the discriminant-maximum band (criterion 3) and the resultant-gate
threshold (criterion 7, middle clause). The assertions are kept faithful to
the stated numbers rather than loosened to force a green run.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mnlmix import experiments as xp
from mnlmix.identify import check_identifiability, solve_pair_system
from mnlmix.learn import LearnConfig, learn_from_oracle, learn_from_samples
from mnlmix.model import (
    MixtureModel,
    Slate,
    all_slates,
    oracle_table,
    random_instance,
    sample_counts,
    slate_distribution,
)
from mnlmix.polynomials import (
    DEFAULT_TOL,
    RealPolynomial,
    count_real_roots_sturm,
    deflate_root,
    solve_all_roots,
)
from mnlmix.systems import pair_quartic, pair_system

F = Fraction


def _verdict(num, name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _seeds(master, count):
    return [int(s) for s in np.random.SeedSequence(master).generate_state(count)]


def test_criterion_1_counterexample_reproduction():
    """Two admissible pair-system candidates, bit-exact in rational mode and
    within 1e-9 in double mode; runtime < 1 s."""
    t0 = time.time()
    expected = [
        (F(2, 5), F(2, 5), F(3, 10), F(3, 10)),
        (F(5, 19), F(5, 19), F(7, 19), F(7, 19)),
    ]
    table = oracle_table(xp.counterexample_model(True), all_slates(4))
    sols = solve_pair_system(pair_system(table, 1, 2, include_pair=True))
    exact_ok = sorted(tuple(s.a) + tuple(s.b) for s in sols) == sorted(expected)

    dbl = MixtureModel.of([0.4, 0.4, 0.1, 0.1], [0.3, 0.3, 0.2, 0.2], 2.0)
    dtable = oracle_table(dbl, all_slates(4))
    dsols = solve_pair_system(pair_system(dtable, 1, 2, include_pair=True))
    double_ok = len(dsols) == 2 and all(
        min(
            max(abs(float(x) - float(e)) for x, e in zip(s.a + s.b, want))
            for want in expected
        ) <= 1e-9
        for s in dsols
    )
    elapsed = time.time() - t0
    _verdict(
        1,
        "counterexample reproduction",
        exact_ok and double_ok and elapsed < 1.0,
        f"exact={exact_ok} double={double_ok} runtime={elapsed:.2f}s",
    )


def test_criterion_2_three_real_roots_instance():
    """Deflated pair cubic of the three-roots witness has the three known
    real roots within 1e-3; runtime < 1 s."""
    t0 = time.time()
    rep = xp.experiment_three_roots(tol=1e-3)
    elapsed = time.time() - t0
    _verdict(
        2,
        "three-real-roots instance",
        rep["verdict"] and elapsed < 1.0,
        f"roots={[round(r, 6) for r in rep['roots']]} "
        f"disc={rep['discriminant']:.4g} runtime={elapsed:.2f}s",
    )


def test_criterion_3_discriminant_maximum():
    """Multistart maximum of the pair-cubic discriminant at lambda = 2 in
    [-0.0035, -0.0029], strictly negative; 500 restarts, runtime < 2 min.

    Still failing: the discriminant is exactly zero on interior degenerate
    varieties (collapse a = b; off-pair-symmetric models), so its supremum
    over the domain is 0, and the raw value depends on the scale of the
    cubic's coefficients, so the band has meaning only under a normalization
    and domain that PAPER.md does not give. The search reports the exact
    value at each endpoint; their maximum is -2.846e-47.
    """
    t0 = time.time()
    rep = xp.experiment_discriminant_max(2.0, restarts=500, seed=0)
    elapsed = time.time() - t0
    best = rep["best_value"]
    in_band = -0.0035 <= best <= -0.0029
    _verdict(
        3,
        "discriminant maximum",
        in_band and best < 0 and elapsed < 120,
        f"best={best:.3e} exact_recheck={rep['best_value_exact']:.3e} "
        f"degenerate_restarts={rep['degenerate_restarts']}/500 "
        f"runtime={elapsed:.0f}s (band [-0.0035, -0.0029] unattainable: "
        f"sup over the domain is 0 on degenerate varieties)",
    )


def test_criterion_4_oracle_learning_round_trip():
    """100 seeded instances per n in {4,5,6,8}, lambda in {0.5,1,2}:
    max relative error <= 1e-8 and queries - 3n constant; runtime < 2 min."""
    t0 = time.time()
    worst = 0.0
    constants = set()
    failures = 0
    for n in (4, 5, 6, 8):
        for lam in (0.5, 1.0, 2.0):
            for seed in _seeds((n, int(lam * 2)), 100):
                m = random_instance(n, lam, seed)
                rep = learn_from_oracle(m)
                if rep.max_rel_error is None or rep.max_rel_error > 1e-8:
                    failures += 1
                else:
                    worst = max(worst, rep.max_rel_error)
                constants.add(rep.queries_used - 3 * n)
    elapsed = time.time() - t0
    _verdict(
        4,
        "oracle learning round-trip",
        failures == 0 and len(constants) == 1 and elapsed < 120,
        f"failures={failures}/1200 worst_error={worst:.2e} "
        f"query_constant={sorted(constants)} runtime={elapsed:.0f}s",
    )


def test_criterion_5_sample_complexity():
    """(a) n=6, lambda=2, eps=0.05, N=ceil(8 n^3/eps^2) per queried slate:
    success (error <= eps) in >= 90% of 50 seeded trials; (b) fitted exponent
    of N* versus 1/eps over eps in {0.1, 0.05, 0.025} in [1.7, 2.3];
    runtime < 15 min.

    Clause (a) passes once the learner keeps, among the starts of its block
    basins, the fit with the lowest loss on all sampled rows, and samples
    each tail item in 2-slates with the block items as well.
    """
    t0 = time.time()
    n, lam, eps = 6, 2.0, 0.05
    size = math.ceil(8 * n**3 / eps**2)
    wins = 0
    trials = _seeds(0, 50)
    for ts in trials:
        m = xp.regular_instance(n, lam, ts)
        rep = learn_from_samples(m, cfg=LearnConfig(eps=eps, samples_per_slate=size, seed=ts))
        if rep.ok and rep.max_rel_error is not None and rep.max_rel_error <= eps:
            wins += 1
    rate = wins / len(trials)

    curve = xp.experiment_sample_complexity(
        n, lam, [0.1, 0.05, 0.025], trials=50, seed=0,
        grid_ratio=math.sqrt(2.0), start_size=20000,
    )
    slope = curve["fitted_exponent"]
    elapsed = time.time() - t0
    ok = rate >= 0.9 and slope is not None and 1.7 <= slope <= 2.3 and elapsed < 900
    _verdict(
        5,
        "sample complexity",
        ok,
        f"success_rate={rate:.0%} at N=8n^3/eps^2 (needs >=90%); "
        f"fitted_exponent={slope:.3f} (band [1.7, 2.3]); "
        f"calibrated_constant={curve['empirical_constant']:.1f} "
        f"runtime={elapsed:.0f}s",
    )


def test_criterion_6_solver_validity_suite():
    """10^4 random cubics and quartics: `solve_all_roots`' real-root counts
    (companion-matrix eigenvalues) match Sturm counts (skip rate < 1% for near-multiple roots), and residuals stay
    within 1e-10 scaled; runtime < 1 min."""
    t0 = time.time()
    rng = np.random.default_rng(2024)
    skipped = mismatches = bad_residuals = 0
    total = 10000
    lo, hi = -20.0, 20.0
    for k in range(total):
        degree = 3 if k % 2 == 0 else 4
        while True:
            c = rng.uniform(-1, 1, size=degree + 1)
            if abs(c[-1]) > 1e-3:
                break
        p = RealPolynomial.of(list(c)).scaled_to_unit()
        rs = solve_all_roots(p)
        for r in rs.roots:
            if abs(p(r)) > 1e-10 * max(1.0, abs(r)) ** degree:
                bad_residuals += 1
        sep = min(
            (abs(x - y) for i, x in enumerate(rs.roots) for y in rs.roots[i + 1:]),
            default=1.0,
        )
        if sep < 10 * DEFAULT_TOL.tau_imag:
            skipped += 1
            continue
        got = len([r for r in rs.real_roots if lo < r <= hi])
        if got != count_real_roots_sturm(p, lo, hi):
            mismatches += 1
    elapsed = time.time() - t0
    ok = (
        mismatches == 0
        and bad_residuals == 0
        and skipped / total < 0.01
        and elapsed < 60
    )
    _verdict(
        6,
        "solver validity suite",
        ok,
        f"mismatches={mismatches} bad_residuals={bad_residuals} "
        f"skip_rate={skipped / total:.3%} runtime={elapsed:.0f}s "
        f"(residual scale 1e-10 * sup-norm * max(1,|r|)^deg)",
    )


def test_criterion_7_identifiability_gate_soundness():
    """1000 generic seeded n=4 instances report unique=true with every scaled
    resultant gate above 1e-4; the embedded counterexample's pair-level gate
    stays at or below 1e-8; runtime < 5 min.

    Still failing on the gate clause only: the roots of each deflated pair
    cubic lie within about 0.05 of the pin value c_1/(1+lambda), so the
    coefficient-scaled resultant, a product of nine root differences, is
    tiny by construction (median about 1e-11, minimum 1.7e-32), and nothing
    in the repository says which scaling the criterion means. All 1000
    draws are unique: one pair-level flag with residual 1.96e-9 under
    tol = 1e-8 (seed 3652574863) is refuted by the exact gcd certificate.
    """
    t0 = time.time()
    non_unique = 0
    min_gate = float("inf")
    for ts in _seeds(0, 1000):
        m = random_instance(4, 2.0, ts)
        rep = check_identifiability(m)
        if not rep.unique:
            non_unique += 1
        if rep.gate_values:
            min_gate = min(min_gate, min(rep.gate_values.values()))
    ce = check_identifiability(xp.counterexample_model(True))
    ce_gate = ce.gate_values.get("pair:2", float("inf"))
    elapsed = time.time() - t0
    ok = (
        non_unique == 0
        and min_gate > 1e-4
        and ce_gate <= 1e-8
        and elapsed < 300
    )
    _verdict(
        7,
        "identifiability gate soundness",
        ok,
        f"unique={1000 - non_unique}/1000 min_scaled_gate={min_gate:.2e} "
        f"(needs > 1e-4) counterexample_pair_gate={ce_gate:.1e} "
        f"runtime={elapsed:.0f}s",
    )


def test_criterion_8_empirical_concentration():
    """n=10, N=10 n^3: sup-norm error of the empirical slate distribution is
    within sqrt(n/N) in >= 90% of 200 trials; runtime < 1 min."""
    t0 = time.time()
    n, trials = 10, 200
    size = 10 * n**3
    m = random_instance(n, 2.0, 77)
    slate = Slate.of(range(1, n + 1))
    truth = np.array(slate_distribution(m, slate))
    bound = math.sqrt(n / size)
    hits = 0
    for seed in range(trials):
        emp = np.array(sample_counts(m, slate, size, seed)) / size
        if np.max(np.abs(emp - truth)) <= bound:
            hits += 1
    elapsed = time.time() - t0
    _verdict(
        8,
        "empirical concentration",
        hits >= 0.9 * trials and elapsed < 60,
        f"hits={hits}/{trials} bound={bound:.4f} runtime={elapsed:.0f}s",
    )
