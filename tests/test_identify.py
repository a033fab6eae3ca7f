"""Solution enumeration and identifiability-report tests."""

import dataclasses
import math
import random
from fractions import Fraction
from itertools import combinations, compress, permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mnlmix.identify as identify
from mnlmix.identify import (
    CandidateSolution,
    _close,
    check_identifiability,
    enumerate_candidates,
    exact_model,
    identify_slates,
    pair_certified_unique,
    solve_pair_system,
)
from mnlmix.model import (
    MixtureModel,
    OracleTable,
    ParameterError,
    Slate,
    all_slates,
    oracle_table,
    random_instance,
)
from mnlmix.polynomials import (
    X,
    Coeffs,
    NotARootError,
    PolynomialShapeError,
    RealPolynomial,
    deflate_root,
    sylvester_resultant,
    sylvester_resultants,
)
from mnlmix.systems import (
    DROP_DEN_GUARD,
    DegenerateBranchSignal,
    PairSystemInput,
    back_substitute,
    cleared_pair_quartic,
    cleared_pair_slate_quartic,
    pair_quartic,
    pair_slate_quartic,
    pair_system,
    partner_value,
    resultant_gate,
)

F = Fraction


def counterexample():
    return MixtureModel.of(
        [F(2, 5), F(2, 5), F(1, 10), F(1, 10)],
        [F(3, 10), F(3, 10), F(1, 5), F(1, 5)],
        F(2),
    )


def float_counterexample():
    m = counterexample()
    return MixtureModel.of([float(v) for v in m.a.w], [float(v) for v in m.b.w], 2.0)


def test_counterexample_pair_system_exact():
    m = counterexample()
    table = oracle_table(m, all_slates(4))
    sols = solve_pair_system(pair_system(table, 1, 2, include_pair=True))
    assert len(sols) == 2
    tuples = sorted(tuple(s.a) + tuple(s.b) for s in sols)
    assert tuples == [
        (F(5, 19), F(5, 19), F(7, 19), F(7, 19)),
        (F(2, 5), F(2, 5), F(3, 10), F(3, 10)),
    ]
    assert all(s.residual <= 1e-10 for s in sols)


def test_counterexample_pair_system_double():
    m = MixtureModel.of(
        [0.4, 0.4, 0.1, 0.1], [0.3, 0.3, 0.2, 0.2], 2.0
    )
    table = oracle_table(m, all_slates(4))
    sols = solve_pair_system(pair_system(table, 1, 2, include_pair=True))
    assert len(sols) == 2
    got = sorted((float(s.b[0]) for s in sols))
    assert got == pytest.approx([0.3, 7 / 19], abs=1e-9)


@pytest.mark.parametrize("seed", range(30))
def test_generic_pair_system_singleton(seed):
    m = random_instance(4, 2.0, seed)
    table = oracle_table(m, all_slates(4))
    sols = solve_pair_system(pair_system(table, 1, 2, include_pair=True))
    assert len(sols) == 1
    s = sols[0]
    truth = (m.a[0], m.a[1], m.b[0], m.b[1])
    assert tuple(map(float, s.a + s.b)) == pytest.approx(truth, abs=1e-8)


def test_pair_system_truth_always_contained():
    for seed in range(20):
        m = random_instance(5, 0.7, seed)
        table = oracle_table(m, all_slates(5, min_size=4) + [Slate.of([2, 3])])
        sols = solve_pair_system(pair_system(table, 2, 3, include_pair=True))
        truth = (m.a[1], m.a[2], m.b[1], m.b[2])
        best = min(
            max(abs(float(x) - t) for x, t in zip(s.a + s.b, truth)) for s in sols
        )
        assert best <= 1e-8


@pytest.mark.parametrize("seed", range(20))
def test_solve_3item_generic_singleton(seed):
    m = random_instance(3, 2.0, seed)
    table = oracle_table(m, all_slates(3))
    sols = enumerate_candidates(table, (1, 2, 3))
    assert len(sols) == 1
    got = tuple(map(float, sols[0].a + sols[0].b))
    assert got == pytest.approx(m.a.w + m.b.w, abs=1e-8)
    assert sols[0].residual <= 1e-10


def test_solve_3item_uniform_mixture_swap_pair():
    m = random_instance(3, 1.0, 4)
    table = oracle_table(m, all_slates(3))
    sols = enumerate_candidates(table, (1, 2, 3))
    assert len(sols) == 2
    flat = sorted(tuple(map(float, s.a + s.b)) for s in sols)
    direct = m.a.w + m.b.w
    swapped = m.b.w + m.a.w
    expect = sorted([direct, swapped])
    for got, want in zip(flat, expect):
        assert got == pytest.approx(want, abs=1e-8)


def _grid_search_3item(table, lam, step=2e-3):
    """Independent 2-D brute force over (b1, b2): vectorized residuals over
    every oracle equation, local minima refined by coordinate descent."""
    items = (1, 2, 3)
    c_full = {i: float(table.value_for(Slate.of(items), i)) for i in items}
    b1, b2 = np.meshgrid(
        np.arange(step, 1.0, step), np.arange(step, 1.0, step), indexing="ij"
    )
    a1 = c_full[1] - lam * b1
    a2 = c_full[2] - lam * b2
    b3 = 1 - b1 - b2
    a3 = 1 - c_full[1] - c_full[2] + lam * (b1 + b2)
    worst = np.zeros_like(b1)
    for slate_items, values in table.entries.items():
        sa = sum({1: a1, 2: a2, 3: a3}[i] for i in slate_items)
        sb = sum({1: b1, 2: b2, 3: b3}[i] for i in slate_items)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i, c in zip(slate_items, values):
                ai = {1: a1, 2: a2, 3: a3}[i]
                bi = {1: b1, 2: b2, 3: b3}[i]
                err = np.abs(ai / sa + lam * (bi / sb) - float(c))
                worst = np.maximum(worst, np.nan_to_num(err, nan=np.inf))
    adm = (
        (a1 > -1e-9) & (a1 < 1 + 1e-9) & (a2 > -1e-9) & (a2 < 1 + 1e-9)
        & (a3 > -1e-9) & (a3 < 1 + 1e-9) & (b3 > -1e-9) & (b3 < 1 + 1e-9)
    )
    worst = np.where(adm, worst, np.inf)
    found = []

    from mnlmix.identify import _polish_pair

    sys01 = pair_system(table, 1, 2)

    def refine(x, y):
        x, y = _polish_pair(sys01, x, y, steps=40)
        return x, y, _residual_at(table, lam, c_full, x, y)

    # refine the best few hundred cells: grid resolution caps how small the
    # residual can get at the nearest cell, so no absolute threshold works;
    # refinement separates true solutions from bystanders
    order = np.argsort(worst, axis=None)
    taken = np.zeros(worst.shape, dtype=bool)
    tried = 0
    for flat in order[: 20000]:
        ix, iy = np.unravel_index(flat, worst.shape)
        if not np.isfinite(worst[ix, iy]):
            break
        if taken[max(ix - 3, 0):ix + 4, max(iy - 3, 0):iy + 4].any():
            continue
        taken[ix, iy] = True
        tried += 1
        x, y, res = refine(b1[ix, iy], b2[ix, iy])
        if res < 1e-7:
            found.append((x, y))
        if tried >= 200:
            break
    merged = []
    for x, y in found:
        if not any(abs(x - u) < 1e-4 and abs(y - v) < 1e-4 for u, v in merged):
            merged.append((x, y))
    return merged


def _residual_at(table, lam, c_full, x, y):
    a1 = c_full[1] - lam * x
    a2 = c_full[2] - lam * y
    b3 = 1 - x - y
    a3 = 1 - c_full[1] - c_full[2] + lam * (x + y)
    vals = {1: (a1, x), 2: (a2, y), 3: (a3, b3)}
    if any(v < -1e-9 or v > 1 + 1e-9 for pair in vals.values() for v in pair):
        return np.inf
    worst = 0.0
    for slate_items, values in table.entries.items():
        sa = sum(vals[i][0] for i in slate_items)
        sb = sum(vals[i][1] for i in slate_items)
        if sa <= 0 or sb <= 0:
            return np.inf
        for i, c in zip(slate_items, values):
            worst = max(worst, abs(vals[i][0] / sa + lam * (vals[i][1] / sb) - float(c)))
    return worst


@pytest.mark.parametrize("seed", range(50))
def test_solve_3item_matches_grid_search(seed):
    m = random_instance(3, 2.0, seed)
    table = oracle_table(m, all_slates(3))
    sols = enumerate_candidates(table, (1, 2, 3))
    brute = _grid_search_3item(table, 2.0)
    assert len(sols) == len(brute)
    for s in sols:
        b1, b2 = float(s.b[0]), float(s.b[1])
        assert min(abs(b1 - x) + abs(b2 - y) for x, y in brute) <= 1e-4


def test_check_identifiability_generic_n3():
    for seed in range(20):
        rep = check_identifiability(random_instance(3, 2.0, seed))
        assert rep.unique and rep.exit_code == 0


def test_check_identifiability_generic_n4():
    for seed in range(50):
        rep = check_identifiability(random_instance(4, 2.0, seed))
        assert rep.unique
        truth_found = any(
            s.level == "full"
            and max(abs(float(x) - t) for x, t in zip(s.a + s.b, rep.solutions[0].a + rep.solutions[0].b)) == 0
            for s in rep.solutions
        )
        assert truth_found


def test_check_identifiability_ground_truth_residual():
    for seed in range(20):
        m = random_instance(4, 1.5, seed)
        rep = check_identifiability(m)
        full = [s for s in rep.solutions if s.level == "full"]
        best = min(
            max(abs(float(x) - t) for x, t in zip(s.a + s.b, m.a.w + m.b.w))
            for s in full
        )
        assert best <= 1e-8
        assert min(s.residual for s in full) <= 1e-10


def test_check_identifiability_counterexample():
    rep = check_identifiability(counterexample())
    assert not rep.unique
    assert rep.exit_code == 2
    assert "pair-multiplicity" in rep.codes
    pair_sols = [s for s in rep.solutions if s.level == "pair"]
    assert any(
        tuple(s.a) == (F(5, 19), F(5, 19)) and tuple(s.b) == (F(7, 19), F(7, 19))
        for s in pair_sols
    )
    # the full system stays uniquely solved by the generating weights
    full = [s for s in rep.solutions if s.level == "full"]
    assert len(full) == 1
    # pair-level gate vanishes
    assert rep.gate_values["pair:2"] <= 1e-8


def test_check_identifiability_uniform_mixture_swap():
    m = random_instance(3, 1.0, 9)
    rep = check_identifiability(m)
    assert rep.unique
    assert rep.swap_note


def test_check_identifiability_collapse():
    w = [0.5, 0.3, 0.2]
    rep = check_identifiability(MixtureModel.of(w, w, 2.0))
    assert not rep.unique
    assert rep.codes == ("collapse",)
    assert rep.exit_code == 3


def test_swap_closure_uniform_mixture():
    m = random_instance(3, 1.0, 17)
    table = oracle_table(m, all_slates(3))
    sols = enumerate_candidates(table, (1, 2, 3))
    flats = [tuple(map(float, s.a + s.b)) for s in sols]
    for s in sols:
        swapped = tuple(map(float, s.b + s.a))
        assert any(
            max(abs(x - y) for x, y in zip(swapped, f)) <= 1e-8 for f in flats
        )


def test_gates_vanish_under_solution_multiplicity():
    # the uniform mixture's swap companion is a genuine second solution of
    # the joint system, so every deflated-cubic pair shares a root and every
    # gate collapses
    for seed in (9, 21):
        rep = check_identifiability(random_instance(4, 1.0, seed))
        assert rep.swap_note
        assert all(v <= 1e-6 for v in rep.gate_values.values())


def test_report_json_shape():
    rep = check_identifiability(random_instance(4, 2.0, 2))
    d = rep.to_dict()
    assert set(d) == {"unique", "solutions", "gates", "swap_note", "codes"}
    assert isinstance(d["solutions"], list) and d["solutions"]
    sol = d["solutions"][0]
    assert set(sol) >= {"items", "a", "b", "residual", "admissible", "level"}


def test_near_tolerance_pair_flag_certified():
    """Items 2 and 3 are nearly collapsed here, and the float scan finds a
    second (2, 3) candidate with residual 1.96e-9 under tol = 1e-8; in the
    exact rational model the two pair quartics share only the true root."""
    m = random_instance(4, 2.0, 3652574863)
    rep = check_identifiability(m)
    assert rep.unique
    assert rep.exit_code == 0
    assert "pair-certified" in rep.codes
    assert "pair-multiplicity" not in rep.codes
    assert all(pair_certified_unique(m, i, j) for i in range(1, 5) for j in range(i + 1, 5))


def test_codes_are_listed_once():
    """Near the counterexample two pairs carry a pair-level extra that the
    exact certificate clears: the report lists `pair-certified` once."""
    a = [F(2, 5) + F(1, 10**8), F(2, 5), F(1, 10), F(1, 10) - F(1, 10**8)]
    rep = check_identifiability(MixtureModel.of(a, counterexample().b.w, F(2)))
    assert rep.codes == ("pair-certified",)
    assert rep.unique


def test_pair_extras_listed_per_pair_in_scan_order():
    """a = (1/50, 1/50, 1/50, 1/50, 23/25), b = (1/25, 1/25, 1/25, 1/25,
    21/25), lambda = 2 has a second solution on every pair among items 1 to
    4: the report lists each pair's own extra, pair by pair in scan order,
    after the full class."""
    m = MixtureModel.of([F(1, 50)] * 4 + [F(23, 25)], [F(1, 25)] * 4 + [F(21, 25)], F(2))
    rep = check_identifiability(m)
    assert rep.codes == ("pair-multiplicity",) and not rep.unique
    full, *extras = rep.solutions
    assert full.level == "full" and [s.level for s in extras] == ["pair"] * 6
    assert [s.items for s in extras] == list(combinations(range(1, 5), 2))
    table = oracle_table(m, identify_slates(5))
    for s in extras:
        assert s in solve_pair_system(pair_system(table, *s.items, include_pair=True))


def test_full_multiplicity_lists_every_full_class_first(monkeypatch):
    """Two full classes make the report non-unique, exit 2, with
    `full-multiplicity` listed once; both classes come before the pair
    extras."""
    enumerate_ = identify._enumerate

    def two_classes(*args):
        (truth,) = enumerate_(*args)
        return [truth, dataclasses.replace(truth, a=truth.b, b=truth.a)]

    monkeypatch.setattr(identify, "_enumerate", two_classes)
    rep = check_identifiability(counterexample())
    assert not rep.unique and rep.exit_code == 2
    assert rep.codes == ("full-multiplicity", "pair-multiplicity")
    assert [s.level for s in rep.solutions] == ["full", "full", "pair", "pair"]


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_check_identifiability_rejects_nonpositive_tol(tol):
    with pytest.raises(ParameterError, match="tol"):
        check_identifiability(counterexample(), tol=tol)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_public_solvers_reject_nonpositive_tol(tol):
    """`enumerate_candidates` and `solve_pair_system` reject a tolerance
    that is not positive, as `check_identifiability` does, rather than
    return no solution."""
    table = oracle_table(random_instance(4, 2.0, 0), identify_slates(4))
    with pytest.raises(ParameterError, match="tol must be positive"):
        enumerate_candidates(table, (1, 2, 3, 4), tol=tol)
    with pytest.raises(ParameterError, match="tol must be positive"):
        solve_pair_system(pair_system(table, 1, 2, include_pair=True), tol=tol)


@pytest.mark.parametrize("failure", ["zero-gcd", "sturm-degenerate"])
def test_unproven_pair_certificate_counts_pair_multiplicity(monkeypatch, failure):
    """The near-tolerance (2, 3) extra of `test_near_tolerance_pair_flag_certified`
    is certified only while the exact proof goes through. A zero gcd, or a
    Sturm count that raises `DegenerateInputError`, leaves it unproven:
    `pair_certified_unique` returns False and the report counts the extra
    as `pair-multiplicity`."""
    m = random_instance(4, 2.0, 3652574863)
    gcd = identify.poly_gcd
    if failure == "zero-gcd":
        monkeypatch.setattr(identify, "poly_gcd", lambda p, q: RealPolynomial.of([F(0)]))
    else:
        # a common root at 3, outside the band, sends the proof to the Sturm count
        monkeypatch.setattr(
            identify, "poly_gcd", lambda p, q: RealPolynomial.of(Coeffs(gcd(p, q).coeffs) * (X - 3))
        )
        assert pair_certified_unique(m, 2, 3)

        def degenerate(*args):
            raise identify.DegenerateInputError("endpoint stays a root")

        monkeypatch.setattr(identify, "count_real_roots_sturm", degenerate)
    assert not pair_certified_unique(m, 2, 3)
    rep = check_identifiability(m)
    assert rep.codes == ("pair-multiplicity",)
    assert not rep.unique and rep.exit_code == 2
    assert [(s.level, s.items) for s in rep.solutions[1:]] == [("pair", (2, 3))]


def test_homogeneous_is_the_scaled_value():
    """`_homogeneous(c, p, q)` is p(p/q) q^d, which `_rationalize_root` and
    `_newton_step` both read."""
    ints = [6, -5, 0, 7, -3]
    for p, q in ((0, 1), (3, 2), (-5, 7), (2, 1)):
        value = sum(c * F(p, q) ** k for k, c in enumerate(ints)) * q**4
        assert identify._homogeneous(ints, p, q) == value
    # 2/3 is a root of (3x - 2)(x + 1) = 3x^2 + x - 2
    assert identify._homogeneous([-2, 1, 3], 2, 3) == 0


@pytest.mark.parametrize("exact", [True, False])
def test_counterexample_not_certified(exact):
    m = counterexample()
    if not exact:
        m = MixtureModel.of([float(v) for v in m.a.w], [float(v) for v in m.b.w], 2.0)
    # the pair quartics share the two roots 3/10 and 7/19 in the band
    assert not pair_certified_unique(m, 1, 2)
    rep = check_identifiability(m)
    assert not rep.unique
    assert "pair-multiplicity" in rep.codes
    assert "pair-certified" not in rep.codes
    assert rep.gate_values["pair:2"] <= 1e-8


def test_exact_model_of_float_weights():
    m = random_instance(4, 2.0, 5)
    ex = exact_model(m)
    assert ex.exact and sum(ex.a.w) == 1 and sum(ex.b.w) == 1
    assert [float(v) for v in ex.a.w[:-1]] == list(m.a.w[:-1])
    assert exact_model(counterexample()) == counterexample()


def _truth_among_full(rep, m):
    truth = m.a.w + m.b.w
    return any(
        s.level == "full" and _close(s.a + s.b, truth) for s in rep.solutions
    )


def test_pinned_pivot_extension_polished():
    """b_1 lies 1e-4 from the pin c_1 / (1 + lambda), so the partner maps'
    denominators are about -6e-4 and amplify the 2e-13 pivot error into full
    residuals near 1.5e-8 > tol; polishing each b_j on its own pair system
    keeps the truth's residual far below tol."""
    m = random_instance(14, 2.0, 73186270)
    rep = check_identifiability(m)
    assert rep.unique and rep.codes == ()
    assert _truth_among_full(rep, m)
    assert rep.solutions[0].residual <= 1e-10


@pytest.mark.parametrize("n", [3, 5, 6, 8])
def test_budget_reads_only_pair_drop_and_full_slates(n, monkeypatch):
    requests = []

    def spy(model, slates):
        slates = list(slates)
        requests.append(slates)
        return oracle_table(model, slates)

    monkeypatch.setattr(identify, "oracle_table", spy)
    for seed in range(3):
        requests.clear()
        m = random_instance(n, 2.0, seed)
        rep = check_identifiability(m)
        assert rep.unique
        assert _truth_among_full(rep, m)
        budget = requests[0]
        assert len(set(budget)) == len(budget)
        assert len(budget) == (4 if n == 3 else n * (n - 1) // 2 + n + 1)
        assert {len(s) for s in budget} == {2, n - 1, n}


_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(
    st.sampled_from([4, 5, 6]).flatmap(
        lambda n: st.tuples(
            st.integers(0, 2**32 - 1),
            st.sampled_from([0.5, 2.0, 3.0]),
            st.permutations(range(n)),
        )
    )
)
def test_relabelling_items_keeps_verdict(case):
    seed, lam, perm = case
    m = random_instance(len(perm), lam, seed)
    relabelled = MixtureModel.of(
        [m.a[p] for p in perm], [m.b[p] for p in perm], m.lam
    )
    rep, rep_perm = check_identifiability(m), check_identifiability(relabelled)
    assert rep_perm.unique == rep.unique
    assert _truth_among_full(rep_perm, relabelled)


@_PROPERTY
@given(
    st.sampled_from([4, 5, 6]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)
def test_component_swap_keeps_verdict(n, seed, lam):
    m = random_instance(n, lam, seed)
    swapped = MixtureModel.of(m.b.w, m.a.w, 1 / m.lam)
    rep_swap = check_identifiability(swapped)
    assert rep_swap.unique == check_identifiability(m).unique
    # at lambda = 1 the report keeps one representative of each swap class
    assert _truth_among_full(rep_swap, swapped) or (
        lam == 1.0 and _truth_among_full(rep_swap, m)
    )


def _reference_full_residual(a, b, lam, oracle, items):
    """The per-candidate loop that `full_residual` batches: Python's `sum`
    over each slate, inf at the first slate with a non-positive sum."""
    pos = {it: idx for idx, it in enumerate(items)}
    errs = [abs(sum(a) - 1), abs(sum(b) - 1)]
    for slate_items, values in oracle.entries.items():
        sa = sum(a[pos[i]] for i in slate_items)
        sb = sum(b[pos[i]] for i in slate_items)
        if float(sa) <= 0 or float(sb) <= 0:
            return float("inf")
        for i, c in zip(slate_items, values):
            errs.append(abs(a[pos[i]] / sa + lam * (b[pos[i]] / sb) - c))
    return float(max(errs))


_FLOAT_WEIGHT = st.floats(-0.1, 1.0, allow_nan=False)
_FRACTION_WEIGHT = st.fractions(F(-1, 10), 1, max_denominator=1000)
_CANDIDATE_WEIGHT = {
    "float": _FLOAT_WEIGHT,
    "fraction": _FRACTION_WEIGHT,
    "mixed": st.one_of(_FLOAT_WEIGHT, _FRACTION_WEIGHT),
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.data(),
    st.sampled_from([3, 4, 5]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([2.0, 0.7, F(3, 2)]),
    st.booleans(),
    st.sampled_from(sorted(_CANDIDATE_WEIGHT)),
)
def test_batched_full_residual_matches_candidate_loop(data, n, seed, lam, exact, kind):
    """`full_residual` on stacked candidates equals the per-candidate loop
    bitwise, on float and Fraction tables and on float, Fraction and mixed
    weights; a candidate with a non-positive slate sum gets inf."""
    m = random_instance(n, float(lam), seed)
    m = MixtureModel.of(m.a.w, m.b.w, lam)
    if exact:
        m = exact_model(m)
    table = oracle_table(m, all_slates(n))
    items = tuple(range(1, n + 1))
    weights = st.lists(_CANDIDATE_WEIGHT[kind], min_size=n, max_size=n)
    cands = [
        (data.draw(weights), data.draw(weights)) for _ in range(data.draw(st.integers(1, 4)))
    ]
    if data.draw(st.booleans()):
        cands.append((list(m.a.w), list(m.b.w)))
    if data.draw(st.booleans()):
        # the slate {1, 2} sums to zero under b
        b = cands[0][1]
        b[1] = -b[0]
    floats = all(isinstance(v, float) for a, b in cands for v in a + b)
    a, b = (np.array(w, dtype=float if floats else object) for w in zip(*cands))
    got = identify.full_residual(a, b, table, items)
    want = [_reference_full_residual(a, b, m.lam, table, items) for a, b in cands]
    assert [r.hex() for r in got.tolist()] == [r.hex() for r in want]


def test_full_residual_on_mixed_stacks():
    """One object stack on an exact table holds all-Fraction rows, which
    run in integers, and float-bearing rows, which keep object arithmetic;
    each equals the per-candidate loop bitwise, the truth row scores 0.0
    and a row with a non-positive slate sum inf."""
    m = counterexample()
    table = oracle_table(m, all_slates(4))
    items = (1, 2, 3, 4)
    truth = (list(m.a.w), list(m.b.w))
    fraction = ([F(1, 3), F(1, 4), F(1, 5), F(13, 60)], [F(2, 7), F(1, 7), F(3, 7), F(1, 7)])
    floats = ([0.25, F(1, 4), F(1, 4), F(1, 4)], [F(1, 4), 0.25, F(1, 4), F(1, 4)])
    # the slate {1, 2} sums to zero under b, in Fractions and with a float
    zero_sum = (truth[0], [F(3, 10), F(-3, 10), F(1, 2), F(1, 2)])
    zero_sum_float = (truth[0], [0.3, -0.3, F(1, 2), F(1, 2)])
    cands = [truth, fraction, floats, zero_sum, zero_sum_float, truth]
    a, b = (np.array(w, dtype=object) for w in zip(*cands))
    got = identify.full_residual(a, b, table, items).tolist()
    want = [_reference_full_residual(a, b, m.lam, table, items) for a, b in cands]
    assert [r.hex() for r in got] == [r.hex() for r in want]
    assert got[0] == got[-1] == 0.0
    assert got[3] == got[4] == float("inf")
    assert 0 < got[1] < float("inf") and 0 < got[2] < float("inf")


def _twelve_try_rationalize(poly, r):
    """The rationalization loop `_rationalize_root` shortens: one exact
    Newton step from r, then every `limit_denominator` candidate of its
    result takes an exact evaluation, and a root counts within d times the
    step of r."""
    x = Fraction(r)
    slope = poly.derivative()(x)
    target = x - poly(x) / slope if slope else x
    for digits in range(1, 13):
        cand = target.limit_denominator(10**digits)
        if poly(cand) == 0 and abs(cand - x) <= poly.degree * abs(target - x):
            return cand
    return None


# denominators from 1 to 10^13, some past the 10^12 that the loop reaches
_ROOT_DENOMINATOR = st.one_of(
    st.integers(1, 12),
    st.integers(1, 10**6),
    st.integers(10**6, 10**12),
    st.integers(10**12, 10**13),
)


@st.composite
def _planted_quartic(draw):
    """(coefficients, queried root) of a planted quartic: a product of
    rational linear factors, x (a root at 0, zero constant term) and
    x^2 - k s^2 with non-square k (roots +-s sqrt(k)), times a nonzero
    Fraction or cleared to integers; the query is a float near one of its
    roots."""

    def rational():
        q = draw(_ROOT_DENOMINATOR)
        return Fraction(draw(st.integers(-3 * q, 3 * q).filter(bool)), q)

    poly, roots = Coeffs((1,)), []
    while len(poly) < 5:
        kind = draw(st.sampled_from(["rational", "irrational", "rational", "zero"]))
        if kind == "irrational" and len(poly) < 4:
            k = draw(st.sampled_from([2, 3, 5, 7, 10]))
            s = draw(st.fractions(F(1, 10), 2, max_denominator=100))
            poly = poly * (X * X - k * s * s)
            root = float(s) * math.sqrt(k)
            roots += [root, -root]
        else:
            root = Fraction(0) if kind == "zero" else rational()
            poly = poly * (X - root)
            roots.append(float(root))
    scale = draw(st.fractions(-5, 5, max_denominator=10**6).filter(lambda v: v != 0))
    coeffs = [scale * c for c in poly]
    if draw(st.booleans()):
        den = math.lcm(*(Fraction(c).denominator for c in coeffs))
        coeffs = [int(c * den) for c in coeffs]
    query = draw(st.sampled_from(roots)) * (1 + draw(st.sampled_from([0.0, 1e-15, -1e-12, 1e-9])))
    return coeffs, query


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_planted_quartic())
def test_rationalize_root_matches_twelve_tries(case):
    """The rational-root filter skips only candidates that cannot be roots,
    so `_rationalize_root` returns what the twelve-try loop returns."""
    coeffs, r = case
    poly = RealPolynomial.of(coeffs)
    got = identify._rationalize_root(poly, r)
    assert got == _twelve_try_rationalize(poly, r)
    assert got is None or poly(got) == 0


# negative, zero, integer, small-denominator and 40-digit Fractions
_WALKED_FRACTION = st.one_of(
    st.just(Fraction(0)),
    st.integers(-10**6, 10**6).map(Fraction),
    st.fractions(max_denominator=1000),
    st.builds(
        lambda p, q, sign: Fraction(sign * p, q),
        st.integers(10**39, 10**40),
        st.integers(10**39, 10**40),
        st.sampled_from([1, -1]),
    ),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
# x midway between the two bounds: 1/2 at bound 1, -5/12 at 3 and 4
@example(x=Fraction(1, 2), extra=[1])
@example(x=Fraction(-5, 12), extra=[3, 4])
@given(
    x=_WALKED_FRACTION,
    extra=st.lists(st.one_of(st.integers(1, 40), st.integers(1, 10**15)), max_size=6),
)
def test_best_approximations_match_limit_denominator(x, extra):
    """One continued-fraction walk gives `limit_denominator`'s answer for
    every bound: the twelve bounds `_rationalize_root` reads, some others
    (a tie between the two bounds goes to the convergent), and x's own
    denominator, which `limit_denominator` returns x at."""
    bounds = sorted({10**digits for digits in range(1, 13)} | set(extra) | {x.denominator})
    got = list(identify._best_approximations(x, bounds))
    assert got == [x.limit_denominator(m) for m in bounds]


@st.composite
def _rational_root_quartic(draw):
    """(p/q, quartic): the exact (X - p/q)(X - s)(X^2 + b X + c) with p/q in
    [0, 1], q up to 1e9, a rational s other than p/q, and b^2 < 4c, so the
    quadratic is irreducible; the product is scaled by a nonzero Fraction.
    A double root is left out: the float eigenvalues split it into a pair
    about sqrt(eps) apart, often complex, and `_band_roots` then misses it
    (CHANGES.md, FOUND)."""
    q = draw(st.integers(1, 10**9))
    root = F(draw(st.integers(0, q)), q)
    other = draw(st.fractions(-3, 3, max_denominator=10**6).filter(lambda s: s != root))
    b = draw(st.fractions(-2, 2, max_denominator=1000))
    c = b * b / 4 + draw(st.fractions(F(1, 1000), 2, max_denominator=1000))
    scale = draw(st.fractions(-5, 5, max_denominator=10**6).filter(bool))
    return root, RealPolynomial.of(list((X - root) * (X - other) * (X * X + b * X + c) * scale))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_rational_root_quartic())
def test_band_roots_recover_large_denominator_roots(case):
    """A rational root with a denominator up to 1e9 comes back exactly: the
    float root is rounded by about 1e-14, and the exact Newton step brings
    it within `limit_denominator`'s reach."""
    root, quartic = case
    assert root in identify._band_roots(quartic)


@pytest.mark.parametrize("k", [5, 6])
def test_near_counterexample_pair_solutions_stay_exact(k):
    """a[3] -= 10^-k and a[4] += 10^-k under lambda 2 - 10^-k (the report
    digest's near-counterexample reports 76 and 94): the pair quartic's
    float roots miss its rational roots by more than `limit_denominator`
    can round back, yet every solution, the pair extra included, is
    exact."""
    e = F(1, 10**k)
    base = counterexample()
    a = list(base.a.w)
    a[2] -= e
    a[3] += e
    rep = check_identifiability(MixtureModel.of(a, base.b.w, 2 - e)).to_dict()
    assert [s["level"] for s in rep["solutions"]] == ["full", "pair"]
    assert all(isinstance(v, str) for s in rep["solutions"] for v in s["a"] + s["b"])


@pytest.mark.parametrize(
    "model, rows",
    [
        (random_instance(6, 2.0, 0), [(16, False)]),
        (random_instance(3, 2.0, 0), [(4, False)]),
        (counterexample(), [(4, True), (3, False)]),
        (exact_model(random_instance(3, 2.0, 0)), [(4, True)]),
    ],
    ids=["float-n6", "float-n3", "exact-n4", "exact-n3"],
)
def test_one_quartic_evaluation_per_report(model, rows, monkeypatch):
    """`check_identifiability` evaluates each pair quartic row once, the
    full enumeration's (2, 1) and (1, 2) rows included: (2, 1) and every
    pair in one call, on a float table and at n = 3; on an exact table at
    n >= 4, (2, 1) and the (1, j) rows, which the enumeration and the gates
    read, in Fractions and the other rows, which only the screen reads, on
    the batch's float image."""
    seen = []
    cleared = identify.cleared_pair_quartic

    def spy(batch, x):
        seen.append((len(batch.c_full_i), batch.c_full_i.dtype == object))
        return cleared(batch, x)

    monkeypatch.setattr(identify, "cleared_pair_quartic", spy)
    check_identifiability(model)
    assert seen == rows


def test_three_item_enumeration_builds_no_extension_systems(monkeypatch):
    """At m = 3 the candidates are back-substituted, so no tail is
    extended; the batch holds the one layout, (2, 1) then every pair."""
    built = []
    batch = identify._pair_batch

    def spy(oracle, pairs, *args, **kwargs):
        built.append(list(pairs))
        return batch(oracle, pairs, *args, **kwargs)

    monkeypatch.setattr(identify, "_pair_batch", spy)
    monkeypatch.setattr(identify, "pair_system", None)
    tails = _spy_tail_weights(monkeypatch)
    m = random_instance(3, 2.0, 0)
    cands = enumerate_candidates(oracle_table(m, all_slates(3)), (1, 2, 3))
    assert cands
    assert built == [[(2, 1), (1, 2), (1, 3), (2, 3)]]
    assert tails == []


def _spy_tail_weights(monkeypatch) -> list:
    """Record every pivot pair (b1, b2) that `_tail_weights` extends."""
    extended = []
    tail_weights = identify._tail_weights

    def spy(batch, t, sys01, sys10, b1, b2):
        extended.extend(zip(b1, b2))
        return tail_weights(batch, t, sys01, sys10, b1, b2)

    monkeypatch.setattr(identify, "_tail_weights", spy)
    return extended


@st.composite
def _candidate_table(draw):
    """A table `check_identifiability` builds: a float n = 4 or n = 14 draw,
    a rational n = 4 draw at lambda 2, 1 or 1/2, or the exact counterexample
    perturbed near the two-solution variety (exact, Fraction or float
    lambda)."""
    kind = draw(st.sampled_from(["float-4", "float-14", "rational-4", "near-counterexample"]))
    if kind.startswith("float"):
        lam = draw(st.sampled_from([2.0, 1.0, 0.7]))
        m = random_instance(int(kind[6:]), lam, draw(st.integers(0, 2**32 - 1)))
    elif kind == "rational-4":
        lam = draw(st.sampled_from([F(2), F(1), F(1, 2)]))
        m = _with_lambda(_rational_draw(4, draw(st.integers(0, 40))), lam)
    else:
        m = draw(st.sampled_from(list(_near_counterexamples([draw(st.integers(2, 12))]))))
    return oracle_table(m, identify_slates(m.n))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_candidate_table(), st.sampled_from([identify.RESIDUAL_TOL, 1e-12, 1e-4]))
def test_rejection_before_extension_keeps_every_survivor(table, tol):
    """Dropping pivot pairs before extension loses no candidate: the result
    at tol is the tol = inf result filtered by residual."""
    items = tuple(range(1, table.n + 1))
    every = enumerate_candidates(table, items, tol=math.inf)
    want = [c.to_dict() for c in every if c.residual <= tol]
    assert [c.to_dict() for c in enumerate_candidates(table, items, tol)] == want


def _passes_pair_slate(b1, b2, table, items, tol) -> bool:
    """The per-candidate loop on (a1, a2, b1, b2): admissible, and the cells
    of the slate {1, 2} within tol (inf where a slate sum is not positive)."""
    lam, full = table.lam, table.entries[items]
    a, b = (full[0] - lam * b1, full[1] - lam * b2), (b1, b2)
    if not all(-identify.TAU_ADM <= float(v) <= 1 + identify.TAU_ADM for v in a + b):
        return False
    sa, sb = sum(a), sum(b)
    if float(sa) <= 0 or float(sb) <= 0:
        return math.inf <= tol
    row = table.entries[(1, 2)]
    return float(max(abs(x / sa + lam * (y / sb) - c) for x, y, c in zip(a, b, row))) <= tol


@pytest.mark.parametrize("tol", [identify.RESIDUAL_TOL, math.inf])
def test_rejected_pairs_never_reach_extension(tol, monkeypatch):
    """`_tail_weights` extends exactly the pivot pairs that pass the
    per-candidate loop on the slate {1, 2}, in order; generic draws offer
    five pairs and keep two at the default tol. At tol = inf only
    admissibility rejects."""
    offered = []
    viable = identify._viable_pairs

    def spy_viable(pairs, *args):
        offered.append(list(pairs))
        return viable(pairs, *args)

    monkeypatch.setattr(identify, "_viable_pairs", spy_viable)
    extended = _spy_tail_weights(monkeypatch)
    models = [random_instance(n, lam, s) for n in (4, 14) for lam in (2.0, 0.7) for s in range(4)]
    models += [_rational_draw(4, i) for i in range(4)] + [counterexample()]
    rejected = 0
    for m in models:
        offered.clear()
        extended.clear()
        table = oracle_table(m, identify_slates(m.n))
        items = tuple(range(1, m.n + 1))
        enumerate_candidates(table, items, tol)
        (pairs,) = offered
        keep = [(b1, b2) for b1, b2, _ in pairs if _passes_pair_slate(b1, b2, table, items, tol)]
        assert extended == keep
        rejected += len(pairs) - len(keep)
    assert rejected >= (2 * len(models) if tol < math.inf else 0)


def test_no_viable_pair_extends_no_tail(monkeypatch):
    """With the slate {1, 2} moved off the model, every pivot pair fails it,
    so the enumeration returns before it extends a pair over the tail or
    computes a full residual."""
    m = random_instance(4, 2.0, 0)
    table = oracle_table(m, all_slates(4))
    c1, c2 = table.entries[(1, 2)]
    table = OracleTable(table.n, table.lam, {**table.entries, (1, 2): (c1 + 1e-3, c2 - 1e-3)})
    monkeypatch.setattr(identify, "pair_system", None)
    monkeypatch.setattr(identify, "full_residual", None)
    tails = _spy_tail_weights(monkeypatch)
    assert enumerate_candidates(table, (1, 2, 3, 4)) == []
    assert tails == []


def _scalar_enumeration(table, items, tol) -> list:
    """The full enumeration as one scalar loop over public pieces: each
    pivot pair from the (first, second) and (second, first) quartics plus
    the doubly pinned one, each tail weight from the first pivot's
    `pair_system` (Newton-polished by `_pivot_pairs`), else the second's,
    else c_full_j / (1 + lambda); one `full_residual` per candidate."""
    first, second = items[:2]
    lam, full = table.lam, Slate.of(items)
    c_full = {i: table.value_for(full, i) for i in items}
    sys01, sys10 = (pair_system(table, p, q, items=items) for p, q in ((first, second), (second, first)))
    roots01, roots10 = (identify._band_roots(pair_quartic(sys)) for sys in (sys01, sys10))
    pairs = [(b1, b2, "root") for b1, b2 in identify._pivot_pairs(sys01, roots01)]
    pairs += [(b1, b2, "root") for b2, b1 in identify._pivot_pairs(sys10, roots10)]
    pairs.append((sys01.pivot_pin(), sys10.pivot_pin(), "pinned"))
    cands = []
    for b1, b2, branch in pairs:
        if len(items) == 3:
            a1, a2, a3, b3 = back_substitute(b1, b2, [c_full[i] for i in items], lam)
            a, b = (a1, a2, a3), (b1, b2, b3)
        else:
            bs = {first: b1, second: b2}
            for j in items[2:]:
                for pivot, bp in ((first, b1), (second, b2)):
                    found = identify._pivot_pairs(pair_system(table, pivot, j, items=items), [bp])
                    if found:
                        bs[j] = found[0][1]
                        break
                else:
                    bs[j] = c_full[j] / (1 + lam)
            a = tuple(c_full[i] - lam * bs[i] for i in items)
            b = tuple(bs[i] for i in items)
        floats = all(isinstance(v, float) for v in a + b)
        w = np.array([[a], [b]], dtype=float if floats else object)
        (res,) = identify.full_residual(w[0], w[1], table, items)
        cands.append(CandidateSolution(items, a, b, float(res), identify._tuple_admissible(a + b), branch=branch))
    return identify._dedup([c for c in cands if c.admissible and c.residual <= tol])


def _pinned_float_draw(n: int, seed: int, pinned: tuple, lam: float):
    """`random_instance(n, 2.0, seed)` with a_i = b_i on the items of
    `pinned` and a_n taking up what a's sum needs; None when a_n <= 0."""
    m = random_instance(n, 2.0, seed)
    a = [m.b.w[i] if i + 1 in pinned else m.a.w[i] for i in range(n - 1)]
    a.append(1.0 - sum(a))
    return MixtureModel.of(a, m.b.w, lam) if a[-1] > 0 else None


_ENUMERATION_TABLES = (
    [("block", n, lam, s, items) for n, items in ((6, (1, 2, 3, 4)), (7, (2, 4, 5, 6)), (8, (1, 2, 3)))
     for lam in (2.0, 1.0) for s in range(3)]
    + [("rational-block", 6, i, (1, 2, 3, 4)) for i in range(3)]
    + [("edge", case) for case in ("exact-counterexample", "float-counterexample", "near-pin", "root-cluster",
                                   "int-lambda", "fraction-lambda-6")]
    + [("pinned", 5, s, pins, lam) for s, pins in enumerate([(1,), (2,), (1, 2), (1, 3), (2, 3)])
       for lam in (2.0, 1.0, 0.5)]
)


def _enumeration_table(case):
    """(table, items) for one `_ENUMERATION_TABLES` case: a learner's
    sub-block table, the identify budget of an edge draw, or all slates of
    a float draw with pinned pivots (reaching the second pivot's and the
    all-pinned extensions)."""
    kind = case[0]
    if kind in ("block", "rational-block"):
        m = random_instance(*case[1:4]) if kind == "block" else _rational_draw(case[1], case[2])
        items = case[-1]
        return oracle_table(m, all_slates(len(items), items=items)), items
    if kind == "edge":
        m = _edge_draw(case[1])
        return oracle_table(m, identify_slates(m.n)), tuple(range(1, m.n + 1))
    m = None
    seed = case[2]
    while m is None:
        m = _pinned_float_draw(case[1], seed, case[3], case[4])
        seed += 100
    return oracle_table(m, all_slates(m.n)), tuple(range(1, m.n + 1))


@pytest.mark.parametrize("case", _ENUMERATION_TABLES, ids=str)
@pytest.mark.parametrize("tol", [identify.RESIDUAL_TOL, math.inf])
def test_enumeration_equals_scalar_loop(case, tol):
    """`enumerate_candidates` (batched tail, one `_polish_batch`) gives the
    scalar loop's candidates bit for bit: on the learner's sub-blocks, on
    the counterexample, the near-pin and root-cluster draws, and with
    pinned pivots."""
    table, items = _enumeration_table(case)
    want = [c.to_dict() for c in _scalar_enumeration(table, items, tol)]
    assert [c.to_dict() for c in enumerate_candidates(table, items, tol)] == want


@pytest.mark.parametrize(
    "case", ["exact-counterexample", "float-counterexample", "near-pin", "root-cluster", "fraction-lambda-6"]
)
def test_report_full_solutions_equal_enumeration(case):
    """The full solutions of a report, read from the report's own pair
    batch, are `enumerate_candidates` on its table; the near-pin and
    root-cluster draws stay unique with the truth among them."""
    m = _edge_draw(case)
    rep = check_identifiability(m)
    table = oracle_table(m, identify_slates(m.n))
    cands = enumerate_candidates(table, tuple(range(1, m.n + 1)))
    assert [s.to_dict() for s in rep.solutions if s.level == "full"] == [c.to_dict() for c in cands]
    if case in ("near-pin", "root-cluster"):
        assert rep.unique and _truth_among_full(rep, m)


@pytest.mark.parametrize("n, lam", [(4, 2.0), (6, 0.7), (14, 2.0)])
def test_report_solves_only_screened_pairs(n, lam, monkeypatch):
    """On a float table `check_identifiability` builds pair systems and pair
    quartics only for the pairs that the screen sends to the scalar solver
    (the root-cluster draw sends one); the full enumeration reads its rows
    from the report's batch."""
    screened, built, quartics = [], [], []
    screen, build, quartic = identify._screen_pairs, identify.pair_system, identify.pair_quartic

    def spy_screen(batch, *args):
        mask = screen(batch, *args)
        screened.extend(compress(combinations(range(1, n + 1), 2), mask))
        return mask

    def spy_build(oracle, i, j, **kwargs):
        built.append((i, j))
        return build(oracle, i, j, **kwargs)

    def spy_quartic(sys):
        quartics.append((sys.pivot, sys.partner))
        return quartic(sys)

    monkeypatch.setattr(identify, "_screen_pairs", spy_screen)
    monkeypatch.setattr(identify, "pair_system", spy_build)
    monkeypatch.setattr(identify, "pair_quartic", spy_quartic)
    models = [random_instance(n, lam, s) for s in range(6)]
    if n == 4:
        models.append(_edge_draw("root-cluster"))
    for m in models:
        check_identifiability(m)
    # a screened pair may also be certified, which builds it once more
    assert set(built) == set(quartics) == set(screened)
    assert screened or n != 4


def _swap_class_draws():
    """Float and rational draws at lambda = 1 (n = 3, 4 and 5), and float
    draws with a pinned item, whose reports merge swap classes."""
    yield from (random_instance(n, 1.0, s) for n in (3, 4, 5) for s in range(12))
    yield from (_with_lambda(_rational_draw(4, i), F(1)) for i in range(6))
    yield from (m for s in range(6) for m in [_pinned_float_draw(4, s, (1 + s % 3,), 1.0)] if m)


def test_reversed_candidate_order_keeps_swap_class_reports(monkeypatch):
    """At lambda = 1 a report shows one fixed member of each swap class, so
    reversing the order of the full candidates and of every pair solver's
    solutions changes no report; the member shown has a_i < b_i at the
    first item where the two differ by more than DEDUP_RTOL."""
    models = list(_swap_class_draws())
    reports = [check_identifiability(m).to_dict() for m in models]
    enumerate_, solve = identify._enumerate, identify.solve_pair_system
    monkeypatch.setattr(identify, "_enumerate", lambda *args: enumerate_(*args)[::-1])
    monkeypatch.setattr(identify, "solve_pair_system", lambda *args, **kw: solve(*args, **kw)[::-1])
    assert [check_identifiability(m).to_dict() for m in models] == reports
    assert sum(rep["swap_note"] for rep in reports) >= len(models) // 2
    for rep in reports:
        for s in rep["solutions"]:
            diffs = [float(F(x)) - float(F(y)) for x, y in zip(s["a"], s["b"])]
            assert next((d < 0 for d in diffs if abs(d) > identify.DEDUP_RTOL), True)


def _extension_starts(m) -> list:
    """(system, b_i, b_j) for every Newton start that the full enumeration's
    tail extension can take at tol = inf: each pivot of each pair from the
    (1, 2) and (2, 1) quartics, with its partner value on each (pivot, j)
    system."""
    table = oracle_table(m, identify_slates(m.n))
    items = tuple(range(1, m.n + 1))
    sys01, sys10 = (pair_system(table, i, j, items=items) for i, j in ((1, 2), (2, 1)))
    pairs = identify._pivot_pairs(sys01, identify._band_roots(pair_quartic(sys01)))
    pairs += [p[::-1] for p in identify._pivot_pairs(sys10, identify._band_roots(pair_quartic(sys10)))]
    starts = []
    for b1, b2 in pairs:
        for pivot, bp in ((1, b1), (2, b2)):
            for j in items[2:]:
                sys = pair_system(table, pivot, j, items=items)
                try:
                    starts.append((sys, bp, partner_value(bp, sys)))
                except DegenerateBranchSignal:
                    pass
    return starts


@pytest.mark.parametrize(
    "draw", [(14, 0.7, 11)] + [(n, lam, s) for n in (4, 14) for lam in (2.0, 1.0, 0.7) for s in range(5)]
)
def test_batched_polish_agrees_with_scalar_to_rounding(draw):
    """`_polish_batch` and `_polish_pair` agree bit for bit from the same
    starts: `_drop_equations` squares by products, which Python floats and
    numpy arrays round alike (Python's `**` is libm `pow`, which did not:
    on `random_instance(14, 0.7, 11)` the two differed in the last bit at
    the first Newton step of pair (1, 9))."""
    starts = _extension_starts(random_instance(*draw))
    floats = [identify._float_system(sys) for sys, _, _ in starts]
    fields = zip(*((f.c_full_i, f.c_full_j, f.c_drop_j_i, f.c_drop_i_j) for f in floats))
    batch = PairSystemInput(floats[0].lam, *(np.array(v)[:, None] for v in fields))
    x, y = (np.array([[start[k]] for start in starts]) for k in (1, 2))
    bx, by = identify._polish_batch(batch, x, y, np.ones(x.shape, bool))
    for (sys, bi, bj), u, v in zip(starts, bx[:, 0].tolist(), by[:, 0].tolist()):
        p, q = identify._polish_pair(sys, bi, bj)
        assert (p.hex(), q.hex()) == (u.hex(), v.hex())


def _polish_steps(sys, bi, bj) -> int:
    """Newton steps `_polish_pair` takes from (b_i, b_j)."""
    calls = []
    drop = identify._drop_equations

    def spy(*args):
        calls.append(1)
        return drop(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(identify, "_drop_equations", spy)
        identify._polish_pair(sys, bi, bj)
    return len(calls) - 1


def _first_step(sys, bi, bj):
    """Where `_polish_pair`'s first Newton step from (b_i, b_j) lands; None
    when it stops before stepping."""
    c = identify._float_system(sys)
    cur = identify._drop_equations(c, bi, bj)
    if cur is None:
        return None
    j11, j12, j21, j22 = identify._drop_jacobian(c, bi, bj)
    det = j11 * j22 - j12 * j21
    if abs(det) < identify.POLISH_DET_FLOOR:
        return None
    f1, f2 = cur
    return bi + (-f1 * j22 + f2 * j12) / det, bj + (-j11 * f2 + j21 * f1) / det


def _start_stepping_to_guard(sys, bi):
    """A start (b_i, b_j) whose first Newton step lands within
    DROP_DEN_GUARD of b_j = 1, a guarded denominator: a bracket of b_j in
    the band where the landing b_j - 1 changes sign, bisected to adjacent
    floats. The guarded start (b_i, 1) where no bracket gets that close."""

    def miss(bj):
        step = _first_step(sys, bi, bj)
        return None if step is None else step[1] - 1

    grid = np.linspace(0.01, 0.99, 99).tolist()
    for lo, hi in zip(grid, grid[1:]):
        f_lo, f_hi = miss(lo), miss(hi)
        if f_lo is None or f_hi is None or (f_lo > 0) == (f_hi > 0):
            continue
        while lo < (mid := (lo + hi) / 2) < hi and (f_mid := miss(mid)) is not None:
            if (f_mid > 0) == (f_lo > 0):
                lo, f_lo = mid, f_mid
            else:
                hi = mid
        if abs(f_lo) < DROP_DEN_GUARD:
            return bi, lo
    return bi, 1.0


@st.composite
def _polish_starts(draw):
    """A float pair system of a random draw and starts on it: near its
    truth, near its pin c_full_i / (1 + lambda), where the partner map's
    denominator is small, anywhere in the band, within DROP_DEN_GUARD of
    the guarded denominator b_j = 1, and where the first step lands there."""
    n = draw(st.sampled_from([4, 6]))
    m = random_instance(n, draw(st.sampled_from([2.0, 1.0, 0.7])), draw(st.integers(0, 2**32 - 1)))
    i, j = draw(st.permutations(range(1, n + 1)))[:2]
    sys = pair_system(oracle_table(m, all_slates(n)), i, j)
    unit = st.floats(0.01, 0.99)
    starts = []
    kinds = ["truth", "pin", "band", "guard", "step-to-guard"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=8)):
        if kind == "truth":
            e = draw(st.floats(-1e-6, 1e-6))
            starts.append((m.b[i - 1] + e, m.b[j - 1] - e))
        elif kind == "pin":
            bi = sys.pivot_pin() * (1 + draw(st.sampled_from([-1, 1])) * 10.0 ** -draw(st.integers(4, 8)))
            try:
                starts.append((bi, partner_value(bi, sys)))
            except DegenerateBranchSignal:
                starts.append((bi, m.b[j - 1]))
        elif kind == "guard":
            starts.append((draw(unit), 1.0 - draw(st.sampled_from([0.0, 1e-13, -1e-13]))))
        elif kind == "step-to-guard":
            starts.append(_start_stepping_to_guard(sys, draw(unit)))
        else:
            starts.append((draw(unit), draw(unit)))
    return sys, starts


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_polish_starts())
def test_batched_polish_equals_scalar_bit_for_bit(case):
    """`_polish_batch` equals `_polish_pair` bit for bit on every entry of
    one batch, near the pin and off the truth included, where starts run
    all twelve steps or stop on a guarded equation."""
    sys, starts = case
    fields = (sys.c_full_i, sys.c_full_j, sys.c_drop_j_i, sys.c_drop_i_j)
    c = identify._float_system(PairSystemInput(sys.lam, *(np.array([[v]]) for v in fields)))
    x, y = (np.array([[float(s[k])] for s in starts]) for k in (0, 1))
    bx, by = identify._polish_batch(c, x, y, np.ones(x.shape, bool))
    for (bi, bj), u, v in zip(starts, bx[:, 0].tolist(), by[:, 0].tolist()):
        p, q = identify._polish_pair(sys, bi, bj)
        assert (float(p).hex(), float(q).hex()) == (u.hex(), v.hex())


def test_band_starts_run_every_polish_step():
    """Starts anywhere in the band, as `_polish_starts` draws them, include
    ones that run all twelve Newton steps."""
    m = random_instance(4, 2.0, 3)
    sys = pair_system(oracle_table(m, all_slates(4)), 1, 2)
    grid = np.linspace(0.05, 0.95, 7).tolist()
    steps = [_polish_steps(sys, u, v) for u in grid for v in grid]
    assert max(steps) == identify.POLISH_STEPS


def _solve_every_pair(monkeypatch):
    """Make the pair screen send every pair to `solve_pair_system`."""
    screen = identify._screen_pairs

    def flag_all(batch, quartic, pivots, tol):
        return np.ones_like(screen(batch, quartic, pivots, tol))

    monkeypatch.setattr(identify, "_screen_pairs", flag_all)


def _assert_screened_equal_unscreened(models, monkeypatch) -> list:
    """Reports with the pair screen equal those with every pair solved;
    returns the reports."""
    screened = [check_identifiability(m).to_dict() for m in models]
    _solve_every_pair(monkeypatch)
    assert [check_identifiability(m).to_dict() for m in models] == screened
    return screened


@pytest.mark.parametrize("lam", [2.0, 1.0, 0.7])
@pytest.mark.parametrize("n, seeds", [(4, 40), (6, 15), (14, 4)])
def test_screened_reports_equal_unscreened(n, seeds, lam, monkeypatch):
    models = [random_instance(n, lam, s) for s in range(seeds)]
    _assert_screened_equal_unscreened(models, monkeypatch)


@pytest.mark.parametrize("lam", [F(2), F(1), F(1, 2)], ids=str)
@pytest.mark.parametrize("kind", ["rational", "fraction-twin"])
@pytest.mark.parametrize("n, count", [(4, 12), (5, 4)])
def test_screened_exact_and_fraction_lambda_reports_equal_unscreened(
    n, count, kind, lam, monkeypatch
):
    """Rational models, and float weights given a Fraction lambda, at
    lambda 2, 1 (where solutions merge up to component swap) and 1/2."""
    if kind == "rational":
        models = [_with_lambda(_rational_draw(n, i), lam) for i in range(count)]
    else:
        models = [_with_lambda(random_instance(n, float(lam), s), lam) for s in range(count)]
    _assert_screened_equal_unscreened(models, monkeypatch)


def _near_counterexamples(ks):
    """The exact counterexample with a[idx] += e and a[4] -= e, for
    e = +-10^-k and idx = 1, 2, 3, under lambda 2, 2 + e and 2.0."""
    base = counterexample()
    for k in ks:
        for e in (F(1, 10**k), -F(1, 10**k)):
            for idx in range(3):
                a = list(base.a.w)
                a[idx] += e
                a[3] -= e
                for lam in (F(2), 2 + e, 2.0):
                    yield MixtureModel.of(a, base.b.w, lam)


def test_screened_near_counterexample_reports_equal_unscreened(monkeypatch):
    """Exact, Fraction-lambda and float tables near the two-solution
    variety, where pair-level extras appear and are certified away."""
    models = list(_near_counterexamples((3, 7, 9, 12)))
    reports = _assert_screened_equal_unscreened(models, monkeypatch)
    codes = {c for rep in reports for c in rep["codes"]}
    assert {"pair-multiplicity", "pair-certified"} <= codes


@pytest.mark.parametrize("n", [3, 4, 6])
@pytest.mark.parametrize("case", ["exact", "fraction-lambda", "int-lambda", "float"])
def test_pair_screen_runs_on_every_report(case, n, monkeypatch):
    """Every table with n >= 4 goes through the one pair screen, over all
    its pairs, whatever the number types of its weights and lambda; at
    n = 3 no pair is scanned."""
    m = random_instance(n, 2.0, 0)
    model = {
        "exact": lambda: _rational_draw(n, 0),
        "fraction-lambda": lambda: _with_lambda(m, F(3, 2)),
        "int-lambda": lambda: _with_lambda(m, 2),
        "float": lambda: m,
    }[case]()
    rows = []
    screen = identify._screen_pairs

    def spy(batch, quartic, pivots, tol):
        rows.append(len(quartic))
        return screen(batch, quartic, pivots, tol)

    monkeypatch.setattr(identify, "_screen_pairs", spy)
    check_identifiability(model)
    assert rows == ([] if n == 3 else [n * (n - 1) // 2])


@pytest.mark.parametrize("case", ["float-counterexample", "near-pin"])
def test_screen_sends_deciding_pairs_to_scalar_solver(case, monkeypatch):
    """The counterexample's second solution lives on pair (1, 2). The n = 14
    draw has b_1 1e-4 from the pin, and a candidate residual of its pair
    (1, 2) falls within the screen's margin of tol."""
    if case == "near-pin":
        m, codes = random_instance(14, 2.0, 73186270), ()
    else:
        m, codes = float_counterexample(), ("pair-multiplicity",)
    solved = []
    solve = identify.solve_pair_system

    def spy(sys, **kwargs):
        solved.append((sys.pivot, sys.partner))
        return solve(sys, **kwargs)

    monkeypatch.setattr(identify, "solve_pair_system", spy)
    rep = check_identifiability(m)
    assert rep.codes == codes
    assert (1, 2) in solved
    assert len(solved) < m.n
    _solve_every_pair(monkeypatch)
    assert check_identifiability(m).to_dict() == rep.to_dict()


@pytest.mark.parametrize("n", [4, 8])
def test_int_lambda_twin_is_screened_with_equal_report(n, monkeypatch):
    """Float weights with the int lambda 2, as a model file with "lambda": 2
    loads, give the report of lambda 2.0 and also go through the pair
    screen."""
    lams = []
    screen = identify._screen_pairs

    def spy(batch, quartic, pivots, tol):
        lams.append(type(batch.lam))
        return screen(batch, quartic, pivots, tol)

    monkeypatch.setattr(identify, "_screen_pairs", spy)
    for seed in range(10):
        m = random_instance(n, 2.0, seed)
        twin = MixtureModel.of(m.a.w, m.b.w, 2)
        assert check_identifiability(twin).to_dict() == check_identifiability(m).to_dict()
    assert lams == [int, float] * 10


@_PROPERTY
@given(
    st.sampled_from([4, 5, 7]),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),
)
def test_batched_quartic_rows_match_scalar_builder(n, seed, lam):
    m = random_instance(n, lam, seed)
    pairs = list(combinations(range(1, n + 1), 2))
    table = oracle_table(
        m, all_slates(n, min_size=n - 1) + [Slate.of(p) for p in pairs]
    )
    batch = identify._pair_batch(table, pairs)
    rows = identify._coefficient_rows(cleared_pair_quartic(batch, X))
    for row, (i, j) in zip(rows, pairs):
        scalar = pair_quartic(pair_system(table, i, j, include_pair=True))
        batched = RealPolynomial.of(row)
        assert [c.hex() for c in batched.coeffs] == [c.hex() for c in scalar.coeffs]


def _gate_items(model) -> list:
    return [(k, v.hex()) for k, v in check_identifiability(model).gate_values.items()]


def _reference_gates(model, quartics=None) -> list:
    """The gate loop on the public steps: deflate each (1, j) pair quartic at
    b_1, take `resultant_gate` of every two deflated cubics, and at n >= 4 of
    each cubic against its deflated pair-slate quartic. A quartic that does
    not deflate drops every gate of its item; a gate whose deflation or
    resultant raises is left out. `quartics` replaces the (1, j) quartic of
    each item j it names."""
    n, b1 = model.n, model.b[0]
    table = oracle_table(
        model, all_slates(n, min_size=n - 1) + [Slate.of((1, j)) for j in range(2, n + 1)]
    )
    quartics = quartics or {}
    cubics = {}
    for j in range(2, n + 1):
        quartic = quartics.get(j) or pair_quartic(pair_system(table, 1, j))
        try:
            cubics[j] = deflate_root(quartic, b1)
        except (NotARootError, PolynomialShapeError):
            pass
    gates = []

    def gate(key, p, q):
        try:
            gates.append((key, abs(float(resultant_gate(p, q))).hex()))
        except PolynomialShapeError:
            pass

    for j, k in combinations(cubics, 2):
        gate(f"drop:{j},{k}", cubics[j], cubics[k])
    for j in cubics if n >= 4 else ():
        slate = pair_slate_quartic(pair_system(table, 1, j, include_pair=True))
        try:
            gate(f"pair:{j}", cubics[j], deflate_root(slate, b1))
        except (NotARootError, PolynomialShapeError):
            pass
    return gates


def _rational_draw(n: int, index: int):
    """The index-th n-item lambda = 2 draw, seeds 0, 1, ..., whose weights
    rounded to denominators up to 1000 (the last weight one minus the
    others) stay positive."""
    seed = -1
    while index >= 0:
        seed += 1
        m = random_instance(n, 2.0, seed)
        a = [F(x).limit_denominator(1000) for x in m.a.w[:-1]]
        b = [F(x).limit_denominator(1000) for x in m.b.w[:-1]]
        a.append(1 - sum(a))
        b.append(1 - sum(b))
        index -= min(a) > 0 and min(b) > 0
    return MixtureModel.of(a, b, F(2))


def _edge_draw(case):
    return {
        "float-counterexample": float_counterexample,
        "exact-counterexample": counterexample,
        # b_1 lies 1e-4 from the pin c_1 / (1 + lambda)
        "near-pin": lambda: random_instance(14, 2.0, 73186270),
        # items 1 and 3 nearly collapse: four roots of pair (1, 3) cluster
        "root-cluster": lambda: random_instance(4, 2.0, 496),
        # float weights with an int lambda
        "int-lambda": lambda: MixtureModel.of(
            random_instance(5, 2.0, 0).a.w, random_instance(5, 2.0, 0).b.w, 2
        ),
        # rational weights with a float lambda: a float oracle, a Fraction b_1
        "float-lambda": lambda: MixtureModel.of(
            counterexample().a.w, [F(1, 5), F(1, 5), F(3, 10), F(3, 10)], 2.0
        ),
        # float weights with a Fraction lambda: float oracle values, and
        # coefficients that are floats inside Fraction arithmetic
        "fraction-lambda-3": lambda: _with_lambda(random_instance(3, 2.0, 0), F(3, 2)),
        "fraction-lambda-6": lambda: _with_lambda(random_instance(6, 2.0, 0), F(3, 2)),
    }[case]()


def _with_lambda(model, lam):
    return MixtureModel.of(model.a.w, model.b.w, lam)


_GATE_DRAWS = (
    [
        (n, lam, s)
        for n, seeds in ((4, 12), (8, 4), (14, 2), (20, 1))
        for lam in (2.0, 1.0, 0.7)
        for s in range(seeds)
    ]
    + ["float-counterexample", "near-pin", "root-cluster"]
    + [("rational", n, i) for n in (3, 4, 6) for i in range(3)]
    + ["exact-counterexample", "int-lambda", "float-lambda"]
    + ["fraction-lambda-3", "fraction-lambda-6"]
)


@pytest.mark.parametrize("draw", _GATE_DRAWS, ids=str)
def test_batched_gates_equal_scalar_loop(draw):
    """Gate values and key order equal the reference loop's bitwise, on
    float and exact oracles and on mixed number types."""
    if isinstance(draw, str):
        m = _edge_draw(draw)
    elif draw[0] == "rational":
        m = _rational_draw(*draw[1:])
    else:
        m = random_instance(*draw)
    gates = _gate_items(m)
    assert gates == _reference_gates(m)
    assert len(gates) == ((m.n - 1) * m.n // 2 if m.n >= 4 else 1)


def _patch_quartic_rows(monkeypatch, change, items=(2,)) -> None:
    """Make the gates read the (1, j) quartic row of each item j in `items`
    changed in place by `change`."""
    gate_values = identify._gate_values

    def patched(b1, quartic, slate=None):
        quartic = quartic.copy()
        for j in items:
            change(quartic[j - 2])
        return gate_values(b1, quartic, slate)

    monkeypatch.setattr(identify, "_gate_values", patched)


def test_trimmed_quartic_row_sends_model_to_scalar_gates(monkeypatch):
    """A (1, 2) quartic row whose leading coefficient `RealPolynomial.of`
    trims drops only item 2's gates."""
    m = random_instance(6, 2.0, 0)
    full = _gate_items(m)

    def trim(row):
        row[-1] *= 1e-15

    _patch_quartic_rows(monkeypatch, trim)
    gates = _gate_items(m)
    # the trimmed quartic no longer has b_1 as a root, so item 2's gates are
    # gone and the others keep their values
    assert [g for g in full if 2 not in _gate_key_items(g[0])] == gates
    assert len(gates) < len(full)


@pytest.mark.parametrize("lead, items", [(0.0, (2,)), (1e-15, (2, 3))])
def test_degree_reduced_quartic_row_gates_at_its_degree(lead, items, monkeypatch):
    """(1, j) rows whose leading coefficient is zero, or small enough that
    `RealPolynomial.of` trims it, and that keep the root b_1 deflate to
    quadratics; their gates are determinants of that degree."""
    m = random_instance(6, 2.0, 0)
    b1 = m.b[0]
    quartics = {}

    def reduce(row):
        row[0] += row[4] * (1 - lead) * b1**4
        row[4] *= lead
        quartics[items[len(quartics)]] = RealPolynomial.of(row)

    _patch_quartic_rows(monkeypatch, reduce, items)
    gates = _gate_items(m)
    assert all(deflate_root(q, b1).degree == 2 for q in quartics.values())
    assert gates == _reference_gates(m, quartics)
    assert len(gates) == 15
    if items == (2,):
        assert float.fromhex(dict(gates)["drop:2,3"]) == pytest.approx(7.7e-8, rel=0.01)


def test_exact_row_off_its_root_drops_its_gates():
    """On Fractions a (1, j) row must vanish exactly at b_1: a residual of
    1e-40 drops every gate of item j."""
    m = counterexample()
    table = oracle_table(m, all_slates(4))
    ones = [pair_system(table, 1, j, include_pair=True) for j in (2, 3, 4)]
    quartic = np.array([cleared_pair_quartic(s, X) for s in ones])
    slate = np.array([cleared_pair_slate_quartic(s, X) for s in ones])
    quartic[1, 0] += F(1, 10**40)
    gates = identify._gate_values(m.b[0], quartic, slate)
    assert list(gates) == ["drop:2,4", "pair:2", "pair:4"]
    reference = _reference_gates(m, {3: RealPolynomial.of(quartic[1])})
    assert [(k, v.hex()) for k, v in gates.items()] == reference


def test_gates_vanish_when_item_one_is_pinned():
    """At b_1 = c_1 / (1 + lambda) the partner map's numerator and
    denominator both vanish, so every (1, j) quartic has a double root at
    b_1, every deflated cubic keeps b_1 as a root and every gate is 0."""
    m = _pinned_model()
    rep = check_identifiability(m)
    assert rep.unique
    assert list(rep.gate_values.items()) == [
        (k, 0.0) for k in ("drop:2,3", "drop:2,4", "drop:3,4", "pair:2", "pair:3", "pair:4")
    ]


def _pinned_model():
    """Item 1 pinned: a_1 = b_1, so every gate is exactly 0."""
    return MixtureModel.of(
        [F(1, 4), F(3, 10), F(1, 10), F(7, 20)], [F(1, 4), F(1, 5), F(3, 10), F(1, 4)], F(2)
    )


def _exact_gate_reference(b1, quartic, slate) -> dict:
    """The gates from `deflate_root` and `resultant_gate` on the rows as
    Fraction polynomials, each value checked against a Fraction elimination
    of the unit-scaled Sylvester matrix. A row that does not vanish at b1,
    or that deflates to a constant, drops its gates."""

    def deflated(row):
        try:
            cubic = deflate_root(RealPolynomial.of(list(row)), b1)
        except (NotARootError, PolynomialShapeError):
            return None
        return cubic if cubic.degree >= 1 else None

    cubics, slates = [deflated(r) for r in quartic], [deflated(r) for r in slate]
    sides = {
        f"drop:{j + 2},{k + 2}": (cubics[j], cubics[k])
        for j, k in combinations(range(len(quartic)), 2)
    }
    sides.update({f"pair:{j + 2}": (cubics[j], slates[j]) for j in range(len(quartic))})
    gates = {}
    for key, (p, q) in sides.items():
        if p is None or q is None:
            continue
        gate = resultant_gate(p, q)
        assert isinstance(gate, F)
        assert gate == _fraction_determinant(p.scaled_to_unit().coeffs, q.scaled_to_unit().coeffs)
        gates[key] = gate
    return gates


def _lead_vanishes(model, j: int = 3) -> tuple:
    """`model` with the (1, j) quartic row changed to keep its value at b_1
    while its leading coefficient becomes 0, so it deflates to a quadratic."""

    def change(quartic, b1):
        quartic[j - 2, 0] += quartic[j - 2, 4] * b1**4
        quartic[j - 2, 4] = F(0)

    return model, change


@pytest.mark.parametrize(
    "model, change",
    [(_rational_draw(n, i), None) for n in (4, 5, 6) for i in range(2)]
    + [(counterexample(), None), (_pinned_model(), None)]
    + [_lead_vanishes(_rational_draw(5, 0))],
    ids=[f"rational-n{n}-{i}" for n in (4, 5, 6) for i in range(2)]
    + ["exact-counterexample", "pinned", "lead-vanishes"],
)
def test_exact_gates_equal_fraction_reference(model, change):
    """Exact gates, taken from integer cubics and divided once by the
    sup-norm powers, equal `resultant_gate` on the Fraction cubics that
    `deflate_root` gives, key for key; on a row whose leading coefficient
    vanishes, the powers use the trimmed degree."""
    n, b1 = model.n, model.b[0]
    table = oracle_table(model, all_slates(n))
    ones = [pair_system(table, 1, j, include_pair=True) for j in range(2, n + 1)]
    quartic = np.array([cleared_pair_quartic(s, X) for s in ones])
    slate = np.array([cleared_pair_slate_quartic(s, X) for s in ones])
    if change is not None:
        change(quartic, b1)
        assert deflate_root(RealPolynomial.of(list(quartic[1])), b1).degree == 2
    gates = identify._gate_values(b1, quartic, slate)
    reference = _exact_gate_reference(b1, quartic, slate)
    assert list(gates) == list(reference)
    assert gates == {k: float(abs(v)) for k, v in reference.items()}
    assert len(gates) == (n - 1) * n // 2
    if model == counterexample():
        assert gates["pair:2"] == 0.0 and reference["pair:2"] == 0
    if model == _pinned_model():
        assert all(v == 0 for v in reference.values())


def _gate_key_items(key: str) -> list:
    """The items j (and k) a gate key such as "drop:3,5" or "pair:4" names."""
    return [int(j) for j in key.split(":")[1].split(",")]


_UNIT = st.floats(-1.0, 1.0, allow_nan=False)
_NEAR = st.floats(-1e-6, 1e-6, allow_nan=False)


def _fraction_determinant(p, q) -> Fraction:
    """The Sylvester determinant of two ascending coefficient lists, with
    every entry taken exactly as a Fraction, by Gaussian elimination with
    partial pivoting; a zero pivot gives 0."""
    m, n = len(p) - 1, len(q) - 1
    size = m + n
    pc, qc = [F(c) for c in p[::-1]], [F(c) for c in q[::-1]]
    rows = [[F(0)] * i + pc + [F(0)] * (n - 1 - i) for i in range(n)]
    rows += [[F(0)] * i + qc + [F(0)] * (m - 1 - i) for i in range(m)]
    det = F(1)
    for col in range(size):
        piv = max(range(col, size), key=lambda r: abs(rows[r][col]))
        if rows[piv][col] == 0:
            return F(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            f = rows[r][col] / rows[col][col]
            for c in range(col, size):
                rows[r][c] -= f * rows[col][c]
    return det


@_PROPERTY
@given(st.lists(st.tuples(*[_UNIT] * 8), min_size=1, max_size=6))
def test_stacked_sylvester_determinant_matches_scalar(cases):
    """`sylvester_resultants` on unit-scaled cubic pairs equals
    `sylvester_resultant` bitwise, sign included."""
    pairs = []
    for c in cases:
        p = RealPolynomial.of(c[:4]).scaled_to_unit()
        q = RealPolynomial.of(c[4:]).scaled_to_unit()
        if p.degree == 3 and q.degree == 3:
            pairs.append((p, q))
    if not pairs:
        return
    stacked = sylvester_resultants(
        np.array([p.coeffs for p, _ in pairs]), np.array([q.coeffs for _, q in pairs])
    )
    assert [v.hex() for v in stacked.tolist()] == [
        float(sylvester_resultant(p, q)).hex() for p, q in pairs
    ]


@_PROPERTY
@given(
    st.lists(st.tuples(*[_UNIT] * 8), min_size=1, max_size=6),
    st.lists(st.tuples(*[_UNIT] * 7, _NEAR), max_size=3),
)
def test_stacked_float_sylvester_determinant_near_exact(cases, near):
    """Float `sylvester_resultants` of unit-scaled cubic pairs lie within
    1e-13 of the exact determinant of the same float matrix, on generic
    pairs and on pairs (x - r) u(x), (x - r - d) v(x) whose roots r and
    r + d nearly coincide."""
    polys = [(c[:4], c[4:]) for c in cases]
    polys += [
        ((X - r) * (u0 + u1 * X + u2 * X * X), (X - r - d) * (v0 + v1 * X + v2 * X * X))
        for r, u0, u1, u2, v0, v1, v2, d in near
    ]
    pairs = []
    for p, q in polys:
        p, q = RealPolynomial.of(p).scaled_to_unit(), RealPolynomial.of(q).scaled_to_unit()
        if p.degree == 3 and q.degree == 3:
            pairs.append((p, q))
    if not pairs:
        return
    stacked = sylvester_resultants(
        np.array([p.coeffs for p, _ in pairs]), np.array([q.coeffs for _, q in pairs])
    )
    for v, (p, q) in zip(stacked.tolist(), pairs):
        assert abs(F(v) - _fraction_determinant(p.coeffs, q.coeffs)) <= 1e-13


_RATIONAL = st.one_of(
    st.fractions(-2, 2, max_denominator=12), st.fractions(-2, 2, max_denominator=10**6)
)
_SCALE = st.fractions(-3, 3, max_denominator=10**6).filter(lambda v: v != 0)
# for each (m, n) with m >= 2, a pair of monic integer polynomials with a
# nonzero resultant whose Sylvester matrix has a zero leading principal
# minor, so that fraction-free elimination meets a zero pivot
_ZERO_PIVOT_PAIRS = {
    (2, 1): ([1, 0, 1], [0, 1]),
    (2, 2): ([1, 0, 1], [1, 1, 1]),
    (2, 3): ([1, 0, 1], [0, 0, 0, 1]),
    (3, 1): ([0, 1, 1, 1], [1, 1]),
    (3, 2): ([0, 1, 0, 1], [1, 1, 1]),
    (3, 3): ([0, 1, 0, 1], [1, 0, 1, 1]),
}


def _scaled(coeffs: list, scale: Fraction, k: Fraction) -> list:
    """The coefficients of scale * p(k x); both keep every zero minor of
    the Sylvester matrix zero."""
    return [scale * c * k**j for j, c in enumerate(coeffs)]


@_PROPERTY
@given(
    st.integers(1, 3).flatmap(
        lambda m: st.integers(1, 3).flatmap(
            lambda n: st.lists(
                st.tuples(
                    st.lists(_RATIONAL, min_size=m + 1, max_size=m + 1),
                    st.lists(_RATIONAL, min_size=n + 1, max_size=n + 1),
                ).filter(lambda pq: pq[0][-1] != 0 and pq[1][-1] != 0),
                min_size=1,
                max_size=5,
            )
        )
    ),
    st.tuples(_SCALE, _SCALE, _SCALE),
)
def test_stacked_sylvester_determinant_exact(cases, scales):
    """On Fraction stacks, with denominators up to 10^6, `sylvester_resultants`
    equals the exact `sylvester_resultant` and a Fraction Gaussian
    elimination of the Sylvester matrix, sign included. A pair with a common
    root gives exactly 0; a pair whose fraction-free elimination meets a zero
    pivot while the resultant is not zero gives the eliminated value."""
    m, n = len(cases[0][0]) - 1, len(cases[0][1]) - 1
    # x^(m-1) (x - 1/3) and x^(n-1) (x - 1/3) share the root 1/3
    cases = cases + [
        ([F(0)] * (m - 1) + [F(-1, 3), F(1)], [F(0)] * (n - 1) + [F(-1, 3), F(1)])
    ]
    common = len(cases) - 1
    if (m, n) in _ZERO_PIVOT_PAIRS:
        p, q = _ZERO_PIVOT_PAIRS[m, n]
        a, b, k = scales
        cases.append((_scaled(p, a, k), _scaled(q, b, k)))
    stacked = sylvester_resultants(
        np.array([p for p, _ in cases], dtype=object),
        np.array([q for _, q in cases], dtype=object),
    )
    assert list(stacked) == [
        sylvester_resultant(RealPolynomial.of(p), RealPolynomial.of(q)) for p, q in cases
    ]
    assert list(stacked) == [_fraction_determinant(p, q) for p, q in cases]
    assert all(isinstance(v, (F, int)) for v in stacked)
    assert stacked[common] == 0
    if (m, n) in _ZERO_PIVOT_PAIRS:
        assert stacked[-1] != 0


def _fields(sys: PairSystemInput) -> list:
    return [(f.name, type(v), v) for f in dataclasses.fields(sys) for v in [getattr(sys, f.name)]]


@pytest.mark.parametrize("case", ["float", "rational", "fraction-lambda", "int-lambda"])
@pytest.mark.parametrize("n, items", [(4, None), (6, None), (6, (2, 4, 5, 6))])
def test_pair_systems_by_position_equal_pair_system(case, n, items):
    """`_pair_batch` reads every value by position, and each of its rows is
    `pair_system`'s inputs field for field, number types included, over
    the universe and over a block of it (as the learner's tables hold);
    its two-item slate values too, for either order of the pair."""
    m = random_instance(n, 2.0, 3)
    model = {
        "float": lambda: m,
        "rational": lambda: _rational_draw(n, 3),
        "fraction-lambda": lambda: _with_lambda(m, F(3, 2)),
        "int-lambda": lambda: _with_lambda(m, 2),
    }[case]()
    items = items or tuple(range(1, n + 1))
    table = oracle_table(model, all_slates(n, items=items))
    pairs = list(permutations(items, 2))
    batch = identify._pair_batch(table, pairs, items)
    for k, (p, j) in enumerate(pairs):
        sys = pair_system(table, p, j, items=items, include_pair=True)
        assert _fields(identify._row_system(batch, k, p, j)) == _fields(
            dataclasses.replace(sys, c_pair_i=None)
        )
        (c_pair,) = batch.c_pair_i[k].tolist()
        assert (type(c_pair), c_pair) == (type(sys.c_pair_i), sys.c_pair_i)


def _pinned_draw(n: int, seed: int, pinned: set, lam):
    """The rational draw of `random_instance(n, 2.0, seed)`, denominators up
    to 1000, with a_i = b_i for every item i in `pinned`; the last free
    item takes up what a's sum needs. None when a weight is not positive."""
    m = random_instance(n, 2.0, seed)
    b = [F(x).limit_denominator(1000) for x in m.b.w[:-1]]
    b.append(1 - sum(b))
    a = [b[i] if i + 1 in pinned else F(x).limit_denominator(1000) for i, x in enumerate(m.a.w)]
    last = max(i for i in range(n) if i + 1 not in pinned)
    a[last] += 1 - sum(a)
    if min(a) <= 0 or min(b) <= 0:
        return None
    return MixtureModel.of(a, b, lam)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([4, 5, 6]),
    st.integers(0, 2**32 - 1),
    st.data(),
    st.sampled_from([F(2), F(1), F(1, 2)]),
)
def test_screened_reports_equal_unscreened_on_planted_pins(n, seed, data, lam):
    """Rational draws with a_i = b_i on a random subset of at most n - 2
    items, and their float twins. A pinned pivot's quartic vanishes at b_i
    (doubly, as -lambda c num(b_i)^2 with num(b_i) = 0), so the screen's
    residual test passes; the row still goes to the scalar solver, because
    b_i sits on the pin, and the reports equal those with every pair
    solved."""
    pinned = data.draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 2))
    model = _pinned_draw(n, seed, pinned, lam)
    assume(model is not None)
    twin = MixtureModel.of(
        [float(x) for x in model.a.w], [float(x) for x in model.b.w], float(lam)
    )
    for m in (model, twin):
        solved = []
        solve = identify.solve_pair_system
        with pytest.MonkeyPatch.context() as patch:

            def spy(sys, **kwargs):
                solved.append((sys.pivot, sys.partner))
                return solve(sys, **kwargs)

            patch.setattr(identify, "solve_pair_system", spy)
            screened = check_identifiability(m).to_dict()
            patch.setattr(identify, "_screen_pairs", lambda batch, *_: np.ones(len(batch.c_full_i), bool))
            assert check_identifiability(m).to_dict() == screened
        if "collapse" in screened["codes"]:
            continue
        pairs = combinations(range(1, n + 1), 2)
        assert {(i, j) for i, j in pairs if i in pinned} <= set(solved)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_truth_among_full_solutions_on_benchmark_stream(seed):
    """The first 300 inputs of the `identify-n14` benchmark's stream at this
    seed (`random_instance(14, 2.0, s)` with s drawn by
    `random.Random(seed).getrandbits(32)`): each report is unique and holds
    the truth among its full solutions, under the dedup closeness rule."""
    stream = random.Random(seed)
    for _ in range(300):
        m = random_instance(14, 2.0, stream.getrandbits(32))
        rep = check_identifiability(m)
        full = [s for s in rep.solutions if s.level == "full"]
        assert rep.unique
        assert any(_close(s.a + s.b, m.a.w + m.b.w) for s in full)


@pytest.mark.parametrize("shift", [1e-3, -1e-3])
def test_screen_solves_rows_whose_pivot_is_not_a_root(shift):
    """A pivot weight that misses its row's quartic root fails the screen's
    residual test, so every row goes to the scalar solver."""
    n = 5
    pairs = list(combinations(range(1, n + 1), 2))
    for seed in range(10):
        m = random_instance(n, 2.0, seed)
        batch = identify._pair_batch(oracle_table(m, all_slates(n)), pairs)
        quartic = identify._coefficient_rows(cleared_pair_quartic(batch, X))
        pivots = np.array([[m.b[i - 1] + shift] for i, _ in pairs])
        assert not identify._screen_pairs(batch, quartic, pivots - shift, 1e-8).all()
        assert identify._screen_pairs(batch, quartic, pivots, 1e-8).all()
