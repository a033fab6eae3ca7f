"""Pair-system reduction tests: quartics, back-substitution, gates.

The independent oracles here are dense grid searches over the pivot weight
(vectorized residual evaluation plus local refinement) and direct polynomial
expansion of the cleared expressions in exact rational arithmetic.
"""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mnlmix.identify import _drop_equations, _float_system, check_identifiability, exact_model
from mnlmix.model import MixtureModel, Slate, all_slates, oracle_table, random_instance
from mnlmix.polynomials import (
    X,
    Coeffs,
    RealPolynomial,
    cubic_discriminant,
    deflate_root,
    solve_all_roots,
)
from mnlmix.systems import (
    DegenerateBranchSignal,
    back_substitute,
    cleared_pair_quartic,
    cleared_pair_slate_quartic,
    cleared_partner_quadratic,
    degenerate_partner_quadratic,
    PairSystemInput,
    formal_pair_system,
    pair_equations,
    pair_quartic,
    pair_slate_quartic,
    pair_slates,
    pair_system,
    pair_system_residual,
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


THREE_ROOTS_LAM = 5.0
THREE_ROOTS = (0.0389099, 0.000870832, 0.0565171, 0.943483)


def test_back_substitute_uniform():
    got = back_substitute(F(1, 3), F(1, 3), (F(2, 3), F(2, 3), F(2, 3)), F(1))
    assert got == (F(1, 3), F(1, 3), F(1, 3), F(1, 3))


@pytest.mark.parametrize("seed", range(10))
def test_back_substitute_ground_truth(seed):
    m = random_instance(3, 1.8, seed)
    row = oracle_table(m, [Slate.of([1, 2, 3])]).value(Slate.of([1, 2, 3]))
    a1, a2, a3, b3 = back_substitute(m.b[0], m.b[1], row, m.lam)
    assert (a1, a2, a3, b3) == pytest.approx((m.a[0], m.a[1], m.a[2], m.b[2]), abs=1e-13)


@pytest.mark.parametrize("seed", range(10))
def test_partner_value_ground_truth(seed):
    m = random_instance(3, 2.3, seed)
    table = oracle_table(m, all_slates(3))
    sys = pair_system(table, 1, 2)
    assert partner_value(m.b[0], sys) == pytest.approx(m.b[1], abs=1e-12)


def test_partner_value_uniform():
    m = MixtureModel.of([1 / 3] * 3, [1 / 3] * 3, 1.0)
    table = oracle_table(m, all_slates(3))
    sys = pair_system(table, 1, 2)
    # the uniform model's pivot sits on the pinned branch (b1 = a1), so the
    # partner map is evaluated just off it
    with pytest.raises(DegenerateBranchSignal):
        partner_value(1 / 3, sys)


def test_partner_degenerate_branch_signal():
    m = MixtureModel.of([0.2, 0.5, 0.3], [0.2, 0.3, 0.5], 2.0)  # b1 == a1
    table = oracle_table(m, all_slates(3))
    sys = pair_system(table, 1, 2)
    with pytest.raises(DegenerateBranchSignal):
        partner_value(sys.pivot_pin(), sys)


@pytest.mark.parametrize("seed", range(15))
def test_quartic_root_containment_all_pairs(seed):
    """The generating pivot weight is a root of every pair quartic."""
    n = 4
    m = random_instance(n, 2.0, seed)
    table = oracle_table(m, all_slates(n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            quartic = pair_quartic(pair_system(table, i, j))
            assert abs(quartic(m.b[i - 1])) <= 1e-10 * float(quartic.sup_norm)
            tilde = pair_slate_quartic(pair_system(table, i, j, include_pair=True))
            assert abs(tilde(m.b[i - 1])) <= 1e-10 * float(tilde.sup_norm)


def test_counterexample_quartics_vanish_exactly():
    m = counterexample()
    table = oracle_table(m, all_slates(4))
    sys = pair_system(table, 1, 2, include_pair=True)
    quartic = pair_quartic(sys)
    tilde = pair_slate_quartic(sys)
    for root in (F(3, 10), F(7, 19)):
        assert quartic(root) == 0
        assert tilde(root) == 0


def test_three_roots_witness_cubic():
    a1, a2, b1, b2 = THREE_ROOTS
    sys = formal_pair_system(THREE_ROOTS_LAM, a1, a2, b1, b2)
    cubic = deflate_root(pair_quartic(sys), b1)
    roots = sorted(solve_all_roots(cubic).real_roots)
    assert roots == pytest.approx([0.043916, 0.164599, 0.281671], abs=1e-3)
    assert cubic_discriminant(cubic) > 0


def test_three_roots_witness_full_tuples():
    # each spurious root back-substitutes to a real 6-tuple via the partner map
    a1p, a2p, b1p, b2p = THREE_ROOTS
    lam = THREE_ROOTS_LAM
    sys = formal_pair_system(lam, a1p, a2p, b1p, b2p)
    cubic = deflate_root(pair_quartic(sys), b1p)
    row = (a1p + lam * b1p, a2p + lam * b2p, None)
    for r in solve_all_roots(cubic).real_roots:
        b2 = partner_value(r, sys)
        a1, a2, a3, b3 = back_substitute(r, b2, row, lam)
        for v in (a1, a2, a3, b3, b2):
            assert np.isfinite(v)


def _expand_cleared(sys):
    """Direct exact expansion of the cleared drop-slate expression."""
    lam = sys.lam
    x = Coeffs([F(0), F(1)])
    num = ((1 - sys.c_full_i + lam * x) * sys.c_drop_i_j - sys.c_full_j) * (1 - x)
    den = lam * (1 + lam) * x - lam * sys.c_full_i
    a_term = den * (1 - sys.c_full_j) + num * lam
    b_term = den - num
    lin_a = sys.c_full_i - lam * x
    lin_b = lam * x
    out = a_term * b_term * sys.c_drop_j_i - lin_a * den * b_term
    return RealPolynomial.of(out - lin_b * den * a_term)


def test_interpolation_matches_exact_expansion():
    """The quartic built from its cleared expression equals an independent
    exact expansion, coefficient by coefficient."""
    m = counterexample()
    table = oracle_table(m, all_slates(4))
    for (i, j) in [(1, 2), (1, 3), (2, 4), (3, 4)]:
        sys = pair_system(table, i, j)
        assert pair_quartic(sys).coeffs == _expand_cleared(sys).coeffs


@pytest.mark.parametrize(
    "build", [pair_quartic, pair_slate_quartic, degenerate_partner_quadratic]
)
def test_float_construction_matches_exact(build):
    """Float coefficients lie within 1e-13 x sup-norm of the coefficients
    built on the same model's weights as exact Fractions."""
    slates = all_slates(5)
    for lam in (2.0, 1.0, 0.7):
        for seed in range(30):
            m = random_instance(5, lam, seed)
            tables = [oracle_table(model, slates) for model in (m, exact_model(m))]
            for i in range(1, 6):
                for j in range(1, 6):
                    if i == j:
                        continue
                    got, want = (
                        build(pair_system(t, i, j, include_pair=True)).coeffs
                        for t in tables
                    )
                    assert len(got) == len(want)
                    scale = max(abs(float(c)) for c in want)
                    err = max(abs(g - float(w)) for g, w in zip(got, want))
                    assert err <= 1e-13 * scale, (lam, seed, i, j, err / scale)


def _brute_force_pivot_roots(sys, step=1e-4):
    """Independent oracle: grid + bisection refinement of admissible solutions."""
    lam = float(sys.lam)
    grid = np.arange(step, 1.0, step)
    c_fi, c_fj = float(sys.c_full_i), float(sys.c_full_j)
    c_ji, c_ij = float(sys.c_drop_j_i), float(sys.c_drop_i_j)
    den = lam * ((1 + lam) * grid - c_fi)
    num = (c_ij * (1 - c_fi + lam * grid) - c_fj) * (1 - grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        bj = num / den
        ai = c_fi - lam * grid
        aj = c_fj - lam * bj
        e1 = ai / (1 - aj) + lam * grid / (1 - bj) - c_ji
    ok = np.isfinite(e1)
    ok &= (bj > -1e-6) & (bj < 1 + 1e-6) & (aj > -1e-6) & (aj < 1 + 1e-6)
    ok &= (ai > -1e-6) & (ai < 1 + 1e-6)
    roots = []
    sign = np.sign(e1)
    for idx in np.nonzero((sign[:-1] * sign[1:] < 0) & ok[:-1] & ok[1:])[0]:
        lo, hi = grid[idx], grid[idx + 1]

        def f(x):
            d = lam * ((1 + lam) * x - c_fi)
            v = (c_ij * (1 - c_fi + lam * x) - c_fj) * (1 - x) / d
            return (c_fi - lam * x) / (1 - (c_fj - lam * v)) + lam * x / (1 - v) - c_ji

        for _ in range(60):
            mid = (lo + hi) / 2
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        roots.append((lo + hi) / 2)
    return roots


@pytest.mark.parametrize("seed", range(12))
def test_branch_completeness_vs_grid_search(seed):
    """Every admissible pair-system solution found by brute force has its
    pivot weight among the quartic's roots."""
    m = random_instance(4, 2.0, seed)
    table = oracle_table(m, all_slates(4))
    sys = pair_system(table, 1, 2)
    quartic = pair_quartic(sys)
    qroots = solve_all_roots(quartic).real_roots
    for r in _brute_force_pivot_roots(sys):
        assert min(abs(r - q) for q in qroots) <= 1e-6


def test_degenerate_branch_recovery():
    # constructed instance with b_1 = a_1: the pinned branch applies and the
    # recovered first weight equals C(1)/(1+lambda) exactly
    m = MixtureModel.of(
        [F(1, 5), F(1, 2), F(3, 10)], [F(1, 5), F(3, 10), F(1, 2)], F(2)
    )
    table = oracle_table(m, all_slates(3))
    sys = pair_system(table, 1, 2)
    pin = sys.pivot_pin()
    assert pin == m.b[0] == m.a[0]
    # pinned-branch identity: a_1 = C(1) - lam/(1+lam) * C(1) = C(1)/(1+lam)
    c1 = table.value_for(Slate.of([1, 2, 3]), 1)
    assert c1 - sys.lam / (1 + sys.lam) * c1 == m.a[0]


def test_pair_system_residual_at_truth():
    m = random_instance(4, 1.4, 3)
    table = oracle_table(m, all_slates(4))
    sys = pair_system(table, 1, 2, include_pair=True)
    res = pair_system_residual(sys, m.a[0], m.a[1], m.b[0], m.b[1])
    assert res <= 1e-13


def _rational_weights(ws) -> list:
    head = [Fraction(w / sum(ws)).limit_denominator(1000) for w in ws[:-1]]
    return head + [1 - sum(head)]


_WEIGHTS = st.integers(3, 6).flatmap(
    lambda n: st.tuples(*[st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)] * 2)
)
# lambda as a Fraction, as an int and as exactly 1
_EXACT_LAMBDA = st.one_of(
    st.fractions(F(1, 10), 5, max_denominator=100),
    st.integers(2, 5),
    st.sampled_from([1, F(1)]),
)
_SYSTEM_FIELDS = ("c_full_i", "c_full_j", "c_drop_j_i", "c_drop_i_j", "c_pair_i")


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(_WEIGHTS, _EXACT_LAMBDA)
def test_integer_evaluation_equals_fraction_evaluation(weights, lam):
    """On rational systems, each cleared expression evaluated at X over
    integers gives the coefficients of the same expression evaluated in
    Fractions (`__wrapped__`, the expression as written), coefficient for
    coefficient: on every ordered pair's scalar system and on one system
    whose fields are (P, 1) object arrays holding all of them."""
    a, b = (_rational_weights(w) for w in weights)
    assume(min(a) > 0 and min(b) > 0)
    n = len(a)
    table = oracle_table(MixtureModel.of(a, b, lam), all_slates(n))
    systems = [
        pair_system(table, i, j, include_pair=True) for i, j in permutations(range(1, n + 1), 2)
    ]
    batch = PairSystemInput(
        lam,
        *(np.array([getattr(s, f) for s in systems], object)[:, None] for f in _SYSTEM_FIELDS),
    )
    for cleared in (cleared_pair_quartic, cleared_pair_slate_quartic, cleared_partner_quadratic):
        for sys in systems:
            got, want = cleared(sys, X), cleared.__wrapped__(sys, X)
            assert list(got) == list(want)
            assert all(type(c) is F for c in got)
        got, want = cleared(batch, X), cleared.__wrapped__(batch, X)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape == (len(systems), 1) and g.dtype == object
            assert list(g.flat) == list(w.flat)
            assert all(type(c) is F for c in g.flat)


def _guard_trips(a_i, a_j, b_i, b_j, eps) -> list:
    """Candidates whose drop-partner, drop-pivot or two-item slate equation
    has a denominator of size eps: 1 - b_j, 1 - b_i or a_i + a_j."""
    return [
        (a_i, a_j, b_i, 1 - eps),
        (a_i, a_j, 1 - eps, b_j),
        (a_i, eps - a_i, b_i, b_j),
    ]


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    st.floats(0.2, 5.0),
)
def test_pair_equations_exact_batched_and_guarded(wa, wb, lam):
    """The shared slate equations vanish exactly at a rational model's own
    weights, give the scalar float call's bits on every row of an array
    system, guarded entries included, and trip the guard in both callers."""
    a, b = _rational_weights(wa), _rational_weights(wb)
    assume(min(a) > 0 and min(b) > 0)
    m = MixtureModel.of(a, b, Fraction(lam).limit_denominator(100))
    table = oracle_table(m, all_slates(4))
    pairs = list(permutations(range(1, 5), 2))
    systems = [pair_system(table, i, j, include_pair=True) for i, j in pairs]
    truths = [(a[i - 1], a[j - 1], b[i - 1], b[j - 1]) for i, j in pairs]
    for sys, truth in zip(systems, truths):
        errs, ok = pair_equations(sys, *truth)
        assert len(errs) == 3 and all(ok)
        assert all(e == Fraction(0) and isinstance(e, Fraction) for e in errs)
        assert pair_system_residual(sys, *truth) == 0
        for eq, cand in enumerate(_guard_trips(*truth, 0)):
            assert pair_equations(sys, *cand)[1][eq] is False
            assert pair_system_residual(sys, *cand) == float("inf")
        for cand in _guard_trips(*map(float, truth), 1e-13):
            assert pair_system_residual(sys, *cand) == float("inf")

    # one array system with a row per pair; columns: the truth, then each trip
    fields = ("lam", "c_full_i", "c_full_j", "c_drop_j_i", "c_drop_i_j", "c_pair_i")
    rows = [
        PairSystemInput(*(float(getattr(sys, f)) for f in fields)) for sys in systems
    ]
    batch = PairSystemInput(
        rows[0].lam,
        *(np.array([[getattr(r, f)] for r in rows]) for f in fields[1:]),
    )
    cands = []
    for truth in truths:
        t = tuple(map(float, truth))
        cands.append([t] + _guard_trips(*t, 1e-13))
    columns = (np.array([[c[k] for c in row] for row in cands]) for k in range(4))
    errs, ok = pair_equations(batch, *columns)
    for p, row in enumerate(rows):
        for k, cand in enumerate(cands[p]):
            want, want_ok = pair_equations(row, *cand)
            assert [e[p, k].hex() for e in errs] == [e.hex() for e in want]
            assert [bool(o[p, k]) for o in ok] == list(want_ok)
        assert [bool(ok[eq][p, eq + 1]) for eq in range(3)] == [False] * 3

    # the Newton polish reads the same guard on the drop-slate equations
    c = _float_system(rows[0])
    b_i, b_j = float(b[0]), float(b[1])
    assert _drop_equations(c, b_i, b_j) is not None
    assert _drop_equations(c, b_i, 1 - 1e-13) is None
    assert _drop_equations(c, 1.0, b_j) is None


def test_resultant_gate_self_zero():
    cubic = RealPolynomial.of([-0.3, 0.7, -1.2, 1.0])
    assert abs(resultant_gate(cubic, cubic)) <= 1e-12


def test_counterexample_pair_gate_vanishes_exactly():
    m = counterexample()
    table = oracle_table(m, all_slates(4))
    sys = pair_system(table, 1, 2, include_pair=True)
    cubic = deflate_root(pair_quartic(sys), m.b[0])
    tilde = deflate_root(pair_slate_quartic(sys), m.b[0])
    assert resultant_gate(cubic, tilde) == 0


def test_generic_gate_positive_exact():
    """Generic instances sit off the variety: exact-rational gates are nonzero.

    The magnitudes are structurally tiny (the deflated cubics' roots cluster
    at the pivot scale), which is why no fixed macroscopic threshold works;
    strict positivity is the honest claim.
    """
    def exactify(w):
        head = [F(x) for x in w[:-1]]
        return head + [1 - sum(head)]

    for seed in (7, 99, 1234):
        m = random_instance(4, 2.0, seed)
        exact = MixtureModel.of(exactify(m.a.w), exactify(m.b.w), F(2))
        table = oracle_table(exact, all_slates(4))
        q2 = deflate_root(pair_quartic(pair_system(table, 1, 2)), exact.b[0])
        q3 = deflate_root(pair_quartic(pair_system(table, 1, 3)), exact.b[0])
        assert resultant_gate(q2, q3) != 0


def test_gate_aggregate():
    m = random_instance(4, 2.0, 11)
    gates = check_identifiability(m).gate_values
    table = oracle_table(m, all_slates(4))
    q2 = deflate_root(pair_quartic(pair_system(table, 1, 2)), m.b[0])
    q3 = deflate_root(pair_quartic(pair_system(table, 1, 3)), m.b[0])
    w = resultant_gate(q2, q3)
    assert gates["drop:2,3"] ** 2 == pytest.approx(w * w, rel=1e-12)
    assert sum(v * v for key, v in gates.items() if key.startswith("drop:")) > 0


def test_gate_aggregate_counterexample_symmetric_pair():
    # the symmetric tail pair of the two-solution instance lies on the
    # variety: its gate vanishes, so its square is ~0
    m = counterexample()
    assert check_identifiability(m).gate_values["drop:3,4"] ** 2 <= 1e-15


def test_pair_slates_are_the_slates_pair_system_reads():
    """The full slate, the drop-partner slate, the drop-pivot slate and the
    two-item slate, in that order; a table on those four slates alone
    gives the pair system that the full table gives."""
    full, drop_partner, drop_pivot, pair = pair_slates(range(1, 6), 4, 2)
    assert full.items == (1, 2, 3, 4, 5)
    assert drop_partner.items == (1, 3, 4, 5)
    assert drop_pivot.items == (1, 2, 3, 5)
    assert pair.items == (2, 4)
    m = random_instance(5, 2.0, 8)
    slates = pair_slates(range(1, 6), 4, 2)
    small = pair_system(oracle_table(m, slates), 4, 2, include_pair=True)
    whole = pair_system(oracle_table(m, all_slates(5)), 4, 2, include_pair=True)
    assert small == whole
    sub = pair_slates((1, 3, 4), 3, 4)
    assert [s.items for s in sub] == [(1, 3, 4), (1, 3), (1, 4), (3, 4)]
