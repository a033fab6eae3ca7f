"""Solver, deflation, resultant, and Sturm-sequence tests."""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mnlmix.polynomials import (
    DEFAULT_TOL,
    X,
    Coeffs,
    DegenerateInputError,
    NotARootError,
    PolynomialShapeError,
    RealPolynomial,
    count_real_roots_sturm,
    cubic_discriminant,
    cubic_roots,
    deflate_root,
    interpolate,
    poly_gcd,
    quadratic_roots,
    solve_all_roots,
    sylvester_resultant,
)


def expand_roots(roots):
    """Ascending coefficients of prod (x - r)."""
    p = Coeffs([1.0])
    for r in roots:
        p = p * (X - r)
    return RealPolynomial.of(p)


def test_cubic_roots_of_unity():
    rs = solve_all_roots(RealPolynomial.of([-1.0, 0.0, 0.0, 1.0]))
    assert sorted(rs.real_roots) == pytest.approx([1.0], abs=1e-15)
    complex_roots = sorted(
        (r for r, f in zip(rs.roots, rs.real_flags) if not f), key=lambda z: z.imag
    )
    assert complex_roots[0] == pytest.approx(-0.5 - math.sqrt(3) / 2 * 1j, abs=1e-12)
    assert complex_roots[1] == pytest.approx(-0.5 + math.sqrt(3) / 2 * 1j, abs=1e-12)


def test_cubic_planted_factors():
    p = expand_roots([0.2, 0.5, 0.9])
    got = sorted(solve_all_roots(p).real_roots)
    assert got == pytest.approx([0.2, 0.5, 0.9], abs=1e-12)


def test_quartic_roots_of_unity():
    rs = solve_all_roots(RealPolynomial.of([-1.0, 0.0, 0.0, 0.0, 1.0]))
    assert sorted(rs.real_roots) == pytest.approx([-1.0, 1.0], abs=1e-12)
    imag = sorted(r.imag for r, f in zip(rs.roots, rs.real_flags) if not f)
    assert imag == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_quartic_planted_factors():
    roots = [0.3, 7 / 19, 1.2, -0.4]
    got = sorted(solve_all_roots(expand_roots(roots)).real_roots)
    assert got == pytest.approx(sorted(roots), abs=1e-12)


def test_solver_shape_errors():
    """A constant has no roots, also when trimming leaves only a constant."""
    with pytest.raises(PolynomialShapeError):
        solve_all_roots(RealPolynomial.of([2.0]))
    with pytest.raises(PolynomialShapeError):
        solve_all_roots(RealPolynomial.of([1.0, 1e-16, 0.0]))


def test_linear_and_quadratic_roots():
    assert solve_all_roots(RealPolynomial.of([-0.5, 2.0])).roots == (0.25,)
    rs = solve_all_roots(RealPolynomial.of([1.0, 0.0, 1.0]))
    assert rs.real_flags == (False, False)
    assert sorted(r.imag for r in rs.roots) == pytest.approx([-1.0, 1.0], abs=1e-15)


def test_non_finite_row_gives_nan_roots():
    """A NaN coefficient gives NaN roots, flagged complex, and raises nothing."""
    for row in ([1.0, math.nan, 0.0, 0.0, 1.0], [math.nan] * 4, [1.0, 2.0, math.nan]):
        rs = solve_all_roots(RealPolynomial.of(row))
        assert len(rs.roots) == len(row) - 1
        assert all(cmath.isnan(r) for r in rs.roots)
        assert not any(rs.real_flags)


def test_tiny_middle_coefficient_matches_np_roots():
    """x^3 + 2.4e-288 x: the closed forms divided by zero here."""
    row = [0.0, 2.3668360709099062e-288, 0.0, 1.0]
    got = solve_all_roots(RealPolynomial.of(row)).roots
    assert max(_root_errors(got, np.roots(row[::-1]))) <= 1e-15


def test_small_leading_coefficient_matches_np_roots():
    """Cubics whose leading coefficient is 1e-10 of the sup-norm keep their
    small roots beside the huge one; Cardano with five Newton steps lost
    them by up to 4.7 (relative to max(1, |root|))."""
    rng = np.random.default_rng(0)
    for _ in range(300):
        row = rng.normal(size=4)
        row[3] = math.copysign(1e-10 * abs(row[:3]).max(), row[3])
        got = solve_all_roots(RealPolynomial.of(row.tolist())).roots
        assert max(_root_errors(got, np.roots(row[::-1]))) <= 1e-10


def test_degenerate_leading_coefficient_degrades():
    # quartic whose top coefficient underflows the trim threshold solves as a cubic
    p = RealPolynomial.of([-0.1, 0.0, 0.0, 1.0, 1e-16])
    assert p.degree == 3
    rs = solve_all_roots(p)
    assert len(rs.roots) == 3


def test_cubic_discriminant_signs():
    assert cubic_discriminant(RealPolynomial.of([0.0, -1.0, 0.0, 1.0])) == 4
    assert cubic_discriminant(RealPolynomial.of([0.0, 1.0, 0.0, 1.0])) == -4


def test_deflate_simple():
    q = deflate_root(RealPolynomial.of([-1.0, 0.0, 1.0]), 1.0)
    assert q.coeffs == (1.0, 1.0)


def test_deflate_planted_quartic():
    p = expand_roots([0.1, 0.2, 0.3, 0.4])
    q = deflate_root(p, 0.1)
    assert sorted(solve_all_roots(q).real_roots) == pytest.approx([0.2, 0.3, 0.4], abs=1e-10)
    # residual postcondition: p == (x - r) * q within 1e-9 scaled
    recon = RealPolynomial.of((X - 0.1) * Coeffs(q.coeffs))
    err = max(abs(a - b) for a, b in zip(recon.coeffs, p.coeffs))
    assert err <= 1e-9 * float(p.sup_norm)


def test_deflate_rejects_non_root():
    with pytest.raises(NotARootError):
        deflate_root(RealPolynomial.of([-1.0, 0.0, 1.0]), 0.5)


def test_deflate_exact():
    p = RealPolynomial.of([Fraction(-1), Fraction(0), Fraction(1)])
    assert deflate_root(p, Fraction(1)).coeffs == (Fraction(1), Fraction(1))
    with pytest.raises(NotARootError):
        deflate_root(p, Fraction(1, 2))


def test_exact_root_check():
    p = RealPolynomial.of([Fraction(-1), Fraction(0), Fraction(1)])
    assert p(Fraction(1)) == 0
    assert p(Fraction(1, 3)) != 0


def test_resultant_self_is_zero():
    p = expand_roots([0.3, 0.6, -0.2])
    assert abs(sylvester_resultant(p, p)) <= 1e-9 * float(p.sup_norm) ** 3


def test_resultant_product_formula():
    p = RealPolynomial.of([-1.0, 0.0, 1.0])
    q = RealPolynomial.of([-4.0, 0.0, 1.0])
    assert sylvester_resultant(p, q) == pytest.approx(9.0, rel=1e-12)


def test_resultant_exact():
    p = RealPolynomial.of([Fraction(-1), Fraction(0), Fraction(1)])
    q = RealPolynomial.of([Fraction(-4), Fraction(0), Fraction(1)])
    assert sylvester_resultant(p, q) == Fraction(9)


def test_resultant_common_vs_coprime_families():
    rng = np.random.default_rng(5)
    for _ in range(50):
        shared = rng.uniform(0.2, 0.8)
        others = rng.uniform(-1, 1, size=4)
        p_common = expand_roots([shared, others[0], others[1]]).scaled_to_unit()
        q_common = expand_roots([shared, others[2], others[3]]).scaled_to_unit()
        assert abs(sylvester_resultant(p_common, q_common)) <= 1e-8
        # coprime family: interleaved root grids keep every cross pair >= 0.26 apart
        jit = rng.uniform(-0.02, 0.02, size=6)
        p_far = expand_roots([-0.9 + jit[0], -0.3 + jit[1], 0.3 + jit[2]]).scaled_to_unit()
        q_far = expand_roots([-0.6 + jit[3], 0.0 + jit[4], 0.6 + jit[5]]).scaled_to_unit()
        assert abs(sylvester_resultant(p_far, q_far)) > 1e-5


def test_sturm_known_counts():
    p = RealPolynomial.of([0.0, -1.0, 0.0, 1.0])  # roots -1, 0, 1
    assert count_real_roots_sturm(p, -2.0, 2.0) == 3
    q = RealPolynomial.of([1.0, 0.0, 0.0, 0.0, 1.0])
    assert count_real_roots_sturm(q, -10.0, 10.0) == 0


def test_sturm_half_open_interval():
    p = expand_roots([0.25, 0.75])
    assert count_real_roots_sturm(p, 0.0, 0.5) == 1
    assert count_real_roots_sturm(p, 0.5, 1.0) == 1


def test_sturm_exact_coefficients():
    p = RealPolynomial.of([Fraction(0), Fraction(-1), Fraction(0), Fraction(1)])
    assert count_real_roots_sturm(p, -2.0, 2.0) == 3


def test_sturm_rejects_bad_interval():
    p = RealPolynomial.of([0.0, 1.0])
    with pytest.raises(DegenerateInputError):
        count_real_roots_sturm(p, 1.0, 1.0)


def test_interpolate_exact_quartic():
    coeffs = [Fraction(3, 7), Fraction(-2, 5), Fraction(1, 3), Fraction(0), Fraction(2)]
    p = RealPolynomial.of(coeffs)
    xs = [Fraction(k, 4) for k in range(5)]
    q = interpolate(xs, [p(x) for x in xs])
    assert q.coeffs == p.coeffs


def test_coeffs_arithmetic_with_numpy_scalars():
    """A numpy scalar on either side of an operator acts as a constant, as a
    float does (the discriminant search passes numpy points to the quartic)."""
    for c in (0.5, np.float64(0.5)):
        assert c * X == X * c == (0.0, 0.5)
        assert c - X == -(X - c) == (0.5, -1)
        assert c + X * X == (0.5, 0, 1)
    p = Coeffs([Fraction(1, 2), Fraction(1)])
    assert p * p - Fraction(1, 4) == (0, 1, 1)


def _random_poly(rng, degree):
    while True:
        c = rng.uniform(-1, 1, size=degree + 1)
        if abs(c[-1]) > 1e-3:
            return RealPolynomial.of(list(c))


@pytest.mark.parametrize("degree", [3, 4])
def test_root_count_matches_sturm_ensemble(degree):
    """`solve_all_roots`' real-root counts agree with the Sturm oracle.

    Near-multiple-root draws (min pairwise separation under 10 * tau_imag)
    are skipped; the skip rate stays under 1%.
    """
    rng = np.random.default_rng(101 + degree)
    trials, skipped = 2000, 0
    lo, hi = -20.0, 20.0
    for _ in range(trials):
        p = _random_poly(rng, degree)
        rs = solve_all_roots(p)
        sep = min(
            (abs(x - y) for i, x in enumerate(rs.roots) for y in rs.roots[i + 1:]),
            default=1.0,
        )
        if sep < 10 * DEFAULT_TOL.tau_imag:
            skipped += 1
            continue
        got = len([r for r in rs.real_roots if lo < r <= hi])
        assert got == count_real_roots_sturm(p, lo, hi)
    assert skipped / trials < 0.01


@pytest.mark.parametrize("degree", [3, 4])
def test_residuals_ensemble(degree):
    """|p(r)| <= 1e-10 * sup-norm * max(1, |r|)^deg, unpolished.

    The root-magnitude factor is forced by double precision: evaluating a
    unit-coefficient quartic at a root of size 500 already carries rounding
    noise around eps * 500^4.
    """
    rng = np.random.default_rng(55 + degree)
    for _ in range(2000):
        p = _random_poly(rng, degree).scaled_to_unit()
        rs = solve_all_roots(p)
        for r in rs.roots:
            assert abs(p(r)) <= 1e-10 * max(1.0, abs(r)) ** degree


def test_conjugate_pairing():
    conj_tol = 1e-8  # pairing tolerance for complex-conjugate roots
    rng = np.random.default_rng(9)
    for _ in range(500):
        p = _random_poly(rng, 4)
        rs = solve_all_roots(p)
        complex_roots = [r for r, f in zip(rs.roots, rs.real_flags) if not f]
        assert len(complex_roots) % 2 == 0
        unmatched = list(complex_roots)
        while unmatched:
            z = unmatched.pop()
            mate = min(unmatched, key=lambda w: abs(w - z.conjugate()))
            assert abs(mate - z.conjugate()) <= conj_tol * (1 + abs(z))
            unmatched.remove(mate)


def test_deflate_solve_consistency():
    rng = np.random.default_rng(31)
    done = 0
    while done < 200:
        roots = sorted(rng.uniform(-1, 1, size=3))
        if min(b - a for a, b in zip(roots, roots[1:])) < 1e-4:
            continue
        p = expand_roots(roots)
        r = roots[1]
        rest = sorted(solve_all_roots(deflate_root(p, r)).real_roots)
        expect = sorted([roots[0], roots[2]])
        assert rest == pytest.approx(expect, abs=1e-8)
        done += 1


def test_poly_gcd_exact():
    F = Fraction
    common = RealPolynomial.of([F(-3, 10), F(1)])
    p = RealPolynomial.of(Coeffs(common.coeffs) * Coeffs([F(2), F(-1), F(1)]))
    q = RealPolynomial.of(Coeffs(common.coeffs) * Coeffs([F(-7, 19), F(1)]))
    assert poly_gcd(p, q) == common
    assert poly_gcd(p, RealPolynomial.of([F(5)])).coeffs == (F(1),)
    with pytest.raises(ValueError):
        poly_gcd(RealPolynomial.of([1.0, 2.0]), RealPolynomial.of([1.0, 1.0]))


def test_sturm_count_exact_at_rational_endpoints():
    F = Fraction
    # roots 1/3 and 1/3 + 1e-12: a float endpoint between them would round
    p = RealPolynomial.of(
        Coeffs([F(-1, 3), F(1)]) * Coeffs([-(F(1, 3) + F(1, 10**12)), F(1)])
    )
    assert count_real_roots_sturm(p, F(0), F(1, 3) + F(1, 2 * 10**12)) == 1
    assert count_real_roots_sturm(p, F(0), F(1)) == 2


def test_int_leading_coefficient_stays_exact():
    """`X` carries int coefficients, so these monic products lead with the
    int 1; the Euclid and Sturm remainders must still divide in Fractions
    (int / int is a float and used to turn both results inexact)."""
    F = Fraction
    p = RealPolynomial.of((X - F(1, 3)) * (X - F(1, 7)))
    q = RealPolynomial.of((X - F(1, 3)) * (X + 2))
    assert isinstance(p.coeffs[-1], int) and p.exact and q.exact
    g = poly_gcd(p, q)
    assert g.exact and g.coeffs == (F(-1, 3), 1)
    # distinct roots of p * q: -2, 1/7 and the shared 1/3
    pq = RealPolynomial.of(Coeffs(p.coeffs) * Coeffs(q.coeffs))
    assert count_real_roots_sturm(pq, F(0), F(1)) == 2
    assert count_real_roots_sturm(pq, F(-3), F(1)) == 3


_ROOTS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# the pair screen's cut on a leading coefficient, relative to the sup-norm
_LEAD_CUT = DEFAULT_TOL.tau_lead * 1e3


def _companion_eigvals(row) -> list:
    """Roots of one ascending coefficient row by companion eigenvalues."""
    k = len(row) - 1
    comp = np.zeros((k, k))
    comp[1:, :-1] = np.eye(k - 1)
    comp[:, -1] = -np.asarray(row[:-1]) / row[-1]
    return list(np.linalg.eigvals(comp))


def _root_errors(got, want) -> list:
    """|z - w| / max(1, |w|) for each root z of `got`, under the matching of
    `got` to `want` that makes the largest of them smallest."""
    return min(
        ([abs(z - w) / max(1.0, abs(w)) for z, w in zip(got, perm)] for perm in itertools.permutations(want)),
        key=max,
    )


def _root_tolerance(row, want) -> float:
    """1e-4 when two roots lie within 1e-2 (relative), where a double or
    triple root costs the unpolished closed forms and the eigenvalues about
    eps^(1/2) or eps^(1/3) on every root of the row; 1e-8 otherwise. At
    least 1e-14 times the largest monic coefficient, the eigenvalues' own
    error on a small root beside a huge one."""
    cluster = any(
        abs(w - v) <= 1e-2 * max(1.0, abs(w)) for w, v in itertools.combinations(want, 2)
    )
    return max(1e-4 if cluster else 1e-8, 1e-14 * max(abs(c / row[-1]) for c in row))


def _accepted(row, z) -> bool:
    """The pair screen's residual test: |p(z)| <= tau_lead * |p| * max(1, |z|)^deg."""
    value = 0
    for c in reversed(row):
        value = value * z + c
    return abs(value) <= DEFAULT_TOL.tau_lead * max(map(abs, row)) * max(1.0, abs(z)) ** (len(row) - 1)


def _planted(roots, lead) -> list:
    """Ascending coefficients of lead * prod (x - r), real for real or
    conjugate-paired roots."""
    p = Coeffs([lead])
    for r in roots:
        p = p * (X - r)
    return [complex(c).real for c in p]


# zero or at least 1e-6 in size: the closed forms take no balancing scale,
# so coefficients near underflow are out of their range
_coefficient = st.just(0.0) | st.floats(1e-6, 10) | st.floats(-10, -1e-6)
_lead = st.floats(0.1, 10) | st.floats(-10, -0.1)
_spot = st.floats(-3, 3)
_split = st.floats(1e-9, 1e-3)


@st.composite
def _cubic_rows(draw):
    """(kind, row): random coefficients; a planted near-double, near-triple
    or near-double complex-pair cluster; or a leading coefficient just
    above the screen's cut."""
    kind = draw(st.sampled_from(["random", "double", "triple", "pair", "lead"]))
    lead, r, s = draw(_lead), draw(_spot), draw(_spot)
    if kind == "random":
        row = [draw(_coefficient) for _ in range(3)] + [lead]
    elif kind == "double":
        row = _planted([r, r + draw(_split), s], lead)
    elif kind == "triple":
        row = _planted([r, r + draw(_split), r - draw(_split)], lead)
    elif kind == "pair":
        z = complex(r, draw(_split))
        row = _planted([z, z.conjugate(), s], lead)
    else:
        row = [draw(_coefficient) for _ in range(3)]
        scale = max(map(abs, row)) or 1.0
        row.append(math.copysign(_LEAD_CUT * draw(st.floats(1.001, 10)) * scale, lead))
    return kind, row


@_ROOTS
@given(_cubic_rows())
def test_stacked_cubic_roots_match_eigenvalues(case):
    """`cubic_roots` gives every root of a well-scaled cubic as the
    companion eigenvalues do. Next to the leading-coefficient cut the
    closed forms can lose the small roots beside a huge one; every root
    there either matches the eigenvalues or fails the screen's residual
    test."""
    kind, row = case
    with np.errstate(all="ignore"):
        got = cubic_roots(np.array([row]))[0].tolist()
    eig = _companion_eigvals(row)
    tol = _root_tolerance(row, eig)
    if kind == "lead":
        errs = _root_errors(got, eig)
        assert all(err <= tol or not _accepted(row, z) for z, err in zip(got, errs))
        return
    assert max(_root_errors(got, eig)) <= tol


@st.composite
def _quadratic_rows(draw):
    """(kind, row): random coefficients, a planted near-double real or
    complex pair, or a leading coefficient just above the screen's cut."""
    kind = draw(st.sampled_from(["random", "double", "pair", "lead"]))
    lead, r = draw(_lead), draw(_spot)
    if kind == "random":
        row = [draw(_coefficient), draw(_coefficient), lead]
    elif kind == "double":
        row = _planted([r, r + draw(_split)], lead)
    elif kind == "pair":
        z = complex(r, draw(_split))
        row = _planted([z, z.conjugate()], lead)
    else:
        row = [draw(_coefficient), draw(_coefficient)]
        scale = max(map(abs, row)) or 1.0
        row.append(math.copysign(_LEAD_CUT * draw(st.floats(1.001, 10)) * scale, lead))
    return kind, row


@_ROOTS
@given(_quadratic_rows())
def test_stacked_quadratic_roots_match_eigenvalues(case):
    """`quadratic_roots` is the cancellation-free formula on a stack: it
    keeps the small root beside a huge one, and agrees with the companion
    eigenvalues, a near-double root to 1e-4."""
    kind, row = case
    with np.errstate(all="ignore"):
        got = quadratic_roots(np.array([row]))[0].tolist()
    eig = _companion_eigvals(row)
    assert max(_root_errors(got, eig)) <= _root_tolerance(row, eig)
    assert all(_accepted(row, z) for z in got)


@st.composite
def _clustered_rows(draw):
    """(m, roots, row): a cubic or quartic lead * prod (x - r) with a
    planted cluster of m = 2, 3 or 4 roots split by at most 1e-3 (real, or
    for m = 2 also a complex pair), the cluster and any other roots at
    least 1/2 apart."""
    degree = draw(st.sampled_from([3, 4]))
    m = draw(st.integers(2, degree))
    r, split = draw(_spot), draw(st.just(0.0) | st.floats(0, 1e-3))
    if m == 2 and draw(st.booleans()):
        z = complex(r, split)
        cluster = [z, z.conjugate()]
    else:
        cluster = [r + k * split for k in range(m)]
    rest = [draw(_spot) for _ in range(degree - m)]
    assume(all(abs(u - v) >= 0.5 for u, v in itertools.combinations([r] + rest, 2)))
    roots = cluster + rest
    return m, roots, _planted(roots, draw(_lead))


@_ROOTS
@given(_clustered_rows())
def test_solve_all_roots_near_multiple_roots(case):
    """A cluster of m roots costs the companion eigenvalues about eps^(1/m)
    on each root of the row: every root lies within 100 eps^(1/m) of its
    planted root, relative to max(1, |root|). The largest measured factor
    is about 15, at a complex pair in a quartic."""
    m, roots, row = case
    got = solve_all_roots(RealPolynomial.of(row)).roots
    assert max(_root_errors(got, roots)) <= 100 * np.finfo(float).eps ** (1 / m)


def test_stacked_roots_take_every_row_alone():
    """Each row's roots do not depend on the other rows of its stack."""
    rows = np.array([_planted([0.2, 0.5, 0.9], 2.0), _planted([1j, -1j, 0.3], -1.0), [0.0, 0.0, 0.0, 1.0]])
    with np.errstate(all="ignore"):
        stacked = cubic_roots(rows)
        alone = [cubic_roots(row[None])[0] for row in rows]
    assert np.array_equal(stacked, np.array(alone))
    assert sorted(stacked[0].real) == pytest.approx([0.2, 0.5, 0.9], abs=1e-12)
    assert sorted(stacked[1], key=lambda z: (z.imag, z.real)) == pytest.approx([-1j, 0.3, 1j], abs=1e-12)
    assert stacked[2].tolist() == [0, 0, 0]
