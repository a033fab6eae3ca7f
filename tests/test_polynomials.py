"""Solver, deflation, resultant, and Sturm-sequence tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

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
    deflate_root,
    interpolate,
    is_exact_root,
    poly_gcd,
    solve_all_roots,
    solve_cubic,
    solve_quartic,
    sylvester_resultant,
)


def expand_roots(roots):
    """Ascending coefficients of prod (x - r)."""
    p = Coeffs([1.0])
    for r in roots:
        p = p * (X - r)
    return RealPolynomial.of(p)


def test_cubic_roots_of_unity():
    rs = solve_cubic(RealPolynomial.of([-1.0, 0.0, 0.0, 1.0]))
    assert sorted(rs.real_roots) == [1.0]
    complex_roots = sorted(
        (r for r, f in zip(rs.roots, rs.real_flags) if not f), key=lambda z: z.imag
    )
    assert complex_roots[0] == pytest.approx(-0.5 - math.sqrt(3) / 2 * 1j, abs=1e-12)
    assert complex_roots[1] == pytest.approx(-0.5 + math.sqrt(3) / 2 * 1j, abs=1e-12)


def test_cubic_planted_factors():
    p = expand_roots([0.2, 0.5, 0.9])
    got = sorted(solve_cubic(p).real_roots)
    assert got == pytest.approx([0.2, 0.5, 0.9], abs=1e-12)


def test_quartic_roots_of_unity():
    rs = solve_quartic(RealPolynomial.of([-1.0, 0.0, 0.0, 0.0, 1.0]))
    assert sorted(rs.real_roots) == pytest.approx([-1.0, 1.0], abs=1e-12)
    imag = sorted(r.imag for r, f in zip(rs.roots, rs.real_flags) if not f)
    assert imag == pytest.approx([-1.0, 1.0], abs=1e-12)


def test_quartic_planted_factors():
    roots = [0.3, 7 / 19, 1.2, -0.4]
    got = sorted(solve_quartic(expand_roots(roots)).real_roots)
    assert got == pytest.approx(sorted(roots), abs=1e-12)


def test_solver_shape_errors():
    with pytest.raises(PolynomialShapeError):
        solve_cubic(RealPolynomial.of([1.0, 2.0]))
    with pytest.raises(PolynomialShapeError):
        solve_quartic(RealPolynomial.of([1.0, 0.0, 1.0]))


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
    assert sorted(solve_cubic(q).real_roots) == pytest.approx([0.2, 0.3, 0.4], abs=1e-10)
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
    assert is_exact_root(p, 1)
    assert not is_exact_root(p, Fraction(1, 3))


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
    """Closed-form real-root counts agree with the Sturm oracle.

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
    """|p(r)| <= 1e-10 * sup-norm * max(1, |r|)^deg after polishing.

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
