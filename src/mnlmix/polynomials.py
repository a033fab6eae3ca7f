"""Univariate real-polynomial toolkit.

Dense ascending-coefficient polynomials with a companion-eigenvalue root
solver (`solve_all_roots`), discriminants, synthetic deflation, Sylvester
resultants, and a Sturm-sequence real-root counter used as an independent
cross-check on the root solver. ``Coeffs`` carries the polynomial
arithmetic that builds coefficients from an expression evaluated at ``X``.

Coefficients may be floats or exact ``fractions.Fraction`` values; the
root solvers work in IEEE doubles, everything else (evaluation,
deflation, resultants, discriminants, Sturm counting) runs in whichever
arithmetic the coefficients carry. `cubic_roots` and `quadratic_roots`
are the cubic and quadratic closed forms, unpolished, on stacks of float
coefficient rows. `sylvester_resultants` is the resultant on stacks of
coefficient rows: float rows by `np.linalg.det`, Fraction rows by
fraction-free integer elimination (`integer_resultant`, which also takes
integer polynomials as they are).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

from .model import integer_coefficients, is_exact

Number = Union[int, float, Fraction]


class PolynomialShapeError(ValueError):
    """Polynomial has the wrong degree (or is identically zero) for an operation."""


class NotARootError(ValueError):
    """Deflation requested at a point that is not a root within tolerance."""


class DegenerateInputError(ValueError):
    """Input hits a guard (e.g. Sturm endpoint stays a root after perturbation)."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical guards for the floating-point paths, kept in one record;
    every solver, trim and deflation reads `DEFAULT_TOL`.

    tau_imag: |imag| at or below which a solver root counts as real
    tau_defl: relative residual allowed when deflating at a claimed root
    tau_lead: relative size below which a leading coefficient is trimmed
    """

    tau_imag: float = 1e-8
    tau_defl: float = 1e-6
    tau_lead: float = 1e-13


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class RealPolynomial:
    """Dense polynomial, ascending coefficients; trailing (near-)zeros trimmed."""

    coeffs: tuple
    exact: bool = field(default=False, compare=False)

    @staticmethod
    def of(coeffs: Sequence[Number]) -> "RealPolynomial":
        cs = list(coeffs)
        if not cs:
            raise PolynomialShapeError("empty coefficient vector")
        exact = is_exact(*cs)
        if exact:
            while len(cs) > 1 and cs[-1] == 0:
                cs.pop()
        else:
            cs = [float(c) for c in cs]
            scale = max(abs(c) for c in cs)
            cut = DEFAULT_TOL.tau_lead * scale
            while len(cs) > 1 and abs(cs[-1]) <= cut:
                cs.pop()
        return RealPolynomial(tuple(cs), exact)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def sup_norm(self):
        return max(abs(c) for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __call__(self, x):
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RealPolynomial":
        if self.degree == 0:
            return RealPolynomial.of([self.coeffs[0] * 0])
        return RealPolynomial.of([i * c for i, c in enumerate(self.coeffs)][1:])

    def scaled_to_unit(self) -> "RealPolynomial":
        m = self.sup_norm
        if m == 0:
            return self
        return RealPolynomial.of([c / m for c in self.coeffs])

    def as_float(self) -> "RealPolynomial":
        return RealPolynomial.of([float(c) for c in self.coeffs])


@dataclass(frozen=True)
class RootSet:
    """Solver output: all complex roots with realness flags."""

    roots: tuple
    real_flags: tuple

    @property
    def real_roots(self) -> tuple:
        return tuple(r.real for r, f in zip(self.roots, self.real_flags) if f)

    def real_roots_in(self, lo: float, hi: float) -> tuple:
        return tuple(r for r in self.real_roots if lo < r <= hi)


class Coeffs(tuple):
    """Ascending coefficients with polynomial +, - and *.

    A plain number acts as a constant polynomial, so an expression written
    for numbers returns its own coefficients when evaluated at ``X``, in
    whichever arithmetic its constants carry (Fractions stay exact).
    """

    __slots__ = ()
    # a numpy scalar on the left would broadcast over the tuple; this makes
    # numpy hand the operation to the reflected method below instead
    __array_ufunc__ = None

    def __add__(self, other):
        if not isinstance(other, tuple):
            return Coeffs((self[0] + other, *self[1:]))
        if len(self) < len(other):
            self, other = other, self
        return Coeffs([a + b for a, b in zip(self, other)] + list(self[len(other):]))

    __radd__ = __add__

    def __neg__(self):
        return Coeffs([-c for c in self])

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if not isinstance(other, tuple):
            return Coeffs([c * other for c in self])
        out = [0] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            for k, b in enumerate(other, i):
                out[k] += a * b
        return Coeffs(out)

    __rmul__ = __mul__


X = Coeffs((0, 1))


def poly_scale(p: RealPolynomial, c) -> RealPolynomial:
    return RealPolynomial.of([c * a for a in p.coeffs])


def interpolate(xs: Sequence[Number], ys: Sequence[Number]) -> RealPolynomial:
    """Lagrange interpolation through len(xs) points, exact for exact inputs."""
    n = len(xs)
    if len(ys) != n:
        raise PolynomialShapeError("interpolation needs matching xs/ys")
    zero = xs[0] * 0
    acc = [zero] * n
    for i in range(n):
        basis = [zero + 1]
        denom = zero + 1
        for j in range(n):
            if j == i:
                continue
            nxt = [zero] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k + 1] += c
                nxt[k] -= xs[j] * c
            basis = nxt
            denom *= xs[i] - xs[j]
        w = ys[i] / denom
        for k, c in enumerate(basis):
            acc[k] += w * c
    return RealPolynomial.of(acc)


def _flag_real(roots) -> RootSet:
    flags = tuple(abs(r.imag) <= DEFAULT_TOL.tau_imag for r in roots)
    roots = tuple(complex(r.real, 0.0) if f else r for r, f in zip(roots, flags))
    return RootSet(roots, flags)


def cubic_roots(rows: np.ndarray) -> np.ndarray:
    """All three roots of each (P, 4) row of ascending cubic coefficients,
    as a (P, 3) complex array.

    The trigonometric and Cardano closed forms, without a balancing scale
    or Newton polish: a caller must tolerate their rounding, and the monic
    coefficients must stay far from overflow and underflow. A Cardano row
    gives its real root first, then the conjugate pair. Both branches are
    computed in real arithmetic on every row, and a row's unused branch may
    divide by zero, so call this under ``np.errstate(all="ignore")``. A row
    with a zero leading coefficient gives non-finite roots.
    """
    c0, c1, c2 = (rows[:, :3] / rows[:, 3:]).T
    shift = c2 / 3
    third_p = c1 / 3 - shift * shift
    half_q = (shift * (shift * shift * 2 - c1) + c0) / 2
    disc = half_q * half_q + third_p * third_p * third_p
    # three real roots where disc <= 0, which forces third_p <= 0; a triple
    # root has m = 0, and fmax turns its 0 / 0 into -1
    m = np.sqrt(-third_p)
    arg = np.fmin(np.fmax(-half_q / (m * m * m), -1.0), 1.0)
    trig = np.cos(np.arccos(arg)[:, None] / 3 + _THIRDS) * (2 * m)[:, None]
    # one real root: the cancellation-free cube root, the other from u v = -p/3
    u = np.cbrt(-half_q - np.copysign(np.sqrt(disc), half_q))
    v = -third_p / u
    cardano = (u + v)[:, None] * _CARDANO_REAL + (u - v)[:, None] * _CARDANO_IMAG
    return np.where((disc > 0)[:, None], cardano, trig) - shift[:, None]


# the trigonometric branch's angle offsets, and the Cardano roots as
# (u + v) times the first row plus (u - v) times the second
_THIRDS = np.array([0.0, 2 * math.pi / 3, 4 * math.pi / 3])
_CARDANO_REAL = np.array([1.0, -0.5, -0.5])
_CARDANO_IMAG = np.array([0.0, math.sqrt(3) / 2 * 1j, -math.sqrt(3) / 2 * 1j])


def quadratic_roots(rows: np.ndarray) -> np.ndarray:
    """Both roots of each (P, 3) row of ascending quadratic coefficients, as
    a (P, 2) complex array, by the cancellation-free formula: the root
    x1 = -(b + sign(b) sqrt(b^2 - 4ac)) / (2a), then c / (a x1). A row with
    a zero leading coefficient gives non-finite roots, and one with a double
    root at 0 divides 0 by 0 in the branch it does not take, so call this
    under ``np.errstate(all="ignore")``."""
    c, b, a = rows.T
    big = -(b + np.copysign(1.0, b) * np.sqrt((b * b - 4 * a * c).astype(complex)))
    out = np.empty((len(rows), 2), complex)
    out[:, 0] = big / (2 * a)
    # a double root at 0 has big = 0, and both roots are -b / (2 a)
    out[:, 1] = np.where(abs(big) < 1e-300, out[:, 0], 2 * c / big)
    return out


def solve_all_roots(p: RealPolynomial) -> RootSet:
    """All roots of a polynomial of degree 1..4: the eigenvalues of the
    companion matrix of its unit-scaled float image, from one
    `np.linalg.eigvals` call, unpolished.

    Construction-time trimming may drop an underflowing leading coefficient,
    so callers that build quartics from data silently get cubic or quadratic
    solving when the top coefficient degenerates. A non-finite coefficient
    gives NaN roots.
    """
    q = p.as_float()
    if q.degree < 1:
        raise PolynomialShapeError("no roots for a constant polynomial")
    c = np.array(q.coeffs)
    c /= abs(c).max()
    comp = np.eye(q.degree, k=-1)
    comp[:, -1] = -c[:-1] / c[-1]
    if np.isfinite(comp).all():
        roots = np.linalg.eigvals(comp).astype(complex).tolist()
    else:
        roots = [complex(math.nan, math.nan)] * q.degree
    return _flag_real(roots)


def cubic_discriminant(p: RealPolynomial):
    """Standard discriminant of a cubic; >= 0 iff all roots are real."""
    if p.degree != 3:
        raise PolynomialShapeError(f"discriminant needs degree 3, got {p.degree}")
    d, c, b, a = p.coeffs
    return (
        18 * a * b * c * d
        - 4 * b**3 * d
        + b * b * c * c
        - 4 * a * c**3
        - 27 * a * a * d * d
    )


def deflate_root(p: RealPolynomial, r) -> RealPolynomial:
    """Synthetic division of p by (x - r); r must be a root within tau_defl."""
    if p.degree < 1:
        raise PolynomialShapeError("cannot deflate a constant")
    residual = p(r)
    if p.exact and is_exact(r):
        if residual != 0:
            raise NotARootError(f"{r} is not an exact root (p(r)={residual})")
    elif abs(residual) > DEFAULT_TOL.tau_defl * float(p.sup_norm):
        raise NotARootError(
            f"|p(r)|={abs(residual):.3e} exceeds {DEFAULT_TOL.tau_defl:.0e} * sup-norm"
        )
    n = p.degree
    out = [p.coeffs[0] * 0] * n
    acc = p.coeffs[n]
    for k in range(n - 1, -1, -1):
        out[k] = acc
        acc = p.coeffs[k] + acc * r
    return RealPolynomial.of(out)


def sylvester_resultant(p: RealPolynomial, q: RealPolynomial):
    """Resultant of p and q as the determinant of their Sylvester matrix:
    `sylvester_resultants` on one-row stacks, exact when both polynomials
    carry Fraction coefficients and in floats otherwise."""
    dtype = object if p.exact and q.exact else float
    return sylvester_resultants(np.array([p.coeffs], dtype), np.array([q.coeffs], dtype))[0]


def _integer_determinant(rows: list) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination, in place: every division is exact. A zero pivot takes the
    first lower row with a nonzero entry in its column and flips the sign;
    a column with none gives 0."""
    size = len(rows)
    sign, prev = 1, 1
    for col in range(size - 1):
        if rows[col][col] == 0:
            swap = next((r for r in range(col + 1, size) if rows[r][col] != 0), None)
            if swap is None:
                return 0
            rows[col], rows[swap] = rows[swap], rows[col]
            sign = -sign
        top = rows[col]
        piv = top[col]
        for row in rows[col + 1:]:
            f = row[col]
            for cc in range(col + 1, size):
                row[cc] = (row[cc] * piv - f * top[cc]) // prev
        prev = piv
    return sign * rows[-1][-1]


def integer_resultant(p, q) -> int:
    """Sylvester determinant of two integer polynomials, given as ascending
    coefficients, by `_integer_determinant`."""
    m, n = len(p) - 1, len(q) - 1
    pc, qc = list(p[::-1]), list(q[::-1])
    rows = [[0] * i + pc + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + qc + [0] * (m - 1 - i) for i in range(m)]
    return _integer_determinant(rows)


def _exact_resultants(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Exact Sylvester resultant of each row pair of two rational stacks:
    the `integer_resultant` of the cleared rows over dp**n * dq**m."""
    m, n = p.shape[1] - 1, q.shape[1] - 1
    out = np.empty(len(p), object)
    for k, (pr, qr) in enumerate(zip(p, q)):
        (pc, dp), (qc, dq) = integer_coefficients(pr), integer_coefficients(qr)
        out[k] = Fraction(integer_resultant(pc, qc), dp**n * dq**m)
    return out


def sylvester_resultants(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Resultant of every row pair of two coefficient stacks, as the
    determinant of its Sylvester matrix.

    p and q are (B, m + 1) and (B, n + 1) arrays of ascending coefficients
    whose last columns hold the leading coefficients: float arrays, whose
    determinants come from one `np.linalg.det` call (LAPACK's LU with
    partial pivoting, one factorization per matrix, so a row's value does
    not depend on the rest of its stack), or object arrays of Fractions,
    which give exact determinants by integer elimination.
    """
    m, n = p.shape[1] - 1, q.shape[1] - 1
    if m < 1 or n < 1:
        raise PolynomialShapeError("resultant needs two polynomials of degree >= 1")
    if np.result_type(p, q) == object:
        return _exact_resultants(p, q)
    rows = np.zeros((len(p), m + n, m + n))
    for i in range(n):
        rows[:, i, i:i + m + 1] = p[:, ::-1]
    for i in range(m):
        rows[:, n + i, i:i + n + 1] = q[:, ::-1]
    return np.linalg.det(rows)


def _poly_remainder(a: RealPolynomial, b: RealPolynomial, exact: bool) -> RealPolynomial:
    ra = list(a.coeffs)
    bc = b.coeffs
    db = b.degree

    def trim(v: list) -> list:
        if exact:
            while len(v) > 1 and v[-1] == 0:
                v.pop()
        else:
            scale = max((abs(c) for c in v), default=0.0)
            while len(v) > 1 and abs(v[-1]) <= 1e-12 * scale:
                v.pop()
        return v

    ra = trim(ra)
    while len(ra) - 1 >= db and any(c != 0 for c in ra):
        da = len(ra) - 1
        # int coefficients count as exact, and int / int would be a float
        lead = Fraction(ra[-1]) / bc[-1] if exact else ra[-1] / bc[-1]
        for k in range(db + 1):
            ra[da - db + k] -= lead * bc[k]
        ra.pop()
        ra = trim(ra)
    # a constant divisor leaves nothing: the remainder is zero
    return RealPolynomial.of(ra or [bc[0] * 0])


def poly_gcd(p: RealPolynomial, q: RealPolynomial) -> RealPolynomial:
    """Monic greatest common divisor of two exact polynomials (Euclid).

    Returns the zero polynomial when both are zero.
    """
    if not (p.exact and q.exact):
        raise ValueError("polynomial gcd needs rational coefficients")
    while not q.is_zero():
        p, q = q, _poly_remainder(p, q, exact=True)
    if p.is_zero():
        return p
    return poly_scale(p, 1 / Fraction(p.coeffs[-1]))


def _sturm_chain(p: RealPolynomial) -> list:
    chain = [p, p.derivative()]
    while chain[-1].degree > 0:
        rem = _poly_remainder(chain[-2], chain[-1], p.exact)
        if rem.is_zero():
            break
        chain.append(poly_scale(rem, -1))
    return chain


def _sign_changes(chain, x) -> int:
    signs = []
    for f in chain:
        v = f(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots_sturm(p: RealPolynomial, lo: float, hi: float) -> int:
    """Exact count of distinct real roots of p in (lo, hi] via Sturm signs.

    With rational coefficients and rational endpoints every sign is exact.
    """
    if lo >= hi:
        raise DegenerateInputError("need lo < hi")
    span = hi - lo
    for attempt in range(6):
        # rational endpoints stay rational, so exact signs stay exact
        bump = span * Fraction(10**attempt, 10**9) if attempt else 0
        a, b = lo + bump, hi + bump
        if p(a) != 0 and p(b) != 0:
            chain = _sturm_chain(p)
            return _sign_changes(chain, a) - _sign_changes(chain, b)
    raise DegenerateInputError("interval endpoint is a root after perturbation")
