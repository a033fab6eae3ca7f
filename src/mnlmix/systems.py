"""Reduction of slate-choice equation systems to univariate quartics.

For a pair of items (pivot i, partner j), the four oracle values from the
full slate and the two drop-one slates pin the unknowns (a_i, a_j, b_i, b_j)
to the roots of a single quartic in b_i: the partner weight is a rational
function of the pivot weight, and substituting it into the remaining
drop-slate equation and clearing denominators leaves a degree-4 polynomial.
A second quartic arises the same way from the two-item slate {i, j}.

Each polynomial is stated once, as its cleared expression: evaluated at a
number it gives the polynomial's value, and evaluated at the polynomial
``X`` it gives the coefficients, exactly when the oracle values are
Fractions and with no hand-expanded coefficient formulas. A system whose
oracle fields are numpy arrays gives the coefficients of every row at once.
On an exact system the expression runs at ``X`` over integers (`_Scaled`)
and each coefficient becomes a Fraction once, at the end.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .model import OracleTable, Slate, integer_coefficients, is_exact
from .polynomials import X, Coeffs, RealPolynomial, sylvester_resultant


# a slate equation of the pair system counts as undefined where one of its
# denominators, such as 1 - a_j or b_i + b_j, falls under this guard
DROP_DEN_GUARD = 1e-12


class DegenerateBranchSignal(ArithmeticError):
    """Pivot weight sits on the branch where the partner map's denominator dies."""


@dataclass(frozen=True)
class PairSystemInput:
    """Oracle values feeding one (a_i, a_j, b_i, b_j) system.

    c_full_i / c_full_j come from the full slate, c_drop_j_i from the slate
    without the partner, c_drop_i_j from the slate without the pivot, and
    c_pair_i (present only when the universe has more than the pair plus one
    item to spare) from the two-item slate {i, j}.
    """

    lam: object
    c_full_i: object
    c_full_j: object
    c_drop_j_i: object
    c_drop_i_j: object
    c_pair_i: object = None
    pivot: int = 1
    partner: int = 2

    @property
    def exact(self) -> bool:
        """Every value is a Fraction or an int; on a system of array fields,
        the fields are object arrays (of Fractions) and lambda is exact."""
        if isinstance(self.c_full_i, np.ndarray):
            return self.c_full_i.dtype == object and is_exact(self.lam)
        vals = [self.lam, self.c_full_i, self.c_full_j, self.c_drop_j_i, self.c_drop_i_j]
        if self.c_pair_i is not None:
            vals.append(self.c_pair_i)
        return is_exact(*vals)

    def tau_den(self) -> float:
        return 1e-9 * float(1 + self.lam)

    def pivot_pin(self):
        """The pivot value on the degenerate branch, c_full_i / (1 + lam)."""
        return self.c_full_i / (1 + self.lam)


def pair_slates(items: Sequence[int], pivot: int, partner: int) -> tuple:
    """The slates a (pivot, partner) pair system reads over the universe
    `items`: the full slate, the slate without the partner, the slate
    without the pivot and the two-item slate {pivot, partner}."""
    full = Slate.of(items)
    # dropping an item from a valid sorted slate leaves it sorted and distinct
    drops = (Slate(tuple(i for i in full.items if i != t)) for t in (partner, pivot))
    return (full, *drops, Slate.of((pivot, partner)))


def pair_system(
    oracle: OracleTable,
    pivot: int,
    partner: int,
    items: Optional[Sequence[int]] = None,
    include_pair: bool = False,
) -> PairSystemInput:
    """Assemble the pair-system inputs from an oracle over the given universe."""
    universe = items if items is not None else range(1, oracle.n + 1)
    full, drop_partner, drop_pivot, pair = pair_slates(universe, pivot, partner)
    c_pair = oracle.value_for(pair, pivot) if include_pair else None
    return PairSystemInput(
        lam=oracle.lam,
        c_full_i=oracle.value_for(full, pivot),
        c_full_j=oracle.value_for(full, partner),
        c_drop_j_i=oracle.value_for(drop_partner, pivot),
        c_drop_i_j=oracle.value_for(drop_pivot, partner),
        c_pair_i=c_pair,
        pivot=pivot,
        partner=partner,
    )


def partner_map(sys: PairSystemInput):
    """Numerator and denominator of the partner weight b_j = num(b_i) / den(b_i).

    The denominator, lam * ((1 + lam) b_i - c_full_i), vanishes on the pinned
    branch. Both are plain expressions, so Fractions stay exact.
    """
    lam = sys.lam

    def num(x):
        return (sys.c_drop_i_j * (1 - sys.c_full_i + lam * x) - sys.c_full_j) * (1 - x)

    def den(x):
        return lam * ((1 + lam) * x - sys.c_full_i)

    return num, den


def pivot_pinned(bi, sys: PairSystemInput) -> bool:
    """Whether the partner map's denominator at b_i falls under the guard,
    i.e. b_i is (numerically) the pinned value c_full_i / (1 + lam): zero
    on an exact system and pivot, at most tau_den in magnitude otherwise.

    The denominator reads only the pivot's own full-slate value, so the
    answer is the same on every system with that pivot.
    """
    d = partner_map(sys)[1](bi)
    if sys.exact and is_exact(bi):
        return d == 0
    return abs(float(d)) <= sys.tau_den()


def partner_value(bi, sys: PairSystemInput):
    """Partner weight b_j as a rational function of the pivot weight b_i.

    Raises DegenerateBranchSignal when b_i is pinned (`pivot_pinned`);
    callers switch to the degenerate branch.
    """
    if pivot_pinned(bi, sys):
        raise DegenerateBranchSignal("pivot weight pinned, partner map undefined")
    num, den = partner_map(sys)
    return num(bi) / den(bi)


def back_substitute(b1, b2, c_full_row: Sequence, lam):
    """Remaining 3-item unknowns from (b_1, b_2) and the full-slate row.

    c_full_row holds the scaled full-slate values for items (1, 2, 3).
    Returns (a_1, a_2, a_3, b_3); sums to one are built in.
    """
    c1, c2 = c_full_row[0], c_full_row[1]
    a1 = c1 - lam * b1
    a2 = c2 - lam * b2
    b3 = 1 - b1 - b2
    a3 = 1 - c1 - c2 + lam * (b1 + b2)
    return a1, a2, a3, b3


class _Scaled:
    """The rational num / D**k, with D the base of one integer evaluation.

    Every value of the evaluation shares D, so a sum raises the side of
    lower power to the larger power and a product adds the powers: no step
    takes a gcd. `num` is an int, or an object array of ints on a system of
    array fields, whose D is then one per row. `pows`, which the values of
    one evaluation share, holds D**0, D**1, ... as far as the evaluation
    has needed them.
    """

    __slots__ = ("num", "k", "pows")

    def __init__(self, num, k: int, pows: list):
        self.num, self.k, self.pows = num, k, pows

    def _power(self, j: int):
        pows = self.pows
        while len(pows) <= j:
            pows.append(pows[-1] * pows[1])
        return pows[j]

    def __add__(self, other):
        if type(other) is not _Scaled:
            if not isinstance(other, int):
                return NotImplemented
            if not other:
                return self
            other = _Scaled(other, 0, self.pows)
        k, j = self.k, other.k
        if k == j:
            return _Scaled(self.num + other.num, k, self.pows)
        if k > j:
            return _Scaled(self.num + other.num * self._power(k - j), k, self.pows)
        return _Scaled(self.num * self._power(j - k) + other.num, j, self.pows)

    __radd__ = __add__

    def __neg__(self):
        return _Scaled(-self.num, self.k, self.pows)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if type(other) is _Scaled:
            return _Scaled(self.num * other.num, self.k + other.k, self.pows)
        if not isinstance(other, int):
            return NotImplemented
        # the coefficients 0 and 1 of X; every coefficient of a cleared
        # expression still has a term with a system value, so none ends as 0
        if not other:
            return 0
        return self if other == 1 else _Scaled(self.num * other, self.k, self.pows)

    __rmul__ = __mul__

    def fraction(self):
        """The value as a Fraction, or an object array of Fractions."""
        den = self._power(self.k)
        if isinstance(self.num, np.ndarray):
            return _FRACTIONS(self.num, den)
        return Fraction(self.num, den)


_FRACTIONS = np.frompyfunc(Fraction, 2, 1)


@dataclass(frozen=True)
class _IntegerSystem(PairSystemInput):
    """A system of `_Scaled` values, with its pin cleared like the rest."""

    pin: object = None

    def pivot_pin(self):
        return self.pin


def _integer_image(sys: PairSystemInput) -> _IntegerSystem:
    """The exact system `sys` as `_Scaled` values over one base D: lambda,
    the oracle values and the pin c_full_i / (1 + lambda), each v as
    v * D over D, with D the lcm of their denominators (on a system of
    array fields, of each row's)."""
    values = [sys.lam, sys.c_full_i, sys.c_full_j, sys.c_drop_j_i, sys.c_drop_i_j, sys.pivot_pin()]
    if sys.c_pair_i is not None:
        values.append(sys.c_pair_i)
    if isinstance(sys.c_full_i, np.ndarray):
        shape, size = sys.c_full_i.shape, sys.c_full_i.size
        rows = zip(*(v.ravel().tolist() if isinstance(v, np.ndarray) else [v] * size for v in values))
        nums, dens = zip(*map(integer_coefficients, rows))
        columns = [np.array(c, object).reshape(shape) for c in zip(*nums)]
        den = np.array(dens, object).reshape(shape)
    else:
        columns, den = integer_coefficients(values)
    pows = [1, den]
    lam, c_full_i, c_full_j, c_drop_j_i, c_drop_i_j, pin, *pair = (
        _Scaled(v, 1, pows) for v in columns
    )
    return _IntegerSystem(lam, c_full_i, c_full_j, c_drop_j_i, c_drop_i_j, *pair, pin=pin)


def _over_integers(cleared):
    """`cleared`, evaluated at X over integers when the system is exact
    (`_integer_image`), each coefficient made a Fraction once at the end;
    as written otherwise. `__wrapped__` is the expression as written."""

    @functools.wraps(cleared)
    def evaluate(sys: PairSystemInput, x):
        if x is not X or not sys.exact:
            return cleared(sys, x)
        return Coeffs(c.fraction() for c in cleared(_integer_image(sys), X))

    return evaluate


@_over_integers
def cleared_pair_quartic(sys: PairSystemInput, x):
    """The drop-partner slate equation with denominators cleared, at x.

    The system's fields may also be numpy arrays of equal shape, which
    evaluates one expression per row with the same operations in the same
    order as a scalar system.
    """
    lam = sys.lam
    num, den = partner_map(sys)
    nx, dx = num(x), den(x)
    one_minus_aj = (1 - sys.c_full_j) * dx + lam * nx
    one_minus_bj = dx - nx
    return (
        sys.c_drop_j_i * one_minus_aj * one_minus_bj
        - (sys.c_full_i - lam * x) * dx * one_minus_bj
        - lam * x * dx * one_minus_aj
    )


def pair_quartic(sys: PairSystemInput) -> RealPolynomial:
    """Quartic in the pivot weight from the drop-partner slate equation.

    Every admissible solution of the pair system has its pivot weight among
    the roots (plus possibly the degenerate pinned branch).
    """
    return RealPolynomial.of(cleared_pair_quartic(sys, X))


@_over_integers
def cleared_pair_slate_quartic(sys: PairSystemInput, x):
    """The two-item slate {pivot, partner} equation with denominators
    cleared, at x.

    Like `cleared_pair_quartic`, it also takes a system of array fields.
    """
    if sys.c_pair_i is None:
        raise ValueError("pair-slate value missing from the system input")
    lam = sys.lam
    num, den = partner_map(sys)
    nx, dx = num(x), den(x)
    sum_a = (sys.c_full_i + sys.c_full_j - lam * x) * dx - lam * nx
    sum_b = x * dx + nx
    return (
        sys.c_pair_i * sum_a * sum_b
        - (sys.c_full_i - lam * x) * dx * sum_b
        - lam * x * dx * sum_a
    )


def pair_slate_quartic(sys: PairSystemInput) -> RealPolynomial:
    """Companion quartic from the two-item slate {pivot, partner} equation."""
    return RealPolynomial.of(cleared_pair_slate_quartic(sys, X))


def _guarded(d):
    """(d, ok) for an equation's denominator d, with d set to 1 where it is
    guarded: a float or array entry under DROP_DEN_GUARD in magnitude, a
    Fraction or int at exactly zero."""
    if isinstance(d, float):
        return (d, True) if abs(d) >= DROP_DEN_GUARD else (1.0, False)
    if isinstance(d, np.ndarray):
        ok = abs(d) >= DROP_DEN_GUARD
        return np.where(ok, d, 1.0), ok
    return (d, True) if d != 0 else (1, False)


def pair_equations(sys: PairSystemInput, ai, aj, bi, bj) -> tuple:
    """Residuals of the pair system's slate equations at a candidate.

    Each equation reads a / d_a + lam * b / d_b - c: the drop-partner slate
    (a_i, 1 - a_j; b_i, 1 - b_j), the drop-pivot slate (a_j, 1 - a_i;
    b_j, 1 - b_i) and, when c_pair_i is set, the two-item slate
    (a_i, a_i + a_j; b_i, b_i + b_j). Takes Fractions, floats or numpy
    arrays that broadcast against an array system's fields.

    Returns (residuals, ok), one entry per equation; ok is False (on arrays,
    a mask) where one of the equation's own denominators is guarded, and
    such a residual is computed with that denominator set to 1.
    """
    lam = sys.lam
    slates = [
        (ai, 1 - aj, bi, 1 - bj, sys.c_drop_j_i),
        (aj, 1 - ai, bj, 1 - bi, sys.c_drop_i_j),
    ]
    if sys.c_pair_i is not None:
        slates.append((ai, ai + aj, bi, bi + bj, sys.c_pair_i))
    errs, oks = [], []
    for a, da, b, db, c in slates:
        da, ok_a = _guarded(da)
        db, ok_b = _guarded(db)
        errs.append(a / da + lam * b / db - c)
        oks.append(ok_a & ok_b)
    return errs, oks


def pair_system_residual(sys: PairSystemInput, ai, aj, bi, bj):
    """Max absolute violation of the pair-system equations at a candidate,
    inf when a slate equation's denominator is guarded."""
    errs, ok = pair_equations(sys, ai, aj, bi, bj)
    if not all(ok):
        return float("inf")
    lam = sys.lam
    errs += [ai + lam * bi - sys.c_full_i, aj + lam * bj - sys.c_full_j]
    return max(abs(e) for e in errs)


@_over_integers
def cleared_partner_quadratic(sys: PairSystemInput, y):
    """The drop-partner equation on the pinned branch, cleared, at y.

    Like `cleared_pair_quartic`, it also takes a system of array fields.
    """
    lam = sys.lam
    m = sys.pivot_pin()
    return sys.c_drop_j_i * (1 - sys.c_full_j + lam * y) * (1 - y) - m * (
        1 + lam * (1 - sys.c_full_j) + (lam * lam - 1) * y
    )


def degenerate_partner_quadratic(sys: PairSystemInput) -> RealPolynomial:
    """Partner-weight polynomial on the pinned branch b_i = c_full_i/(1+lam).

    With the pivot pinned, the drop-pivot equation turns into a consistency
    statement and the drop-partner equation becomes a quadratic in b_j.
    """
    return RealPolynomial.of(cleared_partner_quadratic(sys, X))


def resultant_gate(cubic_a: RealPolynomial, cubic_b: RealPolynomial):
    """Sylvester resultant of two deflated cubics, each scaled to unit
    sup-norm first.

    "Scaled" means that each cubic's coefficients are divided by its
    coefficient sup-norm, the largest absolute coefficient, before the
    Sylvester determinant is taken; the value is not otherwise normalized.
    Near-zero values signal a shared root, i.e. membership in the variety
    where a second solution of the joint system can exist.
    """
    return sylvester_resultant(cubic_a.scaled_to_unit(), cubic_b.scaled_to_unit())


def formal_pair_system(lam, a1, a2, b1, b2) -> PairSystemInput:
    """Pair system generated by formal 4-tuple inputs, without the two-item
    slate.

    The four oracle values only involve (a_1, a_2, b_1, b_2); third
    coordinates are implicitly one minus the sums, which may sit outside the
    simplex for formal witnesses.
    """
    c_full_1 = a1 + lam * b1
    c_full_2 = a2 + lam * b2
    c_drop_2_1 = a1 / (1 - a2) + lam * (b1 / (1 - b2))
    c_drop_1_2 = a2 / (1 - a1) + lam * (b2 / (1 - b1))
    return PairSystemInput(lam, c_full_1, c_full_2, c_drop_2_1, c_drop_1_2)
