"""Solution enumeration and identifiability checks for small universes.

A report builds one batch of pair systems in the table's arithmetic. The
full enumeration takes candidate pivot weights from the batch's (2, 1) and
(1, 2) quartics, drops a root pair that leaves the admissible band or fails
the two pivots' own slate, and extends the rest through the batch's (1, j)
and (2, j) systems; residual filtering against every available slate
equation decides admissibility. Uniqueness holds when exactly one
admissible class survives (up to component swap at lambda = 1). A batched
numpy screen of every pair system, on the table's float image, sends to
the scalar pair solver only the pairs that can add a second solution.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, compress, islice
from typing import Sequence

import numpy as np

from .model import (
    MixtureModel,
    OracleTable,
    ParameterError,
    Slate,
    format_number,
    integer_coefficients,
    is_exact,
    oracle_table,
)
from .polynomials import (
    DEFAULT_TOL,
    X,
    DegenerateInputError,
    RealPolynomial,
    count_real_roots_sturm,
    cubic_roots,
    deflate_root,
    integer_resultant,
    poly_gcd,
    quadratic_roots,
    solve_all_roots,
    sylvester_resultants,
)
from .systems import (
    DegenerateBranchSignal,
    PairSystemInput,
    back_substitute,
    cleared_pair_quartic,
    cleared_pair_slate_quartic,
    cleared_partner_quadratic,
    degenerate_partner_quadratic,
    pair_equations,
    pair_quartic,
    pair_slate_quartic,
    pair_slates,
    pair_system,
    partner_map,
    partner_value,
    pair_system_residual,
    pivot_pinned,
)

# residual at or below which a candidate solves the oracle equations; the
# default of `check_identifiability`, the sweeps and the CLI's --tol
RESIDUAL_TOL = 1e-8
TAU_ADM = 1e-9
DEDUP_RTOL = 1e-6
COLLAPSE_GAP = 1e-9
# a pair-level extra whose residual lies within this many decades below tol
# is re-decided in exact arithmetic before it counts as a second solution
CERT_DECADES = 4
# the batched pair screen decides a threshold test only when the value lies
# more than this factor away from its threshold, on either side; its values
# and the scalar path's differ by far less (about 1e-9 on the roots)
SCREEN_MARGIN = 1e3
# Newton polish of a pair: step count, the Jacobian determinant under which
# it stops, and the residual at which it has converged; `_polish_pair` and
# `_polish_batch` share these values and agree bit for bit
POLISH_STEPS = 12
POLISH_DET_FLOOR = 1e-14
POLISH_STOP = 1e-15


@dataclass(frozen=True)
class CandidateSolution:
    """A (possibly partial) weight assignment with its residual and flags."""

    items: tuple
    a: tuple
    b: tuple
    residual: float
    admissible: bool
    level: str = "full"  # "full" or "pair"
    branch: str = "root"  # "root" or "pinned"

    def to_dict(self) -> dict:
        return {
            "items": list(self.items),
            "a": [format_number(v) for v in self.a],
            "b": [format_number(v) for v in self.b],
            "residual": float(self.residual),
            "admissible": self.admissible,
            "level": self.level,
            "branch": self.branch,
        }


@dataclass(frozen=True)
class IdentifiabilityReport:
    unique: bool
    solutions: tuple
    gate_values: dict
    swap_note: bool
    codes: tuple

    def to_dict(self) -> dict:
        return {
            "unique": self.unique,
            "solutions": [s.to_dict() for s in self.solutions],
            "gates": {k: float(v) for k, v in self.gate_values.items()},
            "swap_note": self.swap_note,
            "codes": list(self.codes),
        }

    @property
    def exit_code(self) -> int:
        if "collapse" in self.codes:
            return 3
        return 0 if self.unique else 2


def _tuple_admissible(values) -> bool:
    return all(-TAU_ADM <= float(x) <= 1 + TAU_ADM for x in values)


def _close(u: Sequence, v: Sequence, rtol=DEDUP_RTOL) -> bool:
    return all(
        abs(float(x) - float(y)) <= rtol * max(1.0, abs(float(x)), abs(float(y)))
        for x, y in zip(u, v)
    )


def _dedup(cands: list) -> list:
    kept: list = []
    for c in sorted(cands, key=lambda c: (float(c.residual), tuple(map(float, c.b)))):
        if any(_close(c.a + c.b, k.a + k.b) for k in kept):
            continue
        kept.append(c)
    return kept


def _rationalize_root(poly: RealPolynomial, r: float, ints: list | None = None):
    """The small-denominator rational root that the float root r stands
    for, else None. `ints` are the exact `poly`'s coefficients cleared to
    integers (`integer_coefficients`), when the caller already has them:
    `_band_roots` clears each polynomial once for all of its roots.

    The float image of an exact polynomial rounds its roots by about 1e-14,
    more than `limit_denominator` can undo for a denominator near 1e7, so r
    first takes one Newton step on the exact polynomial (`_newton_step`),
    and the candidates are the best approximations of the step's result
    with denominators up to 10, 100, ..., 10^12, in that order, all from
    one walk of its continued fraction (`_best_approximations`). An exact
    root counts only within d times the step of r, d the degree: from near
    a root of multiplicity m <= d the step moves about 1/m of the way
    there, so a root farther off is another root of the polynomial (0, or
    a small denominator near r).

    A candidate p/q in lowest terms can be a nonzero root of the cleared
    integer polynomial only if q divides its leading coefficient and p its
    lowest nonzero one (rational root theorem); the candidates that pass
    take one integer evaluation, the sum of c_k p^k q^(d - k).
    """
    if ints is None:
        ints, _ = integer_coefficients(poly.coeffs)
    lead, low = ints[-1], next((c for c in ints if c), 0)
    x = Fraction(r)
    target = _newton_step(ints, x)
    radius = (len(ints) - 1) * abs(target - x)
    for cand in _best_approximations(target, [10**digits for digits in range(1, 13)]):
        p, q = cand.numerator, cand.denominator
        if lead % q or (p and low % p) or abs(cand - x) > radius:
            continue
        if _homogeneous(ints, p, q) == 0:
            return cand
    return None


def _best_approximations(x: Fraction, bounds):
    """Yields `x.limit_denominator(m)` for each m of the ascending `bounds`,
    from one walk of x's continued fraction.

    `limit_denominator(m)` walks the convergents of x until the next
    denominator would pass m, then takes the closer of the last convergent
    p1/q1 and the semiconvergent (p0 + k p1)/(q0 + k q1) with the largest k
    that keeps its denominator at most m, the convergent on a tie. A larger
    bound walks on from where a smaller one stopped, so one walk serves
    every bound. With n/d the complete quotient left and den x's
    denominator, the convergent lies d / (q1 den) from x, and the two
    candidates lie on either side of x, 1 / (q1 (q0 + k q1)) apart, so the
    convergent is the closer one exactly when 2 d (q0 + k q1) <= den: a
    test in integers, where `limit_denominator` subtracts Fractions.
    """
    p0, q0, p1, q1 = 0, 1, 1, 0
    n, d = x.numerator, x.denominator
    for m in bounds:
        if x.denominator <= m:
            yield x
            continue
        while True:
            a = n // d
            q2 = q0 + a * q1
            if q2 > m:
                break
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
            n, d = d, n - a * d
        k = (m - q0) // q1
        if 2 * d * (q0 + k * q1) <= x.denominator:
            yield Fraction(p1, q1)
        else:
            yield Fraction(p0 + k * p1, q0 + k * q1)


def _homogeneous(coeffs: list, num: int, den: int) -> int:
    """p(num / den) den^d for the integer polynomial `coeffs` (ascending)
    of degree d: the sum of c_k num^k den^(d - k), by Horner's rule."""
    acc, power = 0, 1
    for c in reversed(coeffs):
        acc, power = acc * num + c * power, power * den
    return acc


def _newton_step(ints: list, x: Fraction) -> Fraction:
    """One exact Newton step from x on the integer polynomial `ints`
    (ascending coefficients). With x = num/den, P = p(x) den^d and
    D = p'(x) den^(d-1), the step is (num D - P) / (den D); x itself where
    D = 0."""
    num, den = x.numerator, x.denominator
    big_p = _homogeneous(ints, num, den)
    big_d = _homogeneous([k * c for k, c in enumerate(ints)][1:], num, den)
    return Fraction(num * big_d - big_p, den * big_d) if big_d else x


def _float_system(sys: PairSystemInput, pair: bool = False) -> PairSystemInput:
    """The float image of `sys`, float arrays for a batched system; without
    its two-item slate value unless `pair` is set."""
    fields = (sys.lam, sys.c_full_i, sys.c_full_j, sys.c_drop_j_i, sys.c_drop_i_j, sys.c_pair_i)
    floats = (np.asarray(v, float) if isinstance(v, np.ndarray) else float(v) for v in fields)
    return PairSystemInput(*islice(floats, 5 + pair))


def _drop_equations(c: PairSystemInput, x, y):
    """Residuals (e1, e2) of the two drop-slate equations at
    (b_i, b_j) = (x, y).

    On floats, None when a denominator is guarded. On arrays every entry is
    computed and a third item masks the entries that are valid; the others
    hold no meaningful value.
    """
    lam = c.lam
    (e1, e2), (ok1, ok2) = pair_equations(c, c.c_full_i - lam * x, c.c_full_j - lam * y, x, y)
    if isinstance(x, np.ndarray):
        return e1, e2, ok1 & ok2
    return (e1, e2) if ok1 and ok2 else None


def _drop_jacobian(c: PairSystemInput, x, y) -> tuple:
    """The closed-form Jacobian of `_drop_equations` at (x, y), row by row;
    squares are products, which floats and arrays round alike (`**` does not)."""
    lam = c.lam
    ai, aj = c.c_full_i - lam * x, c.c_full_j - lam * y
    da, db, dc, dd = 1 - aj, 1 - y, 1 - ai, 1 - x
    return (
        lam / db - lam / da,
        lam * x / (db * db) - lam * ai / (da * da),
        lam * y / (dd * dd) - lam * aj / (dc * dc),
        lam / dd - lam / dc,
    )


def _polish_pair(sys: PairSystemInput, bi: float, bj: float, steps: int = POLISH_STEPS):
    """Newton-refine (b_i, b_j) on the two drop-slate equations.

    Float quartic roots lose accuracy when solutions cluster (near the
    collapse set the quartic has a near-multiple root, costing ~eps^(1/4));
    the candidate itself still separates, so a couple of Newton steps on the
    residual system restore full precision.
    """
    c = _float_system(sys)
    x, y = float(bi), float(bj)
    cur = _drop_equations(c, x, y)
    if cur is None:
        return bi, bj
    best = (abs(cur[0]) + abs(cur[1]), x, y)
    for _ in range(steps):
        f1, f2 = cur
        j11, j12, j21, j22 = _drop_jacobian(c, x, y)
        det = j11 * j22 - j12 * j21
        if abs(det) < POLISH_DET_FLOOR:
            break
        dx = (-f1 * j22 + f2 * j12) / det
        dy = (-j11 * f2 + j21 * f1) / det
        x, y = x + dx, y + dy
        cur = _drop_equations(c, x, y)
        if cur is None:
            break
        err = abs(cur[0]) + abs(cur[1])
        if err < best[0]:
            best = (err, x, y)
        if err < POLISH_STOP:
            break
    return best[1], best[2]


def _polish_batch(c: PairSystemInput, x, y, live):
    """`_polish_pair` on arrays, for the entries where `live` is set: each
    takes the scalar loop's steps, in the same operations, and stops where
    it would, so it equals `_polish_pair` bit for bit. The other entries
    come back unchanged (every entry steps, but only live ones are kept)."""
    with np.errstate(all="ignore"):
        e1, e2, ok = _drop_equations(c, x, y)
        live = live & ok
        best_err = np.where(live, abs(e1) + abs(e2), np.inf)
        best_x, best_y = x, y
        for _ in range(POLISH_STEPS):
            if not live.any():
                break
            j11, j12, j21, j22 = _drop_jacobian(c, x, y)
            det = j11 * j22 - j12 * j21
            live = live & (abs(det) >= POLISH_DET_FLOOR)
            x = x + (-e1 * j22 + e2 * j12) / det
            y = y + (-j11 * e2 + j21 * e1) / det
            e1, e2, ok = _drop_equations(c, x, y)
            live = live & ok
            err = abs(e1) + abs(e2)
            better = live & (err < best_err)
            best_err = np.where(better, err, best_err)
            best_x, best_y = np.where(better, x, best_x), np.where(better, y, best_y)
            live = live & ~(err < POLISH_STOP)
    return best_x, best_y


def _pair_batch(
    table: OracleTable, pairs: Sequence[tuple], items=None, include_pair: bool = True
) -> PairSystemInput:
    """`pair_system(table, i, j, items, include_pair)` for every (i, j) in
    `pairs`, as one system whose oracle fields are (P, 1) arrays in the
    table's arithmetic: float arrays of float values, object arrays of
    Fractions, read by position from the row of the slate `items` (default:
    the universe) and its drop-one rows. Its lambda is the table's."""
    entries = table.entries
    full = Slate.of(items if items is not None else range(1, table.n + 1)).items
    row = np.array(entries[full])
    # drop[k, t]: value of item full[t] on the slate without item full[k]
    drop = []
    for k in range(len(full)):
        values = entries[full[:k] + full[k + 1:]]
        drop.append(values[:k] + (0,) + values[k:])
    drop = np.array(drop, row.dtype)
    pos = np.zeros(full[-1] + 1, int)
    pos[list(full)] = range(len(full))
    i, j = (pos[list(side)][:, None] for side in zip(*pairs))
    c_pair = None
    if include_pair:
        c_pair = np.array(
            [entries[p][0] if p[0] < p[1] else entries[p[::-1]][1] for p in pairs]
        )[:, None]
    return PairSystemInput(
        lam=table.lam,
        c_full_i=row[i],
        c_full_j=row[j],
        c_drop_j_i=drop[j, i],
        c_drop_i_j=drop[i, j],
        c_pair_i=c_pair,
    )


def _batch_rows(batch: PairSystemInput, rows: slice) -> PairSystemInput:
    """The systems `rows` of a batched system."""
    vals = (batch.c_full_i, batch.c_full_j, batch.c_drop_j_i, batch.c_drop_i_j, batch.c_pair_i)
    return PairSystemInput(batch.lam, *(None if v is None else v[rows] for v in vals))


def _row_system(batch: PairSystemInput, row: int, pivot: int, partner: int) -> PairSystemInput:
    """System `row` of a batched system as the scalar (pivot, partner)
    system, without its two-item slate value."""
    vals = (batch.c_full_i, batch.c_full_j, batch.c_drop_j_i, batch.c_drop_i_j)
    return PairSystemInput(batch.lam, *(v.item(row, 0) for v in vals), pivot=pivot, partner=partner)


def _coefficient_rows(coeffs: Sequence) -> np.ndarray:
    """(P, k) array of k ascending coefficient columns of shape (P, 1)."""
    return np.concatenate(np.broadcast_arrays(*coeffs), axis=1)


def _zone(value, tau: float) -> tuple:
    """(surely at most tau, surely above tau) for `value`.

    Values within SCREEN_MARGIN of tau, on either side, are neither; so is NaN.
    """
    return value <= tau / SCREEN_MARGIN, value > tau * SCREEN_MARGIN


def _leading_safe(coeffs: np.ndarray) -> np.ndarray:
    """Rows whose leading coefficient is finite and surely not trimmed by
    `RealPolynomial.of`."""
    scale = np.abs(coeffs).max(axis=1)
    lead = np.abs(coeffs[:, -1])
    return np.isfinite(coeffs).all(axis=1) & (
        lead > DEFAULT_TOL.tau_lead * SCREEN_MARGIN * scale
    )


def _screen_pairs(batch: PairSystemInput, quartic, pivots, tol: float) -> np.ndarray:
    """Which pair systems of the batch can add a solution to the report.

    `quartic` holds the batch's `cleared_pair_quartic` rows and `pivots` the
    (P, 1) float pivot weights b_i of the model whose oracle the batch reads;
    all are read as floats. Follows `solve_pair_system` on every row at
    once: the screen's roots of each row stand in for `solve_all_roots`'
    companion eigenvalues, then the partner map, the Newton polish,
    admissibility and the residual.

    The model's b_i is a root of its own pair quartic q, so each row is
    deflated at b_i by synthetic division, and its other three roots come
    from the closed-form cubic (`cubic_roots`); the pinned-branch quadratic
    is solved in closed form too (`quadratic_roots`). A root z counts only
    when |q(z)| <= tau_lead * |q| * max(1, |z|)^4, with |q| the row's
    sup-norm: z is then an exact root of q with one coefficient changed by
    at most tau_lead * |q| (the constant term when |z| <= 1, the leading one
    otherwise), a change `RealPolynomial.of` treats as rounding noise when
    it trims a leading coefficient. The residuals measured on oracle rows
    are about 1e-15 of that scale, for b_i and the cubic's roots alike. A
    row with a larger one is unsure: a b_i that is not a root of the row,
    or a cubic whose closed forms lose their small roots beside a huge one.
    A pinned truth (a_i = b_i) passes, since its quartic vanishes doubly at
    b_i; its row is unsure because b_i sits on the pin, where the partner
    map's denominator vanishes.

    Each decision is sure only outside SCREEN_MARGIN of its threshold. A row
    needs the scalar solver when any decision is unsure, when three quartic
    roots cluster within 1 / SCREEN_MARGIN, or when its surviving candidates
    are not all one class (close, or at lambda = 1 swap-close, within
    DEDUP_RTOL / SCREEN_MARGIN); every other row has at most one solution,
    which the pair scan skips.

    Returns the (P,) mask of rows to solve.
    """
    uniform = float(batch.lam) == 1.0
    batch = _float_system(batch, pair=True)
    c, lam, quartic = _float_system(batch), batch.lam, quartic.astype(float)
    quad = _coefficient_rows(cleared_partner_quadratic(batch, X))
    with np.errstate(all="ignore"):
        # synthetic division at b_i, as in `deflate_root`
        cubic = [quartic[:, 4:]]
        for k in (3, 2, 1):
            cubic.append(quartic[:, k:k + 1] + cubic[-1] * pivots)
        roots = np.concatenate([pivots, cubic_roots(np.concatenate(cubic[::-1], axis=1))], axis=1)
        ys = quadratic_roots(quad)
        # each root's Horner residual against its sup-norm scale
        value, size = quartic[:, 4:], np.maximum(1.0, abs(roots))
        for k in range(3, -1, -1):
            value = value * roots + quartic[:, k:k + 1]
        scale = DEFAULT_TOL.tau_lead * abs(quartic).max(axis=1, keepdims=True)
        sure = _leading_safe(quartic) & _leading_safe(quad)
        sure &= (abs(value) <= scale * size**4).all(axis=1)
        # within a cluster of three roots the screen's closed forms and the
        # scalar path's companion eigenvalues may differ by more than the
        # margin covers
        gap = abs(roots[:, :, None] - roots[:, None, :]) / size[:, :, None]
        sure &= (np.sort(gap, axis=2)[:, :, 2] >= 1 / SCREEN_MARGIN).all(axis=1)

        # root branch: four pivot values per row
        bi = roots.real
        real, cplx = _zone(abs(roots.imag), DEFAULT_TOL.tau_imag)
        inside, outside = _zone(np.maximum(-bi, bi - 1), TAU_ADM)
        num, den = partner_map(batch)
        den = den(bi)
        off_pin = abs(den) > batch.tau_den() * SCREEN_MARGIN
        bj = num(bi) / np.where(off_pin, den, 1.0)
        bi, bj = _polish_batch(c, bi, bj, off_pin & ~(cplx | outside))
        # pinned branch: the fixed partner value and the quadratic's two roots
        pin = batch.pivot_pin()
        y_real, y_cplx = _zone(abs(ys.imag), DEFAULT_TOL.tau_imag)
        y_in, y_out = _zone(np.maximum(-ys.real, ys.real - 1), TAU_ADM)

        # seven candidates per row: four root-branch, three pinned
        pins = np.broadcast_to(pin, (len(pin), 3))
        b_i = np.concatenate([bi, pins], axis=1)
        b_j = np.concatenate([bj, ys.real, batch.c_full_j / (1 + lam)], axis=1)
        a_i = np.concatenate([batch.c_full_i - lam * bi, pins], axis=1)
        a_j = batch.c_full_j - lam * b_j
        vals = np.stack([a_i, a_j, b_i, b_j])
        # whether the scalar path surely builds a candidate, surely does not,
        # and whether the values here are its values (near the pin they are not)
        one = np.ones_like(pin, dtype=bool)
        exists = np.concatenate([real & inside & off_pin, y_real & y_in, one], axis=1)
        absent = np.concatenate([cplx | outside, y_cplx | y_out, ~one], axis=1)
        valid = np.concatenate([off_pin, one, one, one], axis=1)
        adm, inadm = _zone(np.maximum(-vals, vals - 1).max(axis=0), TAU_ADM)
        # the pair-slate equations; the full-slate ones hold by construction.
        # A guarded equation leaves the residual test undecided
        errs, ok = pair_equations(batch, a_i, a_j, b_i, b_j)
        good, bad = _zone(np.max(np.abs(errs), axis=0), tol)
        ok = np.logical_and.reduce(ok)
        good, bad = good & ok, bad & ok
        survives = exists & adm & good
        fails = absent | (valid & (inadm | bad))
        sure &= (survives | fails).all(axis=1)

        # a generic row has one survivor; only rows with more take the
        # one-class test
        several = sure & (survives.sum(axis=1) > 1)
        if several.any():
            sure[several] = _one_class(vals[:, several], survives[several], uniform)
    return ~sure


def _one_class(vals: np.ndarray, survives: np.ndarray, uniform: bool) -> np.ndarray:
    """Whether each row's surviving candidates among the (4, R, k) values
    (a_i, a_j, b_i, b_j) are all one class: every two are close, or at
    lambda = 1 swap-close, within DEDUP_RTOL / SCREEN_MARGIN."""

    def near(u, v):
        scale = np.maximum(1.0, np.maximum(abs(u), abs(v)))
        return (abs(u - v) / scale).max(axis=0) <= DEDUP_RTOL / SCREEN_MARGIN

    left, right = vals[:, :, :, None], vals[:, :, None, :]
    merged = near(left, right)
    if uniform:
        merged |= near(left, right[[2, 3, 0, 1]])
    both = survives[:, :, None] & survives[:, None, :]
    return (merged | ~both).all(axis=(1, 2))


def _band_roots(poly: RealPolynomial) -> list:
    """Real roots of `poly` in the admissible band, rationalized when exact."""
    p = poly.as_float()
    if p.is_zero() or p.degree < 1:
        return []
    roots = solve_all_roots(p).real_roots_in(-TAU_ADM, 1 + TAU_ADM)
    if not poly.exact or not roots:
        return list(roots)
    # one clearing of the denominators serves every root
    ints, _ = integer_coefficients(poly.coeffs)
    out = []
    for r in roots:
        fr = _rationalize_root(poly, r, ints)
        out.append(fr if fr is not None else r)
    return out


def _pivot_pairs(sys: PairSystemInput, pivots) -> list:
    """(b_i, b_j) for each pivot value b_i through the partner map of `sys`.

    Pivot values on the pinned branch are skipped; float pairs are
    Newton-polished on the two drop-slate equations.
    """
    pairs = []
    for bi in pivots:
        try:
            bj = partner_value(bi, sys)
        except DegenerateBranchSignal:
            continue
        if not is_exact(bi):
            bi, bj = _polish_pair(sys, bi, bj)
        pairs.append((bi, bj))
    return pairs


def solve_pair_system(sys: PairSystemInput, tol: float = RESIDUAL_TOL) -> list:
    """All admissible solutions of one (a_i, a_j, b_i, b_j) system.

    Takes the real quartic roots inside the admissible band, back-substitutes
    each to a full 4-tuple, then appends the pinned-branch candidates; only
    candidates whose equation residual stays at or below tol survive.
    """
    lam = sys.lam
    raw = []
    for bi, bj in _pivot_pairs(sys, _band_roots(pair_quartic(sys))):
        ai = sys.c_full_i - lam * bi
        aj = sys.c_full_j - lam * bj
        raw.append(((ai, aj, bi, bj), "root"))
    # pinned branch: pivot fixed at c_full_i/(1+lam)
    m = sys.pivot_pin()
    quad = degenerate_partner_quadratic(sys)
    pinned_js = [sys.c_full_j / (1 + lam)] + _band_roots(quad)
    for bj in pinned_js:
        aj = sys.c_full_j - lam * bj
        raw.append(((m, aj, m, bj), "pinned"))

    cands = []
    for (ai, aj, bi, bj), branch in raw:
        res = pair_system_residual(sys, ai, aj, bi, bj)
        adm = _tuple_admissible((ai, aj, bi, bj))
        cands.append(
            CandidateSolution(
                items=(sys.pivot, sys.partner),
                a=(ai, aj),
                b=(bi, bj),
                residual=float(res),
                admissible=adm,
                level="pair",
                branch=branch,
            )
        )
    good = [c for c in cands if c.admissible and c.residual <= tol]
    return _dedup(good)


def slate_cells(rows, items: Sequence[int]) -> tuple:
    """The (R, m) boolean slate-by-item incidence of (slate items, values)
    rows over `items`, then each (row, item) value's row, item column and
    value, in row order; values are floats or the rows' own Fractions."""
    pos = {it: idx for idx, it in enumerate(items)}
    slates, rows = zip(*rows)
    row_of = np.repeat(np.arange(len(rows)), [len(slate) for slate in slates])
    col_of = np.array([pos[i] for slate in slates for i in slate])
    values = np.array([c for row in rows for c in row])
    member = np.zeros((len(rows), len(pos)), bool)
    member[row_of, col_of] = True
    return member, row_of, col_of, values


def full_residual(a: np.ndarray, b: np.ndarray, oracle: OracleTable, items: Sequence[int]):
    """Max violation over every oracle equation, at the table's lambda, plus
    the two sum constraints for each row of the (K, m) weights, inf where a
    slate sum is not positive.

    The cells are `_cell_residual`'s. A sum constraint adds the row's weights
    in the order of `items`, as Python's `sum` does, in the row's own
    arithmetic.
    """
    worst = [abs(sum(w[:, t] for t in range(w.shape[1])) - 1).astype(float) for w in (a, b)]
    cells = _cell_residual(a, b, oracle.lam, oracle.entries.items(), items)
    return np.max([*worst, cells], axis=0)


def _cell_residual(a: np.ndarray, b: np.ndarray, lam, rows, items: Sequence[int]):
    """Max violation at `lam` over the cells of the (slate items, values)
    `rows`, for each row of the (K, m) weights over `items`; inf where a
    slate sum is not positive.

    On an exact table and lambda, rows that are all Fractions run in
    integers (`_integer_cells`). Any other row keeps its arithmetic
    (`_cells`). A cell's value depends only on its own slate's weights, so
    fewer slates give the same values on the slates they hold.
    """
    cells = slate_cells(rows, items)
    if a.dtype != object or not is_exact(lam, *cells[3]):
        return _cells(a, b, lam, cells)
    exact = np.array([is_exact(*u, *v) for u, v in zip(a, b)], bool)
    out = np.empty(len(a))
    if exact.any():
        out[exact] = _integer_cells(a[exact], b[exact], lam, cells)
    if not exact.all():
        out[~exact] = _cells(a[~exact], b[~exact], lam, cells)
    return out


def _cells(a, b, lam, cells) -> np.ndarray:
    """`_cell_residual` of rows in the weights' own arithmetic: a slate sum
    adds the slate's own cells in slate order, as Python's `sum` does."""
    member, row_of, col_of, values = cells
    w = np.array((a, b))[:, :, col_of]
    s = np.zeros((2, len(a), len(member)), w.dtype)
    np.add.at(s, (slice(None), slice(None), row_of), w)
    bad = (s <= 0).any(axis=(0, 2))
    s = np.where(s <= 0, 1, s)[:, :, row_of]
    # a cell may overflow to inf, the residual such a candidate should get
    with np.errstate(all="ignore"):
        cells = abs(w[0] / s[0] + lam * (w[1] / s[1]) - values).astype(float)
    return np.where(bad, np.inf, cells.max(axis=1))


def _integer_cells(a, b, lam, cells) -> np.ndarray:
    """`_cells` of rational rows on an exact table and lambda.

    With a = alpha / A and b = beta / B over integers, a_i / s_a is
    alpha_i / sum(alpha), so each cell is one integer numerator over an
    integer denominator. An int / int division rounds correctly, as the
    float of the Fraction does.
    """
    member, row_of, col_of, values = cells
    al, be = (np.array([integer_coefficients(row)[0] for row in w], object) for w in (a, b))
    vals, lam = [Fraction(v) for v in values], Fraction(lam)
    vn = np.array([v.numerator for v in vals], object)
    vd = np.array([v.denominator for v in vals], object)
    sa, sb = al @ member.T, be @ member.T
    bad = ((sa <= 0) | (sb <= 0)).any(axis=1)
    sa, sb = (np.where(s <= 0, 1, s)[:, row_of] for s in (sa, sb))
    num = (al[:, col_of] * sb * lam.denominator + lam.numerator * be[:, col_of] * sa) * vd
    num -= vn * sa * sb * lam.denominator
    cells = (abs(num) / (sa * sb * lam.denominator * vd)).astype(float)
    return np.where(bad, np.inf, cells.max(axis=1))


def _tail_weights(batch: PairSystemInput, t: int, sys01, sys10, b1: list, b2: list) -> np.ndarray:
    """The (K, t) weights b_j of the t tail items of the pivot pairs
    (b1, b2), from a batch laid out as `_enumerate` reads it.

    Each b_j comes from the first pivot's partner map, from the second's
    where the first is pinned (a pin depends on the pivot alone), and is
    c_full_j / (1 + lambda), exact for collapsed models, where both are.
    Near the pin the map amplifies any pivot error, so a b_j from a float
    pivot is Newton-refined on its system. Entries take the operations of
    `partner_value` and `_polish_pair` in the table's arithmetic, so they
    equal the scalar loop bit for bit.
    """
    lam = batch.lam
    vals = (batch.c_full_i, batch.c_full_j, batch.c_drop_j_i, batch.c_drop_i_j)
    fields = [v[2:2 + 2 * t, 0] for v in vals]
    out = np.empty((len(b1), t), fields[0].dtype)
    out[:] = fields[1][:t] / (1 + lam)
    second = [pivot_pinned(u, sys01) for u in b1]
    mapped = [k for k, p in enumerate(second) if not (p and pivot_pinned(b2[k], sys10))]
    if not mapped:
        return out
    x = np.array([[b2[k] if second[k] else b1[k]] for k in mapped], out.dtype)
    rows = t * np.array([[second[k]] for k in mapped]) + np.arange(t) if any(second) else slice(t)
    sys = PairSystemInput(lam, *(f[rows] for f in fields))
    num, den = partner_map(sys)
    y = num(x) / den(x)
    live = np.ones(y.shape, bool)
    if out.dtype == object:
        live &= np.array([[not is_exact(v)] for v in x[:, 0]])
    if live.any():
        c = _float_system(sys)
        _, polished = _polish_batch(c, np.asarray(x, float), np.asarray(y, float), live)
        y = np.where(live, polished, y)
    out[mapped] = y
    return out


def _viable_pairs(pairs: list, oracle: OracleTable, sys01: PairSystemInput, tol: float) -> list:
    """The (b1, b2, branch) pivot pairs of `sys01` whose full candidates can
    survive `enumerate_candidates`' filter.

    A pair fixes a1 and a2 through the full slate, as `_enumerate` does.
    It is dropped when (a1, a2, b1, b2) is not admissible, or when the
    table holds the two pivots' slate and the pair's cells there, computed
    as `full_residual` computes them, are not at most tol (inf where the
    slate sum is not positive). The full candidate would fail as well: its
    admissibility covers the four values and its residual is a max over
    those same cells.
    """
    lam, i0, i1 = oracle.lam, sys01.pivot, sys01.partner
    b = [(b1, b2) for b1, b2, _ in pairs]
    a = [(sys01.c_full_i - lam * b1, sys01.c_full_j - lam * b2) for b1, b2 in b]
    keep = np.array([_tuple_admissible(u + v) for u, v in zip(a, b)])
    slate = tuple(sorted((i0, i1)))
    if keep.any() and slate in oracle.entries:
        floats = all(isinstance(v, float) for u in a + b for v in u)
        a, b = (np.array(w, float if floats else object) for w in (a, b))
        keep &= _cell_residual(a, b, lam, [(slate, oracle.entries[slate])], (i0, i1)) <= tol
    return list(compress(pairs, keep))


def enumerate_candidates(
    oracle: OracleTable,
    items: Sequence[int],
    tol: float = RESIDUAL_TOL,
) -> list:
    """All admissible full assignments over `items` consistent with the oracle:
    the candidates whose weights lie within TAU_ADM of [0, 1] and whose full
    residual is at most tol (`_enumerate`, on a batch of its own)."""
    items = tuple(items)
    layout = [(items[1], items[0]), *combinations(items, 2)]
    batch = _pair_batch(oracle, layout, items, include_pair=False)
    quartic = _coefficient_rows(cleared_pair_quartic(_batch_rows(batch, slice(2)), X))
    return _enumerate(oracle, items, batch, quartic, tol)


def _enumerate(oracle: OracleTable, items: tuple, batch: PairSystemInput, quartic, tol: float) -> list:
    """`enumerate_candidates` on a batch laid out as (second, first), then
    every pair of `items` in `combinations` order, so that its (first, j)
    rows and then its (second, j) rows follow (first, second); `quartic`
    holds the quartic rows of its first two.

    Pivot pairs come from both quartics' roots plus the doubly pinned
    branch, so both degenerate branches are covered; pairs that cannot
    survive are dropped (`_viable_pairs`), and the rest extended.
    """
    first, second = items[:2]
    lam = oracle.lam
    sys10, sys01 = _row_system(batch, 0, second, first), _row_system(batch, 1, first, second)
    roots10, roots01 = (_band_roots(RealPolynomial.of(row)) for row in quartic[:2])
    pairs = [(b1, b2, "root") for b1, b2 in _pivot_pairs(sys01, roots01)]
    pairs += [(b1, b2, "root") for b2, b1 in _pivot_pairs(sys10, roots10)]
    pairs.append((sys01.pivot_pin(), sys10.pivot_pin(), "pinned"))
    pairs = _viable_pairs(pairs, oracle, sys01, tol)
    if not pairs:
        return []

    b1, b2, branches = (list(v) for v in zip(*pairs))
    full = Slate.of(items).items
    value = dict(zip(full, oracle.entries[full]))
    c_full = [value[i] for i in items]
    if len(items) == 3:
        a, b = [], []
        for u, v in zip(b1, b2):
            a1, a2, a3, b3 = back_substitute(u, v, c_full, lam)
            a.append((a1, a2, a3))
            b.append((u, v, b3))
    else:
        tail = _tail_weights(batch, len(items) - 2, sys01, sys10, b1, b2).tolist()
        b = [(u, v, *rest) for u, v, rest in zip(b1, b2, tail)]
        a = [tuple(c - lam * bj for c, bj in zip(c_full, bs)) for bs in b]
    floats = all(isinstance(v, float) for row in a + b for v in row)
    w = np.array([a, b], dtype=float if floats else object)
    residuals = full_residual(w[0], w[1], oracle, items)
    cands = [
        CandidateSolution(
            items=items, a=u, b=v, residual=float(res),
            admissible=_tuple_admissible(u + v), branch=branch,
        )
        for u, v, branch, res in zip(a, b, branches, residuals)
    ]
    return _dedup([c for c in cands if c.admissible and c.residual <= tol])


def _swap_equivalent(c1: CandidateSolution, c2: CandidateSolution) -> bool:
    return _close(c1.a + c1.b, c2.b + c2.a)


def _leads(a: Sequence, b: Sequence) -> bool:
    """Whether a_i < b_i at the first item where they differ by more than
    DEDUP_RTOL (True when none does): the order in which lambda = 1 reports
    and the learner show a swap class's (a, b)."""
    for x, y in zip(a, b):
        if abs(float(x) - float(y)) > DEDUP_RTOL:
            return x < y
    return True


def _swap_classes(cands: list) -> tuple:
    """The lambda = 1 swap classes of `cands` and whether any two merged.

    Each class shows one fixed member, in `_dedup`'s order: its first
    candidate that `_leads`, else its first with a and b exchanged (the
    residual is symmetric at lambda = 1)."""
    kept: list = []
    for c in cands:
        if not any(_swap_equivalent(c, k) for k in kept):
            kept.append(c)
    members = []
    for k in kept:
        same = [c for c in cands if c is k or _swap_equivalent(c, k)]
        members.append(next((c for c in same if _leads(c.a, c.b)), replace(k, a=k.b, b=k.a)))
    return _dedup(members), len(kept) < len(cands)


def identify_slates(n: int) -> list:
    """The slates `check_identifiability` reads, in `all_slates`' order: at
    n = 3 and n = 4 every slate, at larger n the 2-, (n-1)- and n-slates,
    the sizes the reduction and its filters consume."""
    return [Slate(c) for k in sorted({2, n - 1, n}) for c in combinations(range(1, n + 1), k)]


def check_identifiability(
    model: MixtureModel, tol: float = RESIDUAL_TOL
) -> IdentifiabilityReport:
    """Decide uniqueness of the model's weights given its exact oracle.

    Enumerates full-system solutions, scans every pair system (with the
    two-item slate) for pair-level multiplicity, and computes the scaled
    resultant gates, all from one batch of pair systems. Unique means a
    single admissible class at both levels. At lambda = 1 solutions are
    classes up to component swap (`_swap_classes`). The full classes come
    first, then each scanned pair's extra classes, pair by pair in scan
    order. Raises `ParameterError` unless tol > 0.
    """
    if not tol > 0:
        raise ParameterError("tol must be positive")
    n = model.n
    codes: list = []
    if model.collapse_gap() < COLLAPSE_GAP:
        truth = CandidateSolution(
            items=tuple(range(1, n + 1)),
            a=model.a.w,
            b=model.b.w,
            residual=0.0,
            admissible=True,
        )
        return IdentifiabilityReport(
            unique=False,
            solutions=(truth,),
            gate_values={},
            swap_note=False,
            codes=("collapse",),
        )

    table = oracle_table(model, identify_slates(n))

    # the enumeration's layout: (2, 1), then every pair i < j; the gates read
    # the (1, j) rows, the screen every row from (1, 2) on. At n = 3 no pair
    # is scanned
    universe = tuple(range(1, n + 1))
    pairs = list(combinations(universe, 2))
    batch = _pair_batch(table, [(2, 1), *pairs])
    head = _batch_rows(batch, slice(n))
    if n >= 4 and batch.c_full_i.dtype == object:
        # the screen reads the later rows only as floats
        rest = _float_system(_batch_rows(batch, slice(n, None)))
        quartic = np.concatenate(
            [_coefficient_rows(cleared_pair_quartic(sys, X)) for sys in (head, rest)]
        )
    else:
        quartic = _coefficient_rows(cleared_pair_quartic(batch, X))

    full_cands = _enumerate(table, universe, batch, quartic[:2], tol)

    is_uniform = float(model.lam) == 1.0
    swap_note = False
    if is_uniform:
        full_cands, swap_note = _swap_classes(full_cands)

    solutions = list(full_cands)
    if len(full_cands) > 1:
        codes.append("full-multiplicity")
    if not full_cands:
        codes.append("no-solution")

    # each pair's own classes, in scan order
    pair_extra = []
    near_tol = tol * 10.0**-CERT_DECADES
    slate = None
    if n >= 4:
        scanned = _batch_rows(batch, slice(1, None))
        slate = _coefficient_rows(cleared_pair_slate_quartic(_batch_rows(batch, slice(1, n)), X))
        pivots = np.array([[float(model.b[i - 1])] for i, _ in pairs])
        for i, j in compress(pairs, _screen_pairs(scanned, quartic[1:], pivots, tol)):
            sys_ij = pair_system(table, i, j, include_pair=True)
            sols = solve_pair_system(sys_ij, tol=tol)
            if is_uniform:
                sols, _ = _swap_classes(sols)
            if len(sols) <= 1:
                continue
            ta, tb = (model.a[i - 1], model.a[j - 1]), (model.b[i - 1], model.b[j - 1])
            # at lambda = 1 the truth's class may be shown by its swap
            truths = [ta + tb, tb + ta] if is_uniform else [ta + tb]
            extra = [s for s in sols if not any(_close(s.a + s.b, t) for t in truths)]
            if (
                extra
                and min(s.residual for s in extra) > near_tol
                and pair_certified_unique(model, i, j)
            ):
                codes.append("pair-certified")
                continue
            pair_extra.extend(extra)
        if pair_extra:
            codes.append("pair-multiplicity")
            solutions.extend(pair_extra)

    gates = _gate_values(model.b[0], quartic[1:n], slate)
    unique = len(full_cands) == 1 and not pair_extra
    return IdentifiabilityReport(
        unique=unique,
        solutions=tuple(solutions),
        gate_values=gates,
        swap_note=swap_note,
        codes=tuple(dict.fromkeys(codes)),
    )


def exact_model(model: MixtureModel) -> MixtureModel:
    """The exact rational model of the weights.

    Every weight but the last becomes its exact Fraction (a float converts
    without rounding) and the last is one minus the others, so both vectors
    sum to one exactly. Rational models come back unchanged.
    """

    def exact(w):
        head = [Fraction(x) for x in w[:-1]]
        return head + [1 - sum(head)]

    return MixtureModel.of(exact(model.a.w), exact(model.b.w), Fraction(model.lam))


def pair_certified_unique(model: MixtureModel, i: int, j: int) -> bool:
    """Exact proof that pair system (i, j), two-item slate included, has no
    admissible solution besides the model's own weights.

    Decided on `exact_model(model)`. A root-branch solution has its pivot
    weight b_i among the common roots of `pair_quartic` and
    `pair_slate_quartic`, i.e. the roots of their gcd; the gcd is deflated at
    the true b_i and a Sturm count, exact in rational arithmetic, finds no
    further real root in the admissible band. The pinned branch b_i = a_i
    needs the partner map's numerator to vanish at the pin, which must fail.
    False means "not proven", never "proven non-unique".
    """
    band = (-Fraction(TAU_ADM), 1 + Fraction(TAU_ADM))
    try:
        exact = exact_model(model)
        table = oracle_table(exact, pair_slates(range(1, model.n + 1), i, j))
        sys_ij = pair_system(table, i, j, include_pair=True)
        common = poly_gcd(pair_quartic(sys_ij), pair_slate_quartic(sys_ij))
        if common.is_zero():
            return False
        b_i = exact.b[i - 1]
        if common.degree >= 1 and common(b_i) == 0:
            common = deflate_root(common, b_i)
        if common.degree >= 1 and count_real_roots_sturm(common, *band) > 0:
            return False
    except (ParameterError, DegenerateInputError):
        return False
    return partner_map(sys_ij)[0](sys_ij.pivot_pin()) != 0


def _trimmed(rows: np.ndarray) -> tuple:
    """`rows` with the trailing coefficients that `RealPolynomial.of` trims
    set to zero, the degree of each trimmed row and its sup-norm.

    Object rows (Fractions) lose trailing zeros; float rows lose trailing
    coefficients within tau_lead times the row's sup-norm, which trimming
    leaves unchanged.
    """
    mags = abs(rows)
    norm = mags.max(axis=1)
    small = rows == 0 if rows.dtype == object else mags <= DEFAULT_TOL.tau_lead * norm[:, None]
    if not small[:, -1].any():
        return rows, np.full(len(rows), rows.shape[1] - 1), norm
    # the leading run of small coefficients, never the constant term
    trail = np.logical_and.accumulate(small[:, ::-1], axis=1)[:, ::-1]
    trail[:, 0] = False
    return np.where(trail, 0, rows), rows.shape[1] - 1 - trail.sum(axis=1), norm


def _gate_values(b1, quartic: np.ndarray, slate=None) -> dict:
    """Scaled resultant gates from the model's deflated pair cubics.

    `quartic` holds the `pair_quartic` coefficient rows of the (1, j) pair
    systems for j = 2..n, untrimmed, and `slate` their `pair_slate_quartic`
    rows (none at n = 3, which has no `pair:` gates). Each row goes through
    the steps of `deflate_root` at b1 and `resultant_gate`. Rows of
    Fractions with a Fraction b1 run exactly, on integer cubics
    (`_integer_cubics`); anything else runs in floats, as
    `RealPolynomial.of` and `deflate_root` decide (`_float_cubics`). A
    (1, j) row whose deflation residual exceeds tau_defl times its sup-norm
    (exactly: is not zero) drops every gate that involves j; a pair-slate
    row that fails drops `pair:j`; a gate with a side of degree below 1 is
    omitted. The gates are Sylvester determinants, one stack per pair of
    degrees.
    """
    count = len(quartic)
    p = quartic if slate is None else np.concatenate([quartic, slate])
    exact = p.dtype == object and is_exact(b1, *p.flat)
    if exact:
        cubic, degree, root, norm = _integer_cubics(p, b1)
    else:
        # a row with a float in it, or a float b1, runs in floats
        cubic, degree, root = _float_cubics(p.astype(float), float(b1))
    usable = (degree >= 1) & root
    # rows j < k of the (1, j) cubics for the drop gates, then row j against
    # its pair-slate cubic, in key order
    drop = list(combinations(range(count), 2))
    pair = range(count) if slate is not None else ()
    first = np.array([j for j, _ in drop] + list(pair), dtype=int)
    second = np.array([k for _, k in drop] + [count + j for j in pair], dtype=int)
    keys = [f"drop:{j + 2},{k + 2}" for j, k in drop]
    keys += [f"pair:{j + 2}" for j in pair]
    live = usable[first] & usable[second]
    gates = np.zeros(len(keys))
    dp, dq = degree[first], degree[second]
    for d, e in set(zip(dp[live].tolist(), dq[live].tolist())):
        at = live & (dp == d) & (dq == e)
        f, g = cubic[first[at], : d + 1], cubic[second[at], : e + 1]
        if exact:
            # R(F / |F|, G / |G|) = R(F, G) / (|F|^e |G|^d); an int / int
            # division rounds correctly, as the float of the Fraction does
            gates[at] = [
                abs(integer_resultant(a, b)) / (u**e * v**d)
                for a, b, u, v in zip(f, g, norm[first[at]], norm[second[at]])
            ]
        else:
            gates[at] = abs(sylvester_resultants(f, g))
    return {key: v for key, v, ok in zip(keys, gates.tolist(), live) if ok}


def _float_cubics(p: np.ndarray, b1: float) -> tuple:
    """The float steps of `deflate_root` at b1 and `resultant_gate` on each
    quartic row: trim, deflate, trim, divide by the sup-norm, trim. Returns
    the unit-scaled cubics, their degrees and whether each row passed the
    deflation check."""
    with np.errstate(all="ignore"):
        p, _, norm = _trimmed(p)
        # synthetic division as in `deflate_root`; its last step leaves the
        # Horner residual p(b1)
        acc, out = p[:, 4], []
        for k in range(3, -1, -1):
            out.append(acc)
            acc = p[:, k] + acc * b1
        root = ~(abs(acc) > DEFAULT_TOL.tau_defl * norm)
        cubic, _, norm = _trimmed(np.stack(out[::-1], axis=1))
        cubic, degree, _ = _trimmed(cubic / np.where(norm == 0, 1, norm)[:, None])
    return cubic, degree, root


def _integer_cubics(p: np.ndarray, b1) -> tuple:
    """The exact deflation of each rational quartic row at b1 = s / t, as a
    positive integer multiple of its deflated cubic.

    Each row is cleared to integers f_0..f_4 (`integer_coefficients`); the
    fraction-free synthetic division h_3 = f_4, h_(k-1) = f_k t^(4-k) + s h_k
    leaves the residual t^4 F(b1) as its last step, and the deflated cubic
    times t^3 is sum h_k t^k x^k. Returns the integer cubics with their
    trailing zeros, their degrees, whether each row vanishes at b1, and
    their sup-norms.
    """
    s, t = b1.numerator, b1.denominator
    f = np.array([integer_coefficients(row)[0] for row in p], object)
    acc, out, scale = f[:, 4], [], 1
    for k in range(3, -1, -1):
        out.append(acc)
        scale *= t
        acc = f[:, k] * scale + s * acc
    cubic = np.stack(out[::-1], axis=1) * np.array([t**k for k in range(4)], object)
    cubic, degree, norm = _trimmed(cubic)
    return cubic, degree, acc == 0, norm
