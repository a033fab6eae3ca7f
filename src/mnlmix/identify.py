"""Solution enumeration and identifiability checks for small universes.

The pair-system quartic bounds the candidate pivot weights; back-substitution
turns each root into a full weight assignment, and residual filtering against
every available slate equation decides admissibility. Uniqueness holds when
exactly one admissible class survives (up to component swap at lambda = 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .model import (
    MixtureModel,
    OracleTable,
    ParameterError,
    Slate,
    format_number,
    oracle_table,
)
from .polynomials import (
    DegenerateInputError,
    RealPolynomial,
    count_real_roots_sturm,
    deflate_root,
    poly_gcd,
    solve_all_roots,
)
from .systems import (
    DegenerateBranchSignal,
    PairSystemInput,
    back_substitute,
    degenerate_partner_quadratic,
    pair_quartic,
    pair_slate_quartic,
    pair_system,
    partner_value,
    pair_system_residual,
    resultant_gate,
)

TAU_ADM = 1e-9
DEDUP_RTOL = 1e-6
COLLAPSE_GAP = 1e-9
# a pair-level extra whose residual lies within this many decades below tol
# is re-decided in exact arithmetic before it counts as a second solution
CERT_DECADES = 4


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

    @property
    def exact(self) -> bool:
        return all(isinstance(v, (Fraction, int)) for v in self.a + self.b)

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


def _in_unit(x, tau=TAU_ADM) -> bool:
    return -tau <= float(x) <= 1 + tau


def _tuple_admissible(values, tau=TAU_ADM) -> bool:
    return all(_in_unit(v, tau) for v in values)


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


def _rationalize_root(poly: RealPolynomial, r: float):
    """Nearest small-denominator rational that is an exact root, else None."""
    for digits in range(1, 13):
        cand = Fraction(r).limit_denominator(10**digits)
        if poly(cand) == 0:
            return cand
    return None


def _polish_pair(sys: PairSystemInput, bi: float, bj: float, steps: int = 12):
    """Newton-refine (b_i, b_j) on the two drop-slate equations.

    Closed-form quartic roots lose accuracy when solutions cluster (near the
    collapse set the quartic has a near-multiple root, costing ~eps^(1/4));
    the candidate itself still separates, so a couple of Newton steps on the
    residual system restore full precision.
    """
    lam = float(sys.lam)
    c_fi, c_fj = float(sys.c_full_i), float(sys.c_full_j)
    c_ji, c_ij = float(sys.c_drop_j_i), float(sys.c_drop_i_j)

    def eqs(x, y):
        """Residuals of the two equations and their closed-form Jacobian."""
        ai = c_fi - lam * x
        aj = c_fj - lam * y
        da, db = 1 - aj, 1 - y
        dc, dd = 1 - ai, 1 - x
        if min(abs(da), abs(db), abs(dc), abs(dd)) < 1e-12:
            return None
        e1 = ai / da + lam * x / db - c_ji
        e2 = aj / dc + lam * y / dd - c_ij
        jac = (
            lam / db - lam / da,
            lam * x / db**2 - lam * ai / da**2,
            lam * y / dd**2 - lam * aj / dc**2,
            lam / dd - lam / dc,
        )
        return e1, e2, jac

    x, y = float(bi), float(bj)
    cur = eqs(x, y)
    if cur is None:
        return bi, bj
    best = (abs(cur[0]) + abs(cur[1]), x, y)
    for _ in range(steps):
        f1, f2, (j11, j12, j21, j22) = cur
        det = j11 * j22 - j12 * j21
        if abs(det) < 1e-14:
            break
        dx = (-f1 * j22 + f2 * j12) / det
        dy = (-j11 * f2 + j21 * f1) / det
        x, y = x + dx, y + dy
        cur = eqs(x, y)
        if cur is None:
            break
        err = abs(cur[0]) + abs(cur[1])
        if err < best[0]:
            best = (err, x, y)
        if err < 1e-15:
            break
    return best[1], best[2]


def _band_roots(poly: RealPolynomial, tau_adm: float, exact: bool) -> list:
    """Real roots of `poly` in the admissible band, rationalized when exact."""
    p = poly.as_float()
    if p.is_zero() or p.degree < 1:
        return []
    out = []
    for r in solve_all_roots(p).real_roots_in(-tau_adm, 1 + tau_adm):
        fr = _rationalize_root(poly, r) if exact else None
        out.append(fr if fr is not None else r)
    return out


def _pivot_pairs(sys: PairSystemInput, pivots, polish: bool = True) -> list:
    """(b_i, b_j) for each pivot value b_i through the partner map of `sys`.

    Pivot values on the pinned branch are skipped; float pairs are
    Newton-polished on the two drop-slate equations unless polish is False.
    """
    pairs = []
    for bi in pivots:
        try:
            bj = partner_value(bi, sys)
        except DegenerateBranchSignal:
            continue
        if polish and not isinstance(bi, (Fraction, int)):
            bi, bj = _polish_pair(sys, bi, bj)
        pairs.append((bi, bj))
    return pairs


def solve_pair_system(
    sys: PairSystemInput,
    tol: float = 1e-8,
    tau_adm: float = TAU_ADM,
    exact: Optional[bool] = None,
) -> list:
    """All admissible solutions of one (a_i, a_j, b_i, b_j) system.

    Takes the real quartic roots inside the admissible band, back-substitutes
    each to a full 4-tuple, then appends the pinned-branch candidates; only
    candidates whose equation residual stays at or below tol survive.
    """
    if exact is None:
        exact = sys.exact
    lam = sys.lam
    raw = []
    for bi, bj in _pivot_pairs(sys, _band_roots(pair_quartic(sys), tau_adm, exact)):
        ai = sys.c_full_i - lam * bi
        aj = sys.c_full_j - lam * bj
        raw.append(((ai, aj, bi, bj), "root"))
    # pinned branch: pivot fixed at c_full_i/(1+lam)
    m = sys.pivot_pin()
    quad = degenerate_partner_quadratic(sys)
    pinned_js = [sys.c_full_j / (1 + lam)] + _band_roots(quad, tau_adm, exact)
    for bj in pinned_js:
        aj = sys.c_full_j - lam * bj
        raw.append(((m, aj, m, bj), "pinned"))

    cands = []
    for (ai, aj, bi, bj), branch in raw:
        res = pair_system_residual(sys, ai, aj, bi, bj)
        adm = _tuple_admissible((ai, aj, bi, bj), tau_adm)
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


def full_residual(a: Sequence, b: Sequence, lam, oracle: OracleTable, items: Sequence[int]):
    """Max violation over every oracle equation plus the two sum constraints."""
    pos = {it: idx for idx, it in enumerate(items)}
    errs = [abs(sum(a) - 1), abs(sum(b) - 1)]
    for slate_items, values in oracle.entries.items():
        sa = sum(a[pos[i]] for i in slate_items)
        sb = sum(b[pos[i]] for i in slate_items)
        if float(sa) <= 0 or float(sb) <= 0:
            return float("inf")
        for i, c in zip(slate_items, values):
            errs.append(abs(a[pos[i]] / sa + lam * (b[pos[i]] / sb) - c))
    return max(errs)


def _extend_candidate(
    b1,
    b2,
    oracle: OracleTable,
    lam,
    items: Sequence[int],
    systems: dict,
    polish: bool,
) -> Optional[tuple]:
    """Complete (b1, b2) on the first two items to weights over all items.

    Each b_j comes from the (pivot, j) partner map. Near the pin the map's
    denominator is small and amplifies any pivot error, so with polish=True
    a float b_j is Newton-refined on the (pivot, j) system; the pivot keeps
    its value from the first pair.
    """
    m = len(items)
    full = Slate.of(items)
    c_full = {i: oracle.value_for(full, i) for i in items}
    if m == 3:
        a1, a2, a3, b3 = back_substitute(
            b1, b2, (c_full[items[0]], c_full[items[1]], c_full[items[2]]), lam
        )
        return (a1, a2, a3), (b1, b2, b3)
    bs = {items[0]: b1, items[1]: b2}
    for j in items[2:]:
        for pivot, bp in ((items[0], b1), (items[1], b2)):
            found = _pivot_pairs(systems[(pivot, j)], [bp], polish)
            if found:
                bs[j] = found[0][1]
                break
        else:
            # both pivots pinned: fall through to the all-pinned branch,
            # which is exact for fully collapsed models
            bs[j] = c_full[j] / (1 + lam)
    a = tuple(c_full[i] - lam * bs[i] for i in items)
    b = tuple(bs[i] for i in items)
    return a, b


def enumerate_candidates(
    oracle: OracleTable,
    lam,
    items: Sequence[int],
    tol: float = 1e-8,
    tau_adm: float = TAU_ADM,
    exact: Optional[bool] = None,
    noisy: bool = False,
    sel_rtol: float = 1e-3,
) -> tuple:
    """All admissible full assignments over `items` consistent with the oracle.

    Candidate pivot pairs come from the quartics of the (first, second) and
    (second, first) item pairs plus the doubly pinned branch, so both
    degenerate branches are covered. With noisy=True the quartic roots are
    selected by the perturbed-root rule instead: complex roots with real part
    in (0, 1), nearest-to-real first.

    Returns (candidates, statuses).
    """
    items = tuple(items)
    if exact is None:
        exact = isinstance(lam, (Fraction, int)) and all(
            isinstance(v, (Fraction, int))
            for vals in oracle.entries.values()
            for v in vals
        )
    statuses: list = []
    i0, i1 = items[0], items[1]
    sys01 = pair_system(oracle, i0, i1, items=items)
    sys10 = pair_system(oracle, i1, i0, items=items)
    systems = {(i0, i1): sys01, (i1, i0): sys10}
    for j in items[2:]:
        systems[(i0, j)] = pair_system(oracle, i0, j, items=items)
        systems[(i1, j)] = pair_system(oracle, i1, j, items=items)

    if noisy:
        quartic = pair_quartic(sys01).as_float()
        if quartic.is_zero():
            statuses.append("degenerate-quartic")
            return [], statuses
        roots = solve_all_roots(quartic).roots
        inside = sorted(
            (r for r in roots if 0 < r.real < 1), key=lambda r: abs(r.imag)
        )
        if not inside:
            statuses.append("sampling-too-noisy")
            return [], statuses
        if len(inside) >= 2:
            g0, g1 = abs(inside[0].imag), abs(inside[1].imag)
            if g1 - g0 < sel_rtol * (1 + g0):
                statuses.append("root-ambiguity")
        pivots = [r.real for r in inside]
        pairs = [(b1, b2, "root") for b1, b2 in _pivot_pairs(sys01, pivots)]
    else:
        roots = _band_roots(pair_quartic(sys01), tau_adm, exact)
        pairs = [(b1, b2, "root") for b1, b2 in _pivot_pairs(sys01, roots)]
        roots = _band_roots(pair_quartic(sys10), tau_adm, exact)
        pairs += [(b1, b2, "root") for b2, b1 in _pivot_pairs(sys10, roots)]
        pairs.append((sys01.pivot_pin(), sys10.pivot_pin(), "pinned"))

    cands = []
    for b1, b2, branch in pairs:
        # in sampling mode the caller's least-squares refit corrects b_j
        ext = _extend_candidate(b1, b2, oracle, lam, items, systems, polish=not noisy)
        if ext is None:
            continue
        a, b = ext
        res = full_residual(a, b, lam, oracle, items)
        adm = _tuple_admissible(a + b, tau_adm)
        cands.append(
            CandidateSolution(
                items=items,
                a=a,
                b=b,
                residual=float(res),
                admissible=adm,
                level="full",
                branch=branch,
            )
        )
    good = [c for c in cands if c.admissible and c.residual <= tol]
    if noisy and not good and cands:
        # under sampling noise no candidate meets the exact-mode residual bar;
        # keep the best admissible one and let the caller judge accuracy
        adm = [c for c in cands if c.admissible]
        if adm:
            good = [min(adm, key=lambda c: c.residual)]
        else:
            statuses.append("no-admissible-candidate")
    return _dedup(good), statuses


def _swap_equivalent(c1: CandidateSolution, c2: CandidateSolution) -> bool:
    return _close(c1.a + c1.b, c2.b + c2.a)


def _swap_dedup(cands: list) -> tuple:
    kept: list = []
    merged = False
    for c in cands:
        if any(_swap_equivalent(c, k) for k in kept):
            merged = True
            continue
        kept.append(c)
    return kept, merged


def check_identifiability(model: MixtureModel, tol: float = 1e-8) -> IdentifiabilityReport:
    """Decide uniqueness of the model's weights given its exact oracle.

    Enumerates full-system solutions, scans every pair system (with the
    two-item slate) for pair-level multiplicity, and computes the scaled
    resultant gates; unique means a single admissible class at both levels.
    At lambda = 1 solutions are classes up to component swap.
    """
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

    # n = 3 and n = 4 get every slate; larger universes keep the 2-, (n-1)-
    # and n-slates, the sizes the reduction and its filters consume
    budget = [
        Slate.of(c)
        for k in sorted({2, n - 1, n})
        for c in combinations(range(1, n + 1), k)
    ]
    table = oracle_table(model, budget)

    full_cands, _ = enumerate_candidates(
        table, model.lam, tuple(range(1, n + 1)), tol=tol
    )

    is_uniform = float(model.lam) == 1.0
    swap_note = False
    if is_uniform:
        full_cands, swap_note = _swap_dedup(full_cands)

    solutions = list(full_cands)
    if len(full_cands) > 1:
        codes.append("full-multiplicity")
    if not full_cands:
        codes.append("no-solution")

    pair_extra = []
    near_tol = tol * 10.0**-CERT_DECADES
    if n >= 4:
        truth_by_item = {i + 1: (model.a[i], model.b[i]) for i in range(n)}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                sys_ij = pair_system(table, i, j, include_pair=True)
                sols = solve_pair_system(sys_ij, tol=tol)
                if is_uniform:
                    sols, _ = _swap_dedup(sols)
                if len(sols) <= 1:
                    continue
                ta = (truth_by_item[i][0], truth_by_item[j][0])
                tb = (truth_by_item[i][1], truth_by_item[j][1])
                extra = [s for s in sols if not _close(s.a + s.b, ta + tb)]
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
            solutions.extend(_dedup(pair_extra))

    gates = _gate_values(model, table)
    unique = (
        len(full_cands) == 1 and not pair_extra and "no-solution" not in codes
    )
    return IdentifiabilityReport(
        unique=unique,
        solutions=tuple(solutions),
        gate_values=gates,
        swap_note=swap_note,
        codes=tuple(codes),
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
    universe = range(1, model.n + 1)
    slates = [
        Slate.of(universe),
        Slate.of(t for t in universe if t != i),
        Slate.of(t for t in universe if t != j),
        Slate.of((i, j)),
    ]
    band = (-Fraction(TAU_ADM), 1 + Fraction(TAU_ADM))
    try:
        exact = exact_model(model)
        sys_ij = pair_system(oracle_table(exact, slates), i, j, include_pair=True)
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
    pin = sys_ij.pivot_pin()
    pinned_open = (
        sys_ij.c_drop_i_j * (1 - sys_ij.c_full_i + sys_ij.lam * pin) == sys_ij.c_full_j
        or pin == 1
    )
    return not pinned_open


def _gate_values(model: MixtureModel, table: OracleTable) -> dict:
    """Scaled resultant gates from the model's deflated pair cubics."""
    from .polynomials import NotARootError, PolynomialShapeError

    n = model.n
    b1 = model.b[0]
    gates: dict = {}
    cubics = {}
    for j in range(2, n + 1):
        quartic = pair_quartic(pair_system(table, 1, j))
        try:
            cubics[j] = deflate_root(quartic, b1)
        except (NotARootError, PolynomialShapeError):
            cubics[j] = None
    others = [j for j in range(2, n + 1) if cubics.get(j) is not None]
    for idx, j in enumerate(others):
        for k in others[idx + 1:]:
            try:
                w = resultant_gate(cubics[j], cubics[k])
                gates[f"drop:{j},{k}"] = abs(float(w))
            except PolynomialShapeError:
                pass
    if n >= 4:
        for j in others:
            try:
                tilde = deflate_root(
                    pair_slate_quartic(pair_system(table, 1, j, include_pair=True)), b1
                )
                w = resultant_gate(cubics[j], tilde)
                gates[f"pair:{j}"] = abs(float(w))
            except (NotARootError, PolynomialShapeError):
                pass
    return gates
