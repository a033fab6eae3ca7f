"""Weight recovery from an oracle or from finite samples.

The learner solves a constant-size block of the first k items outright, then
extends one item at a time: each new item j and a pivot from the solved block
form a `systems` pair system (full, drop-j and drop-pivot slates), costing
three new oracle values, and b_j is that system's partner map of the pivot
weight. The block's shares of each component's mass, which fix the pivot
weight, come from one linear least-squares solve on the block items'
full-slate values. Query accounting charges one query per (slate, item)
value, so the extension phase costs 3 per item and everything else a
constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .identify import (
    CandidateSolution,
    _close,
    _leads,
    _swap_classes,
    enumerate_candidates,
    slate_cells,
)
from .model import (
    MixtureModel,
    OracleTable,
    ParameterError,
    Slate,
    all_slates,
    oracle_table,
    sample_empirical,
)
from .systems import PairSystemInput, pair_slates, partner_map


@dataclass(frozen=True)
class LearnConfig:
    """Learner knobs; defaults follow the desk-scale experiment setup."""

    k: int = 4
    eps: float = 0.05
    samples_per_slate: Optional[int] = None
    seed: int = 0

    def auto_samples(self, n: int) -> int:
        """The default per-slate budget 8 n^3 / eps^2, rounded up."""
        if not self.eps > 0:
            raise ParameterError(f"eps must be positive for the default budget, got {self.eps}")
        return math.ceil(8 * n**3 / self.eps**2)

    def block_size(self, n: int) -> int:
        """Items in the solved block: k, clamped to [3, n]."""
        return max(3, min(self.k, n))


@dataclass(frozen=True)
class LearnReport:
    a_hat: Optional[tuple]
    b_hat: Optional[tuple]
    queries_used: int
    queries_kblock: int
    queries_extension: int
    samples_used: int
    max_rel_error: Optional[float]
    status: tuple

    @property
    def ok(self) -> bool:
        """An estimate exists and the block was identifiable.

        Other statuses, such as `low-regularity` or `sum-mismatch`, are
        diagnostics. `mnlmix learn` exits 0 exactly when `ok` holds.
        """
        return self.a_hat is not None and "k-identifiability-violation" not in self.status

    @property
    def exit_code(self) -> int:
        """`mnlmix learn`'s exit code: 4 on a block-identifiability
        violation, 6 when no estimate came back, else 0.

        A report without an estimate says why in its status:
        `nonpositive-weight` or `nonfinite-weight` when the extension gave
        no usable weights, `no-block-solution` when the exact block has no
        admissible candidate, or `collapse` (exit 4).
        """
        if "k-identifiability-violation" in self.status:
            return 4
        return 0 if self.ok else 6

    def to_dict(self) -> dict:
        return {
            "a_hat": list(self.a_hat) if self.a_hat else None,
            "b_hat": list(self.b_hat) if self.b_hat else None,
            "queries": self.queries_used,
            "queries_kblock": self.queries_kblock,
            "queries_extension": self.queries_extension,
            "samples": self.samples_used,
            "max_rel_error": self.max_rel_error,
            "status": list(self.status),
        }


class _ValueOracle:
    """Counts distinct (slate, item) value queries to one oracle table.

    `noise_size` is the number of samples behind each row of a sampled
    table (None for exact values); a sampled oracle runs the learner in
    sampling mode, which ends in the multinomial refit.
    """

    def __init__(self, table: OracleTable, noise_size: Optional[int] = None):
        self.table = table
        self.noise_size = noise_size
        self.counts = {"kblock": 0, "extension": 0}
        self._seen: set = set()

    def value(self, slate: Slate, item: int, bucket: str):
        # one query per distinct (slate, item) ask within each phase; a value
        # the extension re-requests after the block phase is a fresh oracle
        # call even though the table already holds it
        key = (slate.items, item, bucket)
        if key not in self._seen:
            self._seen.add(key)
            self.counts[bucket] += 1
        return self.table.value_for(slate, item)

    @property
    def noisy(self) -> bool:
        return self.noise_size is not None

    def table_for(self, slates: Sequence[Slate], bucket: str) -> OracleTable:
        entries = {}
        for s in slates:
            values = tuple(self.value(s, i, bucket) for i in s.items)
            entries[s.items] = values
        return OracleTable(self.table.n, self.table.lam, entries)


def _rel_error(est_a, est_b, truth: MixtureModel) -> float:
    def one(pa, pb):
        return max(
            abs(x - t) / t + abs(y - u) / u
            for x, t, y, u in zip(pa, truth.a.w, pb, truth.b.w)
        )

    err = one(est_a, est_b)
    if float(truth.lam) == 1.0:
        err = min(err, one(est_b, est_a))
    return float(err)


# `low-regularity` is reported when n times the smallest full-slate choice
# probability paid for by the extension falls under this
C_LOW = 0.01
# block refits that agree within this per coordinate (the `_close` rule)
# share one basin: at n = 6 with 40000 and 691200 samples per slate, refits
# of one basin agree within 3e-5 and distinct basins differ by 5e-3 or more
BASIN_RTOL = 1e-4


def _noisy_block_estimate(table: OracleTable, items: tuple) -> list:
    """Block fits under noise: refit every initializer, keep each distinct basin.

    The initializers are 2k deterministic mixture splits of the
    single-component fit, one per block item and sign; the split direction
    matters because the collapse point is a stationary ridge of the
    least-squares landscape. The roots of the block's quartic are not
    among them: they degrade badly when the true pivot weight sits near the
    spurious root cluster at the partner map's pole, and as extra starts
    they changed no measured success count.

    The block's own slates often cannot tell two basins apart (their losses
    differ by a few percent while one of them is far from the truth), so
    every distinct basin is returned, lowest block loss first, and the
    caller decides on all sampled rows. Every initializer lies inside the
    simplex, so every refit has a finite loss and at least one basin
    comes back.
    """
    k, lam = len(items), float(table.lam)
    full_row = table.entries[tuple(sorted(items))]
    base = [min(max(float(v) / (1 + lam), 1e-4), 1.0) for v in full_row]
    total = sum(base)
    base = [v / total for v in base]

    inits = []
    for axis in range(k):
        for sgn in (1.0, -1.0):
            delta = [
                sgn * (0.2 * base[t] if t == axis
                       else -0.2 * base[axis] * base[t] / (1 - base[axis]))
                for t in range(k)
            ]
            a0 = [max(base[t] + delta[t], 1e-4) for t in range(k)]
            b0 = [max(base[t] - delta[t] / lam, 1e-4) for t in range(k)]
            a0 = [v / sum(a0) for v in a0]
            b0 = [v / sum(b0) for v in b0]
            inits.append((a0, b0))

    a0, b0 = (np.array(w) for w in zip(*inits))
    a, b, loss = _refit(a0, b0, _cell_residuals(table, items))
    basins: list = []
    # a stable sort: equal losses keep the initializer order
    for t in np.argsort(loss, kind="stable"):
        fit = a[t].tolist() + b[t].tolist()
        if not any(_close(fit, c.a + c.b, BASIN_RTOL) for c in basins):
            basins.append(CandidateSolution(
                items=items, a=tuple(fit[:k]), b=tuple(fit[k:]),
                residual=float(loss[t]), admissible=True,
            ))
    return basins


def _solve_block(oracle: _ValueOracle, items: tuple) -> tuple:
    """Solve the k-item block; returns (candidates, statuses).

    Exact mode yields one candidate, or none with the status
    `no-block-solution` when the block's values have no admissible
    solution: values that are not a 2-MNL, and also valid models whose
    items 1 and 2 are both pinned (a_i = b_i), which the block enumeration
    cannot solve yet. Sampling mode yields every distinct basin of the
    block refit, lowest block loss first, minus collapsed ones.
    """
    statuses: list = []
    block_slates = _block_slates(items)
    table = oracle.table_for(block_slates, "kblock")
    if oracle.noisy:
        blocks = _noisy_block_estimate(table, items)
    else:
        cands = enumerate_candidates(table, items)
        if not cands:
            # before the collapse filter: an empty list is no collapse
            return [], ["no-block-solution"]
        if float(table.lam) == 1.0:
            cands, _ = _swap_classes(cands)
        if len(cands) > 1:
            statuses.append("k-identifiability-violation")
        blocks = cands[:1]
    # a collapsed block solves with component gap at solver-noise scale
    # (the quartic has a double root there), so detect well above it
    blocks = [
        c for c in blocks
        if max(abs(float(x) - float(y)) for x, y in zip(c.a, c.b)) >= 1e-6
    ]
    if not blocks:
        statuses.append("collapse")
        statuses.append("k-identifiability-violation")
    return blocks, statuses


def _learn(oracle: _ValueOracle, k: int, truth: Optional[MixtureModel]) -> LearnReport:
    statuses: list = []
    if k == 3:
        statuses.append("k3-warning")  # 3-item blocks may be non-identifiable
    items = tuple(range(1, k + 1))

    blocks, st = _solve_block(oracle, items)
    statuses.extend(st)

    def report(a=None, b=None, err=None):
        return LearnReport(
            a_hat=a,
            b_hat=b,
            queries_used=oracle.counts["kblock"] + oracle.counts["extension"],
            queries_kblock=oracle.counts["kblock"],
            queries_extension=oracle.counts["extension"],
            # every row of a sampled table is one slate's sample
            samples_used=(oracle.noise_size or 0) * len(oracle.table.entries),
            max_rel_error=err,
            status=tuple(dict.fromkeys(statuses)),
        )

    # every block basin is carried through the extension, and its start
    # through the final refit
    starts = [_extend_block(oracle, items, block) for block in blocks]
    fits = [s for s in starts if s[0] is not None]
    if not fits:
        statuses.extend(starts[0][2] if starts else ())
        return report()
    a_hat, b_hat, st = fits[0]
    if oracle.noisy:
        # the queries are all made, so one residual map serves every start
        a, b, loss = _refit(
            np.array([f[0] for f in fits]), np.array([f[1] for f in fits]),
            _cell_residuals(oracle.table, range(1, oracle.table.n + 1)),
        )
        # the fit with the lowest loss on all sampled rows wins. Starts that
        # refit into one basin tie up to last-digit drift, so the earliest
        # start whose fit is close to the argmin fit is reported: the start
        # order (block basins by block loss) decides, not the last digits
        fit = np.hstack((a, b))
        t = int(np.argmin(loss))
        t = next(s for s in range(t + 1) if _close(fit[s], fit[t], BASIN_RTOL))
        a_hat, b_hat, st = a[t].tolist(), b[t].tolist(), fits[t][2]
    statuses.extend(st)
    if float(oracle.table.lam) == 1.0 and not _leads(a_hat, b_hat):
        # (a, b) and (b, a) are one model at lambda = 1, with equal losses:
        # report them in identify's swap-class order, not in the order that
        # last-digit luck gives
        a_hat, b_hat = b_hat, a_hat
    err = _rel_error(a_hat, b_hat, truth) if truth is not None else None
    return report(tuple(a_hat), tuple(b_hat), err)


def _extend_block(oracle: _ValueOracle, items: tuple, block: CandidateSolution) -> tuple:
    """Extend a solved block to all n items; returns one start (a, b,
    statuses), a and b normalized to sum to one, or None for both when the
    extension fails: with `nonfinite-weight` when a weight is not finite
    (a partner map that divides by zero or NaN on sampled values), and in
    exact mode with `nonpositive-weight` when a weight is not positive.
    A returned start lies inside the open simplex: in sampling mode its
    finite weights are clamped positive before they are normalized.

    The block's own slates fix a and b on the block only up to the block's
    shares A and B of each component's mass. Each block item's full-slate
    value c_p = A a_p + lam B b_p is linear in them, so (A, B) is the
    least-squares solution of the k block items' equations. The pivot is
    the block item with the widest gap |B b_p - A a_p|, lam times which is
    its partner-map denominator. That gap is nonzero: were it 0 on every
    block item, summing over the block would give A = B, so a = b on the
    block, which `_solve_block` drops as a collapse.
    """
    lam, n = float(oracle.table.lam), oracle.table.n
    full = Slate.of(range(1, n + 1))
    c_block = np.array([oracle.value(full, p, "extension") for p in items], dtype=float)
    a_rel, b_rel = np.array(block.a, dtype=float), np.array(block.b, dtype=float)
    shares = np.linalg.lstsq(np.column_stack((a_rel, lam * b_rel)), c_block, rcond=None)[0]
    a_block, b_block = shares[0] * a_rel, shares[1] * b_rel
    # argmax takes the first of equal gaps
    piv_idx = int(np.argmax(abs(b_block - a_block)))
    pivot = items[piv_idx]
    a_hat, b_hat = a_block.tolist(), b_block.tolist()
    statuses: list = []

    def tail_values(j):
        _, drop_j, drop_pivot, _ = pair_slates(range(1, n + 1), pivot, j)
        return (
            oracle.value(full, j, "extension"),
            oracle.value(drop_j, pivot, "extension"),
            oracle.value(drop_pivot, j, "extension"),
        )

    # one (pivot, j) pair system per tail item j, held as rows of one
    # system: three new values each; the drop-j one does not enter the
    # partner map
    values = [tail_values(j) for j in range(len(items) + 1, n + 1)]
    if values:
        c_full_j, c_drop_j_i, c_drop_i_j = np.array(values, dtype=float).T
        tail = PairSystemInput(lam, c_block[piv_idx], c_full_j, c_drop_j_i, c_drop_i_j, pivot=pivot)
        # ratio-boundedness diagnostic on the large-slate values the tail
        # paid for
        if min(c_block[piv_idx], c_full_j.min()) / (1 + lam) * n < C_LOW:
            statuses.append("low-regularity")
        num, den = partner_map(tail)
        # sampled values can zero the denominator; the finiteness check
        # below rejects what that gives
        with np.errstate(divide="ignore", invalid="ignore"):
            b_tail = num(b_hat[piv_idx]) / den(b_hat[piv_idx])
        a_hat += (c_full_j - lam * b_tail).tolist()
        b_hat += b_tail.tolist()
    if not np.isfinite(a_hat + b_hat).all():
        return None, None, statuses + ["nonfinite-weight"]
    if oracle.noisy:
        # sampling noise can push tiny weights over the edge; clamp before
        # the least-squares refit, which keeps iterates strictly positive
        a_hat = [max(v, 1e-9) for v in a_hat]
        b_hat = [max(v, 1e-9) for v in b_hat]
    else:
        if abs(sum(a_hat) - 1) > 1e-8 or abs(sum(b_hat) - 1) > 1e-8:
            statuses.append("sum-mismatch")
        if min(a_hat) <= 0 or min(b_hat) <= 0:
            return None, None, statuses + ["nonpositive-weight"]
    sum_a, sum_b = sum(a_hat), sum(b_hat)
    return [v / sum_a for v in a_hat], [v / sum_b for v in b_hat], statuses


def _weights(theta: np.ndarray) -> np.ndarray:
    """(S, 2, n) stack of (a, b) from (S, 2n - 2) trailing coordinates
    (a_2..a_n, b_2..b_n), each first weight one minus the others."""
    rest = theta.reshape(len(theta), 2, -1)
    return np.concatenate((1 - rest.sum(axis=2, keepdims=True), rest), axis=2)


@lru_cache(maxsize=None)
def _cell_layout(slates: tuple, items: tuple) -> tuple:
    """The value-free incidence of `_cell_residuals` over the slate keys
    `slates` (in order) and `items`: each cell's item column `col_of`, the
    (items, cells) slate membership `member_T` and the (cells, items - 1)
    membership and one-hot item column lifted to theta (`member_t`,
    `hit_t`: each column minus the first). Built once per shape and shared
    by every table over it, so every array is read-only."""
    # the layout reads no values
    member, row_of, col_of, _ = slate_cells([(s, ()) for s in slates], items)
    n = member.shape[1]
    member, hit = member[row_of].astype(float), np.eye(n)[col_of]
    member_t, hit_t = member[:, 1:] - member[:, :1], hit[:, 1:] - hit[:, :1]
    for arr in (col_of, member, member_t, hit_t):
        arr.flags.writeable = False
    return col_of, member.T, member_t, hit_t


def _cell_residuals(table: OracleTable, items: Sequence[int]):
    """Residual map of every (row, item) value of `table`, rows in slate
    order, at a stack of S starts, with an analytic Jacobian built from the
    same evaluation.

    With slate sums S_a, S_b the model value of a cell is
    q = a_i/S_a + lam b_i/S_b, and dq/da_t = [t = i]/S_a - a_i [t in slate]/S_a^2
    (likewise for b). The residual is variance-stabilized, sqrt(value) -
    sqrt(q): Gauss-Newton on sqrt cells is the asymptotically efficient
    multinomial fit (the row-sum constraint cancels the rank-one Fisher
    term). The first weight is one minus the others, so the incidence is
    lifted to theta, as each column minus the first, and the Jacobian is
    built in theta directly. The incidence comes from `_cell_layout`, built
    once per shape; the targets are read from `table` on every call.

    Returns residuals(theta) for the (S, 2n - 2) trailing coordinates of
    `_weights`, which evaluates the model once and gives (res, inside,
    jacobian): the (S, cells) residuals, the (S,) mask of the starts inside
    the open simplex (the rows of a start outside it are meaningless), and
    jacobian(rows), the (len(rows), cells, 2n - 2) Jacobian at the
    evaluated rows `rows`, built from the slate sums, shares and roots that
    evaluation saved. Every row of an evaluation is computed on its own, so
    a row's residuals and Jacobian do not depend on what else was stacked
    with it.
    """
    lam = float(table.lam)
    slates = tuple(sorted(table.entries))
    col_of, member_T, member_t, hit_t = _cell_layout(slates, tuple(items))
    values = np.array([c for key in slates for c in table.entries[key]])
    target = np.sqrt(np.maximum(values, 0.0))

    def residuals(theta):
        w = _weights(theta)
        inside = w.min(axis=(1, 2)) > 0
        with np.errstate(all="ignore"):
            sums = w @ member_T
            share = w[..., col_of] / sums
            root = np.sqrt(share[:, 0] + lam * share[:, 1])

        def jacobian(rows):
            with np.errstate(all="ignore"):
                d = (hit_t - share[rows, ..., None] * member_t) / sums[rows, ..., None]
            return np.concatenate((d[:, 0], lam * d[:, 1]), axis=2) * (-0.5 / root[rows])[..., None]

        return target - root, inside, jacobian

    return residuals


def _refit(a0: np.ndarray, b0: np.ndarray, residuals) -> tuple:
    """Gauss-Newton refit of a stack of starts against the rows of a
    `_cell_residuals` map.

    The chained plug-in estimate uses a minimal equation set; refitting
    against every queried row is the least-squares use of the same data and
    shrinks the noise amplification by a sizable factor. The weight vectors
    are parameterized by their trailing coordinates so the simplex
    constraint is built in. Each start takes up to 12 steps, each the
    least-squares solution of its linearized system, tried at full length
    and halved up to five times; a start takes the first length that stays
    in the simplex and lowers its loss, and stops when none does or its
    loss falls under 1e-28. All starts step together: one stacked QR of the
    Jacobians and one batched solve R step = Q^T (-res) give every step.
    Each iteration makes one model evaluation: every length of every start
    goes through one residual call, and the accepted rows' residuals and
    Jacobian, the next linearization point, are taken from that call. A
    stacked evaluation computes every row on its own, so the result is bit
    for bit that of evaluating each accepted point again.
    A start whose Jacobian is rank-deficient at `np.linalg.lstsq`'s default
    cutoff (smallest |R_kk| at most eps * max(cells, p) times the largest)
    solves an identity system with a zero right-hand side instead: its step
    is zero, so it stops as a start with no lowering step stops.

    `a0` and `b0` are (S, n) weights, every start inside the open simplex
    (the mixture splits are by construction, and `_extend_block` returns
    only such starts). Returns (a, b, loss): the refitted (S, n) weights and
    each start's sum of squared residuals.
    """
    theta = np.hstack((a0[:, 1:], b0[:, 1:]))
    res, _, jacobian = residuals(theta)
    loss = np.einsum("ij,ij->i", res, res)
    scales = 0.5 ** np.arange(6)
    # `rows` are the active starts' current points among the rows of the
    # last evaluation
    active = rows = np.arange(len(theta))
    for _ in range(12):
        if not active.size:
            break
        base, jac = res[rows], jacobian(rows)
        # the R factor of [jac | -base] holds jac's R and, above its last
        # row, Q^T (-base), so Q is never formed
        p = jac.shape[2]
        rr = np.linalg.qr(np.concatenate((jac, -base[..., None]), axis=2), mode="r")
        r, rhs = rr[:, :p, :p], rr[:, :p, p:]
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        # a NaN diagonal also fails the test and gets the zero step
        full = diag.min(axis=1) > np.finfo(float).eps * max(jac.shape[1:]) * diag.max(axis=1)
        r[~full], rhs[~full] = np.eye(p), 0.0
        step = np.linalg.solve(r, rhs)[..., 0]
        trial = theta[active, None] + scales[:, None] * step[:, None]
        res, ok, jacobian = residuals(trial.reshape(-1, theta.shape[1]))
        ss = np.where(ok, np.einsum("ij,ij->i", res, res), np.inf).reshape(len(active), -1)
        better = ss < loss[active, None]
        moved = better.any(axis=1)
        first = better.argmax(axis=1)[moved]
        rows = np.flatnonzero(moved) * len(scales) + first
        active = active[moved]
        theta[active] = trial[moved, first]
        loss[active] = ss[moved, first]
        keep = loss[active] >= 1e-28
        active, rows = active[keep], rows[keep]
    w = _weights(theta)
    return w[:, 0], w[:, 1], loss


@lru_cache(maxsize=None)
def _block_slates(items: tuple) -> tuple:
    """`all_slates` within the block `items`, built once per block."""
    return tuple(all_slates(len(items), items=items))


@lru_cache(maxsize=None)
def learner_slates(n: int, k: int) -> tuple:
    """The slates both learners read, without repeats: the block slates
    `all_slates(k)`, the full slate, every drop-one slate and each tail
    item's 2-slate with every block item (read only by the sampling refit).
    Built once per (n, k) and returned as one shared tuple.
    `identify.identify_slates` is its counterpart for identify."""
    universe = range(1, n + 1)
    slates = list(_block_slates(tuple(range(1, k + 1)))) + [Slate.of(universe)]
    slates += [Slate.of(i for i in universe if i != j) for j in universe]
    slates += [Slate.of((i, j)) for j in range(k + 1, n + 1) for i in range(1, k + 1)]
    return tuple(dict.fromkeys(slates))


def learn_from_oracle(
    source: MixtureModel | OracleTable,
    cfg: LearnConfig = LearnConfig(),
    truth: Optional[MixtureModel] = None,
) -> LearnReport:
    """Recover the weights from exact oracle access.

    `source` is a MixtureModel, whose exact oracle on `learner_slates` is
    read and which doubles as ground truth for the error metric, or an
    OracleTable covering the needed slates.
    """
    if isinstance(source, MixtureModel):
        table = oracle_table(source, learner_slates(source.n, cfg.block_size(source.n)))
        if truth is None:
            truth = source
    elif isinstance(source, OracleTable):
        table = source
    else:
        raise TypeError(f"unsupported oracle source {type(source)!r}")
    return _learn(_ValueOracle(table), cfg.block_size(table.n), truth)


def learn_from_samples(model: MixtureModel, cfg: LearnConfig = LearnConfig()) -> LearnReport:
    """Recover the weights from per-slate empirical estimates.

    Every slate of `learner_slates` is sampled cfg.samples_per_slate times
    (8 n^3 / eps^2 when it is None; ParameterError under one sample or
    over 2^63 - 1) with a stream derived from (cfg.seed, slate). The final
    refit uses every sampled row: at a fixed per-slate budget the drop-one
    slates buy a sizable accuracy margin for the tail items, and the tail
    items' 2-slates pin down what the large slates alone leave loose. The
    oracle pipeline runs on the perturbed values: the block is fitted by
    least squares from mixture-split starts, and the final refit decides
    among the candidate fits.
    """
    n, k = model.n, cfg.block_size(model.n)
    size = cfg.auto_samples(n) if cfg.samples_per_slate is None else cfg.samples_per_slate
    entries = {
        s.items: tuple(float(v) for v in sample_empirical(model, s, size, cfg.seed))
        for s in learner_slates(n, k)
    }
    table = OracleTable(n, float(model.lam), entries)
    return _learn(_ValueOracle(table, noise_size=size), k, model)
