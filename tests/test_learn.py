"""Learner tests: oracle round-trips, query accounting, sampling behavior."""

import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mnlmix import learn
from mnlmix.learn import (
    LearnConfig,
    LearnReport,
    _cell_residuals,
    _learn,
    _ValueOracle,
    learn_from_oracle,
    learn_from_samples,
    learner_slates,
)
from mnlmix.experiments import regular_instance
from mnlmix.identify import _close, _leads
from mnlmix.model import (
    MixtureModel,
    OracleTable,
    ParameterError,
    Slate,
    all_slates,
    oracle_table,
    random_instance,
    sample_empirical,
)


@pytest.mark.parametrize("n", [4, 5, 6, 8])
@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_oracle_round_trip(n, lam):
    for seed in range(10):
        m = random_instance(n, lam, seed)
        rep = learn_from_oracle(m)
        assert rep.max_rel_error is not None
        assert rep.max_rel_error <= 1e-8
        assert abs(sum(rep.a_hat) - 1) <= 1e-10 and abs(sum(rep.b_hat) - 1) <= 1e-10
        assert min(rep.a_hat) > 0 and min(rep.b_hat) > 0
        if lam == 1.0:
            # (a, b) and (b, a) are one model: identify's swap-class order
            assert _leads(rep.a_hat, rep.b_hat)


def test_samples_at_lambda_one_report_components_in_order():
    """At lambda = 1 the two orders of a fit tie in loss exactly, so the
    learner reports them in identify's swap-class order (`_leads`)."""
    for t in range(40):
        m = random_instance(6, 1.0, 1000 + t)
        rep = learn_from_samples(m, cfg=LearnConfig(eps=0.05, seed=t))
        assert _leads(rep.a_hat, rep.b_hat)


def _pinned_block_item(n: int, lam: float, seed: int, item: int) -> MixtureModel:
    """`random_instance(n, lam, seed)` with b_item set to a_item and b's
    other items rescaled to sum to one."""
    m = random_instance(n, lam, seed)
    ai, bi = m.a.w[item - 1], m.b.w[item - 1]
    b = [ai if t == item else v * (1 - ai) / (1 - bi) for t, v in enumerate(m.b.w, 1)]
    return MixtureModel.of(m.a.w, b, lam)


def test_lambda_one_pinned_item_one_reports_in_swap_class_order():
    """With a_1 = b_1 the learned a_1 and b_1 differ only by rounding, so
    an order read off item 1 is luck. Every successful report orders its
    vectors by `_leads`, which skips item 1 and decides on item 2."""
    reports = [learn_from_oracle(_pinned_block_item(5, 1.0, s, 1)) for s in range(60)]
    ok = [rep for rep in reports if rep.ok]
    assert len(ok) >= 50
    assert all(abs(rep.a_hat[0] - rep.b_hat[0]) <= 1e-12 for rep in ok)
    assert all(_leads(rep.a_hat, rep.b_hat) for rep in ok)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    n=st.sampled_from([5, 6, 8]), lam=st.sampled_from([2.0, 1.0, 0.5]),
    item=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
)
def test_oracle_round_trip_with_pinned_block_item(n, lam, item, seed):
    """A block item with a_i = b_i has partner-map denominator 0, so the
    extension must not pivot on it; the pivot is chosen on the block's
    absolute weights, and the learner returns the truth."""
    rep = learn_from_oracle(_pinned_block_item(n, lam, seed, item))
    assert rep.ok
    assert rep.max_rel_error <= 1e-8


def test_query_constant_across_n():
    consts = set()
    for n in (4, 5, 6, 8, 10, 12):
        m = random_instance(n, 2.0, 5)
        rep = learn_from_oracle(m)
        consts.add(rep.queries_used - 3 * n)
        assert rep.queries_kblock == 28  # all values in the 11 slates within the block
    assert len(consts) == 1


def test_uniform_mixture_swap_allowed():
    m = random_instance(6, 1.0, 42)
    rep = learn_from_oracle(m)
    assert rep.max_rel_error <= 1e-8  # metric already minimizes over the swap


def test_collapse_statuses():
    w = [0.3, 0.25, 0.2, 0.1, 0.1, 0.05]
    rep = learn_from_oracle(MixtureModel.of(w, w, 2.0))
    assert "collapse" in rep.status
    assert "k-identifiability-violation" in rep.status
    assert rep.a_hat is None


def test_k3_warning():
    m = random_instance(5, 2.0, 7)
    rep = learn_from_oracle(m, cfg=LearnConfig(k=3))
    assert "k3-warning" in rep.status
    assert rep.max_rel_error <= 1e-7


def test_low_regularity_status():
    # item 6 has weight 1e-4 in both components, so 6 times its full-slate
    # choice probability is under C_LOW; the status is a diagnostic only
    m = MixtureModel.of(
        [0.3, 0.2, 0.2, 0.15, 0.1499, 0.0001], [0.1, 0.25, 0.15, 0.3, 0.1999, 0.0001], 2.0
    )
    rep = learn_from_oracle(m)
    assert rep.status == ("low-regularity",)
    assert rep.ok
    assert rep.max_rel_error <= 1e-8


def test_oracle_table_source():
    m = random_instance(5, 2.0, 9)
    needed = all_slates(4) + [
        Slate.of(range(1, 6)),
    ] + [Slate.of([i for i in range(1, 6) if i != j]) for j in range(1, 6)]
    table = oracle_table(m, needed)
    rep = learn_from_oracle(table, truth=m)
    assert rep.max_rel_error <= 1e-8


def test_inconsistent_oracle_reports_no_block_solution():
    m = random_instance(5, 2.0, 3)
    needed = all_slates(4) + [Slate.of(range(1, 6))] + [
        Slate.of([i for i in range(1, 6) if i != j]) for j in range(1, 6)
    ]
    table = oracle_table(m, needed)
    # corrupt the block rows beyond any admissible solution
    bad = {}
    for items, values in table.entries.items():
        if len(items) <= 4:
            perturbed = [float(v) + 0.4 * ((-1) ** i) for i, v in enumerate(values)]
            scale = (1 + float(m.lam)) / sum(perturbed)
            bad[items] = tuple(v * scale for v in perturbed)
        else:
            bad[items] = values
    rep = learn_from_oracle(OracleTable(5, float(m.lam), bad))
    assert rep.a_hat is None and rep.b_hat is None
    assert rep.status == ("no-block-solution",)
    assert rep.exit_code == 6


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([5, 6, 8]),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=1, max_value=5),
)
def test_small_budgets_return_a_report(n, seed, size):
    """At one to five samples per slate the partner map can divide by zero;
    the learner still returns a report, warns nothing, and a report without
    an estimate exits 6 and says why."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = learn_from_samples(
            random_instance(n, 2.0, seed), cfg=LearnConfig(samples_per_slate=size, seed=seed)
        )
    assert isinstance(rep, LearnReport)
    if rep.a_hat is None:
        assert rep.exit_code == 6
        assert "nonfinite-weight" in rep.status


def test_samples_zero_noise_injection_matches_oracle():
    """Running the sampling pipeline on exact oracle rows reproduces the
    oracle-mode output (the infinite-sample limit)."""
    m = random_instance(6, 2.0, 11)
    cfg = LearnConfig()
    table = oracle_table(m, learner_slates(m.n, cfg.block_size(m.n)))
    oracle = _ValueOracle(table, noise_size=cfg.auto_samples(m.n))
    noisy_path = _learn(oracle, cfg.block_size(m.n), m)
    ref = learn_from_oracle(m)
    assert noisy_path.a_hat is not None
    assert max(
        abs(x - y) for x, y in zip(noisy_path.a_hat + noisy_path.b_hat,
                                   ref.a_hat + ref.b_hat)
    ) <= 1e-10


def test_samples_accuracy_typical():
    errs = []
    for seed in [int(s) for s in np.random.SeedSequence(1).generate_state(15)]:
        m = regular_instance(6, 2.0, seed)
        rep = learn_from_samples(m, cfg=LearnConfig(eps=0.05, seed=seed))
        assert rep.a_hat is not None
        errs.append(rep.max_rel_error)
    assert np.median(errs) <= 0.05


def test_samples_reporting_fields():
    m = regular_instance(5, 2.0, 3)
    rep = learn_from_samples(m, cfg=LearnConfig(eps=0.1, seed=3))
    d = rep.to_dict()
    assert d["samples"] == rep.samples_used > 0
    # block slates plus the full and every drop-one slate; at n = k+1 the
    # drop-last slate coincides with the block's own full slate; plus the
    # 2-slates {i, 5} of the tail item with each of the 4 block items
    expected_slates = len(all_slates(4)) + 1 + 5 - 1 + 4
    assert rep.samples_used == expected_slates * LearnConfig(eps=0.1).auto_samples(5)


@pytest.mark.parametrize("n", [5, 7])
def test_samples_read_each_learner_slate_once(monkeypatch, n):
    """`learn_from_samples` samples every slate of `learner_slates` once and
    no other; at n = k + 1 the drop-last slate is also the block's full
    slate, and it is still sampled once."""
    calls = []
    real = learn.sample_empirical

    def spy(model, slate, size, seed):
        calls.append(slate)
        return real(model, slate, size, seed)

    monkeypatch.setattr(learn, "sample_empirical", spy)
    size = 2000
    rep = learn_from_samples(regular_instance(n, 2.0, 3), cfg=LearnConfig(samples_per_slate=size, seed=3))
    slates = set(learner_slates(n, 4))
    assert sorted(calls, key=lambda s: s.items) == sorted(slates, key=lambda s: s.items)
    assert rep.samples_used == size * len(slates)


def test_samples_budget_rejects_unusable_values():
    """A zero budget is not the default budget, and the default budget
    needs a positive eps."""
    m = regular_instance(5, 2.0, 3)
    with pytest.raises(ParameterError):
        learn_from_samples(m, cfg=LearnConfig(samples_per_slate=0))
    with pytest.raises(ParameterError):
        learn_from_samples(m, cfg=LearnConfig(eps=0.0))
    # eps does not enter an explicit budget
    assert learn_from_samples(m, cfg=LearnConfig(eps=0.0, samples_per_slate=100)).samples_used > 0


def test_samples_determinism():
    m = regular_instance(5, 2.0, 19)
    r1 = learn_from_samples(m, cfg=LearnConfig(eps=0.1, seed=4))
    r2 = learn_from_samples(m, cfg=LearnConfig(eps=0.1, seed=4))
    assert r1.a_hat == r2.a_hat and r1.b_hat == r2.b_hat


def test_error_scaling_with_sample_size():
    """Doubling the per-slate sample size shrinks the median error by about
    1/sqrt(2); the medians are also non-increasing along the grid."""
    seeds = [int(s) for s in np.random.SeedSequence(42).generate_state(50)]
    meds = []
    grid = [100000, 200000, 400000, 800000]
    for size in grid:
        errs = []
        for ts in seeds:
            m = regular_instance(6, 2.0, ts)
            rep = learn_from_samples(m, cfg=LearnConfig(samples_per_slate=size, seed=ts))
            errs.append(rep.max_rel_error if rep.max_rel_error is not None else np.inf)
        meds.append(float(np.median(errs)))
    for lo, hi in zip(meds[1:], meds[:-1]):
        assert lo <= hi
        assert 0.6 <= lo / hi <= 0.85


def test_sampling_too_noisy_status():
    m = regular_instance(6, 2.0, 8)
    rep = learn_from_samples(m, cfg=LearnConfig(samples_per_slate=40, seed=8))
    # at 40 samples per slate the pipeline must not crash; it either fails
    # with a status or returns a (poor) estimate
    assert rep.a_hat is None or rep.max_rel_error is not None


@pytest.mark.parametrize("seed", [3202507196, 544885748])
def test_samples_block_basin_chosen_on_all_rows(seed):
    """The block's own slates prefer the wrong one of two refit basins here
    (errors 5.2 and 1.7 when it is kept); every basin is carried through
    the extension and the final refit, and the fit over all sampled rows
    picks the right one."""
    m = regular_instance(6, 2.0, seed)
    rep = learn_from_samples(m, cfg=LearnConfig(eps=0.05, samples_per_slate=691200, seed=seed))
    assert rep.ok
    assert rep.max_rel_error <= 0.05


def test_all_rows_residual_map_built_once_per_run(monkeypatch):
    """A sampling run builds the residual map over all n items once and
    refits every start of every block basin against it; this draw has two
    block basins."""
    seed = 3202507196
    m = regular_instance(6, 2.0, seed)
    basins, maps = [], []
    block_estimate, cell_residuals = learn._noisy_block_estimate, learn._cell_residuals

    def block_spy(*args):
        out = block_estimate(*args)
        basins.append(len(out))
        return out

    def residuals_spy(*args):
        # the items are the second argument; the block maps cover k < n items
        maps.append(len(tuple(args[1])))
        return cell_residuals(*args)

    monkeypatch.setattr(learn, "_noisy_block_estimate", block_spy)
    monkeypatch.setattr(learn, "_cell_residuals", residuals_spy)
    learn_from_samples(m, cfg=LearnConfig(eps=0.05, samples_per_slate=691200, seed=seed))
    assert basins == [2]
    assert maps.count(m.n) == 1


def test_samples_noisy_block_shares_reach_eps():
    """On this noisy draw the block shares from the block items'
    full-slate values seed the refit, and it lands within eps."""
    m = random_instance(6, 2.0, 1032)
    rep = learn_from_samples(m, cfg=LearnConfig(eps=0.05, seed=32))
    assert rep.max_rel_error <= 0.05


def test_samples_reach_optimum_from_block_shares():
    """Started from the earlier design's normalization root, this draw's
    final refit stopped in a far basin (loss 0.034 against 3.3e-5 for a
    refit started at the truth, error 30.9); the shares from the block's
    full-slate values start it in the optimum's basin."""
    rep = learn_from_samples(random_instance(8, 2.0, 1023), cfg=LearnConfig(eps=0.05, seed=23))
    assert rep.ok
    assert rep.max_rel_error <= 0.05


def test_samples_split_starts_reach_eps_without_block_roots():
    """This draw's block table has no admissible closed-form root; the
    mixture-split starts alone seed the block refit, and the estimate is
    judged like any other."""
    seed = 257135337
    m = regular_instance(6, 2.0, seed)
    rep = learn_from_samples(m, cfg=LearnConfig(eps=0.05, seed=seed))
    assert rep.ok
    assert rep.max_rel_error <= 0.05


def test_cell_residual_jacobian_matches_differences():
    """The map takes a stack of starts: the Jacobian of every start inside
    the simplex matches central differences, and the mask flags the start
    outside it."""
    m = random_instance(5, 2.0, 4)
    entries = {
        s.items: tuple(float(v) * 1.01 for v in oracle_table(m, [s]).value(s))
        for s in all_slates(5)
    }
    residuals = _cell_residuals(OracleTable(5, 2.0, entries), range(1, 6))
    other = random_instance(5, 2.0, 5)
    theta = np.array([
        m.a.w[1:] + m.b.w[1:],
        other.a.w[1:] + other.b.w[1:],
        # a_1 = 1 - sum(a_2..a_5) < 0
        (0.5, 0.3, 0.2, 0.1) + m.b.w[1:],
    ])
    _, inside, jacobian = residuals(theta)
    jac = jacobian(np.arange(len(theta)))
    assert inside.tolist() == [True, True, False]
    h = 1e-6
    for t in range(theta.shape[1]):
        bump = np.zeros_like(theta)
        bump[:, t] = h
        (up, *_), (down, *_) = residuals(theta + bump), residuals(theta - bump)
        diff = (up - down)[:2] / (2 * h)
        assert np.max(np.abs(diff - jac[:2, :, t])) <= 1e-6


def test_cell_layout_is_cached_by_shape_and_values_are_read_per_table(monkeypatch):
    """Two sampled tables over the same slates share one cached layout, yet
    give different residuals, each equal to an uncached build's; the cached
    arrays are read-only, and `learner_slates` is one shared tuple."""
    slates = learner_slates(6, 4)
    assert isinstance(slates, tuple) and learner_slates(6, 4) is slates
    m = random_instance(6, 2.0, 7)
    tables = [
        OracleTable(6, 2.0, {s.items: sample_empirical(m, s, 500, seed) for s in slates})
        for seed in (1, 2)
    ]
    items = tuple(range(1, 7))
    theta = np.array([m.a.w[1:] + m.b.w[1:], m.b.w[1:] + m.a.w[1:]])
    hits = learn._cell_layout.cache_info().hits
    cached = [_cell_residuals(table, items)(theta) for table in tables]
    assert learn._cell_layout.cache_info().hits >= hits + 1
    assert not np.array_equal(cached[0][0], cached[1][0])
    layout = learn._cell_layout(tuple(sorted(tables[0].entries)), items)
    for arr in layout:
        with pytest.raises(ValueError):
            arr[...] = 0
    monkeypatch.setattr(learn, "_cell_layout", learn._cell_layout.__wrapped__)
    for table, (res, inside, jacobian) in zip(tables, cached):
        want_res, want_inside, want_jacobian = _cell_residuals(table, items)(theta)
        assert np.array_equal(res, want_res) and np.array_equal(inside, want_inside)
        assert np.array_equal(jacobian([1, 0]), want_jacobian([1, 0]))


def _scalar_refit(a0, b0, residuals) -> tuple:
    """The one-start Gauss-Newton loop that `_refit` must match start by
    start: an `np.linalg.lstsq` step, six lengths from full halving down,
    strict descent, at most 12 steps, stop once an accepted step lowers
    the loss by at most REFIT_FTOL of it."""

    def at(theta, with_jac=False):
        res, inside, jacobian = residuals(theta[None])
        if not inside[0]:
            return None
        return [res[0], jacobian([0])[0]] if with_jac else [res[0]]

    n = len(a0)
    theta = np.array(list(a0[1:]) + list(b0[1:]), dtype=float)
    cur = at(theta)
    if cur is None:
        return list(a0), list(b0), float("inf")
    best_ss, best_theta = float(cur[0] @ cur[0]), theta
    for _ in range(12):
        base, jac = at(theta, with_jac=True)
        step = np.linalg.lstsq(jac, -base, rcond=None)[0]
        moved = False
        scale = 1.0
        for _ in range(6):
            trial = theta + scale * step
            rt = at(trial)
            if rt is not None:
                ss = float(rt[0] @ rt[0])
                if ss < best_ss:
                    prev, best_ss, best_theta = best_ss, ss, trial
                    theta = trial
                    moved = True
                    break
            scale /= 2
        if not moved or prev - best_ss <= learn.REFIT_FTOL * prev:
            break
    a = [1 - best_theta[: n - 1].sum()] + best_theta[: n - 1].tolist()
    b = [1 - best_theta[n - 1:].sum()] + best_theta[n - 1:].tolist()
    return a, b, best_ss


def _refit_calls(monkeypatch, model, cfg) -> list:
    """(a0, b0, residual map, result) of every `_refit` call of one run."""
    calls, refit = [], learn._refit

    def spy(a0, b0, residuals):
        out = refit(a0, b0, residuals)
        calls.append((a0, b0, residuals, out))
        return out

    monkeypatch.setattr(learn, "_refit", spy)
    learn_from_samples(model, cfg=cfg)
    return calls


def _assert_matches_scalar(a0, b0, residuals, out) -> list:
    """Each start of a stacked refit matches the scalar loop: the same
    finite/inf pattern, weights within 1e-7, losses within 1e-6 relative.
    Returns the scalar losses."""
    losses = []
    for start, (a, b, loss) in enumerate(zip(*out)):
        ra, rb, rloss = _scalar_refit(a0[start], b0[start], residuals)
        assert np.isfinite(loss) == np.isfinite(rloss)
        assert np.max(np.abs(np.concatenate((a - ra, b - rb)))) <= 1e-7
        if np.isfinite(rloss):
            assert abs(loss - rloss) <= 1e-6 * rloss
        losses.append(rloss)
    return losses


def _two_evaluation_refit(a0, b0, residuals) -> tuple:
    """The stacked loop `_refit` replaced, kept as its bit-for-bit
    reference: every iteration evaluates the active starts again for their
    residuals and Jacobian, then every length of every start in a second
    call."""
    theta = np.hstack((a0[:, 1:], b0[:, 1:]))
    res, _, _ = residuals(theta)
    loss = np.einsum("ij,ij->i", res, res)
    scales = 0.5 ** np.arange(6)
    active = np.arange(len(theta))
    for _ in range(12):
        if not active.size:
            break
        base, _, jacobian = residuals(theta[active])
        jac = jacobian(np.arange(len(active)))
        p = jac.shape[2]
        rr = np.linalg.qr(np.concatenate((jac, -base[..., None]), axis=2), mode="r")
        r, rhs = rr[:, :p, :p], rr[:, :p, p:]
        diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        full = diag.min(axis=1) > np.finfo(float).eps * max(jac.shape[1:]) * diag.max(axis=1)
        r[~full], rhs[~full] = np.eye(p), 0.0
        step = np.linalg.solve(r, rhs)[..., 0]
        trial = theta[active, None] + scales[:, None] * step[:, None]
        rt, ok, _ = residuals(trial.reshape(-1, theta.shape[1]))
        ss = np.where(ok, np.einsum("ij,ij->i", rt, rt), np.inf).reshape(len(active), -1)
        better = ss < loss[active, None]
        moved = better.any(axis=1)
        first = better.argmax(axis=1)[moved]
        active = active[moved]
        prev = loss[active]
        theta[active] = trial[moved, first]
        loss[active] = ss[moved, first]
        active = active[prev - loss[active] > learn.REFIT_FTOL * prev]
    w = learn._weights(theta)
    return w[:, 0], w[:, 1], loss


def _assert_matches_two_evaluations(a0, b0, residuals, out) -> None:
    """A stacked refit is bit for bit the two-evaluation loop's: the
    accepted rows' residuals and Jacobian, taken from the trial call, equal
    those of evaluating the accepted points again."""
    for got, want in zip(out, _two_evaluation_refit(a0, b0, residuals)):
        assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(t=st.integers(0, 49), size=st.sampled_from([691200, 4000]))
def test_stacked_refit_matches_scalar_loop(t, size):
    """Every start of a sampling run, refitted together, lands where the
    one-start loop takes it: the block's split starts on the noisy
    block table, and the final starts on the all-rows table."""
    m = random_instance(6, 2.0, 1000 + t)
    with pytest.MonkeyPatch.context() as mp:
        calls = _refit_calls(mp, m, LearnConfig(eps=0.05, samples_per_slate=size, seed=t))
    # the block call, then the final call over all six items
    assert [a0.shape[1] for a0, *_ in calls] == [4, 6]
    for call in calls:
        _assert_matches_scalar(*call)
        _assert_matches_two_evaluations(*call)


def test_stacked_refit_matches_scalar_loop_from_clamped_start(monkeypatch):
    """The wrong block basin of this draw extends to final starts with a
    weight clamped to 1e-9; stacked beside the right basin's start, each
    still refits as the one-start loop refits it alone."""
    seed = 3202507196
    m = regular_instance(6, 2.0, seed)
    calls = _refit_calls(
        monkeypatch, m, LearnConfig(eps=0.05, samples_per_slate=691200, seed=seed)
    )
    a0, b0, residuals, out = calls[-1]
    clamped = np.minimum(a0.min(axis=1), b0.min(axis=1)) <= 1e-9
    assert clamped.any() and not clamped.all()
    losses = np.array(_assert_matches_scalar(a0, b0, residuals, out))
    _assert_matches_two_evaluations(a0, b0, residuals, out)
    # the clamped starts refit to the wrong basin's far higher loss
    assert losses[clamped].min() > 10 * losses[~clamped].max()


def _counted(residuals, log):
    """`residuals`, appending the number of rows of every evaluation to `log`."""

    def wrapped(theta):
        log.append(len(theta))
        return residuals(theta)

    return wrapped


def _bench_final_refit(monkeypatch):
    """(a0, b0, residual map, result) of the final refit of the first
    `learn-samples-n6` benchmark input (regular n = 6, N = 691200)."""
    seed = random.Random(1).getrandbits(32)
    m = regular_instance(6, 2.0, seed)
    calls = _refit_calls(
        monkeypatch, m, LearnConfig(eps=0.05, samples_per_slate=691200, seed=seed)
    )
    return calls[-1]


def test_refit_start_at_its_optimum_stops_after_one_iteration(monkeypatch):
    """Restarted where the final refit of a sampled n = 6 table ended, the
    winning start takes one step, which lowers the loss by at most
    REFIT_FTOL of it or not at all, and stops: the start's evaluation and
    one evaluation of its step lengths."""
    _, _, residuals, (a, b, loss) = _bench_final_refit(monkeypatch)
    t = int(np.argmin(loss))
    log = []
    _, _, again = learn._refit(a[t:t + 1].copy(), b[t:t + 1].copy(), _counted(residuals, log))
    assert log == [1, 6]
    assert loss[t] - again[0] <= learn.REFIT_FTOL * loss[t]


def test_refit_winning_start_converges_before_the_step_cap(monkeypatch):
    """On a `learn-samples-n6` input the final refit's winning start stops
    on convergence well before the 12-step cap: within 6 iterations (one
    evaluation each, after the start's own), where stepping until no step
    length lowered the loss took 9. Refitted alone it lands where the
    stacked refit took it."""
    a0, b0, residuals, (a, b, loss) = _bench_final_refit(monkeypatch)
    t = int(np.argmin(loss))
    log = []
    alone = learn._refit(a0[t:t + 1].copy(), b0[t:t + 1].copy(), _counted(residuals, log))
    assert len(log) - 1 <= 6
    for got, want in zip(alone, (a, b, loss)):
        assert np.array_equal(got[0], want[t])


@pytest.mark.parametrize("model_seed, seed", [(1028, 28), (1146, 146)])
def test_samples_near_tie_reports_earliest_start_of_winning_basin(model_seed, seed, monkeypatch):
    """Two final starts refit into the lowest-loss basin, with losses that
    differ in the last digits; the report takes the earliest start whose fit
    is close (BASIN_RTOL) to the argmin fit, not whichever the digits
    favour. On 1146/146 the later start is made the argmin of the final
    refit by one ulp: which of two tied losses is lower is last-digit luck
    that any change of the solver moves."""
    calls, refit = [], learn._refit

    def spy(a0, b0, residuals):
        a, b, loss = refit(a0, b0, residuals)
        if model_seed == 1146 and a0.shape[1] == m.n:
            fit = np.hstack((a, b))
            tied = [t for t in range(len(loss)) if _close(fit[t], fit[np.argmin(loss)], learn.BASIN_RTOL)]
            loss = loss.copy()
            loss[tied[-1]] = np.nextafter(loss.min(), -np.inf)
        calls.append((a, b, loss))
        return a, b, loss

    monkeypatch.setattr(learn, "_refit", spy)
    m = random_instance(6, 2.0, model_seed)
    rep = learn_from_samples(m, cfg=LearnConfig(eps=0.05, seed=seed))
    a, b, loss = calls[-1]
    fit = np.hstack((a, b))
    best = int(np.argmin(loss))
    tied = [t for t in range(len(loss)) if _close(fit[t], fit[best], learn.BASIN_RTOL)]
    assert len(tied) == 2
    assert rep.a_hat == tuple(a[tied[0]].tolist())
    assert rep.b_hat == tuple(b[tied[0]].tolist())
    if model_seed == 1146:
        assert best == tied[1]


def _linear_map(pick, y, log):
    """A `_cell_residuals`-shaped map r(theta) = A theta - y, every start
    inside; `pick(theta)` gives each row's (cells, p) matrix A. Appends
    (theta, False) to `log` for every evaluation and (theta[rows], True)
    for every Jacobian taken at its evaluated rows."""

    def residuals(theta):
        log.append((theta.copy(), False))
        jac = pick(theta)
        res = np.einsum("scp,sp->sc", jac, theta) - y
        inside = np.ones(len(theta), dtype=bool)

        def jacobian(rows):
            log.append((theta[rows].copy(), True))
            return jac[rows]

        return res, inside, jacobian

    return residuals


def _starts(theta):
    """(a0, b0) whose trailing coordinates are the rows of `theta`."""
    w = learn._weights(theta)
    return w[:, 0], w[:, 1]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), extra=st.integers(1, 30))
def test_refit_step_is_the_least_squares_solution(seed, n, extra):
    """On a linear map with full-rank A, the first step lands on
    `np.linalg.lstsq`'s solution, and the refit ends there."""
    rng = np.random.default_rng(seed)
    p = 2 * n - 2
    a = rng.normal(size=(p + extra, p)) * rng.uniform(0.1, 10, size=p)
    y = rng.normal(size=p + extra)
    log = []
    residuals = _linear_map(lambda t: np.broadcast_to(a, (len(t),) + a.shape), y, log)
    theta0 = rng.normal(size=(1, p))
    out_a, out_b, loss = learn._refit(*_starts(theta0), residuals)
    want = np.linalg.lstsq(a, y, rcond=None)[0]
    # the second linearization point is where the first step landed
    linearized = [theta[0] for theta, with_jac in log if with_jac]
    assert len(linearized) >= 2
    scale = np.linalg.norm(want)
    assert np.linalg.norm(linearized[1] - want) <= 1e-12 * scale
    got = np.concatenate((out_a[0, 1:], out_b[0, 1:]))
    assert np.linalg.norm(got - want) <= 1e-12 * scale
    assert loss[0] == pytest.approx(np.sum((a @ want - y) ** 2), rel=1e-12)


def test_refit_rank_deficient_start_keeps_its_weights():
    """A start whose Jacobian has a duplicated column, stacked beside a
    full-rank start: nothing raises, the rank-deficient start is evaluated
    only at its own weights (its step is zero) and keeps them and its loss,
    and the full-rank one steps to its solution. The map takes A from the
    sign of theta's first coordinate, which the full-rank start's steps
    keep positive."""
    rng = np.random.default_rng(7)
    cells, p = 20, 6
    full = rng.normal(size=(cells, p))
    dup = full.copy()
    dup[:, 1] = dup[:, 0]
    target = np.array([5.0, 0.3, -0.2, 0.1, 0.4, -0.3])
    y = full @ target + 1e-3 * rng.normal(size=cells)

    def pick(theta):
        return np.where((theta[:, 0] > 0)[:, None, None], full, dup)

    log = []
    residuals = _linear_map(pick, y, log)
    theta0 = np.array([[4.0, 0.1, 0.1, 0.1, 0.1, 0.1],
                       [-1.0, 0.2, 0.3, -0.1, 0.2, 0.1]])
    a0, b0 = _starts(theta0)
    a, b, loss = learn._refit(a0, b0, residuals)
    for row in np.concatenate([theta for theta, _ in log]):
        assert np.array_equal(row, theta0[1]) or (row[0] > 0 and np.abs(row).max() < 10)
    start_loss = np.sum((dup @ theta0[1] - y) ** 2)
    assert np.array_equal(a[1], a0[1]) and np.array_equal(b[1], b0[1])
    assert loss[1] == pytest.approx(start_loss, rel=1e-14)
    want = np.linalg.lstsq(full, y, rcond=None)[0]
    got = np.concatenate((a[0, 1:], b[0, 1:]))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert loss[0] < np.sum((full @ theta0[0] - y) ** 2)


def test_lambda_one_block_member_ignores_candidate_order(monkeypatch):
    """At lambda = 1 the block keeps the fixed member of its swap class
    (`_swap_classes`), not whichever member last-bit residual order puts
    first, so reversing the block's candidates changes no report."""
    models = [random_instance(n, 1.0, s) for n in (4, 6, 8) for s in range(10)]
    want = [learn_from_oracle(m).to_dict() for m in models]
    enumerate_candidates = learn.enumerate_candidates
    monkeypatch.setattr(
        learn, "enumerate_candidates", lambda table, items: enumerate_candidates(table, items)[::-1]
    )
    assert [learn_from_oracle(m).to_dict() for m in models] == want


@pytest.mark.parametrize("factor,status,code", [
    (1.001, ("sum-mismatch",), 0),
    (0.5, ("sum-mismatch", "nonpositive-weight"), 6),
])
def test_exact_extension_flags_inconsistent_full_slate(factor, status, code):
    """Item 6's full-slate value scaled off the model's: the exact
    extension's weights no longer sum to one, and at half the value one
    is not positive, so no estimate comes back."""
    table = oracle_table(random_instance(6, 2.0, 3), learner_slates(6, 4))
    entries = dict(table.entries)
    full = entries[(1, 2, 3, 4, 5, 6)]
    entries[(1, 2, 3, 4, 5, 6)] = full[:5] + (full[5] * factor,)
    rep = learn_from_oracle(OracleTable(6, table.lam, entries))
    assert rep.status == status
    assert rep.exit_code == code
    assert (rep.a_hat is None) == (code == 6)
