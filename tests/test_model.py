"""Mixture-model types, oracles, sampling, and file-format tests."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from mnlmix.identify import exact_model
from mnlmix.model import (
    InvalidSlateError,
    MixtureModel,
    ParameterError,
    Slate,
    WeightVector,
    all_slates,
    load_model,
    load_oracle,
    model_from_dict,
    model_to_dict,
    oracle_from_dict,
    oracle_table,
    oracle_to_dict,
    random_instance,
    sample_counts,
    sample_empirical,
    save_model,
    save_oracle,
    slate_distribution,
)

F = Fraction


def counterexample():
    return MixtureModel.of(
        [F(2, 5), F(2, 5), F(1, 10), F(1, 10)],
        [F(3, 10), F(3, 10), F(1, 5), F(1, 5)],
        F(2),
    )


def test_weight_vector_validation():
    with pytest.raises(ParameterError):
        WeightVector.of([0.5, 0.5, 0.0])
    with pytest.raises(ParameterError):
        WeightVector.of([0.5, 0.6])
    with pytest.raises(ParameterError):
        WeightVector.of([F(1, 2), F(1, 3)])
    WeightVector.of([0.25, 0.25, 0.5])


def test_model_validation():
    with pytest.raises(ParameterError):
        MixtureModel.of([0.5, 0.5], [0.5, 0.5], 1.0)  # n < 3
    with pytest.raises(ParameterError):
        MixtureModel.of([1 / 3] * 3, [1 / 3] * 3, 0.0)


def test_mu_lambda_conversion():
    m = MixtureModel.from_mu([1 / 3] * 3, [1 / 3] * 3, 0.25)
    assert m.lam == pytest.approx(3.0)
    assert m.mu == pytest.approx(0.25)
    exact = MixtureModel.from_mu([F(1, 3)] * 3, [F(1, 3)] * 3, F(1, 3))
    assert exact.lam == F(2)


def test_slate_validation():
    with pytest.raises(InvalidSlateError):
        Slate.of([1])
    with pytest.raises(InvalidSlateError):
        Slate.of([0, 1])
    assert Slate.of([3, 1, 3]).items == (1, 3)


def test_all_slates_count():
    assert len(all_slates(4)) == 11
    assert len(all_slates(3)) == 4


def test_slate_distribution_uniform_collapse():
    # equal weight vectors give 1/|T| regardless of the mixing parameter
    m = MixtureModel.of([1 / 3] * 3, [1 / 3] * 3, 7.0)
    assert slate_distribution(m, Slate.of([1, 2])) == pytest.approx((0.5, 0.5))


def test_slate_distribution_symmetric_pair():
    d = slate_distribution(counterexample(), Slate.of([1, 2]))
    assert d == (F(1, 2), F(1, 2))


def test_slate_distribution_full_slate():
    d = slate_distribution(counterexample(), Slate.of([1, 2, 3, 4]))
    assert d[0] == F(1, 3)


def test_slate_distribution_rejects_bad_index():
    with pytest.raises(InvalidSlateError):
        slate_distribution(counterexample(), Slate.of([1, 5]))


def test_oracle_values_exact():
    m = counterexample()
    table = oracle_table(m, [Slate.of([1, 2, 3, 4]), Slate.of([1, 2]), Slate.of([1, 3, 4])])
    assert table.value_for(Slate.of([1, 2, 3, 4]), 1) == F(1)
    assert table.value_for(Slate.of([1, 2]), 1) == F(3, 2)
    assert table.value_for(Slate.of([1, 3, 4]), 1) == F(32, 21)


def _rational_weights(w):
    """`w` rounded to denominators up to 1000, the last weight one minus the
    others."""
    head = [F(x).limit_denominator(1000) for x in w[:-1]]
    return head + [1 - sum(head)]


# model kind -> (float draw, seed) -> model; the mixed kinds pair Fraction
# weights with a float lambda and float weights with an int or Fraction one
_TABLE_MODELS = {
    "float": lambda m: m,
    "rational": lambda m: MixtureModel.of(_rational_weights(m.a.w), _rational_weights(m.b.w), F(2)),
    "fraction-weights-float-lambda": lambda m: MixtureModel.of(
        _rational_weights(m.a.w), _rational_weights(m.b.w), 0.7
    ),
    "float-weights-int-lambda": lambda m: MixtureModel.of(m.a.w, m.b.w, 3),
    "float-weights-fraction-lambda": lambda m: MixtureModel.of(m.a.w, m.b.w, F(3, 2)),
    "rational-int-lambda": lambda m: MixtureModel.of(_rational_weights(m.a.w), _rational_weights(m.b.w), 2),
    # exact images of float draws, lambda 0.7 included: denominators near 2^53
    "exact-float-draw": lambda m: exact_model(MixtureModel.of(m.a.w, m.b.w, 0.7)),
    "exact-float-draw-int-lambda": lambda m: exact_model(MixtureModel.of(m.a.w, m.b.w, 3)),
}


def _bits(values) -> list:
    return [(type(v), v.hex() if isinstance(v, float) else v) for v in values]


@pytest.mark.parametrize("kind", sorted(_TABLE_MODELS))
@pytest.mark.parametrize("n", [3, 4, 6])
def test_oracle_table_equals_scaled_slate_distribution(kind, n):
    """The one-pass table gives (1 + lambda) * `slate_distribution` on every
    slate, value for value and type for type, float bits included."""
    checked = 0
    for seed in range(8):
        m = random_instance(n, 2.0, seed)
        if min(_rational_weights(m.a.w) + _rational_weights(m.b.w)) <= 0:
            continue
        m = _TABLE_MODELS[kind](m)
        slates = all_slates(n)
        table = oracle_table(m, slates)
        assert list(table.entries) == [s.items for s in slates]
        for s in slates:
            want = tuple((1 + m.lam) * d for d in slate_distribution(m, s))
            assert _bits(table.value(s)) == _bits(want)
        checked += 1
    assert checked >= 6


def test_oracle_table_rejects_bad_index():
    with pytest.raises(InvalidSlateError):
        oracle_table(counterexample(), [Slate.of([1, 2]), Slate.of([1, 5])])
    assert oracle_table(counterexample(), []).entries == {}


def test_distribution_sums_property():
    rng_seeds = range(20)
    for seed in rng_seeds:
        m = random_instance(5, 1.7, seed)
        for slate in all_slates(5):
            d = slate_distribution(m, slate)
            assert abs(sum(d) - 1.0) <= 1e-14
            assert all(0 < x < 1 for x in d)
        table = oracle_table(m, all_slates(5))
        for items, values in table.entries.items():
            assert abs(sum(values) - (1 + m.lam)) <= 1e-10


def test_collapse_lambda_independence():
    w = [0.5, 0.3, 0.2]
    for lam in (0.3, 1.0, 4.5):
        m = MixtureModel.of(w, w, lam)
        d = slate_distribution(m, Slate.of([1, 2]))
        assert d == pytest.approx((0.625, 0.375), abs=1e-15)


def test_swap_relation():
    for seed in range(10):
        m = random_instance(4, 2.5, seed)
        swapped = m.swapped()
        for slate in all_slates(4):
            d1 = slate_distribution(m, slate)
            d2 = slate_distribution(swapped, slate)
            assert max(abs(x - y) for x, y in zip(d1, d2)) <= 1e-14


def test_random_instance_determinism():
    m1 = random_instance(3, 1.0, 12345)
    m2 = random_instance(3, 1.0, 12345)
    assert m1.a.w == m2.a.w and m1.b.w == m2.b.w


def test_random_instance_floor():
    m = random_instance(5, 2.0, 77, floor=1e-3)
    for w in (m.a.w, m.b.w):
        assert min(w) >= 1e-3
        assert abs(sum(w) - 1.0) <= 1e-12


def test_random_instance_floor_holds_after_rebalancing():
    """A floor that clamps several entries, some only after an earlier
    round's rebalance took them under it, still holds for every entry."""
    for seed in range(200):
        m = random_instance(4, 2.0, seed, floor=0.2)
        for w in (m.a.w, m.b.w):
            assert min(w) >= 0.2
            assert abs(sum(w) - 1.0) <= 1e-12


def test_random_instance_bad_floor():
    with pytest.raises(ParameterError):
        random_instance(5, 2.0, 0, floor=0.5)


def test_simplex_marginal_mean():
    # uniform-simplex marginal mean of each coordinate is 1/n
    vals = [random_instance(3, 2.0, seed).a[0] for seed in range(10000)]
    assert np.mean(vals) == pytest.approx(1 / 3, abs=0.01)


def test_sampling_determinism():
    m = random_instance(4, 2.0, 5)
    s = Slate.of([1, 2, 4])
    assert sample_counts(m, s, 1000, 9) == sample_counts(m, s, 1000, 9)
    assert sample_counts(m, s, 1000, 9) != sample_counts(m, s, 1000, 10)


def test_sample_counts_rejects_sizes_numpy_cannot_draw():
    """2^63 - 1 samples is numpy's largest draw; one more is an error."""
    m = random_instance(4, 2.0, 5)
    s = Slate.of([1, 2, 4])
    assert sum(sample_counts(m, s, 2**63 - 1, 9)) == 2**63 - 1
    with pytest.raises(ParameterError, match="cannot draw"):
        sample_counts(m, s, 2**63, 9)


def test_sample_empirical_near_deterministic():
    delta = 1e-9
    w = [1 - 2 * delta, delta, delta]
    m = MixtureModel.of(w, w, 1.0)
    got = sample_empirical(m, Slate.of([1, 2, 3]), 100, 3)
    assert got == pytest.approx((2.0, 0.0, 0.0))


def test_sample_empirical_exact_row_sum():
    m = counterexample()
    row = sample_empirical(m, Slate.of([1, 2, 3]), 997, 4)
    assert sum(row) == 1 + m.lam  # exact rational bookkeeping


def test_empirical_convergence_sup_norm():
    # N = 1e6 at n = 3: within 5e-3 of the oracle in >= 99% of 100 seeds
    m = random_instance(3, 2.0, 8)
    slate = Slate.of([1, 2, 3])
    truth = np.array(slate_distribution(m, slate))
    hits = 0
    for seed in range(100):
        emp = np.array(sample_empirical(m, slate, 10**6, seed)) / (1 + m.lam)
        if np.max(np.abs(emp - truth)) <= 5e-3:
            hits += 1
    assert hits >= 99


def test_concentration_large_slate():
    # sup-norm error of the empirical slate distribution <= sqrt(n/N) for
    # N = 10 n^3 in at least 90% of 200 trials
    n, trials = 10, 200
    size = 10 * n**3
    m = random_instance(n, 2.0, 21)
    slate = Slate.of(range(1, n + 1))
    truth = np.array(slate_distribution(m, slate))
    bound = math.sqrt(n / size)
    hits = 0
    for seed in range(trials):
        emp = np.array(sample_counts(m, slate, size, seed)) / size
        if np.max(np.abs(emp - truth)) <= bound:
            hits += 1
    assert hits >= 0.9 * trials


def test_model_json_roundtrip_float(tmp_path):
    m = random_instance(4, 2.0, 3)
    path = tmp_path / "m.json"
    save_model(m, str(path))
    back = load_model(str(path))
    assert back.a.w == m.a.w and back.b.w == m.b.w and back.lam == m.lam


def test_model_json_roundtrip_exact(tmp_path):
    m = counterexample()
    path = tmp_path / "m.json"
    save_model(m, str(path))
    raw = json.loads(path.read_text())
    assert raw["a"][0] == "2/5"
    back = load_model(str(path))
    assert back.a.w == m.a.w and back.lam == F(2)


def test_model_dict_n_mismatch():
    d = model_to_dict(counterexample())
    d["n"] = 5
    with pytest.raises(ParameterError):
        model_from_dict(d)


def test_oracle_json_roundtrip(tmp_path):
    m = counterexample()
    table = oracle_table(m, all_slates(4))
    path = tmp_path / "oracle.json"
    save_oracle(table, str(path))
    back = load_oracle(str(path))
    assert back.entries == table.entries
    assert oracle_from_dict(oracle_to_dict(table)).entries == table.entries


@pytest.mark.parametrize("data", [
    [{"items": [1, 2], "C": [1.5, 1.5]}],
    {"n": 3, "slates": []},
    {"n": 3, "lambda": 2, "slates": 0.5},
    {"n": 3, "lambda": 2, "slates": [{"items": [1, 2]}]},
    {"n": 3, "lambda": 2, "slates": [{"items": None, "C": [1.5, 1.5]}]},
    {"n": 3, "lambda": 2, "slates": [{"items": [1, 2, 2], "C": [1.0, 1.0, 1.0]}]},
    {"n": 3, "lambda": 2, "slates": [{"items": [1, 2], "C": [1.5, 1.0, 0.5]}]},
    {"n": 3, "lambda": 2, "slates": [{"items": [1, 4], "C": [1.5, 1.5]}]},
    {"n": 3, "lambda": 2, "slates": [{"items": [0, 1], "C": [1.5, 1.5]}]},
    {"n": 3, "lambda": 2, "slates": [{"items": [], "C": []}]},
])
def test_malformed_oracle_dict_raises_parameter_error(data):
    with pytest.raises(ParameterError):
        oracle_from_dict(data)


def test_oracle_dict_keeps_each_value_with_its_item():
    """A row that lists its items out of order loads each value with its
    own item."""
    table = oracle_table(random_instance(4, 2.0, 1), all_slates(4))
    data = oracle_to_dict(table)
    for row in data["slates"]:
        row["items"].reverse()
        row["C"].reverse()
    assert oracle_from_dict(data).entries == table.entries
