"""Two-component multinomial-logit mixtures: types, oracles, sampling.

A mixture is a pair of weight vectors on the simplex plus a positive mixing
parameter; on any offered slate it picks the first weight vector with
probability 1/(1+lambda) and the second with probability lambda/(1+lambda),
then selects within the slate proportionally to the chosen weights.

All arithmetic runs in whichever number type the model carries: IEEE doubles
for simulation work, ``fractions.Fraction`` for bit-exact verification of
rational instances.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, Sequence, Union

import numpy as np

Number = Union[int, float, Fraction]

WEIGHT_SUM_TOL = 1e-12
DEFAULT_WEIGHT_FLOOR = 1e-9


class ParameterError(ValueError):
    """Infeasible construction parameters (counts, floors, mixing weight)."""


class InvalidSlateError(ValueError):
    """Slate refers to items outside the model universe."""


def rng_stream(seed: int, *keys: int) -> np.random.Generator:
    """Counter-based generator for the (seed, keys...) stream.

    Philox is counter-based, so streams derived from distinct key tuples are
    statistically independent and experiments parallelize deterministically.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *keys])))


def parse_number(x) -> Number:
    """Accept a float, int, or a "p/q" rational string."""
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (int, float)):
        return x
    if isinstance(x, Fraction):
        return x
    raise ParameterError(f"cannot parse number from {x!r}")


def format_number(x: Number):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return float(x)


def is_exact(*values: Number) -> bool:
    return all(isinstance(v, (Fraction, int)) for v in values)


def integer_coefficients(row) -> tuple:
    """The integer numerators of a row of rationals (Fractions or ints)
    over the lcm of their denominators, and that lcm."""
    den = math.lcm(*(c.denominator for c in row))
    return [c.numerator * (den // c.denominator) for c in row], den


@dataclass(frozen=True)
class WeightVector:
    """Point on the simplex: strictly positive entries summing to one."""

    w: tuple

    @staticmethod
    def of(values: Sequence[Number]) -> "WeightVector":
        vals = tuple(values)
        if len(vals) < 1:
            raise ParameterError("empty weight vector")
        if any(v <= 0 for v in vals):
            raise ParameterError("weights must be strictly positive")
        total = sum(vals)
        if is_exact(*vals):
            if total != 1:
                raise ParameterError(f"exact weights must sum to 1, got {total}")
        elif abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ParameterError(f"weights sum to {total!r}, outside 1 +/- 1e-12")
        return WeightVector(vals)

    def __len__(self) -> int:
        return len(self.w)

    def __getitem__(self, i: int):
        return self.w[i]

    @property
    def exact(self) -> bool:
        return is_exact(*self.w)


@dataclass(frozen=True)
class Slate:
    """Sorted set of at least two distinct item indices (1-based)."""

    items: tuple

    @staticmethod
    def of(items: Iterable[int]) -> "Slate":
        its = tuple(sorted(set(int(i) for i in items)))
        if len(its) < 2:
            raise InvalidSlateError("slates need at least 2 distinct items")
        if its[0] < 1:
            raise InvalidSlateError("item indices are 1-based")
        return Slate(its)

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self):
        return iter(self.items)


def all_slates(n: int, min_size: int = 2, items: Sequence[int] | None = None) -> list:
    """Every slate of size >= min_size within the given items (default 1..n)."""
    from itertools import combinations

    universe = tuple(items) if items is not None else tuple(range(1, n + 1))
    out = []
    for k in range(min_size, len(universe) + 1):
        out.extend(Slate.of(c) for c in combinations(universe, k))
    return out


@dataclass(frozen=True)
class MixtureModel:
    """Ground truth object: two weight vectors and the mixing parameter."""

    n: int
    a: WeightVector
    b: WeightVector
    lam: Number

    @staticmethod
    def of(a: Sequence[Number], b: Sequence[Number], lam: Number) -> "MixtureModel":
        av, bv = WeightVector.of(a), WeightVector.of(b)
        if len(av) != len(bv):
            raise ParameterError("weight vectors must have equal length")
        n = len(av)
        if n < 3:
            raise ParameterError("need at least 3 items")
        if lam <= 0:
            raise ParameterError("mixing parameter must be positive")
        return MixtureModel(n, av, bv, lam)

    @staticmethod
    def from_mu(a: Sequence[Number], b: Sequence[Number], mu: Number) -> "MixtureModel":
        if not (0 < mu < 1):
            raise ParameterError("mixing weight must lie in (0,1)")
        if isinstance(mu, Fraction):
            lam = (1 - mu) / mu
        else:
            lam = (1.0 - mu) / mu
        return MixtureModel.of(a, b, lam)

    @property
    def mu(self):
        one = Fraction(1) if is_exact(self.lam) else 1.0
        return one / (1 + self.lam)

    @property
    def exact(self) -> bool:
        return self.a.exact and self.b.exact and is_exact(self.lam)

    def swapped(self) -> "MixtureModel":
        """Exchange components and invert the mixing parameter; same law."""
        one = Fraction(1) if is_exact(self.lam) else 1.0
        return MixtureModel(self.n, self.b, self.a, one / self.lam)

    def collapse_gap(self):
        """sup-norm distance between the two weight vectors."""
        return max(abs(x - y) for x, y in zip(self.a.w, self.b.w))


def slate_distribution(model: MixtureModel, slate: Slate) -> tuple:
    """Choice distribution over the slate members, in sorted item order."""
    if slate.items[-1] > model.n:
        raise InvalidSlateError(f"slate {slate.items} exceeds universe size {model.n}")
    a, b, lam = model.a, model.b, model.lam
    sa = sum(a[i - 1] for i in slate)
    sb = sum(b[i - 1] for i in slate)
    denom = 1 + lam
    return tuple((a[i - 1] / sa + lam * (b[i - 1] / sb)) / denom for i in slate)


@dataclass(frozen=True)
class OracleTable:
    """Scaled slate distributions (1+lambda) * D_T, keyed by slate."""

    n: int
    lam: Number
    entries: dict

    def value(self, slate: Slate) -> tuple:
        return self.entries[slate.items]

    def value_for(self, slate: Slate, item: int):
        return self.entries[slate.items][slate.items.index(item)]


def oracle_table(model: MixtureModel, slates: Iterable[Slate]) -> OracleTable:
    """Exact oracle on the requested slates; rows sum to 1 + lambda.

    Every cell of every slate is computed in one pass. On an exact model,
    with a = alpha / A, b = beta / B and lambda = l / m over integers, a
    cell is (alpha_i S_beta m + l beta_i S_alpha) / (S_alpha S_beta m),
    where S_alpha and S_beta are the slate sums of alpha and beta: one
    Fraction per cell, the exact value of `slate_distribution`'s times
    1 + lambda. Otherwise each cell is (1 + lambda) * `slate_distribution`'s
    value, bit for bit: slate sums add the slate's weights left to right
    from 0, as Python's `sum` does, and each cell divides by 1 + lambda
    before it scales back. Float arrays hold the weights only when every
    weight and lambda is a float or an int; anything else runs elementwise
    on the Python numbers in object arrays.
    """
    keys = [slate.items for slate in slates]
    lam, n = model.lam, model.n
    bad = next((k for k in keys if k[-1] > n), None)
    if bad is not None:
        raise InvalidSlateError(f"slate {bad} exceeds universe size {n}")
    if model.exact:
        (alpha, _), (beta, _) = (integer_coefficients(w.w) for w in (model.a, model.b))
        l, m = lam.numerator, lam.denominator
        entries = {}
        for k in keys:
            s_alpha, s_beta = sum(alpha[i - 1] for i in k), sum(beta[i - 1] for i in k)
            den = s_alpha * s_beta * m
            entries[k] = tuple(
                Fraction(alpha[i - 1] * s_beta * m + l * beta[i - 1] * s_alpha, den) for i in k
            )
        return OracleTable(n, lam, entries)
    numbers = (*model.a.w, *model.b.w, lam)
    dtype = float if all(isinstance(v, (float, int)) for v in numbers) else object
    a, b = (np.array(w.w, dtype) for w in (model.a, model.b))
    row_of = np.repeat(np.arange(len(keys)), [len(k) for k in keys])
    col_of = np.array([i - 1 for k in keys for i in k], int)
    sa, sb = np.zeros(len(keys), dtype), np.zeros(len(keys), dtype)
    np.add.at(sa, row_of, a[col_of])
    np.add.at(sb, row_of, b[col_of])
    scale = 1 + lam
    cells = scale * ((a[col_of] / sa[row_of] + lam * (b[col_of] / sb[row_of])) / scale)
    values = iter(cells.tolist())
    return OracleTable(n, lam, {k: tuple(islice(values, len(k))) for k in keys})


def random_instance(
    n: int,
    lam: Number,
    seed: int,
    floor: float = DEFAULT_WEIGHT_FLOOR,
) -> MixtureModel:
    """Seeded draw of both weight vectors uniformly from the simplex.

    Uses the exponential-spacings construction, then clamps entries to the
    floor and rebalances so the floor holds exactly after normalization.
    """
    if n < 3:
        raise ParameterError("need at least 3 items")
    if floor <= 0 or floor * n >= 1:
        raise ParameterError(f"floor {floor} infeasible for n={n}")
    rng = rng_stream(seed, 0x1157A0CE)

    def draw() -> list:
        e = rng.exponential(size=n)
        w = (e / e.sum()).tolist()
        low: list = []
        for _ in range(n):
            # an entry clamped in an earlier round stays clamped: rescaling
            # it with the free entries would take it under the floor again
            under = [i for i, v in enumerate(w) if v < floor and i not in low]
            if not under:
                break
            low += under
            free = [i for i in range(n) if i not in low]
            mass = 1.0 - floor * len(low)
            scale = mass / sum(w[i] for i in free)
            for i in low:
                w[i] = floor
            for i in free:
                w[i] *= scale
        return w

    return MixtureModel.of(draw(), draw(), lam)


def sample_counts(model: MixtureModel, slate: Slate, size: int, seed: int) -> tuple:
    """Counts of size i.i.d. choices from the slate, one multinomial draw."""
    if size < 1:
        raise ParameterError("need at least one sample")
    rng = rng_stream(seed, *slate.items)
    dist = np.array([float(d) for d in slate_distribution(model, slate)])
    dist = dist / dist.sum()
    return tuple(int(c) for c in rng.multinomial(size, dist))


def sample_empirical(model: MixtureModel, slate: Slate, size: int, seed: int) -> tuple:
    """Empirical oracle row (1+lambda) * counts/size for one slate."""
    counts = sample_counts(model, slate, size, seed)
    scale = 1 + model.lam
    if model.exact:
        return tuple(scale * Fraction(c, size) for c in counts)
    return tuple(scale * c / size for c in counts)


# ---------------------------------------------------------------------------
# file formats


def model_to_dict(model: MixtureModel) -> dict:
    return {
        "n": model.n,
        "lambda": format_number(model.lam),
        "a": [format_number(x) for x in model.a.w],
        "b": [format_number(x) for x in model.b.w],
    }


def _field(data, key: str, kind: type = object):
    """`data[key]` of a parsed JSON object, checked to be a `kind`."""
    if not isinstance(data, dict):
        raise ParameterError(f"expected a JSON object, got {type(data).__name__}")
    if key not in data:
        raise ParameterError(f"missing key {key!r}")
    if not isinstance(data[key], kind):
        raise ParameterError(f"{key!r} must be a {kind.__name__}, got {type(data[key]).__name__}")
    return data[key]


def model_from_dict(data: dict) -> MixtureModel:
    lam = parse_number(_field(data, "lambda"))
    a = [parse_number(x) for x in _field(data, "a", list)]
    b = [parse_number(x) for x in _field(data, "b", list)]
    model = MixtureModel.of(a, b, lam)
    if model.n != int(parse_number(_field(data, "n"))):
        raise ParameterError("declared n does not match weight length")
    return model


def save_model(model: MixtureModel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path: str) -> MixtureModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))


def oracle_to_dict(table: OracleTable) -> dict:
    return {
        "n": table.n,
        "lambda": format_number(table.lam),
        "slates": [
            {"items": list(items), "C": [format_number(v) for v in values]}
            for items, values in sorted(table.entries.items())
        ],
    }


def oracle_from_dict(data: dict) -> OracleTable:
    """The table of an `oracle_to_dict` object. A row may list its items in
    any order, each value with its item; a row whose items repeat or leave
    1..n, whose items are fewer than two, or whose `C` list differs in
    length, raises ParameterError."""
    lam = parse_number(_field(data, "lambda"))
    n = int(parse_number(_field(data, "n")))
    entries = {}
    for row in _field(data, "slates", list):
        items = [int(parse_number(i)) for i in _field(row, "items", list)]
        values = [parse_number(v) for v in _field(row, "C", list)]
        if len(values) != len(items):
            raise ParameterError(f"slate {items} has {len(values)} values")
        if len(items) < 2 or len(set(items)) != len(items) or not all(1 <= i <= n for i in items):
            raise ParameterError(f"slate {items} needs two or more distinct items in 1..{n}")
        # the items are distinct, so the sort never compares two values
        items, values = zip(*sorted(zip(items, values)))
        entries[items] = values
    return OracleTable(n, lam, entries)


def save_oracle(table: OracleTable, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(oracle_to_dict(table), fh, indent=2)
        fh.write("\n")


def load_oracle(path: str) -> OracleTable:
    with open(path) as fh:
        return oracle_from_dict(json.load(fh))
