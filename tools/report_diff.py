"""Say how far the reports of each family moved between two report dumps.

    PYTHONPATH=/path/to/parent/src python tools/report_digest.py --dump before.json
    PYTHONPATH=src python tools/report_digest.py --dump after.json
    python tools/report_diff.py before.json after.json

Prints one line per family: `identical`, or the largest difference between
two floats at the same place in the two dumps, with its report index and
path. Under it, one indented line names every other changed field (a
string, a status list, a bool, None, an int, an inf, or a list that changed
length) by its report index and path, with both values. In a family at
lambda = 1, a learner report's a_hat and b_hat are one model in either
order, so they are compared in the order that moves them least, and the
family line counts the reports compared with the two exchanged.
"""

from __future__ import annotations

import argparse
import json
import math
import re

LAMBDA_ONE = re.compile(r"\blam=(1|1\.0|Fraction\(1\))(\s|,|$)")


def _walk(x, y, path: str, floats: list, fields: list) -> None:
    """Append to `floats` every (float difference, path) and to `fields`
    every other change between x and y, with its path."""
    if type(x) is float and type(y) is float and math.isfinite(x) and math.isfinite(y):
        if x != y:
            floats.append((abs(x - y), path))
    elif type(x) is float and type(y) is float and math.isnan(x) and math.isnan(y):
        pass
    elif isinstance(x, dict) and isinstance(y, dict):
        for key in dict.fromkeys([*x, *y]):
            if key not in x or key not in y:
                fields.append((f"{path}.{key}", x.get(key, "<absent>"), y.get(key, "<absent>")))
            else:
                _walk(x[key], y[key], f"{path}.{key}", floats, fields)
    elif (
        isinstance(x, list) and isinstance(y, list) and len(x) == len(y)
        and not all(isinstance(v, str) for v in x + y)
    ):
        for t, (u, v) in enumerate(zip(x, y)):
            _walk(u, v, f"{path}[{t}]", floats, fields)
    elif x != y:
        fields.append((path, x, y))


def compare(before, after, swap: bool) -> tuple:
    """(float differences, changed fields, exchanged) of one report; with
    `swap`, a report holding a_hat and b_hat is also compared with them
    exchanged, and the order that moves its floats least is kept."""
    orders = [after]
    if swap and isinstance(after, dict) and {"a_hat", "b_hat"} <= after.keys():
        orders.append({**after, "a_hat": after["b_hat"], "b_hat": after["a_hat"]})
    results = []
    for other in orders:
        floats: list = []
        fields: list = []
        _walk(before, other, "", floats, fields)
        results.append((len(fields), max(floats, default=(0.0, "")), floats, fields))
    best = min(range(len(results)), key=lambda t: results[t][:2])
    return results[best][2], results[best][3], best == 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args()
    with open(args.before) as f:
        before = json.load(f)
    with open(args.after) as f:
        after = json.load(f)
    for label in dict.fromkeys([*before, *after]):
        if label not in before or label not in after:
            print(f"only in {'after' if label in after else 'before'}  {label}")
            continue
        old, new = before[label], after[label]
        if old == new:
            print(f"identical  {label}")
            continue
        swap = bool(LAMBDA_ONE.search(label))
        floats: list = []
        fields: list = []
        exchanged = 0
        if len(old) != len(new):
            fields.append(("", f"{len(old)} reports", f"{len(new)} reports"))
        for t, (x, y) in enumerate(zip(old, new)):
            f, c, flipped = compare(x, y, swap)
            floats.extend((d, f"[{t}]{path}") for d, path in f)
            fields.extend((f"[{t}]{path}", u, v) for path, u, v in c)
            exchanged += flipped
        worst, where = max(floats, default=(0.0, "-"))
        line = f"max float diff {worst:.3g} at {where}, {len(fields)} changed fields"
        if swap:
            line += f", {exchanged} with a_hat and b_hat exchanged"
        print(f"{line}  {label}")
        for path, u, v in fields:
            print(f"    {path}: {json.dumps(u)} -> {json.dumps(v)}")


if __name__ == "__main__":
    main()
