"""SHA-256 digests of mnlmix reports over fixed seeds, one line per family.

A change that must leave every report byte-identical prints the same lines
before and after. Run the script at both commits on one machine and diff
the output:

    PYTHONPATH=src python tools/report_digest.py > after.txt
    PYTHONPATH=/path/to/parent/src python tools/report_digest.py > before.txt
    diff before.txt after.txt

The digests are not golden values. The last digits of float results depend
on the platform and the numpy build, so compare two commits on one machine,
never against a stored list.

Families: `check_identifiability` by n and lambda over random instances, the
two-solution counterexample (exact and float), `learn_from_oracle` by n and
lambda, and `learn_from_samples` at eps = 0.05 on model seeds 1000 + t with
sampling seed t. A run takes about 35 s on two cores.
"""

from __future__ import annotations

import hashlib
import json

from mnlmix.experiments import counterexample_model
from mnlmix.identify import check_identifiability
from mnlmix.learn import LearnConfig, learn_from_oracle, learn_from_samples
from mnlmix.model import random_instance

LAMBDAS = (2.0, 1.0, 0.7)
# n -> number of seeds, per lambda
IDENTIFY_DRAWS = {3: 300, 4: 600, 5: 150, 6: 100, 8: 40, 14: 20}
ORACLE_DRAWS = {4: 40, 5: 40, 6: 40, 8: 20, 12: 10}
# n -> number of sampling draws at lambda = 2
SAMPLE_DRAWS = {6: 150, 5: 25, 7: 25, 8: 25}


def digest(reports) -> str:
    h = hashlib.sha256()
    for rep in reports:
        h.update(json.dumps(rep, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def families():
    """Yield (label, iterable of report dicts) for every family."""
    for n, draws in IDENTIFY_DRAWS.items():
        for lam in LAMBDAS:
            yield f"identify n={n} lam={lam} seeds=0..{draws - 1}", (
                check_identifiability(random_instance(n, lam, s)).to_dict()
                for s in range(draws)
            )
    yield "identify counterexample exact,float", (
        check_identifiability(counterexample_model(exact)).to_dict()
        for exact in (True, False)
    )
    for n, draws in ORACLE_DRAWS.items():
        for lam in LAMBDAS:
            yield f"learn-oracle n={n} lam={lam} seeds=0..{draws - 1}", (
                learn_from_oracle(random_instance(n, lam, s)).to_dict()
                for s in range(draws)
            )
    for n, draws in SAMPLE_DRAWS.items():
        yield f"learn-samples n={n} lam=2.0 eps=0.05 seeds=1000+t, t=0..{draws - 1}", (
            learn_from_samples(
                random_instance(n, 2.0, 1000 + t), cfg=LearnConfig(eps=0.05, seed=t)
            ).to_dict()
            for t in range(draws)
        )


def main() -> None:
    for label, reports in families():
        print(f"{digest(reports)}  {label}", flush=True)


if __name__ == "__main__":
    main()
