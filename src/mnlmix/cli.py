"""Command-line surface: simulate, identify, learn, experiment.

Every command is deterministic given --seed; reports are JSON (schema under a
"schema" key) and sample-complexity curves additionally land in CSV next to
the JSON. No timestamps are written, so re-runs are byte-identical.

Exit codes: identify returns 0 (unique), 2 (non-unique), 3 (collapse); learn
writes a report on every run and returns 0 on success, 4 on a
block-identifiability violation and 6 when no estimate came back, with the
reason in the report's status, so it returns 0 exactly when the report's
`ok` holds; other validation or I/O failures exit nonzero with a message on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import experiments as xp
from .identify import RESIDUAL_TOL, check_identifiability
from .learn import LearnConfig, learn_from_oracle, learn_from_samples
from .model import (
    DEFAULT_WEIGHT_FLOOR,
    MixtureModel,
    ParameterError,
    Slate,
    load_model,
    model_to_dict,
    random_instance,
    sample_counts,
    save_model,
)


def _default_seed() -> int:
    return int(os.environ.get("MNLMIX_DEFAULT_SEED", "0"))


def _write_json(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_lambda(args) -> float | Fraction:
    if args.mu is not None:
        mu = args.mu
        if not 0 < mu < 1:
            raise ParameterError("--mu must lie in (0,1)")
        return (1.0 - mu) / mu
    if args.lam is None:
        raise ParameterError("need --lambda or --mu")
    return args.lam


def _load_model_arg(ref: str) -> MixtureModel:
    if ref == "counterexample":
        return xp.counterexample_model(exact=True)
    return load_model(ref)


def cmd_simulate(args) -> int:
    if args.model == "three-roots":
        # formal witness tuple, not a simplex model: written as a witness file
        data = {
            "kind": "three-roots-witness",
            "lambda": xp.THREE_ROOTS_LAMBDA,
            "a1": xp.THREE_ROOTS_TUPLE[0],
            "a2": xp.THREE_ROOTS_TUPLE[1],
            "b1": xp.THREE_ROOTS_TUPLE[2],
            "b2": xp.THREE_ROOTS_TUPLE[3],
        }
        _write_json(data, args.out)
        return 0
    elif args.model is not None:
        model = _load_model_arg(args.model)
    else:
        if args.n is None:
            raise ParameterError("need --n (or --model)")
        model = random_instance(args.n, _resolve_lambda(args), args.seed, args.floor)

    if args.out:
        save_model(model, args.out)
    else:
        _write_json(model_to_dict(model), None)

    if args.samples:
        if not args.slate:
            raise ParameterError("--samples needs --slate")
        slate = Slate.of(int(t) for t in args.slate.split(","))
        counts = sample_counts(model, slate, args.samples, args.seed)
        data = {
            "schema": xp.SCHEMA,
            "n": model.n,
            "lambda": float(model.lam),
            "size": args.samples,
            "seed": args.seed,
            "slates": [
                {
                    "items": list(slate.items),
                    "C": [float((1 + model.lam) * c / args.samples) for c in counts],
                    "counts": list(counts),
                }
            ],
        }
        out = args.samples_out or (args.out + ".samples.json" if args.out else None)
        _write_json(data, out)
    return 0


def cmd_identify(args) -> int:
    model = _load_model_arg(args.model)
    report = check_identifiability(model, tol=args.tol)
    _write_json(report.to_dict(), args.out)
    return report.exit_code


def cmd_learn(args) -> int:
    model = _load_model_arg(args.model)
    cfg = LearnConfig(
        k=args.k,
        eps=args.eps,
        samples_per_slate=args.samples,
        seed=args.seed,
    )
    if args.mode == "oracle":
        report = learn_from_oracle(model, cfg=cfg)
    else:
        report = learn_from_samples(model, cfg=cfg)
    _write_json(report.to_dict(), args.out)
    if report.max_rel_error is not None:
        sys.stderr.write(
            f"queries={report.queries_used} samples={report.samples_used} "
            f"max_rel_error={report.max_rel_error:.3e}\n"
        )
    return report.exit_code


def cmd_experiment(args) -> int:
    kind = args.kind
    if kind == "discriminant-max":
        extra = [xp.THREE_ROOTS_TUPLE] if args.witness_start else []
        report = xp.experiment_discriminant_max(
            _resolve_lambda(args),
            restarts=args.restarts,
            seed=args.seed,
            extra_starts=extra,
        )
    elif kind == "three-roots":
        report = xp.experiment_three_roots()
    elif kind == "counterexample":
        report = xp.experiment_counterexample(exact=args.exact)
    elif kind == "lambda-threshold":
        grid = [float(t) for t in args.grid.split(",")]
        report = xp.experiment_lambda_threshold(
            grid, restarts=args.restarts, seed=args.seed, refine_steps=args.refine
        )
    elif kind == "identifiability-sweep":
        if args.n is None:
            raise ParameterError("need --n")
        report = xp.experiment_identifiability_sweep(
            args.n,
            _resolve_lambda(args),
            trials=args.trials,
            seed=args.seed,
            tol=args.tol,
            jobs=args.jobs,
        )
    elif kind == "sample-complexity":
        if args.n is None:
            raise ParameterError("need --n")
        grid = [float(t) for t in args.grid.split(",")] if args.grid else [args.eps]
        report = xp.experiment_sample_complexity(
            args.n,
            _resolve_lambda(args),
            grid,
            trials=args.trials,
            seed=args.seed,
            k=args.k,
            grid_ratio=args.grid_ratio,
            jobs=args.jobs,
        )
        if args.out:
            csv_path = os.path.splitext(args.out)[0] + ".csv"
            with open(csv_path, "w") as fh:
                fh.write(xp.sample_complexity_csv(report))
    else:
        raise ParameterError(f"unknown experiment kind {kind!r}")
    _write_json(report, args.out)
    verdict = report.get("verdict")
    if verdict is False:
        return 2
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process. `--seed` defaults to
    None; `main` reads MNLMIX_DEFAULT_SEED at call time."""
    parser = argparse.ArgumentParser(
        prog="mnlmix",
        description="Mixtures of two multinomial logits: simulation, "
        "identifiability checks, learning, and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output path (default: stdout)")

    p_sim = sub.add_parser("simulate", help="generate model files and samples")
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--lambda", dest="lam", type=float)
    p_sim.add_argument("--mu", type=float, help="mixing weight, converts to lambda")
    p_sim.add_argument("--floor", type=float, default=DEFAULT_WEIGHT_FLOOR)
    p_sim.add_argument(
        "--model",
        help="named instance to emit: 'counterexample' (the exact two-solution "
        "four-item instance) or 'three-roots' (the formal witness tuple whose "
        "pair cubic has three real roots); otherwise a model file to re-emit",
    )
    p_sim.add_argument("--samples", type=int, help="also draw N samples per slate")
    p_sim.add_argument("--slate", help="comma-separated items, e.g. 1,2,3")
    p_sim.add_argument("--samples-out")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_id = sub.add_parser("identify", help="uniqueness check for a model file")
    p_id.add_argument("model", help="model file path or 'counterexample'")
    p_id.add_argument("--tol", type=float, default=RESIDUAL_TOL)
    common(p_id)
    p_id.set_defaults(func=cmd_identify)

    p_learn = sub.add_parser("learn", help="recover weights from oracle or samples")
    p_learn.add_argument("model", help="model file path or 'counterexample'")
    p_learn.add_argument("--mode", choices=["oracle", "samples"], default="oracle")
    p_learn.add_argument("--k", type=int, default=4)
    p_learn.add_argument("--eps", type=float, default=0.05)
    p_learn.add_argument("--samples", type=int, help="per-slate sample size")
    common(p_learn)
    p_learn.set_defaults(func=cmd_learn)

    p_exp = sub.add_parser("experiment", help="run a named experiment")
    p_exp.add_argument(
        "kind",
        choices=[
            "discriminant-max",
            "three-roots",
            "counterexample",
            "identifiability-sweep",
            "sample-complexity",
            "lambda-threshold",
        ],
    )
    p_exp.add_argument("--n", type=int)
    p_exp.add_argument("--lambda", dest="lam", type=float)
    p_exp.add_argument("--mu", type=float)
    p_exp.add_argument("--k", type=int, default=4)
    p_exp.add_argument("--eps", type=float, default=0.05)
    p_exp.add_argument("--trials", type=int, default=100)
    p_exp.add_argument("--restarts", type=int, default=500)
    p_exp.add_argument("--tol", type=float, default=RESIDUAL_TOL)
    p_exp.add_argument("--grid", help="comma-separated grid (eps or lambda values)")
    p_exp.add_argument("--grid-ratio", type=float, default=2.0)
    p_exp.add_argument("--refine", type=int, default=0)
    p_exp.add_argument("--jobs", type=int, default=1)
    p_exp.add_argument("--witness-start", action="store_true")
    p_exp.add_argument(
        "--exact",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="rational arithmetic for the named-instance verifications",
    )
    common(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except (ParameterError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
