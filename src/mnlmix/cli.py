"""Command-line surface: simulate, identify, learn, experiment.

Every command is deterministic given --seed; reports are JSON (schema under a
"schema" key) and sample-complexity curves additionally land in CSV next to
the JSON. No timestamps are written, so re-runs are byte-identical.

Each command, and each experiment kind, takes only the flags it reads
(`mnlmix experiment <kind> --help` lists a kind's); `--lambda` and `--mu`
exclude each other, and `--seed` exists only where a seed is read. Where a
flag is read only next to another (learn's `--samples`, `--eps` and
`--seed` only in `--mode samples`, and `--eps` only without `--samples`;
simulate's `--slate` and `--samples-out` only with `--samples`), giving it
where it is not read is a validation error.

Exit codes: identify returns 0 (unique), 2 (non-unique), 3 (collapse); learn
writes a report on every run and returns 0 on success, 4 on a
block-identifiability violation and 6 when no estimate came back, with the
reason in the report's status, so it returns 0 exactly when the report's
`ok` holds; experiment returns 2 when its report's verdict is false and 0
otherwise. A usage error (an unknown or unread flag, a missing required
flag, `--lambda` with `--mu`) exits 2 with argparse's usage line; other
validation or I/O failures exit 1 with one `error:` line on stderr.
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
    if args.model is not None and (args.n, args.lam, args.mu) != (None, None, None):
        raise ParameterError("--model takes no --n, --lambda or --mu")
    if args.samples is None and (args.slate or args.samples_out):
        raise ParameterError("--slate and --samples-out need --samples")
    if args.samples is not None and not args.slate:
        raise ParameterError("--samples needs --slate")
    if args.model == "three-roots":
        if args.samples is not None:
            raise ParameterError("the three-roots witness takes no --samples")
        # formal witness tuple, not a simplex model: written as a witness file
        data = {"kind": "three-roots-witness", "lambda": xp.THREE_ROOTS_LAMBDA}
        _write_json({**data, **dict(zip(("a1", "a2", "b1", "b2"), xp.THREE_ROOTS_TUPLE))}, args.out)
        return 0
    elif args.model is not None:
        model = _load_model_arg(args.model)
    else:
        if args.n is None:
            raise ParameterError("need --n (or --model)")
        model = random_instance(args.n, _resolve_lambda(args), args.seed, args.floor)

    if args.samples is not None:
        # drawn before the model is written, so an unusable size or slate
        # writes nothing
        slate = Slate.of(int(t) for t in args.slate.split(","))
        counts = sample_counts(model, slate, args.samples, args.seed)

    if args.out:
        save_model(model, args.out)
    else:
        _write_json(model_to_dict(model), None)

    if args.samples is not None:
        data = {
            "schema": xp.SCHEMA,
            "n": model.n,
            "lambda": float(model.lam),
            "size": args.samples,
            "seed": args.seed,
            "slates": [{
                "items": list(slate.items),
                "C": [float((1 + model.lam) * c / args.samples) for c in counts],
                "counts": list(counts),
            }],
        }
        out = args.samples_out or (args.out + ".samples.json" if args.out else None)
        _write_json(data, out)
    return 0


def cmd_identify(args) -> int:
    model = _load_model_arg(args.model)
    report = check_identifiability(model, tol=args.tol)
    _write_json(report.to_dict(), args.out)
    return report.exit_code


def _check_learn(args) -> None:
    """Reject the learn flags given where they are not read. Runs on the
    flags as given, before `main` fills in the default seed."""
    if args.mode != "samples":
        for flag, value in (("--samples", args.samples), ("--eps", args.eps), ("--seed", args.seed)):
            if value is not None:
                raise ParameterError(f"{flag} needs --mode samples")
    elif args.samples is not None and args.eps is not None:
        raise ParameterError("--samples takes no --eps")


def cmd_learn(args) -> int:
    model = _load_model_arg(args.model)
    eps = LearnConfig.eps if args.eps is None else args.eps
    cfg = LearnConfig(k=args.k, eps=eps, samples_per_slate=args.samples, seed=args.seed)
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
    report = args.run(args)
    if args.out and args.csv:
        with open(os.path.splitext(args.out)[0] + ".csv", "w") as fh:
            fh.write(args.csv(report))
    _write_json(report, args.out)
    return 2 if report.get("verdict") is False else 0


def float_list(text: str) -> list:
    return [float(t) for t in text.split(",")]


def _add_lambda(p) -> None:
    group = p.add_mutually_exclusive_group()
    group.add_argument("--lambda", dest="lam", type=float)
    group.add_argument("--mu", type=float, help="mixing weight in (0,1), converts to lambda")


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
    out = {"help": "output path (default: stdout)"}

    p_sim = sub.add_parser("simulate", help="generate model files and samples")
    p_sim.add_argument("--n", type=int)
    _add_lambda(p_sim)
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
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--out", **out)
    p_sim.set_defaults(func=cmd_simulate)

    p_id = sub.add_parser("identify", help="uniqueness check for a model file")
    p_id.add_argument("model", help="model file path or 'counterexample'")
    p_id.add_argument("--tol", type=float, default=RESIDUAL_TOL)
    p_id.add_argument("--out", **out)
    p_id.set_defaults(func=cmd_identify)

    p_learn = sub.add_parser("learn", help="recover weights from oracle or samples")
    p_learn.add_argument("model", help="model file path or 'counterexample'")
    p_learn.add_argument("--mode", choices=["oracle", "samples"], default="oracle")
    p_learn.add_argument("--k", type=int, default=4)
    p_learn.add_argument(
        "--eps", type=float,
        help="accuracy that sets the default per-slate sample size 8 n^3/eps^2 "
        "(--mode samples without --samples; default 0.05)",
    )
    p_learn.add_argument("--samples", type=int, help="per-slate sample size (--mode samples)")
    p_learn.add_argument("--seed", type=int, help="sampling seed (--mode samples)")
    p_learn.add_argument("--out", **out)
    p_learn.set_defaults(func=cmd_learn)

    kinds = sub.add_parser("experiment", help="run a named experiment").add_subparsers(
        dest="kind", required=True, metavar="kind"
    )
    flags = {
        "--n": {"type": int},
        "--k": {"type": int, "default": 4},
        "--eps": {"type": float, "default": 0.05, "help": "the accuracy when --grid is absent"},
        "--trials": {"type": int, "default": 100},
        "--restarts": {"type": int, "default": 500},
        "--tol": {"type": float, "default": RESIDUAL_TOL},
        "--grid": {"type": float_list, "help": "comma-separated grid (eps or lambda values)"},
        "--grid-ratio": {"type": float, "default": 2.0},
        "--refine": {"type": int, "default": 0},
        "--jobs": {"type": int, "default": 1},
        "--witness-start": {"action": "store_true"},
        "--exact": {"action": argparse.BooleanOptionalAction, "default": True},
        "--seed": {"type": int},
    }

    def kind(name, summary, run, *names, required=(), csv=None):
        """One experiment kind: its flags, `--out`, and the call that runs it."""
        p = kinds.add_parser(name, help=summary)
        for flag in names:
            if flag == "--lambda":
                _add_lambda(p)
            else:
                p.add_argument(flag, required=flag in required, **flags[flag])
        p.add_argument("--out", **out)
        p.set_defaults(func=cmd_experiment, run=run, csv=csv)

    kind(
        "discriminant-max", "maximize the pair cubic's discriminant at one lambda",
        lambda a: xp.experiment_discriminant_max(
            _resolve_lambda(a), restarts=a.restarts, seed=a.seed,
            extra_starts=[xp.THREE_ROOTS_TUPLE] if a.witness_start else [],
        ),
        "--lambda", "--restarts", "--witness-start", "--seed",
    )
    kind("three-roots", "verify the three-real-roots witness", lambda a: xp.experiment_three_roots())
    kind(
        "counterexample", "verify the two-solution instance (rational unless --no-exact)",
        lambda a: xp.experiment_counterexample(exact=a.exact),
        "--exact",
    )
    kind(
        "lambda-threshold", "sign of the maximized discriminant along a lambda grid",
        lambda a: xp.experiment_lambda_threshold(
            a.grid, restarts=a.restarts, seed=a.seed, refine_steps=a.refine
        ),
        "--grid", "--restarts", "--refine", "--seed",
        required=("--grid",),
    )
    kind(
        "identifiability-sweep", "identify seeded random instances and count the verdicts",
        lambda a: xp.experiment_identifiability_sweep(
            a.n, _resolve_lambda(a), trials=a.trials, seed=a.seed, tol=a.tol, jobs=a.jobs
        ),
        "--n", "--lambda", "--trials", "--tol", "--jobs", "--seed",
        required=("--n",),
    )
    kind(
        "sample-complexity", "smallest per-slate sample size per accuracy (also writes CSV)",
        lambda a: xp.experiment_sample_complexity(
            a.n, _resolve_lambda(a), a.grid or [a.eps], trials=a.trials, seed=a.seed,
            k=a.k, grid_ratio=a.grid_ratio, jobs=a.jobs,
        ),
        "--n", "--lambda", "--k", "--eps", "--trials", "--grid", "--grid-ratio", "--jobs", "--seed",
        required=("--n",),
        csv=xp.sample_complexity_csv,
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.func is cmd_learn:
            _check_learn(args)
        if "seed" in vars(args) and args.seed is None:
            args.seed = _default_seed()
        return args.func(args)
    except (ParameterError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
