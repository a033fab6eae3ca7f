"""Command-line surface tests."""

import json
import os
import re
import shlex
from pathlib import Path

import pytest

import mnlmix.experiments as xp
from mnlmix.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"
KINDS = [
    "discriminant-max",
    "three-roots",
    "counterexample",
    "lambda-threshold",
    "identifiability-sweep",
    "sample-complexity",
]


def run(argv, capsys=None):
    code = main(argv)
    return code


def test_simulate_writes_model(tmp_path):
    out = tmp_path / "m.json"
    assert run(["simulate", "--n", "4", "--lambda", "2", "--seed", "7",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 4 and len(data["a"]) == 4


def test_simulate_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["simulate", "--n", "4", "--lambda", "2", "--seed", "9"]
    run(argv + ["--out", str(p1)])
    run(argv + ["--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_simulate_counterexample_exact(tmp_path):
    out = tmp_path / "ce.json"
    assert run(["simulate", "--model", "counterexample", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["a"] == ["2/5", "2/5", "1/10", "1/10"]
    assert data["b"] == ["3/10", "3/10", "1/5", "1/5"]


def test_simulate_three_roots_witness(tmp_path):
    out = tmp_path / "w.json"
    assert run(["simulate", "--model", "three-roots", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["kind"] == "three-roots-witness"
    assert data["b1"] == pytest.approx(0.0565171)


def test_simulate_with_samples(tmp_path):
    out = tmp_path / "m.json"
    sout = tmp_path / "s.json"
    assert run([
        "simulate", "--n", "4", "--lambda", "2", "--seed", "3",
        "--out", str(out), "--samples", "500", "--slate", "1,2,3",
        "--samples-out", str(sout),
    ]) == 0
    data = json.loads(sout.read_text())
    assert data["size"] == 500
    row = data["slates"][0]
    assert sum(row["counts"]) == 500
    assert row["C"] == [(1 + data["lambda"]) * c / 500 for c in row["counts"]]


def test_simulate_requires_args():
    assert run(["simulate"]) == 1


def test_mu_flag(tmp_path):
    out = tmp_path / "m.json"
    assert run(["simulate", "--n", "3", "--mu", "0.25", "--seed", "1",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["lambda"] == pytest.approx(3.0)


def test_identify_exit_codes(tmp_path):
    rep = tmp_path / "r.json"
    assert run(["identify", "counterexample", "--out", str(rep)]) == 2
    data = json.loads(rep.read_text())
    assert not data["unique"]
    assert any(
        s["a"] == ["5/19", "5/19"] and s["b"] == ["7/19", "7/19"]
        for s in data["solutions"]
    )
    gen = tmp_path / "m.json"
    run(["simulate", "--n", "4", "--lambda", "2", "--seed", "7", "--out", str(gen)])
    assert run(["identify", str(gen), "--out", str(tmp_path / "r2.json")]) == 0

    coll = tmp_path / "c.json"
    coll.write_text(json.dumps({
        "n": 3, "lambda": 2.0, "a": [0.5, 0.3, 0.2], "b": [0.5, 0.3, 0.2],
    }))
    assert run(["identify", str(coll), "--out", str(tmp_path / "r3.json")]) == 3


def test_learn_oracle_cli(tmp_path):
    gen = tmp_path / "m.json"
    run(["simulate", "--n", "5", "--lambda", "2", "--seed", "8", "--out", str(gen)])
    rep = tmp_path / "learn.json"
    assert run(["learn", str(gen), "--mode", "oracle", "--out", str(rep)]) == 0
    data = json.loads(rep.read_text())
    assert data["max_rel_error"] <= 1e-8
    assert data["queries"] == 3 * 5 + 20


def test_learn_samples_cli(tmp_path):
    gen = tmp_path / "m.json"
    run(["simulate", "--n", "4", "--lambda", "2", "--seed", "2", "--out", str(gen)])
    rep = tmp_path / "learn.json"
    code = run([
        "learn", str(gen), "--mode", "samples", "--eps", "0.1",
        "--seed", "2", "--out", str(rep),
    ])
    data = json.loads(rep.read_text())
    assert data["samples"] > 0
    assert code in (0, 4, 6)


def test_learn_samples_ok_report_exits_zero(tmp_path):
    # the block table of this draw has no admissible closed-form root; the
    # split-start refit makes an estimate, so the report is ok and the
    # command exits 0
    from mnlmix.experiments import regular_instance
    from mnlmix.model import save_model

    seed = 257135337
    path = tmp_path / "m.json"
    save_model(regular_instance(6, 2.0, seed), str(path))
    rep = tmp_path / "learn.json"
    code = run(["learn", str(path), "--mode", "samples", "--eps", "0.05",
                "--seed", str(seed), "--out", str(rep)])
    data = json.loads(rep.read_text())
    assert data["max_rel_error"] <= 0.05
    assert code == 0


def test_learn_collapse_exit_code(tmp_path):
    coll = tmp_path / "c.json"
    coll.write_text(json.dumps({
        "n": 4, "lambda": 2.0,
        "a": [0.4, 0.3, 0.2, 0.1], "b": [0.4, 0.3, 0.2, 0.1],
    }))
    assert run(["learn", str(coll), "--mode", "oracle",
                "--out", str(tmp_path / "r.json")]) == 4


def test_learn_samples_nonfinite_weight_writes_report(tmp_path):
    """One sample per slate zeroes a partner-map denominator on this draw:
    the run exits 6 with a report that says why."""
    gen = tmp_path / "m.json"
    run(["simulate", "--n", "6", "--lambda", "2", "--seed", "2", "--out", str(gen)])
    rep = tmp_path / "learn.json"
    code = run(["learn", str(gen), "--mode", "samples", "--samples", "1",
                "--seed", "2", "--out", str(rep)])
    data = json.loads(rep.read_text())
    assert code == 6
    assert data["a_hat"] is None and "nonfinite-weight" in data["status"]


def test_learn_no_block_solution_writes_report(tmp_path):
    """Items 1 and 2 pinned: the exact block has no admissible candidate,
    and the run exits 6 with a report, not an error message."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "n": 4, "lambda": "2",
        "a": ["1/4", "1/4", "1/10", "2/5"], "b": ["1/4", "1/4", "3/10", "1/5"],
    }))
    rep = tmp_path / "learn.json"
    assert run(["learn", str(path), "--mode", "oracle", "--out", str(rep)]) == 6
    data = json.loads(rep.read_text())
    assert data["a_hat"] is None and "no-block-solution" in data["status"]


def test_learn_counterexample_three_item_block(tmp_path):
    """The counterexample's block {1, 2, 3} has two exact solutions: the
    run warns about 3-item blocks, reports the violation and exits 4."""
    rep = tmp_path / "learn.json"
    assert run(["learn", "counterexample", "--k", "3", "--out", str(rep)]) == 4
    data = json.loads(rep.read_text())
    assert data["status"] == ["k3-warning", "k-identifiability-violation"]


def test_experiment_counterexample_cli(tmp_path):
    rep = tmp_path / "x.json"
    assert run(["experiment", "counterexample", "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["verdict"] is True


def test_experiment_three_roots_cli(tmp_path):
    rep = tmp_path / "x.json"
    assert run(["experiment", "three-roots", "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["verdict"] is True


def test_experiment_sweep_cli(tmp_path):
    rep = tmp_path / "sweep.json"
    assert run([
        "experiment", "identifiability-sweep", "--n", "3", "--lambda", "2",
        "--trials", "5", "--seed", "1", "--out", str(rep),
    ]) == 0
    assert json.loads(rep.read_text())["counts"]["unique"] == 5


def test_experiment_sweep_jobs_write_one_report(tmp_path):
    """Two worker processes write the one-process report byte for byte."""
    reports = []
    for jobs in ("1", "2"):
        rep = tmp_path / f"sweep{jobs}.json"
        assert run([
            "experiment", "identifiability-sweep", "--n", "4", "--lambda", "2",
            "--trials", "6", "--seed", "3", "--jobs", jobs, "--out", str(rep),
        ]) == 0
        reports.append(rep.read_bytes())
    assert reports[0] == reports[1]


def test_experiment_sample_complexity_writes_csv(tmp_path):
    rep = tmp_path / "curve.json"
    assert run([
        "experiment", "sample-complexity", "--n", "4", "--lambda", "2",
        "--grid", "0.2", "--trials", "3", "--seed", "0", "--out", str(rep),
    ]) == 0
    csv_path = tmp_path / "curve.csv"
    assert csv_path.exists()
    assert csv_path.read_text().startswith("eps,n_star,success")


def test_experiment_discriminant_cli(tmp_path):
    rep = tmp_path / "d.json"
    assert run([
        "experiment", "discriminant-max", "--lambda", "2",
        "--restarts", "10", "--seed", "4", "--out", str(rep),
    ]) == 0
    data = json.loads(rep.read_text())
    assert len(data["restart_values"]) == 10


def test_experiment_lambda_threshold_cli(tmp_path):
    rep = tmp_path / "t.json"
    assert run([
        "experiment", "lambda-threshold", "--grid", "2,5", "--restarts", "10",
        "--seed", "1", "--refine", "1", "--out", str(rep),
    ]) == 0
    data = json.loads(rep.read_text())
    assert data["restarts"] == 10
    assert [row["lambda"] for row in data["grid"]] == [2.0, 3.5, 5.0]
    assert data["signs"][0] == "-" and data["signs"][-1] == "+"


def test_default_seed_env(tmp_path, monkeypatch):
    """A seedless run reads MNLMIX_DEFAULT_SEED when it is called, not when
    the parser was built: two seedless runs in one process, under two env
    values, each match the run with that seed given explicitly."""
    texts = []
    for seed in ("31", "7"):
        monkeypatch.setenv("MNLMIX_DEFAULT_SEED", seed)
        seedless = tmp_path / f"env{seed}.json"
        assert run(["simulate", "--n", "3", "--lambda", "1", "--out", str(seedless)]) == 0
        monkeypatch.delenv("MNLMIX_DEFAULT_SEED")
        explicit = tmp_path / f"arg{seed}.json"
        run(["simulate", "--n", "3", "--lambda", "1", "--seed", seed, "--out", str(explicit)])
        assert seedless.read_text() == explicit.read_text()
        texts.append(seedless.read_text())
    assert texts[0] != texts[1]


def test_bad_model_file(tmp_path):
    missing = tmp_path / "nope.json"
    assert run(["identify", str(missing)]) == 1


@pytest.mark.parametrize("text", [
    '{"n": 3, "a": [0.2, 0.3, 0.5], "b": [0.5, 0.3, 0.2]}',
    '[0.2, 0.3, 0.5]',
    '{"n": 3, "lambda": 2, "a": [0.2, 0.3, 0.5], "b": 0.5}',
])
def test_malformed_model_file_reports_error(tmp_path, capsys, text):
    """A missing key, a top-level list and a scalar weight vector each give
    exit 1 and an `error:` line, not a traceback."""
    path = tmp_path / "m.json"
    path.write_text(text)
    assert run(["identify", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("flags", [["--samples", "0"], ["--eps", "0"]])
def test_learn_samples_unusable_budget_reports_error(tmp_path, capsys, flags):
    path = tmp_path / "m.json"
    run(["simulate", "--n", "4", "--lambda", "2", "--seed", "2", "--out", str(path)])
    assert run(["learn", str(path), "--mode", "samples", *flags]) == 1
    assert capsys.readouterr().err.startswith("error:")


def assert_error_line(capsys, argv, message):
    """`argv` exits 1 with one `error:` line naming `message` on stderr."""
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv,message", [
    (["sample-complexity", "--n", "4", "--lambda", "2", "--trials", "0"],
     "trials must be at least 1"),
    (["sample-complexity", "--n", "4", "--lambda", "2", "--grid-ratio", "0.5"],
     "grid_ratio must exceed 1"),
    (["identifiability-sweep", "--n", "4", "--lambda", "2", "--trials", "0"],
     "trials must be at least 1"),
    (["discriminant-max", "--lambda", "2", "--restarts", "0"],
     "restarts must be at least 1"),
    (["lambda-threshold", "--grid", "2,5", "--restarts", "0"],
     "restarts must be at least 1"),
    (["identifiability-sweep", "--n", "4", "--mu", "0"], "--mu must lie in (0,1)"),
    (["sample-complexity", "--n", "4"], "need --lambda or --mu"),
    (["discriminant-max", "--mu", "1.5"], "--mu must lie in (0,1)"),
    (["discriminant-max"], "need --lambda or --mu"),
    (["identifiability-sweep", "--n", "4", "--lambda", "2", "--trials", "3", "--tol", "-1"],
     "tol must be positive"),
    (["sample-complexity", "--n", "3", "--lambda", "2", "--trials", "1", "--grid", "0"],
     "every accuracy must be positive"),
])
def test_experiment_unusable_arguments_report_error(capsys, argv, message):
    assert_error_line(capsys, ["experiment", *argv], message)


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_identify_nonpositive_tol_reports_error(capsys, tol):
    assert_error_line(capsys, ["identify", "counterexample", "--tol", tol], "tol must be positive")


def test_simulate_samples_need_slate(tmp_path, capsys):
    argv = ["simulate", "--n", "4", "--lambda", "2", "--out", str(tmp_path / "m.json"),
            "--samples", "10"]
    assert_error_line(capsys, argv, "--samples needs --slate")


@pytest.mark.parametrize("argv,message", [
    (["learn", "counterexample", "--samples", "5"], "--samples needs --mode samples"),
    (["simulate", "--model", "counterexample", "--n", "9"],
     "--model takes no --n, --lambda or --mu"),
    (["simulate", "--model", "counterexample", "--lambda", "2"],
     "--model takes no --n, --lambda or --mu"),
    (["simulate", "--n", "4", "--lambda", "2", "--slate", "1,2"],
     "--slate and --samples-out need --samples"),
    (["simulate", "--n", "4", "--lambda", "2", "--samples-out", "s.json"],
     "--slate and --samples-out need --samples"),
    (["simulate", "--model", "three-roots", "--samples", "5", "--slate", "1,2"],
     "the three-roots witness takes no --samples"),
])
def test_flag_without_its_partner_reports_error(tmp_path, capsys, argv, message):
    """A flag that is read only together with another flag is an error, and
    nothing is written before it is reported."""
    assert_error_line(capsys, [*argv, "--out", str(tmp_path / "out.json")], message)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("size,message", [
    (0, "need at least one sample"),
    (10**19, f"cannot draw {10**19} samples at once (at most 2^63 - 1)"),
])
def test_unusable_sample_size_reports_error(tmp_path, capsys, size, message):
    """No sample, or more than numpy can draw (2^63 - 1), is an error line
    for both `learn` and `simulate`."""
    path = tmp_path / "m.json"
    run(["simulate", "--n", "4", "--lambda", "2", "--seed", "2", "--out", str(path)])
    learn = ["learn", str(path), "--mode", "samples", "--samples", str(size)]
    assert_error_line(capsys, learn, message)
    simulate = ["simulate", "--model", str(path), "--samples", str(size), "--slate", "1,2"]
    assert_error_line(capsys, simulate, message)


@pytest.mark.parametrize("argv,message", [
    pytest.param(["experiment", "identifiability-sweep", "--n", "4", "--lambda", "2", "--exact"],
                 "unrecognized arguments: --exact", id="sweep-exact"),
    pytest.param(["experiment", "three-roots", "--n", "4"],
                 "unrecognized arguments: --n 4", id="three-roots-n"),
    pytest.param(["experiment", "counterexample", "--seed", "1"],
                 "unrecognized arguments: --seed 1", id="counterexample-seed"),
    pytest.param(["experiment", "lambda-threshold", "--restarts", "5"],
                 "the following arguments are required: --grid", id="threshold-needs-grid"),
    pytest.param(["experiment", "discriminant-max", "--lambda", "2", "--mu", "0.5"],
                 "argument --mu: not allowed with argument --lambda", id="lambda-and-mu"),
    pytest.param(["identify", "counterexample", "--seed", "1"],
                 "unrecognized arguments: --seed 1", id="identify-seed"),
    pytest.param(["experiment", "identifiability-sweep", "--lambda", "2"],
                 "the following arguments are required: --n", id="sweep-needs-n"),
    pytest.param(["experiment", "sample-complexity", "--lambda", "2"],
                 "the following arguments are required: --n", id="sample-complexity-needs-n"),
    pytest.param(["simulate", "--n", "4", "--lambda", "2", "--mu", "0.5"],
                 "argument --mu: not allowed with argument --lambda", id="simulate-lambda-and-mu"),
])
def test_unread_or_missing_flag_is_usage_error(capsys, argv, message):
    """argparse rejects a flag the command or kind does not read, a missing
    required flag and `--lambda` with `--mu`: exit 2, a usage line, no
    traceback."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mnlmix") and err.rstrip().endswith(message)
    assert "Traceback" not in err


def test_experiment_false_verdict_exits_2(tmp_path, monkeypatch):
    """A report whose verdict is False is written, and the command exits 2."""
    report = {"schema": xp.SCHEMA, "experiment": "three-roots", "verdict": False}
    monkeypatch.setattr(xp, "experiment_three_roots", lambda: report)
    rep = tmp_path / "x.json"
    assert run(["experiment", "three-roots", "--out", str(rep)]) == 2
    assert json.loads(rep.read_text()) == report


def readme_commands() -> list:
    """The `mnlmix` lines of README's "Command line" block, one argv each."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("mnlmix ")]


def test_readme_commands_parse():
    """Every command README shows is accepted by the parser (not run); the
    block shows every experiment kind."""
    commands = readme_commands()
    assert len(commands) >= len(KINDS)
    for argv in commands:
        build_parser().parse_args(argv)
    shown = {argv[1] for argv in commands if argv[0] == "experiment"}
    assert shown == set(KINDS)


@pytest.mark.parametrize("kind", KINDS)
def test_experiment_kind_help(capsys, kind):
    with pytest.raises(SystemExit) as exc:
        run(["experiment", kind, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: mnlmix experiment {kind}")
