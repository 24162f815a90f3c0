import csv
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from cosdfl import cli, harness
from cosdfl.cli import main
from cosdfl.core import load_dataset, total_regret
from cosdfl.errors import SolveFailure
from cosdfl.model import init_model, load_model, save_model
from cosdfl.problems import problem_from_name

GEN_ARGS = ["--n-train", "10", "--n-val", "4", "--n-test", "6", "--k", "4"]
TRAIN_ARGS = ["--epochs", "2", "--batch-size", "4"]


def test_generate_roundtrip(tmp_path):
    out = tmp_path / "data.json"
    assert main(["generate", "--problem", "ks6", "--seed", "3",
                 "--out", str(out), *GEN_ARGS]) == 0
    ds = load_dataset(out)
    assert ds.n == 20
    assert ds.costs.shape == (20, 6)


def test_generate_caches_decisions_on_train_and_val(tmp_path, monkeypatch):
    problems = []

    def build(name, seed):
        problems.append(problem_from_name(name, seed))
        return problems[-1]

    monkeypatch.setattr(cli, "problem_from_name", build)
    out = tmp_path / "data.json"
    assert main(["generate", "--problem", "sp3x3", "--seed", "0", "--cache-decisions",
                 "--out", str(out), *GEN_ARGS]) == 0
    ds = load_dataset(out)
    assert ds.uncached("x_star", range(ds.n)) == list(ds.split.test)
    cached = list(ds.split.train + ds.split.val)
    assert problems[0].solves == len(cached) == 14
    np.testing.assert_array_equal(ds.x_star[cached],
                                  problems[0].solve_many(ds.costs[cached]))


def test_experiment_flag_defaults_are_the_config_defaults(monkeypatch):
    class Stop(Exception):
        pass

    def capture(config):
        configs.append(config)
        raise Stop

    configs = []
    monkeypatch.setattr(cli, "run_experiment", capture)
    with pytest.raises(Stop):
        main(["experiment", "--problem", "ks6", "--losses", "mse,spo+", "--out-dir", "out"])
    assert configs == [harness.ExperimentConfig("ks6", ("mse", "spo+"), (0, 1, 2, 3, 4))]


def test_desk_runs_each_desk_grid_into_its_own_directory(tmp_path, monkeypatch, capsys):
    # mse+c's mean regret is 3, the best sweep member's (lawless:0.4) is 2
    regrets = {"mse+c": (2.0, 4.0), "lawless:0.4": (1.0, 3.0)}

    def fake_run_experiment(config):
        configs.append(config)
        return [harness.RunReport(problem=config.problem, loss=loss, seed=seed,
                                  regret_abs=regrets.get(loss, (9.0, 9.0))[i],
                                  regret_norm=None, time_s=0.0,
                                  counts=harness.SolveCounts(), exact=True)
                for loss in config.losses for i, seed in enumerate(config.seeds)]

    configs = []
    monkeypatch.setattr(cli, "run_experiment", fake_run_experiment)
    assert main(["desk", "--seeds", "3,5", "--out-dir", str(tmp_path)]) == 0
    assert configs == [harness.ExperimentConfig(problem, losses, (3, 5))
                       for problem, losses in harness.DESK_LOSSES.items()]
    for problem, losses in harness.DESK_LOSSES.items():
        with open(tmp_path / problem / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["problem"], row["loss"]) for row in rows[::2]] == [
            (problem, loss) for loss in losses]
    out = capsys.readouterr().out
    assert out.count("mse+c / best") == 1
    assert "\nmse+c / best = 1.5000 (best sweep member: lawless:0.4)\n" in out


def test_readme_commands_parse():
    # every cosdfl command in README's fenced blocks, continued lines joined
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert [line for line in text.splitlines() if "scripts/" in line] == []
    commands = []
    for block in re.findall(r"^```.*?\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("cosdfl "):
                words = shlex.split(line, comments=True)
                commands.append(cli.build_parser().parse_args(words[1:]).command)
    assert sorted(set(commands)) == ["desk", "eval", "experiment", "generate",
                                     "monotonicity", "train"]


def test_train_eval_roundtrip(tmp_path):
    data = tmp_path / "data.json"
    model = tmp_path / "model.bin"
    assert main(["generate", "--problem", "ks6", "--seed", "0",
                 "--out", str(data), *GEN_ARGS]) == 0
    assert main(["train", "--problem", "ks6", "--loss", "mse+c",
                 "--dataset", str(data), "--out", str(model),
                 "--emit-costs", str(tmp_path / "costs.json"),
                 *TRAIN_ARGS]) == 0
    assert load_model(model).weights.shape == (6, 4)
    costs = json.loads((tmp_path / "costs.json").read_text())
    assert len(costs["costs"]) == 10
    assert main(["eval", "--problem", "ks6", "--dataset", str(data),
                 "--model", str(model)]) == 0


def test_eval_solves_each_instance_once_per_decision(tmp_path, monkeypatch, capsys):
    # X* and the predicted decision of each test instance: two solves each
    data, model = tmp_path / "data.json", tmp_path / "model.bin"
    assert main(["generate", "--problem", "ks8", "--seed", "0", "--out", str(data),
                 *GEN_ARGS]) == 0
    save_model(init_model(4, 8, seed=0), model)
    problems = []

    def build(name, seed):
        problems.append(problem_from_name(name, seed))
        return problems[-1]

    monkeypatch.setattr(cli, "problem_from_name", build)
    capsys.readouterr()
    assert main(["eval", "--problem", "ks8", "--dataset", str(data),
                 "--model", str(model)]) == 0
    assert problems[0].solves == 2 * 6
    fields = dict(part.split("=") for part in capsys.readouterr().out.split())
    assert float(fields["regret_mean"]) == float(fields["regret_total"]) / 6


def test_train_and_eval_build_the_problem_from_the_dataset_seed(tmp_path, monkeypatch,
                                                                capsys):
    # eval used to score a seed-3 knapsack dataset against seed 0's weights
    data, model = tmp_path / "data.json", tmp_path / "model.bin"
    assert main(["generate", "--problem", "ks8", "--seed", "3", "--out", str(data),
                 *GEN_ARGS]) == 0
    seeds = []

    def build(name, seed):
        seeds.append(seed)
        return problem_from_name(name, seed)

    monkeypatch.setattr(cli, "problem_from_name", build)
    assert main(["train", "--problem", "ks8", "--loss", "mse", "--seed", "1",
                 "--dataset", str(data), "--out", str(model), *TRAIN_ARGS]) == 0
    capsys.readouterr()
    assert main(["eval", "--problem", "ks8", "--dataset", str(data),
                 "--model", str(model)]) == 0
    assert seeds == [3, 3]
    expected = total_regret(problem_from_name("ks8", seed=3), load_model(model),
                            load_dataset(data), split="test")
    assert f"regret_total={expected!r} " in capsys.readouterr().out


def test_dimension_mismatches_name_both_sides(tmp_path, monkeypatch, capsys):
    data, model = tmp_path / "data.json", tmp_path / "model.bin"
    assert main(["generate", "--problem", "ks8", "--out", str(data), *GEN_ARGS]) == 0
    save_model(init_model(4, 8), model)
    # rejected before any solve: train used to end in a traceback from the
    # loss, and eval in a reshape error
    monkeypatch.setattr(cli, "fit", lambda *args: pytest.fail("fit was called"))
    monkeypatch.setattr(cli, "total_regret", lambda *args, **kw: pytest.fail("scored"))
    capsys.readouterr()
    assert main(["train", "--problem", "ks16", "--loss", "mse", "--dataset", str(data),
                 "--out", str(tmp_path / "m.bin"), *TRAIN_ARGS]) == 2
    assert main(["eval", "--problem", "ks16", "--dataset", str(data),
                 "--model", str(model)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: dataset {data} has d=8, problem ks16 has d=16"] * 2
    for k, d in ((4, 6), (3, 8)):
        save_model(init_model(k, d), model)
        assert main(["eval", "--problem", "ks8", "--dataset", str(data),
                     "--model", str(model)]) == 2
        assert capsys.readouterr().err == (f"error: model {model} has d={d}, k={k}; "
                                           f"dataset {data} has d=8, k=4\n")


def test_train_rejects_generation_flags_next_to_dataset(tmp_path, monkeypatch, capsys):
    # they used to be ignored: train read the 20-instance k=4 file and exited 0
    data = tmp_path / "data.json"
    assert main(["generate", "--problem", "ks8", "--out", str(data), *GEN_ARGS]) == 0
    monkeypatch.setattr(cli, "fit", lambda *args: pytest.fail("fit was called"))
    capsys.readouterr()
    assert main(["train", "--problem", "ks8", "--loss", "mse", "--dataset", str(data),
                 "--n-train", "500", "--k", "9", "--deg", "3",
                 "--out", str(tmp_path / "m.bin")]) == 2
    assert capsys.readouterr().err == ("error: --n-train, --k, --deg set how data is "
                                       "generated and cannot be combined with "
                                       f"--dataset {data}\n")
    assert not (tmp_path / "m.bin").exists()


def test_emit_costs_requires_cost_weighting(tmp_path, monkeypatch, capsys):
    data = tmp_path / "data.json"
    main(["generate", "--problem", "ks6", "--seed", "0", "--out", str(data),
          *GEN_ARGS])
    # rejected before any cache is attached or any solve is spent
    monkeypatch.setattr(cli, "fit", lambda *args: pytest.fail("fit was called"))
    code = main(["train", "--problem", "ks6", "--loss", "mse",
                 "--dataset", str(data), "--out", str(tmp_path / "m.bin"),
                 "--emit-costs", str(tmp_path / "c.json"), *TRAIN_ARGS])
    # a usage error: exit 2 and one error line, as for every other one
    assert code == 2
    assert capsys.readouterr().err == ("error: --emit-costs requires a loss with "
                                       "instance weighting (+c)\n")


@pytest.mark.parametrize("loss", ["mse+c+o+s", "spo+"])
def test_train_counts_solves_like_run_single(tmp_path, capsys, loss):
    assert main(["train", "--problem", "ks6", "--loss", loss, "--seed", "0",
                 "--out", str(tmp_path / "m.bin"), *GEN_ARGS, *TRAIN_ARGS]) == 0
    config = harness.ExperimentConfig(problem="ks6", losses=(loss,), seeds=(0,),
                                      n_train=10, n_val=4, n_test=6, k=4,
                                      epochs=2, batch_size=4)
    counts = harness.run_single(config, loss, 0).counts
    assert counts.pre_total > 0
    assert (f"solves: pre={counts.pre_total} train={counts.training_solves}\n"
            in capsys.readouterr().out)


def test_experiment_outputs(tmp_path):
    out = tmp_path / "exp"
    assert main(["experiment", "--problem", "ks6", "--losses", "mse,mse+c",
                 "--seeds", "0,1", "--out-dir", str(out), *GEN_ARGS,
                 *TRAIN_ARGS]) == 0
    with open(out / "results.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 5  # header + 2 losses x 2 seeds
    config = json.loads((out / "config.json").read_text())
    assert config["losses"] == ["mse", "mse+c"]
    assert (out / "pareto.csv").exists()
    assert (out / "runs.json").exists()


def test_experiment_outputs_byte_identical_apart_from_times(tmp_path):
    # two seeds, so the second run trains anew: the run memo holds one dataset
    args = ["experiment", "--problem", "ks6", "--losses", "mse,mse+c", "--seeds",
            "0,1", *GEN_ARGS, *TRAIN_ARGS]
    written = []
    for name in ("a", "b"):
        assert main([*args, "--out-dir", str(tmp_path / name)]) == 0
        written.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    first, second = written
    assert sorted(first) == ["config.json", "pareto.csv", "results.csv", "runs.json",
                             "times.json"]
    times = [json.loads(files.pop("times.json")) for files in written]
    assert first == second
    assert [(t["loss"], t["seed"]) for t in times[0]] == [
        ("mse", 0), ("mse", 1), ("mse+c", 0), ("mse+c", 1)]
    assert all(t["time_s"] > 0.0 for t in times[0] + times[1])


@pytest.mark.parametrize("argv", [
    ["experiment", "--problem", "ks6", "--losses", "mse", "--deterministic-output",
     "--out-dir", "x"],
    ["desk", "--deterministic-output", "--out-dir", "x"],
    ["monotonicity", "--problem", "ks6", "--deterministic-output", "--out-dir", "x"],
    ["sensitivity-check"]], ids=["experiment", "desk", "monotonicity", "sensitivity-check"])
def test_removed_flag_and_subcommand_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "usage: cosdfl" in capsys.readouterr().err


def test_monotonicity_writes_report(tmp_path):
    out = tmp_path / "mono"
    code = main(["monotonicity", "--problem", "ks6", "--seeds", "0",
                 "--out-dir", str(out), *GEN_ARGS, *TRAIN_ARGS])
    assert code in (0, 1)  # tiny runs may legitimately flag regressions
    with open(out / "monotonicity.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 19  # header + 6 orders x 3 steps


def test_monotonicity_is_the_experiment_grid(tmp_path):
    common = ["--problem", "ks6", "--seeds", "0,1", *GEN_ARGS, *TRAIN_ARGS]
    assert main(["monotonicity", "--base", "mse", *common,
                 "--out-dir", str(tmp_path / "mono")]) in (0, 1)
    assert main(["experiment", "--losses", ",".join(harness.component_subset_losses("mse")),
                 "--normalize-against", "mse", *common,
                 "--out-dir", str(tmp_path / "exp")]) == 0
    for name in ("results.csv", "runs.json", "config.json", "pareto.csv"):
        mono = (tmp_path / "mono" / name).read_bytes()
        assert mono == (tmp_path / "exp" / name).read_bytes(), name


def test_monotonicity_report_structure(tmp_path, monkeypatch):
    real_run, real_build = cli.run_experiment, cli.build_monotonicity
    reports, built = [], []

    def run(config):
        reports.extend(real_run(config))
        return reports

    def build(means, **kwargs):
        built.append((means, real_build(means, **kwargs)))
        return built[-1][1]

    monkeypatch.setattr(cli, "run_experiment", run)
    monkeypatch.setattr(cli, "build_monotonicity", build)
    main(["monotonicity", "--problem", "ks6", "--seeds", "0", "--tolerance", "0.05",
          "--out-dir", str(tmp_path), *GEN_ARGS, *TRAIN_ARGS])
    [(means, steps)] = built
    assert set(means) == {
        "mse", "mse+c", "mse+o", "mse+s", "mse+c+o", "mse+c+s", "mse+o+s",
        "mse+c+o+s"}
    assert len(steps) == 18  # 6 orders x 3 additions
    orders = {s.order for s in steps}
    assert len(orders) == 6
    # every order ends at the full composition with the same shared mean
    finals = {s.mean_norm for s in steps if s.loss == "mse+c+o+s"}
    assert len(finals) == 1
    for step in steps:
        assert step.regression == (step.mean_norm > step.previous_norm * 1.05)
    assert len(reports) == 8


def test_monotonicity_fails_on_a_failed_cell(tmp_path, monkeypatch, capsys):
    # every other cell has the same regret, so only the failure can fail the run
    def fake_run_single(config, loss, seed):
        if loss == "mse+c+o":
            raise SolveFailure("oracle broke")
        return harness.RunReport(problem=config.problem, loss=loss, seed=seed,
                                 regret_abs=1.0, regret_norm=None, time_s=0.0,
                                 counts=harness.SolveCounts(), exact=True)

    monkeypatch.setattr(harness, "run_single", fake_run_single)
    code = main(["monotonicity", "--problem", "ks6", "--seeds", "0,1",
                 "--out-dir", str(tmp_path / "mono"), *GEN_ARGS, *TRAIN_ARGS])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAILED mse+c+o seed=0: SolveFailure: oracle broke" in captured.err
    assert "FAILED mse+c+o seed=1" in captured.err
    assert "no component made regret worse" not in captured.out


def test_unknown_loss_is_an_error(tmp_path):
    code = main(["experiment", "--problem", "ks6", "--losses", "nope",
                 "--seeds", "0", "--out-dir", str(tmp_path / "x"), *GEN_ARGS])
    assert code != 0


def test_unknown_problem_is_an_error_before_any_cell(tmp_path, capsys):
    # it used to write four files of failed cells and exit 1
    code = main(["experiment", "--problem", "bogus", "--losses", "mse",
                 "--seeds", "0", "--out-dir", str(tmp_path / "x"), *GEN_ARGS])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: unknown problem name 'bogus'")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("seeds, message", [
    ("0,0", "error: seed 0 is repeated in seeds [0, 0]"),
    ("", "error: seeds is empty: a grid needs at least one seed")], ids=["repeated", "empty"])
def test_experiment_rejects_a_repeated_or_empty_seed_list(tmp_path, capsys, seeds, message):
    # a repeated seed used to run twice and count as n = 2, and an empty
    # list wrote four empty files and exited 0
    code = main(["experiment", "--problem", "sp3x3", "--losses", "mse",
                 "--seeds", seeds, "--out-dir", str(tmp_path / "x"), *GEN_ARGS])
    assert code == 2
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flags, message", [
    (["--lr", "-1"], "learning_rate must be finite and above 0, got -1.0"),
    (["--n-train", "0"], "need a non-empty training split and non-negative sizes")],
    ids=["negative-lr", "no-training-rows"])
def test_experiment_rejects_bad_settings_before_any_cell(tmp_path, capsys, flags, message):
    # --lr -1 used to train by gradient ascent and exit 0, and --n-train 0
    # used to fail every cell, exit 1 and still write the result files
    code = main(["experiment", "--problem", "ks6", "--losses", "mse", "--seeds", "0",
                 "--out-dir", str(tmp_path / "x"), *GEN_ARGS, *flags])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("losses", ["", " , "], ids=["empty", "blank"])
def test_experiment_rejects_an_empty_loss_list(tmp_path, capsys, losses):
    # a loss list that parses to nothing used to write four files with no
    # runs and exit 0; generate's config, which has no losses, stays valid
    code = main(["experiment", "--problem", "sp3x3", "--losses", losses,
                 "--seeds", "0", "--out-dir", str(tmp_path / "x"), *GEN_ARGS])
    assert code == 2
    assert capsys.readouterr().err == "error: losses is empty: a grid needs at least one loss\n"
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["experiment", "monotonicity"])
def test_grid_commands_reject_an_empty_test_split(tmp_path, capsys, command):
    # --n-test 0 used to exit 0 with regret_abs 0.0 and regret_norm 1.0 for
    # every loss, a grid that scored nothing; desk has no data flags and
    # runs its grids through the same check
    args = [command, "--problem", "ks6", "--seeds", "0", "--out-dir", str(tmp_path / "x"),
            *GEN_ARGS, "--n-test", "0"]
    code = main(args + (["--losses", "mse"] if command == "experiment" else []))
    assert code == 2
    assert capsys.readouterr().err == "error: n_test must be at least 1 in a grid, got 0\n"
    assert not (tmp_path / "x").exists()


def test_generate_and_train_accept_an_empty_test_split(tmp_path):
    data = tmp_path / "data.json"
    assert main(["generate", "--problem", "ks6", "--out", str(data), *GEN_ARGS,
                 "--n-test", "0"]) == 0
    assert main(["train", "--problem", "ks6", "--loss", "mse", "--dataset", str(data),
                 "--out", str(tmp_path / "model.json"), *TRAIN_ARGS]) == 0
    assert main(["train", "--problem", "ks6", "--loss", "mse", "--out",
                 str(tmp_path / "model2.json"), *GEN_ARGS, "--n-test", "0", *TRAIN_ARGS]) == 0
