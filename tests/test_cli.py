import csv
import json

from cosdfl import harness
from cosdfl.cli import main
from cosdfl.core import load_dataset
from cosdfl.errors import SolveFailure
from cosdfl.model import load_model

GEN_ARGS = ["--n-train", "10", "--n-val", "4", "--n-test", "6", "--k", "4"]
TRAIN_ARGS = ["--epochs", "2", "--batch-size", "4"]


def test_generate_roundtrip(tmp_path):
    out = tmp_path / "data.json"
    assert main(["generate", "--problem", "ks6", "--seed", "3",
                 "--out", str(out), *GEN_ARGS]) == 0
    ds = load_dataset(out)
    assert len(ds.instances) == 20
    assert ds.instances[0].true_costs.shape == (6,)


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


def test_emit_costs_requires_cost_weighting(tmp_path):
    data = tmp_path / "data.json"
    main(["generate", "--problem", "ks6", "--seed", "0", "--out", str(data),
          *GEN_ARGS])
    code = main(["train", "--problem", "ks6", "--loss", "mse",
                 "--dataset", str(data), "--out", str(tmp_path / "m.bin"),
                 "--emit-costs", str(tmp_path / "c.json"), *TRAIN_ARGS])
    assert code != 0


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


def test_experiment_deterministic_flag_byte_identical(tmp_path):
    args = ["experiment", "--problem", "ks6", "--losses", "mse", "--seeds",
            "0", *GEN_ARGS, *TRAIN_ARGS, "--deterministic-output"]
    assert main([*args, "--out-dir", str(tmp_path / "a")]) == 0
    assert main([*args, "--out-dir", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "results.csv").read_bytes()
    second = (tmp_path / "b" / "results.csv").read_bytes()
    assert first == second


def test_monotonicity_writes_report(tmp_path):
    out = tmp_path / "mono"
    code = main(["monotonicity", "--problem", "ks6", "--seeds", "0",
                 "--out-dir", str(out), *GEN_ARGS, *TRAIN_ARGS])
    assert code in (0, 1)  # tiny runs may legitimately flag regressions
    with open(out / "monotonicity.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 19  # header + 6 orders x 3 steps


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


def test_sensitivity_check_exit_code():
    assert main(["sensitivity-check", "--n-lps", "20", "--max-size", "5",
                 "--seed", "2"]) == 0


def test_unknown_loss_is_an_error(tmp_path):
    code = main(["experiment", "--problem", "ks6", "--losses", "nope",
                 "--seeds", "0", "--out-dir", str(tmp_path / "x"), *GEN_ARGS])
    assert code != 0
