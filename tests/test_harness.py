import csv
import json
import os
import re
from dataclasses import astuple, replace

import numpy as np
import pytest

from cosdfl.datagen import GenSpec, generate
from cosdfl.errors import NumericalBreakdown, SolveFailure, ZeroVector
from cosdfl.harness import (RESULTS_COLUMNS, ExperimentConfig, RunReport,
                            SolveCounts, aggregate_rows, attach_decisions,
                            attach_ranges, fit, pareto_flags, run_experiment,
                            run_single, write_results)
from cosdfl.losses import normalize, parse_loss
from cosdfl.problems import ShortestPathOracle, make_knapsack
from cosdfl.simplex import SimplexSolution, SolveStatus

import cosdfl.harness as harness_mod
import cosdfl.simplex as simplex_mod

from lp_check import sensitivity_soundness_check


TINY = dict(n_train=10, n_val=4, n_test=6, k=4, epochs=2, batch_size=4)


def tiny_config(problem="ks6", losses=("mse",), seeds=(0,), **overrides):
    return ExperimentConfig(problem=problem, losses=losses, seeds=seeds,
                            **{**TINY, **overrides})


def test_experiment_config_validates_losses_eagerly():
    with pytest.raises(ValueError):
        tiny_config(losses=("mse", "bogus"))
    # a bad problem name used to fail every cell of the grid instead
    for problem in ("bogus", "ks0"):
        with pytest.raises(ValueError):
            tiny_config(problem=problem)


@pytest.mark.parametrize("field", ["epochs", "batch_size"])
def test_experiment_config_names_a_count_below_one(field):
    # zero epochs used to fail every cell with an IndexError from
    # best_val_loss, and a zero batch size with a bare range() error
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got {bad}$"):
            tiny_config(**{field: bad})
    tiny_config(**{field: 1})


def test_experiment_config_rejects_a_learning_rate_not_above_zero():
    # a negative rate used to train by gradient ascent, and zero not at all
    for bad in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=(r"^learning_rate must be finite and "
                                              rf"above 0, got {bad}$")):
            tiny_config(learning_rate=bad)
    tiny_config(learning_rate=1e-9)


def test_experiment_config_checks_the_data_settings(monkeypatch):
    # each used to fail every cell of the grid; GenSpec is built once up front
    for field, bad in (("k", 0), ("deg", 0), ("n_train", 0), ("n_test", -1),
                       ("noise_width", -1.0), ("noise_width", 1.0)):
        with pytest.raises(ValueError):
            tiny_config(**{field: bad})
    built = []
    monkeypatch.setattr(harness_mod, "GenSpec",
                        lambda **fields: built.append(fields) or GenSpec(**fields))
    tiny_config(seeds=(3, 1, 2))
    assert [fields["seed"] for fields in built] == [3]


def test_experiment_config_rejects_repeated_and_empty_grids():
    with pytest.raises(ValueError, match=r"^seed 1 is repeated in seeds \[0, 1, 2, 1\]$"):
        tiny_config(seeds=(0, 1, 2, 1))
    with pytest.raises(ValueError, match="^seeds is empty"):
        tiny_config(seeds=())
    for losses, first, second in ((("mse", "mse"), "mse", "mse"),
                                  (("mse+o+s", "mae", "MSE+s+o"), "mse+o+s", "MSE+s+o")):
        with pytest.raises(ValueError, match=(f"^losses '{re.escape(first)}' and "
                                              f"'{re.escape(second)}' are the same loss$")):
            tiny_config(losses=losses)
    tiny_config(losses=(), seeds=(0,))  # generate's config: no losses, one seed
    tiny_config(losses=("mse", "lawless:0"))  # equal training, distinct losses


def test_experiment_config_rejects_an_unknown_optimizer():
    # it used to construct, and then every cell of the grid failed
    with pytest.raises(ValueError, match="^'foo' is not a valid Optimizer$"):
        tiny_config(optimizer="foo")
    tiny_config(optimizer="sgd")


def test_attach_decisions_fills_only_missing():
    problem = make_knapsack(d=6, seed=0)
    ds = generate(GenSpec(n_train=4, n_val=2, n_test=2, k=3, seed=0), problem)
    ds = attach_decisions(ds, problem, ("train",))
    assert problem.solves == 4
    ds = attach_decisions(ds, problem, ("train", "val"))
    assert problem.solves == 6  # train entries were already cached
    assert ds.uncached("x_star", range(ds.n)) == list(ds.split.test)


def log_calls(monkeypatch, owner, name, path, line):
    """Patch ``owner.name`` to append ``line(*args)`` and the pid to ``path``
    on each call; a worker forked after the patch writes there too."""
    real = getattr(owner, name)

    def logging(*args):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {line(*args)}\n")
        return real(*args)

    monkeypatch.setattr(owner, name, logging)
    return lambda: [text.split(" ", 1) for text in path.read_text().splitlines()]


def test_attach_ranges_normalized_scales_like_objective(monkeypatch, fresh_pool, tmp_path):
    problem = make_knapsack(d=6, seed=0)
    ds = generate(GenSpec(n_train=6, n_val=1, n_test=1, k=3, seed=0), problem)
    relaxation = problem.relaxation

    def which(lp, objective, sense):
        # the parent solves on the relaxation itself, a worker on its copy,
        # which carries the parent's phase-1 start
        same = lp is relaxation or ("_start" in vars(lp) and np.array_equal(
            lp.constraint_matrix, relaxation.constraint_matrix))
        return f"{same} {objective.tobytes().hex()}"

    calls = log_calls(monkeypatch, harness_mod, "solve_lp", tmp_path / "calls", which)
    fresh_pool(1)
    raw = attach_ranges(ds, problem, ("train",), normalized=False)
    assert problem.solves == 6  # one LP solve per instance
    norm = attach_ranges(ds, problem, ("train",), normalized=True)
    assert problem.solves == 12
    # one solve_lp call per solve, all on the one cached relaxation, shared
    # between the parent and the worker
    logged = calls()
    assert len(logged) == 12 and all(text.startswith("True ") for _, text in logged)
    train = list(ds.split.train)
    objectives = [*ds.costs[train], *normalize(ds.costs[train], train)]
    assert sorted(text.split()[1] for _, text in logged) == sorted(
        row.tobytes().hex() for row in objectives)
    assert {pid for pid, _ in logged} == {str(os.getpid()),
                                          str(harness_mod._POOL.workers[0][1].pid)}
    assert raw.uncached("lower", range(ds.n)) == list(ds.split.val + ds.split.test)
    for i in ds.split.train:
        c = ds.costs[i]
        scale = 1.0 / float(np.linalg.norm(c))
        # ranging is positively homogeneous in the objective
        np.testing.assert_allclose(norm.lower[i], raw.lower[i] * scale, atol=1e-9)
        np.testing.assert_allclose(norm.upper[i], raw.upper[i] * scale, atol=1e-9)
        assert np.all(norm.lower[i] <= normalize(c[None], [i])[0] + 1e-12)
        assert np.all(norm.upper[i] >= normalize(c[None], [i])[0] - 1e-12)


def test_attach_ranges_runs_phase_one_once(monkeypatch, fresh_store, fresh_pool, tmp_path):
    # phase 1 reads only the constraint set: one run per relaxation, in the
    # parent, then one phase 2 per instance in whichever process solves it;
    # a fresh store, since an earlier test may have run sp3x3's phase 1
    # already on the relaxation that every sp3x3 oracle shares
    problem = ShortestPathOracle(3, 3)
    ds = generate(GenSpec(n_train=20, n_val=0, n_test=2, k=3, seed=0), problem)
    # phase 1 prices the artificial columns, which come last, at 1;
    # phase 2 prices the slack columns, which come last, at 0
    phases = log_calls(monkeypatch, simplex_mod, "_run_simplex", tmp_path / "phases",
                       lambda tableau, basis, cost, budget: 1 if cost[-1] == 1.0 else 2)
    fresh_pool(1)
    before = problem.solves
    attach_ranges(ds, problem, ("train",))
    logged = phases()
    assert [pid for pid, phase in logged if phase == "1"] == [str(os.getpid())]
    assert sum(phase == "2" for _, phase in logged) == 20
    assert str(harness_mod._POOL.workers[0][1].pid) in {pid for pid, _ in logged}
    assert problem.solves - before == 20


@pytest.mark.parametrize("failure", ["breakdown", "infeasible"])
def test_attach_ranges_error_names_instance_and_phase(monkeypatch, fresh_pool, failure):
    # with a worker, instance 3 falls in its slice (instances 3 and 4), and
    # instance 5 is the first that the parent solves: the error names the
    # first failing instance in index order, whichever process solved it
    problem = ShortestPathOracle(3, 3)
    ds = generate(GenSpec(n_train=4, n_val=2, n_test=2, k=3, seed=0), problem)
    real, bad = harness_mod.solve_lp, []

    def failing_on_some(lp, objective, sense):
        if not any(np.array_equal(objective, cost) for cost in bad):
            return real(lp, objective, sense)
        if failure == "breakdown":
            raise NumericalBreakdown("no pivot above 1e-10")
        return SimplexSolution(SolveStatus.INFEASIBLE, None, float("nan"))

    monkeypatch.setattr(harness_mod, "solve_lp", failing_on_some)
    message = {"breakdown": ": no pivot above 1e-10", "infeasible": " is infeasible"}[failure]
    for workers in (0, 1):
        for failing in ((3,), (3, 5)):
            bad[:] = [ds.costs[i] for i in failing]  # before the workers fork
            pool = fresh_pool(workers)
            with pytest.raises(SolveFailure, match=(r"^precompute_ranges: LP relaxation of "
                                                    rf"instance 3{message}$")):
                attach_ranges(ds, problem)
            assert problem.solves == 0 and len(pool.workers) == workers
            pool.close()


def test_attach_ranges_names_the_first_instance_when_phase_one_breaks_down(
        monkeypatch, fresh_store, fresh_pool):
    # phase 1 runs on the first LP solved, which with workers is the last
    # instance's, in the parent; every solve meets the breakdown, and the
    # error names the first instance, as one process solving in index order
    # does; a fresh store, so that sp3x3's relaxation has not run phase 1
    problem = ShortestPathOracle(3, 3)
    ds = generate(GenSpec(n_train=4, n_val=2, n_test=2, k=3, seed=0), problem)

    def broken(lp):
        raise NumericalBreakdown("phase 1: no pivot above 1e-10 releases row 0")

    monkeypatch.setattr(simplex_mod, "_phase_one", broken)
    for workers in (0, 1):
        pool = fresh_pool(workers)
        with pytest.raises(SolveFailure, match=(r"^precompute_ranges: LP relaxation of "
                                                r"instance 0: phase 1: no pivot")):
            attach_ranges(ds, problem)
        assert problem.solves == 0
        pool.close()


def test_attach_ranges_names_a_zero_cost_vector_before_any_solve(monkeypatch, fresh_pool):
    problem = ShortestPathOracle(3, 3)
    ds = generate(GenSpec(n_train=4, n_val=2, n_test=2, k=3, seed=0), problem)
    costs = ds.costs.copy()
    costs[3] = 0.0
    monkeypatch.setattr(harness_mod, "solve_lp",
                        lambda *args: pytest.fail("an LP was solved"))
    pool = fresh_pool(1)
    with pytest.raises(ZeroVector, match=r"^precompute_ranges: .*instance 3\b"):
        attach_ranges(replace(ds, costs=costs), problem, normalized=True)
    assert problem.solves == 0
    assert pool.workers is None  # nothing was handed to a worker, or forked


@pytest.mark.parametrize("loss,expected", [
    ("mse", (0, 0, 0, 0)),
    ("mae", (0, 0, 0, 0)),
    ("mse+s", (0, 0, 0, 0)),
    ("mse+c", (10, 0, 10, 0)),
    ("lawless:0.4", (10, 0, 10, 0)),
    ("mse+o", (14, 0, 0, 0)),
    ("mse+o+s", (14, 0, 0, 0)),
    ("mse+o_s", (14, 14, 0, 0)),
    ("mse+c+o+s", (14, 0, 10, 0)),
    ("spo+", (14, 0, 0, 2 * 14)),
])
def test_solver_call_attribution(loss, expected):
    report = run_single(tiny_config(), loss, 0)
    counts = report.counts
    assert (counts.precompute_n_star, counts.precompute_ranges,
            counts.instance_cost_solves, counts.training_solves) == expected
    assert report.error is None


@pytest.mark.parametrize("loss", ["mse", "mae", "mse+c", "mse+o", "mse+o_s", "spo+",
                                  "lawless:0.4"])
def test_every_solve_of_fit_lands_in_one_phase(loss):
    config = tiny_config()
    problem = make_knapsack(d=6, seed=0)
    dataset = generate(config.gen_spec(0), problem)
    before = problem.solves
    _, counts, _, _ = fit(problem, dataset, parse_loss(loss), config.train_config(0))
    assert problem.solves - before == sum(astuple(counts))


def test_lawless_zero_trains_identically_to_mse():
    a = run_single(tiny_config(), "mse", 0)
    b = run_single(tiny_config(), "lawless:0", 0)
    assert a.regret_abs == b.regret_abs


def test_run_experiment_sorts_and_normalizes():
    config = tiny_config(losses=("mse+o", "mse"), seeds=(1, 0))
    reports = run_experiment(config)
    assert [(r.loss, r.seed) for r in reports] == [
        ("mse", 0), ("mse", 1), ("mse+o", 0), ("mse+o", 1)]
    for r in reports:
        if r.loss == "mse":
            assert r.regret_norm == 1.0
        else:
            base = next(b for b in reports if b.loss == "mse" and b.seed == r.seed)
            if base.regret_abs > 0:
                assert r.regret_norm == pytest.approx(r.regret_abs / base.regret_abs)
    mse_row = aggregate_rows(reports)[0]
    assert mse_row["loss"] == "mse"
    assert mse_row["regret_norm_mean"] == pytest.approx(1.0)


@pytest.mark.parametrize("losses, n_test, message", [
    ((), 6, "losses is empty: a grid needs at least one loss"),
    (("mse", "mse+o"), 0, "n_test must be at least 1 in a grid, got 0")],
    ids=["no-loss", "no-test-split"])
def test_run_experiment_rejects_a_grid_that_scores_nothing(monkeypatch, losses, n_test,
                                                            message):
    # no loss used to return [], and no test instance regret_abs 0.0 and
    # regret_norm 1.0 for every cell
    monkeypatch.setattr(harness_mod, "run_single", None)  # no cell may run
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_experiment(tiny_config(losses=losses, n_test=n_test))


def test_regret_norm_against_a_normalizer_of_zero_regret(monkeypatch):
    regrets = {"mse": 0.0, "mse+o": 0.0, "mse+c": 2.0}
    monkeypatch.setattr(harness_mod, "run_single", lambda config, loss, seed: RunReport(
        problem=config.problem, loss=loss, seed=seed, regret_abs=regrets[loss],
        regret_norm=None, time_s=0.0, counts=SolveCounts(), exact=True))
    reports = run_experiment(tiny_config(losses=tuple(regrets)))
    assert {r.loss: r.regret_norm for r in reports} == {
        "mse": 1.0, "mse+o": 1.0, "mse+c": float("inf")}


def test_run_experiment_captures_cell_failures(monkeypatch):
    real = harness_mod.run_single

    def flaky(config, loss, seed):
        if loss == "mse+o":
            raise RuntimeError("boom")
        return real(config, loss, seed)

    monkeypatch.setattr(harness_mod, "run_single", flaky)
    reports = run_experiment(tiny_config(losses=("mse", "mse+o")))
    errors = {r.loss: r.error for r in reports}
    assert errors["mse"] is None
    assert "boom" in errors["mse+o"]
    assert np.isnan(next(r for r in reports if r.loss == "mse+o").regret_abs)




def test_write_results_schema_and_times_file(tmp_path):
    config = tiny_config(losses=("mse",), seeds=(0, 1))
    reports = run_experiment(config)
    write_results(reports, tmp_path, config)
    with open(tmp_path / "results.csv") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == RESULTS_COLUMNS == (
        "problem", "loss", "seed", "regret_abs", "regret_norm", "solves_pre",
        "solves_train", "exact")
    assert len(rows) == 3
    for row in rows[1:]:
        assert row[0] == "ks6"
        assert row[7] == "true"
        float(row[3])  # regret parses
    runs = json.loads((tmp_path / "runs.json").read_text())
    assert [r["seed"] for r in runs] == [0, 1]
    assert "time_s" not in runs[0]
    assert set(runs[0]["counts"]) == {"precompute_n_star", "precompute_ranges",
                                      "instance_cost_solves", "training_solves"}
    assert json.loads((tmp_path / "config.json").read_text())["seeds"] == [0, 1]
    # every wall-clock reading is in times.json, one entry per report, in order
    assert json.loads((tmp_path / "times.json").read_text()) == [
        {"loss": r.loss, "seed": r.seed, "time_s": r.time_s} for r in reports]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "config.json", "pareto.csv", "results.csv", "runs.json", "times.json"]


def test_pareto_flags_frozen():
    points = [(1.0, 100.0), (2.0, 50.0), (1.0, 140.0), (0.5, 500.0)]
    assert pareto_flags(points) == [True, True, False, True]
    # the second axis has no band: fewer solves at equal regret dominate
    assert pareto_flags([(1.0, 100.0), (1.0, 120.0)]) == [True, False]
    # equal points do not dominate each other
    assert pareto_flags([(1.0, 100.0), (1.0, 100.0)]) == [True, True]
    # ks16 desk grid, seeds 0-1 (mean regret, mean solves_pre + solves_train)
    # of mse, mse+c+o+s, mse+o_s+s and spo+: only spo+ is dominated
    ks16 = [(134260.39, 0.0), (129865.88, 450.0), (111764.67, 500.0),
            (113546.52, 12750.0)]
    assert pareto_flags(ks16) == [True, True, True, False]


def test_write_results_flags_pareto_on_solves_not_time(tmp_path):
    def report(loss, regret, pre, train, time_s):
        return RunReport(problem="ks6", loss=loss, seed=0, regret_abs=regret,
                         regret_norm=None, time_s=time_s, exact=True,
                         counts=SolveCounts(precompute_n_star=pre, training_solves=train))

    # the slow run with fewer solves is flagged; the fast one with more is not
    reports = [report("a", 1.0, 10, 0, 5.0), report("b", 1.0, 10, 5, 0.1)]
    config = tiny_config()
    rows = write_results(reports, tmp_path, config)
    assert [(r["loss"], r["solves_mean"], r["pareto_optimal"]) for r in rows] == [
        ("a", 10.0, True), ("b", 15.0, False)]
    assert (tmp_path / "pareto.csv").read_text().splitlines() == [
        "loss,regret_abs_mean,solves_mean,pareto_optimal",
        "a,1.0,10.0,true", "b,1.0,15.0,false"]
    # a loss whose every run failed is a row with n = 0 and no point
    failed = replace(reports[0], loss="c", error="boom")
    rows = write_results([*reports, failed], tmp_path / "failed", config)
    assert rows[-1] == {"loss": "c", "n": 0}
    assert ((tmp_path / "failed" / "pareto.csv").read_text()
            == (tmp_path / "pareto.csv").read_text())


def test_sensitivity_soundness_small_sample():
    checks, failures = sensitivity_soundness_check(n_lps=30, max_size=6, seed=11)
    assert checks > 0
    assert failures == []


def test_solve_counts_pre_total():
    counts = SolveCounts(precompute_n_star=3, precompute_ranges=2,
                         instance_cost_solves=4, training_solves=9)
    assert counts.pre_total == 9
    report = RunReport(problem="ks6", loss="mse", seed=0, regret_abs=0.0,
                       regret_norm=None, time_s=0.0, counts=counts, exact=True)
    assert report.error is None


def test_heuristic_tsp_cells_score_a_beaten_optimum_instead_of_failing():
    # tsp14 solves by the heuristic: on test instances 56 (seed 0) and 66
    # (seed 1) its tour at the mse+o+s predictions beats its tour at the true
    # costs, which used to fail both cells on negative regret
    config = ExperimentConfig(problem="tsp14", losses=("mse", "mse+o+s"), seeds=(0, 1),
                              n_train=40, n_val=10, n_test=40, epochs=5)
    reports = run_experiment(config)
    assert [(r.loss, r.seed, r.error) for r in reports] == [
        ("mse", 0, None), ("mse", 1, None), ("mse+o+s", 0, None), ("mse+o+s", 1, None)]
    assert all(not r.exact and r.regret_abs > 0.0 for r in reports)
