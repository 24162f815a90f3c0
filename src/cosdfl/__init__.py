"""Cost-sensitive regression losses for predict-then-optimize pipelines.

Predicted cost vectors feed a downstream combinatorial solver, so prediction
error only matters where it changes the chosen decision. This package
provides the decision-aware loss components (instance weighting, one-sided
masking, scale invariance), exact oracles for knapsack / shortest-path / TSP
benchmarks, an LP solver with objective-coefficient ranging, baselines, and
an experiment harness with per-phase solver-call accounting.
"""
from .core import (REGRET_TOL, DataInstance, Dataset, Decision, DecisionKind,
                   CostRangeVector, Sense, Split, decision_value,
                   export_instances_csv, instance_regret, load_dataset,
                   normalized_regret, regret, regret_from_decisions,
                   save_dataset, total_regret)
from .datagen import GenSpec, generate, latent_costs
from .errors import (CosdflError, DimensionMismatch, MissingBaselineRegret,
                     MissingInstanceCost, MissingOptimalDecision,
                     MissingRanges, ModeMismatch, NonFiniteGradient,
                     NonFiniteLoss, NoRelaxationAvailable, NotOptimal,
                     NumericalBreakdown, SolveFailure, ZeroVector)
from .harness import (ExperimentConfig, MonotonicityReport, RunReport,
                      SolveCounts, attach_decisions, attach_ranges,
                      build_monotonicity, component_subset_losses, emit_pareto,
                      mean_normalized_regret, monotonicity_report,
                      pareto_flags, prepare_dataset, run_experiment,
                      run_single, sensitivity_soundness_check, write_results)
from .instance_costs import (BaselineReport, EnsembleModel, apply_instance_costs,
                             baseline_regrets, compute_instance_costs,
                             costs_from_predictions, ensemble_costs,
                             iterative_costs)
from .losses import (BaseError, LossData, LossSpec, LossValueGrad, OneSidedMode,
                     base_error, evaluate_loss, evaluate_loss_batch,
                     lawless_loss, normalize, one_sided_mask,
                     one_sided_weights, parse_loss, pinball_loss,
                     spo_plus_loss, stack_loss_data)
from .model import (LinearModel, Optimizer, TrainConfig, TrainTrace,
                    init_model, load_model, model_from_json, model_to_json,
                    save_model, train)
from .problems import (CallCounter, GridSpec, KnapsackOracle, KnapsackSpec,
                       ShortestPathOracle, TspMode, TspOracle, TspSpec,
                       load_problem, make_grid, make_knapsack, make_tsp,
                       problem_from_name, save_problem, solve_knapsack,
                       solve_shortest_path, solve_tsp)
from .simplex import (LinearProgram, SimplexSolution, SolveStatus,
                      cost_ranging, lp_from_text, lp_to_text, relax, solve_lp)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
