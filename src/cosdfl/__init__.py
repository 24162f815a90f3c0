"""Cost-sensitive regression losses for predict-then-optimize pipelines.

Predicted cost vectors feed a downstream combinatorial solver, so prediction
error only matters where it changes the chosen decision. This package
provides the decision-aware loss components (instance weighting, one-sided
masking, scale invariance), exact oracles for knapsack / shortest-path / TSP
benchmarks, an LP solver with objective-coefficient ranging, baselines, and
an experiment harness with per-phase solver-call accounting.
"""
from .core import (REGRET_TOL, Dataset, Sense, Split, instance_regrets,
                   load_dataset, save_dataset, total_regret)
from .datagen import GenSpec, generate, latent_costs
from .errors import (CosdflError, DimensionMismatch, MissingBaselineRegret,
                     MissingInstanceCost, MissingOptimalDecision,
                     MissingRanges, NonFiniteGradient, NonFiniteLoss,
                     NumericalBreakdown, SolveFailure, ZeroVector)
from .harness import (ExperimentConfig, MonotonicityStep, RunReport,
                      SolveCounts, aggregate_rows, attach_decisions, attach_ranges,
                      build_monotonicity, component_subset_losses, fit,
                      pareto_flags, run_experiment, run_single,
                      sensitivity_soundness_check, write_results)
from .instance_costs import (BaselineReport, apply_instance_costs,
                             compute_instance_costs)
from .losses import (BaseError, LossData, LossSpec, OneSidedMode, base_error,
                     evaluate_loss_batch, normalize, parse_loss, spo_plus_batch,
                     stack_loss_data)
from .model import (LinearModel, Optimizer, TrainConfig, TrainTrace,
                    init_model, load_model, save_model, train)
from .problems import (KnapsackOracle, ShortestPathOracle, TspOracle,
                       load_problem, make_knapsack, problem_from_name)
from .simplex import LinearProgram, SimplexSolution, SolveStatus, solve_lp

__version__ = "0.1.0"
