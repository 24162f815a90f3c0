"""Synthetic feature/cost generation for decision-focused benchmarks.

Costs follow the standard polynomial-lift convention: latent features
z ~ N(0, I_k), a fixed Bernoulli(1/2) mixing matrix B in {0,1}^{d x k}, and

    c_j = (((B z)_j / sqrt(k) + 3) ** deg + 1) * eps_j,

with multiplicative noise eps_j ~ U[1 - noise_width, 1 + noise_width]. With
an even degree the costs are strictly positive. The RNG draw order is fixed
(B, then all z, then all eps) so a seed pins the dataset bit-for-bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Dataset, Problem, Split

COST_SHIFT = 3.0
COST_OFFSET = 1.0
MIXING_P = 0.5  # Bernoulli parameter of the mixing matrix B


@dataclass(frozen=True)
class GenSpec:
    n_train: int
    n_val: int
    n_test: int
    k: int = 5
    deg: int = 6
    noise_width: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if min(self.n_train, self.n_val, self.n_test) < 0 or self.n_train == 0:
            raise ValueError("need a non-empty training split and non-negative sizes")
        if self.k < 1 or self.deg < 1:
            raise ValueError("k and deg must be at least 1")
        if not 0.0 <= self.noise_width < 1.0:
            raise ValueError("noise width must lie in [0, 1)")

    @property
    def n_total(self) -> int:
        return self.n_train + self.n_val + self.n_test


def latent_costs(features: np.ndarray, mixing: np.ndarray, deg: int,
                 noise: np.ndarray | None = None) -> np.ndarray:
    """The cost formula itself, exposed for direct testing.

    ``features`` is (n, k) or (k,); ``mixing`` is the (d, k) 0/1 matrix.
    """
    features = np.asarray(features, dtype=float)
    single = features.ndim == 1
    features = np.atleast_2d(features)
    k = features.shape[1]
    base = (features @ mixing.T / np.sqrt(k) + COST_SHIFT) ** deg + COST_OFFSET
    if noise is not None:
        base = base * noise
    return base[0] if single else base


def generate(spec: GenSpec, problem: Problem) -> Dataset:
    """Sample a dataset for ``problem`` with no cache attached; ``problem``
    gives only the dimension d, and nothing is solved."""
    d = problem.d
    rng = np.random.default_rng(spec.seed)
    mixing = rng.binomial(1, MIXING_P, size=(d, spec.k)).astype(float)
    n = spec.n_total
    features = rng.standard_normal((n, spec.k))
    noise = rng.uniform(1.0 - spec.noise_width, 1.0 + spec.noise_width, size=(n, d))
    costs = latent_costs(features, mixing, spec.deg, noise)

    split = Split(
        train=tuple(range(spec.n_train)),
        val=tuple(range(spec.n_train, spec.n_train + spec.n_val)),
        test=tuple(range(spec.n_train + spec.n_val, n)),
    )
    return Dataset(features=features, costs=costs, split=split, seed=spec.seed)
