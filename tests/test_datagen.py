import numpy as np
import pytest

from cosdfl.datagen import GenSpec, generate, latent_costs
from cosdfl.problems import ShortestPathOracle, make_knapsack


def test_gen_spec_validation():
    with pytest.raises(ValueError):
        GenSpec(n_train=0, n_val=1, n_test=1)
    with pytest.raises(ValueError):
        GenSpec(n_train=1, n_val=1, n_test=1, noise_width=1.0)
    with pytest.raises(ValueError):
        GenSpec(n_train=1, n_val=1, n_test=1, deg=0)
    assert GenSpec(n_train=3, n_val=2, n_test=1).n_total == 6


def test_latent_costs_formula():
    mixing = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    z = np.array([2.0, -1.0])
    c = latent_costs(z, mixing, deg=2)
    lifted = z @ mixing.T / np.sqrt(2.0)
    np.testing.assert_allclose(c, (lifted + 3.0) ** 2 + 1.0)
    assert c.shape == (3,)
    batch = latent_costs(np.stack([z, -z]), mixing, deg=2)
    assert batch.shape == (2, 3)
    np.testing.assert_allclose(batch[0], c)
    noisy = latent_costs(z, mixing, deg=2, noise=np.array([2.0, 1.0, 0.5]))
    np.testing.assert_allclose(noisy, c * np.array([2.0, 1.0, 0.5]))


def test_generate_shapes_split_and_positivity():
    problem = make_knapsack(d=8, seed=0)
    spec = GenSpec(n_train=12, n_val=4, n_test=6, k=5, seed=3)
    ds = generate(spec, problem)
    assert ds.n == 22 and ds.k == 5 and ds.d == 8 and ds.seed == 3
    assert ds.split.train == tuple(range(12))
    assert ds.split.val == tuple(range(12, 16))
    assert ds.split.test == tuple(range(16, 22))
    assert ds.features.shape == (22, 5) and ds.costs.shape == (22, 8)
    assert np.all(ds.costs > 0.0)  # even degree keeps costs positive


def test_generate_is_seed_deterministic():
    problem = make_knapsack(d=8, seed=0)
    spec = GenSpec(n_train=5, n_val=2, n_test=2, k=4, seed=7)
    a = generate(spec, problem)
    b = generate(spec, problem)
    other = generate(GenSpec(n_train=5, n_val=2, n_test=2, k=4, seed=8),
                     problem)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.costs, b.costs)
    assert not np.array_equal(a.costs[0], other.costs[0])


def test_generate_makes_no_solve():
    problem = ShortestPathOracle(rows=3, cols=3)
    ds = generate(GenSpec(n_train=6, n_val=3, n_test=4, k=4, seed=0), problem)
    assert problem.counter.count == 0
    assert np.isnan(ds.x_star).all()


def test_mixing_matrix_is_fixed_across_instances():
    # with zero noise and degree 1 the costs are affine in z with slope B/sqrt(k);
    # recovering one slope from a few instances must explain all the others,
    # proving a single mixing matrix is shared by the whole dataset
    problem = make_knapsack(d=8, seed=1)
    spec = GenSpec(n_train=20, n_val=2, n_test=2, k=4, seed=5,
                   noise_width=0.0, deg=1)
    ds = generate(spec, problem)
    z, c = ds.features, ds.costs
    design = np.hstack([z, np.ones((ds.n, 1))])
    coef, *_ = np.linalg.lstsq(design, c, rcond=None)
    residual = design @ coef - c
    assert np.max(np.abs(residual)) < 1e-9
    slope = coef[:-1].T * np.sqrt(4.0)
    np.testing.assert_allclose(slope, np.round(slope), atol=1e-9)
    assert set(np.round(slope).ravel().tolist()) <= {0.0, 1.0}


def test_zero_noise_width_removes_noise():
    problem = make_knapsack(d=6, seed=0)
    spec = GenSpec(n_train=4, n_val=1, n_test=1, k=3, seed=2, noise_width=0.0)
    a = generate(spec, problem)
    b = generate(spec, problem)
    np.testing.assert_array_equal(a.costs, b.costs)
