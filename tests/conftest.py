import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cosdfl import harness, problems

settings.register_profile(
    "default",
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def fresh_store(monkeypatch):
    """An empty store of the oracles' derived state in place of the
    process-wide one for the test; call it to put in another, of
    ``max_bytes``, and get it back."""
    def install(max_bytes=8 * problems.KNAPSACK_TABLE_MAX_ENTRIES):
        store = problems._InstanceStore(max_bytes)
        monkeypatch.setattr(problems, "_STORE", store)
        return store

    install()
    return install


@pytest.fixture
def fresh_runs(monkeypatch):
    """An empty memo of training runs in place of the process-wide one for
    the test; call it to put in another empty one, and get it back."""
    def install():
        memo = harness._RunMemo()
        monkeypatch.setattr(harness, "_RUNS", memo)
        return memo

    install()
    return install


@pytest.fixture
def fresh_pool(monkeypatch):
    """Put in a ranging pool of ``size`` workers in place of the
    process-wide one, and get it back. Its workers fork on its first call,
    so they see what the test has patched by then; they stop at teardown."""
    pools = []

    def install(size):
        pool = harness._RangingPool(size)
        monkeypatch.setattr(harness, "_POOL", pool)
        pools.append(pool)
        return pool

    yield install
    for pool in pools:
        pool.close()
