"""Shared fixtures. The two session-scoped ones cache the expensive
benchmark trajectories that both the solver tests and the acceptance
gate consume; everything else is cheap."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import demix
from demix.problem import Dimensions
from demix.solver import SolverConfig, run

FIG1A_SEEDS = (1, 2, 3, 4, 5)


@pytest.fixture(scope="session")
def benchmark_runs():
    """Noiseless K=50, s=10, m=2500 trajectories on the five pinned seeds."""
    out = {}
    for seed in FIG1A_SEEDS:
        inst = demix.make_instance(
            Dimensions(s=10, m=2500, K=50), kappa=1.0, sigma=0.0, seed=seed
        )
        _, records = run(
            inst, SolverConfig(eta=0.1, max_iters=500, stop_tol=1e-6, record_every=1)
        )
        out[seed] = records
    return out


@pytest.fixture(scope="session")
def dimension_pair_runs():
    """K=50 vs K=100 at m=50K, s=10: the problem-size comparison pair."""
    out = {}
    for K in (50, 100):
        inst = demix.make_instance(
            Dimensions(s=10, m=50 * K, K=K), kappa=1.0, sigma=0.0, seed=11
        )
        _, records = run(
            inst, SolverConfig(eta=0.1, max_iters=900, stop_tol=1e-5, record_every=1)
        )
        out[K] = records
    return out


@pytest.fixture
def backprojection_log(monkeypatch):
    """Every back-projection stack that `verify` forms, in call order."""
    from demix import verify

    log = []
    form = verify.backprojection_matrices

    def logged(*args):
        log.append(form(*args))
        return log[-1]

    monkeypatch.setattr(verify, "backprojection_matrices", logged)
    return log


def fail_align_on_call(monkeypatch, k):
    """Make the k-th metrics.align_state call raise LinAlgError, as an
    iterate too large to align does."""
    calls = []
    align_state = demix.metrics.align_state

    def failing(state, ref):
        calls.append(None)
        if len(calls) == k:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return align_state(state, ref)

    monkeypatch.setattr(demix.metrics, "align_state", failing)


def trial_mean_error(stack, truth):
    """Entrywise |trial mean - h'_i x'_i^*| of an (n_trials, s, K, K) stack of
    back-projections, and the larger of its real and imaginary standard errors."""
    expected = np.stack([np.outer(h, np.conj(x)) for h, x in zip(truth.h, truth.x)])
    se = np.maximum(stack.real.std(axis=0, ddof=1), stack.imag.std(axis=0, ddof=1))
    return np.abs(stack.mean(axis=0) - expected), se / np.sqrt(len(stack))


@pytest.fixture
def small_instance():
    """Workhorse small instance: fast, noiseless, with truth attached."""
    return demix.make_instance(Dimensions(s=2, m=24, K=4), kappa=1.0, sigma=0.0, seed=9)


@pytest.fixture
def noisy_instance():
    return demix.make_instance(
        Dimensions(s=2, m=24, K=4), kappa=1.5, sigma=0.3, seed=13
    )


def random_state(dims, gen) -> "demix.DemixState":
    from demix.objective import DemixState

    shape = (dims.s, dims.K)
    return DemixState(
        h=gen.standard_normal(shape) + 1j * gen.standard_normal(shape),
        x=gen.standard_normal(shape) + 1j * gen.standard_normal(shape),
    )
