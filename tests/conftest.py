"""Shared corpus generators and fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relbelief
from relbelief import FiniteModel, belief_tables


def fresh_python(script: str) -> str:
    """Run ``script`` in a new interpreter that imports this checkout's
    ``relbelief``; returns the last line it prints."""
    src = str(Path(relbelief.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def fiber(model: FiniteModel, psi_index: int) -> np.ndarray:
    """Theta indices mapping to the given psi value."""
    return np.flatnonzero(model.psi_map == psi_index)


def anti_lrse_rule(model: FiniteModel) -> np.ndarray:
    """Rule picking the psi whose belief dropped the most at each x.

    Serves as the negative control for the unbiasedness diagnostics: it
    deliberately chooses a value the data argues against.
    """
    return np.array(
        [int(np.argmin(belief_tables(model, x).rb)) for x in range(model.n_x)], dtype=np.intp
    )


def random_model(rng, max_theta=12, max_psi=6, max_x=8) -> FiniteModel:
    """Random finite model with positive prior and row-stochastic likelihood."""
    n_psi = int(rng.integers(2, max_psi + 1))
    n_theta = int(rng.integers(n_psi, max_theta + 1))
    n_x = int(rng.integers(2, max_x + 1))
    prior = rng.dirichlet(np.ones(n_theta))
    likelihood = rng.dirichlet(np.ones(n_x), size=n_theta)
    psi_map = np.concatenate(
        [np.arange(n_psi), rng.integers(0, n_psi, size=n_theta - n_psi)]
    )
    rng.shuffle(psi_map)
    # Keep surjectivity after the shuffle (it permutes, so it is preserved).
    return FiniteModel(
        theta_labels=tuple(f"t{i}" for i in range(n_theta)),
        prior=prior,
        likelihood=likelihood,
        psi_map=psi_map,
        psi_labels=tuple(f"p{j}" for j in range(n_psi)),
        psi_coords=np.sort(rng.normal(size=n_psi)),
    )


def model_corpus(count: int, seed: int = 20240923):
    rng = np.random.default_rng(seed)
    return [random_model(rng) for _ in range(count)]


def geometric_testbed(n_points: int = 200, rho: float = 0.9, peak: int = 100) -> FiniteModel:
    """Truncated countable support with a geometric-tailed prior.

    The likelihood of observing x=1 bumps smoothly around ``peak``, so the
    belief ratio is maximized there while the posterior mode sits closer to
    the prior-heavy low indices.  The geometric tail beyond the truncation
    holds less than 1e-9 mass.
    """
    j = np.arange(n_points)
    prior = (1.0 - rho) * rho**j
    tail = rho**n_points
    assert tail <= 1e-9
    success = 0.98 * np.exp(-((j - peak) ** 2) / 200.0) + 0.01
    likelihood = np.column_stack([1.0 - success, success])
    return FiniteModel(
        theta_labels=tuple(f"j{i}" for i in j),
        prior=prior,
        likelihood=likelihood,
        psi_map=j,
        psi_labels=tuple(f"j{i}" for i in j),
        psi_coords=j.astype(float),
    )


@pytest.fixture(scope="session")
def corpus():
    """The randomized model corpus shared by the property suites."""
    return model_corpus(200)


@pytest.fixture(scope="session")
def countable_model():
    return geometric_testbed()


@pytest.fixture()
def rng():
    return np.random.default_rng(1729)
