"""Shared fixtures: seeded RNGs and random valid covariance matrices."""

from __future__ import annotations

import numpy as np
import pytest

from sympcoh import (
    CovMat,
    GaussianState,
    apply_loss,
    mix_states,
    sample_pure_cm,
)

BASE_SEED = 20240817


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(BASE_SEED)


def random_pure_cov(rng: np.random.Generator, m: int, E: float | None = None) -> CovMat:
    """Random pure covariance matrix with position-momentum correlations."""
    if E is None:
        E = 2 * m + float(rng.uniform(0.5, 6.0))
    return sample_pure_cm(E, m, "unitary", rng)


def random_free_cov(rng: np.random.Generator, m: int) -> CovMat:
    """Random valid covariance matrix with an exactly zero qp block."""
    E = 2 * m + float(rng.uniform(0.5, 6.0))
    cov = sample_pure_cm(E, m, "orthogonal", rng)
    if rng.uniform() < 0.5:
        cov = apply_loss(cov, float(rng.uniform(0.3, 1.0)))
    return cov

def random_valid_cov(rng: np.random.Generator, m: int) -> CovMat:
    """Random valid covariance matrix, mixing pure, lossy and mixed cases."""
    kind = rng.integers(3)
    if kind == 0:
        return random_pure_cov(rng, m)
    if kind == 1:
        return apply_loss(random_pure_cov(rng, m), float(rng.uniform(0.2, 1.0)))
    w = float(rng.uniform(0.2, 0.8))
    mixed = mix_states(
        [
            (w, GaussianState(random_pure_cov(rng, m))),
            (1.0 - w, GaussianState(random_pure_cov(rng, m))),
        ]
    )
    return mixed.cov
