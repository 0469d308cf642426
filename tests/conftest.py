"""Shared fixtures: seeded RNGs, random valid covariance matrices, exact checks."""

from __future__ import annotations

from fractions import Fraction

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

# [[a, -a], [-a, a]]: exactly singular, as msc_canonical(1e12, 1) stored it
# before its off-diagonal entry was rounded toward zero.
_A = float.fromhex("0x1.d1a94a1fffff8p+38")
SINGULAR_1E12 = [[_A, -_A], [-_A, _A]]


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


def first_mode_block_exactly_valid(v: np.ndarray) -> bool:
    """Exact verdict on a matrix that is the identity outside its first-mode block.

    True iff every entry outside rows and columns ``(0, m)`` is exactly the
    identity's, and the block ``[[V_00, V_0m], [V_m0, V_mm]]`` is symmetric
    with ``V_00 > 0`` and ``V_00 V_mm - V_0m^2 >= 1`` in rational arithmetic:
    then the matrix is a valid covariance matrix, taken exactly from its
    float64 entries.
    """
    m = v.shape[0] // 2
    rest = np.array(v, dtype=float)
    rest[np.ix_([0, m], [0, m])] = np.eye(2)
    a, c, b, b_t = (Fraction(float(v[i, j])) for i, j in ((0, 0), (m, m), (0, m), (m, 0)))
    return np.array_equal(rest, np.eye(2 * m)) and b == b_t and a > 0 and a * c - b * b >= 1


def fractions(a) -> np.ndarray:
    """The entries of ``a`` (floats, ints or Fractions) as an object array of exact Fractions."""
    return np.array([[Fraction(x) for x in row] for row in np.asarray(a, dtype=object)], dtype=object)


def exact_residual_sq(s, form) -> Fraction:
    """``|S F S^T - F|_F^2`` in rational arithmetic, for the exact values of ``s`` and ``form``.

    With ``F = Omega`` it is 0 iff ``S`` is exactly symplectic, with ``F = I``
    iff ``S`` is exactly orthogonal.
    """
    s, form = fractions(s), fractions(form)
    residual = s @ form @ s.T - form
    return sum((x * x for x in residual.flat), Fraction(0))
