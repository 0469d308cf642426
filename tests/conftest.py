"""Shared fixtures: seeded RNGs, random valid covariance matrices, exact checks, Haar samples and moments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import numpy as np
import pytest

from sympcoh import (
    CovMat,
    GaussianState,
    apply_loss,
    mix_states,
    sample_pure_cm,
)
from sympcoh.ensembles import (
    KINDS,
    EnsembleConfig,
    EnsembleStats,
    _ensemble_draw,
    _n_sigma,
    _pairs,
    analytic_mean_nu_sq,
)
from sympcoh.symplectic_ops import (
    block_samples,
    ginibre_batch,
    ginibre_from_uniforms,
    haar_from_ginibre,
    mc_blocks,
    mean_stderr_rows,
    sample_d_batch,
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


def pure_param_blocks(
    seed: int, n: int, E: float, m: int, orthogonal: bool
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(start, X, Y, d)`` stacks for samples ``start, start + 1, ...`` < n.

    The ``mc_blocks`` of ``block_samples(m)`` samples, each drawing the
    maximum search's fills: spectra d, then uniform pairs, which
    ``ginibre_from_uniforms`` maps to z; ``X + iY = haar_from_ginibre(z)``,
    factored on every kept row (``Y = 0`` if orthogonal): the samples of the
    maximum search, all of them factored.
    """
    size = block_samples(m)
    for start, keep, rng in mc_blocks(seed, n, size):
        d = sample_d_batch(E, m, size, rng, keep)
        u = haar_from_ginibre(ginibre_from_uniforms(rng.random((keep, m, m, 2)), orthogonal))
        yield start, u.real, u.imag, d


def record_spectra(monkeypatch: pytest.MonkeyPatch, module) -> list[tuple[np.random.Generator, dict, int]]:
    """Log every ``module.sample_d_batch`` call: its generator, that generator's state right after, its kept rows.

    The log is returned and filled as the patched module draws spectra.
    """
    log = []

    def recording(E, m, n, rng, keep=None):
        d = sample_d_batch(E, m, n, rng, keep)
        log.append((rng, rng.bit_generator.state, n if keep is None else keep))
        return d

    monkeypatch.setattr(module, "sample_d_batch", recording)
    return log


def uniform_rows_after_spectra(log: list[tuple[np.random.Generator, dict, int]], m: int) -> list[int]:
    """Per ``record_spectra`` entry, the rows of uniform pairs its generator drew after the spectra.

    0 for a generator that drew nothing more, else ``keep``: asserts that
    whatever it drew is exactly one ``random((keep, m, m, 2))`` stack.
    """
    rows = []
    for rng, state, keep in log:
        if rng.bit_generator.state == state:
            rows.append(0)
            continue
        ref = np.random.Generator(type(rng.bit_generator)())
        ref.bit_generator.state = state
        ref.random((keep, m, m, 2))
        assert rng.bit_generator.state == ref.bit_generator.state
        rows.append(keep)
    return rows


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean of ``values`` and its standard error: ``mean_stderr_rows`` of one row."""
    mean, se = mean_stderr_rows(values[None])
    return float(mean[0]), float(se[0])


@dataclass(frozen=True)
class MomentCheck:
    """One estimated Haar fourth moment against its closed form."""

    kind: str
    name: str
    estimate: float
    exact: float
    stderr: float

    @property
    def n_sigma(self) -> float | None:
        return _n_sigma(self.estimate, self.exact, self.stderr)


def _rows(samples: np.ndarray, kind: str, m: int) -> Iterable[MomentCheck]:
    """Moment rows for one kind given first-row samples (n x m, or complex)."""

    def check(name: str, values: np.ndarray, exact: float) -> MomentCheck:
        est, se = mean_stderr(values)
        return MomentCheck(kind, name, est, exact, se)

    if kind == "orthogonal":
        o1, o2 = samples[:, 0], samples[:, 1]
        denom = m * (m + 2)
        yield check("E[O_1i^2 O_1i^2]", o1**4, 3.0 / denom)
        yield check("E[O_1i^2 O_1j^2], i!=j", o1**2 * o2**2, 1.0 / denom)
    else:
        x1, y1 = samples[:, 0].real, samples[:, 0].imag
        x2, y2 = samples[:, 1].real, samples[:, 1].imag
        denom = 4.0 * m * (m + 1)
        yield check("E[X_1i^2 X_1i^2]", x1**4, 3.0 / denom)
        yield check("E[X_1i^2 X_1j^2], i!=j", x1**2 * x2**2, 1.0 / denom)
        yield check("E[Y_1i^2 Y_1i^2]", y1**4, 3.0 / denom)
        yield check("E[Y_1i^2 Y_1j^2], i!=j", y1**2 * y2**2, 1.0 / denom)
        yield check("E[X_1i^2 Y_1i^2]", x1**2 * y1**2, 1.0 / denom)
        yield check("E[X_1i^2 Y_1j^2], i!=j", x1**2 * y2**2, 1.0 / denom)
        yield check("E[X_1i Y_1i X_1j Y_1j], i!=j", x1 * y1 * x2 * y2, 0.0)


def haar_moment_check(
    m: int, n_samples: int, rng: np.random.Generator, uniforms: bool = False
) -> list[MomentCheck]:
    """Estimate the fourth moments of Haar first rows against closed forms.

    A self-check of the package's Haar samplers.  For each kind in
    ``ensembles.KINDS``, one integer seed is drawn from ``rng``
    (``integers(2**63)``); that kind's Ginibre stacks then come from
    ``symplectic_ops.mc_blocks`` in blocks of ``block_samples(m)``, drawn
    whole, cut at the kept rows and factored on them.

    Args:
        m: matrix size (needs m >= 2 for the i != j rows).
        n_samples: Monte-Carlo sample count per kind (>= 1000).
        rng: random generator, used only for the per-kind seeds.
        uniforms: take the Ginibre stacks as the maximum search does, the
            polar map (``ginibre_from_uniforms``) of the uniform pairs drawn
            after a block's spectra, rather than the normals of
            ``ginibre_batch``.

    Returns:
        One row per moment with estimate, exact value and standard error.
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples for a meaningful check")
    if m < 2:
        raise ValueError("moment table needs m >= 2")
    out: list[MomentCheck] = []
    size = block_samples(m)
    for kind in KINDS:
        real, first_rows = kind == "orthogonal", []
        for _, keep, block_rng in mc_blocks(int(rng.integers(2**63)), n_samples, size):
            if uniforms:  # the spectra, here those of E = 2m, are not read
                sample_d_batch(2.0 * m, m, size, block_rng, keep)
                z = ginibre_from_uniforms(block_rng.random((keep, m, m, 2)), real)
            else:
                z = ginibre_batch(m, size, block_rng, real=real)[:keep]
            first_rows.append(haar_from_ginibre(z)[:, 0, :])
        out.extend(_rows(np.concatenate(first_rows), kind, m))
    return out


# ---------------------------------------------------------------------------
# Reference ensemble statistics: one pass per array, out-of-place pair arithmetic
# ---------------------------------------------------------------------------


def reference_scaled(values: np.ndarray) -> tuple[np.ndarray, float]:
    """``values / 2^k`` and ``2^k``, the largest power of two not above the largest magnitude."""
    scale = math.ldexp(1.0, math.frexp(float(np.abs(values).max()))[1] - 1)
    return values / scale, scale


def reference_mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of one array, taken on its ``reference_scaled`` values."""
    n = values.shape[0]
    scaled, scale = reference_scaled(values)
    se = float(np.std(scaled, ddof=1) / np.sqrt(n) * scale) if n > 1 else 0.0
    return float(np.mean(scaled) * scale), se


def reference_pair_sums(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pair sums ``(s1, s2)`` of ``ensembles._first_mode_nu_sq`` with a new array for every operation.

    ``2 sum (t - 1/t)^2 + 4P`` and ``2 sum (s - 1/s)^2 + 4P`` over the P
    pairs k < l, with ``t = sqrt(d_k / d_l)`` and ``s = sqrt(d_k d_l)``.
    """
    k, l = _pairs(d.shape[1])
    root = np.sqrt(d)
    t = root[:, k] / root[:, l]
    s = root[:, k] * root[:, l]
    a, b = t - 1.0 / t, s - 1.0 / s
    twos = 4.0 * len(k)
    return 2.0 * np.einsum("ij,ij->i", a, a) + twos, 2.0 * np.einsum("ij,ij->i", b, b) + twos


def reference_first_mode_nu_sq(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``ensembles._first_mode_nu_sq`` with a new array for every operation."""
    k, l = _pairs(d.shape[1])
    root = np.sqrt(d)
    s = root[:, k] * root[:, l]
    t = root[:, k] / root[:, l]
    g = np.conj(u[:, k]) * u[:, l]
    z = (t - 1.0 / t) * g.real
    nu_sq = 1.0 + np.einsum("ij,ij->i", z, z)
    if np.iscomplexobj(g):
        w = (s - 1.0 / s) * g.imag
        nu_sq += np.einsum("ij,ij->i", w, w)
    return nu_sq


def reference_ensemble_stats(config: EnsembleConfig) -> EnsembleStats:
    """``ensemble_nu_sq(config)`` from the same draws, with one reduction per statistic.

    The pair sums are ``reference_pair_sums``: the one-pass identity, out of place.
    """
    n, m = config.n_samples, config.m
    nu_sq, s1, s2 = np.empty(n), np.empty(n), np.empty(n)
    real, size = config.kind == "orthogonal", block_samples(m)
    for start, keep, rng in mc_blocks(config.seed, n, size):
        d, z = _ensemble_draw(rng, size, keep, config.E, m, real, False)
        block = slice(start, start + keep)
        col = z[:, :, 0]
        nu_sq[block] = reference_first_mode_nu_sq(col / np.linalg.norm(col, axis=1)[:, None], d)
        s1[block], s2[block] = reference_pair_sums(d)
    analytic = analytic_mean_nu_sq(config.kind, m, s1, s2)
    mean, stderr = reference_mean_stderr(nu_sq)
    _, stderr_diff = reference_mean_stderr(nu_sq - analytic)
    s1_hat, s2_hat = (float(np.mean(v) * k) for v, k in map(reference_scaled, (s1, s2)))
    return EnsembleStats(
        mean_nu_sq=mean,
        stderr=stderr,
        s1_hat=s1_hat,
        s2_hat=s2_hat,
        analytic_mean=analytic_mean_nu_sq(config.kind, m, s1_hat, s2_hat),
        stderr_diff=stderr_diff,
        n_samples=n,
        kind=config.kind,
        m=m,
        E=config.E,
    )
