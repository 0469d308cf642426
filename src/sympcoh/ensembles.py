"""Fixed-trace ensembles of pure Gaussian states and Haar moment checks.

The ensembles draw a squeezing spectrum ``d`` with ``sum(d_i + 1/d_i) = E``
and a Haar passive gate; the "orthogonal" kind uses ``S = diag(O, O)``
(no position-momentum correlations by construction), the "unitary" kind the
full passive family ``S = [[X, Y], [-Y, X]]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Iterable

import numpy as np

from .gaussian_core import CovMat
from .symplectic_ops import (
    block_samples,
    ginibre_batch,
    haar_from_ginibre,
    mc_blocks,
    mean_stderr,
    pure_cm,
    pure_draw,
    pure_xp_block,
    require_budget,
    sample_d,  # noqa: F401 - perfbench times ensembles.sample_d by this name
)

KINDS = ("orthogonal", "unitary")


def _require_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


@dataclass(frozen=True)
class EnsembleConfig:
    """Sampling parameters for a fixed-trace pure-state ensemble.

    Attributes:
        m: mode count.
        E: covariance-matrix trace of every sample (E >= 2m).
        n_samples: number of Monte-Carlo samples.
        seed: base RNG seed; samples are drawn in blocks of the one block
            driver ``symplectic_ops.mc_blocks`` (see ``ensemble_nu_sq``).
        kind: "orthogonal" or "unitary".
    """

    m: int
    E: float
    n_samples: int
    seed: int
    kind: str

    def __post_init__(self):
        _require_kind(self.kind)
        require_budget(self.E, self.m)
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


@dataclass(frozen=True)
class EnsembleStats:
    """Monte-Carlo summary of the first-mode squared symplectic eigenvalue.

    Holds no coherence statistic: per-sample coherence is computed only when
    ``ensemble_nu_sq`` is asked for the samples.

    Attributes:
        mean_nu_sq: Monte-Carlo mean of nu_1^2.
        stderr: standard error of that mean.
        s1_hat: Monte-Carlo mean of ``sum_{i!=j} d_i/d_j + d_j/d_i``.
        s2_hat: Monte-Carlo mean of ``sum_{i!=j} d_i d_j + 1/(d_i d_j)``.
        analytic_mean: closed-form ensemble mean evaluated at s1_hat/s2_hat.
        stderr_diff: standard error of the per-sample difference
            ``nu_1^2(i) - analytic(i)`` (the right scale for comparing
            mean_nu_sq with analytic_mean, since both share the sampled
            spectra).
    """

    mean_nu_sq: float
    stderr: float
    s1_hat: float
    s2_hat: float
    analytic_mean: float
    stderr_diff: float
    n_samples: int
    kind: str
    m: int
    E: float


def pure_cm_from_passive(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> CovMat:
    """``S_U diag(d, 1/d) S_U^T`` for ``S_U = [[X, Y], [-Y, X]]``: ``pure_cm`` as a ``CovMat``.

    The one place in this module that wraps the kernel's output.
    """
    return CovMat(pure_cm(x, y, d))


def sample_pure_cm(E: float, m: int, kind: str, rng: np.random.Generator) -> CovMat:
    """Draw one pure m-mode covariance matrix with trace E of ensemble ``kind``.

    The draw is ``symplectic_ops.pure_draw`` for one sample from ``rng``.
    The orthogonal kind has a structurally zero position-momentum block, so
    its samples carry no position-momentum correlations at all.
    Raises ``ValueError`` for a kind not in ``KINDS``, or unless m >= 1 and
    2m <= E with E^2 finite.
    """
    _require_kind(kind)
    d, z = pure_draw(rng, 1, E, m, kind == "orthogonal")
    u = haar_from_ginibre(z)[0]
    return pure_cm_from_passive(u.real, u.imag, d[0])


@cache
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Mode indices ``(k, l)`` of the ``m(m-1)/2`` pairs ``k < l`` (read-only, shared)."""
    pairs = np.triu_indices(m, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _pair_sums(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``d``: ``sum_{i!=j} d_i/d_j + d_j/d_i``, ``sum_{i!=j} d_i d_j + 1/(d_i d_j)``.

    Summed over the pairs ``k < l`` as ``2 sum (r + 1/r)``, ``r = d_k/d_l``,
    and ``2 sum (p + 1/p)``, ``p = d_k d_l``: every term is positive, so no
    large sums cancel when one ``d_k`` dominates.
    """
    k, l = _pairs(d.shape[1])
    r = d[:, k] / d[:, l]
    p = d[:, k] * d[:, l]
    return 2.0 * np.sum(r + 1.0 / r, axis=1), 2.0 * np.sum(p + 1.0 / p, axis=1)


def _first_mode_nu_sq(u: np.ndarray, d: np.ndarray) -> np.ndarray:
    """nu_1^2 of pure states from unit first rows ``u = x + iy`` (n, m) and spectra d (n, m).

    Rows 0 and m of ``A = S_U diag(d, 1/d)^(1/2)`` give ``nu_1^2 = |a|^2 |b|^2
    - (a.b)^2``.  The Lagrange identity turns it into a sum of squared 2 x 2
    minors, and ``|u|^2 = 1`` into

        ``1 + sum_{k<l} (s - 1/s)^2 w^2 + (t - 1/t)^2 z^2``

    with ``s = sqrt(d_k d_l)``, ``t = sqrt(d_k / d_l)`` and ``z + iw =
    conj(u_k) u_l``.  Every term is nonnegative, so ``nu_1^2 >= 1`` and nothing
    of size d^2 cancels; a single mode (no pairs) gives exactly 1.  A real
    ``u`` (orthogonal passive gate) has ``w = 0``.
    """
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


def analytic_mean_nu_sq(kind: str, m: int, s1: float, s2: float) -> float:
    """Closed-form ensemble mean of nu_1^2 given the spectrum statistics."""
    _require_kind(kind)
    if kind == "orthogonal":
        return 3.0 / (m + 2) + s1 / (2.0 * m * (m + 2))
    return 2.0 / (m + 1) + (s1 + s2) / (4.0 * m * (m + 1))


def ensemble_nu_sq(
    config: EnsembleConfig, return_samples: bool = False
) -> EnsembleStats | tuple[EnsembleStats, np.ndarray, np.ndarray]:
    """Monte-Carlo mean of the first-mode nu^2 over the ensemble.

    Block b of ``mc_blocks`` is the ``pure_draw`` of ``derive_rng(seed, b)``,
    the spectra d and then one Ginibre stack ``z``, so the first k samples
    do not depend on ``n_samples`` and different seeds give independent
    samples.  Sample j's passive unitary is the transpose
    of the Haar matrix ``haar_from_ginibre(z[j])``; a Haar matrix's transpose
    is again Haar.  Its first row is that matrix's first column, the
    normalised Ginibre column ``z[j, :, 0] / |z[j, :, 0]|``, so nu_1^2
    (``_first_mode_nu_sq``) needs no QR and no covariance matrix.

    Args:
        config: ensemble parameters.
        return_samples: also return per-sample arrays (nu_1^2, coherence).
            Only then is ``z`` factored, and the coherence computed from the
            position-momentum blocks of ``symplectic_ops.pure_xp_block``.
            The nu_1^2 samples and statistics are the same either way.

    Returns:
        The statistics, plus the two per-sample arrays when requested.
    """
    n = config.n_samples
    m = config.m
    nu_sq = np.empty(n)
    coh = np.empty(n) if return_samples else None
    s1_arr = np.empty(n)
    s2_arr = np.empty(n)
    draw = partial(pure_draw, E=config.E, m=m, real=config.kind == "orthogonal")
    for start, (d, z) in mc_blocks(config.seed, n, block_samples(m), draw):
        block = slice(start, start + d.shape[0])
        col = z[:, :, 0]
        nu_sq[block] = _first_mode_nu_sq(col / np.linalg.norm(col, axis=1)[:, None], d)
        s1_arr[block], s2_arr[block] = _pair_sums(d)
        if return_samples:
            passive = np.swapaxes(haar_from_ginibre(z), -1, -2)
            alpha = d - 1.0
            v = pure_xp_block(passive.real, passive.imag, alpha, -alpha / d)
            coh[block] = np.sum(v * v, axis=(1, 2))
    analytic = analytic_mean_nu_sq(config.kind, m, s1_arr, s2_arr)

    mean, stderr = mean_stderr(nu_sq)
    _, stderr_diff = mean_stderr(nu_sq - analytic)
    stats = EnsembleStats(
        mean_nu_sq=mean,
        stderr=stderr,
        s1_hat=float(np.mean(s1_arr)),
        s2_hat=float(np.mean(s2_arr)),
        analytic_mean=analytic_mean_nu_sq(
            config.kind, m, float(np.mean(s1_arr)), float(np.mean(s2_arr))
        ),
        stderr_diff=stderr_diff,
        n_samples=n,
        kind=config.kind,
        m=m,
        E=config.E,
    )
    if return_samples:
        return stats, nu_sq, coh
    return stats


@dataclass(frozen=True)
class MomentCheck:
    """One estimated Haar fourth moment against its closed form."""

    kind: str
    name: str
    estimate: float
    exact: float
    stderr: float

    @property
    def n_sigma(self) -> float:
        if self.stderr == 0.0:
            return 0.0 if self.estimate == self.exact else float("inf")
        return abs(self.estimate - self.exact) / self.stderr


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


def haar_moment_check(m: int, n_samples: int, rng: np.random.Generator) -> list[MomentCheck]:
    """Estimate the fourth moments of Haar first rows against closed forms.

    For each kind in ``KINDS``, one integer seed is drawn from ``rng``
    (``integers(2**63)``); that kind's Ginibre stacks then come from
    ``symplectic_ops.mc_blocks`` in blocks of ``block_samples(m)``, factored on the kept rows.

    Args:
        m: matrix size (needs m >= 2 for the i != j rows).
        n_samples: Monte-Carlo sample count per kind (>= 1000).
        rng: random generator, used only for the per-kind seeds.

    Returns:
        One row per moment with estimate, exact value and standard error.
    """
    if n_samples < 1000:
        raise ValueError("need at least 1000 samples for a meaningful check")
    if m < 2:
        raise ValueError("moment table needs m >= 2")
    out: list[MomentCheck] = []
    for kind in KINDS:

        def draw(block_rng: np.random.Generator, size: int) -> tuple:
            return (ginibre_batch(m, size, block_rng, real=kind == "orthogonal"),)

        blocks = mc_blocks(int(rng.integers(2**63)), n_samples, block_samples(m), draw)
        first_rows = np.concatenate([haar_from_ginibre(z)[:, 0, :] for _, (z,) in blocks])
        out.extend(_rows(first_rows, kind, m))
    return out


def entanglement_entropy(nu: float) -> float:
    """Entropy of a symplectic eigenvalue.

    ``h(nu) = ((nu+1)/2) ln((nu+1)/2) - ((nu-1)/2) ln((nu-1)/2)`` with the
    analytic limit h(1) = 0.

    Args:
        nu: symplectic eigenvalue, must be >= 1.
    """
    if nu < 1.0:
        raise ValueError(f"symplectic eigenvalue must be >= 1, got {nu}")
    if nu - 1.0 < 1e-12:
        return 0.0
    up, down = (nu + 1.0) / 2.0, (nu - 1.0) / 2.0
    return float(up * np.log(up) - down * np.log(down))
