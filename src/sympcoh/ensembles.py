"""Fixed-trace ensembles of pure Gaussian states and their entanglement statistics.

The ensembles draw a squeezing spectrum ``d`` with ``sum(d_i + 1/d_i) = E``
and a Haar passive gate; the "orthogonal" kind uses ``S = diag(O, O)``
(no position-momentum correlations by construction), the "unitary" kind the
full passive family ``S = [[X, Y], [-Y, X]]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .gaussian_core import CovMat, _require_count, _require_int
from .symplectic_ops import (
    block_samples,
    ginibre_batch,
    ginibre_from_uniforms,
    haar_from_ginibre,
    mc_blocks,
    mean_stderr_rows,
    pure_cm,
    pure_xp_block,
    require_budget,
    sample_d,  # noqa: F401 - perfbench times ensembles.sample_d by this name
    sample_d_batch,
)

KINDS = ("orthogonal", "unitary")


def _require_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")


def _n_sigma(estimate: float, exact: float, stderr: float) -> float | None:
    """``|estimate - exact| / stderr``: the distance of an estimate from its closed form.

    A zero standard error gives 0 where the two agree exactly and ``None``
    (undefined, and never a non-JSON infinity) where they differ.
    """
    if stderr == 0.0:
        return 0.0 if estimate == exact else None
    return abs(estimate - exact) / stderr


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

    ``m``, ``n_samples`` and ``seed`` must be Python or numpy integers, not
    bools; construction raises ``ValueError`` naming the field otherwise.
    """

    m: int
    E: float
    n_samples: int
    seed: int
    kind: str

    def __post_init__(self):
        _require_kind(self.kind)
        require_budget(self.E, self.m)
        _require_count("n_samples", self.n_samples)
        _require_int("seed", self.seed)


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
            Each sample's two sums come from the pass that makes its
            nu_1^2, as ``2 sum_{k<l} (t - 1/t)^2 + 4P`` and likewise with s
            (``_first_mode_nu_sq``): sums of nonnegative terms.
        analytic_mean: closed-form ensemble mean evaluated at s1_hat/s2_hat.
        stderr_diff: standard error of the per-sample difference
            ``nu_1^2(i) - analytic(i)`` (the right scale for comparing
            mean_nu_sq with analytic_mean, since both share the sampled
            spectra).
        n_sigma: ``|mean_nu_sq - analytic_mean| / stderr_diff``, set from
            those fields by ``_n_sigma``: 0 for one mode, where every sample
            equals the closed form, and ``None`` for a single sample, which
            has no standard error.
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
    n_sigma: float | None = field(init=False)

    def __post_init__(self):
        object.__setattr__(
            self, "n_sigma", _n_sigma(self.mean_nu_sq, self.analytic_mean, self.stderr_diff)
        )


def pure_cm_from_passive(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> CovMat:
    """``S_U diag(d, 1/d) S_U^T`` for ``S_U = [[X, Y], [-Y, X]]``: ``pure_cm`` as a ``CovMat``.

    The one place in this module that wraps the kernel's output.
    """
    return CovMat(pure_cm(x, y, d))


def sample_pure_cm(E: float, m: int, kind: str, rng: np.random.Generator) -> CovMat:
    """Draw one pure m-mode covariance matrix with trace E of ensemble ``kind``.

    The draw is that of one maximum-search sample from ``rng``: a spectrum
    (``sample_d_batch``), then one ``(1, m, m, 2)`` stack of uniform pairs,
    which ``ginibre_from_uniforms`` maps to a real (orthogonal kind) or
    complex Ginibre matrix for ``haar_from_ginibre``.
    The orthogonal kind has a structurally zero position-momentum block, so
    its samples carry no position-momentum correlations at all.
    Raises ``ValueError`` for a kind not in ``KINDS``, or unless m is a count and
    2m <= E with E^2 finite.
    """
    _require_kind(kind)
    d = sample_d_batch(E, m, 1, rng)
    u = haar_from_ginibre(ginibre_from_uniforms(rng.random((1, m, m, 2)), kind == "orthogonal"))[0]
    return pure_cm_from_passive(u.real, u.imag, d[0])


@cache
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Mode indices ``(k, l)`` of the ``m(m-1)/2`` pairs ``k < l`` (read-only, shared)."""
    pairs = np.triu_indices(m, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _first_mode_nu_sq(u: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(nu_1^2, s1, s2)`` of pure states from unit first rows ``u = x + iy`` (n, m) and spectra d (n, m).

    Rows 0 and m of ``A = S_U diag(d, 1/d)^(1/2)`` give ``nu_1^2 = |a|^2 |b|^2
    - (a.b)^2``.  The Lagrange identity turns it into a sum of squared 2 x 2
    minors, and ``|u|^2 = 1`` into

        ``1 + sum_{k<l} (s - 1/s)^2 w^2 + (t - 1/t)^2 z^2``

    with ``s = sqrt(d_k d_l)``, ``t = sqrt(d_k / d_l)`` and ``z + iw =
    conj(u_k) u_l``.  Every term is nonnegative, so ``nu_1^2 >= 1`` and nothing
    of size d^2 cancels; a single mode (no pairs) gives exactly 1.  A real
    ``u`` (orthogonal passive gate) has ``w = 0``.

    The same pair arrays give the spectrum statistics of ``EnsembleStats``:
    ``t^2 + t^-2 = (t - 1/t)^2 + 2``, so over the P = m(m-1)/2 pairs

        ``s1 = sum_{i!=j} d_i/d_j + d_j/d_i = 2 sum_{k<l} (t - 1/t)^2 + 4P``

    and ``s2 = sum_{i!=j} d_i d_j + 1/(d_i d_j)`` likewise with s.  Every
    term is nonnegative here too.  The real pair arithmetic runs in place on
    the gathered arrays.
    """
    k, l = _pairs(d.shape[1])
    # The complex product first, while no real pair array is alive, and out of
    # place: numpy's in-place complex multiply of one element can round differently.
    g = u[:, k]
    g = np.multiply(np.conjugate(g, out=g), u[:, l])
    root = np.sqrt(d)
    rk, rl = root[:, k], root[:, l]
    t = np.divide(rk, rl)
    s = np.multiply(rk, rl, out=rk)
    inv = np.divide(1.0, t, out=rl)
    twos = 4.0 * len(k)  # the 2 of each pair's (x - 1/x)^2 + 2, in a sum over i != j
    a = np.subtract(t, inv, out=t)
    s1 = 2.0 * np.einsum("ij,ij->i", a, a) + twos
    z = np.multiply(a, g.real, out=a)
    nu_sq = 1.0 + np.einsum("ij,ij->i", z, z)
    np.divide(1.0, s, out=inv)
    b = np.subtract(s, inv, out=s)
    s2 = 2.0 * np.einsum("ij,ij->i", b, b) + twos
    if np.iscomplexobj(g):
        w = np.multiply(b, g.imag, out=b)
        nu_sq += np.einsum("ij,ij->i", w, w)
    return nu_sq, s1, s2


def analytic_mean_nu_sq(kind: str, m: int, s1: float, s2: float) -> float:
    """Closed-form ensemble mean of nu_1^2 given the spectrum statistics."""
    _require_kind(kind)
    if kind == "orthogonal":
        return 3.0 / (m + 2) + s1 / (2.0 * m * (m + 2))
    return 2.0 / (m + 1) + (s1 + s2) / (4.0 * m * (m + 1))


def _ensemble_draw(
    rng: np.random.Generator, n: int, keep: int, E: float, m: int, real: bool, full: bool
) -> tuple[np.ndarray, np.ndarray]:
    """One ensemble block ``(d, z)`` of n samples, cut to its first ``keep`` rows.

    Spectra, then Ginibre columns from the same generator: d is
    ``sample_d_batch`` cut at ``keep``; z is the first column alone, a
    (keep, m, 1) ``ginibre_batch``, unless ``full``, when that column is
    drawn for all n rows and the other m - 1 columns follow it for the kept
    rows only.  Either way the kept rows have the bytes of the whole block's.
    """
    d = sample_d_batch(E, m, n, rng, keep)
    z = ginibre_batch(m, n if full else keep, rng, real, columns=1)[:keep]
    if full:
        z = np.concatenate([z, ginibre_batch(m, keep, rng, real, columns=m - 1)], axis=2)
    return d, z


def ensemble_nu_sq(
    config: EnsembleConfig, return_samples: bool = False
) -> EnsembleStats | tuple[EnsembleStats, np.ndarray, np.ndarray]:
    """Monte-Carlo mean of the first-mode nu^2 over the ensemble.

    Each block of ``mc_blocks`` draws from its generator the spectra
    d (``sample_d_batch``), then the first column of every sample's Ginibre
    matrix z, as an (n, m) stack, then, only when samples are requested,
    the other m - 1 columns; so the first k samples do not depend on
    ``n_samples`` and different seeds give independent samples.  Sample j's
    passive unitary is the transpose of the Haar matrix
    ``haar_from_ginibre(z[j])``; a Haar matrix's transpose is again Haar.
    Its first row is that matrix's first column, the normalised Ginibre
    column ``z[j, :, 0] / |z[j, :, 0]|`` (Mezzadri, Notices AMS 54, 592
    (2007)), so nu_1^2 (``_first_mode_nu_sq``, whose pass also gives the
    pair sums) needs only m of the m^2 Ginibre entries, and no QR and no
    covariance matrix.  A block makes spectra and draws its last fill for
    the rows it keeps only (``_ensemble_draw``).

    Args:
        config: ensemble parameters.
        return_samples: also return per-sample arrays (nu_1^2, coherence).
            Only then are the other columns drawn and ``z`` factored, and
            the coherence computed from the position-momentum blocks of
            ``symplectic_ops.pure_xp_block``.  The other columns come after
            the first, so the nu_1^2 samples and statistics are the same
            either way.

    Returns:
        The statistics, plus the two per-sample arrays when requested.
    """
    n = config.n_samples
    m = config.m
    # One row per statistic, reduced in one pass: nu_1^2, its difference from
    # the closed form, and the two pair sums.
    rows = np.empty((4, n))
    nu_sq, diff, s1_arr, s2_arr = rows
    coh = np.empty(n) if return_samples else None
    real, size = config.kind == "orthogonal", block_samples(m)
    for start, keep, rng in mc_blocks(config.seed, n, size):
        d, z = _ensemble_draw(rng, size, keep, config.E, m, real, return_samples)
        block = slice(start, start + keep)
        col = z[:, :, 0]
        nu_sq[block], s1_arr[block], s2_arr[block] = _first_mode_nu_sq(col / np.linalg.norm(col, axis=1)[:, None], d)
        if return_samples:
            passive = np.swapaxes(haar_from_ginibre(z), -1, -2)
            alpha = d - 1.0
            v = pure_xp_block(passive.real, passive.imag, alpha, -alpha / d)
            coh[block] = np.sum(v * v, axis=(1, 2))
    np.subtract(nu_sq, analytic_mean_nu_sq(config.kind, m, s1_arr, s2_arr), out=diff)
    # Pair sums reach (Tr V)^2, so a plain sum of them overflows from E of about
    # 1e154; every row is reduced on values scaled by a power of two.
    means, stderrs = (x.tolist() for x in mean_stderr_rows(rows))
    mean, _, s1_hat, s2_hat = means
    stderr, stderr_diff, _, _ = stderrs
    stats = EnsembleStats(
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
    if return_samples:
        return stats, nu_sq, coh
    return stats


def entanglement_entropy(nu: float) -> float:
    """Entropy of a symplectic eigenvalue.

    ``h(nu) = up ln(up) - dn ln(dn)`` with ``dn = (nu - 1)/2``, ``up = dn + 1``
    and the analytic limit h(1) = 0.  It is evaluated as ``up log1p(dn) - dn
    ln(dn)`` for dn < 1 and ``up log1p(1/dn) + ln(dn)`` for dn >= 1, where
    both terms are nonnegative, so nothing cancels.  h(inf) = inf.

    Args:
        nu: symplectic eigenvalue, must be >= 1 (NaN is rejected).
    """
    if not nu >= 1.0:
        raise ValueError(f"symplectic eigenvalue must be >= 1, got {nu}")
    if nu == math.inf:
        return math.inf
    dn = (nu - 1.0) / 2.0
    if dn == 0.0:
        return 0.0
    up = dn + 1.0
    if dn < 1.0:
        return up * math.log1p(dn) - dn * math.log(dn)
    return up * math.log1p(1.0 / dn) + math.log(dn)
