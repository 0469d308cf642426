"""Symplectic gates, Gaussian channels, tensor/trace plumbing, pure-state sampling.

A gate is a pair ``(S, disp)`` acting on Gaussian states as
``V -> S V S^T``, ``d -> S d + disp``. All constructors return matrices
satisfying ``S Omega S^T = Omega`` within 1e-9 (Frobenius).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .gaussian_core import (
    CovMat,
    DimensionError,
    GaussianState,
    is_free,
    require_valid,
    symplectic_form,
)

SYMPLECTIC_TOL = 1e-9
# Id of the map from seeds to Monte-Carlo samples, reported in every CLI
# manifest; bumped whenever a seeded sample changes (history in README).
STREAM_SCHEME = "seedseq-spawn-v2"


class GateError(ValueError):
    """Raised for non-symplectic, non-orthogonal or out-of-range gate input."""


def derive_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for block ``index`` of the Monte-Carlo stream of ``seed``.

    ``default_rng(SeedSequence(seed mod 2**64, spawn_key=(index,)))``, the
    ``index``-th child of ``SeedSequence(seed)`` (NEP 19): distinct
    ``(seed, index)`` pairs give distinct, independent streams.  Only
    ``mc_blocks`` calls it, once per block.
    """
    return np.random.default_rng(
        np.random.SeedSequence(int(seed) % 2**64, spawn_key=(int(index),))
    )


def mc_blocks(seed: int, n: int, size: int, draw: Callable) -> Iterator[tuple[int, tuple]]:
    """Yield ``(start, arrays)`` for Monte-Carlo samples ``start, start + 1, ...`` < n.

    The one block driver of every Monte-Carlo routine.  Block b is
    ``draw(derive_rng(seed, b), size)``, a tuple of arrays with ``size`` rows,
    drawn at full size and then cut at n.  So sample j depends only on
    ``(seed, j // size, j % size)``: results are a deterministic function of
    the seed, different seeds give independent samples, and a run of n
    samples is a prefix of every longer run with the same seed and size.
    A ``draw`` only consumes its generator: per-sample transforms, such as
    the QR of ``haar_from_ginibre``, run on the kept rows after the cut.
    """
    for b, start in enumerate(range(0, n, size)):
        stop = min(size, n - start)
        yield start, tuple(a[:stop] for a in draw(derive_rng(seed, b), size))


def mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean of ``values`` and its standard error (0 for a single value).

    Both are taken on ``values / 2^k``, with ``2^k`` just above the largest
    magnitude, and scaled back: dividing by a power of two is exact, and the
    squared deviations stay finite for values up to the largest float.
    """
    n = values.shape[0]
    scale = np.ldexp(1.0, int(np.frexp(np.max(np.abs(values)))[1]))
    scaled = values / scale
    se = float(np.std(scaled, ddof=1) / np.sqrt(n) * scale) if n > 1 else 0.0
    return float(np.mean(scaled) * scale), se


def is_orthogonal(o: np.ndarray) -> bool:
    """True iff ``O O^H = I`` within ``SYMPLECTIC_TOL`` in Frobenius norm.

    The one orthogonality verdict: a real ``O`` is tested for orthogonality,
    a complex one for unitarity.  A non-square input is not orthogonal.
    """
    o = np.asarray(o)
    if o.ndim != 2 or o.shape[0] != o.shape[1]:
        return False
    return float(np.linalg.norm(o @ o.conj().T - np.eye(o.shape[0]))) <= SYMPLECTIC_TOL


def is_symplectic(s: np.ndarray) -> bool:
    """True iff ``S Omega S^T = Omega`` within ``SYMPLECTIC_TOL`` in Frobenius norm."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
        return False
    omega = symplectic_form(s.shape[0] // 2)
    return float(np.linalg.norm(s @ omega @ s.T - omega)) <= SYMPLECTIC_TOL


@dataclass(frozen=True)
class SympGate:
    """A symplectic matrix plus displacement, acting on m modes.

    Attributes:
        S: the 2m x 2m symplectic matrix (read-only copy).
        disp: length-2m displacement added after ``S`` (read-only; zeros if omitted).
        m: number of modes, set from the matrix's shape.
    """

    S: np.ndarray
    disp: np.ndarray = None
    m: int = field(init=False)

    def __post_init__(self):
        s = np.array(self.S, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2 or not s.size:
            raise DimensionError(f"gate matrix must be 2m x 2m with m >= 1, got shape {s.shape}")
        if not is_symplectic(s):
            raise GateError("gate matrix is not symplectic (S Omega S^T != Omega)")
        n = s.shape[0]
        disp = np.zeros(n) if self.disp is None else np.array(self.disp, dtype=float).ravel()
        if disp.shape[0] != n:
            raise DimensionError(f"displacement must have length {n}, got {disp.shape[0]}")
        s.flags.writeable = False
        disp.flags.writeable = False
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "disp", disp)
        object.__setattr__(self, "m", n // 2)


def _check_mode(m: int, mode: int) -> None:
    if not 1 <= mode <= m:
        raise GateError(f"mode index {mode} out of range 1..{m}")


def squeezer(m: int, mode: int, r: float) -> SympGate:
    """Single-mode squeezer: ``diag(e^r, e^-r)`` on (q_mode, p_mode).

    Args:
        m: total mode count.
        mode: 1-based target mode.
        r: squeezing parameter (r = 0 is the identity).
    """
    _check_mode(m, mode)
    s = np.eye(2 * m)
    i = mode - 1
    s[i, i] = np.exp(r)
    s[m + i, m + i] = np.exp(-r)
    return SympGate(s)


def phase_shifter(m: int, mode: int, theta: float) -> SympGate:
    """Phase shifter ``[[cos t, sin t], [-sin t, cos t]]`` on one mode."""
    _check_mode(m, mode)
    s = np.eye(2 * m)
    i = mode - 1
    c, sn = np.cos(theta), np.sin(theta)
    s[i, i] = c
    s[i, m + i] = sn
    s[m + i, i] = -sn
    s[m + i, m + i] = c
    return SympGate(s)


def block_orthogonal(o: np.ndarray) -> SympGate:
    """Gate ``S = diag(O, O)`` for an m x m orthogonal matrix O: ``passive_from_unitary(O, 0)``."""
    return passive_from_unitary(o, np.zeros(np.shape(o)))


def passive_from_unitary(x: np.ndarray, y: np.ndarray) -> SympGate:
    """Passive gate ``S = [[X, Y], [-Y, X]]`` with ``X + iY`` unitary."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionError(f"X and Y must be square and of one shape, got {x.shape}, {y.shape}")
    if not is_orthogonal(x + 1j * y):
        raise GateError("X + iY is not unitary (orthogonal if Y = 0)")
    return SympGate(_passive_matrix(x, y))


def _passive_matrix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``[[X, Y], [-Y, X]]`` from (..., m, m) blocks."""
    top = np.concatenate([x, y], axis=-1)
    # 0 - y rather than -y: a zero Y gives +0.0 entries, never -0.0.
    return np.concatenate([top, np.concatenate([0.0 - y, x], axis=-1)], axis=-2)


def displacement(d: Sequence[float]) -> SympGate:
    """Displacement gate on ``len(d) / 2`` modes: identity matrix, first moments shifted by d."""
    d = np.asarray(d, dtype=float).reshape(-1)
    if d.shape[0] % 2 or not d.shape[0]:
        raise DimensionError(f"displacement must have even length 2m >= 2, got {d.shape[0]}")
    return SympGate(np.eye(d.shape[0]), d)


def compose(outer: SympGate, inner: SympGate) -> SympGate:
    """Gate equal to applying ``inner`` first, then ``outer``."""
    if outer.m != inner.m:
        raise DimensionError("cannot compose gates on different mode counts")
    return SympGate(outer.S @ inner.S, outer.S @ inner.disp + outer.disp)


def apply(gate: SympGate, state: GaussianState) -> GaussianState:
    """Apply a gate: ``V -> S V S^T``, ``d -> S d + disp``; revalidates output."""
    if gate.m != state.m:
        raise DimensionError(
            f"gate acts on {gate.m} modes but state has {state.m}"
        )
    v = gate.S @ state.cov.matrix @ gate.S.T
    v = 0.5 * (v + v.T)
    cov = require_valid(CovMat(v))
    return GaussianState(cov, gate.S @ state.d + gate.disp)


def require_transmissivity(eta: float) -> None:
    """Raise ``ValueError`` unless ``0 <= eta <= 1`` (so also for NaN)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must be in [0, 1], got {eta}")


def apply_loss(cov: CovMat, eta: float) -> CovMat:
    """Pure photon loss on the covariance matrix: ``V -> eta V + (1-eta) I``."""
    require_transmissivity(eta)
    return CovMat(eta * cov.matrix + (1.0 - eta) * np.eye(2 * cov.m))


@dataclass(frozen=True)
class LossChannel:
    """Pure photon loss with transmissivity ``eta``; first moments scale by sqrt(eta)."""

    eta: float

    def __post_init__(self):
        require_transmissivity(self.eta)

    def apply_to(self, state: GaussianState) -> GaussianState:
        return GaussianState(apply_loss(state.cov, self.eta), np.sqrt(self.eta) * state.d)


@dataclass(frozen=True)
class IdentityChannel:
    """The do-nothing channel: pure loss at the fixed transmissivity ``eta = 1``.

    ``eta`` is set, not passed, so ``IdentityChannel(0.5)`` is a ``TypeError``.
    """

    eta: float = field(default=1.0, init=False)

    def apply_to(self, state: GaussianState) -> GaussianState:
        return state


def _interleave_permutation(m_a: int, m_b: int) -> np.ndarray:
    """Index order taking ``(q_A p_A q_B p_B)`` to ``(q_A q_B p_A p_B)``.

    Returns:
        The 2(m_a+m_b) source indices ``idx``: the direct sum ``ds`` of two qqpp
        covariance matrices, reordered as ``ds[np.ix_(idx, idx)]``, is again qqpp.
    """
    m = m_a + m_b
    return np.concatenate([
        np.arange(0, m_a),                   # q_A
        np.arange(2 * m_a, 2 * m_a + m_b),   # q_B
        np.arange(m_a, 2 * m_a),             # p_A
        np.arange(2 * m_a + m_b, 2 * m),     # p_B
    ])


def tensor_cm(a: CovMat, b: CovMat) -> CovMat:
    """Tensor product of covariance matrices, preserving qqpp ordering."""
    ds = np.zeros((2 * (a.m + b.m), 2 * (a.m + b.m)))
    ds[: 2 * a.m, : 2 * a.m] = a.matrix
    ds[2 * a.m :, 2 * a.m :] = b.matrix
    idx = _interleave_permutation(a.m, b.m)
    return CovMat(ds[np.ix_(idx, idx)])


def tensor_states(a: GaussianState, b: GaussianState) -> GaussianState:
    """Tensor product of Gaussian states, preserving qqpp ordering."""
    idx = _interleave_permutation(a.m, b.m)
    return GaussianState(tensor_cm(a.cov, b.cov), np.concatenate([a.d, b.d])[idx])


def partial_trace(state: GaussianState, keep: Sequence[int]) -> GaussianState:
    """Keep a subset of modes (1-based indices) by row/column selection."""
    m = state.m
    keep = list(keep)
    if not keep or any(not 1 <= k <= m for k in keep) or len(set(keep)) != len(keep):
        raise DimensionError(f"kept modes must be distinct indices in 1..{m}")
    idx = np.array([k - 1 for k in keep] + [m + k - 1 for k in keep])
    return GaussianState(
        CovMat(state.cov.matrix[np.ix_(idx, idx)]), state.d[idx]
    )


def orthogonal_stinespring(
    state: GaussianState,
    o: np.ndarray,
    env: CovMat,
    d: Sequence[float] | None = None,
) -> GaussianState:
    """Dilated free channel: tensor a free environment, rotate, displace, trace.

    Args:
        state: m-mode input state.
        o: (m+k) x (m+k) orthogonal matrix applied as ``diag(O, O)``.
        env: covariance matrix of a k-mode free state (``is_free``), else ``GateError``.
        d: optional length-2(m+k) displacement applied after the rotation.

    Returns:
        The output state on the first m modes.
    """
    if not is_free(env):
        raise GateError("environment is not free (nonzero position-momentum block)")
    total = tensor_states(state, GaussianState(env))
    gate = block_orthogonal(o)
    if d is not None:
        gate = SympGate(gate.S, d)
    rotated = apply(gate, total)
    return partial_trace(rotated, range(1, state.m + 1))


def beamsplitter_orthogonal(eta: float) -> np.ndarray:
    """2x2 beam-splitter mixing matrix ``[[√eta, √(1-eta)], [-√(1-eta), √eta]]``.

    Used as the orthogonal part of the dilation realizing pure loss with a
    one-mode vacuum environment.
    """
    require_transmissivity(eta)
    root_t, root_r = np.sqrt(eta), np.sqrt(1.0 - eta)
    return np.array([[root_t, root_r], [-root_r, root_t]])


@dataclass(frozen=True)
class StinespringChannel:
    """Channel defined by an orthogonal dilation (rotation, env, displacement)."""

    o: np.ndarray
    env: CovMat
    d: np.ndarray = None

    def apply_to(self, state: GaussianState) -> GaussianState:
        return orthogonal_stinespring(state, self.o, self.env, self.d)


# ---------------------------------------------------------------------------
# Pure-state sampling: spectra, Haar samplers (QR with sign/phase correction)
# ---------------------------------------------------------------------------

# Entries per Monte-Carlo block (covariance entries, or shots in the
# discrimination driver): bounds memory and fixes where the blocks start.
BLOCK_ENTRIES = 1 << 16
# Most pure-state samples per block, so that short runs draw little past their end.
MAX_BLOCK_SAMPLES = 256


def block_samples(m: int) -> int:
    """Pure-state samples per Monte-Carlo block on m modes; depends on m only."""
    return max(1, min(MAX_BLOCK_SAMPLES, BLOCK_ENTRIES // (4 * m * m)))


def require_budget(E: float, m: int) -> None:
    """Raise ``ValueError`` unless ``m >= 1`` and ``2m <= E`` with ``E^2`` finite."""
    if m < 1:
        raise ValueError(f"mode count must be >= 1, got {m}")
    if not (2 * m <= E and E * E < np.inf):
        raise ValueError(f"covariance trace must be >= 2m with E^2 finite, got E={E}, m={m}")


def spectrum_from_weights(E: float, weights: np.ndarray) -> np.ndarray:
    """Squeezing spectrum ``d`` from nonnegative weights summing to 1, one per mode.

    The mode count m is the length of the last axis of ``weights``.  With
    ``x_i = (E - 2m) w_i`` the solution of ``d_i + 1/d_i = 2 + x_i`` with
    ``d_i >= 1`` is ``d_i = 1 + x_i/2 + sqrt(x_i + x_i^2/4)``, which enforces
    ``sum(d_i + 1/d_i) = E`` exactly.

    Raises:
        ValueError: unless ``2m <= E`` (``require_budget``), every weight is
            nonnegative, and every row sums to 1 within ``m sqrt(eps)``: half
            the float64 digits of each of its m weights, which admits the
            rounding drift of the maximum search's rescaled weights.
    """
    weights = np.asarray(weights, dtype=float)
    m = weights.shape[-1]
    require_budget(E, m)
    if np.any(weights < 0.0):
        raise ValueError("weights must be nonnegative")
    if not np.all(np.abs(weights.sum(axis=-1) - 1.0) <= m * np.sqrt(np.finfo(float).eps)):
        raise ValueError("each row of weights must sum to 1")
    x = (E - 2 * m) * weights
    return 1.0 + x / 2.0 + np.sqrt(x + x * x / 4.0)


def sample_d_batch(E: float, m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n squeezing spectra (shape n x m), each with ``d_i >= 1`` and ``sum(d_i + 1/d_i) = E``.

    Row k's weights are the squared coordinates of row k of one
    ``standard_normal((n, m))`` draw projected onto the unit (m-1)-sphere,
    ``w = g^2 / sum(g^2)``, so ``sum w_i = 1``.  A row of zeros (probability
    zero) is redrawn from the same generator, which keeps the draw
    deterministic and free of NaN.
    Raises ``ValueError`` unless m >= 1 and 2m <= E with E^2 finite.
    """
    require_budget(E, m)
    g = rng.standard_normal((n, m))
    sq = g * g
    total = sq.sum(axis=1)
    while not total.all():
        zero = total == 0.0
        g[zero] = rng.standard_normal((int(zero.sum()), m))
        sq = g * g
        total = sq.sum(axis=1)
    return spectrum_from_weights(E, sq / total[:, None])


def sample_d(E: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """Draw one squeezing spectrum: ``sample_d_batch(E, m, 1, rng)[0]``."""
    return sample_d_batch(E, m, 1, rng)[0]


def haar_orthogonal(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random m x m orthogonal matrix: a factored real Ginibre draw."""
    return haar_from_ginibre(ginibre_batch(m, 1, rng, real=True))[0]


def haar_unitary(m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Haar-random m x m unitary, returned as real/imag parts ``(X, Y)``."""
    u = haar_unitary_batch(m, 1, rng)[0]
    return u.real.copy(), u.imag.copy()


def ginibre_batch(m: int, n: int, rng: np.random.Generator, real: bool) -> np.ndarray:
    """Stack of ``n`` Ginibre matrices (n x m x m) with i.i.d. entries of unit variance.

    Real standard normals, or complex ``(g1 + i g2) / sqrt(2)`` with the real
    parts drawn before the imaginary ones.  ``haar_from_ginibre`` factors it.
    """
    if real:
        return rng.standard_normal((n, m, m))
    # Filled in place to save temporaries; the values are bit for bit those of
    # (g1 + 1j * g2) / sqrt(2), which the samples' streams rely on.
    z = np.empty((n, m, m), dtype=complex)
    z.real = rng.standard_normal((n, m, m))
    z.imag = rng.standard_normal((n, m, m))
    z /= np.sqrt(2.0)
    return z


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar orthogonal (real ``z``) or unitary (complex ``z``) matrices from a Ginibre stack.

    Batched QR with the phases (signs) of R's diagonal moved into Q, which
    makes the distribution exactly Haar (Mezzadri, Notices AMS 54, 592,
    2007).  R then has a positive diagonal, so column 0 of the result is
    ``z[:, :, 0] / |z[:, :, 0]|``: a Haar matrix's first column needs no QR.
    A zero diagonal entry (probability zero) keeps phase 1.
    """
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    q *= np.divide(diag, np.abs(diag), out=np.ones_like(diag), where=diag != 0)[:, None, :]
    return q


def haar_unitary_batch(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``n`` Haar unitary matrices (complex, n x m x m): a factored complex Ginibre draw."""
    return haar_from_ginibre(ginibre_batch(m, n, rng, real=False))


def pure_draw(
    rng: np.random.Generator, n: int, E: float, m: int, real: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The raw draw ``(d, z)`` of n random pure states with covariance trace E.

    The one layout of a pure-state Monte-Carlo block (an ``mc_blocks`` draw
    once E, m, real are bound): spectra d (``sample_d_batch``), then one
    Ginibre stack z (``ginibre_batch``), real iff the passive gates
    ``haar_from_ginibre(z)`` are to be orthogonal.
    """
    return sample_d_batch(E, m, n, rng), ginibre_batch(m, n, rng, real)


def pure_param_blocks(
    seed: int, n: int, E: float, m: int, orthogonal: bool
) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(start, X, Y, d)`` stacks for samples ``start, start + 1, ...`` < n.

    The ``mc_blocks`` of ``pure_draw`` in blocks of ``block_samples(m)`` samples;
    ``X + iY = haar_from_ginibre(z)``, factored on the kept rows (``Y = 0`` if orthogonal).
    """
    draw = partial(pure_draw, E=E, m=m, real=orthogonal)
    for start, (d, z) in mc_blocks(seed, n, block_samples(m), draw):
        u = haar_from_ginibre(z)
        yield start, u.real, u.imag, d


def pure_cm(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Pure covariance matrices ``S_U diag(d, 1/d) S_U^T``, ``S_U = [[X, Y], [-Y, X]]``.

    Takes ``x``, ``y`` of shape (..., m, m) and ``d`` of shape (..., m); returns
    symmetric (..., 2m, 2m) matrices, with an exactly zero position-momentum
    block where ``y = 0``.
    """
    s_u = _passive_matrix(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    d = np.asarray(d, dtype=float)
    # V = A A^T, A = S_U diag(d, 1/d)^(1/2): numpy runs an array times its own
    # transpose as a symmetric rank-k update, so V is exactly symmetric.
    a = s_u * np.sqrt(np.concatenate([d, 1.0 / d], axis=-1))[..., None, :]
    return a @ np.swapaxes(a, -1, -2)


def pure_xp_block(
    x: np.ndarray, y: np.ndarray, alpha: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """Position-momentum blocks ``V_xp`` of pure states of passive unitary X + iY.

    Takes (..., m, m) stacks and the shifted spectra ``alpha = d - 1`` and
    ``beta = 1/d - 1`` (..., m), and returns ``Y diag(beta) X^T - X diag(alpha)
    Y^T``: two matmuls per state, and its squared norm is the coherence.
    The block of ``pure_cm`` is ``Y D^-1 X^T - X D Y^T`` with ``D = diag(d)``;
    unitarity makes ``Y X^T = X Y^T``, which removes the identity from both
    terms.  It takes the shifted spectra rather than d because ``d - 1``
    loses digits near the vacuum: a caller that has them in closed form
    passes them unrounded.  The block is exactly 0 where ``y = 0``.
    """
    xt, yt = np.swapaxes(x, -1, -2), np.swapaxes(y, -1, -2)
    return (y * beta[..., None, :]) @ xt - (x * alpha[..., None, :]) @ yt
