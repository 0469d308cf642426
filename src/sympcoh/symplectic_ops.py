"""Symplectic gates, Gaussian channels, tensor/trace plumbing, pure-state sampling.

A gate is a pair ``(S, disp)`` acting on Gaussian states as
``V -> S V S^T``, ``d -> S d + disp``. Every gate matrix satisfies ``S Omega S^T
= Omega`` within the rounding floor of the product (:func:`is_symplectic`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .gaussian_core import (
    CovMat,
    DimensionError,
    GaussianState,
    _as_cm_array,
    _is_int,
    _require_count,
    _require_finite,
    _require_int,
    identity,
    is_free,
    require_valid,
    rounding_floor,
    symmetric_part,
    symplectic_form,
)

# Id of the map from seeds to Monte-Carlo samples, reported in every CLI
# manifest; bumped whenever a seeded sample changes (history in README).
STREAM_SCHEME = "seedseq-spawn-v7"


class GateError(ValueError):
    """Raised for non-symplectic, non-orthogonal or out-of-range gate input."""


# A gate whose squared Frobenius norm is past the float range has an infinite
# rounding floor, so no symplecticity verdict; a squeezer past _LOG_FLOAT_MAX
# has no float matrix at all.
_NORM_OVERFLOW = "squared norm of the gate matrix overflows float64"
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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


def mc_blocks(seed: int, n: int, size: int) -> Iterator[tuple[int, int, np.random.Generator]]:
    """Yield ``(start, keep, rng)`` for the blocks of Monte-Carlo samples ``0, 1, ...`` < n.

    The one block driver of every Monte-Carlo routine.  Block b holds the
    ``keep = min(size, n - start)`` samples from ``start = b size`` on (the
    block cut at n) and draws them from its own generator ``rng =
    derive_rng(seed, b)``.  The stream contract: a block draws its fills in
    a fixed order, each for the whole block of ``size`` rows; only the last
    fill it draws may stop at ``keep`` rows, and a fill the block does not
    need is not drawn, so a block may end early.  numpy's ``Generator``
    fills an array in order, so the kept rows have the bytes of the whole
    block's.  So sample j depends only on ``(seed, j // size, j % size)``:
    results are a deterministic function of the seed, different seeds give
    independent samples, and a run of n samples is a prefix of every longer
    run with the same seed and size.  Per-sample transforms, such as
    ``sample_d_batch``'s spectra, ``ginibre_from_uniforms`` and the QR of
    ``haar_from_ginibre``, run on the rows a driver still needs.
    """
    for b, start in enumerate(range(0, n, size)):
        yield start, min(size, n - start), derive_rng(seed, b)


def mean_stderr_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``values`` (reduced along the last axis): sample mean and standard error.

    Each row is divided by its own power of two, the largest not above its
    largest magnitude (``np.frexp``/``np.ldexp``).  That division is exact,
    and the scaled values are below 2 in size, so their sums and squared
    deviations stay finite for values up to the largest float; the scale
    itself is finite there too.  The standard error is ``std(ddof=1) /
    sqrt(n)`` of the scaled row, scaled back, and 0 for a single sample.
    """
    n = values.shape[-1]
    scale = np.ldexp(1.0, np.frexp(np.abs(values).max(axis=-1))[1] - 1)
    scaled = values / scale[..., None]
    mean = np.add.reduce(scaled, axis=-1) / n
    if n == 1:
        return mean * scale, np.zeros_like(mean)
    dev = np.subtract(scaled, mean[..., None], out=scaled)
    np.multiply(dev, dev, out=dev)
    se = np.sqrt(np.add.reduce(dev, axis=-1) / (n - 1)) / np.sqrt(n) * scale
    return mean * scale, se


def _product_residual_within_floor(a: np.ndarray, form: np.ndarray) -> bool:
    """Whether ``|A F A^H - F|_F`` is within ``rounding_floor(n, |A|_F^2)`` (and finite).

    Computed with overflow ignored: a residual or a norm past the float range
    (inf, or NaN where a complex product meets inf) is never within, and no
    warning precedes that verdict.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        residual = float(np.linalg.norm(a @ form @ a.conj().T - form))
        return bool(residual <= rounding_floor(a.shape[0], np.linalg.norm(a) ** 2) < np.inf)


def is_orthogonal(o: np.ndarray) -> bool:
    """True iff ``O O^H = I`` within the rounding floor of the product, in Frobenius norm.

    The one orthogonality verdict: a real ``O`` is tested for orthogonality,
    a complex one for unitarity.  A non-square input is not orthogonal.
    """
    o = np.asarray(o)
    if o.ndim != 2 or o.shape[0] != o.shape[1]:
        return False
    return _product_residual_within_floor(o, np.eye(o.shape[0]))


def is_symplectic(s: np.ndarray) -> bool:
    """True iff ``S Omega S^T = Omega`` within the rounding floor of the product, in Frobenius norm."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
        return False
    return _product_residual_within_floor(s, symplectic_form(s.shape[0] // 2))


@dataclass(frozen=True, eq=False)
class SympGate:
    """A symplectic matrix plus displacement, acting on m modes.

    Attributes:
        S: the 2m x 2m symplectic matrix (read-only copy, checked by ``_as_cm_array``).
        disp: finite length-2m displacement added after ``S`` (read-only; zeros if omitted).
        m: number of modes, set from the matrix's shape.
    """

    S: np.ndarray
    disp: np.ndarray = None
    m: int = field(init=False)

    def __post_init__(self):
        s, _ = _as_cm_array(self.S, "gate matrix")
        with np.errstate(over="ignore"):
            if not np.linalg.norm(s) ** 2 < np.inf:
                raise GateError(_NORM_OVERFLOW)
        if not is_symplectic(s):
            raise GateError("gate matrix is not symplectic (S Omega S^T != Omega)")
        object.__setattr__(self, "S", s)
        object.__setattr__(self, "disp", _displacement(self.disp, s.shape[0], "gate"))
        object.__setattr__(self, "m", s.shape[0] // 2)


def _displacement(disp, n: int, owner: str) -> np.ndarray:
    """Read-only float copy of the length-n displacement ``disp`` (zeros if ``None``).

    The one displacement check of gates and channels: a wrong length or a
    non-finite entry raises ``DimensionError`` naming ``owner``.
    """
    d = np.zeros(n) if disp is None else np.array(disp, dtype=float).ravel()
    if d.shape[0] != n:
        raise DimensionError(f"{owner} displacement must have length {n}, got {d.shape[0]}")
    if not np.isfinite(d).all():
        raise DimensionError(f"{owner} displacement must be finite")
    d.flags.writeable = False
    return d


def _check_mode(m: int, mode: int) -> None:
    _require_count("m", m)
    _require_int("mode", mode)
    if not 1 <= mode <= m:
        raise GateError(f"mode index {mode} out of range 1..{m}")


def squeezer(m: int, mode: int, r: float) -> SympGate:
    """Single-mode squeezer: ``diag(e^r, e^-r)`` on (q_mode, p_mode).

    Args:
        m: total mode count.
        mode: 1-based target mode.
        r: squeezing parameter (r = 0 is the identity).

    Raises:
        GateError: if r is NaN, or if ``|r|`` exceeds the log of the largest
            float, so that ``e^|r|`` overflows (past ``|r|`` of about 354.9
            the gate's squared norm overflows, and ``SympGate`` names it the
            same way).
    """
    _check_mode(m, mode)
    if math.isnan(r):
        raise GateError(f"squeezing parameter r must be a number, got {r}")
    if abs(r) > _LOG_FLOAT_MAX:
        raise GateError(_NORM_OVERFLOW)
    s = np.eye(2 * m)
    i = mode - 1
    s[i, i] = np.exp(r)
    s[m + i, m + i] = np.exp(-r)
    return SympGate(s)


def phase_shifter(m: int, mode: int, theta: float) -> SympGate:
    """Phase shifter ``[[cos t, sin t], [-sin t, cos t]]`` on one mode.

    ``passive_from_unitary`` of the identity with ``e^{it}`` at the mode.
    Raises ``GateError`` unless theta is finite.
    """
    _check_mode(m, mode)
    if not math.isfinite(theta):
        raise GateError(f"phase angle theta must be finite, got {theta}")
    x, y = np.eye(m), np.zeros((m, m))
    i = mode - 1
    x[i, i], y[i, i] = np.cos(theta), np.sin(theta)
    return passive_from_unitary(x, y)


def block_orthogonal(o: np.ndarray) -> SympGate:
    """Gate ``S = diag(O, O)`` for an m x m orthogonal matrix O: ``passive_from_unitary(O, 0)``."""
    return passive_from_unitary(o, np.zeros(np.shape(o)))


def passive_from_unitary(x: np.ndarray, y: np.ndarray) -> SympGate:
    """Passive gate ``S = [[X, Y], [-Y, X]]`` with ``X + iY`` unitary.

    ``SympGate``'s symplectic verdict is the unitarity check: S commutes with
    Omega, so ``S Omega S^T - Omega = Omega (S S^T - I)``, and
    ``|S S^T - I|_F = sqrt(2) |U U^H - I|_F`` for ``U = X + iY``.

    Raises:
        DimensionError: unless X and Y are square and of one shape.
        GateError: if ``X + iY`` is not unitary (orthogonal if Y = 0).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionError(f"X and Y must be square and of one shape, got {x.shape}, {y.shape}")
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


def _gaussian_action(state: GaussianState, x: np.ndarray, y, disp: np.ndarray, labels) -> GaussianState:
    """``V -> symmetric_part(X V X^T + Y)``, ``d -> X d + disp``, revalidated; no ``+ Y`` if ``y`` is None.

    The one Gaussian-channel rule of the package (Serafini, Quantum
    Continuous Variables, 2017, ch. 5): a gate is ``X = S`` with no ``Y``,
    a dilated channel ``X = diag(O_ss, O_ss)`` with its environment term.
    The inputs are finite, so an output entry past the float range is an
    overflow; the products are taken with overflow ignored and checked, so
    no warning precedes the ``NumericError``, which names the covariance or
    first-moment output by its entry of ``labels``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        v = x @ state.cov.matrix @ x.T
        v = _require_finite(v if y is None else v + y, labels[0])
        d = _require_finite(x @ state.d + disp, labels[1])
    return GaussianState(require_valid(CovMat(symmetric_part(v))), d)


def apply(gate: SympGate, state: GaussianState) -> GaussianState:
    """Apply a gate: ``V -> symmetric_part(S V S^T)``, ``d -> S d + disp``; revalidates output.

    :func:`_gaussian_action` with ``X = S`` and no ``Y``.

    Raises:
        NumericError: if ``S V S^T`` or ``S d + disp`` overflows float64.
    """
    if gate.m != state.m:
        raise DimensionError(f"gate acts on {gate.m} modes but state has {state.m}")
    return _gaussian_action(state, gate.S, None, gate.disp, ("gate output S V S^T", "gate output S d + disp"))


def require_transmissivity(eta: float) -> None:
    """Raise ``ValueError`` unless ``0 <= eta <= 1`` (so also for NaN)."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmissivity must be in [0, 1], got {eta}")


def apply_loss(cov: CovMat, eta: float) -> CovMat:
    """Pure photon loss on the covariance matrix: ``V -> eta V + (1-eta) I``.

    The output is a fresh array, finite for a finite ``V`` and ``0 <= eta <=
    1``, so the ``CovMat`` adopts it (``CovMat._adopt``) with no copy and no
    scan.  Rounding is monotone, so with ``p`` the input's ``_peak`` every
    output entry is at most ``fl(eta p) + (1 - eta)`` in size: off the
    diagonal ``|fl(eta v)| <= fl(eta p)``, and on it that plus ``1 - eta``.
    That bound is the output's ``_peak``.
    """
    require_transmissivity(eta)
    rest = 1.0 - eta
    return CovMat._adopt(eta * cov.matrix + rest * identity(2 * cov.m), eta * cov._peak + rest)


@dataclass(frozen=True)
class LossChannel:
    """Pure photon loss with transmissivity ``eta``; first moments scale by sqrt(eta)."""

    eta: float

    def __post_init__(self):
        require_transmissivity(self.eta)

    def apply_to(self, state: GaussianState) -> GaussianState:
        """``state`` through the channel: ``V -> eta V + (1 - eta) I``, ``d -> sqrt(eta) d``.

        At ``eta = 1`` that is the input itself, which is returned as it is.
        Both outputs are fresh and finite (``|sqrt(eta) d_i| <= |d_i|``), so
        the state adopts them (:func:`apply_loss`, ``GaussianState._adopt``).
        """
        if self.eta == 1.0:
            return state
        return GaussianState._adopt(apply_loss(state.cov, self.eta), math.sqrt(self.eta) * state.d)


def IdentityChannel() -> LossChannel:
    """The do-nothing channel: ``LossChannel(1.0)``, pure loss at ``eta = 1``.

    It takes no transmissivity, so ``IdentityChannel(0.5)`` is a ``TypeError``.
    """
    return LossChannel(1.0)


def _mode_rows(m: int, modes: np.ndarray) -> np.ndarray:
    """Rows of the 0-based ``modes`` in m-mode qqpp order: their positions, then their momenta."""
    return np.concatenate([modes, m + modes])


def tensor_states(a: GaussianState, b: GaussianState) -> GaussianState:
    """Tensor product of Gaussian states: A on modes 1..a, B on the modes after, in qqpp."""
    m = a.m + b.m
    cov = np.zeros((2 * m, 2 * m))
    d = np.empty(2 * m)
    for part, modes in ((a, np.arange(a.m)), (b, np.arange(a.m, m))):
        rows = _mode_rows(m, modes)
        cov[np.ix_(rows, rows)] = part.cov.matrix
        d[rows] = part.d
    return GaussianState(CovMat(cov), d)


def tensor_cm(a: CovMat, b: CovMat) -> CovMat:
    """Tensor product of covariance matrices: the covariance of :func:`tensor_states`."""
    return tensor_states(GaussianState(a), GaussianState(b)).cov


def partial_trace(state: GaussianState, keep: Sequence[int]) -> GaussianState:
    """Keep a subset of modes (1-based integer indices, ``_is_int``) by row/column selection."""
    m = state.m
    keep = list(keep)
    if not keep or any(not _is_int(k) or not 1 <= k <= m for k in keep) or len(set(keep)) != len(keep):
        raise DimensionError(f"kept modes must be distinct indices in 1..{m}")
    idx = _mode_rows(m, np.array([k - 1 for k in keep]))
    return GaussianState(CovMat(state.cov.matrix[np.ix_(idx, idx)]), state.d[idx])


def beamsplitter_orthogonal(eta: float) -> np.ndarray:
    """2x2 beam-splitter mixing matrix ``[[√eta, √(1-eta)], [-√(1-eta), √eta]]``.

    Used as the orthogonal part of the dilation realizing pure loss with a
    one-mode vacuum environment.
    """
    require_transmissivity(eta)
    root_t, root_r = np.sqrt(eta), np.sqrt(1.0 - eta)
    return np.array([[root_t, root_r], [-root_r, root_t]])


@dataclass(frozen=True, eq=False)
class StinespringChannel:
    """Dilated free channel: tensor a free environment, rotate, displace, trace.

    With the m input modes first and the k environment modes after them,
    split ``O = [[O_ss, O_se], [O_es, O_ee]]`` into blocks of m and k rows
    and columns.  The rotation sends the input's positions to ``O_ss q +
    O_se q_env`` and its momenta to ``O_ss p + O_se p_env``, and the trace
    keeps just those rows.  The environment has zero first moments and no
    correlation with the input, so the channel is the m-mode pair
    ``V -> X V X^T + Y``, ``d -> X d + disp`` with ``X = diag(O_ss, O_ss)``,
    ``Y = B V_env B^T``, ``B = diag(O_se, O_se)``, and ``disp`` the kept
    modes' rows of ``d`` (Serafini, Quantum Continuous Variables, 2017,
    ch. 5).  Construction checks every part and computes X, Y and disp once;
    each fault raises an error that names the channel.

    Attributes:
        o: (m+k) x (m+k) orthogonal matrix applied as ``diag(O, O)``, with
            m >= 1 (else ``DimensionError``; ``GateError`` if not orthogonal);
            a read-only float copy.
        env: covariance matrix of a valid k-mode free state (``is_free``),
            else construction raises ``GateError``.
        d: finite length-2(m+k) displacement applied after the rotation (else
            ``DimensionError``); a read-only float copy, zeros if omitted.

    Raises:
        NumericError: if ``Y`` overflows float64.
    """

    o: np.ndarray
    env: CovMat
    d: np.ndarray = None

    def __post_init__(self):
        if self.env.violations:
            names = ", ".join(v.name for v in self.env.violations)
            raise GateError(f"Stinespring environment is not a valid state: violates {names}")
        if not is_free(self.env):
            raise GateError("Stinespring environment is not free (nonzero position-momentum block)")
        o = np.array(self.o, dtype=float)
        if o.ndim != 2 or o.shape[0] != o.shape[1] or o.shape[0] <= self.env.m:
            raise DimensionError(
                f"Stinespring o must be n x n with n > {self.env.m}, the environment's mode count; got shape {o.shape}"
            )
        if not is_orthogonal(o):
            raise GateError("Stinespring o is not orthogonal (O O^T != I)")
        o.flags.writeable = False
        n, m = o.shape[0], o.shape[0] - self.env.m
        d = _displacement(self.d, 2 * n, "Stinespring")
        x, b = (_passive_matrix(block, np.zeros_like(block)) for block in (o[:m, :m], o[:m, m:]))
        with np.errstate(over="ignore", invalid="ignore"):
            y = _require_finite(b @ self.env.matrix @ b.T, "Stinespring environment term B V_env B^T")
        object.__setattr__(self, "o", o)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_action", (x, y, d[_mode_rows(n, np.arange(m))]))

    def apply_to(self, state: GaussianState) -> GaussianState:
        """The output state on the first m modes of the m-mode input ``state``.

        :func:`_gaussian_action` with the channel's ``(X, Y, disp)``.

        Raises:
            NumericError: if ``X V X^T + Y`` or ``X d + disp`` overflows float64.
        """
        x, y, disp = self._action
        m = x.shape[0] // 2
        if state.m != m:
            raise DimensionError(
                f"Stinespring channel acts on {m}-mode inputs ({self.o.shape[0]} modes of o, "
                f"{self.env.m} of them the environment's), but the state has {state.m}"
            )
        return _gaussian_action(state, x, y, disp, ("Stinespring output X V X^T + Y", "Stinespring output X d + disp"))


# ---------------------------------------------------------------------------
# Pure-state sampling: spectra, Haar samplers (QR with sign/phase correction)
# ---------------------------------------------------------------------------

# Entries per Monte-Carlo block: bounds memory and fixes where the blocks
# start.  Covariance entries in the pure-state drivers; in the discrimination
# driver, trials, each drawing one uniform against the model's chance of a
# wrong verdict, so a full block draws BLOCK_ENTRIES uniforms.
BLOCK_ENTRIES = 1 << 16
# Most pure-state samples per block, so that short runs draw little past their end.
MAX_BLOCK_SAMPLES = 256


def block_samples(m: int) -> int:
    """Pure-state samples per Monte-Carlo block on m modes; depends on m only."""
    return max(1, min(MAX_BLOCK_SAMPLES, BLOCK_ENTRIES // (4 * m * m)))


def require_budget(E: float, m: int) -> None:
    """Raise ``ValueError`` unless the mode count m is a count (``_require_count``) and ``2m <= E`` with ``E^2`` finite."""
    _require_count("m", m)
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
            nonnegative, and every row sums to 1 within ``rounding_floor(m, 1)``,
            the floor of an m-term sum of numbers at most 1 (so a NaN fails).
    """
    weights = np.array(weights, dtype=float)  # a copy: the spectrum is made in it
    m = weights.shape[-1]
    require_budget(E, m)
    if np.any(weights < 0.0):
        raise ValueError("weights must be nonnegative")
    if not np.all(np.abs(weights.sum(axis=-1) - 1.0) <= rounding_floor(m, 1.0)):
        raise ValueError("each row of weights must sum to 1")
    return _spectrum(E, weights)


def _spectrum(E: float, weights: np.ndarray) -> np.ndarray:
    """:func:`spectrum_from_weights` with no checks, for float weights its maker proves valid.

    Works in place on ``weights``, which ends as ``sqrt(h h + x)`` with ``x
    = (E - 2m) w`` and ``h = x/2``; the result is ``(1 + h)`` plus that
    root.  Those are the bytes of ``1 + x/2 + sqrt(x + x^2/4)``: ``x * 0.5``
    is ``x / 2``, ``(x/2)^2`` and ``x^2/4`` round alike except where they
    are subnormal, and there both vanish against x; E^2 is finite, so
    ``x^2`` is too.
    """
    x = np.multiply(weights, E - 2 * weights.shape[-1], out=weights)
    h = x * 0.5
    np.sqrt(np.add(h * h, x, out=x), out=x)
    return np.add(np.add(h, 1.0, out=h), x, out=h)


def sample_d_batch(E: float, m: int, n: int, rng: np.random.Generator, keep: int | None = None) -> np.ndarray:
    """Draw n squeezing spectra, each with ``d_i >= 1`` and ``sum(d_i + 1/d_i) = E``, cut at ``keep``.

    Row k's weights are the squared coordinates of row k of one
    ``standard_normal((n, m))`` draw projected onto the unit (m-1)-sphere,
    ``w = g^2 / sum(g^2)``, so ``sum w_i = 1``.  A row of zeros (probability
    zero) is redrawn from the same generator, which keeps the draw
    deterministic and free of NaN.  The normals and the redraw cover all n
    rows, so the generator moves as for the whole draw; the weights and
    the spectrum (``_spectrum``, in place) are computed for the first
    ``keep`` rows only (all n by default), a (keep, m) array with the bytes
    of the whole draw's first ``keep`` rows.
    Raises ``ValueError`` unless m is a count and 2m <= E with E^2 finite.
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
    weights = sq[:keep]
    weights /= total[:keep, None]
    return _spectrum(E, weights)  # nonnegative, normalised and E checked above


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


def ginibre_batch(
    m: int, n: int, rng: np.random.Generator, real: bool, columns: int | None = None, keep: int | None = None
) -> np.ndarray:
    """Stack of ``n`` Ginibre draws (n x m x columns) with i.i.d. entries of unit variance.

    ``columns`` defaults to m, a stack of square matrices that
    ``haar_from_ginibre`` factors; fewer columns draw the leading columns of
    a matrix, and a later call on the same generator can draw the rest.
    Real standard normals, or complex ``(g1 + i g2) / sqrt(2)`` with the real
    parts drawn before the imaginary ones.  With ``keep`` only the first
    ``keep`` draws are returned, and the last fill (the real stack, or the
    imaginary parts) stops there; the generator fills in order, so they have
    the bytes of the whole stack's first ``keep`` draws.
    """
    shape = (n, m, m if columns is None else columns)
    kept = (n if keep is None else keep,) + shape[1:]
    if real:
        return rng.standard_normal(kept)
    # Filled in place to save temporaries; the values are bit for bit those of
    # (g1 + 1j * g2) / sqrt(2), which the samples' streams rely on.  numpy
    # divides a complex by a real as a product with its reciprocal (Smith's
    # formula), so multiplying the float view by that reciprocal gives the
    # same bytes without the complex arithmetic.
    z = np.empty(kept, dtype=complex)
    z.real = rng.standard_normal(shape)[: kept[0]]
    z.imag = rng.standard_normal(kept)
    parts = z.view(float)
    parts *= 1.0 / np.sqrt(2.0)
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


def ginibre_from_uniforms(w: np.ndarray, real: bool) -> np.ndarray:
    """Ginibre entries of unit variance from uniform pairs ``w`` (..., 2) in [0, 1).

    The polar Box-Muller map (Box and Muller, Ann. Math. Stat. 29, 610
    (1958)): the pair ``(w0, w1)`` gives the complex entry ``sqrt(-log1p(-w0))
    e^{2 pi i w1}``, whose ``|z|^2 = -log(1 - w0)`` is Exp(1) and whose phase
    is uniform, a standard complex normal; the real entry is ``sqrt(2)`` times
    its real part, a standard normal.  The map is elementwise, so the entries
    of any rows of ``w`` are those rows of the whole stack's entries.
    """
    radius = np.sqrt(-np.log1p(-w[..., 0]))
    turn = 2.0 * np.pi * w[..., 1]
    if real:
        return radius * np.cos(turn) * math.sqrt(2.0)
    z = np.empty(radius.shape, dtype=complex)
    np.multiply(radius, np.cos(turn), out=z.real)
    np.multiply(radius, np.sin(turn), out=z.imag)
    return z


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
