"""Validated covariance matrices and Gaussian states of bosonic modes.

Conventions used throughout the package:

* quadrature ordering ``(q_1 ... q_m, p_1 ... p_m)`` ("qqpp"),
* ``hbar = 2``, so the vacuum covariance matrix is the identity,
* the symplectic form is ``Omega = [[0, I], [-I, 0]]``.

A covariance matrix ``V`` is valid iff it is symmetric, positive definite,
satisfies the uncertainty relation ``V + i*Omega >= 0`` (as a Hermitian
matrix), has positive-definite diagonal blocks, and ``Tr[V] >= 2m``.

The read side rests on one factorisation per matrix: the Cholesky factor
``L`` of the symmetric part ``(V + V^T) / 2 = L L^T`` and the Hermitian
matrix ``i L^T Omega L``, whose eigenvalues are exactly ``+/- nu`` for the
Williamson symplectic eigenvalues ``nu`` (Weedbrook et al., Rev. Mod. Phys.
84, 621 (2012); Bhatia and Jain, J. Math. Phys. 56, 112201 (2015)).  Its
upper half is ``nu``, so no pairing step is needed.

Each :class:`CovMat` computes every derived quantity once and caches it on
the instance: the trace, that Cholesky, one stacked Hermitian eigensolve of
``i L^T Omega L`` and ``S + i*Omega`` together (the Williamson spectrum and
the uncertainty spectrum), the sum of squared position-momentum entries,
and its virtual image ``V / Tr V``.

Every verdict of the package compares a residual with one :func:`rounding_floor`.
A negative verdict is proven: the exact property fails by more than the floor.
A positive verdict means "within the floor".
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

_EPS = sys.float_info.epsilon

#: Identifier stored in every covariance-matrix JSON document.
CM_FORMAT = "sympcoh-cm-v1"
CM_ORDERING = "qqpp"
CM_HBAR = 2


class DimensionError(ValueError):
    """Raised for non-square, odd-dimension or mismatched inputs."""


class ValidationError(ValueError):
    """Raised when a covariance matrix violates a named invariant."""

    def __init__(self, violations: "list[Violation]"):
        self.violations = list(violations)
        names = ", ".join(v.name for v in self.violations)
        super().__init__(f"invalid covariance matrix: violated invariant(s) {names}")


class NumericError(RuntimeError):
    """Raised when a factorisation or eigenvalue solve fails, such as the
    Cholesky of a matrix that is not positive definite in float64."""


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, not a bool: the one integer rule."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _require_int(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer (``_is_int``).

    For seeds and mode indices, and through :func:`_require_count` for every
    count: a float such as 1.5 would otherwise be cut to the stream of
    another seed, or index the wrong row.
    """
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {type(value).__name__} {value!r}")


def _require_count(name: str, value, error: type[ValueError] = ValueError) -> None:
    """Raise an error naming ``name`` unless ``value`` is an integer (``_require_int``) and >= 1.

    The one count rule: mode counts, sample counts and trial counts.  A
    value below 1 raises ``error``: the matrix builders of this module name a
    mode count below 1 a ``DimensionError``, everything else a ``ValueError``.
    """
    _require_int(name, value)
    if value < 1:
        raise error(f"{name} must be >= 1, got {value}")


@lru_cache(maxsize=None, typed=True)  # typed: a bool m is not the cached int
def symplectic_form(m: int) -> np.ndarray:
    """Return the 2m x 2m symplectic form ``[[0, I], [-I, 0]]``, read-only and built once per m.

    Args:
        m: number of modes.

    Returns:
        The antisymmetric matrix ``Omega`` with ``Omega @ Omega = -I``.
    """
    _require_count("m", m, DimensionError)
    omega = np.zeros((2 * m, 2 * m))
    omega[:m, m:] = np.eye(m)
    omega[m:, :m] = -np.eye(m)
    omega.flags.writeable = False
    return omega


@lru_cache(maxsize=None)
def _i_omega(m: int) -> np.ndarray:
    """``1j * symplectic_form(m)``, read-only and built once per m."""
    i_omega = 1j * symplectic_form(m)
    i_omega.flags.writeable = False
    return i_omega


@lru_cache(maxsize=None)
def identity(n: int) -> np.ndarray:
    """The n x n identity, read-only and built once per n."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _as_cm_array(matrix, name: str = "covariance matrix") -> tuple[np.ndarray, float]:
    """Read-only float 2m x 2m copy, checked for shape and finiteness, and its
    largest entry magnitude; errors name the object."""
    arr = np.array(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] % 2 != 0 or arr.shape[0] == 0:
        raise DimensionError(f"{name} must be 2m x 2m with m >= 1, got shape {arr.shape}")
    peak = np.abs(arr).max()
    _require_in_range(arr, peak, name)
    arr.flags.writeable = False
    return arr, peak


def _require_in_range(arr: np.ndarray, peak: float, name: str) -> None:
    """Raise ``DimensionError`` naming the object unless ``arr``'s entries and
    trace are finite, for an ``arr`` whose entries are at most ``peak`` in size.

    No pass in the usual case: entries at most 1e300 / n in size are finite,
    and no summation order of their trace can overflow.
    """
    if not peak <= 1e300 / arr.shape[0]:
        if not np.isfinite(arr).all():
            raise DimensionError(f"{name} entries must be finite")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.trace(arr)):
                raise DimensionError(f"{name} trace overflows float64")


def symmetric_part(v: np.ndarray) -> np.ndarray:
    """``V/2 + V^T/2``, halved first so no sum overflows; a bitwise-symmetric ``v`` itself."""
    if v.tobytes() == v.T.tobytes():
        return v
    half = 0.5 * v
    return half + half.T


def _max_gap(a: np.ndarray, b: np.ndarray) -> float:
    """``max |a - b|``, differenced on halves so that nothing overflows (inf past the float range)."""
    return 2.0 * float(np.max(np.abs(0.5 * a - 0.5 * b)))


def rounding_floor(n: int, scale: float) -> float:
    """``(n + 2)^2 * eps * scale``: the one floor every verdict compares its residual with.

    ``n`` is the dimension of the computation and ``scale`` the magnitude the
    residual is computed from (``Tr V`` for a margin of ``V``, ``|S|_F^2`` for
    ``S A S^T``).  It exceeds the rounding of a Cholesky, a Hermitian eigensolve
    and an n-term product at that scale (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.3 and Sec. 3.5).
    """
    return (n + 2) ** 2 * _EPS * scale


#: Below this ``x^2`` is at most a quarter of the float range.
_SAFE_SQ_ROOT = math.sqrt(sys.float_info.max) / 2


def _frobenius_sq(a: np.ndarray, peak: float, quantity: str) -> float:
    """``sum a^2`` for an ``a`` drawn from a covariance matrix ``V`` whose
    largest entry magnitude is ``peak``: a block of ``V``, its distance to
    the free set, or ``Tr V`` times a block of ``V / Tr V``.

    Every entry of ``a`` is at most ``peak`` in size (up to rounding), so the
    sum is at most ``(a.size * peak)^2``, for any matrix.  Where that is below
    a quarter of the float range (``peak <= _SAFE_SQ_ROOT / a.size``) the sum
    is finite and taken with no guard; above it, it is taken with overflow
    ignored and checked, so no overflow warning precedes the error.

    Raises:
        NumericError: naming ``quantity`` if the sum overflows float64.
    """
    if peak <= _SAFE_SQ_ROOT / a.size:
        total = float((a * a).sum())
    else:
        with np.errstate(over="ignore"):
            total = float((a * a).sum())
    if not math.isfinite(total):
        raise NumericError(f"{quantity} overflows float64")
    return total


def _require_finite(a: np.ndarray, quantity: str) -> np.ndarray:
    """``a`` itself, or ``NumericError`` naming ``quantity`` if an entry is not finite.

    For a product of finite inputs taken with overflow and invalid ignored:
    a non-finite entry (inf, or NaN from ``inf - inf``) is an overflow, and
    no warning precedes the error.
    """
    if not np.isfinite(a).all():
        raise NumericError(f"{quantity} overflows float64")
    return a


def _gap_exceeds_floor(a, b, n: int) -> bool:
    """Whether ``max |a - b|`` exceeds the rounding floor of the entries it differences.

    Two arrays go through :func:`_max_gap`; two scalars take the same
    arithmetic on Python numbers, with no numpy call: ``2 |a/2 - b/2|``
    against the floor of the larger magnitude.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return bool(_max_gap(a, b) > rounding_floor(n, max(np.max(np.abs(a)), np.max(np.abs(b)))))
    return bool(2.0 * abs(0.5 * a - 0.5 * b) > rounding_floor(n, max(abs(a), abs(b))))


class _cached_property:
    """``functools.cached_property`` with no lock: computed on first access, then read from the instance.

    The first access calls ``func`` and stores its value in the instance
    ``__dict__`` under the attribute's name; that entry shadows this
    non-data descriptor, so every later access is a plain attribute read.
    That is ``cached_property`` as Python 3.12 runs it; on 3.10 and 3.11 each
    first access also takes one lock that every instance shares.  Two
    threads racing on a first access both compute the value, and it is the
    same value: a cached quantity depends only on its instance's read-only
    matrix.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class Violation(NamedTuple):
    """A violated covariance-matrix invariant and by how much."""

    name: str
    magnitude: float


@dataclass(frozen=True, eq=False)
class CovMat:
    """A candidate covariance matrix in qqpp ordering.

    Construction checks only shape and finiteness (entries and trace); use
    :func:`validate` (report) or :func:`require_valid` (raising) for the
    physical invariants, so invalid matrices can be constructed and inspected.

    Everything behind those checks is computed at most once per instance,
    on first use, and cached: the trace, one Cholesky of the symmetric part
    ``S``, one ``eigvalsh`` call on the stacked pair of Hermitian matrices
    behind the symplectic eigenvalues and behind validity and purity
    (``S + i*Omega`` alone where the Cholesky fails), and the sum of squared
    position-momentum entries.  The virtual image ``V / Tr V``
    (:func:`sympcoh.discord_map.to_density`) is kept in the same instance
    dict.  Caching is sound because ``matrix`` is a private read-only copy of
    the input; every transformed matrix is a new ``CovMat`` with its own cache.
    ``_peak`` is an upper bound on every entry's magnitude, so it bounds every
    sum of squares of entries (``_frobenius_sq``): the largest magnitude,
    which construction scans anyway, or for a matrix taken by :meth:`_adopt`
    the bound its maker proves.

    Attributes:
        matrix: the 2m x 2m real matrix (read-only).
        m: number of modes, set from the matrix's shape.
    """

    matrix: np.ndarray
    m: int = field(init=False)

    def __post_init__(self):
        self._take(*_as_cm_array(self.matrix))

    def _take(self, arr: np.ndarray, peak: float) -> None:
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "_peak", peak)
        object.__setattr__(self, "m", arr.shape[0] // 2)

    @classmethod
    def _adopt(cls, arr: np.ndarray, peak: float) -> CovMat:
        """A ``CovMat`` that takes the fresh float 2m x 2m ``arr`` as its matrix, with no copy.

        For a maker that has just computed ``arr``, holds no other reference
        to it, and proves its entries finite and at most ``peak`` in size.
        So no scan runs, and the finiteness pass of :func:`_as_cm_array` only
        where ``peak`` is past 1e300 / n, for the trace.
        """
        _require_in_range(arr, peak, "covariance matrix")
        arr.flags.writeable = False
        cov = object.__new__(cls)
        cov._take(arr, peak)
        return cov

    @_cached_property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    @_cached_property
    def xp_norm_sq(self) -> float:
        """``sum V_xp^2``, the squared Frobenius norm of the position-momentum
        block: the symplectic coherence.  At most ``(Tr V)^2 / 2`` for a valid ``V``.

        Raises:
            NumericError: if it overflows float64.
        """
        m = self.m
        return _frobenius_sq(
            self.matrix[:m, m:], self._peak, "symplectic coherence (sum of squared V_xp entries)"
        )

    @_cached_property
    def floor(self) -> float:
        """``rounding_floor(2m, |Tr V|)``, the floor of every verdict on this matrix."""
        return rounding_floor(2 * self.m, abs(self.trace))

    @_cached_property
    def _sym(self) -> np.ndarray:
        """The :func:`symmetric_part` of the matrix."""
        return symmetric_part(self.matrix)

    @_cached_property
    def _spectra(self) -> tuple[np.ndarray | None, np.ndarray]:
        """The symplectic eigenvalues and the spectrum of ``S + i*Omega``, from one eigensolve.

        The first is descending and read-only, or ``None`` if ``S`` is not
        positive definite in float64.  With ``S = L L^T`` and ``L`` split into
        its position rows ``L_q`` and momentum rows ``L_p``,
        ``L^T Omega L = L_q^T L_p - L_p^T L_q``, and ``eigvalsh`` of ``i``
        times it returns ``-nu`` then ``nu``, ascending.

        The second is ascending, congruent (Williamson) to ``diag(nu, nu) +
        i*Omega`` with eigenvalues ``nu_k -/+ 1``: by Sylvester's law of inertia
        its first entry is the uncertainty margin, and its first m are all 0
        iff ``V`` is pure.

        Both Hermitian matrices go into one preallocated (2, 2m, 2m) buffer
        and one ``eigvalsh`` call, which solves each as a call of its own
        would.  Where the Cholesky fails, ``S + i*Omega`` is solved alone.
        """
        m, sym = self.m, self._sym
        try:
            low = np.linalg.cholesky(sym)
        except np.linalg.LinAlgError:
            return None, np.linalg.eigvalsh(sym + _i_omega(m))
        a = low[:m].T @ low[m:]
        pair = np.empty((2, 2 * m, 2 * m), dtype=complex)
        np.multiply(1j, a - a.T, out=pair[0])
        np.add(sym, _i_omega(m), out=pair[1])
        try:
            williamson, uncertainty = np.linalg.eigvalsh(pair)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - solver failure
            raise NumericError(f"eigenvalue solve failed: {exc}") from exc
        nu = williamson[m:][::-1].copy()
        nu.flags.writeable = False
        return nu, uncertainty

    @_cached_property
    def violations(self) -> tuple[Violation, ...]:
        """Every invariant this matrix violates, with its magnitude.

        Each margin is compared with :attr:`floor` once: the asymmetry, the
        trace's gap to 2m, the smallest eigenvalue of ``S + i*Omega`` and those
        of ``S = (V + V^T) / 2``, ``S_x`` and ``S_p``.  A Cholesky that succeeds
        gives ``L L^T = S + dS`` with ``|dS|_2 <= (2m + 1) eps/2 Tr V`` (Higham,
        Thm 10.3), which proves the last three above ``-floor`` (with
        interlacing), so they are solved only where the Cholesky fails.
        """
        m, trace, floor, sym = self.m, self.trace, self.floor, self._sym
        # max |V - V^T| by _max_gap, so no difference overflows
        asymmetry = 0.0 if sym is self.matrix else _max_gap(self.matrix, self.matrix.T)
        nu, uncertainty = self._spectra
        min_eig = min_vx = min_vp = 0.0
        if nu is None:
            min_eig = float(np.linalg.eigvalsh(sym)[0])
            min_vx = float(np.linalg.eigvalsh(sym[:m, :m])[0])
            min_vp = float(np.linalg.eigvalsh(sym[m:, m:])[0])
        min_uncertainty = float(uncertainty[0])
        out: list[Violation] = []
        if asymmetry > floor:
            out.append(Violation("symmetry", asymmetry))
        if min_eig <= -floor:
            out.append(Violation("positive_definite", -min_eig))
        if min_uncertainty < -floor:
            out.append(Violation("uncertainty", -min_uncertainty))
        for name, min_blk in (("vx_positive", min_vx), ("vp_positive", min_vp)):
            if min_blk <= -floor:
                out.append(Violation(name, -min_blk))
        if trace < 2 * m - floor:
            out.append(Violation("trace_bound", 2 * m - trace))
        return tuple(out)


@dataclass(frozen=True, eq=False)
class GaussianState:
    """A Gaussian state: covariance matrix plus first-moment vector.

    Attributes:
        cov: the covariance matrix.
        d: length-2m first moments ``(<q_1>...<q_m>, <p_1>...<p_m>)``.
    """

    cov: CovMat
    d: np.ndarray = field(default=None)

    def __post_init__(self):
        n = 2 * self.cov.m
        if self.d is None:
            d = np.zeros(n)
        else:
            d = np.array(self.d, dtype=float).reshape(-1)
            if d.shape[0] != n:
                raise DimensionError(f"first-moment vector must have length {n}, got {d.shape[0]}")
            if not np.isfinite(d).all():
                raise DimensionError("first moments must be finite")
        d.flags.writeable = False
        object.__setattr__(self, "d", d)

    @classmethod
    def _adopt(cls, cov: CovMat, d: np.ndarray) -> GaussianState:
        """A state that takes the fresh float vector ``d`` as its first moments, with no copy.

        For a maker that has just computed ``d``, of length 2m, holds no other
        reference to it, and proves its entries finite; nothing is checked.
        """
        d.flags.writeable = False
        state = object.__new__(cls)
        object.__setattr__(state, "cov", cov)
        object.__setattr__(state, "d", d)
        return state

    @property
    def m(self) -> int:
        return self.cov.m


def vacuum_state(m: int) -> GaussianState:
    """Return the m-mode vacuum (identity covariance, zero first moments)."""
    _require_count("m", m, DimensionError)
    return GaussianState(CovMat(np.eye(2 * m)))


def validate(cov: CovMat) -> list[Violation]:
    """Every covariance-matrix invariant that ``cov`` violates.

    A read of the cached :attr:`CovMat.violations`, computed once per matrix
    at ``cov.floor``; no verdict takes a tolerance.

    Returns:
        An empty list iff all invariants hold; otherwise one entry per
        violated invariant with the violation magnitude.
    """
    return list(cov.violations)


def is_valid(cov: CovMat) -> bool:
    """True iff ``cov`` violates no invariant (:attr:`CovMat.violations` is empty)."""
    return not cov.violations


def require_valid(cov: CovMat) -> CovMat:
    """Return ``cov`` unchanged, raising :class:`ValidationError` if it violates an invariant."""
    if cov.violations:
        raise ValidationError(cov.violations)
    return cov


def blocks(cov: CovMat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split V into its position/momentum blocks.

    Args:
        cov: covariance matrix ``[[V_x, V_xp], [V_xp^T, V_p]]``.

    Returns:
        ``(V_x, V_p, V_xp)`` as m x m arrays (copies).
    """
    m = cov.m
    v = cov.matrix
    return v[:m, :m].copy(), v[m:, m:].copy(), v[:m, m:].copy()


def assemble(v_x: np.ndarray, v_p: np.ndarray, v_xp: np.ndarray) -> CovMat:
    """Inverse of :func:`blocks`: reassemble a covariance matrix bit-exactly."""
    v_x = np.asarray(v_x, dtype=float)
    v_p = np.asarray(v_p, dtype=float)
    v_xp = np.asarray(v_xp, dtype=float)
    m = v_x.shape[0]
    if v_x.shape != (m, m) or v_p.shape != (m, m) or v_xp.shape != (m, m):
        raise DimensionError("all three blocks must be m x m")
    full = np.empty((2 * m, 2 * m))
    full[:m, :m] = v_x
    full[m:, m:] = v_p
    full[:m, m:] = v_xp
    full[m:, :m] = v_xp.T
    return CovMat(full)


def mean_energy(state: GaussianState) -> float:
    """Mean energy ``(Tr[V] + d.d) / 4`` of a Gaussian state.

    With hbar = 2 the vacuum has energy m/2 (ground-state energy of m modes).
    """
    return float((state.cov.trace + state.d @ state.d) / 4.0)


def symplectic_eigenvalues(cov: CovMat) -> np.ndarray:
    """Williamson symplectic eigenvalues, sorted descending.

    The upper half of the spectrum of the Hermitian matrix ``i L^T Omega L``,
    with ``L`` the Cholesky factor of the symmetric part; computed once per
    ``CovMat`` and cached (sound because its matrix is read-only).

    Args:
        cov: a valid covariance matrix.

    Returns:
        Array of m values ``nu_1 >= ... >= nu_m`` (all >= 1 for valid input).

    Raises:
        NumericError: if the symmetric part is not positive definite in
            float64 (its Cholesky fails), or the solve fails.
    """
    nu = cov._spectra[0]
    if nu is None:
        raise NumericError(
            "covariance matrix is not positive definite in float64 (its Cholesky "
            "factorisation failed), so its symplectic eigenvalues are undefined"
        )
    return nu.copy()


def is_pure(cov: CovMat) -> bool:
    """True iff the m smallest eigenvalues of ``S + i*Omega`` are within ``cov.floor`` of 0.

    Exactly, they are all 0 iff every symplectic eigenvalue is 1.  The
    verdict needs no Cholesky factor (where it fails, ``S + i*Omega`` is
    solved alone), so it holds where :func:`symplectic_eigenvalues` raises:
    on a pure state whose smallest eigenvalue (about 1/Tr V) is below its
    rounding.  Each entry is compared
    as a Python float, so a NaN is never within the floor.
    """
    floor = cov.floor
    return all(abs(x) <= floor for x in cov._spectra[1][: cov.m].tolist())


def is_free(cov: CovMat) -> bool:
    """Whether every position-momentum covariance entry is within ``cov.floor`` of 0.

    The one free-state verdict: a free state has zero symplectic coherence,
    and its virtual image is classical-quantum
    (:func:`sympcoh.discord_map.is_classical_quantum` is this verdict on ``V / Tr V``).
    """
    return bool(np.max(np.abs(cov.matrix[: cov.m, cov.m :])) <= cov.floor)


def mix_states(components: Sequence[tuple[float, GaussianState]]) -> GaussianState:
    """Covariance matrix and first moments of a convex mixture.

    Uses the exact second-moment bookkeeping
    ``V = sum_i w_i (V_i + d_i d_i^T) - d_bar d_bar^T`` with
    ``d_bar = sum_i w_i d_i``; for components with differing first moments
    the mixture picks up extra (possibly position-momentum) correlations.

    Args:
        components: pairs ``(weight, state)``; weights must be nonnegative
            and sum to 1 within ``rounding_floor(n, 1)`` for n components
            (a NaN weight fails both).

    Returns:
        The Gaussian-moment description of the mixture (V a :func:`symmetric_part`).

    Raises:
        NumericError: if V overflows float64 (taken with overflow ignored,
            so no warning precedes the error); an overflowing ``d_bar``
            overflows V too, through ``d_bar d_bar^T``.
    """
    if not components:
        raise ValueError("mixture needs at least one component")
    weights = np.array([w for w, _ in components], dtype=float)
    sum_gap = abs(float(weights.sum()) - 1.0)
    if not (weights >= 0).all() or not sum_gap <= rounding_floor(len(weights), 1.0):
        raise ValueError("mixture weights must be nonnegative and sum to 1")
    m = components[0][1].m
    if any(s.m != m for _, s in components):
        raise DimensionError("all mixture components must have the same mode count")
    d_bar = np.zeros(2 * m)
    second = np.zeros((2 * m, 2 * m))
    with np.errstate(over="ignore", invalid="ignore"):
        for w, s in components:
            d_bar += w * s.d
            second += w * (s.cov.matrix + np.outer(s.d, s.d))
        v = _require_finite(second - np.outer(d_bar, d_bar), "mixture covariance matrix")
    return GaussianState(CovMat(symmetric_part(v)), d_bar)


# ---------------------------------------------------------------------------
# File formats: JSON document and bare CSV
# ---------------------------------------------------------------------------


def state_to_dict(state: GaussianState) -> dict:
    """Serialize a state to the covariance-matrix JSON document."""
    doc = {
        "format": CM_FORMAT,
        "ordering": CM_ORDERING,
        "hbar": CM_HBAR,
        "m": state.m,
        "matrix": state.cov.matrix.tolist(),
    }
    if np.any(state.d != 0.0):
        doc["displacement"] = state.d.tolist()
    return doc


_KIND_NAMES = {float: "a number", int: "an integer", bool: "a boolean"}


def _field_error(key: str, what: str, value) -> ValueError:
    return ValueError(
        f"field {key!r} must be {what}, got {type(value).__name__} "
        f"{json.dumps(value, default=repr)[:40]}"
    )


def _scalar(doc: dict, key: str, kind: type = float):
    """``doc[key]`` as a finite float, an int or a bool (``kind``).

    No coercion between JSON types: a float field takes a finite number, an
    int field an integral number, and a bool field only a boolean; neither
    number kind takes a boolean.  Anything else, such as a JSON string, list,
    object or null, raises ``ValueError`` naming the field.
    """
    value = doc[key]
    number = None
    if isinstance(value, (int, float)) and isinstance(value, bool) == (kind is bool):
        try:
            number = kind(value)
        except (ValueError, OverflowError):  # int of NaN or inf, float of a huge int
            pass
    ok = number is not None and (math.isfinite(number) if kind is float else number == value)
    if not ok:
        raise _field_error(key, _KIND_NAMES[kind], value)
    return number


def _array(doc: dict, key: str) -> np.ndarray:
    """``np.asarray(doc[key], dtype=float)``; a value that is not a (nested)
    list of numbers, such as a JSON object, raises ``ValueError`` naming the field."""
    value = doc[key]
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise _field_error(key, "an array of numbers", value) from None


def state_from_dict(doc: dict, m: int | None = None) -> GaussianState:
    """Parse the covariance-matrix JSON document (no physical validation).

    The document may be bare or a CLI envelope around one, ``{"result":
    <document>, ...}``, so every reader takes a saved CLI output.
    ``matrix`` and the optional ``displacement`` must be arrays of numbers
    and the optional ``m`` an integer; a field of another type raises
    ``ValueError`` naming it.  ``m``, if given, is an expected mode count,
    cross-checked like the document's own.
    """
    if not isinstance(doc, dict):
        raise ValueError("covariance-matrix document must be a JSON object")
    result = doc.get("result")
    if isinstance(result, dict) and "format" in result:
        doc = result
    fmt = doc.get("format")
    if fmt != CM_FORMAT:
        raise ValueError(f"unsupported document format {fmt!r}, expected {CM_FORMAT!r}")
    if doc.get("ordering", CM_ORDERING) != CM_ORDERING:
        raise ValueError(f"unsupported quadrature ordering {doc.get('ordering')!r}")
    if doc.get("hbar", CM_HBAR) != CM_HBAR:
        raise ValueError(f"unsupported hbar convention {doc.get('hbar')!r}")
    cov = CovMat(_array(doc, "matrix"))
    doc_m = None if doc.get("m") is None else _scalar(doc, "m", int)
    for expected in (doc_m, m):
        if expected is not None and expected != cov.m:
            raise DimensionError(f"expected m={expected}, the matrix has m={cov.m}")
    disp = None if doc.get("displacement") is None else _array(doc, "displacement")
    return GaussianState(cov, disp)


def load_state(path: str, m: int | None = None) -> GaussianState:
    """Load a state from a JSON document or a bare CSV matrix.

    Args:
        path: file path; ``.csv`` files are read as a raw 2m x 2m matrix
            (zero first moments), anything else as the JSON document, bare
            or in a CLI envelope (:func:`state_from_dict`).
        m: optional expected mode count, cross-checked against the file.

    Returns:
        The parsed state. Physical validity is *not* checked here.
    """
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            rows = [[float(x) for x in row] for row in csv.reader(fh) if row]
        doc = {"format": CM_FORMAT, "matrix": rows}
    else:
        with open(path) as fh:
            doc = json.load(fh)
    return state_from_dict(doc, m)


def save_state(state: GaussianState, path: str) -> None:
    """Write a state as a covariance-matrix JSON document, or as a CSV matrix.

    Raises:
        ValueError: for a ``.csv`` path and a nonzero displacement, which a
            CSV file, holding only the matrix, cannot keep.
    """
    if path.endswith(".csv"):
        if state.d.any():
            raise ValueError(f"a CSV file holds only the matrix, not the displacement d = {state.d.tolist()}")
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in state.cov.matrix:
            writer.writerow([repr(float(x)) for x in row])
        payload = buf.getvalue()
    else:
        payload = json.dumps(state_to_dict(state), indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(payload)
