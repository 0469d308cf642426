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
upper half is ``nu``, so no pairing step is needed, and together with the
Cholesky it proves a matrix valid wherever the rounding floor allows
(:attr:`CovMat.violations`); elsewhere the verdict solves the eigenvalue
margins that the floor leaves open.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

DEFAULT_TOL = 1e-9  #: absolute tolerance of every validity verdict (CovMat.violations)
PURITY_TOL = 1e-8  #: absolute tolerance of is_pure on every symplectic eigenvalue
FREE_TOL = 1e-10  #: absolute tolerance of is_free on the V_xp block
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


def symplectic_form(m: int) -> np.ndarray:
    """Return the 2m x 2m symplectic form ``[[0, I], [-I, 0]]``.

    Args:
        m: number of modes.

    Returns:
        The antisymmetric matrix ``Omega`` with ``Omega @ Omega = -I``.
    """
    if m < 1:
        raise DimensionError(f"mode count must be positive, got {m}")
    omega = np.zeros((2 * m, 2 * m))
    omega[:m, m:] = np.eye(m)
    omega[m:, :m] = -np.eye(m)
    return omega


def _as_cm_array(matrix, name: str = "covariance matrix") -> np.ndarray:
    """Read-only float 2m x 2m copy, checked for shape and finiteness; errors name the object."""
    arr = np.array(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    if arr.shape[0] % 2 != 0 or arr.shape[0] == 0:
        raise DimensionError(f"{name} must be 2m x 2m with m >= 1, got shape {arr.shape}")
    # One pass in the usual case: entries at most 1e300 / n in size are finite,
    # and no summation order of their trace can overflow.
    if not np.abs(arr).max() <= 1e300 / arr.shape[0]:
        if not np.isfinite(arr).all():
            raise DimensionError(f"{name} entries must be finite")
        with np.errstate(over="ignore"):
            if not np.isfinite(np.trace(arr)):
                raise DimensionError(f"{name} trace overflows float64")
    arr.flags.writeable = False
    return arr


def symmetric_part(v: np.ndarray) -> np.ndarray:
    """``V/2 + V^T/2``, halved first so no sum overflows; a bitwise-symmetric ``v`` itself."""
    if v.tobytes() == v.T.tobytes():
        return v
    half = 0.5 * v
    return half + half.T


def _max_gap(a: np.ndarray, b: np.ndarray) -> float:
    """``max |a - b|``, differenced on halves so that nothing overflows (inf past the float range)."""
    return 2.0 * float(np.max(np.abs(0.5 * a - 0.5 * b)))


class Violation(NamedTuple):
    """A violated covariance-matrix invariant and by how much."""

    name: str
    magnitude: float


@dataclass(frozen=True)
class CovMat:
    """A candidate covariance matrix in qqpp ordering.

    Construction checks only shape and finiteness (entries and trace); use
    :func:`validate` (report) or :func:`require_valid` (raising) for the
    physical invariants, so invalid matrices can be constructed and inspected.

    Everything behind those checks is computed at most once per instance,
    on first use, and cached: one Cholesky of the symmetric part and one
    Hermitian ``eigvalsh`` give the symplectic eigenvalues and bound the
    eigenvalue margins; the :attr:`violations` solve a margin only where
    those bounds leave it open.  Caching is sound because ``matrix`` is a
    private read-only copy of the input; every transformed matrix is a new
    ``CovMat`` with its own cache.

    Attributes:
        matrix: the 2m x 2m real matrix (read-only).
        m: number of modes, set from the matrix's shape.
    """

    matrix: np.ndarray
    m: int = field(init=False)

    def __post_init__(self):
        arr = _as_cm_array(self.matrix)
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "m", arr.shape[0] // 2)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    @cached_property
    def _sym(self) -> np.ndarray:
        """The :func:`symmetric_part` of the matrix."""
        return symmetric_part(self.matrix)

    @cached_property
    def _asymmetry(self) -> float:
        """``max |V - V^T|``, by :func:`_max_gap`, so no difference overflows."""
        if self._sym is self.matrix:
            return 0.0
        return _max_gap(self.matrix, self.matrix.T)

    @cached_property
    def _nu(self) -> np.ndarray | None:
        """Symplectic eigenvalues of the symmetric part, descending and
        read-only, or ``None`` if it is not positive definite in float64.

        With ``S = L L^T`` and ``L`` split into its position rows ``L_q`` and
        momentum rows ``L_p``, ``L^T Omega L = L_q^T L_p - L_p^T L_q``, and
        ``eigvalsh`` of ``i`` times it returns ``-nu`` then ``nu``, ascending.
        """
        try:
            low = np.linalg.cholesky(self._sym)
        except np.linalg.LinAlgError:
            return None
        m = self.m
        a = low[:m].T @ low[m:]
        try:
            spectrum = np.linalg.eigvalsh(1j * (a - a.T))
        except np.linalg.LinAlgError as exc:  # pragma: no cover - solver failure
            raise NumericError(f"eigenvalue solve failed: {exc}") from exc
        nu = spectrum[m:][::-1].copy()
        nu.flags.writeable = False
        return nu

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """Every invariant this matrix violates at ``DEFAULT_TOL``, with its magnitude.

        One pass that compares each invariant with the tolerance once.
        Symmetry (``max |V - V^T|``) and trace are compared directly.  With
        ``S = (V + V^T) / 2``, the margins ``min_eig``, ``min_vx`` and
        ``min_vp``, the smallest eigenvalues of ``S`` and of its position and
        momentum blocks, are solved only where the rounding floor below is
        not below the tolerance, and ``min_uncertainty``, that of the
        Hermitian ``S + i*Omega``, only where the uncertainty floor is not;
        elsewhere the floor proves the margin above ``-DEFAULT_TOL``, so the
        solve could not change the verdict.

        What one Cholesky and one Hermitian solve prove about the margins:
        with ``n = 2m``, ``u = eps / 2`` and ``S = (V + V^T) / 2``, a Cholesky
        that succeeds in float64 returns ``L`` with ``L L^T = S + dS`` and
        ``|dS|_2 <= (n + 1) u Tr[V]`` (Higham, Accuracy and Stability of
        Numerical Algorithms, Thm 10.3).  Taking a Hermitian eigensolver's error
        as ``n u |A|_2``, the rounding floor ``n^2 * eps * Tr[V]`` bounds both
        ``|dS|_2`` plus the error of an ``eigvalsh`` of ``S`` or ``S + i*Omega``,
        and the shift of the computed ``nu`` from the exact ``nu`` of ``L L^T``
        (``(m + n) u Tr[V]``).  Hence the margins ``min_eig``, ``min_vx`` and
        ``min_vp`` (interlacing) are at least ``-rounding_floor``.  By
        Ostrowski's theorem on ``S + i*Omega = L (I + i L^-1 Omega L^-T) L^T``,
        whose middle factor has eigenvalues ``1 +/- 1/nu``, ``min_uncertainty >=
        -rounding_floor - (1/(nu_min - rounding_floor) - 1)_+ * (Tr[V] +
        rounding_floor)``, the uncertainty floor.  Where the Cholesky fails
        both floors are ``inf``, and where ``nu_min - rounding_floor <= 0``
        the uncertainty floor is: they prove nothing.
        """
        tol, m, trace = DEFAULT_TOL, self.m, self.trace
        rounding_floor = uncertainty_floor = math.inf
        if self._nu is not None:
            rounding_floor = (2 * m) ** 2 * _EPS * trace
            nu_low = float(self._nu[-1]) - rounding_floor
            if nu_low > 0.0:
                uncertainty_floor = rounding_floor + max(0.0, 1.0 / nu_low - 1.0) * (
                    trace + rounding_floor
                )
        sym = self._sym
        min_eig = min_vx = min_vp = min_uncertainty = 0.0
        if rounding_floor >= tol:
            min_eig = float(np.linalg.eigvalsh(sym)[0])
            min_vx = float(np.linalg.eigvalsh(sym[:m, :m])[0])
            min_vp = float(np.linalg.eigvalsh(sym[m:, m:])[0])
        if uncertainty_floor >= tol:
            min_uncertainty = float(np.linalg.eigvalsh(sym + 1j * symplectic_form(m))[0])
        out: list[Violation] = []
        if self._asymmetry > tol:
            out.append(Violation("symmetry", self._asymmetry))
        if min_eig <= -tol:
            out.append(Violation("positive_definite", -min_eig))
        if min_uncertainty < -tol:
            out.append(Violation("uncertainty", -min_uncertainty))
        for name, min_blk in (("vx_positive", min_vx), ("vp_positive", min_vp)):
            if min_blk <= -tol:
                out.append(Violation(name, -min_blk))
        if trace < 2 * m - tol:
            out.append(Violation("trace_bound", 2 * m - trace))
        return tuple(out)


@dataclass(frozen=True)
class GaussianState:
    """A Gaussian state: covariance matrix plus first-moment vector.

    Attributes:
        cov: the covariance matrix.
        d: length-2m first moments ``(<q_1>...<q_m>, <p_1>...<p_m>)``.
    """

    cov: CovMat
    d: np.ndarray = field(default=None)

    def __post_init__(self):
        d = self.d
        if d is None:
            d = np.zeros(2 * self.cov.m)
        d = np.array(d, dtype=float).reshape(-1)
        if d.shape[0] != 2 * self.cov.m:
            raise DimensionError(
                f"first-moment vector must have length {2 * self.cov.m}, got {d.shape[0]}"
            )
        if not np.all(np.isfinite(d)):
            raise DimensionError("first moments must be finite")
        d.flags.writeable = False
        object.__setattr__(self, "d", d)

    @property
    def m(self) -> int:
        return self.cov.m


def vacuum_state(m: int) -> GaussianState:
    """Return the m-mode vacuum (identity covariance, zero first moments)."""
    return GaussianState(CovMat(np.eye(2 * m)))


def validate(cov: CovMat) -> list[Violation]:
    """Every covariance-matrix invariant that ``cov`` violates.

    A read of the cached :attr:`CovMat.violations`, computed once per matrix
    at ``DEFAULT_TOL``; no verdict takes another tolerance.

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
    return float((np.trace(state.cov.matrix) + state.d @ state.d) / 4.0)


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
    nu = cov._nu
    if nu is None:
        raise NumericError(
            "covariance matrix is not positive definite in float64 (its Cholesky "
            "factorisation failed), so its symplectic eigenvalues are undefined"
        )
    return nu.copy()


def is_pure(cov: CovMat) -> bool:
    """True iff every symplectic eigenvalue equals 1 within ``PURITY_TOL``.

    Raises:
        NumericError: as :func:`symplectic_eigenvalues`.
    """
    nu = symplectic_eigenvalues(cov)
    return float(np.max(np.abs(nu - 1.0))) <= PURITY_TOL


def is_free(cov: CovMat) -> bool:
    """Whether every position-momentum covariance entry is within ``FREE_TOL`` of 0.

    The one free-state verdict: a free state has zero symplectic coherence,
    and its virtual image is classical-quantum
    (:func:`sympcoh.discord_map.is_classical_quantum` is this test).
    """
    return bool(np.max(np.abs(cov.matrix[: cov.m, cov.m :])) <= FREE_TOL)


def mix_states(components: Sequence[tuple[float, GaussianState]]) -> GaussianState:
    """Covariance matrix and first moments of a convex mixture.

    Uses the exact second-moment bookkeeping
    ``V = sum_i w_i (V_i + d_i d_i^T) - d_bar d_bar^T`` with
    ``d_bar = sum_i w_i d_i``; for components with differing first moments
    the mixture picks up extra (possibly position-momentum) correlations.

    Args:
        components: pairs ``(weight, state)``; weights must be nonnegative
            and sum to 1 within 1e-12.

    Returns:
        The Gaussian-moment description of the mixture (V a :func:`symmetric_part`).
    """
    if not components:
        raise ValueError("mixture needs at least one component")
    weights = np.array([w for w, _ in components], dtype=float)
    if np.any(weights < 0) or abs(float(weights.sum()) - 1.0) > 1e-12:
        raise ValueError("mixture weights must be nonnegative and sum to 1")
    m = components[0][1].m
    if any(s.m != m for _, s in components):
        raise DimensionError("all mixture components must have the same mode count")
    d_bar = np.zeros(2 * m)
    second = np.zeros((2 * m, 2 * m))
    for w, s in components:
        d_bar += w * s.d
        second += w * (s.cov.matrix + np.outer(s.d, s.d))
    return GaussianState(CovMat(symmetric_part(second - np.outer(d_bar, d_bar))), d_bar)


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
    """Write a state as a covariance-matrix JSON document (or CSV matrix)."""
    if path.endswith(".csv"):
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in state.cov.matrix:
            writer.writerow([repr(float(x)) for x in row])
        payload = buf.getvalue()
    else:
        payload = json.dumps(state_to_dict(state), indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(payload)
