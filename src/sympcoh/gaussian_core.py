"""Validated covariance matrices and Gaussian states of bosonic modes.

Conventions used throughout the package:

* quadrature ordering ``(q_1 ... q_m, p_1 ... p_m)`` ("qqpp"),
* ``hbar = 2``, so the vacuum covariance matrix is the identity,
* the symplectic form is ``Omega = [[0, I], [-I, 0]]``.

A covariance matrix ``V`` is valid iff it is symmetric, positive definite,
satisfies the uncertainty relation ``V + i*Omega >= 0`` (as a Hermitian
matrix), has positive-definite diagonal blocks, and ``Tr[V] >= 2m``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

#: Default absolute tolerance for eigenvalue-based validity checks.
DEFAULT_TOL = 1e-9

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
    """Raised when an eigenvalue solve fails or pairing is ambiguous."""


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


def _as_cm_array(matrix) -> np.ndarray:
    """Coerce input to a float 2m x 2m array, checking shape only."""
    arr = np.array(matrix, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"covariance matrix must be square, got shape {arr.shape}")
    if arr.shape[0] % 2 != 0 or arr.shape[0] == 0:
        raise DimensionError(
            f"covariance matrix must be 2m x 2m with m >= 1, got shape {arr.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise DimensionError("covariance matrix entries must be finite")
    arr.flags.writeable = False
    return arr


class Margins(NamedTuple):
    """Tolerance-free validity margins of a covariance matrix.

    Attributes:
        asymmetry: ``max |V - V^T|``.
        min_eig: smallest eigenvalue of the symmetric part ``(V + V^T) / 2``.
        min_uncertainty: smallest eigenvalue of the Hermitian matrix
            ``(V + V^T) / 2 + i*Omega``.
        min_vx: smallest eigenvalue of the symmetric part's position block.
        min_vp: smallest eigenvalue of the symmetric part's momentum block.
        trace: ``Tr[V]``.
    """

    asymmetry: float
    min_eig: float
    min_uncertainty: float
    min_vx: float
    min_vp: float
    trace: float


@dataclass(frozen=True)
class CovMat:
    """A candidate covariance matrix in qqpp ordering.

    Construction checks only shape/finiteness; use :func:`validate` (report)
    or :func:`require_valid` (raising) for the physical invariants, so that
    invalid matrices can still be constructed and inspected.

    The eigen data behind those checks (:attr:`margins`, and
    :attr:`williamson_moduli` for :func:`symplectic_eigenvalues`) is
    computed at most once per instance, on first use, and cached.  That is
    sound because ``matrix`` is a private read-only copy of the input;
    every transformed matrix is a new ``CovMat`` with its own cache.

    Attributes:
        matrix: the 2m x 2m real matrix (read-only).
        m: number of modes.
        tol: default absolute tolerance for validity checks.
    """

    matrix: np.ndarray
    m: int = field(default=0)
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        arr = _as_cm_array(self.matrix)
        object.__setattr__(self, "matrix", arr)
        object.__setattr__(self, "m", arr.shape[0] // 2)

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))

    @cached_property
    def margins(self) -> Margins:
        """The eigenvalue and trace margins that :func:`validate` compares.

        The uncertainty relation is evaluated in complex arithmetic on the
        Hermitian matrix ``(V + V^T) / 2 + i*Omega``.
        """
        v = self.matrix
        m = self.m
        sym = 0.5 * (v + v.T)
        return Margins(
            asymmetry=float(np.max(np.abs(v - v.T))),
            min_eig=float(np.linalg.eigvalsh(sym)[0]),
            min_uncertainty=float(np.linalg.eigvalsh(sym + 1j * symplectic_form(m))[0]),
            min_vx=float(np.linalg.eigvalsh(sym[:m, :m])[0]),
            min_vp=float(np.linalg.eigvalsh(sym[m:, m:])[0]),
            trace=float(np.trace(v)),
        )

    @cached_property
    def williamson_moduli(self) -> np.ndarray:
        """Moduli of the imaginary parts of ``eig(Omega V)``, sorted descending.

        Length 2m and read-only; for a valid matrix they come in equal pairs,
        one per symplectic eigenvalue.

        Raises:
            NumericError: if the eigenvalue solve fails.
        """
        try:
            eigs = np.linalg.eigvals(symplectic_form(self.m) @ self.matrix)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - solver failure
            raise NumericError(f"eigenvalue solve failed: {exc}") from exc
        mods = np.sort(np.abs(eigs.imag))[::-1]
        mods.flags.writeable = False
        return mods


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


class Violation(NamedTuple):
    """A violated covariance-matrix invariant and by how much."""

    name: str
    magnitude: float


def validate(cov: CovMat, tol: float | None = None) -> list[Violation]:
    """Check every covariance-matrix invariant.

    Compares the cached :attr:`CovMat.margins` with ``tol``, so the eigen
    solves run once per ``CovMat`` (its matrix is read-only) whatever
    tolerances it is checked at.

    Args:
        cov: candidate covariance matrix.
        tol: absolute tolerance; defaults to ``cov.tol``.

    Returns:
        An empty list iff all invariants hold; otherwise one entry per
        violated invariant with the violation magnitude.
    """
    if tol is None:
        tol = cov.tol
    mg = cov.margins
    out: list[Violation] = []
    if mg.asymmetry > tol:
        out.append(Violation("symmetry", mg.asymmetry))
    if mg.min_eig <= -tol:
        out.append(Violation("positive_definite", -mg.min_eig))
    if mg.min_uncertainty < -tol:
        out.append(Violation("uncertainty", -mg.min_uncertainty))
    for name, min_blk in (("vx_positive", mg.min_vx), ("vp_positive", mg.min_vp)):
        if min_blk <= -tol:
            out.append(Violation(name, -min_blk))
    if mg.trace < 2 * cov.m - tol:
        out.append(Violation("trace_bound", 2 * cov.m - mg.trace))
    return out


def is_valid(cov: CovMat, tol: float | None = None) -> bool:
    """True iff :func:`validate` reports no violations."""
    return not validate(cov, tol)


def require_valid(cov: CovMat, tol: float | None = None) -> CovMat:
    """Return ``cov`` unchanged, raising :class:`ValidationError` if invalid."""
    report = validate(cov, tol)
    if report:
        raise ValidationError(report)
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


def symplectic_eigenvalues(cov: CovMat, pairing_tol: float = 1e-8) -> np.ndarray:
    """Williamson symplectic eigenvalues, sorted descending.

    The moduli of the imaginary parts of ``eig(Omega V)`` come in +/- pairs;
    the pair list is deduplicated into m values.  The solve runs once per
    ``CovMat`` (:attr:`CovMat.williamson_moduli`, sound because its matrix is
    read-only); the pairing check runs on every call.

    Args:
        cov: a valid covariance matrix.
        pairing_tol: relative tolerance to confirm +/- pairing.

    Returns:
        Array of m values ``nu_1 >= ... >= nu_m`` (all >= 1 for valid input).

    Raises:
        NumericError: if the solve fails or the moduli do not pair.
    """
    mods = cov.williamson_moduli
    first, second = mods[0::2], mods[1::2]
    scale = max(1.0, float(mods[0]))
    if float(np.max(np.abs(first - second))) > pairing_tol * scale:
        raise NumericError("could not pair symplectic eigenvalues by modulus")
    return first.copy()


def is_pure(cov: CovMat, tol: float = 1e-8) -> bool:
    """True iff every symplectic eigenvalue equals 1 within ``tol``."""
    nu = symplectic_eigenvalues(cov)
    return float(np.max(np.abs(nu - 1.0))) <= tol


class FirstModeReduction(NamedTuple):
    """Reduced state of mode 1: its 2x2 covariance matrix and invariants."""

    cov: CovMat
    nu_sq: float
    trace: float


def reduced_first_mode(cov: CovMat) -> FirstModeReduction:
    """Reduce to mode 1 by row/column selection.

    Returns:
        The 2x2 covariance matrix of mode 1, its squared symplectic
        eigenvalue ``nu^2 = sigma_x*sigma_p - sigma_xp^2`` (a determinant,
        exact in closed form) and its trace ``E_1``.
    """
    m = cov.m
    idx = np.array([0, m])
    sub = cov.matrix[np.ix_(idx, idx)]
    nu_sq = float(sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0])
    return FirstModeReduction(CovMat(sub), nu_sq, float(np.trace(sub)))


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
        The Gaussian-moment description of the mixture.
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
    v = second - np.outer(d_bar, d_bar)
    return GaussianState(CovMat(0.5 * (v + v.T)), d_bar)


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


def state_from_dict(doc: dict) -> GaussianState:
    """Parse the covariance-matrix JSON document (no physical validation)."""
    if not isinstance(doc, dict):
        raise ValueError("covariance-matrix document must be a JSON object")
    fmt = doc.get("format")
    if fmt != CM_FORMAT:
        raise ValueError(f"unsupported document format {fmt!r}, expected {CM_FORMAT!r}")
    if doc.get("ordering", CM_ORDERING) != CM_ORDERING:
        raise ValueError(f"unsupported quadrature ordering {doc.get('ordering')!r}")
    if doc.get("hbar", CM_HBAR) != CM_HBAR:
        raise ValueError(f"unsupported hbar convention {doc.get('hbar')!r}")
    cov = CovMat(doc["matrix"])
    declared_m = doc.get("m")
    if declared_m is not None and int(declared_m) != cov.m:
        raise DimensionError(
            f"declared mode count {declared_m} does not match matrix size {cov.matrix.shape[0]}"
        )
    return GaussianState(cov, doc.get("displacement"))


def load_state(path: str, m: int | None = None) -> GaussianState:
    """Load a state from a JSON document or a bare CSV matrix.

    Args:
        path: file path; ``.csv`` files are read as a raw 2m x 2m matrix
            (zero first moments), anything else as the JSON document.
        m: optional expected mode count, cross-checked against the file.

    Returns:
        The parsed state. Physical validity is *not* checked here.
    """
    if path.endswith(".csv"):
        with open(path, newline="") as fh:
            rows = [[float(x) for x in row] for row in csv.reader(fh) if row]
        state = GaussianState(CovMat(rows))
    else:
        with open(path) as fh:
            state = state_from_dict(json.load(fh))
    if m is not None and state.m != int(m):
        raise DimensionError(f"expected m={m}, file has m={state.m}")
    return state


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
