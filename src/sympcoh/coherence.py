"""Position-momentum correlation measure for Gaussian states.

The measure is the squared Frobenius norm of the position-momentum block of
the covariance matrix.  It equals the squared Hilbert-Schmidt distance (up to
a factor 2) to the closest covariance matrix with that block removed, is
invariant under block-orthogonal passive gates and displacements, additive
under tensor products, and bounded at fixed trace by
``max_symplectic_coherence``.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .gaussian_core import CovMat, DimensionError, GaussianState, blocks, is_pure, require_valid
from .symplectic_ops import (
    SympGate,
    is_orthogonal,
    pure_cm,
    pure_param_blocks,
    pure_xp_block,
    require_budget,
)

MEMBERSHIP_TOL = 1e-8  #: largest first-row residual of a maximal-coherence member
MIXED_MSC_TOL = 1e-9  #: tolerance of each equality that mixed_msc_check tests


def symplectic_coherence(cov: CovMat) -> float:
    """Squared Frobenius norm of the position-momentum block.

    Additive under tensor products and zero exactly on states with no
    position-momentum correlations.
    """
    _, _, v_xp = blocks(cov)
    return float(np.sum(v_xp * v_xp))


def closest_free_cm(cov: CovMat) -> CovMat:
    """Block-diagonal truncation: the nearest correlation-free covariance.

    Zeroing the position-momentum block of a valid covariance matrix always
    yields a valid covariance matrix, and it minimises the Hilbert-Schmidt
    distance to the correlation-free set.
    """
    m = cov.m
    out = cov.matrix.copy()
    out[:m, m:] = out[m:, :m] = 0.0
    return CovMat(out)


@dataclass(frozen=True)
class CoherenceReport:
    """Coherence value together with its distance interpretation.

    Attributes:
        coherence: squared Frobenius norm of the position-momentum block.
        hs_distance_sq_to_free: squared Frobenius distance to the
            block-diagonal truncation; equals ``2 * coherence``.
        closest_free: the truncated covariance matrix.
    """

    coherence: float
    hs_distance_sq_to_free: float
    closest_free: CovMat


def coherence_report(cov: CovMat) -> CoherenceReport:
    """Coherence, distance to the correlation-free set, and the minimiser."""
    free = closest_free_cm(cov)
    diff = cov.matrix - free.matrix
    return CoherenceReport(
        coherence=symplectic_coherence(cov),
        hs_distance_sq_to_free=float(np.sum(diff * diff)),
        closest_free=free,
    )


def max_symplectic_coherence(E: float, m: int) -> float:
    """Largest coherence any m-mode state with covariance trace E can have.

    ``(E - 2m)^2 / 4 + (E - 2m)``.

    Raises:
        ValueError: unless m >= 1 and 2m <= E with E^2 finite.
    """
    require_budget(E, m)
    excess = E - 2.0 * m
    return excess * excess / 4.0 + excess


def msc_squeezing(E: float, m: int) -> float:
    """Squeezing parameter of the canonical maximally correlated state.

    Solves ``e^{2r} + e^{-2r} = E - 2(m-1)`` with r >= 0.  Raises
    ``ValueError`` unless m >= 1 and 2m <= E with E^2 finite.
    """
    require_budget(E, m)
    return 0.5 * float(np.arccosh((E - 2.0 * (m - 1)) / 2.0))


def msc_canonical(E: float, m: int) -> GaussianState:
    """Canonical state attaining ``max_symplectic_coherence(E, m)``.

    Mode 1 carries a squeezed state rotated by pi/4; the remaining modes are
    vacuum.  The covariance trace is E exactly and the state is pure.

    Raises:
        ValueError: if E < 2m.
    """
    r = msc_squeezing(E, m)
    v = np.eye(2 * m)
    v[0, 0] = v[m, m] = np.cosh(2.0 * r)
    v[0, m] = v[m, 0] = -np.sinh(2.0 * r)
    return GaussianState(CovMat(v))


@dataclass(frozen=True)
class MscSpec:
    """Parameters of a maximal-coherence pure-state construction.

    The state is built as (outer orthogonal gate) o (per-mode phase
    shifters) o (inner orthogonal gate) acting on a squeezed first mode and
    vacuum elsewhere.  The trace, the phases and the two orthogonals fix it;
    the mode count and the squeezing follow from them.

    Attributes:
        E: covariance trace of the state (>= 2m with E^2 finite).
        theta: per-mode phase angles, shape (m,) (read-only copy).
        o_inner: m x m orthogonal matrix applied before the phase shifters.
        o_outer: m x m orthogonal matrix applied after the phase shifters.
        m: mode count, ``len(theta)``.
        r: squeezing parameter, ``msc_squeezing(E, m)``.

    Raises:
        DimensionError: if theta is not 1-D or an orthogonal is not m x m.
        ValueError: if the trace is below 2m, or an orthogonal is not
            orthogonal (``symplectic_ops.is_orthogonal``).
    """

    E: float
    theta: np.ndarray
    o_inner: np.ndarray
    o_outer: np.ndarray
    m: int = field(init=False)
    r: float = field(init=False)

    def __post_init__(self):
        theta = np.atleast_1d(np.array(self.theta, dtype=float))
        if theta.ndim != 1:
            raise DimensionError(f"theta must be one angle per mode, got shape {theta.shape}")
        m = theta.shape[0]
        object.__setattr__(self, "r", msc_squeezing(self.E, m))
        for name in ("o_inner", "o_outer"):
            o = np.array(getattr(self, name), dtype=float)
            if o.shape != (m, m):
                raise DimensionError(f"{name} must be {m} x {m} like theta, got shape {o.shape}")
            if not is_orthogonal(o):
                raise ValueError(f"{name} is not orthogonal (O O^T != I)")
            o.flags.writeable = False
            object.__setattr__(self, name, o)
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "m", m)


def msc_spec(E: float, m: int) -> MscSpec:
    """Canonical parameters: theta = (pi/4, 0, ..., 0), identity orthogonals."""
    theta = np.zeros(m)
    theta[0] = np.pi / 4.0
    return MscSpec(E=float(E), theta=theta, o_inner=np.eye(m), o_outer=np.eye(m))


def msc_from_spec(spec: MscSpec) -> GaussianState:
    """Build the pure state described by an ``MscSpec``.

    The squeezing spectrum is ``(e^{2r}, 1, ..., 1)`` on positions and its
    inverse on momenta; the passive gate is assembled from the recipe's
    orthogonals and phase angles.
    """
    m = spec.m
    d = np.ones(m)
    d[0] = np.exp(2.0 * spec.r)
    ct, st = np.cos(spec.theta), np.sin(spec.theta)
    # Passive gate [[X, Y], [-Y, X]] for O_outer . R(theta) . O_inner.
    x = spec.o_outer @ (ct[:, None] * spec.o_inner)
    y = spec.o_outer @ (st[:, None] * spec.o_inner)
    return GaussianState(CovMat(pure_cm(x, y, d)))


@dataclass(frozen=True)
class MembershipReport:
    """Residuals of the maximal-coherence membership conditions.

    With C = diag(cos theta), S = diag(sin theta) and the inner orthogonal O,
    all three matrices O^T C^2 O, O^T S^2 O, O^T (CS) O must have first row
    (+-1/2, 0, ..., 0).  Residuals are ``| 2|A_1j| - delta_1j |`` per column.
    """

    is_member: bool
    residual_cos_sq: np.ndarray
    residual_sin_sq: np.ndarray
    residual_cos_sin: np.ndarray

    @property
    def max_residual(self) -> float:
        res = (self.residual_cos_sq, self.residual_sin_sq, self.residual_cos_sin)
        return float(max(r.max() for r in res))


def msc_membership_conditions(o: np.ndarray, theta: np.ndarray) -> MembershipReport:
    """Check whether phase angles and an inner orthogonal give maximal coherence.

    Args:
        o: m x m orthogonal matrix (the gate applied before the phase
            shifters, acting on a squeezed first mode).
        theta: per-mode phase angles, shape (m,).

    Returns:
        Per-condition first-row residuals and the overall verdict: a member
        iff no residual exceeds ``MEMBERSHIP_TOL``.

    Raises:
        ValueError: if ``o`` is not orthogonal (``symplectic_ops.is_orthogonal``).
    """
    o = np.asarray(o, dtype=float)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    m = o.shape[0]
    if o.shape != (m, m) or theta.shape != (m,):
        raise ValueError(f"shape mismatch: o {o.shape}, theta {theta.shape}")
    if not is_orthogonal(o):
        raise ValueError("matrix is not orthogonal (O O^T != I)")
    c, s = np.cos(theta), np.sin(theta)
    target = np.zeros(m)
    target[0] = 1.0

    def first_row_residual(diag: np.ndarray) -> np.ndarray:
        # First row of O^T diag(d) O: sum_k O_k1 d_k O_kj.
        row = (o[:, 0] * diag) @ o
        return np.abs(2.0 * np.abs(row) - target)

    res_c = first_row_residual(c * c)
    res_s = first_row_residual(s * s)
    res_cs = first_row_residual(c * s)
    ok = bool(max(res_c.max(), res_s.max(), res_cs.max()) <= MEMBERSHIP_TOL)
    return MembershipReport(ok, res_c, res_s, res_cs)


def mixed_msc_check(cov: CovMat, comp1: CovMat, comp2: CovMat) -> tuple[bool, list[str]]:
    """Verify a maximal-coherence mixed state's equal-weight decomposition.

    Requires ``cov = (comp1 + comp2) / 2`` with both components pure, of equal
    covariance trace, with identical position-momentum blocks, and each
    attaining the maximal coherence for that trace (purity as ``is_pure``
    decides, the rest to ``MIXED_MSC_TOL``, relative for the coherences).

    Returns:
        (verdict, list of human-readable failure reasons; empty when true).
    """
    reasons: list[str] = []
    if cov.m != comp1.m or cov.m != comp2.m:
        return False, ["mode counts differ"]
    mix = 0.5 * (comp1.matrix + comp2.matrix)
    if np.max(np.abs(mix - cov.matrix)) > MIXED_MSC_TOL:
        reasons.append("covariance is not the equal-weight average of the components")
    for label, comp in (("first", comp1), ("second", comp2)):
        if not is_pure(comp):
            reasons.append(f"{label} component is not pure")
    tr1, tr2 = float(np.trace(comp1.matrix)), float(np.trace(comp2.matrix))
    if abs(tr1 - tr2) > MIXED_MSC_TOL:
        reasons.append("component covariance traces differ")
    _, _, xp1 = blocks(comp1)
    _, _, xp2 = blocks(comp2)
    if np.max(np.abs(xp1 - xp2)) > MIXED_MSC_TOL:
        reasons.append("component position-momentum blocks differ")
    c_max = max_symplectic_coherence(tr1, comp1.m)
    for label, comp in (("first", comp1), ("second", comp2)):
        if abs(symplectic_coherence(comp) - c_max) > MIXED_MSC_TOL * max(1.0, c_max):
            reasons.append(f"{label} component coherence is not maximal for its trace")
    return (not reasons), reasons


def perturbation_bound(c_rho: float, c_sigma: float, E: float, eps: float) -> float:
    """Continuity bound on the coherence difference of two nearby states.

    For states within trace distance ``eps`` and second-moment energy at most
    ``E^2``: ``800 E^2 eps + 40 sqrt(2) E max(sqrt(c_rho), sqrt(c_sigma))
    sqrt(eps)``.  The energy cap is caller-supplied; covariance data alone
    does not determine it.
    """
    if min(c_rho, c_sigma, E, eps) < 0:
        raise ValueError("all arguments must be nonnegative")
    return float(
        800.0 * E * E * eps
        + 40.0 * np.sqrt(2.0) * E * max(np.sqrt(c_rho), np.sqrt(c_sigma)) * np.sqrt(eps)
    )


def trace_distance_cov_bound(E_cap: float, m: int, trace_dist: float) -> float:
    """Frobenius-distance bound between covariance matrices of nearby states.

    ``40 * E_cap * sqrt(m * trace_dist)`` where ``E_cap`` caps the
    second-moment energy of both states.
    """
    if min(E_cap, trace_dist) < 0 or m < 1:
        raise ValueError("arguments must be nonnegative with m >= 1")
    return float(40.0 * E_cap * np.sqrt(m * trace_dist))


class NoGoWitness(NamedTuple):
    """A fixed example where a correlation-free-preserving gate raises coherence.

    The gate ``diag(A, (A^T)^{-1})`` maps the position-momentum block by
    ``B -> A B A^{-1}``, so it maps correlation-free states to
    correlation-free states, yet on this covariance matrix it strictly
    increases the measure.
    """

    cov: CovMat
    gate: SympGate
    coherence_before: float
    coherence_after: float


def active_gate_counterexample() -> NoGoWitness:
    """Stored two-mode witness: a free-set-preserving gate that increases coherence.

    The input covariance is ``2 I`` plus a single unit position-momentum
    correlation between mode 2's position and mode 1's momentum; the shear
    ``A = [[1, 1], [0, 1]]`` maps that block from norm-squared 1 to 4.
    """
    v = 2.0 * np.eye(4)
    v[1, 2] = v[2, 1] = 1.0
    cov = CovMat(v)
    require_valid(cov)
    a = np.array([[1.0, 1.0], [0.0, 1.0]])
    s = np.zeros((4, 4))
    s[:2, :2] = a
    s[2:, 2:] = np.linalg.inv(a.T)
    gate = SympGate(s)
    before = symplectic_coherence(cov)
    after = symplectic_coherence(CovMat(gate.S @ v @ gate.S.T))
    return NoGoWitness(cov, gate, before, after)


class SearchOutcome(NamedTuple):
    """Best coherence found by random search plus a description of the argmax."""

    sup_c: float
    argmax: dict


def _gram_form(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Quadratic form of the coherence of pure states with passive unitary X + iY.

    Takes (..., m, m) stacks and returns symmetric (..., 2m, 2m) matrices
    ``H = [[G1, -G2], [-G2, G1]]`` with ``G1 = (X^T X) o (Y^T Y)`` and
    ``G2 = (X^T Y) o (X^T Y)^T`` (``o`` elementwise), so that the state of
    spectrum d has coherence ``a^T H a``, ``a = (d - 1, 1/d - 1)``.
    ``y = 0`` gives ``H = 0`` exactly.

    For a pure state, ``V_xp = Y D^-1 X^T - X D Y^T`` with ``D = diag(d)``.
    Unitarity of X + iY makes ``Y X^T = X Y^T``, so
    ``V_xp = Y (D^-1 - 1) X^T - X (D - 1) Y^T``, whose squared norm is the
    form in ``a``.  Shifting by 1 keeps ``a`` free of the cancellation that
    the full blocks suffer near the vacuum (d -> 1).
    """
    xt = np.swapaxes(x, -1, -2)
    g1 = (xt @ x) * (np.swapaxes(y, -1, -2) @ y)
    xty = xt @ y
    g2 = -(xty * np.swapaxes(xty, -1, -2))
    return np.concatenate(
        [np.concatenate([g1, g2], axis=-1), np.concatenate([g2, g1], axis=-1)], axis=-2
    )


def _phase_coefficients(
    v: np.ndarray, u: np.ndarray, sigma: float
) -> tuple[complex, complex]:
    """Fourier coefficients of the coherence along one mode's phase.

    With squeezing ``gamma = (d + 1/d)/2 - 1`` and ``sigma = sqrt(gamma (gamma
    + 2))`` per mode, ``V_xp = sum_k gamma_k A_k - sigma_k S_k`` where
    ``A_k = y_k x_k^T - x_k y_k^T`` and ``S_k = Im(u_k u_k^T)`` for the
    columns ``u_k = x_k + i y_k``.  Turning column u (of squeezing sigma)
    to ``e^{i phi/2} u`` leaves its ``A`` alone and moves V to
    ``V + sigma Im((1 - z) u u^T)``, ``z = e^{i phi}``, so the coherence is
    ``c(phi) = c_0 + 2 Re(c_1 z + c_2 z^2)``.  Returns ``(c_1, c_2)`` from the
    current block v: ``c_1 = i sigma p``, ``c_2 = -sigma^2 q^2 / 4`` with
    ``q = u^T u`` and ``p = u^T v u + sigma (q^2 - |u|^4) / (2i)``.
    """
    q = complex(u @ u)
    n2 = float(np.vdot(u, u).real)
    p = complex(u @ (v @ u)) - 0.5j * sigma * (q * q - n2 * n2)
    return 1j * sigma * p, -0.25 * sigma * sigma * q * q


# Companion matrix of a monic quartic: ones below the diagonal, coefficients
# in the first row.
_COMPANION = np.eye(4, k=-1, dtype=complex)


def _phase_argmax(c1: complex, c2: complex) -> complex:
    """Point z of the unit circle where ``Re(c1 z + c2 z^2)`` is largest.

    z = 1 wins ties, so a move that gains nothing stays where it is.
    """
    if c2 == 0:  # an unsqueezed mode (sigma = 0), or q = 0: at most linear in z
        return c1.conjugate() / abs(c1) if c1 else 1.0 + 0j
    # The critical points are the unit-circle roots of z^2 c'(phi) / i, the
    # quartic 2 c2 z^4 + c1 z^3 - conj(c1) z - 2 conj(c2); taking the best root
    # angle gives the global maximum.
    comp = _COMPANION.copy()
    comp[0] = (-c1 / (2.0 * c2), 0.0, c1.conjugate() / (2.0 * c2), c2.conjugate() / c2)
    best, best_f = 1.0 + 0j, (c1 + c2).real
    # The product of the roots has modulus |conj(c2) / c2| = 1, so none is 0.
    for r in np.linalg.eigvals(comp).tolist():
        z = r / abs(r)
        f = (c1 * z + c2 * z * z).real
        if f > best_f:
            best, best_f = z, f
    return best


# Weight move: grid points per round, and rounds zooming in on the best point.
_WEIGHT_GRID = 17
_WEIGHT_ROUNDS = 6
# Most coordinate sweeps (phase moves, then weight moves) of the refinement.
_REFINE_PASSES = 3
# Grid on [lo, hi] as lo * _GRID_FROM_LO + hi * _GRID_FROM_HI.  The fractions
# k/16 and 1 - k/16 are exact, so the ends are exactly lo and hi, and no grid
# point exceeds 1 (which would make the other weights negative).
_GRID_FROM_HI = np.linspace(0.0, 1.0, _WEIGHT_GRID)
_GRID_FROM_LO = 1.0 - _GRID_FROM_HI


def numeric_max_search(E: float, m: int, trials: int, seed: int) -> SearchOutcome:
    """Randomized search for the largest coherence at fixed covariance trace.

    Samples pure states (Haar passive gate times a random
    squeezing spectrum summing to the trace budget) in the fixed-size blocks
    of ``pure_param_blocks`` (blocks of ``mc_blocks``), so the
    samples of a run are a prefix of those of any longer run with the same
    seed.  No covariance matrix is built: each block of samples is scored by
    the squared norm of its position-momentum blocks, ``V_xp = Y (D^-1 - 1)
    X^T - X (D - 1) Y^T`` for passive unitary X + iY and ``D = diag(d)``
    (``symplectic_ops.pure_xp_block``, two batched matmuls).  The best
    sample is then refined coordinate-wise, in sweeps of per-mode phase moves
    and then per-mode weight moves:

    * per-mode phase: turning column i by ``e^{i phi/2}`` changes the
      coherence by ``2 Re(c_1 (z - 1) + c_2 (z^2 - 1))``, ``z = e^{i phi}``,
      with ``c_1``, ``c_2`` from two O(m^2) contractions of the current block
      (``_phase_coefficients``).  The global maximum over phi is taken at the
      unit-circle roots of a quartic, found as the eigenvalues of its 4 x 4
      companion matrix (``_phase_argmax``), and an accepted move updates the
      block by a rank-one term.  The phases are reported modulo pi, in
      (-pi/2, pi/2];
    * single squeezing weight in [0, 1], the others rescaled to share the
      rest: a grid, zoomed around its best point for a few rounds.  With the
      phases fixed the coherence is the quadratic form ``a^T H a``,
      ``a = (d - 1, 1/d - 1) = (gamma + sigma, gamma - sigma)`` with
      ``gamma = (E - 2m) w / 2`` and ``sigma = sqrt(gamma (gamma + 2))`` per
      mode, and H is built once per sweep from Gram matrices of X + iY
      (``_gram_form``), so each round only evaluates it
      at its grid's ``(gamma, sigma)``.

    A move is accepted only if it raises the current value; a sweep that
    accepts none ends the refinement, since the next would repeat it, and
    there are at most ``_REFINE_PASSES`` sweeps.

    Args:
        E: covariance trace budget (>= 2m).
        m: mode count.
        trials: number of random samples (>= 1).
        seed: base seed.

    Returns:
        Best coherence found and a description of where it occurred.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    require_budget(E, m)
    if E - 2.0 * m < 1e-15:
        return SearchOutcome(0.0, {"trial": -1, "note": "trace budget forces vacuum"})

    best_c = -1.0
    for start, xs, ys, ds in pure_param_blocks(seed, trials, E, m, False):
        alpha = ds - 1.0
        vs = pure_xp_block(xs, ys, alpha, -alpha / ds)
        c = np.einsum("...ij,...ij->...", vs, vs)
        j = int(np.argmax(c))  # first maximum, as a strict running ">" keeps
        if c[j] > best_c:
            best_c = float(c[j])
            best = (start + j, xs[j], ys[j], ds[j])

    trial_idx, x, y, d = best
    half_excess = 0.5 * (E - 2.0 * m)
    weights = np.clip((d + 1.0 / d - 2.0) / (2.0 * half_excess), 0.0, None)
    weights = weights / weights.sum()
    theta = np.zeros(m)
    cols0 = (x + 1j * y).T  # the sample's columns u_k, one per row
    cols = cols0.copy()  # the columns at the current phases

    def moduli(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # gamma = (d + 1/d)/2 - 1 and sigma = (d - 1/d)/2 of weights w (..., m).
        g = half_excess * w
        return g, np.sqrt(g * (g + 2.0))

    gamma, sigma = moduli(weights)
    v = pure_xp_block(x, y, gamma + sigma, gamma - sigma)  # of the current state
    refined_c = float(np.sum(v * v))
    for _ in range(_REFINE_PASSES):
        moved = False
        for i in range(m):
            c1, c2 = _phase_coefficients(v, cols[i], float(sigma[i]))
            z = _phase_argmax(c1, c2)
            gain = 2.0 * (c1 * (z - 1.0) + c2 * (z * z - 1.0)).real
            if gain > 0.0:
                v += sigma[i] * np.outer((1.0 - z) * cols[i], cols[i]).imag
                # Phases matter modulo pi: keep theta in (-pi/2, pi/2].
                th = (theta[i] + 0.5 * cmath.phase(z)) % np.pi
                theta[i] = th - np.pi if th > 0.5 * np.pi else th
                cols[i] = cols0[i] * cmath.exp(1j * theta[i])
                refined_c += gain
                moved = True
        h = _gram_form(cols.real.T, cols.imag.T)  # of the current phases
        weights_moved = False
        for i in range(m):
            # Weight i set to t, the others rescaled to share the remaining 1 - t.
            # Summed directly: weights.sum() - weights[i] cancels when weight i is near 1.
            rest = np.delete(weights, i).sum()
            if rest <= 0.0:
                continue  # m = 1 or no other weight: no new candidate, and t = 0 sums to 0
            lo, hi = 0.0, 1.0
            best_w, best_wc = None, refined_c
            for _ in range(_WEIGHT_ROUNDS):
                t = lo * _GRID_FROM_LO + hi * _GRID_FROM_HI
                w = weights * ((1.0 - t) / rest)[:, None]
                w[:, i] = t
                g, s = moduli(w)
                a = np.concatenate([g + s, g - s], axis=1)  # (d - 1, 1/d - 1)
                c = ((a @ h) * a).sum(axis=1)
                k = int(c.argmax())
                if c[k] > best_wc:
                    best_w, best_wc = w[k], float(c[k])
                lo, hi = t[max(k - 1, 0)], t[min(k + 1, _WEIGHT_GRID - 1)]
            if best_w is not None:
                weights, refined_c, weights_moved = best_w, best_wc, True
        if weights_moved:
            gamma, sigma = moduli(weights)
            v = pure_xp_block(cols.real.T, cols.imag.T, gamma + sigma, gamma - sigma)
        if not (moved or weights_moved):
            break
    sup_c = max(best_c, refined_c)
    return SearchOutcome(
        sup_c,
        {
            "trial": trial_idx,
            "sample_coherence": best_c,
            "refined_coherence": refined_c,
            "theta": theta.tolist(),
            "weights": weights.tolist(),
        },
    )
