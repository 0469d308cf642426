"""Position-momentum correlation measure for Gaussian states.

The measure is the squared Frobenius norm of the position-momentum block of
the covariance matrix.  It equals the squared Hilbert-Schmidt distance (up to
a factor 2) to the closest covariance matrix with that block removed, is
invariant under block-orthogonal passive gates and displacements, additive
under tensor products, and bounded at fixed trace by
``max_symplectic_coherence``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .gaussian_core import (
    CovMat, DimensionError, GaussianState, _EPS, _frobenius_sq, _gap_exceeds_floor, _require_count, _require_int,
    is_pure, require_valid, rounding_floor,
)
from .symplectic_ops import (
    SympGate,
    apply,
    block_samples,
    ginibre_from_uniforms,
    haar_from_ginibre,
    is_orthogonal,
    mc_blocks,
    pure_cm,
    pure_xp_block,
    require_budget,
    sample_d_batch,
)


def symplectic_coherence(cov: CovMat) -> float:
    """Squared Frobenius norm of the position-momentum block.

    Additive under tensor products and zero exactly on states with no
    position-momentum correlations.  Computed once per ``CovMat``
    (:attr:`~sympcoh.gaussian_core.CovMat.xp_norm_sq`).

    Raises:
        NumericError: if it overflows float64.
    """
    return cov.xp_norm_sq


def closest_free_cm(cov: CovMat) -> CovMat:
    """Block-diagonal truncation: the nearest correlation-free covariance.

    Zeroing the position-momentum block of a valid covariance matrix always
    yields a valid covariance matrix, and it minimises the Hilbert-Schmidt
    distance to the correlation-free set.  Its entries are a subset of
    ``V``'s, so ``V``'s bound on them holds and no scan runs.
    """
    m = cov.m
    out = cov.matrix.copy()
    out[:m, m:] = out[m:, :m] = 0.0
    return CovMat._adopt(out, cov._peak)


@dataclass(frozen=True, eq=False)
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
    """Coherence, distance to the correlation-free set, and the minimiser.

    Raises:
        NumericError: if the coherence or the distance overflows float64.
    """
    free = closest_free_cm(cov)
    diff = cov.matrix - free.matrix
    return CoherenceReport(
        coherence=symplectic_coherence(cov),
        hs_distance_sq_to_free=_frobenius_sq(diff, cov._peak, "squared distance to the free set"),
        closest_free=free,
    )


def max_symplectic_coherence(E: float, m: int) -> float:
    """Largest coherence any m-mode state with covariance trace E can have.

    ``(E - 2m)^2 / 4 + (E - 2m)``.

    Raises:
        ValueError: unless m is a count and 2m <= E with E^2 finite.
    """
    require_budget(E, m)
    excess = E - 2.0 * m
    return excess * excess / 4.0 + excess


def msc_squeezing(E: float, m: int) -> float:
    """Squeezing parameter of the canonical maximally correlated state.

    Solves ``e^{2r} + e^{-2r} = E - 2(m-1)`` with r >= 0.  Raises
    ``ValueError`` unless m is a count and 2m <= E with E^2 finite.
    """
    require_budget(E, m)
    return 0.5 * float(np.arccosh((E - 2.0 * (m - 1)) / 2.0))


def msc_canonical(E: float, m: int) -> GaussianState:
    """Canonical state attaining ``max_symplectic_coherence(E, m)``; its one writer.

    Mode 1 is squeezed and turned by pi/4, ``[[cosh 2r, -sinh 2r], [-sinh 2r,
    cosh 2r]]`` (``msc_squeezing``); the other modes are vacuum.  Stored is an
    exactly valid matrix within rounding of that state: ``V_0m`` moves toward
    zero an ulp at a time until ``V_00 V_mm - V_0m^2 >= 1`` holds exactly.  It
    is pure only where float64 can hold it: the computed ``nu - 1`` is 2.4e-12
    at E = 1e3 and 1.7e-7 at 1e5, and ``nu`` is about 5.5e3 at 1e12.

    Raises:
        ValueError: unless m is a count and 2m <= E with E^2 finite.
    """
    r = msc_squeezing(E, m)
    a, b = float(np.cosh(2.0 * r)), -float(np.sinh(2.0 * r))
    p, q = a.as_integer_ratio()  # a >= 1 > 0
    while b:  # with b = s/t: a^2 - b^2 >= 1 iff (pt)^2 - (sq)^2 >= (qt)^2 in integers
        s, t = b.as_integer_ratio()
        if (p * t) ** 2 - (s * q) ** 2 >= (q * t) ** 2:
            break
        b = math.nextafter(b, 0.0)
    v = np.eye(2 * m)
    v[0, 0] = v[m, m] = a
    v[0, m] = v[m, 0] = b
    return GaussianState(CovMat(v))


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
        Per-condition first-row residuals and the overall verdict: a member iff
        no residual exceeds ``rounding_floor(m, 1)`` (no entry exceeds 1 in size).

    Raises:
        DimensionError: unless ``o`` is m x m and ``theta`` has shape (m,).
        ValueError: if ``o`` is not orthogonal (``symplectic_ops.is_orthogonal``).
    """
    o = np.asarray(o, dtype=float)
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    m = o.shape[0]
    if o.shape != (m, m) or theta.shape != (m,):
        raise DimensionError(f"shape mismatch: o {o.shape}, theta {theta.shape}")
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
    ok = bool(max(res_c.max(), res_s.max(), res_cs.max()) <= rounding_floor(m, 1.0))
    return MembershipReport(ok, res_c, res_s, res_cs)


def mixed_msc_check(cov: CovMat, comp1: CovMat, comp2: CovMat) -> tuple[bool, list[str]]:
    """Verify a maximal-coherence mixed state's equal-weight decomposition.

    Requires ``cov = (comp1 + comp2) / 2`` with both components pure, of equal
    covariance trace, with identical position-momentum blocks, and each
    attaining the maximal coherence for that trace (purity as ``is_pure``
    decides; each equality within ``rounding_floor(2m, ...)`` of the entries
    it differences, and of ``(Tr V)^2`` for the coherences).

    Returns:
        (verdict, list of human-readable failure reasons; empty when true).
    """
    reasons: list[str] = []
    if cov.m != comp1.m or cov.m != comp2.m:
        return False, ["mode counts differ"]
    mix = 0.5 * comp1.matrix + 0.5 * comp2.matrix
    n = 2 * cov.m
    if _gap_exceeds_floor(mix, cov.matrix, n):
        reasons.append("covariance is not the equal-weight average of the components")
    for label, comp in (("first", comp1), ("second", comp2)):
        if not is_pure(comp):
            reasons.append(f"{label} component is not pure")
    tr1, tr2 = comp1.trace, comp2.trace
    if _gap_exceeds_floor(tr1, tr2, n):
        reasons.append("component covariance traces differ")
    m = cov.m
    if _gap_exceeds_floor(comp1.matrix[:m, m:], comp2.matrix[:m, m:], n):
        reasons.append("component position-momentum blocks differ")
    try:
        c_max = max_symplectic_coherence(tr1, comp1.m)
    except ValueError as err:
        reasons.append(f"first component has no maximal coherence: {err}")
        return False, reasons
    for label, comp in (("first", comp1), ("second", comp2)):
        if abs(symplectic_coherence(comp) - c_max) > rounding_floor(n, tr1 * tr1):
            reasons.append(f"{label} component coherence is not maximal for its trace")
    return (not reasons), reasons


def perturbation_bound(c_rho: float, c_sigma: float, E: float, eps: float) -> float:
    """Continuity bound on the coherence difference of two nearby states.

    For states within trace distance ``eps`` and second-moment energy at most
    ``E^2``: ``800 E^2 eps + 40 sqrt(2) E max(sqrt(c_rho), sqrt(c_sigma))
    sqrt(eps)``.  The energy cap is caller-supplied; covariance data alone
    does not determine it.

    Raises:
        ValueError: unless every argument is nonnegative and finite (so also for NaN).
    """
    if not all(0.0 <= x < math.inf for x in (c_rho, c_sigma, E, eps)):
        raise ValueError(f"all arguments must be nonnegative and finite, got {(c_rho, c_sigma, E, eps)}")
    return float(
        800.0 * E * E * eps
        + 40.0 * np.sqrt(2.0) * E * max(np.sqrt(c_rho), np.sqrt(c_sigma)) * np.sqrt(eps)
    )


def trace_distance_cov_bound(E_cap: float, m: int, trace_dist: float) -> float:
    """Frobenius-distance bound between covariance matrices of nearby states.

    ``40 * E_cap * sqrt(m * trace_dist)`` where ``E_cap`` caps the
    second-moment energy of both states.

    Raises:
        ValueError: unless ``E_cap`` and ``trace_dist`` are nonnegative and
            finite (so also for NaN) and m is a count (``_require_count``).
    """
    _require_count("m", m)
    if not (0.0 <= E_cap < math.inf and 0.0 <= trace_dist < math.inf):
        raise ValueError(f"arguments must be nonnegative and finite, got {(E_cap, m, trace_dist)}")
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
    ``A = [[1, 1], [0, 1]]`` maps that block from norm-squared 1 to 4 (the
    output is :func:`sympcoh.symplectic_ops.apply` of the gate).
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
    after = symplectic_coherence(apply(gate, GaussianState(cov)).cov)
    return NoGoWitness(cov, gate, before, after)


class SearchOutcome(NamedTuple):
    """Best coherence found by random search plus a description of the argmax."""

    sup_c: float
    argmax: dict


# Most pair sweeps of the refinement.
_REFINE_PASSES = 32
# Rows of a block, those of largest spectrum bound, factored before the bound prunes the rest.
_FIRST_BATCH = 8
# The pair move's turn e^{i pi/4}: it takes w^T M w = sigma to v^T M v = i sigma.
_QUARTER_TURN = complex(math.sqrt(0.5), math.sqrt(0.5))


def _moduli(half_excess: float, w: np.ndarray) -> np.ndarray:
    """``v = (gamma, sigma)`` (..., 2m) of weights w (..., m): ``gamma = (d + 1/d)/2 - 1``, ``sigma = (d - 1/d)/2``."""
    m = w.shape[-1]
    v = np.empty(w.shape[:-1] + (2 * m,))
    g = np.multiply(w, half_excess, out=v[..., :m])
    np.sqrt(g * (g + 2.0), out=v[..., m:])
    return v


def _vertex_coherences(diagonal: list[complex], half_excess: float) -> list[float]:
    """c(e_k) at every vertex e_k of the weights (all squeezing on mode k), from H's diagonal on Python scalars.

    At e_k, ``gamma_k = h`` and ``sigma_k^2 = h^2 + 2h`` for ``h = (E -
    2m)/2``, and every other modulus is 0, so the identity of
    ``numeric_max_search`` gives

        c(e_k) = 1/2 [h^2 (1 - |H_kk|^2) + (h^2 + 2h)(1 - Re H_kk^2)]
               = h [(h + 1)(1 - x^2) + y^2]

    at ``H_kk = x + iy``: O(m), and finite wherever h^2 is.
    """
    h = half_excess
    return [h * ((h + 1.0) * (1.0 - z.real * z.real) + z.imag * z.imag) for z in diagonal]


def _pair_move(p: complex, r: complex, q: complex) -> tuple[complex, complex]:
    """Unit ``v`` with ``v^T M v = i sigma_max(M)`` for the complex symmetric ``M = [[p, r], [r, q]]``, on Python scalars.

    By the Autonne-Takagi factorization (Horn and Johnson, Matrix Analysis,
    2nd ed., Sec. 4.4) ``v^T M v`` over the unit vectors of C^2 fills the disk
    of radius ``sigma_max(M)``.  M is scaled by its largest entry first, so
    nothing below overflows or underflows.  The top eigenvector x of the
    Hermitian ``P = M^H M`` is taken in closed form, from the column of ``P -
    lambda I``'s adjugate that does not cancel, and ``l = Mx / |Mx|``.  M is
    symmetric, so ``M conj(l) = sigma conj(x)`` as well as ``Mx = sigma l``,
    and both ``w = (x + conj(l)) / |x + conj(l)|`` and ``w = i (x - conj(l))
    / |x - conj(l)|`` give ``w^T M w = sigma``; the longer of the two vectors
    is taken, so neither cancels.  That holds for any unit x when ``sigma_1 =
    sigma_2`` (``P = sigma^2 I``, as for every unitary M).  Returned is ``v =
    e^{i pi/4} w``.
    """
    scale = max(abs(p), abs(r), abs(q))
    if not scale:  # M = 0: every v gives 0
        return _QUARTER_TURN, 0j
    p, r, q = p / scale, r / scale, q / scale
    pc, rc = p.conjugate(), r.conjugate()
    b = pc * r + rc * q  # P_12; P_11 - P_22 = |p|^2 - |q|^2
    t = 0.5 * ((p * pc).real - (q * q.conjugate()).real)
    s = math.hypot(t, abs(b))
    x1, x2 = (t + s, b.conjugate()) if t >= 0.0 else (b, s - t)
    size = math.hypot(abs(x1), abs(x2))
    x1, x2 = (x1 / size, x2 / size) if size else (1.0 + 0j, 0j)  # P = |p|^2 I: every x
    l1, l2 = p * x1 + r * x2, r * x1 + q * x2
    sigma = math.hypot(abs(l1), abs(l2))  # sigma_max >= 1, the largest entry
    l1, l2 = (l1 / sigma).conjugate(), (l2 / sigma).conjugate()  # conj(l)
    plus, minus = (x1 + l1, x2 + l2), (x1 - l1, x2 - l2)
    n_plus, n_minus = math.hypot(abs(plus[0]), abs(plus[1])), math.hypot(abs(minus[0]), abs(minus[1]))
    if n_plus >= n_minus:
        f = _QUARTER_TURN / n_plus
        return plus[0] * f, plus[1] * f
    f = 1j * _QUARTER_TURN / n_minus
    return minus[0] * f, minus[1] * f


def _best_sample(
    E: float, m: int, trials: int, seed: int
) -> tuple[float, int, np.ndarray, np.ndarray, np.ndarray]:
    """``(c, trial, X, Y, d)`` of the first sample of largest coherence, factoring few samples.

    The branch-and-bound sampling of ``numeric_max_search``.  A row's reach
    is its spectrum bound plus its floor.  A block none of whose rows reaches
    the best c of earlier blocks draws no uniforms and factors nothing.
    Otherwise the ``_FIRST_BATCH`` rows of largest bound among those that
    reach it are factored and scored, then every other row that reaches the
    best c so far.  ``score`` maps just the uniforms of the rows it factors
    to Ginibre matrices (``ginibre_from_uniforms``), an elementwise map, so
    every row has the bytes it would have if the whole block were mapped;
    only the factors of those rows are kept.
    """
    size, best_c = block_samples(m), -1.0
    for start, keep, rng in mc_blocks(seed, trials, size):
        ds = sample_d_batch(E, m, size, rng, keep)
        alphas = ds - 1.0
        betas = -alphas / ds
        sigmas = 0.5 * (alphas - betas)
        bounds = np.einsum("ij,ij->i", sigmas, sigmas)
        reach = bounds + 4.0 * m * rounding_floor(2 * m, bounds)
        # reach rises with the bound (every step of its arithmetic does), so
        # the rows that reach best_c are those of largest bound: none does if
        # the last of first does not, and all of first do if its first does
        first = np.argsort(bounds)[-_FIRST_BATCH:]
        if reach[first[-1]] < best_c:
            continue
        if reach[first[0]] < best_c:
            first = first[reach[first] >= best_c]
        ws = rng.random((keep, m, m, 2))
        c = np.full(len(ds), -np.inf)
        factored = []  # (rows as a list, their factors) per batch

        def score(rows: np.ndarray) -> None:
            u = haar_from_ginibre(ginibre_from_uniforms(ws[rows], real=False))
            vs = pure_xp_block(u.real, u.imag, alphas[rows], betas[rows])
            c[rows] = np.einsum("...ij,...ij->...", vs, vs)
            factored.append((rows.tolist(), u))

        score(first)
        reach[first] = -np.inf  # scored already
        rest = np.flatnonzero(reach >= max(best_c, c.max()))
        if len(rest):
            score(rest)
        j = int(np.argmax(c))  # first maximum, as a strict running ">" keeps
        if c[j] > best_c:
            best_c = float(c[j])
            rows, us = next(batch for batch in factored if j in batch[0])
            u = us[rows.index(j)]
            best = (start + j, u.real, u.imag, ds[j])
    return (best_c,) + best


def numeric_max_search(E: float, m: int, trials: int, seed: int) -> SearchOutcome:
    """Randomized search for the largest coherence at fixed covariance trace.

    Samples pure states (Haar passive gate times a random squeezing spectrum
    summing to the trace budget) in the blocks of ``mc_blocks``, each of
    ``block_samples(m)`` samples, so the samples of a run are a prefix of
    those of any longer run with the same seed.  A block draws every row's
    spectrum (``sample_d_batch``), then, only if one of its rows can still
    win, a ``(keep, m, m, 2)`` stack of uniform pairs for its gates;
    Gaussians are made from them (``ginibre_from_uniforms``) only for the
    rows factored.  No covariance matrix is built: a sample is
    scored by the squared norm of its position-momentum block, ``V_xp = Y
    (D^-1 - 1) X^T - X (D - 1) Y^T`` for passive unitary X + iY and ``D =
    diag(d)`` (``symplectic_ops.pure_xp_block``, two batched matmuls).  Most samples are never factored or scored, by
    branch and bound (Land and Doig, Econometrica 28, 497 (1960)): in the
    notation of the identity below, the spectrum alone bounds c at every
    passive U,

        c <= B(d) = sum_k sigma_k^2.

    Proof: ``P = |H|^2`` is symmetric and doubly stochastic, and ``|Re(H o
    H)_kl| <= P_kl``, so ``B - c >= 1/2 sum_kl P_kl (gamma_k + gamma_l
    + gamma_k gamma_l - sigma_k sigma_l)``; with ``sigma^2 = gamma^2 + 2
    gamma``, ``(gamma_k + gamma_l + gamma_k gamma_l)^2 - sigma_k^2 sigma_l^2
    = (gamma_k - gamma_l)^2 >= 0``, so every term is nonnegative.  Turning
    each mode's squeezing by pi/4 attains B, and ``B = sum gamma^2 + 2h <=
    h^2 + 2h`` for ``h = (E - 2m)/2`` is ``max_symplectic_coherence``.

    Per block, a row is live if its B plus a floor F reaches the best c of
    earlier blocks; a block with no live row draws no uniforms.  Otherwise
    the ``_FIRST_BATCH`` live rows of largest B are mapped to Ginibre
    matrices, factored (Haar QR, ``haar_from_ginibre``) and scored, then, in
    one more batch, every other row whose B + F reaches the best c so far,
    of earlier blocks and of this first batch (``_best_sample``); the best
    row keeps the factor of its batch.  A row left out has c below that
    best, so it could neither win nor tie, and the first maximum in index
    order is taken over c filled with -inf: every output is bit for bit that
    of scoring every sample.  At 200 trials about 24 / 6 / 4 % of the rows are
    factored at m = 2 / 4 / 8, and all of them at m = 1, where B is one value.

    ``F = 4m rounding_floor(2m, B) = 16 m (m + 1)^2 eps B`` bounds, to first
    order in eps, how far the computed c can pass the computed B.  The
    products and the difference of ``pure_xp_block`` err entrywise by at
    most ``(m + 2) eps (|Y| |beta| |X|^T + |X| |alpha| |Y|^T)``, whose
    Frobenius norm is at most ``sqrt(m) (|alpha| + |beta|) <= 3 sqrt(m B)``
    (the columns of U are unit vectors, ``|alpha_k| <= 2 sigma_k`` and
    ``|beta_k| <= sigma_k``), which moves ``|V_xp|^2 <= B`` by at most ``6
    sqrt(m) (m + 2) eps B``; the sum of m^2 squares adds ``m^2 eps B``, and
    the rounding of beta, sigma and B at most ``(m + 8) eps B``.  A computed
    Q at distance delta from the unitary group moves c by at most ``12 delta
    B``, and the rest of F admits delta >= m^3 eps, above the O(m^{5/2} eps)
    of a Householder QR (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., Sec. 19.3).

    The best sample is then refined on one identity.  With ``gamma = (d +
    1/d)/2 - 1`` and ``sigma = (d - 1/d)/2`` per mode, ``V_xp = Im(U Gamma
    U^H) - Im(U S U^T)`` with ``Gamma = diag(gamma)`` and ``S =
    diag(sigma)``: an antisymmetric plus a symmetric matrix, orthogonal in
    the Frobenius product, so unitarity gives

        c = 1/2 [sum(gamma^2 + sigma^2) - gamma^T |H|^2 gamma - sigma^T Re(H o H) sigma]

    for ``H = U^T U`` (``o`` elementwise).  What is proven and what is tested
    split there.  The spectrum half is proven: ``c <= B(d) <= c_max``, and
    ``B(d) = c_max`` only at a vertex e_k of the weights ``w = gamma / h``,
    all squeezing on one mode k.  So the refinement starts at the vertex of
    the sampled U of largest ``c(e_k) = h [(h + 1)(1 - x^2) + y^2]``, ``H_kk
    = x + iy`` (``_vertex_coherences``; the first of equals), where only
    column u_k of U counts and ``c = c_max`` iff ``H_kk = u_k^T u_k = +-i``.
    The unitary half is tested numerically, on Python scalars with no numpy
    call per move:

    * turn: column k is turned by a phase so that ``H_kk = i |H_kk|``; at m =
      1 that is the whole refinement;
    * pair sweeps: for each j != k in turn, columns k and j are mixed by the
      2 x 2 unitary ``[[v_1, -conj(v_2)], [v_2, conj(v_1)]]``, so ``u_k <-
      v_1 u_k + v_2 u_j`` and ``H_kk <- v^T M v`` for ``M = [[H_kk, H_kj],
      [H_kj, H_jj]]``.  ``_pair_move`` takes v to ``v^T M v = i
      sigma_max(M)``, the largest ``|H_kk|`` that the pair can reach, with x
      = 0 kept.  ``H_kj`` is read off the columns, and the diagonal of H is
      carried, so a move is O(m).  A move is kept only if ``|H_kk|`` rises;
      with x = 0, ``c = h [(h + 1) + |H_kk|^2]`` rises with it at every
      trace.  A sweep that raises ``|H_kk|`` by at most 4 eps ends the
      refinement, and there are at most ``_REFINE_PASSES`` sweeps.

    The argmax reports the refined U as ``x`` and ``y`` (``U = X + iY``,
    phases included) and its ``weights`` e_k, from which
    ``symplectic_ops.spectrum_from_weights`` gives the spectrum d.
    ``refined_coherence`` is ``c(e_k)`` at ``H_kk = u_k^T u_k`` of the
    reported U, the coherence of the pure state ``pure_cm(x, y, d)`` up to
    rounding (the H carried through the sweeps drifts a few ulps past ``|H_kk|
    = 1``).  ``theta`` is ``arg(H_jj)/2`` of the reported U per column, in
    (-pi/2, pi/2]: pi/4 on mode k, the paper's turn.  The argmax splits the
    gap ``c_max - refined_coherence`` into ``spectrum_gap = c_max - sum
    sigma_k^2``, the spectrum's part (0 to rounding at a vertex), and
    ``unitary_gap = sum sigma_k^2 - refined_coherence``, U's part, and gives
    ``vertex_gap = 1 - |H_kk|``, which is 0 at the maximiser.

    Args:
        E: covariance trace budget (>= 2m); only E = 2m forces the vacuum,
            reported as ``sup_c = 0`` with trial -1.
        m: mode count.
        trials: number of random samples (>= 1).
        seed: base seed.

    ``m``, ``trials`` and ``seed`` must be Python or numpy integers, not
    bools; a ``ValueError`` names the argument otherwise.

    Returns:
        Best coherence found and a description of where it occurred.
    """
    require_budget(E, m)
    _require_count("trials", trials)
    _require_int("seed", seed)
    if E == 2.0 * m:
        return SearchOutcome(0.0, {"trial": -1, "note": "trace budget forces vacuum"})

    best_c, trial_idx, x, y, _ = _best_sample(E, m, trials, seed)
    half_excess = 0.5 * (E - 2.0 * m)
    u = x + 1j * y
    diagonal = np.einsum("ij,ij->j", u, u).tolist()  # H_jj = u_j^T u_j
    at = _vertex_coherences(diagonal, half_excess)
    k = at.index(max(at))
    cols = u.T.tolist()  # the columns of U, mixed by every kept move
    p = diagonal[k]  # H_kk
    if p:  # turning u_k by rho turns H_kk by rho^2
        rho = (1j * p.conjugate() / abs(p)) ** 0.5
        cols[k] = [a * rho for a in cols[k]]
        p = 1j * abs(p)
    size = abs(p)  # |H_kk|, carried with p
    for _ in range(_REFINE_PASSES):
        start = size
        for j in range(m):
            if j == k:
                continue
            col_k, col_j = cols[k], cols[j]
            r, q = sum(map(operator.mul, col_k, col_j)), diagonal[j]
            v1, v2 = _pair_move(p, r, q)
            moved = v1 * (v1 * p + v2 * r) + v2 * (v1 * r + v2 * q)  # v^T M v
            moved_size = abs(moved)
            if not moved_size > size:
                continue
            w1, w2 = -v2.conjugate(), v1.conjugate()
            diagonal[j] = w1 * (w1 * p + w2 * r) + w2 * (w1 * r + w2 * q)
            p, size = moved, moved_size
            cols[k] = [v1 * a + v2 * b for a, b in zip(col_k, col_j)]
            cols[j] = [w1 * a + w2 * b for a, b in zip(col_k, col_j)]
        if not size - start > 4.0 * _EPS:
            break
    u = np.array(cols).T
    diagonal = np.einsum("ij,ij->j", u, u).tolist()
    refined_c = _vertex_coherences(diagonal, half_excess)[k]
    arg = np.angle(diagonal)
    theta = 0.5 * np.where(arg == -np.pi, np.pi, arg)
    weights = np.zeros(m)
    weights[k] = 1.0
    v = _moduli(half_excess, weights)
    sup_c = max(best_c, refined_c)
    bound = float(v[m:] @ v[m:])  # sum sigma_k^2, the spectrum's bound on c
    return SearchOutcome(
        sup_c,
        {
            "trial": trial_idx,
            "sample_coherence": best_c,
            "refined_coherence": refined_c,
            "spectrum_gap": max_symplectic_coherence(E, m) - bound,
            "unitary_gap": bound - refined_c,
            "vertex_gap": 1.0 - abs(diagonal[k]),
            "theta": theta.tolist(),
            "weights": weights.tolist(),
            "x": u.real.tolist(),
            "y": u.imag.tolist(),
        },
    )
