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
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .gaussian_core import (
    CovMat, DimensionError, GaussianState, _frobenius_sq, _gap_exceeds_floor, is_pure,
    require_valid, rounding_floor,
)
from .symplectic_ops import (
    SympGate,
    _require_count,
    _require_int,
    apply,
    block_samples,
    haar_from_ginibre,
    is_orthogonal,
    mc_blocks,
    pure_cm,
    pure_draw,
    pure_xp_block,
    require_budget,
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


def _gram_form(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``H = U^T U`` of a passive unitary U (phases absorbed) and its form ``I - diag(|H|^2, Re(H o H))``.

    The form is (2m, 2m), block diagonal, and ``_form_coherence`` reads the
    coherence from it; ``I - |H|^2`` has zero row sums, since ``|H|^2`` is
    doubly stochastic.
    """
    gram = u.T @ u
    m = len(gram)
    re_sq, im_sq = gram.real * gram.real, gram.imag * gram.imag
    form = np.eye(2 * m)
    form[:m, :m] -= re_sq + im_sq
    form[m:, m:] -= re_sq - im_sq
    return gram, form


def _form_coherence(v: np.ndarray, form: np.ndarray) -> np.ndarray:
    """Coherence of pure states of one passive unitary, for stacked moduli ``v = (gamma, sigma)`` (..., 2m).

    ``1/2 v^T F v`` for the form F of ``_gram_form``, which is
    ``1/2 [sum(gamma^2 + sigma^2) - gamma^T |H|^2 gamma - sigma^T Re(H o H)
    sigma]`` (the identity of ``numeric_max_search``).
    """
    return 0.5 * np.einsum("...i,...i->...", v @ form, v)


def _phase_argmax(c1: complex, c2: complex) -> complex:
    """Point z of the unit circle where ``Re(c1 z + c2 z^2)`` is largest, on Python scalars.

    With ``z = rho xi``, ``rho^2 = conj(c2)/|c2|``, and ``xi = x + iy``, the
    problem is to maximise ``q x^2 + a x + b y`` on ``x^2 + y^2 = 1``, where
    ``q = 2|c2|`` and ``a - ib = c1 rho`` (a constant ``-|c2|`` dropped): a
    two-dimensional trust-region subproblem (More and Sorensen, SIAM J. Sci.
    Stat. Comput. 4, 553 (1983)).  Its global maximiser is ``x = a/(2u)``,
    ``y = b/(2(q + u))`` at the unique root ``u > 0`` of ``x^2 + y^2 = 1``,
    except in the hard case ``a = 0``, ``|b| <= 2q``, where ``y = b/(2q)``.
    The inputs are scaled by ``max(|c1|, |c2|)`` first, so no ratio of the
    two overflows or underflows.  z = 1 wins ties, so a move that gains
    nothing stays where it is.
    """
    if c2 == 0:  # an unsqueezed mode (sigma = 0), or q = 0: at most linear in z
        return c1.conjugate() / abs(c1) if c1 else 1.0 + 0j
    size = abs(c2)
    scale = max(abs(c1), size)
    q = 2.0 * size / scale
    rho = (c2.conjugate() / size) ** 0.5
    g = c1 / scale * rho
    a, b = g.real, -g.imag
    # x^2 <= 1 and y^2 <= 1 bound the root below, x^2 + y^2 <= (a^2 + b^2)/(4u^2) above.
    lo, hi = max(0.5 * abs(a), 0.5 * abs(b) - q), 0.5 * math.hypot(a, b)
    if lo == 0.0:  # the hard case: a = 0 (to underflow) and |b| <= 2q
        y = b / (q + q)
        x = math.copysign(math.sqrt(1.0 - y * y), a)
    else:
        # Newton on 1/|(x, y)| = 1, which is concave and increasing in u, so
        # from lo its steps rise to the root; a step that leaves (lo, hi) or
        # is not below half the one before the last is replaced by halving
        # the bracket, geometrically while it spans more than a factor 2.
        u = lo
        older = last = hi - lo  # the steps before the last, and the last
        while True:
            x, y = a / (u + u), b / (2.0 * (q + u))
            n2 = x * x + y * y
            if n2 > 1.0:
                lo = u
            elif n2 < 1.0:
                hi = u
            else:
                break
            step = n2 * (math.sqrt(n2) - 1.0) / (x * x / u + y * y / (q + u))
            if u + step == u:
                break
            if lo < u + step < hi and abs(step) <= 0.5 * older:
                nxt = u + step
            else:
                nxt = math.sqrt(lo) * math.sqrt(hi) if hi > 2.0 * lo else 0.5 * (lo + hi)
                if not lo < nxt < hi:
                    break
            older, last = last, abs(nxt - u)
            u = nxt
    zeta = rho * complex(x, y)
    zeta /= abs(zeta)
    if (c1 * zeta + c2 * zeta * zeta).real > (c1 + c2).real:
        return zeta
    return 1.0 + 0j


def _best_turn(c1: complex, c2: complex) -> tuple[complex, float]:
    """``(zeta, gain)``: the best turn zeta of ``Re(c1 (zeta - 1) + c2 (zeta^2 - 1))`` and its value there."""
    zeta = _phase_argmax(c1, c2)
    return zeta, (c1 * (zeta - 1.0) + c2 * (zeta * zeta - 1.0)).real


def _phase_coefficients(rows: list[list[complex]], sig: list[float], k: int) -> tuple[complex, complex]:
    """``(c_1, c_2)`` of turning column k of U by ``e^{i theta}``, ``zeta = e^{2i theta}``, on Python scalars.

    ``c_1 = -sig_k sum_{l != k} sig_l H_kl^2`` and ``c_2 = -sig_k^2 H_kk^2 / 2``,
    from row k of H (``rows``) and the moduli ``sig`` in any common unit.
    """
    row, sk = rows[k], sig[k]
    c2 = -0.5 * (sk * sk * (row[k] * row[k]))
    return -(sk * sum(s * h * h for s, h in zip(sig, row))) - 2.0 * c2, c2


def _givens_coefficients(
    rows: list[list[complex]], gam: list[float], sig: list[float], i: int, j: int
) -> tuple[complex, complex]:
    """``(c_1, c_2)`` of turning columns i and j of U by a real rotation, on Python scalars.

    ``H -> R^T H R`` for the rotation R by phi of columns (i, j) changes
    ``_form_coherence`` by ``Re(c_1 (zeta - 1) + c_2 (zeta^2 - 1))``, ``zeta =
    e^{2i phi}`` (the proof is in ``numeric_max_search``), at the moduli
    ``gam`` and ``sig`` in any common unit; ``rows`` is H.  With ``T(a, b) =
    (a - ib) conj(a + ib)`` and ``S(a, b) = ((a - ib)^2 + conj(a + ib)^2)/2``
    the other modes k give ``t = sum_k gam_k T(H_ki, H_kj)`` and ``s = sum_k
    sig_k S(H_ki, H_kj)``; the block ``[[p, r], [r, q]]`` of (i, j) gives, with
    ``mu = (p + q)/2``, ``delta = (p - q)/2`` and ``A(x) = Re(x delta) - i Re(x
    r)``,

        c_1 = -1/2 [(gam_i - gam_j)(t + 2 (gam_i + gam_j) A(conj(mu)))
                    + (sig_i - sig_j)(s + 2 (sig_i + sig_j) A(mu))]
        c_2 = -1/4 [(gam_i - gam_j)^2 T(delta, r) + (sig_i - sig_j)^2 S(delta, r)].

    O(m) scalar operations, of which a weightless mode k takes none; both
    vanish for equal moduli.
    """
    row_i, row_j = rows[i], rows[j]
    t = s = 0j
    for k, (a, b, g, v) in enumerate(zip(row_i, row_j, gam, sig)):
        if g and k != i and k != j:  # a weightless mode adds 0 to both sums
            minus, plus = a - 1j * b, (a + 1j * b).conjugate()
            t += g * (minus * plus)
            s += v * (minus * minus + plus * plus)
    p, q, r = row_i[i], row_j[j], row_i[j]
    mu, delta = 0.5 * (p + q), 0.5 * (p - q)
    minus, plus = delta - 1j * r, (delta + 1j * r).conjugate()
    mu_c = mu.conjugate()
    dg, ds = gam[i] - gam[j], sig[i] - sig[j]
    a_g = complex((mu_c * delta).real, -(mu_c * r).real)
    a_s = complex((mu * delta).real, -(mu * r).real)
    c1 = -0.5 * (dg * (t + 2.0 * (gam[i] + gam[j]) * a_g) + ds * (0.5 * s + 2.0 * (sig[i] + sig[j]) * a_s))
    c2 = -0.25 * (dg * dg * (minus * plus) + 0.5 * ds * ds * (minus * minus + plus * plus))
    return c1, c2


def _free_turn(rows: list[list[complex]], gam: list[float], sig: list[float], i: int, j: int) -> complex:
    """zeta of the turn of a weightless column j after which rotating (i, j) is steepest, on Python scalars.

    At phi = 0 the rotation of ``_givens_coefficients`` changes c at the rate
    ``dc/dphi = -2 Re sum_k (W_ki H_kj - W_kj H_ki)`` with ``W_kl = gam_k gam_l
    conj(H_kl) + sig_k sig_l H_kl``.  With ``gam_j = sig_j = 0``, ``W_kj = 0``
    and turning column j by rho leaves c alone and takes ``x = sum_k W_ki
    H_kj`` to ``rho x``, so ``rho = conj(x)/|x|`` gives the rate 2|x| in
    size, its largest: a real rotation after it is a complex Givens rotation
    with the best first-order phase.  Returned as ``zeta = rho^2``, the form
    ``_turn_column`` takes; 1 if x = 0.  Weightless modes k add nothing to x
    and are skipped.
    """
    gi, si = gam[i], sig[i]
    x = sum((gi * g * a.conjugate() + si * v * a) * b for a, b, g, v in zip(rows[i], rows[j], gam, sig) if g)
    if not x:
        return 1.0 + 0j
    rho = x.conjugate() / abs(x)
    return rho * rho


def _turn_column(rows: list[list[complex]], cols: list[list[complex]], k: int, zeta: complex) -> None:
    """Turn column k of U by ``sqrt(zeta)``: row and column k of H (its diagonal entry by zeta), in place."""
    rho = zeta ** 0.5
    row = [v * rho for v in rows[k]]
    row[k] *= rho
    rows[k] = row
    for other, v in zip(rows, row):
        other[k] = v
    cols[k] = [v * rho for v in cols[k]]


def _rotate_columns(
    rows: list[list[complex]], cols: list[list[complex]], i: int, j: int, zeta: complex
) -> None:
    """Rotate columns (i, j) of U by phi, ``e^{2i phi} = zeta``, and H to ``R^T H R``, in place.

    The new columns are ``cos(phi) u_i + sin(phi) u_j`` and ``cos(phi) u_j -
    sin(phi) u_i``; the block ``[[p, r], [r, q]]`` of H goes to ``mu +- (Re(zeta)
    delta + Im(zeta) r)`` on its diagonal and ``Re(zeta) r - Im(zeta) delta``
    off it, as in ``_givens_coefficients``.
    """
    rho = zeta ** 0.5
    c, s = rho.real, rho.imag
    row_i, row_j = rows[i], rows[j]
    p, q, r = row_i[i], row_j[j], row_i[j]
    new_i = [c * a + s * b for a, b in zip(row_i, row_j)]
    new_j = [c * b - s * a for a, b in zip(row_i, row_j)]
    mu, delta = 0.5 * (p + q), 0.5 * (p - q)
    turn = zeta.real * delta + zeta.imag * r
    new_i[i], new_j[j] = mu + turn, mu - turn
    new_i[j] = new_j[i] = zeta.real * r - zeta.imag * delta
    rows[i], rows[j] = new_i, new_j
    for row, a, b in zip(rows, new_i, new_j):
        row[i], row[j] = a, b
    col_i, col_j = cols[i], cols[j]
    cols[i] = [c * a + s * b for a, b in zip(col_i, col_j)]
    cols[j] = [c * b - s * a for a, b in zip(col_i, col_j)]


# Interior weight move: grid points per line.
_WEIGHT_GRID = 17
# Most coordinate sweeps (phase moves, Givens moves, then one weight move) of the refinement.
_REFINE_PASSES = 4
# The grid on [0, 1].  The fractions k/16 and 1 - k/16 are exact, so the
# ends are exactly 0 and 1, and no grid point exceeds 1 (which would make the
# other weights negative).
_GRID = np.linspace(0.0, 1.0, _WEIGHT_GRID)
# Rows of a block, those of largest spectrum bound, factored before the bound prunes the rest.
_FIRST_BATCH = 8


def _moduli(half_excess: float, w: np.ndarray) -> np.ndarray:
    """``v = (gamma, sigma)`` (..., 2m) of weights w (..., m): ``gamma = (d + 1/d)/2 - 1``, ``sigma = (d - 1/d)/2``."""
    m = w.shape[-1]
    v = np.empty(w.shape[:-1] + (2 * m,))
    g = np.multiply(w, half_excess, out=v[..., :m])
    np.sqrt(g * (g + 2.0), out=v[..., m:])
    return v


def _weight_move(
    weights: np.ndarray, form: np.ndarray, half_excess: float, c0: float
) -> tuple[np.ndarray, float] | None:
    """The best single-weight move of ``_form_coherence`` from interior ``weights``, if it raises c0.

    Line i sets weight i to t in [0, 1] and shares the remaining 1 - t among
    the others in proportion to their weights, divided by their own directly
    summed rest (the total minus weight i cancels when weight i is near 1);
    a line whose rest is 0 (m = 1, or weight i alone) has no other point and
    is left out.  Every line's ``_WEIGHT_GRID`` points are evaluated in one
    (lines, ``_WEIGHT_GRID``, 2m) stack of moduli on the form, and the best
    point of the best line is returned (the Gauss-Southwell rule), the first
    of equals, or None if no point beats c0.  The end t = 1 of line i is
    exactly the vertex e_i; from a vertex the search moves by
    ``_vertex_coherences`` instead.
    """
    m = len(weights)
    others = np.where(np.eye(m, dtype=bool), 0.0, weights)  # row i: the weights but weight i
    rest = others.sum(axis=1)
    lines = np.flatnonzero(rest > 0.0)
    if not len(lines):
        return None
    share = others[lines] / rest[lines, None]
    t = _GRID[:, None]
    w = (1.0 - t) * share[:, None] + t * np.eye(m)[lines, None]
    c = _form_coherence(_moduli(half_excess, w), form)
    best = np.unravel_index(c.argmax(), c.shape)
    if not c[best] > c0:
        return None
    return w[best], float(c[best])


def _vertex_coherences(rows: list[list[complex]], half_excess: float) -> list[float]:
    """c(e_k) at every vertex e_k of the weights (all squeezing on mode k), from H's diagonal on Python scalars.

    At e_k, ``gamma_k = h`` and ``sigma_k^2 = h^2 + 2h`` for ``h = (E -
    2m)/2``, and every other modulus is 0, so ``_form_coherence`` is

        c(e_k) = 1/2 [h^2 (1 - |H_kk|^2) + (h^2 + 2h)(1 - Re H_kk^2)]
               = h [(h + 1)(1 - x^2) + y^2]

    at ``H_kk = x + iy``: O(m), no form, and finite wherever h^2 is.
    """
    h = half_excess
    diagonal = [row[k] for k, row in enumerate(rows)]
    return [h * ((h + 1.0) * (1.0 - z.real * z.real) + z.imag * z.imag) for z in diagonal]


def _best_sample(
    E: float, m: int, trials: int, seed: int
) -> tuple[float, int, np.ndarray, np.ndarray, np.ndarray]:
    """``(c, trial, X, Y, d)`` of the first sample of largest coherence, factoring few samples.

    The branch-and-bound sampling of ``numeric_max_search``: per block, the
    ``_FIRST_BATCH`` rows of largest spectrum bound are factored and scored,
    then every other row whose bound plus its floor reaches the best c so far;
    the best row keeps the factor of its batch.
    """
    draw = partial(pure_draw, E=E, m=m, real=False)
    best_c = -1.0
    for start, (ds, zs) in mc_blocks(seed, trials, block_samples(m), draw):
        alphas = ds - 1.0
        betas = -alphas / ds
        sigmas = 0.5 * (alphas - betas)
        bounds = np.einsum("ij,ij->i", sigmas, sigmas)
        reach = bounds + 4.0 * m * rounding_floor(2 * m, bounds)
        c = np.full(len(ds), -np.inf)
        us = np.empty_like(zs)

        def score(rows: np.ndarray) -> None:
            u = us[rows] = haar_from_ginibre(zs[rows])
            vs = pure_xp_block(u.real, u.imag, alphas[rows], betas[rows])
            c[rows] = np.einsum("...ij,...ij->...", vs, vs)

        first = np.argsort(bounds)[-_FIRST_BATCH:]
        score(first)
        reach[first] = -np.inf  # scored already
        rest = np.flatnonzero(reach >= max(best_c, c.max()))
        if len(rest):
            score(rest)
        j = int(np.argmax(c))  # first maximum, as a strict running ">" keeps
        if c[j] > best_c:
            best_c = float(c[j])
            best = (start + j, us[j].real, us[j].imag, ds[j])
    return (best_c,) + best


def numeric_max_search(E: float, m: int, trials: int, seed: int) -> SearchOutcome:
    """Randomized search for the largest coherence at fixed covariance trace.

    Samples pure states (Haar passive gate times a random squeezing spectrum
    summing to the trace budget) in the blocks of ``mc_blocks``, each
    ``block_samples(m)`` draws of ``pure_draw``, so the samples of a run are a
    prefix of those of any longer run with the same seed.  No covariance
    matrix is built: a sample is scored by the squared norm of its
    position-momentum block, ``V_xp = Y (D^-1 - 1) X^T - X (D - 1) Y^T`` for
    passive unitary X + iY and ``D = diag(d)`` (``symplectic_ops.pure_xp_block``,
    two batched matmuls).  Most samples are never factored or scored, by
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

    Per block, the ``_FIRST_BATCH`` rows of largest B are factored (Haar QR,
    ``haar_from_ginibre``) and scored, then, in one more batch, every other
    row whose B plus a floor F reaches the best c so far, of earlier blocks
    and of this first batch (``_best_sample``); the best row keeps the factor
    of its batch.  A row left out has c below that best, so it could neither
    win nor tie, and the first maximum in index order is taken over c filled
    with -inf: every output is bit for bit that of scoring every sample.  At
    200 trials about 24 / 6 / 4 % of the rows are factored at m = 2 / 4 / 8,
    and all of them at m = 1, where B is one value.

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

    for ``H = U^T U`` (``o`` elementwise), a quadratic form in ``(gamma,
    sigma)`` (``_gram_form``, ``_form_coherence``).  The refinement carries
    U with every turn absorbed in it, H as Python complex rows updated in
    O(m) per move, and the weights, in sweeps of three kinds of move:

    * per-mode phase: turning column k of U by ``e^{i theta}`` changes c by
      ``Re(c_1 (zeta - 1) + c_2 (zeta^2 - 1))``, ``zeta = e^{2i theta}``,
      with ``c_1 = -sigma_k sum_{l != k} sigma_l H_kl^2`` and ``c_2 =
      -sigma_k^2 H_kk^2 / 2`` (``_phase_coefficients``).  The global maximum
      over zeta is a two-dimensional trust-region subproblem, solved in
      closed form up to the root of one scalar secular equation
      (``_phase_argmax``);
    * Givens: column k* of U, the mode of largest weight at the start of
      the sweep, is rotated against every other column l by the real
      rotation R(phi) of the plane (k*, l), which sends H to ``R^T H R``.
      Each entry of ``R^T H R`` is a sum of ``cos^2 phi = (1 + cos psi)/2``,
      ``sin^2 phi = (1 - cos psi)/2`` and ``cos phi sin phi = sin psi / 2``
      times entries of H, for ``psi = 2 phi``: a trigonometric polynomial of
      degree 1 in psi (``R(phi + pi) = -R(phi)`` leaves H alone).  So
      ``|H_kl|^2`` and ``Re H_kl^2``, and c with them, are of degree 2 in
      psi: ``c(psi) = c_0 + Re(c_1 (zeta - 1) + c_2 (zeta^2 - 1))`` at ``zeta
      = e^{i psi}``, the phase move's form, with c_1 from the other rows of
      columns k* and l and from the 2 x 2 block, and c_2 from the block
      alone (``_givens_coefficients``); ``_phase_argmax`` gives its global
      maximum too.  A column l of zero weight is first turned to the phase
      at which the rotation's slope at phi = 0 is largest (``_free_turn``),
      which leaves c alone, since its phase move cannot move it: its
      coefficients are 0, so the phase moves skip it, as every sum of the
      moves skips the terms of weightless modes.  m - 1 moves per sweep, no
      numpy call per move;
    * weights, with ``gamma = (E - 2m) w / 2`` and ``sigma = sqrt(gamma
      (gamma + 2))`` per mode.  While the weights are interior (the
      sampled spectrum's, in practice the first sweep), a single weight is
      moved in [0, 1] with the others rescaled to share the rest, on the
      form of H rebuilt from U if it turned: every mode's line is gridded,
      all in one stacked evaluation of the form, and only the best line's
      best point is taken (``_weight_move``).  Its end t = 1 is a vertex
      e_k, all squeezing on mode k, where every argmax ends.  From a vertex
      the move is to the best vertex, ``c(e_k) = h [(h + 1)(1 - x^2) + y^2]``
      at ``H_kk = x + iy`` and ``h = (E - 2m)/2``, read in O(m) off the
      diagonal of the rows of H that the other moves keep, with no form
      (``_vertex_coherences``).  Near the vacuum an interior point of the
      grid can win: vertex moves alone from the sampled weights end at 0.985
      c_max at E = 8.000001, m = 4, 50 trials, seed 87, against 1 - 3e-9.

    The phase and Givens coefficients take gamma and sigma divided by
    ``(E - 2m)/2``, so they stay finite at every trace whose square is.  A
    move is accepted only if it raises the current value.  A sweep whose
    total gain is at most ``rounding_floor(2m, c)`` ends the refinement (a
    free turn gains nothing): past it the gains are rounding, which would
    carry c above c_max sweep by sweep.  There are at most
    ``_REFINE_PASSES`` sweeps.  The argmax reports the
    refined U as ``x`` and ``y`` (``U = X + iY``, phases included), its
    ``weights``, from which ``symplectic_ops.spectrum_from_weights`` gives the
    spectrum d, and ``refined_coherence``, the coherence of the pure state
    ``pure_cm(x, y, d)``.  ``theta`` is each column's sum of phase turns
    modulo pi, ``arg(z)/2`` in (-pi/2, pi/2] for z the product of its zetas.
    It splits the gap ``c_max - refined_coherence`` into ``spectrum_gap =
    c_max - sum sigma_k^2``, the spectrum's part (0 to rounding at a
    vertex), and ``unitary_gap = sum sigma_k^2 - refined_coherence``, U's
    part, and gives ``vertex_gap = 1 - |H_kk|`` for the mode k of largest
    weight, which is 0 at the maximiser.

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

    best_c, trial_idx, x, y, d = _best_sample(E, m, trials, seed)
    half_excess = 0.5 * (E - 2.0 * m)
    unit = half_excess * half_excess  # the coherence of a unit of the scaled coefficients
    weights = np.clip((d + 1.0 / d - 2.0) / (2.0 * half_excess), 0.0, None)
    weights = weights / weights.sum()
    u = x + 1j * y
    cols = u.T.tolist()  # the columns of U, turned by every accepted move
    gram, form = _gram_form(u)
    rows = gram.tolist()  # H as Python complex rows, read and updated by the moves
    z = [1.0 + 0j] * m  # e^{2i theta}: each column's phase turns
    v = _moduli(half_excess, weights)
    refined_c = float(_form_coherence(v, form))
    vertex = np.count_nonzero(weights) == 1  # all squeezing on one mode (always at m = 1)
    for _ in range(_REFINE_PASSES):
        start_c = refined_c
        scaled = (v / half_excess).tolist()
        gam, sig = scaled[:m], scaled[m:]
        turned = False
        for k in range(m):
            if not sig[k]:  # a weightless column: its phase move is 0 (c_1 = c_2 = 0)
                continue
            zeta, gain = _best_turn(*_phase_coefficients(rows, sig, k))
            if gain > 0.0:
                _turn_column(rows, cols, k, zeta)
                z[k] *= zeta
                refined_c += unit * gain
                turned = True
        i = int(weights.argmax())
        for j in range(m):
            if j == i:
                continue
            zeta = _free_turn(rows, gam, sig, i, j) if sig[j] == 0.0 else 1.0
            if zeta != 1.0:  # column j carries no weight, so its turn leaves c alone
                _turn_column(rows, cols, j, zeta)
                z[j] *= zeta
                turned = True
            zeta, gain = _best_turn(*_givens_coefficients(rows, gam, sig, i, j))
            if gain > 0.0:
                _rotate_columns(rows, cols, i, j, zeta)
                refined_c += unit * gain
                turned = True
        if vertex:
            at = _vertex_coherences(rows, half_excess)
            k = max(range(m), key=at.__getitem__)
            if at[k] > refined_c:
                weights = np.zeros(m)
                weights[k] = 1.0
                refined_c = at[k]
                v = _moduli(half_excess, weights)
        else:
            if turned:
                gram, form = _gram_form(np.array(cols).T)
                rows = gram.tolist()
            move = _weight_move(weights, form, half_excess, refined_c)
            if move is not None:
                weights, refined_c = move
                v = _moduli(half_excess, weights)
                vertex = np.count_nonzero(weights) == 1
        if not refined_c - start_c > rounding_floor(2 * m, refined_c):
            break
    u = np.array(cols).T
    arg = np.angle(z)
    theta = 0.5 * np.where(arg == -np.pi, np.pi, arg)
    sup_c = max(best_c, refined_c)
    bound = float(v[m:] @ v[m:])  # sum sigma_k^2, the spectrum's bound on c
    k = int(weights.argmax())
    return SearchOutcome(
        sup_c,
        {
            "trial": trial_idx,
            "sample_coherence": best_c,
            "refined_coherence": refined_c,
            "spectrum_gap": max_symplectic_coherence(E, m) - bound,
            "unitary_gap": bound - refined_c,
            "vertex_gap": 1.0 - abs(rows[k][k]),
            "theta": theta.tolist(),
            "weights": weights.tolist(),
            "x": u.real.tolist(),
            "y": u.imag.tolist(),
        },
    )
