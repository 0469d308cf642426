"""Metrology and channel-discrimination consequences of position-momentum correlations.

Closed-form bounds (quantum Fisher information, Helstrom and trace-distance
lower bounds, sufficient-sample thresholds) plus a Monte-Carlo simulator of
the median-of-means discrimination protocol that measures the symmetrized
product of the first mode's position and momentum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .coherence import max_symplectic_coherence
from .gaussian_core import (
    CovMat, DimensionError, GaussianState, NumericError, _gap_exceeds_floor, _require_count, _require_int, is_pure,
)
from .symplectic_ops import BLOCK_ENTRIES, mc_blocks, require_transmissivity

WILSON_Z = 1.96  #: normal quantile of the 95% Wilson-score bound on the error rate


class QfiBound(NamedTuple):
    """Displacement-sensing quantum Fisher information value.

    ``exact`` is true for pure probes, where the value is the QFI itself;
    for mixed probes it is an upper bound.
    """

    value: float
    exact: bool


def qfi_displacement(cov: CovMat) -> QfiBound:
    """Quantum Fisher information for sensing a displacement with one mode.

    ``2 (V_x + V_p) + 4 |V_xp|``; when the off-diagonal covariance is
    negative, the Fourier gate (quadrature swap) makes it positive without
    changing the bound, hence the absolute value.

    Taken on Python floats, the same IEEE arithmetic as on numpy scalars,
    so an overflow gives ``inf`` with no warning.

    Raises:
        DimensionError: if the covariance matrix is not single-mode.
        NumericError: if the bound overflows float64.
    """
    if cov.m != 1:
        raise DimensionError(f"single-mode covariance required, got m={cov.m}")
    (v_x, v_xp), (_, v_p) = cov.matrix.tolist()
    value = 2.0 * (v_x + v_p) + 4.0 * abs(v_xp)
    if not math.isfinite(value):
        raise NumericError("quantum Fisher information bound 2 (V_x + V_p) + 4 |V_xp| overflows float64")
    return QfiBound(value, is_pure(cov))


def _moment_gaps(E1: float, E2: float, c1: float, c2: float, cap: float, m: int) -> tuple[float, float]:
    """``(E1 - E2, sqrt(c1) - sqrt(c2))``: the moment gaps both trace-distance bounds square.

    Raises:
        ValueError: unless the traces E_i, the coherences c_i and the bound's
            energy cap are nonnegative and finite (so also for NaN), and m is a
            count (``_require_count``).
    """
    _require_count("m", m)
    if not all(0.0 <= x < math.inf for x in (E1, E2, c1, c2, cap)):
        raise ValueError(
            "traces, coherences and energy cap must be nonnegative and finite, "
            f"got E1={E1}, E2={E2}, c1={c1}, c2={c2}, cap={cap}, m={m}"
        )
    return E1 - E2, math.sqrt(c1) - math.sqrt(c2)


def td_lower_bound_gaussian(
    E1: float, E2: float, c1: float, c2: float, E_cap: float, m: int
) -> float:
    """Trace-distance lower bound between Gaussian states from summary data.

    ``(1/200) min(1, sqrt((E1-E2)^2/(2m) + 2(sqrt(c1)-sqrt(c2))^2) / (E_cap+1))``
    where E_i are covariance traces, c_i the coherences, and E_cap a caller
    supplied energy cap; the value never exceeds 1/200.

    Raises:
        ValueError: on a negative, infinite or NaN input, or an m that is not a count.
    """
    trace_gap, root_gap = _moment_gaps(E1, E2, c1, c2, E_cap, m)
    gap_sq = trace_gap * trace_gap / (2.0 * m) + 2.0 * root_gap * root_gap
    return min(1.0, math.sqrt(gap_sq) / (E_cap + 1.0)) / 200.0


def td_lower_bound_general(
    E1: float, E2: float, c1: float, c2: float, E_tilde_sq: float, m: int
) -> float:
    """Trace-distance lower bound valid beyond the Gaussian family.

    ``((E1-E2)^2/(2m) + 2(sqrt(c1)-sqrt(c2))^2) / (3200 E_tilde_sq m)`` with
    ``E_tilde_sq`` a caller-supplied second-moment energy cap, taken as
    ``(t / (80 m sqrt(E_tilde_sq)))^2 + (r / (40 sqrt(E_tilde_sq) sqrt(m)))^2``
    for the gaps t = E1 - E2 and r = sqrt(c1) - sqrt(c2): each gap is divided
    before it is squared, so no intermediate leaves the float range that the
    bound itself stays in.

    Raises:
        ValueError: on a negative, infinite or NaN input, on
            ``E_tilde_sq = 0`` (the bound divides by it), or an m that is
            not a count.
        NumericError: if the bound is past the float range.
    """
    trace_gap, root_gap = _moment_gaps(E1, E2, c1, c2, E_tilde_sq, m)
    if E_tilde_sq == 0.0:
        raise ValueError("energy cap E_tilde_sq must be positive: the general bound divides by it")
    root_cap = math.sqrt(E_tilde_sq)
    t = trace_gap / (80.0 * m) / root_cap
    r = root_gap / 40.0 / root_cap / math.sqrt(m)
    bound = t * t + r * r
    if bound == math.inf:
        raise NumericError(f"trace-distance bound overflows float64: its moment gaps are {trace_gap} and {root_gap}")
    return bound


def helstrom_lower_bound_loss(E: float, m: int, eta: float, c: float) -> float:
    """Lower bound on distinguishing a loss channel from the identity.

    Optimal success probability of telling the identity from loss with
    transmissivity ``eta`` using a probe of covariance trace E and
    coherence c: Helstrom's ``1/2 + D/2`` at the trace-distance bound
    :func:`td_lower_bound_gaussian` between the two outputs, at energy cap E.
    The identity's output has trace E and coherence c, the loss output
    ``eta E + (1-eta) 2m`` and ``eta^2 c``, so the bound is
    ``1/2 + (1/400) min(1, sqrt((1-eta)^2 (E-2m)^2/(2m) + 2 c (1-eta)^2) / (E+1))``.

    Raises:
        ValueError: unless ``0 <= eta <= 1``, E and c are nonnegative and
            finite (so also for NaN), and m is a count (``_require_count``).
    """
    require_transmissivity(eta)
    loss_trace = eta * E + (1.0 - eta) * 2.0 * m
    return 0.5 + 0.5 * td_lower_bound_gaussian(E, loss_trace, c, eta * eta * c, E, m)


def meas_moments(state: GaussianState, channel) -> tuple[float, float]:
    """Mean and variance of the position-momentum product on a channel output.

    The observable is the symmetrized product of the first mode's position
    and momentum (half the anticommutator).  For a zero-mean Gaussian output
    its mean is the (1,1) entry ``mu = V_0m`` of the position-momentum
    covariance block and its variance is ``1 + V_00 V_mm + mu^2``, read from
    the output's entries on Python floats: a sum of nonnegative terms, equal
    to ``1 + nu_1^2 + 2 mu^2`` with ``nu_1^2 = V_00 V_mm - mu^2`` the first
    mode's squared local symplectic eigenvalue.

    Args:
        state: probe with zero first moments.
        channel: object with ``apply_to(state) -> GaussianState``.

    Raises:
        ValueError: if the probe or the channel output has first moments.
        NumericError: if the variance overflows float64.
    """
    if state.d.any():
        raise ValueError("probe must have zero first moments")
    out = channel.apply_to(state)
    if out.d.any():
        raise ValueError("channel output must have zero first moments")
    v, m = out.cov.matrix, out.cov.m
    mu, v00, vmm = float(v[0, m]), float(v[0, 0]), float(v[m, m])
    var = 1.0 + v00 * vmm + mu * mu
    if not math.isfinite(var):
        raise NumericError("variance 1 + V_00 V_mm + mu^2 of the measured product overflows float64")
    return mu, var


def energy_offset(m: int, E: float) -> float:
    """Variance budget term ``1 + (E/2 - (m-1))^2`` used by the thresholds (inf past the float range).

    Raises ``ValueError`` unless m is a count (``_require_count``) and E a number (not NaN).
    """
    _require_count("m", m)
    if math.isnan(E):
        raise ValueError(f"covariance trace E must be a number, got {E}")
    half = E / 2.0 - (m - 1)
    return 1.0 + half * half


def _log_factor(delta: float) -> float:
    """``log(2 / delta)``; for a delta below ``2 / float max``, where the
    ratio overflows, the difference of the two logarithms."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"failure probability must be in (0, 1), got {delta}")
    ratio = 2.0 / delta
    return math.log(ratio) if ratio != math.inf else math.log(2.0) - math.log(delta)


def _mom_groups(n: int, delta: float) -> tuple[int, int]:
    """Median-of-means group count and size for n samples: ``(K, n // K)``.

    ``K = min(max(1, ceil(8 log(2/delta))), n)``: every sample is its own
    group when there are fewer samples than groups.
    """
    k = min(max(1, math.ceil(8.0 * _log_factor(delta))), n)
    return k, n // k


def _threshold(ratio: float, delta: float) -> float:
    """``272 log(2/delta) ratio``, the sample threshold of a variance over a squared gap.

    Raises:
        ValueError: unless ``0 < delta < 1``.
        NumericError: if the threshold is past the float range (or NaN).
    """
    n = 272.0 * _log_factor(delta) * ratio
    if not math.isfinite(n):
        raise NumericError(f"sample threshold overflows float64: 272 log(2/delta) variance / gap^2 is {n}")
    return n


def n_thres_orthogonal(mu1: float, mu2: float, m: int, E: float, delta: float) -> float:
    """Sufficient samples to tell two orthogonal-dilation channels apart.

    ``272 log(2/delta) (max(mu1^2, mu2^2) + 1 + (E/2-(m-1))^2) / (mu2-mu1)^2``
    for channel-output means mu1 != mu2 at probe trace E, on Python floats,
    each term divided by the gap before it is squared, ``(mu/gap)^2 +
    (f/gap)/gap``, so that means past the root of the float range still give
    the finite threshold.

    Raises:
        ValueError: if a mean is not finite, or the means coincide (no
            finite threshold exists).
        NumericError: if the threshold, or the energy offset f, overflows float64.
    """
    if not (math.isfinite(mu1) and math.isfinite(mu2)):
        raise ValueError(f"channel output means must be finite, got {mu1} and {mu2}")
    if not _gap_exceeds_floor(mu1, mu2, 2 * m):
        raise ValueError("channel output means coincide; threshold is infinite")
    gap = mu2 - mu1
    q = max(abs(mu1), abs(mu2)) / gap
    return _threshold(q * q + energy_offset(m, E) / gap / gap, delta)


def n_thres_orthogonal_optimal(m: int, E: float, delta: float, c: float) -> float:
    """Orthogonal-pair threshold for a probe of maximal mean gap at coherence c.

    :func:`n_thres_orthogonal` at the means ``-sqrt(c)`` and ``sqrt(c)``:
    ``272 log(2/delta) (c + f) / (4c) = 68 log(2/delta) (1 + f/c)`` with
    ``f = 1 + (E/2-(m-1))^2``.

    Raises:
        ValueError: unless c is positive and finite.
        NumericError: as :func:`n_thres_orthogonal`.
    """
    if not 0.0 < c < math.inf:
        raise ValueError(f"coherence must be positive and finite for a finite threshold, got {c}")
    return n_thres_orthogonal(-math.sqrt(c), math.sqrt(c), m, E, delta)


def loss_g(nu_sq: float, mu: float, E1: float, eta: float) -> float:
    """Per-transmissivity variance-to-signal ratio for loss discrimination.

    ``(eta^2 nu^2 + (1-eta)^2 + eta(1-eta) E1 + 2 eta^2 mu^2) / mu^2`` where
    nu^2 and mu are the probe's first-mode local symplectic eigenvalue
    squared and position-momentum covariance, and E1 its first-mode trace.
    Taken on Python floats as ``(num / mu) / mu + 2 eta^2`` for the first
    three terms ``num``, so the mu^2 term cancels exactly: inf only where the
    ratio is past the float range, with no error.
    """
    if mu == 0.0:
        raise ValueError("probe position-momentum covariance must be nonzero")
    rest, eta_sq = 1.0 - eta, eta * eta
    num = eta_sq * nu_sq + rest * rest + eta * rest * E1
    return num / mu / mu + 2.0 * eta_sq


def n_thres_loss(
    mu: float, nu_sq: float, E1: float, eta1: float, eta2: float, delta: float
) -> float:
    """Sufficient samples to tell two loss channels apart with a fixed probe.

    ``272 log(2/delta) max(g(eta1), g(eta2)) / (eta2 - eta1)^2`` with ``g``
    as in :func:`loss_g`.

    Raises:
        ValueError: if ``mu == 0`` or the transmissivities coincide.
        NumericError: if the threshold overflows float64 (or is NaN).
    """
    if not _gap_exceeds_floor(eta1, eta2, 1):
        raise ValueError("equal transmissivities; threshold is infinite")
    g_max = max(loss_g(nu_sq, mu, E1, eta1), loss_g(nu_sq, mu, E1, eta2))
    gap = eta2 - eta1
    return _threshold(g_max / gap / gap, delta)


def loss_gtilde(m: int, E: float, eta: float) -> float:
    """Leading part of :func:`loss_g` at the maximal-coherence probe.

    ``(eta^2 + (1-eta)^2) / c_max + 2 eta^2``; the full ratio adds the cross
    term ``eta (1-eta) (E - 2(m-1)) / c_max``.
    """
    c_max = max_symplectic_coherence(E, m)
    if c_max <= 0:
        raise ValueError("trace budget admits no correlations; threshold is infinite")
    return (eta**2 + (1.0 - eta) ** 2) / c_max + 2.0 * eta**2


def n_thres_loss_optimal(m: int, E: float, eta1: float, eta2: float, delta: float) -> float:
    """Loss-pair threshold evaluated at the maximal-coherence probe.

    The optimal probe at trace E has ``mu^2 = c_max``, a pure first mode
    (``nu^2 = 1``) and first-mode trace ``E - 2(m-1)``; the threshold is
    :func:`n_thres_loss` at those values.

    Raises:
        ValueError: if ``E = 2m`` (no correlations) or the transmissivities coincide.
        NumericError: as :func:`n_thres_loss`.
    """
    c_max = max_symplectic_coherence(E, m)
    if c_max <= 0:
        raise ValueError("trace budget admits no correlations; threshold is infinite")
    return n_thres_loss(
        mu=math.sqrt(c_max),
        nu_sq=1.0,
        E1=E - 2.0 * (m - 1),
        eta1=eta1,
        eta2=eta2,
        delta=delta,
    )


def median_of_means(samples: Sequence[float] | np.ndarray, delta: float) -> float | np.ndarray:
    """Median-of-means estimate with ``K = max(1, ceil(8 log(2/delta)))`` blocks.

    Reduces along the last axis of a ``(..., n)`` array: a float for 1-D
    input, an array of shape ``(...)`` otherwise, each entry equal to the
    1-D estimate of its row.  Blocks are equal-sized; trailing samples that
    do not fill a block are discarded.  When fewer samples than blocks are
    given, every sample is its own block.

    Raises:
        ValueError: on empty input or delta outside (0, 1).
    """
    x = np.asarray(samples, dtype=float)
    n = x.shape[-1] if x.ndim else 0
    if n == 0:
        raise ValueError("samples must be nonempty")
    k, block = _mom_groups(n, delta)
    means = x[..., : k * block].reshape(*x.shape[:-1], k, block).mean(axis=-1)
    estimate = np.median(means, axis=-1)
    return float(estimate) if x.ndim == 1 else estimate


def wilson_upper(failures: int, trials: int) -> float:
    """Wilson-score upper confidence limit for a binomial proportion, at ``z = WILSON_Z``.

    Raises:
        ValueError: naming the argument, unless ``failures`` and ``trials``
            are integers (``_require_int``), ``trials`` is positive and
            ``0 <= failures <= trials``.
    """
    _require_int("failures", failures)
    _require_int("trials", trials)
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= failures <= trials:
        raise ValueError(f"failures must be in 0..{trials}, got {failures}")
    z = WILSON_Z
    p = failures / trials
    denom = 1.0 + z * z / trials
    center = p + z * z / (2.0 * trials)
    margin = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return (center + margin) / denom


@dataclass(frozen=True, eq=False)
class DiscriminationConfig:
    """Monte-Carlo setup for the two-channel discrimination protocol.

    Attributes:
        probe: zero-mean Gaussian probe state.
        channels: the two candidate channels (objects with ``apply_to``).
        delta: target failure probability in (0, 1).
        n_samples: measurement shots per trial.
        trials: number of simulated discrimination rounds.
        seed: base seed; trials run through ``symplectic_ops.mc_blocks`` in
            blocks of ``BLOCK_ENTRIES`` trials, each block drawing one array
            of ``kept`` uniforms (``random(kept)``) and nothing else, the
            first entries of a full block's draw: one uniform per trial,
            compared with the model's chance of a wrong verdict (see
            :func:`run_discrimination`).

    ``n_samples``, ``trials`` and ``seed`` must be Python or numpy integers,
    not bools; construction raises ``ValueError`` naming the field otherwise.
    """

    probe: GaussianState
    channels: tuple
    delta: float
    n_samples: int
    trials: int
    seed: int

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        _require_count("n_samples", self.n_samples)
        _require_count("trials", self.trials)
        _require_int("seed", self.seed)
        if len(self.channels) != 2:
            raise ValueError("exactly two candidate channels are required")
        if self.probe.d.any():
            raise ValueError("probe must have zero first moments")


@dataclass(frozen=True)
class DiscriminationReport:
    """Outcome of the simulated discrimination protocol.

    Attributes:
        mu1, mu2: channel-output means of the measured product observable.
        var1, var2: corresponding variances.
        n_thres: sufficient-sample bound when both channels are loss-like,
            else None; past the float range the run raises ``NumericError``
            instead.
        empirical_error: fraction of misidentified trials.
        error_wilson_upper: Wilson 95% upper bound on the error rate.
        trials: trial count.
        n_samples: shots per trial.
        model_note: reminder that outcomes are simulated from the exact
            first two moments with a normal model, through the model's exact
            chance of a wrong verdict.
    """

    mu1: float
    mu2: float
    var1: float
    var2: float
    n_thres: float | None
    empirical_error: float
    error_wilson_upper: float
    trials: int
    n_samples: int
    model_note: str = (
        "outcomes drawn from a normal model with the exact channel-output "
        "mean and variance: a trial is wrong with the model's exact chance, "
        "from the Binomial(K, p) count of K group means N(mu, var/b) (groups "
        "of b shots) above the midpoint and the chance that a K/2 tie's "
        "median is above it; the protocol's guarantees use only these moments"
    )


@functools.lru_cache(maxsize=8)
def _log_binomials(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The counts ``c = 0 ... k`` and ``log C(k, c)``, read-only and built once per k.

    ``log C(k, c)`` is the running sum of ``log((k - j) / (j + 1))``.  A
    discrimination call's k is at most ``ceil(8 log(2 / delta))``, below
    6 000 for any positive float delta, so each entry is small.
    """
    c = np.arange(k + 1)
    log_comb = np.concatenate(([0.0], np.cumsum(np.log((k - c[:-1]) / c[1:]))))
    c.flags.writeable = log_comb.flags.writeable = False
    return c, log_comb


def _count_sides(
    k: int, p: Sequence[float], q: Sequence[float]
) -> list[tuple[float, float, float]]:
    """Per channel i: ``P(2C < k)``, ``P(2C = k)``, ``P(2C > k)`` for ``C ~ Binomial(k, p_i)``.

    ``q_i = 1 - p_i``, passed separately so that each keeps its own
    precision, and each side is summed on its own terms, so a side far in the
    tail keeps its relative precision.  The masses of all channels are one
    (channels, k + 1) array, ``exp`` of their logarithms with each channel's
    own ``math.log`` of p_i and q_i, so no binomial coefficient overflows; at
    p_i = 0 or q_i = 0 the count is a point mass (at 0 or at k), and no
    ``log(0)`` is taken.
    """
    sides = [(1.0, 0.0, 0.0) if a == 0.0 else (0.0, 0.0, 1.0) for a in p]
    live = [i for i, (a, b) in enumerate(zip(p, q)) if a != 0.0 and b != 0.0]
    if not live:
        return sides
    c, log_comb = _log_binomials(k)
    log_p = np.array([[math.log(p[i])] for i in live])
    log_q = np.array([[math.log(q[i])] for i in live])
    mass = np.exp(log_comb + c * log_p + (k - c) * log_q)
    low = mass[:, : (k + 1) // 2].sum(axis=1).tolist()
    tie = [0.0] * len(live) if k % 2 else mass[:, k // 2].tolist()
    high = mass[:, k // 2 + 1 :].sum(axis=1).tolist()
    for i, side in zip(live, zip(low, tie, high)):
        sides[i] = side
    return sides


#: Nodes of the Gauss-Legendre rule that integrates a tie's chance to be high.
_TIE_NODES = 48


@functools.cache
def _cube_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes s and weights ``3 s^2 w`` of ``int_0^1 f(u) du = int_0^1 f(s^3) 3 s^2 ds``.

    The ``_TIE_NODES``-node Gauss-Legendre rule on [0, 1], built once per
    process by Golub-Welsch (Math. Comp. 23, 221 (1969)): the nodes on
    [-1, 1] are the eigenvalues of the Jacobi matrix of the Legendre
    recurrence, off-diagonal ``j / sqrt(4 j^2 - 1)``, and each weight is
    twice the squared first component of its unit eigenvector.
    """
    j = np.arange(1.0, _TIE_NODES)
    # The subdiagonal alone: eigh reads the lower triangle.
    x, vectors = np.linalg.eigh(np.diag(j / np.sqrt(4.0 * j * j - 1.0), -1))
    s = 0.5 * (x + 1.0)
    return s, 3.0 * s * s * vectors[0] ** 2


def _tie_high_chance(k: int, taus: Sequence[float]) -> list[float]:
    """Per channel, the chance that the median of K/2 group means above the midpoint and K/2 below lies above it.

    In standard units the midpoint is tau, one per channel.  The largest of
    the K/2 below has ``P(B <= b) = (Phi(b) / Phi(tau))^(K/2)``, so
    ``B(u) = Phi^-1(Phi(tau) u^(2/K))`` for a uniform u; the smallest of the
    K/2 above has ``P(A > a) = (Q(a) / Q(tau))^(K/2)``; and the median
    ``(A + B)/2`` is above tau iff ``A > 2 tau - B`` (David and Nagaraja,
    *Order Statistics*, 3rd ed., 2003, sections 2.1-2.4).  So the chance is
    ``t(tau) = int_0^1 (Q(2 tau - B(u)) / Q(tau))^(K/2) du``, integrated by
    :func:`_cube_rule` only at tau <= 0, where ``Q(tau) >= 1/2``; reflecting
    every group mean gives ``t(tau) = 1 - t(-tau)``.  The quantile's
    argument is kept at or above the least float, where the integrand is 1.
    Every channel's nodes are one (channels, ``_TIE_NODES``) array, and all
    their quantiles are taken in one loop.
    """
    # Imported here: only ties need it, and its first import (which pulls in
    # fractions and decimal) takes milliseconds that a cold CLI process would
    # pay.  The scalar quantile stays: it is C-backed, and a numpy Phi^-1
    # (Wichura's AS241) over a tie's 96 nodes took about five times as long.
    from statistics import NormalDist

    inv_cdf = NormalDist().inv_cdf
    root2 = math.sqrt(2.0)
    s, weights = _cube_rule()
    reflected = [tau if tau <= 0.0 else -tau for tau in taus]
    head = np.array([[0.5 * math.erfc(-tau / root2)] for tau in reflected])
    below = np.maximum(head * s ** (6.0 / k), math.ulp(0.0))
    tail = [
        math.erfc((2.0 * tau - inv_cdf(x)) / root2)
        for tau, nodes in zip(reflected, below.tolist())
        for x in nodes
    ]
    shares = np.array([[math.erfc(tau / root2)] for tau in reflected])
    ratios = (np.array(tail).reshape(below.shape) / shares) ** (k / 2)
    chances = [float(ratio @ weights) for ratio in ratios]
    return [t if tau <= 0.0 else 1.0 - t for tau, t in zip(taus, chances)]


def _error_chance(k: int, taus: Sequence[float]) -> float:
    """The mixture chance ``w = (w_1 + w_2) / 2`` of a wrong verdict.

    tau_i is the midpoint in channel i's standard units.  Both channels go through :func:`_count_sides` in one call, and those
    whose K/2 tie has positive mass through :func:`_tie_high_chance` in one
    more (so a run with no tie never imports ``statistics``); see
    :func:`run_discrimination` for the rule.  Each ``0.5 w_i`` is added to
    the sum in turn, and float addition commutes, so the order of the
    channels does not move w by a bit.
    """
    z = [tau / math.sqrt(2.0) for tau in taus]
    sides = _count_sides(k, [0.5 * math.erfc(x) for x in z], [0.5 * math.erfc(-x) for x in z])
    tied = [tau for tau, (_, tie, _) in zip(taus, sides) if tie]
    tie_highs = iter(_tie_high_chance(k, tied) if tied else ())
    error = 0.0
    for tau, (low, tie, high) in zip(taus, sides):
        tie_high = next(tie_highs) if tie else 0.0
        error += 0.5 * (low + tie * (1.0 - tie_high) if tau < 0.0 else high + tie * tie_high)
    return error


def run_discrimination(config: DiscriminationConfig) -> DiscriminationReport:
    """Simulate the median-of-means threshold protocol and report its error rate.

    Each trial picks the true channel uniformly, takes the median of its K
    median-of-means group means, compares it against the midpoint t of the
    two channel means, and predicts the channel on that side.  Under the
    normal model a group of ``b = n_samples // K`` shots has mean exactly
    ``N(mu_i, s_i^2)``, ``s_i = sqrt(var_i / b)``, and :func:`median_of_means`
    discards the trailing ``n_samples - K b`` shots; so the K group means
    are i.i.d., and each channel's chance ``w_i`` of a wrong verdict is
    computed once per call, both channels in one pass (:func:`_error_chance`),
    at a cost independent of ``n_samples``:

    - In standard units ``tau_i = (t - mu_i) / s_i``, each group mean lies
      above t with chance ``p_i = erfc(tau_i / sqrt 2) / 2``, so the count
      C of group means above t is ``Binomial(K, p_i)``
      (:func:`_count_sides`).  More than K/2 above puts the median above t,
      fewer than K/2 puts it at or below: the median is a middle value, or
      for even K the mean of the two middle values, which lies between them.
    - At a tie, ``2C = K`` (even K), the median is the mean of the smallest
      group mean above t and the largest below, and it is above t with the
      chance :func:`_tie_high_chance`.
    - The verdict is wrong for the channel whose mean is above t (tau < 0)
      when the median is at or below t, and for the other when it is above.

    A trial is then misidentified with the mixture chance
    ``w = (w_1 + w_2) / 2``, the same Binomial(trials, w) law as drawing
    each trial's channel and count; trials run in the blocks described at
    ``DiscriminationConfig.seed``, each trial failing iff its uniform is
    below w.

    When both channels have a transmissivity ``eta`` (loss, the identity
    being loss at ``eta = 1``), ``n_thres`` is :func:`n_thres_loss` at the
    probe's first-mode entries: ``mu = V_0m``, ``nu^2 = V_00 V_mm - V_0m V_m0``
    and ``E1 = V_00 + V_mm``.  Its transmissivities are more than their
    floor apart because the means are: loss gives ``mu_i = fl(eta_i V_0m)``,
    each rounded by at most eps/2 relative, so means more than
    ``rounding_floor(2m, .)`` (at least 16 eps of the larger) apart come from
    transmissivities more than 15 eps of the larger apart, past their
    ``rounding_floor(1, .)`` of 9 eps.

    Raises:
        ValueError: if the two channels give identical output means.
        NumericError: if a channel output's variance (:func:`meas_moments`)
            or the loss pair's ``n_thres`` overflows float64.
    """
    ch1, ch2 = config.channels
    mu1, var1 = meas_moments(config.probe, ch1)
    mu2, var2 = meas_moments(config.probe, ch2)
    v, m = config.probe.cov.matrix, config.probe.m
    if not _gap_exceeds_floor(mu1, mu2, 2 * m):
        raise ValueError("channel output means coincide; protocol is undefined")

    eta1, eta2 = getattr(ch1, "eta", None), getattr(ch2, "eta", None)
    n_thres: float | None = None
    if eta1 is not None and eta2 is not None:
        # On Python floats: an entry product past the float range is inf (or
        # NaN), which n_thres_loss names, with no warning.
        v00, v0m, vm0, vmm = float(v[0, 0]), float(v[0, m]), float(v[m, 0]), float(v[m, m])
        n_thres = n_thres_loss(
            mu=v0m,
            nu_sq=v00 * vmm - v0m * vm0,
            E1=v00 + vmm,
            eta1=eta1,
            eta2=eta2,
            delta=config.delta,
        )

    threshold = 0.5 * (mu1 + mu2)
    k, b = _mom_groups(config.n_samples, config.delta)
    error = _error_chance(
        k, [(threshold - mu) / math.sqrt(var / b) for mu, var in ((mu1, var1), (mu2, var2))]
    )
    failures = 0
    for _, keep, rng in mc_blocks(config.seed, config.trials, BLOCK_ENTRIES):
        failures += int(np.count_nonzero(rng.random(keep) < error))

    return DiscriminationReport(
        mu1=mu1,
        mu2=mu2,
        var1=var1,
        var2=var2,
        n_thres=n_thres,
        empirical_error=failures / config.trials,
        error_wilson_upper=wilson_upper(failures, config.trials),
        trials=config.trials,
        n_samples=config.n_samples,
    )


def rotated_quadrature_variance(cov: CovMat, theta: float) -> float:
    """Variance of the quadrature rotated by ``theta`` in a single mode.

    ``V_x cos^2 + V_p sin^2 + V_xp sin(2 theta)``; positive for every valid
    covariance matrix.

    Raises:
        DimensionError: if the covariance matrix is not single-mode.
        ValueError: unless theta is finite.
    """
    if cov.m != 1:
        raise DimensionError(f"single-mode covariance required, got m={cov.m}")
    v = cov.matrix
    return _rotated_variance(v[0, 0], v[1, 1], v[0, 1], theta)


def _rotated_variance(v_x: float, v_p: float, v_xp: float, theta: float) -> float:
    """``V_x cos^2 + V_p sin^2 + V_xp sin(2 theta)``; ``ValueError`` naming theta unless it is finite."""
    if not math.isfinite(theta):
        raise ValueError(f"quadrature angle theta must be finite, got {theta}")
    ct, st = math.cos(theta), math.sin(theta)
    return float(v_x * ct * ct + v_p * st * st + v_xp * math.sin(2.0 * theta))


def tvd_bound_ppmm(
    cov: CovMat,
    sxp1: float,
    sxp2: float,
    theta: float,
    inflated: bool = False,
) -> float:
    """Total-variation bound for two channel outputs differing only in V_xp.

    The outputs share the single-mode diagonal covariances of ``cov`` and
    have position-momentum covariances ``sxp1`` and ``sxp2``.  Measuring the
    quadrature rotated by ``theta`` distinguishes them by at most
    ``min(1, h1, h2)`` with
    ``h_i = |sin(2 theta)| |sxp1 - sxp2| / sigma_theta_i`` and
    ``sigma_theta_i`` the rotated variance of output i.  With
    ``inflated=True`` the returned value is 3/2 of the uncapped bound
    (still capped at 1), which is what provably dominates the exact total
    variation distance.

    Raises:
        DimensionError: if the covariance matrix is not single-mode.
        ValueError: unless theta, sxp1 and sxp2 are finite, or if a rotated
            variance is below 1e-12, so that output is no state.
    """
    if cov.m != 1:
        raise DimensionError(f"single-mode covariance required, got m={cov.m}")
    for name, sxp in (("sxp1", sxp1), ("sxp2", sxp2)):
        if not math.isfinite(sxp):
            raise ValueError(f"position-momentum covariance {name} must be finite, got {sxp}")
    v = cov.matrix
    var1, var2 = (_rotated_variance(v[0, 0], v[1, 1], sxp, theta) for sxp in (sxp1, sxp2))
    for output, var in ((1, var1), (2, var2)):
        if not var >= 1e-12:
            raise ValueError(
                f"rotated variance of output {output} is {var:.6g}, not positive; bound undefined"
            )
    gap = abs(math.sin(2.0 * theta)) * abs(sxp1 - sxp2)
    h = min(gap / var1, gap / var2)
    if inflated:
        h *= 1.5
    return min(1.0, h)


def tvd_exact_zero_mean_normals(var1: float, var2: float) -> float:
    """Exact total variation distance between N(0, var1) and N(0, var2).

    The densities cross at ``x*^2 = var1 var2 ln(var2/var1) / (var2 - var1)``
    and the distance is ``2 |Phi(x*/sqrt(var1)) - Phi(x*/sqrt(var2))|``.  The
    arguments a > b of Phi, squared, are ``L / (1 - e^-L)`` (1 at L = 0) and
    ``e^-L`` times that, ``L = |ln var2 - ln var1|``: nothing overflows, and
    ``erfc(-a / sqrt 2) - erfc(-b / sqrt 2)`` is symmetric in the variances.

    Raises:
        ValueError: unless both variances are positive and finite (so also for NaN).
    """
    if not (0.0 < var1 < math.inf and 0.0 < var2 < math.inf):
        raise ValueError(f"variances must be positive and finite, got {var1} and {var2}")
    log_ratio = abs(math.log(var2) - math.log(var1))
    a_sq = log_ratio / -math.expm1(-log_ratio) if log_ratio else 1.0
    a, b = math.sqrt(a_sq), math.sqrt(a_sq * math.exp(-log_ratio))
    return math.erfc(-a / math.sqrt(2.0)) - math.erfc(-b / math.sqrt(2.0))
