"""Metrology and channel-discrimination consequences of position-momentum correlations.

Closed-form bounds (quantum Fisher information, Helstrom and trace-distance
lower bounds, sufficient-sample thresholds) plus a Monte-Carlo simulator of
the median-of-means discrimination protocol that measures the symmetrized
product of the first mode's position and momentum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .coherence import max_symplectic_coherence
from .gaussian_core import CovMat, DimensionError, GaussianState, is_pure
from .symplectic_ops import BLOCK_ENTRIES, mc_blocks, require_transmissivity

MEAN_GAP_TOL = 1e-12
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

    Raises:
        DimensionError: if the covariance matrix is not single-mode.
    """
    if cov.m != 1:
        raise DimensionError(f"single-mode covariance required, got m={cov.m}")
    v = cov.matrix
    value = 2.0 * (v[0, 0] + v[1, 1]) + 4.0 * abs(v[0, 1])
    return QfiBound(float(value), bool(is_pure(cov)))


def td_lower_bound_gaussian(
    E1: float, E2: float, c1: float, c2: float, E_cap: float, m: int
) -> float:
    """Trace-distance lower bound between Gaussian states from summary data.

    ``(1/200) min(1, sqrt((E1-E2)^2/(2m) + 2(sqrt(c1)-sqrt(c2))^2) / (E_cap+1))``
    where E_i are covariance traces, c_i the coherences, and E_cap a caller
    supplied energy cap; the value never exceeds 1/200.
    """
    gap = math.sqrt((E1 - E2) ** 2 / (2.0 * m) + 2.0 * (math.sqrt(c1) - math.sqrt(c2)) ** 2)
    return min(1.0, gap / (E_cap + 1.0)) / 200.0


def td_lower_bound_general(
    E1: float, E2: float, c1: float, c2: float, E_tilde_sq: float, m: int
) -> float:
    """Trace-distance lower bound valid beyond the Gaussian family.

    ``((E1-E2)^2/(2m) + 2(sqrt(c1)-sqrt(c2))^2) / (3200 E_tilde_sq m)`` with
    ``E_tilde_sq`` a caller-supplied second-moment energy cap.
    """
    gap_sq = (E1 - E2) ** 2 / (2.0 * m) + 2.0 * (math.sqrt(c1) - math.sqrt(c2)) ** 2
    return gap_sq / (3200.0 * E_tilde_sq * m)


def helstrom_lower_bound_loss(E: float, m: int, eta: float, c: float) -> float:
    """Lower bound on distinguishing a loss channel from the identity.

    Optimal success probability of telling the identity from loss with
    transmissivity ``eta`` using a probe of covariance trace E and
    coherence c: at least
    ``1/2 + (1/400) min(1, sqrt((1-eta)^2 (E-2m)^2/(2m) + 2 c (1-eta)^2) / (E+1))``.
    """
    require_transmissivity(eta)
    shrink = (1.0 - eta) ** 2
    gap = math.sqrt(shrink * (E - 2.0 * m) ** 2 / (2.0 * m) + 2.0 * c * shrink)
    return 0.5 + min(1.0, gap / (E + 1.0)) / 400.0


def meas_moments(state: GaussianState, channel) -> tuple[float, float]:
    """Mean and variance of the position-momentum product on a channel output.

    The observable is the symmetrized product of the first mode's position
    and momentum (half the anticommutator).  For a zero-mean Gaussian output
    its mean is the (1,1) entry ``mu = V_0m`` of the position-momentum
    covariance block and its variance is ``1 + V_00 V_mm + mu^2``, read from
    the output's entries: a sum of nonnegative terms, equal to
    ``1 + nu_1^2 + 2 mu^2`` with ``nu_1^2 = V_00 V_mm - mu^2`` the first
    mode's squared local symplectic eigenvalue.

    Args:
        state: probe with zero first moments.
        channel: object with ``apply_to(state) -> GaussianState``.

    Raises:
        ValueError: if the probe or the channel output has first moments.
    """
    if np.max(np.abs(state.d)) > MEAN_GAP_TOL:
        raise ValueError("probe must have zero first moments")
    out = channel.apply_to(state)
    if np.max(np.abs(out.d)) > MEAN_GAP_TOL:
        raise ValueError("channel output must have zero first moments")
    v, m = out.cov.matrix, out.cov.m
    mu = float(v[0, m])
    return mu, float(1.0 + v[0, 0] * v[m, m] + mu * mu)


def energy_offset(m: int, E: float) -> float:
    """Variance budget term ``1 + (E/2 - (m-1))^2`` used by the thresholds."""
    return 1.0 + (E / 2.0 - (m - 1)) ** 2


def _log_factor(delta: float) -> float:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"failure probability must be in (0, 1), got {delta}")
    return math.log(2.0 / delta)


def n_thres_orthogonal(mu1: float, mu2: float, m: int, E: float, delta: float) -> float:
    """Sufficient samples to tell two orthogonal-dilation channels apart.

    ``272 log(2/delta) (max(mu1^2, mu2^2) + 1 + (E/2-(m-1))^2) / (mu2-mu1)^2``
    for channel-output means mu1 != mu2 at probe trace E.

    Raises:
        ValueError: if the means coincide (no finite threshold exists).
    """
    if abs(mu2 - mu1) <= MEAN_GAP_TOL:
        raise ValueError("channel output means coincide; threshold is infinite")
    f = energy_offset(m, E)
    return 272.0 * _log_factor(delta) * (max(mu1**2, mu2**2) + f) / (mu2 - mu1) ** 2


def n_thres_orthogonal_optimal(m: int, E: float, delta: float, c: float) -> float:
    """Orthogonal-pair threshold for a probe of maximal mean gap at coherence c.

    ``272 log(2/delta) ((1 + (E/2-(m-1))^2) / (4c) + 1/4)``, algebraically
    equal to ``68 log(2/delta) (1 + f/c)``.
    """
    if c <= 0:
        raise ValueError("coherence must be positive for a finite threshold")
    f = energy_offset(m, E)
    return 272.0 * _log_factor(delta) * (f / (4.0 * c) + 0.25)


def loss_g(nu_sq: float, mu: float, E1: float, eta: float) -> float:
    """Per-transmissivity variance-to-signal ratio for loss discrimination.

    ``(eta^2 nu^2 + (1-eta)^2 + eta(1-eta) E1 + 2 eta^2 mu^2) / mu^2`` where
    nu^2 and mu are the probe's first-mode local symplectic eigenvalue
    squared and position-momentum covariance, and E1 its first-mode trace.
    """
    if mu == 0.0:
        raise ValueError("probe position-momentum covariance must be nonzero")
    num = eta**2 * nu_sq + (1.0 - eta) ** 2 + eta * (1.0 - eta) * E1 + 2.0 * eta**2 * mu**2
    return num / mu**2


def n_thres_loss(
    mu: float, nu_sq: float, E1: float, eta1: float, eta2: float, delta: float
) -> float:
    """Sufficient samples to tell two loss channels apart with a fixed probe.

    ``272 log(2/delta) max(g(eta1), g(eta2)) / (eta2 - eta1)^2`` with ``g``
    as in :func:`loss_g`.

    Raises:
        ValueError: if ``mu == 0`` or the transmissivities coincide.
    """
    if abs(eta2 - eta1) <= MEAN_GAP_TOL:
        raise ValueError("equal transmissivities; threshold is infinite")
    g_max = max(loss_g(nu_sq, mu, E1, eta1), loss_g(nu_sq, mu, E1, eta2))
    return 272.0 * _log_factor(delta) * g_max / (eta2 - eta1) ** 2


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
    k = max(1, math.ceil(8.0 * _log_factor(delta)))
    k = min(k, n)
    block = n // k
    means = x[..., : k * block].reshape(*x.shape[:-1], k, block).mean(axis=-1)
    estimate = np.median(means, axis=-1)
    return float(estimate) if x.ndim == 1 else estimate


def wilson_upper(failures: int, trials: int) -> float:
    """Wilson-score upper confidence limit for a binomial proportion, at ``z = WILSON_Z``."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    z = WILSON_Z
    p = failures / trials
    denom = 1.0 + z * z / trials
    center = p + z * z / (2.0 * trials)
    margin = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return (center + margin) / denom


@dataclass(frozen=True)
class DiscriminationConfig:
    """Monte-Carlo setup for the two-channel discrimination protocol.

    Attributes:
        probe: zero-mean Gaussian probe state.
        channels: the two candidate channels (objects with ``apply_to``).
        delta: target failure probability in (0, 1).
        n_samples: measurement shots per trial.
        trials: number of simulated discrimination rounds.
        seed: base seed; trials run through ``symplectic_ops.mc_blocks`` in
            blocks of ``max(1, BLOCK_ENTRIES // n_samples)``, each block
            drawing the channel labels (``integers(2, size=block)``), then
            the standard-normal shots (``standard_normal((block, n_samples))``).
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
        if self.n_samples < 1 or self.trials < 1:
            raise ValueError("n_samples and trials must be >= 1")
        if len(self.channels) != 2:
            raise ValueError("exactly two candidate channels are required")
        if np.max(np.abs(self.probe.d)) > MEAN_GAP_TOL:
            raise ValueError("probe must have zero first moments")


@dataclass(frozen=True)
class DiscriminationReport:
    """Outcome of the simulated discrimination protocol.

    Attributes:
        mu1, mu2: channel-output means of the measured product observable.
        var1, var2: corresponding variances.
        n_thres: sufficient-sample bound when both channels are loss-like,
            else None.
        empirical_error: fraction of misidentified trials.
        error_wilson_upper: Wilson 95% upper bound on the error rate.
        trials: trial count.
        n_samples: shots per trial.
        model_note: reminder that outcomes are simulated from the exact
            first two moments with a normal model.
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
        "mean and variance; the protocol's guarantees use only these moments"
    )


def run_discrimination(config: DiscriminationConfig) -> DiscriminationReport:
    """Simulate the median-of-means threshold protocol and report its error rate.

    Each trial picks the true channel uniformly, draws ``n_samples``
    outcomes from the exact output moments, compares the median of means
    against the midpoint of the two channel means, and predicts the channel
    on that side.  Trials run in the blocks described at
    ``DiscriminationConfig.seed``, one shot array and one row-wise
    median of means per block.

    When both channels have a transmissivity ``eta`` (loss, or the identity
    at ``eta = 1``) and the two differ, ``n_thres`` is :func:`n_thres_loss`
    at the probe's first-mode entries: ``mu = V_0m``,
    ``nu^2 = V_00 V_mm - V_0m V_m0`` and ``E1 = V_00 + V_mm``.

    Raises:
        ValueError: if the two channels give identical output means.
    """
    ch1, ch2 = config.channels
    mu1, var1 = meas_moments(config.probe, ch1)
    mu2, var2 = meas_moments(config.probe, ch2)
    if abs(mu2 - mu1) <= MEAN_GAP_TOL:
        raise ValueError("channel output means coincide; protocol is undefined")

    eta1, eta2 = getattr(ch1, "eta", None), getattr(ch2, "eta", None)
    n_thres: float | None = None
    if eta1 is not None and eta2 is not None and abs(eta2 - eta1) > MEAN_GAP_TOL:
        v, m = config.probe.cov.matrix, config.probe.m
        n_thres = n_thres_loss(
            mu=float(v[0, m]),
            nu_sq=float(v[0, 0] * v[m, m] - v[0, m] * v[m, 0]),
            E1=float(v[0, 0] + v[m, m]),
            eta1=eta1,
            eta2=eta2,
            delta=config.delta,
        )

    threshold = 0.5 * (mu1 + mu2)
    second_is_high = mu2 > mu1
    mus, sigs = np.array([mu1, mu2]), np.sqrt([var1, var2])

    def draw(rng: np.random.Generator, size: int) -> tuple:
        return rng.integers(2, size=size), rng.standard_normal((size, config.n_samples))

    size = max(1, BLOCK_ENTRIES // config.n_samples)
    failures = 0
    for _, (true_second, z) in mc_blocks(config.seed, config.trials, size, draw):
        estimate = median_of_means(mus[true_second, None] + sigs[true_second, None] * z, config.delta)
        predict_second = (estimate > threshold) == second_is_high
        failures += int(np.count_nonzero(predict_second != true_second))

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
    """
    if cov.m != 1:
        raise DimensionError(f"single-mode covariance required, got m={cov.m}")
    v = cov.matrix
    ct, st = math.cos(theta), math.sin(theta)
    return float(v[0, 0] * ct * ct + v[1, 1] * st * st + v[0, 1] * math.sin(2.0 * theta))


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
        ValueError: if a rotated variance vanishes.
    """
    if cov.m != 1:
        raise DimensionError(f"single-mode covariance required, got m={cov.m}")
    v = cov.matrix
    ct, st = math.cos(theta), math.sin(theta)
    s2t = math.sin(2.0 * theta)
    base = v[0, 0] * ct * ct + v[1, 1] * st * st
    var1 = base + sxp1 * s2t
    var2 = base + sxp2 * s2t
    if min(abs(var1), abs(var2)) < 1e-12:
        raise ValueError("degenerate rotated variance; bound undefined")
    gap = abs(s2t) * abs(sxp1 - sxp2)
    h = min(gap / abs(var1), gap / abs(var2))
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
        ValueError: on nonpositive variances.
    """
    if var1 <= 0 or var2 <= 0:
        raise ValueError("variances must be positive")
    log_ratio = abs(math.log(var2) - math.log(var1))
    a_sq = log_ratio / -math.expm1(-log_ratio) if log_ratio else 1.0
    a, b = math.sqrt(a_sq), math.sqrt(a_sq * math.exp(-log_ratio))
    return math.erfc(-a / math.sqrt(2.0)) - math.erfc(-b / math.sqrt(2.0))
