"""Estimation bounds, channel discrimination, and homodyne distinguishability."""

from __future__ import annotations

import dataclasses
import itertools
import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal
from scipy.integrate import quad
from scipy.special import erfcx, log_ndtr
from scipy.stats import binom, norm

import sympcoh
from sympcoh import (
    CovMat,
    DimensionError,
    DiscriminationConfig,
    GaussianState,
    IdentityChannel,
    LossChannel,
    NumericError,
    StinespringChannel,
    applications,
    apply,
    derive_rng,
    energy_offset,
    gaussian_core,
    haar_orthogonal,
    helstrom_lower_bound_loss,
    loss_g,
    loss_gtilde,
    max_symplectic_coherence,
    meas_moments,
    median_of_means,
    msc_canonical,
    n_thres_loss,
    n_thres_loss_optimal,
    n_thres_orthogonal,
    n_thres_orthogonal_optimal,
    phase_shifter,
    qfi_displacement,
    rotated_quadrature_variance,
    run_discrimination,
    sample_pure_cm,
    squeezer,
    td_lower_bound_gaussian,
    td_lower_bound_general,
    tvd_bound_ppmm,
    tvd_exact_zero_mean_normals,
    vacuum_state,
    wilson_upper,
)
from sympcoh.symplectic_ops import BLOCK_ENTRIES
from conftest import random_valid_cov

TOL = 1e-9
EXACT = 1e-12


# ---------------------------------------------------------------------------
# Displacement sensing
# ---------------------------------------------------------------------------


def test_qfi_vacuum():
    bound = qfi_displacement(vacuum_state(1).cov)
    assert bound.value == pytest.approx(4.0, abs=EXACT)
    assert bound.exact


def test_qfi_extremal_states():
    bound = qfi_displacement(msc_canonical(2.0 * np.cosh(1.0), 1).cov)
    assert bound.value == pytest.approx(4.0 * np.e, abs=TOL)
    assert bound.exact
    bound6 = qfi_displacement(msc_canonical(6.0, 1).cov)
    assert bound6.value == pytest.approx(2.0 * 6.0 + 4.0 * np.sqrt(8.0), abs=TOL)
    assert bound6.value == pytest.approx(23.31370849898476, abs=1e-10)


def test_qfi_mixed_state_flagged_inexact():
    bound = qfi_displacement(CovMat(2.0 * np.eye(2)))
    assert bound.value == pytest.approx(8.0, abs=EXACT)
    assert not bound.exact


def test_a_qfi_bound_past_the_float_range_is_a_named_error_with_no_warning():
    edge = CovMat([[1e308, 0.0], [0.0, 1e-308]])  # a valid pure state: det 1
    assert gaussian_core.validate(edge) == []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"quantum Fisher information .* overflows float64"):
            qfi_displacement(edge)
        # just inside the range: the value of the numpy formula, bit for bit
        near = CovMat([[4e307, -1e3], [-1e3, 2.5e-308]])
        v = near.matrix
        bound = qfi_displacement(near)
        assert bound.value == float(2.0 * (v[0, 0] + v[1, 1]) + 4.0 * abs(v[0, 1]))
        assert type(bound.value) is float and type(bound.exact) is bool


def test_qfi_rejects_multimode():
    with pytest.raises(DimensionError):
        qfi_displacement(vacuum_state(2).cov)


def test_qfi_grows_with_correlations(rng):
    for _ in range(30):
        cov = random_valid_cov(rng, 1)
        base = 2.0 * (cov.matrix[0, 0] + cov.matrix[1, 1])
        assert qfi_displacement(cov).value >= base - EXACT


# ---------------------------------------------------------------------------
# Lower bounds driven by the correlation measure
# ---------------------------------------------------------------------------


def test_td_lower_bounds_values():
    assert td_lower_bound_gaussian(6.0, 6.0, 2.0, 2.0, 10.0, 1) == 0.0
    uncapped = td_lower_bound_gaussian(6.0, 6.0, 4.0, 1.0, 10.0, 1)
    assert uncapped == pytest.approx(np.sqrt(2.0) / (11.0 * 200.0), abs=EXACT)
    capped = td_lower_bound_gaussian(6.0, 6.0, 4.0, 1.0, 0.0, 1)
    assert capped == pytest.approx(1.0 / 200.0, abs=EXACT)
    assert td_lower_bound_general(6.0, 6.0, 2.0, 2.0, 4.0, 1) == 0.0
    assert td_lower_bound_general(8.0, 6.0, 4.0, 1.0, 4.0, 1) == pytest.approx(
        (4.0 / 2.0 + 2.0) / (3200.0 * 4.0), abs=EXACT
    )


def test_helstrom_lower_bound_value():
    c = np.sinh(1.0) ** 2
    val = helstrom_lower_bound_loss(6.0, 1, 0.5, c)
    gap = np.sqrt(0.25 * 16.0 / 2.0 + 2.0 * c * 0.25)
    assert val == pytest.approx(0.5 + gap / 7.0 / 400.0, abs=EXACT)
    assert val == pytest.approx(0.5005858176000749, abs=1e-12)
    assert helstrom_lower_bound_loss(6.0, 1, 1.0, c) == pytest.approx(0.5, abs=0)
    with pytest.raises(ValueError):
        helstrom_lower_bound_loss(6.0, 1, 1.5, c)


def test_bound_caps_sweep():
    # Both closed-form bounds saturate at hard caps: one half plus 1/400 for
    # the discrimination bound, 1/200 for the trace-distance bound.
    rng_local = np.random.default_rng(123)
    for _ in range(2000):
        m = int(rng_local.integers(1, 4))
        E = 2 * m + float(rng_local.uniform(0.0, 30.0))
        c = float(rng_local.uniform(0.0, max_symplectic_coherence(E, m)))
        eta = float(rng_local.uniform())
        val = helstrom_lower_bound_loss(E, m, eta, c)
        assert 0.5 <= val <= 0.5 + 1.0 / 400.0
        td = td_lower_bound_gaussian(
            E,
            2 * m + float(rng_local.uniform(0.0, 30.0)),
            c,
            float(rng_local.uniform(0.0, c + 1.0)),
            float(rng_local.uniform(0.0, 40.0)),
            m,
        )
        assert 0.0 <= td <= 1.0 / 200.0


# ---------------------------------------------------------------------------
# Output moments of the monitored quadrature
# ---------------------------------------------------------------------------


def test_meas_moments_extremal_probe_under_loss():
    probe = msc_canonical(6.0, 1)
    mu_full, var_full = meas_moments(probe, IdentityChannel())
    assert mu_full == pytest.approx(-np.sqrt(8.0), abs=TOL)
    assert var_full == pytest.approx(1.0 + 1.0 + 2.0 * 8.0, abs=TOL)
    for eta in (0.4, 0.8):
        mu, var = meas_moments(probe, LossChannel(eta))
        assert mu == pytest.approx(eta * mu_full, abs=TOL)
        out = LossChannel(eta).apply_to(probe)
        nu_sq = out.cov.matrix[0, 0] * out.cov.matrix[1, 1] - out.cov.matrix[0, 1] ** 2
        assert var == pytest.approx(1.0 + nu_sq + 2.0 * mu * mu, abs=TOL)
    mu4, var4 = meas_moments(probe, LossChannel(0.4))
    assert mu4 == pytest.approx(-1.1313708498984762, abs=1e-12)
    assert var4 == pytest.approx(5.52, abs=1e-10)
    mu8, var8 = meas_moments(probe, LossChannel(0.8))
    assert mu8 == pytest.approx(-2.2627416997969525, abs=1e-12)
    assert var8 == pytest.approx(12.88, abs=1e-10)


def test_first_mode_moments_have_one_path():
    assert not hasattr(sympcoh, "reduced_first_mode")
    assert not hasattr(gaussian_core, "reduced_first_mode")
    assert not hasattr(gaussian_core, "FirstModeReduction")
    assert not hasattr(applications, "_channel_eta")
    assert IdentityChannel().eta == 1.0
    with pytest.raises(TypeError):
        IdentityChannel(0.5)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_meas_moments_read_the_output_entries(m, rng):
    for _ in range(10):
        probe = GaussianState(random_valid_cov(rng, m))
        env = sample_pure_cm(4.0, 1, "orthogonal", rng)  # free: zero V_xp block
        channels = (
            IdentityChannel(),
            LossChannel(float(rng.uniform())),
            StinespringChannel(haar_orthogonal(m + 1, rng), env),
        )
        for channel in channels:
            v = channel.apply_to(probe).cov.matrix
            mu = v[0, m]
            assert meas_moments(probe, channel) == (mu, 1.0 + v[0, 0] * v[m, m] + mu**2)


@pytest.mark.parametrize("second", ["loss", "identity"])
def test_discrimination_threshold_reads_the_probe_entries(second):
    delta = 0.1
    for i in range(30):
        m = 1 + i % 3
        probe = GaussianState(sample_pure_cm(2 * m + 1.0 + i, m, "unitary", derive_rng(23, i)))
        eta1 = 0.2 + 0.02 * i
        channels = (LossChannel(eta1), LossChannel(0.95) if second == "loss" else IdentityChannel())
        report = run_discrimination(
            DiscriminationConfig(probe, channels, delta, n_samples=10, trials=1, seed=i)
        )
        v = probe.cov.matrix
        nu_sq = v[0, 0] * v[m, m] - v[0, m] * v[m, 0]
        eta2 = channels[1].eta
        assert report.n_thres == n_thres_loss(v[0, m], nu_sq, v[0, 0] + v[m, m], eta1, eta2, delta)
        gap_sq = (report.mu2 - report.mu1) ** 2
        expected = 272.0 * math.log(2.0 / delta) * max(report.var1 - 1.0, report.var2 - 1.0) / gap_sq
        assert report.n_thres == pytest.approx(expected, rel=1e-12, abs=0)


def test_loss_means_apart_imply_transmissivities_apart():
    # run_discrimination calls n_thres_loss whenever both channels are loss,
    # with no check of its own on the transmissivities: means more than their
    # floor apart (mu_i = fl(eta_i V_0m)) must give transmissivities more than
    # theirs apart, so that n_thres_loss never raises.  Pairs from 1 to 2^16
    # ulps apart, a quarter of them against the identity, on msc and sampled
    # probes with E - 2m from 1e-3 to 1e12.
    rng = np.random.default_rng(31)
    apart = within = 0
    for i in range(200):
        m = 1 + i % 3
        E = 2 * m + 10.0 ** rng.uniform(-3.0, 12.0)
        probe = msc_canonical(E, m) if i % 2 else GaussianState(sample_pure_cm(E, m, "unitary", rng))
        v = probe.cov.matrix
        nu_sq, e1 = float(v[0, 0] * v[m, m] - v[0, m] * v[m, 0]), float(v[0, 0] + v[m, m])
        for _ in range(100):
            eta1 = float(rng.choice([0.0, 1.0, rng.uniform()], p=[0.05, 0.25, 0.7]))
            gap = math.ulp(max(eta1, 0.5)) * 2.0 ** rng.uniform(0.0, 16.0)
            up = eta1 == 0.0 or (eta1 < 1.0 and rng.uniform() < 0.5)
            eta2 = min(1.0, max(0.0, eta1 + gap if up else eta1 - gap))
            mu1, _ = meas_moments(probe, LossChannel(eta1))
            mu2, _ = meas_moments(probe, LossChannel(eta2))
            if not gaussian_core._gap_exceeds_floor(mu1, mu2, 2 * m):
                within += 1
                continue
            apart += 1
            assert n_thres_loss(float(v[0, m]), nu_sq, e1, eta1, eta2, 0.1) > 0.0, (E, m, eta1, eta2)
    # both sides of the means' floor are well populated
    assert apart > 10_000 and within > 4_000


def test_meas_moments_rejects_displaced_probe():
    probe = GaussianState(CovMat(np.eye(2)), [1.0, 0.0])
    with pytest.raises(ValueError):
        meas_moments(probe, IdentityChannel())


def test_energy_offset():
    assert energy_offset(1, 6.0) == pytest.approx(10.0, abs=EXACT)
    assert energy_offset(2, 10.0) == pytest.approx(1 + (5.0 - 1.0) ** 2, abs=EXACT)


# ---------------------------------------------------------------------------
# Sample-size thresholds
# ---------------------------------------------------------------------------


def test_n_thres_orthogonal_value():
    val = n_thres_orthogonal(-1.0, 1.0, 1, 6.0, 0.05)
    f = energy_offset(1, 6.0)
    expected = 272.0 * np.log(2.0 / 0.05) * (1.0 + f) / 4.0
    assert val == pytest.approx(expected, abs=1e-9)
    assert val == pytest.approx(2759.2818316772245, abs=1e-9)
    with pytest.raises(ValueError):
        n_thres_orthogonal(1.0, 1.0, 1, 6.0, 0.05)


def test_n_thres_orthogonal_optimal_matches_direct_form():
    m, E, delta = 1, 6.0, 0.05
    c = max_symplectic_coherence(E, m)
    f = energy_offset(m, E)
    direct = 68.0 * np.log(2.0 / delta) * (1.0 + f / c)
    val = n_thres_orthogonal_optimal(m, E, delta, c)
    assert val == pytest.approx(direct, abs=1e-9)
    assert val == pytest.approx(564.3985564794323, abs=1e-9)
    with pytest.raises(ValueError):
        n_thres_orthogonal_optimal(m, E, delta, 0.0)


def test_n_thres_orthogonal_optimal_is_the_pair_at_plus_and_minus_root_c(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return n_thres_orthogonal(*args)

    monkeypatch.setattr(applications, "n_thres_orthogonal", spy)
    c = max_symplectic_coherence(6.0, 1)
    assert n_thres_orthogonal_optimal(1, 6.0, 0.05, c) == n_thres_orthogonal(
        -math.sqrt(c), math.sqrt(c), 1, 6.0, 0.05
    )
    assert calls == [(-math.sqrt(c), math.sqrt(c), 1, 6.0, 0.05)]
    # No coherence is infinite or NaN: named, not read as coinciding means.
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="coherence must be positive and finite"):
            n_thres_orthogonal_optimal(1, 6.0, 0.05, bad)


def test_n_thres_orthogonal_shrinks_when_gap_grows():
    base = n_thres_orthogonal(-1.0, 1.0, 1, 6.0, 0.05)
    widened = n_thres_orthogonal(-2.0, 1.0, 1, 6.0, 0.05)
    # max |mu| also grows, but the squared gap wins here.
    assert widened < base


def test_n_thres_orthogonal_gap_quartering():
    # Halving the gap with the larger mean held fixed multiplies the
    # mean-independent part by four.
    m, E, delta = 1, 6.0, 0.05
    g = 0.5
    base = n_thres_orthogonal(1.0 - g, 1.0, m, E, delta)
    tight = n_thres_orthogonal(1.0 - g / 2.0, 1.0, m, E, delta)
    f = energy_offset(m, E)
    scale = 272.0 * np.log(2.0 / delta)
    assert base == pytest.approx(scale * (1.0 + f) / g**2, abs=1e-9)
    assert tight == pytest.approx(scale * (1.0 + f) / (g / 2.0) ** 2, abs=1e-9)
    assert tight == pytest.approx(4.0 * base, rel=1e-12)


def test_loss_g_cross_term():
    m, E, eta = 1, 6.0, 0.6
    c_max = max_symplectic_coherence(E, m)
    e1 = E - 2.0 * (m - 1)
    g = loss_g(1.0, np.sqrt(c_max), e1, eta)
    gt = loss_gtilde(m, E, eta)
    assert g - gt == pytest.approx(eta * (1.0 - eta) * e1 / c_max, abs=EXACT)
    assert g - gt == pytest.approx(0.18, abs=EXACT)


def test_n_thres_loss_frozen_value():
    probe = msc_canonical(6.0, 1)
    mu, _ = meas_moments(probe, IdentityChannel())
    val = n_thres_loss(abs(mu), 1.0, 6.0, 0.4, 0.8, 0.1)
    assert val == pytest.approx(7562.7261245870495, abs=1e-7)
    opt = n_thres_loss_optimal(1, 6.0, 0.4, 0.8, 0.1)
    assert opt == pytest.approx(val, abs=1e-9)


def test_n_thres_loss_validation():
    with pytest.raises(ValueError):
        n_thres_loss(0.0, 1.0, 6.0, 0.4, 0.8, 0.1)
    with pytest.raises(ValueError):
        n_thres_loss(1.0, 1.0, 6.0, 0.5, 0.5, 0.1)
    with pytest.raises(ValueError):
        n_thres_loss(1.0, 1.0, 6.0, 0.4, 0.8, 0.0)


def test_n_thres_loss_decreases_with_signal():
    weak = n_thres_loss(1.0, 1.0, 6.0, 0.4, 0.8, 0.1)
    strong = n_thres_loss(3.0, 1.0, 6.0, 0.4, 0.8, 0.1)
    assert strong < weak


# ---------------------------------------------------------------------------
# Estimator machinery
# ---------------------------------------------------------------------------


def test_median_of_means_basic():
    rng_local = derive_rng(100, 0)
    data = rng_local.normal(size=4096)
    est = median_of_means(data, delta=0.05)
    assert abs(est) < 0.2
    assert median_of_means(np.array([3.0]), delta=0.5) == 3.0


def test_median_of_means_concentrates():
    hits = 0
    runs = 100
    for i in range(runs):
        data = derive_rng(55, i).normal(size=2048)
        if abs(median_of_means(data, delta=0.1)) <= 0.1:
            hits += 1
    assert hits >= 95


def test_median_of_means_reduces_rows_like_the_1d_call():
    data = derive_rng(7, 0).normal(size=(2, 3, 203))
    batched = median_of_means(data, delta=0.05)
    assert batched.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert batched[idx] == median_of_means(data[idx], delta=0.05)
    assert type(median_of_means(data[0, 0], delta=0.05)) is float


def test_median_of_means_rejects_empty():
    with pytest.raises(ValueError):
        median_of_means(np.array([]), delta=0.1)


def test_wilson_upper_sanity():
    assert wilson_upper(0, 100) < 0.05
    assert wilson_upper(50, 100) == pytest.approx(0.5, abs=0.1)
    assert wilson_upper(10, 100) > 0.1
    assert wilson_upper(10, 100) < 0.2


# ---------------------------------------------------------------------------
# End-to-end discrimination
# ---------------------------------------------------------------------------


def test_discrimination_rejects_identical_channels():
    probe = msc_canonical(6.0, 1)
    config = DiscriminationConfig(
        probe=probe,
        channels=(LossChannel(0.5), LossChannel(0.5)),
        delta=0.1,
        n_samples=16,
        trials=10,
        seed=0,
    )
    with pytest.raises(ValueError):
        run_discrimination(config)


def test_discrimination_near_identical_channels_is_hard():
    probe = msc_canonical(6.0, 1)
    config = DiscriminationConfig(
        probe=probe,
        channels=(LossChannel(0.5), LossChannel(0.500001)),
        delta=0.1,
        n_samples=8,
        trials=200,
        seed=21,
    )
    report = run_discrimination(config)
    assert 0.3 <= report.empirical_error <= 0.7


def test_discrimination_moderate_gap_succeeds():
    probe = msc_canonical(6.0, 1)
    config = DiscriminationConfig(
        probe=probe,
        channels=(LossChannel(0.2), LossChannel(0.9)),
        delta=0.1,
        n_samples=256,
        trials=200,
        seed=33,
    )
    report = run_discrimination(config)
    assert report.empirical_error <= 0.02
    assert report.n_thres > 0
    assert report.mu1 == pytest.approx(0.2 * -np.sqrt(8.0), abs=TOL)
    assert report.mu2 == pytest.approx(0.9 * -np.sqrt(8.0), abs=TOL)


def test_discrimination_is_deterministic():
    probe = msc_canonical(6.0, 1)
    config = DiscriminationConfig(
        probe=probe,
        channels=(LossChannel(0.4), LossChannel(0.8)),
        delta=0.1,
        n_samples=32,
        trials=50,
        seed=5,
    )
    a = run_discrimination(config)
    b = run_discrimination(config)
    assert a.empirical_error == b.empirical_error
    assert a.error_wilson_upper == b.error_wilson_upper


def _group_sides(report, config) -> tuple[list[float], list[float], list[float]]:
    """Per channel: the midpoint in standard units tau, and the chances p, q of a group mean above and below it."""
    b = applications._mom_groups(config.n_samples, config.delta)[1]
    threshold = 0.5 * (report.mu1 + report.mu2)
    tau = [(threshold - mu) / math.sqrt(var / b) for mu, var in ((report.mu1, report.var1), (report.mu2, report.var2))]
    return tau, [float(norm.sf(t)) for t in tau], [float(norm.cdf(t)) for t in tau]


def _log_cdf_ratio(x: float, y: float) -> float:
    """``log Phi(x) - log Phi(y)``.  For two negative arguments it is taken as
    ``log(erfcx(-x/sqrt 2) / erfcx(-y/sqrt 2)) - (x - y)(x + y)/2``, which keeps
    the difference of two log-cdfs near -800 from cancelling."""
    if max(x, y) < 0.0:
        return math.log(erfcx(-x / math.sqrt(2.0)) / erfcx(-y / math.sqrt(2.0))) - (x - y) * (x + y) / 2.0
    return float(log_ndtr(x) - log_ndtr(y))


def _oracle_tie_high(k: int, tau: float) -> float:
    """Chance that a K/2 tie's median is above tau, by quad over the law of B,
    the largest group mean below tau, taken in log space:
    ``int_{-inf}^{tau} f_B(b) (Q(2 tau - b) / Q(tau))^(K/2) db``, with
    ``P(B <= b) = (Phi(b) / Phi(tau))^(K/2)``, split at points that close in on tau."""
    h = k / 2
    # log(phi(b) / Phi(tau)) = log_pdf_shift - (b - tau)(b + tau)/2
    if tau < 0.0:
        log_pdf_shift = -math.log(math.sqrt(math.pi / 2.0) * erfcx(-tau / math.sqrt(2.0)))
    else:
        log_pdf_shift = -0.5 * math.log(2.0 * math.pi) - tau * tau / 2.0 - float(log_ndtr(tau))

    def integrand(b: float) -> float:
        log_density = math.log(h) + (h - 1.0) * _log_cdf_ratio(b, tau) + log_pdf_shift - (b - tau) * (b + tau) / 2.0
        return math.exp(log_density + h * _log_cdf_ratio(b - 2.0 * tau, -tau))

    cuts = {tau - d for d in (60.0, 10.0, 3.0, 1.0, 0.1, 0.01, 1e-3, 1e-4, 1e-5)}
    edges = sorted(cuts | {x for x in (-8.0, -4.0, -2.0, 0.0, 2.0, 4.0) if tau - 60.0 < x < tau} | {tau})
    return sum(quad(integrand, a, c, epsabs=1e-15, epsrel=1e-12, limit=200)[0] for a, c in zip(edges, edges[1:]))


def _oracle_count_sides(k: int, tau: float) -> tuple[float, float, float]:
    """``P(2C < K)``, ``P(2C = K)``, ``P(2C > K)`` for the count C of K group means above tau."""
    p = float(norm.sf(tau))
    tie = float(binom.pmf(k // 2, k, p)) if k % 2 == 0 else 0.0
    return float(binom.cdf((k - 1) // 2, k, p)), tie, float(binom.sf(k // 2, k, p))


def _oracle_error(config: DiscriminationConfig, report) -> float:
    """The normal model's chance of a wrong verdict, half the sum over the channels, from the oracles."""
    tau, _, _ = _group_sides(report, config)
    k = applications._mom_groups(config.n_samples, config.delta)[0]
    error = 0.0
    for t in tau:
        below, tie, above = _oracle_count_sides(k, t)
        high = _oracle_tie_high(k, t) if tie else 0.0
        error += 0.5 * (below + tie * (1.0 - high) if t < 0.0 else above + tie * high)
    return error


def _reference_failures(config: DiscriminationConfig, report) -> list[bool]:
    """Whether each trial is misidentified, decided one trial at a time: its
    one uniform against the oracle's error."""
    error = _oracle_error(config, report)
    failures = []
    for block, start in enumerate(range(0, config.trials, BLOCK_ENTRIES)):
        uniforms = derive_rng(config.seed, block).random(BLOCK_ENTRIES)
        failures.extend(u < error for u in uniforms[: config.trials - start].tolist())
    return failures


def test_discrimination_matches_a_per_block_reference_loop():
    # Blocks of BLOCK_ENTRIES = 65536 trials: 100 000 trials end in the
    # second block, 140 000 in the third, and the shorter run is a prefix.
    config = DiscriminationConfig(
        probe=msc_canonical(6.0, 1),
        channels=(LossChannel(0.5), LossChannel(0.6)),
        delta=0.1,
        n_samples=300,
        trials=140_000,
        seed=12,
    )
    assert applications._mom_groups(config.n_samples, config.delta) == (24, 12)
    report = run_discrimination(config)
    failures = _reference_failures(config, report)
    assert 0 < sum(failures) < config.trials
    assert report.empirical_error == sum(failures) / config.trials
    shorter = dataclasses.replace(config, trials=100_000)
    assert run_discrimination(shorter).empirical_error == sum(failures[: shorter.trials]) / shorter.trials


def _shot_level_error(config: DiscriminationConfig, report) -> float:
    """Error rate of the protocol run on every shot: median_of_means over n_samples normals."""
    mu, sig = np.array([report.mu1, report.mu2]), np.sqrt([report.var1, report.var2])
    threshold = 0.5 * (report.mu1 + report.mu2)
    size = max(1, BLOCK_ENTRIES // config.n_samples)
    failures = 0
    for block, start in enumerate(range(0, config.trials, size)):
        rng = derive_rng(config.seed, block)
        labels = rng.integers(2, size=size)[: config.trials - start]
        shots = rng.standard_normal((size, config.n_samples))[: config.trials - start]
        estimate = median_of_means(mu[labels, None] + sig[labels, None] * shots, config.delta)
        failures += np.count_nonzero(((estimate > threshold) == (mu[1] > mu[0])) != labels)
    return failures / config.trials


# The two-sided check: the draw against the protocol run on every shot.
# Each regime: probe, channels, delta, n_samples and the band that the
# shot-level error rate must lie in, so that the regime is the one named.
_SHOT_LEVEL_REGIMES = {
    # 60 shots in K = 24 groups of b = 2, 12 trailing shots discarded.
    "K24": (msc_canonical(6.0, 1), (LossChannel(0.5), LossChannel(0.56)), 0.1, 60, (0.3, 0.45)),
    # K = 2 groups of one shot: ties in 27% of the vacuum's trials (loss 0)
    # and 47% of the identity's, so ties that lean one way move the rate.
    "K2": (msc_canonical(6.0, 1), (LossChannel(0.0), IdentityChannel()), 0.1, 2, (0.15, 0.25)),
    # K = 30, tie-heavy: each group mean is above the midpoint with chance about 1/2.
    "K30-tie-heavy": (
        msc_canonical(6.0, 1), (LossChannel(0.5), LossChannel(0.52)), 0.05, 200, (0.4, 0.5)
    ),
    # K = 6 groups of 10 shots on a probe turned a quarter period, so that the
    # identity's mean is the higher: the vacuum's group means (loss 0) lie
    # above the midpoint with chance below 1e-3.
    "K6-far-tail": (
        apply(phase_shifter(1, 1, math.pi / 2), msc_canonical(6.0, 1)),
        (LossChannel(0.0), IdentityChannel()),
        0.95,
        60,
        (0.002, 0.02),
    ),
}


@pytest.mark.parametrize("regime", list(_SHOT_LEVEL_REGIMES))
def test_discrimination_error_rate_matches_the_shot_level_protocol(regime):
    probe, channels, delta, n_samples, (lo, hi) = _SHOT_LEVEL_REGIMES[regime]
    config = DiscriminationConfig(probe, channels, delta, n_samples, trials=20_000, seed=3)
    report = run_discrimination(config)
    _, p, _ = _group_sides(report, config)
    if regime == "K6-far-tail":
        assert min(p) < 1e-3
    p_err, q_err = report.empirical_error, _shot_level_error(config, report)
    assert lo <= q_err <= hi
    sigma = math.sqrt((p_err * (1.0 - p_err) + q_err * (1.0 - q_err)) / config.trials)
    assert abs(p_err - q_err) <= 5.0 * sigma


@pytest.mark.parametrize(
    "channels, delta, n_samples, k",
    [
        ((LossChannel(0.5), IdentityChannel()), 0.05, 1, 1),
        # Channels wrong 7% (vacuum) and 31% (identity) of their trials, so a
        # channel label that leans one way moves the rate.
        ((LossChannel(0.0), IdentityChannel()), 0.05, 3, 3),
        ((LossChannel(0.5), LossChannel(0.6)), 0.045, 200, 31),
    ],
    ids=["K1", "K3", "K31"],
)
def test_discrimination_error_rate_matches_the_binomial_closed_form_for_odd_k(
    channels, delta, n_samples, k
):
    # For odd K there is no tie: a trial is high iff Binomial(K, p_i) > K/2,
    # and the error rate is 1/2 * sum_i P(verdict wrong | channel i).
    config = DiscriminationConfig(msc_canonical(6.0, 1), channels, delta, n_samples, 40_000, seed=9)
    assert applications._mom_groups(n_samples, delta)[0] == k
    report = run_discrimination(config)
    _, p, _ = _group_sides(report, config)
    high = [float(binom.sf(k // 2, k, p_i)) for p_i in p]
    second_is_high = report.mu2 > report.mu1
    wrong = (high[0] if second_is_high else 1.0 - high[0], 1.0 - high[1] if second_is_high else high[1])
    expected = 0.5 * sum(wrong)
    assert 0.01 <= expected <= 0.5
    sigma = math.sqrt(expected * (1.0 - expected) / config.trials)
    assert abs(report.empirical_error - expected) <= 5.0 * sigma


# Each shot-level regime, the odd-K closed-form regimes above, and their
# even-K extension, where K/2 ties carry the tie integral: probe, channels,
# delta, n_samples and K.
_EXACT_ERROR_REGIMES = {
    **{name: (*regime[:4], None) for name, regime in _SHOT_LEVEL_REGIMES.items()},
    "closed-K1": (msc_canonical(6.0, 1), (LossChannel(0.5), IdentityChannel()), 0.05, 1, 1),
    "closed-K3": (msc_canonical(6.0, 1), (LossChannel(0.0), IdentityChannel()), 0.05, 3, 3),
    "closed-K31": (msc_canonical(6.0, 1), (LossChannel(0.5), LossChannel(0.6)), 0.045, 200, 31),
    # Two groups of one shot, loss 0.5 against the identity.
    "closed-K2": (msc_canonical(6.0, 1), (LossChannel(0.5), IdentityChannel()), 0.05, 2, 2),
    # Six groups of one shot.
    "closed-K6": (msc_canonical(6.0, 1), (LossChannel(0.0), IdentityChannel()), 0.05, 6, 6),
    # The benchmark's channels and shots on msc(6, 1): 30 groups of 6.
    "closed-K30": (msc_canonical(6.0, 1), (LossChannel(0.5), IdentityChannel()), 0.05, 200, 30),
}


@pytest.mark.parametrize("regime", list(_EXACT_ERROR_REGIMES))
def test_discrimination_error_rate_matches_the_exact_error(regime):
    probe, channels, delta, n_samples, k = _EXACT_ERROR_REGIMES[regime]
    config = DiscriminationConfig(probe, channels, delta, n_samples, trials=400_000, seed=19)
    if k is not None:
        assert applications._mom_groups(n_samples, delta)[0] == k
    report = run_discrimination(config)
    expected = _oracle_error(config, report)
    assert 0.005 <= expected <= 0.5
    sigma = math.sqrt(expected * (1.0 - expected) / config.trials)
    assert abs(report.empirical_error - expected) <= 5.0 * sigma


@pytest.mark.parametrize("k, tau", [(2, 0.3), (6, -0.4), (30, 0.15)])
def test_a_tie_is_high_at_the_rate_of_brute_force_ties(k, tau):
    # Brute force: rows of K standard normals with exactly K/2 above tau, and
    # the side of their median.
    rng = derive_rng(17, k)
    highs, ties = 0, 0
    for _ in range(8):
        z = rng.standard_normal((25_000, k))
        tied = z[np.count_nonzero(z > tau, axis=1) * 2 == k]
        ties += tied.shape[0]
        highs += int(np.count_nonzero(np.median(tied, axis=1) > tau))
    brute = highs / ties
    (exact,) = applications._tie_high_chance(k, [tau])
    assert ties > 10_000
    sigma = math.sqrt(exact * (1.0 - exact) / ties)
    assert abs(brute - exact) <= 5.0 * sigma


_TAU_PANEL = (-40.0, -10.0, -3.5, -2.0, -0.4, 0.0, 0.3, 2.0, 3.5, 10.0, 40.0)


@pytest.mark.parametrize("k", [1, 2, 3, 6, 30, 31, 2000])
def test_the_exact_error_matches_the_scipy_oracle(k):
    # Count sides against scipy's binomial, a tie's chance to be high against
    # quad over the law of B; p or q is exactly 0 at tau = +-40.  No step
    # warns.  The whole panel is one stacked call of each.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sides = applications._count_sides(
            k,
            [0.5 * math.erfc(tau / math.sqrt(2.0)) for tau in _TAU_PANEL],
            [0.5 * math.erfc(-tau / math.sqrt(2.0)) for tau in _TAU_PANEL],
        )
        highs = applications._tie_high_chance(k, _TAU_PANEL) if k % 2 == 0 else []
    for tau, side in zip(_TAU_PANEL, sides):
        assert np.allclose(side, _oracle_count_sides(k, tau), rtol=0.0, atol=1e-10), tau
    for tau, high in zip(_TAU_PANEL, highs):
        assert abs(high - _oracle_tie_high(k, tau)) <= 1e-10, tau


@pytest.mark.parametrize("k", [1, 2, 3, 6, 30, 31, 2000])
def test_each_channel_of_the_stacked_helpers_is_its_own_evaluation(k):
    # Both channels go through _count_sides and _tie_high_chance in one call;
    # each channel's entry must be its one-channel evaluation bit for bit, and
    # swapping the channels must leave the mixture error w unchanged.
    def p_q(taus):
        z = [tau / math.sqrt(2.0) for tau in taus]
        return [0.5 * math.erfc(x) for x in z], [0.5 * math.erfc(-x) for x in z]

    for pair in itertools.product(_TAU_PANEL, repeat=2):
        # repr is exact for floats and tells -0.0 from 0.0
        sides = applications._count_sides(k, *p_q(pair))
        assert repr(sides) == repr([applications._count_sides(k, *p_q([tau]))[0] for tau in pair]), pair
        if k % 2 == 0:
            highs = applications._tie_high_chance(k, pair)
            assert repr(highs) == repr([applications._tie_high_chance(k, [tau])[0] for tau in pair]), pair
        w = applications._error_chance(k, pair)
        assert 0.0 <= w <= 1.0
        assert repr(w) == repr(applications._error_chance(k, pair[::-1])), pair


@pytest.mark.parametrize("regime", list(_EXACT_ERROR_REGIMES))
def test_swapping_the_channels_swaps_only_their_moments(regime):
    probe, channels, delta, n_samples, _ = _EXACT_ERROR_REGIMES[regime]
    report = run_discrimination(DiscriminationConfig(probe, channels, delta, n_samples, 2000, seed=5))
    swapped = run_discrimination(DiscriminationConfig(probe, channels[::-1], delta, n_samples, 2000, seed=5))
    assert swapped == dataclasses.replace(
        report, mu1=report.mu2, mu2=report.mu1, var1=report.var2, var2=report.var1
    )


@pytest.mark.parametrize("k", [2, 6, 30, 2000])
def test_a_tie_is_high_at_tau_as_often_as_it_is_low_at_minus_tau(k):
    # Reflecting every group mean about the midpoint.  At tau = +-38 and K = 2
    # the quantile's argument Phi(tau) u is below the least float for the
    # smallest nodes; at +-40, Phi(tau) or Q(tau) is exactly 0 and no step
    # takes a log(0) or any other floating-point exception.
    for tau in (0.3, 2.0, 10.0, 38.0):
        high, low = applications._tie_high_chance(k, [tau, -tau])
        assert 0.0 <= high <= 1.0 and 0.0 <= low <= 1.0
        assert abs(high + low - 1.0) <= 2.0**-52, tau
    # At tau = 0 both sides are the same integral, 1/2 up to the rule's error.
    assert abs(applications._tie_high_chance(k, [0.0])[0] - 0.5) <= 1e-13
    with np.errstate(all="raise"):
        high, low = applications._tie_high_chance(k, [40.0, -40.0])
    assert abs(high + low - 1.0) <= 2.0**-52 and high <= 1e-14


@pytest.mark.parametrize("k", [1, 2, 7, 30, 2000])
def test_the_count_table_is_the_binomial_cdf(k):
    # The three sides of the count, P(2C < K), P(2C = K) and P(2C > K), each
    # against scipy's binomial.
    panel = (1e-300, 1e-3, 0.3, 0.5, 0.97)
    for p, sides in zip(panel, applications._count_sides(k, panel, [1.0 - p for p in panel])):
        expected = (binom.cdf((k - 1) // 2, k, p), binom.pmf(k // 2, k, p) if k % 2 == 0 else 0.0, binom.sf(k // 2, k, p))
        assert np.allclose(sides, expected, rtol=1e-10, atol=1e-14)
    # A count certain to be 0 or K takes no log(0).
    with np.errstate(all="raise"):
        assert applications._count_sides(k, [0.0, 1.0], [1.0, 0.0]) == [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)]


def test_the_log_binomials_are_built_once_per_k_and_read_only():
    # The K-only half of the count table: cached per K, and equal to a fresh build.
    for k in (1, 2, 30, 31, 5962):
        c, log_comb = applications._log_binomials(k)
        assert applications._log_binomials(k)[1] is log_comb
        assert not c.flags.writeable and not log_comb.flags.writeable
        fresh = np.arange(k + 1)
        assert_array_equal(c, fresh)
        want = np.concatenate(([0.0], np.cumsum(np.log((k - fresh[:-1]) / fresh[1:]))))
        assert log_comb.tobytes() == want.tobytes()
    # the largest K any positive float delta gives, where 2 / delta overflows
    assert applications._mom_groups(10**9, 5e-324)[0] == 5962


@pytest.mark.parametrize("delta", [5e-324, 1e-310, 2.0 / sys.float_info.max])
def test_a_delta_whose_reciprocal_overflows_runs(delta):
    # 2 / delta is past the float range: log 2 - log delta, with no warning and no error.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = applications._mom_groups(10**9, delta)[0]
        report = run_discrimination(
            DiscriminationConfig(msc_canonical(6.0, 1), (LossChannel(0.5), IdentityChannel()), delta, 200, 10, seed=0)
        )
    assert k == math.ceil(8.0 * (math.log(2.0) - math.log(delta)))
    assert math.isfinite(report.n_thres) and 0.0 <= report.empirical_error <= 1.0


def _warm_up_the_tie_branch():
    # A tie-heavy run: its ties import statistics, outside every measurement.
    run_discrimination(
        DiscriminationConfig(
            msc_canonical(6.0, 1), (LossChannel(0.5), LossChannel(0.52)), 0.05, 200, 200, seed=0
        )
    )


def test_discrimination_memory_does_not_grow_with_the_shot_count():
    config = DiscriminationConfig(
        probe=msc_canonical(6.0, 1),
        channels=(LossChannel(0.5), LossChannel(0.6)),
        delta=0.1,
        n_samples=10**7,
        trials=3,
        seed=4,
    )
    _warm_up_the_tie_branch()
    run_discrimination(config)
    tracemalloc.start()
    try:
        run_discrimination(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_discrimination_draws_only_the_trials_it_keeps():
    # K = 24: a block has BLOCK_ENTRIES // 24 = 2730 trials, and a full block
    # of uniforms would take about 85 KiB; three kept trials take 96 bytes.
    config = DiscriminationConfig(
        probe=msc_canonical(6.0, 1),
        channels=(LossChannel(0.5), LossChannel(0.6)),
        delta=0.1,
        n_samples=300,
        trials=3,
        seed=4,
    )
    assert applications._mom_groups(config.n_samples, config.delta)[0] == 24
    _warm_up_the_tie_branch()
    run_discrimination(config)
    tracemalloc.start()
    try:
        run_discrimination(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10


@pytest.mark.parametrize(
    "first, n_samples, expected",
    [
        # K = 30 groups, with K/2 ties, in one block.
        (LossChannel(0.5), 200, 0.0174),
        (IdentityChannel(), 200, 0.0174),
        # K = 1: every shot is its own group.
        (LossChannel(0.5), 1, 0.417),
        (IdentityChannel(), 1, 0.417),
    ],
    ids=["loss-first-K30", "identity-first-K30", "loss-first-K1", "identity-first-K1"],
)
def test_discrimination_error_rates_are_pinned(first, n_samples, expected):
    # Rates of msc(6, 1) probes, loss 0.5 against the identity in either order,
    # recorded under seedseq-spawn-v6 and the same under v7 and v8, which moved
    # only the search's and sample_pure_cm's samples (v7) and the unitary Haar
    # draws (v8); a seeded sample that moves must bump STREAM_SCHEME.
    # The order does not move the rate: a trial's chance of a wrong verdict is
    # the mean over the two channels, and it draws one uniform.
    second = IdentityChannel() if first.eta < 1.0 else LossChannel(0.5)
    config = DiscriminationConfig(
        probe=msc_canonical(6.0, 1),
        channels=(first, second),
        delta=0.05,
        n_samples=n_samples,
        trials=5000,
        seed=7,
    )
    assert run_discrimination(config).empirical_error == expected


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 40),
    rows=st.integers(1, 6),
    threshold=st.sampled_from([-1.5, 0.0, 0.25, 3.0]),
    data=st.data(),
)
def test_the_median_side_is_the_count_side_or_the_tie_midpoint_side(k, rows, threshold, data):
    # The identity the draw rests on: a median is above the threshold iff
    # more than K/2 entries are, except at a K/2 tie (even K), where it is
    # the mean of the largest entry at or below and the smallest above.
    # Entries mostly from a small pool that holds the threshold and its float
    # neighbours, so rows have duplicates, entries equal to it and, for even
    # K, exact K/2 ties whose two middle values are adjacent floats.
    near = [threshold, np.nextafter(threshold, -np.inf), np.nextafter(threshold, np.inf)]
    pool = st.sampled_from([*near, threshold - 1.0, threshold + 1.0, -2.0, 7.0])
    entry = st.one_of(pool, st.floats(-10.0, 10.0))
    row = st.lists(entry, min_size=k, max_size=k)
    x = np.array(data.draw(st.lists(row, min_size=rows, max_size=rows)))
    above = x > threshold
    twice = 2 * np.count_nonzero(above, axis=-1)
    lowest_above = np.where(above, x, np.inf).min(axis=-1)
    highest_below = np.where(above, -np.inf, x).max(axis=-1)
    tie_side = (highest_below + lowest_above) / 2 > threshold
    side = np.where(twice == k, tie_side, twice > k)
    assert_array_equal(side, np.median(x, axis=-1) > threshold)


def test_discrimination_config_validation():
    probe = msc_canonical(6.0, 1)
    with pytest.raises(ValueError):
        DiscriminationConfig(
            probe=probe,
            channels=(LossChannel(0.4),),
            delta=0.1,
            n_samples=8,
            trials=5,
            seed=0,
        )
    with pytest.raises(ValueError):
        DiscriminationConfig(
            probe=probe,
            channels=(LossChannel(0.4), LossChannel(0.8)),
            delta=1.5,
            n_samples=8,
            trials=5,
            seed=0,
        )
    with pytest.raises(ValueError):
        DiscriminationConfig(
            probe=probe,
            channels=(LossChannel(0.4), LossChannel(0.8)),
            delta=0.1,
            n_samples=0,
            trials=5,
            seed=0,
        )


def _config(**fields) -> DiscriminationConfig:
    base = dict(
        probe=msc_canonical(6.0, 1),
        channels=(LossChannel(0.5), IdentityChannel()),
        delta=0.05,
        n_samples=200,
        trials=100,
        seed=7,
    )
    return DiscriminationConfig(**{**base, **fields})


@pytest.mark.parametrize("field", ["trials", "n_samples"])
def test_discrimination_config_rejects_a_fractional_count(field):
    # trials=100.0 used to pass construction and fail inside mc_blocks with
    # an unnamed TypeError.
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        _config(**{field: 100.0})


def test_discrimination_config_rejects_a_boolean_shot_count():
    # n_samples=True used to run one shot.
    with pytest.raises(ValueError, match="^n_samples must be an integer"):
        _config(n_samples=True)


@pytest.mark.parametrize("seed", [1.5, False])
def test_discrimination_config_rejects_a_seed_that_is_not_an_integer(seed):
    # seed=1.5 used to run the stream of seed 1.
    with pytest.raises(ValueError, match="^seed must be an integer"):
        _config(seed=seed)


def test_discrimination_config_accepts_numpy_integers():
    numpy_ints = _config(n_samples=np.int64(200), trials=np.int32(100), seed=np.uint64(7))
    assert run_discrimination(numpy_ints) == run_discrimination(_config())


# ---------------------------------------------------------------------------
# Homodyne distinguishability of rotated squeezed outputs
# ---------------------------------------------------------------------------


def test_rotated_quadrature_variance_values():
    squeezed = apply(squeezer(1, 1, 0.5), vacuum_state(1)).cov
    assert rotated_quadrature_variance(squeezed, 0.0) == pytest.approx(
        np.e, abs=EXACT
    )
    assert rotated_quadrature_variance(squeezed, np.pi / 2) == pytest.approx(
        1.0 / np.e, abs=EXACT
    )


def test_rotated_quadrature_variance_positive(rng):
    for _ in range(50):
        cov = random_valid_cov(rng, 1)
        angle = float(rng.uniform(0, 2 * np.pi))
        assert rotated_quadrature_variance(cov, angle) > 0


def test_rotated_quadrature_variance_matches_rotation_gate(rng):
    for _ in range(20):
        cov = random_valid_cov(rng, 1)
        angle = float(rng.uniform(0, 2 * np.pi))
        rotated = apply(phase_shifter(1, 1, angle), GaussianState(cov)).cov
        assert rotated_quadrature_variance(cov, angle) == pytest.approx(
            rotated.matrix[0, 0], abs=1e-10
        )


def test_tvd_bound_values():
    cov = CovMat(np.eye(2))
    val = tvd_bound_ppmm(cov, 0.3, 0.0, np.pi / 4)
    assert val == pytest.approx(0.3 / 1.3, abs=EXACT)
    inflated = tvd_bound_ppmm(cov, 0.3, 0.0, np.pi / 4, inflated=True)
    assert inflated == pytest.approx(0.34615384615384615, abs=EXACT)
    assert tvd_bound_ppmm(cov, 0.0, 0.0, np.pi / 4) == 0.0
    # A measurement angle aligned with the diagonal cannot see V_xp at all.
    assert tvd_bound_ppmm(cov, 0.3, -0.3, 0.0) == 0.0


def test_tvd_bound_caps_at_one():
    cov = CovMat(np.eye(2))
    # rotated variances 1.9 and 0.1; the uncapped inflated bound is about 1.42
    assert tvd_bound_ppmm(cov, 0.9, -0.9, np.pi / 4, inflated=True) == 1.0


@pytest.mark.parametrize("sxp1, sxp2, output", [(100.0, -100.0, 2), (-5.0, 0.0, 1)])
def test_tvd_bound_rejects_a_negative_rotated_variance(sxp1, sxp2, output):
    with pytest.raises(ValueError, match=f"output {output} is -"):
        tvd_bound_ppmm(CovMat(np.eye(2)), sxp1, sxp2, np.pi / 4)


def test_tvd_bound_rejects_degenerate_variance():
    tiny = CovMat(np.eye(2) * 1e-14)
    with pytest.raises(ValueError):
        tvd_bound_ppmm(tiny, 0.5, -0.5, 0.0)


def test_tvd_exact_known_value():
    assert tvd_exact_zero_mean_normals(1.0, 4.0) == pytest.approx(
        0.3226745688347685, abs=1e-12
    )
    assert tvd_exact_zero_mean_normals(4.0, 1.0) == pytest.approx(
        tvd_exact_zero_mean_normals(1.0, 4.0), abs=EXACT
    )
    assert tvd_exact_zero_mean_normals(2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        tvd_exact_zero_mean_normals(0.0, 1.0)


def test_tvd_exact_is_symmetric_and_tends_to_one_at_extreme_ratios():
    # Each of these overflowed a ratio or product of the variances.
    for v1, v2 in ((1e-310, 1.0), (2.0, 1.5e308), (1e-10, 1e300), (5e-324, 1.7e308), (1.0, 1e30)):
        assert tvd_exact_zero_mean_normals(v1, v2) == tvd_exact_zero_mean_normals(v2, v1)
        assert tvd_exact_zero_mean_normals(v1, v2) == pytest.approx(1.0, abs=1e-12)


def test_tvd_exact_agrees_with_scipy_at_moderate_ratios(rng):
    for _ in range(50):
        v1, v2 = (float(v) for v in 10.0 ** rng.uniform(-3.0, 3.0, size=2))
        x_star = np.sqrt(v1 * v2 * np.log(v2 / v1) / (v2 - v1))
        want = 2.0 * abs(norm.cdf(x_star / np.sqrt(v1)) - norm.cdf(x_star / np.sqrt(v2)))
        assert tvd_exact_zero_mean_normals(v1, v2) == pytest.approx(want, abs=1e-12)
        assert tvd_exact_zero_mean_normals(v1, v2) == tvd_exact_zero_mean_normals(v2, v1)


def tvd_by_quadrature(v1: float, v2: float) -> float:
    """Half the L1 distance of the two densities, integrated adaptively.

    The integrand has a kink where the densities cross, so the crossing point
    is passed as a breakpoint; the even symmetry halves the domain.
    """
    lo, hi = sorted((v1, v2))
    x_star = np.sqrt(lo * hi * np.log(hi / lo) / (hi - lo))
    span = 14.0 * np.sqrt(hi)

    def integrand(x):
        return abs(norm.pdf(x, scale=np.sqrt(v1)) - norm.pdf(x, scale=np.sqrt(v2)))

    value, _ = quad(
        integrand, 0.0, span, points=[x_star], limit=500, epsabs=1e-13, epsrel=1e-13
    )
    return value


def test_tvd_exact_against_quadrature(rng):
    for _ in range(25):
        v1 = float(rng.uniform(0.2, 5.0))
        v2 = float(rng.uniform(0.2, 5.0))
        if abs(v1 - v2) < 1e-6:
            v2 += 0.5
        assert tvd_exact_zero_mean_normals(v1, v2) == pytest.approx(
            tvd_by_quadrature(v1, v2), abs=1e-10
        )


def test_inflated_bound_dominates_exact_tvd(rng):
    # Two outputs sharing diagonals but with opposite-sign cross covariance:
    # a squeezed state rotated by +alpha versus -alpha.  The inflated
    # variance bound must sit above the true distance between the homodyne
    # readout distributions at every measurement angle.
    checked = 0
    for _ in range(200):
        r = float(rng.uniform(0.05, 1.2))
        alpha = float(rng.uniform(0.05, np.pi / 2 - 0.05))
        theta = float(rng.uniform(0.05, np.pi / 2 - 0.05))
        squeezed = apply(squeezer(1, 1, r), vacuum_state(1))
        plus = apply(phase_shifter(1, 1, alpha), squeezed).cov
        minus = apply(phase_shifter(1, 1, -alpha), squeezed).cov
        assert plus.matrix[0, 1] == pytest.approx(-minus.matrix[0, 1], abs=1e-12)
        v1 = rotated_quadrature_variance(plus, theta)
        v2 = rotated_quadrature_variance(minus, theta)
        if abs(v1 - v2) < 1e-9:
            continue
        bound = tvd_bound_ppmm(
            plus, plus.matrix[0, 1], minus.matrix[0, 1], theta, inflated=True
        )
        exact = tvd_exact_zero_mean_normals(v1, v2)
        assert bound >= exact - 1e-12
        checked += 1
    assert checked > 150


# ---------------------------------------------------------------------------
# The Helstrom bound is the trace-distance rule; thresholds past the float range
# ---------------------------------------------------------------------------


def _helstrom_by_hand(E, m, eta, c):
    """The Helstrom bound with its trace-distance gap written out."""
    shrink = (1.0 - eta) ** 2
    gap = math.sqrt(shrink * (E - 2.0 * m) ** 2 / (2.0 * m) + 2.0 * c * shrink)
    return 0.5 + min(1.0, gap / (E + 1.0)) / 400.0


def test_helstrom_is_the_trace_distance_bound_between_the_two_outputs(monkeypatch):
    calls = []

    def spy(*args):
        calls.append(args)
        return td_lower_bound_gaussian(*args)

    monkeypatch.setattr(applications, "td_lower_bound_gaussian", spy)
    c = np.sinh(1.0) ** 2
    assert helstrom_lower_bound_loss(6.0, 1, 0.5, c) == 0.5005858176000749
    # The identity's output (trace E, coherence c) against the loss output.
    assert calls == [(6.0, 0.5 * 6.0 + 0.5 * 2.0, c, 0.25 * c, 6.0, 1)]
    assert helstrom_lower_bound_loss(6.0, 1, 1.0, c) == 0.5
    assert helstrom_lower_bound_loss(1e9, 1, 0.0, 1e18) == 0.5 + 1.0 / 400.0


def test_helstrom_matches_the_written_out_gap_on_a_random_panel():
    rng = np.random.default_rng(34)
    n = 100_000
    ms = rng.integers(1, 9, n).tolist()
    # 2% each: no excess trace, no coherence, eta = 0 and eta = 1.
    excess = np.where(rng.uniform(size=n) < 0.98, 10.0 ** rng.uniform(-6.0, 6.0, n), 0.0)
    cs = np.where(rng.uniform(size=n) < 0.98, rng.uniform(size=n) * (excess * excess / 4.0 + excess), 0.0)
    etas = rng.choice([0.0, 1.0, 0.5], n, p=[0.02, 0.02, 0.96])
    etas = np.where(etas == 0.5, rng.uniform(size=n), etas)
    for m, x, c, eta in zip(ms, excess.tolist(), cs.tolist(), etas.tolist()):
        E = 2 * m + x
        # Within one ulp of the values in [1/2, 1/2 + 1/400]: 2^-53, about 1.11e-16.
        assert abs(helstrom_lower_bound_loss(E, m, eta, c) - _helstrom_by_hand(E, m, eta, c)) <= math.ulp(0.5)


def test_n_thres_orthogonal_past_the_float_range_is_named():
    # Squared, the gap 1e-200 underflows to 0: this once ended in a
    # ZeroDivisionError.  The threshold, about 1e402, is past the float range.
    with pytest.raises(NumericError, match="sample threshold overflows float64"):
        n_thres_orthogonal(1e-200, 2e-200, 1, 6.0, 0.1)


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
def test_thresholds_of_means_past_the_root_of_the_float_range_are_finite(scale):
    # Each term is divided by the gap before it is squared: squared first,
    # the means 1e200 overflowed, and a finite threshold was named an overflow.
    # The orthogonal threshold depends on the means only through mu / gap.
    assert n_thres_orthogonal(scale, 2.0 * scale, 1, 6.0, 0.1) == pytest.approx(
        272.0 * math.log(20.0) * 4.0, rel=1e-15, abs=0
    )
    assert n_thres_loss(scale, 1.0, 6.0, 0.4, 0.8, 0.1) == pytest.approx(
        272.0 * math.log(20.0) * 2.0 * 0.8 * 0.8 / (0.4 * 0.4), rel=1e-14, abs=0
    )


def test_general_trace_distance_bound_divides_before_it_squares():
    # ((E1 - E2) / (80 m sqrt(E_tilde_sq)))^2: squared first, 1e200 gave nan.
    assert td_lower_bound_general(1e200, 0.0, 0.0, 0.0, 1e306, 1) == pytest.approx(1.5625e90, rel=1e-14, abs=0)
    with pytest.raises(NumericError, match="trace-distance bound overflows float64"):
        td_lower_bound_general(1e200, 0.0, 0.0, 0.0, 1.0, 1)
    # The general bound divides by its energy cap, so a zero cap is named.
    with pytest.raises(ValueError, match="energy cap E_tilde_sq must be positive"):
        td_lower_bound_general(6.0, 6.0, 4.0, 1.0, 0.0, 1)


@pytest.mark.parametrize("mu", [1e-200, 1e-160])
def test_n_thres_loss_past_the_float_range_is_named(mu):
    with pytest.raises(NumericError, match="sample threshold overflows float64"):
        n_thres_loss(mu, 1.0, 2.0, 0.5, 1.0, 0.05)


def test_meas_moments_names_a_variance_past_the_float_range():
    probe = GaussianState(CovMat([[1.5e200, 1e200], [1e200, 1.5e200]]))
    assert sympcoh.is_valid(probe.cov)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"variance 1 \+ V_00 V_mm \+ mu\^2"):
            meas_moments(probe, IdentityChannel())


def test_discrimination_threshold_names_probe_entries_whose_products_overflow():
    # The outputs' variances are finite, but V_00 V_mm of the probe is not.
    probe = GaussianState(CovMat([[1e160, 5e159], [5e159, 1e160]]))
    channels = (LossChannel(1e-100), LossChannel(2e-100))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="sample threshold overflows float64"):
            run_discrimination(DiscriminationConfig(probe, channels, 0.1, 10, 10, 0))
