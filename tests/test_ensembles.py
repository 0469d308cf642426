"""Random pure-state ensembles at fixed trace and their entanglement statistics."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from sympcoh import (
    EnsembleConfig,
    GaussianState,
    analytic_mean_nu_sq,
    derive_rng,
    ensemble_nu_sq,
    entanglement_entropy,
    haar_moment_check,
    is_pure,
    is_valid,
    partial_trace,
    sample_d,
    sample_pure_cm,
    spectrum_from_weights,
    symplectic_coherence,
    symplectic_eigenvalues,
)
from sympcoh import ensembles
from sympcoh.ensembles import _first_mode_nu_sq, _pair_sums
from sympcoh.symplectic_ops import (
    block_samples,
    ginibre_batch,
    haar_from_ginibre,
    pure_cm,
    pure_param_blocks,
    sample_d_batch,
)

TOL = 1e-12


def test_spectrum_meets_trace_constraint(rng):
    for _ in range(50):
        m = int(rng.integers(1, 6))
        E = 2 * m + float(rng.uniform(0, 20))
        w = rng.dirichlet(np.ones(m))
        d = spectrum_from_weights(E, w)
        assert np.all(d >= 1.0)
        assert np.sum(d + 1.0 / d) == pytest.approx(E, abs=1e-9)


def test_spectrum_meets_the_trace_for_any_number_of_weights():
    # The mode count is the number of weights, so no separate count can disagree.
    for m in range(1, 6):
        d = spectrum_from_weights(10.0, np.full(m, 1.0 / m))
        assert d.shape == (m,)
        assert np.sum(d + 1.0 / d) == pytest.approx(10.0, abs=1e-12)


def test_spectrum_rejects_a_short_budget_and_bad_weights():
    with pytest.raises(ValueError, match="trace"):
        spectrum_from_weights(3.0, [0.5, 0.5])
    with pytest.raises(ValueError, match="sum to 1"):
        spectrum_from_weights(10.0, [0.7, 0.7])
    with pytest.raises(ValueError, match="sum to 1"):
        spectrum_from_weights(10.0, [[0.5, 0.5], [0.2, 0.9]])
    with pytest.raises(ValueError, match="nonnegative"):
        spectrum_from_weights(10.0, [1.5, -0.5])


def test_sample_pure_cm_rejects_an_unknown_kind(rng):
    with pytest.raises(ValueError, match="kind"):
        sample_pure_cm(8.0, 2, "special", rng)
    with pytest.raises(ValueError, match="trace"):
        sample_pure_cm(3.0, 2, "unitary", rng)


def test_spectrum_single_mode_deterministic():
    d = spectrum_from_weights(6.0, np.array([1.0]))
    x = 4.0
    expected = 1.0 + x / 2.0 + np.sqrt(x + x * x / 4.0)
    assert d[0] == pytest.approx(expected, abs=TOL)
    assert d[0] + 1.0 / d[0] == pytest.approx(6.0, abs=TOL)


def test_spectrum_at_minimum_trace_is_flat():
    weights = np.array([0.2, 0.3, 0.5])
    assert_allclose(spectrum_from_weights(6.0, weights), np.ones(3), atol=TOL)


def test_sample_d_respects_constraint(rng):
    for _ in range(20):
        m = int(rng.integers(1, 5))
        E = 2 * m + float(rng.uniform(0, 10))
        d = sample_d(E, m, rng)
        assert np.sum(d + 1.0 / d) == pytest.approx(E, abs=1e-9)


@pytest.mark.parametrize("kind", ["orthogonal", "unitary"])
def test_sampled_states_are_valid_pure_and_on_budget(rng, kind):
    for i in range(25):
        cov = sample_pure_cm(10.0, 3, kind, derive_rng(7, i))
        assert is_valid(cov)
        assert is_pure(cov)
        assert cov.trace == pytest.approx(10.0, abs=1e-8)


def test_orthogonal_kind_has_zero_coherence(rng):
    for i in range(25):
        cov = sample_pure_cm(12.0, 3, "orthogonal", derive_rng(11, i))
        assert symplectic_coherence(cov) == 0.0


def test_single_mode_orthogonal_is_diagonal_squeeze(rng):
    cov = sample_pure_cm(6.0, 1, "orthogonal", derive_rng(3, 0))
    d = cov.matrix[0, 0]
    assert_allclose(cov.matrix, np.diag([d, 1.0 / d]), atol=1e-10)
    assert d + 1.0 / d == pytest.approx(6.0, abs=1e-9)


@pytest.mark.parametrize("kind", ["orthogonal", "unitary"])
def test_single_mode_reduction_is_trivial(kind):
    for E in (8.0, 1e4, 1e8, 1e12, 1e150):
        config = EnsembleConfig(m=1, E=E, n_samples=200, seed=4, kind=kind)
        stats = ensemble_nu_sq(config)
        assert stats.mean_nu_sq == pytest.approx(1.0, abs=TOL), E
        assert stats.analytic_mean == pytest.approx(1.0, abs=TOL), E


@pytest.mark.parametrize("kind", ["orthogonal", "unitary"])
def test_minimum_trace_budget_gives_vacuum_reductions(kind):
    config = EnsembleConfig(m=2, E=4.0, n_samples=100, seed=2, kind=kind)
    stats = ensemble_nu_sq(config)
    assert stats.mean_nu_sq == pytest.approx(1.0, abs=1e-9)


def test_reduction_agrees_with_general_solver(rng):
    for i in range(10):
        cov = sample_pure_cm(11.0, 3, "unitary", derive_rng(19, i))
        nu = symplectic_eigenvalues(partial_trace(GaussianState(cov), [1]).cov)
        assert nu[0] ** 2 >= 1.0 - 1e-10


@pytest.mark.parametrize(
    "kind, m, E", [("orthogonal", 2, 8.0), ("unitary", 2, 8.0), ("unitary", 3, 12.0)]
)
def test_monte_carlo_matches_analytic_mean(kind, m, E):
    config = EnsembleConfig(m=m, E=E, n_samples=4000, seed=99, kind=kind)
    stats = ensemble_nu_sq(config)
    assert abs(stats.mean_nu_sq - stats.analytic_mean) <= 4 * stats.stderr_diff
    assert stats.mean_nu_sq >= 1.0 - 3 * stats.stderr


def lagrange_nu_sq(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Long-double nu_1^2 of first rows (n, m): squared 2 x 2 minors of rows 0 and m of ``A``.

    ``A = S_U diag(d, 1/d)^(1/2)``; ``sum_{i<j} (a_i b_j - a_j b_i)^2`` is the
    Gram determinant ``|a|^2 |b|^2 - (a.b)^2`` without using ``|u| = 1``.
    """
    x, y, d = (np.asarray(v, dtype=np.longdouble) for v in (x, y, d))
    root = np.sqrt(d)
    a = np.concatenate([x * root, y / root], axis=1)
    b = np.concatenate([-y * root, x / root], axis=1)
    minors = a[:, :, None] * b[:, None, :] - a[:, None, :] * b[:, :, None]
    return np.sum(minors * minors, axis=(1, 2)) / 2


@pytest.mark.parametrize("kind", ["orthogonal", "unitary"])
@pytest.mark.parametrize("m", [1, 2, 8, 16])
def test_first_mode_nu_sq_matches_long_double_minors(kind, m):
    for E in (2 * m + 1e-9, 2 * m + 1e-6, 4 * m + 8, 1e3, 1e8, 1e12, 1e50, 1e150):
        for _, x, y, d in pure_param_blocks(23, 256, E, m, kind == "orthogonal"):
            got = _first_mode_nu_sq(x[:, 0] + 1j * y[:, 0], d)
            want = lagrange_nu_sq(x[:, 0], y[:, 0], d)
            assert np.all(np.abs(got - want) <= 1e-12 * want), (m, E)
            assert np.all(got >= 1.0 - 1e-15), (m, E)


@pytest.mark.parametrize("m", [2, 8])
def test_pair_sums_match_long_double(m):
    for E in (4 * m + 8, 1e4, 1e12, 1e150):
        for _, _, _, d in pure_param_blocks(29, 64, E, m, True):
            s1, s2 = _pair_sums(d)
            ld = d.astype(np.longdouble)
            off = ~np.eye(m, dtype=bool)
            ratio, prod = ld[:, :, None] / ld[:, None, :], ld[:, :, None] * ld[:, None, :]
            want1 = np.sum(np.where(off, ratio + 1 / ratio, 0), axis=(1, 2))
            want2 = np.sum(np.where(off, prod + 1 / prod, 0), axis=(1, 2))
            assert np.all(np.abs(s1 - want1) <= 1e-14 * want1), (m, E)
            assert np.all(np.abs(s2 - want2) <= 1e-14 * want2), (m, E)


@pytest.mark.parametrize("kind", ["orthogonal", "unitary"])
def test_ensemble_statistics_stay_finite_at_large_trace(kind):
    for m in (2, 8, 16):
        stats = ensemble_nu_sq(EnsembleConfig(m=m, E=1e150, n_samples=300, seed=3, kind=kind))
        values = (stats.mean_nu_sq, stats.stderr, stats.analytic_mean, stats.stderr_diff)
        assert np.all(np.isfinite(values)) and stats.stderr > 0, m
        assert abs(stats.mean_nu_sq - stats.analytic_mean) <= 5 * stats.stderr_diff, m


def test_ensemble_builds_no_covariance_matrix(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return pure_cm(*args)

    monkeypatch.setattr(ensembles, "pure_cm", counting)
    for kind in ("orthogonal", "unitary"):
        config = EnsembleConfig(m=3, E=12.0, n_samples=300, seed=2, kind=kind)
        ensemble_nu_sq(config)
        ensemble_nu_sq(config, return_samples=True)
    assert calls == []


def test_ensemble_statistics_run_no_qr(monkeypatch):
    def no_qr(*args, **kwargs):
        raise AssertionError("np.linalg.qr called")

    monkeypatch.setattr(np.linalg, "qr", no_qr)
    for kind in ("orthogonal", "unitary"):
        for m in (1, 2, 8):
            stats = ensemble_nu_sq(EnsembleConfig(m=m, E=4 * m + 8, n_samples=300, seed=2, kind=kind))
            assert np.isfinite(stats.mean_nu_sq) and stats.mean_nu_sq >= 1.0


@pytest.mark.parametrize("kind", ["orthogonal", "unitary"])
@pytest.mark.parametrize("m", [1, 2, 8])
def test_samples_do_not_change_the_nu_sq_samples_or_statistics(kind, m, monkeypatch):
    runs = []
    for return_samples in (False, True):
        recorded = []

        def recording(u, d):
            recorded.append(_first_mode_nu_sq(u, d))  # the unpatched function
            return recorded[-1]

        monkeypatch.setattr(ensembles, "_first_mode_nu_sq", recording)
        config = EnsembleConfig(m=m, E=4 * m + 8, n_samples=600, seed=13, kind=kind)
        out = ensemble_nu_sq(config, return_samples=return_samples)
        runs.append((out[0] if return_samples else out, np.concatenate(recorded)))
        if return_samples:
            assert out[1].tobytes() == runs[-1][1].tobytes()
    (stats_a, nu_a), (stats_b, nu_b) = runs
    assert nu_a.tobytes() == nu_b.tobytes()
    assert stats_a == stats_b


@pytest.mark.parametrize("kind", ["orthogonal", "unitary"])
@pytest.mark.parametrize("m", [2, 4])
def test_samples_are_states_of_the_transposed_haar_draw(kind, m):
    seed, E, size = 31, 4 * m + 8, block_samples(m)
    _, nu_sq, coh = ensemble_nu_sq(
        EnsembleConfig(m=m, E=E, n_samples=size, seed=seed, kind=kind), return_samples=True
    )
    rng = derive_rng(seed, 0)
    d = sample_d_batch(E, m, size, rng)
    draw = haar_from_ginibre(ginibre_batch(m, size, rng, kind == "orthogonal"))
    passive = np.swapaxes(draw, -1, -2)
    cms = pure_cm(passive.real, passive.imag, d)
    first = cms[:, [0, m]][:, :, [0, m]]
    assert_allclose(nu_sq, np.linalg.det(first), rtol=1e-10, atol=1e-10)
    assert_allclose(coh, np.sum(cms[:, :m, m:] ** 2, axis=(1, 2)), rtol=1e-10, atol=1e-10)


def test_analytic_mean_uses_pair_sums():
    m = 2
    s1, s2 = 0.3, 0.1
    orth = analytic_mean_nu_sq("orthogonal", m, s1, s2)
    unit = analytic_mean_nu_sq("unitary", m, s1, s2)
    assert orth == pytest.approx(3.0 / (m + 2) + s1 / (2 * m * (m + 2)), abs=TOL)
    assert unit == pytest.approx(2.0 / (m + 1) + (s1 + s2) / (4 * m * (m + 1)), abs=TOL)
    with pytest.raises(ValueError):
        analytic_mean_nu_sq("banana", m, s1, s2)


def test_unitary_ensemble_is_more_entangled():
    m, E = 2, 8.0
    orth = ensemble_nu_sq(EnsembleConfig(m=m, E=E, n_samples=4000, seed=7, kind="orthogonal"))
    unit = ensemble_nu_sq(EnsembleConfig(m=m, E=E, n_samples=4000, seed=7, kind="unitary"))
    combined = np.hypot(orth.stderr, unit.stderr)
    assert unit.mean_nu_sq - orth.mean_nu_sq >= -2 * combined
    assert unit.analytic_mean > orth.analytic_mean


def test_ensemble_determinism_and_sample_access():
    config = EnsembleConfig(m=2, E=8.0, n_samples=300, seed=17, kind="unitary")
    a = ensemble_nu_sq(config)
    b, nu_samples, coh_samples = ensemble_nu_sq(config, return_samples=True)
    assert a.mean_nu_sq == b.mean_nu_sq
    assert a.s1_hat == b.s1_hat
    assert len(nu_samples) == 300 and len(coh_samples) == 300
    assert np.mean(nu_samples) == pytest.approx(a.mean_nu_sq, abs=0)
    assert np.all(coh_samples >= 0)


def test_different_seeds_share_no_sample():
    nu_sq = [
        ensemble_nu_sq(
            EnsembleConfig(m=2, E=8.0, n_samples=1000, seed=seed, kind="unitary"),
            return_samples=True,
        )[1]
        for seed in (0, 1)
    ]
    assert not set(nu_sq[0].tolist()) & set(nu_sq[1].tolist())


@pytest.mark.parametrize("kind", ["orthogonal", "unitary"])
def test_samples_are_a_prefix_of_longer_runs(kind):
    assert block_samples(2) < 300
    _, nu_short, coh_short = ensemble_nu_sq(
        EnsembleConfig(m=2, E=8.0, n_samples=100, seed=5, kind=kind), return_samples=True
    )
    _, nu_long, coh_long = ensemble_nu_sq(
        EnsembleConfig(m=2, E=8.0, n_samples=300, seed=5, kind=kind), return_samples=True
    )
    assert_array_equal(nu_long[:100], nu_short)
    assert_array_equal(coh_long[:100], coh_short)


def test_ensemble_config_validation():
    with pytest.raises(ValueError):
        EnsembleConfig(m=0, E=2.0, n_samples=5, seed=0, kind="unitary")
    with pytest.raises(ValueError):
        EnsembleConfig(m=1, E=1.0, n_samples=5, seed=0, kind="unitary")
    with pytest.raises(ValueError):
        EnsembleConfig(m=1, E=4.0, n_samples=0, seed=0, kind="unitary")
    with pytest.raises(ValueError):
        EnsembleConfig(m=1, E=4.0, n_samples=5, seed=0, kind="special")


def test_haar_moment_check_sample_floor(rng):
    with pytest.raises(ValueError):
        haar_moment_check(2, 500, rng)


def test_haar_moment_check_agreement(rng):
    checks = haar_moment_check(2, 5000, rng)
    assert len(checks) == 9
    for check in checks:
        assert check.n_sigma <= 5.0, check
    kinds = {c.kind for c in checks}
    assert kinds == {"orthogonal", "unitary"}


def test_haar_moment_check_mode_floor(rng):
    with pytest.raises(ValueError):
        haar_moment_check(1, 2000, rng)


def test_entropy_values():
    assert entanglement_entropy(1.0) == 0.0
    assert entanglement_entropy(1.0 + 1e-14) == 0.0
    assert entanglement_entropy(3.0) == pytest.approx(2.0 * np.log(2.0), abs=1e-12)
    with pytest.raises(ValueError):
        entanglement_entropy(0.5)


def test_entropy_monotone():
    grid = np.linspace(1.0, 8.0, 40)
    vals = [entanglement_entropy(v) for v in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
