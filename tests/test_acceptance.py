"""Release gate: ten end-to-end checks with pinned tolerances and runtimes.

Each test exercises one headline guarantee of the package, from the closed
form for the maximal position-momentum correlation at fixed trace through
the Monte-Carlo discrimination protocol.  Seeds are fixed so every run is
bit-reproducible.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from sympcoh import (
    DiscriminationConfig,
    EnsembleConfig,
    GaussianState,
    LossChannel,
    active_gate_counterexample,
    apply,
    apply_loss,
    block_orthogonal,
    coherence_discord_relation_check,
    compose,
    derive_rng,
    displacement,
    ensemble_nu_sq,
    geometric_discord,
    haar_orthogonal,
    helstrom_lower_bound_loss,
    is_classical_quantum,
    max_symplectic_coherence,
    mix_states,
    msc_canonical,
    n_thres_loss_optimal,
    numeric_max_search,
    partial_trace,
    phase_shifter,
    rotated_quadrature_variance,
    run_discrimination,
    squeezer,
    symplectic_coherence,
    td_lower_bound_gaussian,
    tensor_states,
    to_density,
    tvd_bound_ppmm,
    tvd_exact_zero_mean_normals,
    vacuum_state,
)
from conftest import haar_moment_check, random_free_cov, random_valid_cov
from test_applications import tvd_by_quadrature

SEED = 903212


def test_criterion_01_closed_form_maximum_and_search():
    start = time.perf_counter()
    pairs = [(6.0, 1), (10.0, 2), (16.0, 4)]
    for E, m in pairs:
        formula = (E - 2 * m) ** 2 / 4.0 + (E - 2 * m)
        attained = symplectic_coherence(msc_canonical(E, m).cov)
        assert attained == pytest.approx(formula, abs=1e-9)
        assert max_symplectic_coherence(E, m) == pytest.approx(formula, abs=1e-12)
        outcome = numeric_max_search(E, m, trials=10_000, seed=7)
        assert outcome.sup_c <= formula + 1e-6
        assert outcome.sup_c >= 0.999 * formula
    assert time.perf_counter() - start < 30.0


def test_criterion_02_single_mode_identity():
    start = time.perf_counter()
    for r in (0.25, 0.5, 1.0):
        gate = compose(phase_shifter(1, 1, np.pi / 4), squeezer(1, 1, r))
        state = apply(gate, vacuum_state(1))
        c = symplectic_coherence(state.cov)
        assert c == pytest.approx(np.sinh(2 * r) ** 2, abs=1e-12)
        assert c == pytest.approx(
            max_symplectic_coherence(2 * np.cosh(2 * r), 1), abs=1e-12
        )
    assert time.perf_counter() - start < 1.0


def test_criterion_03_loss_scaling():
    start = time.perf_counter()
    rng = derive_rng(SEED, 3)
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        cov = random_valid_cov(rng, m)
        eta = float(rng.uniform())
        assert symplectic_coherence(apply_loss(cov, eta)) == pytest.approx(
            eta**2 * symplectic_coherence(cov), abs=1e-12, rel=1e-12
        )
    assert time.perf_counter() - start < 5.0


def test_criterion_04_discord_relation():
    rng = derive_rng(SEED, 4)
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        cov = random_valid_cov(rng, m)
        check = coherence_discord_relation_check(cov)
        assert check.residual <= 1e-9
        assert check.discord <= 0.5 + 1e-12
    for _ in range(100):
        free = random_free_cov(rng, int(rng.integers(1, 5)))
        image = to_density(free)
        assert is_classical_quantum(image)
        assert geometric_discord(image) <= 1e-12


def test_criterion_05_monotonicity_and_counterexample():
    rng = derive_rng(SEED, 5)
    tol = 1e-9

    for _ in range(500):
        m = int(rng.integers(1, 4))
        state = GaussianState(random_valid_cov(rng, m), rng.normal(size=2 * m))
        c0 = symplectic_coherence(state.cov)
        rotated = apply(block_orthogonal(haar_orthogonal(m, rng)), state)
        assert symplectic_coherence(rotated.cov) <= c0 + tol

    for _ in range(500):
        m = int(rng.integers(1, 4))
        state = GaussianState(random_valid_cov(rng, m))
        c0 = symplectic_coherence(state.cov)
        moved = apply(displacement(rng.normal(size=2 * m)), state)
        assert symplectic_coherence(moved.cov) <= c0 + tol

    for _ in range(500):
        m = int(rng.integers(1, 3))
        state = GaussianState(random_valid_cov(rng, m))
        free = GaussianState(random_free_cov(rng, int(rng.integers(1, 3))))
        joint = tensor_states(state, free)
        assert symplectic_coherence(joint.cov) <= (
            symplectic_coherence(state.cov) + tol
        )

    for _ in range(500):
        m = int(rng.integers(2, 5))
        state = GaussianState(random_valid_cov(rng, m))
        keep = sorted(
            rng.choice(np.arange(1, m + 1), size=int(rng.integers(1, m)), replace=False)
        )
        reduced = partial_trace(state, [int(k) for k in keep])
        assert symplectic_coherence(reduced.cov) <= (
            symplectic_coherence(state.cov) + tol
        )

    for _ in range(500):
        m = int(rng.integers(1, 3))
        parts = [GaussianState(random_valid_cov(rng, m)) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        mixed = mix_states(list(zip(w, parts)))
        assert symplectic_coherence(mixed.cov) <= (
            max(symplectic_coherence(s.cov) for s in parts) + tol
        )

    witness = active_gate_counterexample()
    assert witness.coherence_after - witness.coherence_before >= 0.1


@pytest.mark.parametrize("m", [2, 4])
def test_criterion_06_haar_moments(m):
    start = time.perf_counter()
    checks = haar_moment_check(m, 100_000, derive_rng(SEED, 600 + m))
    for check in checks:
        if check.exact == 0.0:
            assert check.n_sigma <= 4.0, check
        else:
            assert abs(check.estimate - check.exact) <= 4.0 * check.stderr, check
    assert time.perf_counter() - start < 60.0


@pytest.mark.parametrize("m, E", [(2, 8.0), (3, 12.0)])
def test_criterion_07_ensemble_ordering(m, E):
    stats = {
        kind: ensemble_nu_sq(
            EnsembleConfig(m=m, E=E, n_samples=10_000, seed=SEED, kind=kind)
        )
        for kind in ("orthogonal", "unitary")
    }
    orth, unit = stats["orthogonal"], stats["unitary"]
    combined = math.hypot(orth.stderr, unit.stderr)
    assert unit.mean_nu_sq - orth.mean_nu_sq >= -2.0 * combined
    for st in (orth, unit):
        assert abs(st.mean_nu_sq - st.analytic_mean) <= 3.0 * st.stderr_diff


def test_criterion_08_discrimination_protocol():
    start = time.perf_counter()
    n = math.ceil(n_thres_loss_optimal(1, 6.0, 0.4, 0.8, 0.1))
    assert n == 7563
    config = DiscriminationConfig(
        probe=msc_canonical(6.0, 1),
        channels=(LossChannel(0.4), LossChannel(0.8)),
        delta=0.1,
        n_samples=n,
        trials=500,
        seed=SEED,
    )
    report = run_discrimination(config)
    wilson_margin = report.error_wilson_upper - report.empirical_error
    assert report.empirical_error <= 0.1 + wilson_margin
    assert report.empirical_error <= 0.1
    assert time.perf_counter() - start < 60.0


def test_criterion_09_bound_caps():
    rng = derive_rng(SEED, 9)
    for _ in range(10_000):
        m = int(rng.integers(1, 5))
        E = 2 * m + float(rng.uniform(0.0, 40.0))
        c = float(rng.uniform(0.0, max_symplectic_coherence(E, m) + 1e-12))
        eta = float(rng.uniform())
        val = helstrom_lower_bound_loss(E, m, eta, c)
        assert 0.5 <= val <= 0.5 + 1.0 / 400.0
        td = td_lower_bound_gaussian(
            E,
            2 * m + float(rng.uniform(0.0, 40.0)),
            c,
            float(rng.uniform(0.0, c + 1.0)),
            float(rng.uniform(0.0, 50.0)),
            m,
        )
        assert 0.0 <= td <= 1.0 / 200.0


def test_criterion_10_tvd_sanity():
    rng = derive_rng(SEED, 10)
    for _ in range(100):
        v1 = float(rng.uniform(0.1, 8.0))
        v2 = float(rng.uniform(0.1, 8.0))
        if abs(v1 - v2) < 1e-6:
            v2 += 1.0
        assert tvd_exact_zero_mean_normals(v1, v2) == pytest.approx(
            tvd_by_quadrature(v1, v2), abs=1e-10
        )

    # Sweep of single-mode scenario pairs identical on the diagonal blocks
    # and opposite in the cross block, read out at a random quadrature angle.
    checked = 0
    for _ in range(500):
        r = float(rng.uniform(0.05, 1.5))
        alpha = float(rng.uniform(0.05, np.pi / 2 - 0.05))
        theta = float(rng.uniform(0.05, np.pi / 2 - 0.05))
        squeezed = apply(squeezer(1, 1, r), vacuum_state(1))
        plus = apply(phase_shifter(1, 1, alpha), squeezed).cov
        minus = apply(phase_shifter(1, 1, -alpha), squeezed).cov
        v1 = rotated_quadrature_variance(plus, theta)
        v2 = rotated_quadrature_variance(minus, theta)
        if abs(v1 - v2) < 1e-9:
            continue
        bound = tvd_bound_ppmm(
            plus, plus.matrix[0, 1], minus.matrix[0, 1], theta, inflated=True
        )
        assert bound >= tvd_exact_zero_mean_normals(v1, v2) - 1e-12
        checked += 1
    assert checked > 400
