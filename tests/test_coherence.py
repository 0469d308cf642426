"""The correlation measure: values, distance form, extremes, and robustness."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sympcoh import (
    CovMat,
    DimensionError,
    GaussianState,
    active_gate_counterexample,
    apply,
    apply_loss,
    block_orthogonal,
    closest_free_cm,
    coherence_report,
    compose,
    displacement,
    haar_orthogonal,
    is_free,
    is_valid,
    is_pure,
    max_symplectic_coherence,
    mix_states,
    mixed_msc_check,
    msc_canonical,
    msc_from_spec,
    msc_membership_conditions,
    msc_spec,
    msc_squeezing,
    numeric_max_search,
    partial_trace,
    perturbation_bound,
    phase_shifter,
    squeezer,
    symplectic_coherence,
    tensor_states,
    trace_distance_cov_bound,
    vacuum_state,
)
from sympcoh import coherence
from sympcoh.coherence import (
    MscSpec,
    _gram_form,
    _phase_argmax,
    _phase_coefficients,
)
from sympcoh.symplectic_ops import (
    pure_cm,
    pure_param_blocks,
    pure_xp_block,
    spectrum_from_weights,
)
from conftest import random_free_cov, random_valid_cov

TOL = 1e-9
EXACT = 1e-12


def rotated_squeezed(r: float, theta: float) -> GaussianState:
    gate = compose(phase_shifter(1, 1, theta), squeezer(1, 1, r))
    return apply(gate, vacuum_state(1))


def test_vacuum_has_zero_coherence():
    assert symplectic_coherence(vacuum_state(3).cov) == 0.0


def test_single_mode_closed_form_value():
    state = rotated_squeezed(0.5, np.pi / 4)
    assert symplectic_coherence(state.cov) == pytest.approx(np.sinh(1.0) ** 2, abs=EXACT)


def test_tensor_with_vacuum_preserves_value():
    state = rotated_squeezed(0.5, np.pi / 4)
    extended = tensor_states(state, vacuum_state(1))
    assert symplectic_coherence(extended.cov) == pytest.approx(
        np.sinh(1.0) ** 2, abs=EXACT
    )


def test_additivity_under_tensor(rng):
    for _ in range(10):
        a = random_valid_cov(rng, 2)
        b = random_valid_cov(rng, 1)
        joint = tensor_states(GaussianState(a), GaussianState(b))
        assert symplectic_coherence(joint.cov) == pytest.approx(
            symplectic_coherence(a) + symplectic_coherence(b), abs=TOL
        )


def test_closest_free_of_free_input_is_itself(rng):
    cov = random_free_cov(rng, 2)
    assert_allclose(closest_free_cm(cov).matrix, cov.matrix, atol=0)


def test_closest_free_of_rotated_squeezed():
    state = rotated_squeezed(0.5, np.pi / 4)
    free = closest_free_cm(state.cov)
    assert_allclose(free.matrix, np.diag([np.cosh(1.0), np.cosh(1.0)]), atol=EXACT)
    report = coherence_report(state.cov)
    assert report.hs_distance_sq_to_free == pytest.approx(2 * np.sinh(1.0) ** 2, abs=TOL)


def test_closest_free_is_always_valid(rng):
    for _ in range(100):
        cov = random_valid_cov(rng, int(rng.integers(1, 4)))
        assert is_valid(closest_free_cm(cov))


def test_distance_interpretation(rng):
    for _ in range(100):
        cov = random_valid_cov(rng, int(rng.integers(1, 4)))
        report = coherence_report(cov)
        assert report.hs_distance_sq_to_free == pytest.approx(
            2 * report.coherence, abs=TOL
        )


def test_distance_to_arbitrary_free_never_smaller(rng):
    for _ in range(100):
        m = int(rng.integers(1, 4))
        cov = random_valid_cov(rng, m)
        free = random_free_cov(rng, m)
        dist_sq = 0.5 * float(np.sum((cov.matrix - free.matrix) ** 2))
        assert dist_sq >= symplectic_coherence(cov) - TOL


def test_is_free_cases():
    assert is_free(vacuum_state(2).cov)
    assert is_free(rotated_squeezed(0.5, 0.0).cov)
    assert not is_free(msc_canonical(6, 1).cov)


def test_faithfulness_exact():
    free = CovMat(np.diag([2.0, 3.0, 1.0, 0.7]))
    assert is_free(free)
    assert symplectic_coherence(free) == 0.0


@pytest.mark.parametrize("E, m, expected", [(2, 1, 0.0), (6, 1, 8.0), (10, 2, 15.0)])
def test_max_value_formula(E, m, expected):
    assert max_symplectic_coherence(E, m) == pytest.approx(expected, abs=EXACT)


def test_max_value_domain_error():
    with pytest.raises(ValueError):
        max_symplectic_coherence(3.0, 2)


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("extra", [0.0, 1.0, 10.0])
def test_canonical_state_saturates_maximum(m, extra):
    E = 2 * m + extra
    state = msc_canonical(E, m)
    assert is_pure(state.cov)
    assert state.cov.trace == pytest.approx(E, abs=TOL)
    assert symplectic_coherence(state.cov) == pytest.approx(
        max_symplectic_coherence(E, m), abs=TOL
    )


def test_canonical_state_at_minimum_trace_is_vacuum():
    assert_allclose(msc_canonical(4, 2).cov.matrix, np.eye(4), atol=EXACT)


def test_canonical_state_rejects_small_trace():
    with pytest.raises(ValueError):
        msc_canonical(1.9, 1)


def test_squeezing_solves_trace_equation():
    r = msc_squeezing(6.0, 1)
    assert np.exp(2 * r) + np.exp(-2 * r) == pytest.approx(6.0, abs=EXACT)
    r2 = msc_squeezing(10.0, 2)
    assert np.exp(2 * r2) + np.exp(-2 * r2) == pytest.approx(8.0, abs=EXACT)


def test_spec_builder_reproduces_canonical_state():
    for E, m in [(6.0, 1), (9.0, 3)]:
        spec = msc_spec(E, m)
        built = msc_from_spec(spec)
        assert_allclose(built.cov.matrix, msc_canonical(E, m).cov.matrix, atol=TOL)
        report = msc_membership_conditions(spec.o_inner, spec.theta)
        assert report.is_member


def test_spec_derives_m_and_r_and_builds_its_trace(rng):
    for E, m in [(10.0, 2), (6.0, 1), (1e6, 4)]:
        theta = rng.uniform(-np.pi, np.pi, size=m)
        spec = MscSpec(E, theta, haar_orthogonal(m, rng), haar_orthogonal(m, rng))
        assert spec.m == m
        assert spec.r == msc_squeezing(E, m)
        trace = msc_from_spec(spec).cov.trace
        assert abs(trace - E) <= 1e-12 * E


def test_spec_rejects_inconsistent_parameters():
    theta = np.array([np.pi / 4, 0.0])
    with pytest.raises(ValueError, match="o_inner is not orthogonal"):
        MscSpec(8.0, theta, np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2))
    with pytest.raises(ValueError, match="o_outer is not orthogonal"):
        MscSpec(8.0, theta, np.eye(2), 2.0 * np.eye(2))
    for o_inner, o_outer in [(np.eye(3), np.eye(2)), (np.eye(2), np.eye(1)), (np.eye(2), np.ones(2))]:
        with pytest.raises(DimensionError):
            MscSpec(8.0, theta, o_inner, o_outer)
    with pytest.raises(DimensionError):
        MscSpec(8.0, np.zeros((2, 2)), np.eye(2), np.eye(2))
    with pytest.raises(ValueError, match="trace"):
        MscSpec(3.0, theta, np.eye(2), np.eye(2))


def test_membership_single_mode():
    assert msc_membership_conditions(np.eye(1), [np.pi / 4]).is_member
    report = msc_membership_conditions(np.eye(1), [0.0])
    assert not report.is_member
    assert report.max_residual == pytest.approx(1.0, abs=EXACT)


def test_membership_rejects_non_orthogonal():
    with pytest.raises(ValueError):
        msc_membership_conditions(np.array([[1.0, 1.0], [0.0, 1.0]]), [0.0, 0.0])


_SLANTED = np.eye(2)
_SLANTED[0, 1] = 3e-10


# |O O^T - I|_F is 4.2e-10 for the slanted identity (within SYMPLECTIC_TOL) and
# 1.1e-5 for the scaled one; np.allclose(atol=1e-10) judged both the other way.
@pytest.mark.parametrize(
    "o, orthogonal", [(_SLANTED, True), ((1.0 + 4e-6) * np.eye(2), False)], ids=["slanted", "scaled"]
)
def test_membership_and_block_orthogonal_share_one_orthogonality_verdict(o, orthogonal):
    def accepted(build) -> bool:
        try:
            build()
        except ValueError:  # GateError is a ValueError
            return False
        return True

    assert accepted(lambda: block_orthogonal(o)) == orthogonal
    assert accepted(lambda: msc_membership_conditions(o, [0.0, 0.0])) == orthogonal


def test_membership_two_mode_equal_angles_attains_maximum():
    # Oracle: build the state for theta=(pi/4, pi/4), O=I at trace E and
    # compare its coherence against the closed-form maximum directly.
    E, m = 8.0, 2
    theta = np.array([np.pi / 4, np.pi / 4])
    report = msc_membership_conditions(np.eye(m), theta)
    spec = MscSpec(E=E, theta=theta, o_inner=np.eye(m), o_outer=np.eye(m))
    built = msc_from_spec(spec)
    attained = symplectic_coherence(built.cov)
    assert built.cov.trace == pytest.approx(E, abs=TOL)
    assert attained == pytest.approx(max_symplectic_coherence(E, m), abs=TOL)
    assert report.is_member


def test_membership_verdict_matches_attained_coherence(rng):
    # Both directions on a two-mode sweep: member specs attain the maximum,
    # non-member specs fall short (independent construction as the oracle).
    E, m = 8.0, 2
    cases = [
        (np.eye(2), np.array([np.pi / 4, 3 * np.pi / 4]), None),
        (np.eye(2), np.array([np.pi / 4, 0.0]), None),
        (np.eye(2), np.array([np.pi / 3, np.pi / 4]), None),
    ]
    rot = lambda phi: np.array(
        [[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]]
    )
    cases.append((rot(0.3), np.array([np.pi / 4, 3 * np.pi / 4]), None))
    cases.append((rot(np.pi / 2), np.array([np.pi / 4, 3 * np.pi / 4]), None))
    c_max = max_symplectic_coherence(E, m)
    for o, theta, _ in cases:
        member = msc_membership_conditions(o, theta).is_member
        spec = MscSpec(E=E, theta=theta, o_inner=o, o_outer=np.eye(m))
        attained = symplectic_coherence(msc_from_spec(spec).cov)
        if member:
            assert attained == pytest.approx(c_max, abs=1e-8)
        else:
            assert attained < c_max - 1e-6


def test_membership_invariant_under_outer_orthogonal(rng):
    # The gate applied after the phase shifters never changes the value.
    E, m = 8.0, 2
    theta = np.array([np.pi / 4, np.pi / 4])
    o_outer = haar_orthogonal(m, rng)
    spec = MscSpec(E=E, theta=theta, o_inner=np.eye(m), o_outer=o_outer)
    attained = symplectic_coherence(msc_from_spec(spec).cov)
    assert attained == pytest.approx(max_symplectic_coherence(E, m), abs=TOL)


def test_mixed_decomposition_check():
    msc = msc_canonical(6, 1).cov
    ok, reasons = mixed_msc_check(msc, msc, msc)
    assert ok and not reasons

    flipped = apply(phase_shifter(1, 1, np.pi / 2), GaussianState(msc)).cov
    avg = CovMat(0.5 * (msc.matrix + flipped.matrix))
    ok, reasons = mixed_msc_check(avg, msc, flipped)
    assert not ok
    assert any("position-momentum" in r for r in reasons)

    thermal = CovMat(2.0 * np.eye(2))
    ok, reasons = mixed_msc_check(msc, msc, thermal)
    assert not ok
    assert any("pure" in r for r in reasons)

    ok, reasons = mixed_msc_check(msc, msc, flipped)
    assert not ok
    assert any("average" in r for r in reasons)


def test_perturbation_bound_values():
    assert perturbation_bound(1.0, 2.0, 3.0, 0.0) == 0.0
    assert perturbation_bound(0.0, 0.0, 1.0, 1.0) == pytest.approx(800.0, abs=EXACT)
    assert perturbation_bound(1.0, 1.0, 1.0, 0.01) == pytest.approx(
        8.0 + 4.0 * np.sqrt(2.0), abs=EXACT
    )
    with pytest.raises(ValueError):
        perturbation_bound(-1.0, 0.0, 1.0, 0.1)


@settings(max_examples=60, deadline=None)
@given(
    c1=st.floats(0, 50),
    c2=st.floats(0, 50),
    E=st.floats(0, 100),
    eps=st.floats(0, 1),
    bump=st.floats(0, 5),
)
def test_perturbation_bound_monotone(c1, c2, E, eps, bump):
    base = perturbation_bound(c1, c2, E, eps)
    assert perturbation_bound(c1 + bump, c2, E, eps) >= base
    assert perturbation_bound(c1, c2 + bump, E, eps) >= base
    assert perturbation_bound(c1, c2, E + bump, eps) >= base
    assert perturbation_bound(c1, c2, E, eps + bump) >= base


def test_trace_distance_cov_bound_values():
    assert trace_distance_cov_bound(5.0, 2, 0.0) == 0.0
    assert trace_distance_cov_bound(1.0, 1, 1.0) == pytest.approx(40.0, abs=EXACT)
    assert trace_distance_cov_bound(2.0, 4, 0.25) == pytest.approx(80.0, abs=EXACT)


# ---------------------------------------------------------------------------
# Behaviour under operations that cannot create correlations
# ---------------------------------------------------------------------------


def test_invariance_under_block_orthogonal_and_displacement(rng):
    for _ in range(50):
        m = int(rng.integers(1, 4))
        state = GaussianState(random_valid_cov(rng, m), rng.normal(size=2 * m))
        c0 = symplectic_coherence(state.cov)
        rotated = apply(block_orthogonal(haar_orthogonal(m, rng)), state)
        displaced = apply(displacement(rng.normal(size=2 * m)), state)
        assert symplectic_coherence(rotated.cov) == pytest.approx(c0, abs=TOL)
        assert symplectic_coherence(displaced.cov) == pytest.approx(c0, abs=TOL)


def test_nonincreasing_under_partial_trace(rng):
    for _ in range(50):
        state = GaussianState(random_valid_cov(rng, 3))
        c0 = symplectic_coherence(state.cov)
        reduced = partial_trace(state, [1, 3])
        assert symplectic_coherence(reduced.cov) <= c0 + TOL


def test_zero_mean_mixture_bounded_by_components(rng):
    for _ in range(50):
        m = int(rng.integers(1, 3))
        comps = [GaussianState(random_valid_cov(rng, m)) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        mixed = mix_states(list(zip(w, comps)))
        assert symplectic_coherence(mixed.cov) <= (
            max(symplectic_coherence(s.cov) for s in comps) + TOL
        )


def test_displaced_mixture_regression():
    # Equal mixture of vacuum and a coherent state with first moments (a, b)
    # picks up coherence a^2 b^2 / 16 from the moment bookkeeping alone.
    a, b = 1.3, -0.7
    mixed = mix_states(
        [
            (0.5, vacuum_state(1)),
            (0.5, GaussianState(CovMat(np.eye(2)), [a, b])),
        ]
    )
    assert symplectic_coherence(mixed.cov) == pytest.approx(
        a**2 * b**2 / 16.0, abs=EXACT
    )


def test_active_gate_counterexample_increases_coherence():
    witness = active_gate_counterexample()
    assert is_valid(witness.cov)
    assert witness.coherence_after > witness.coherence_before + 0.1
    assert witness.coherence_before == pytest.approx(1.0, abs=EXACT)
    assert witness.coherence_after == pytest.approx(4.0, abs=EXACT)


def test_active_gate_preserves_free_set(rng):
    witness = active_gate_counterexample()
    s = witness.gate.S
    for _ in range(20):
        free = random_free_cov(rng, 2)
        moved = s @ free.matrix @ s.T
        assert np.max(np.abs(moved[:2, 2:])) < TOL


# ---------------------------------------------------------------------------
# Randomized search for the maximum
# ---------------------------------------------------------------------------


def test_search_single_mode_approaches_maximum():
    outcome = numeric_max_search(6.0, 1, trials=100, seed=5)
    assert outcome.sup_c <= 8.0 + 1e-6
    assert outcome.sup_c >= 7.9


def test_search_trivial_trace_budget():
    assert numeric_max_search(2.0, 1, trials=10, seed=0).sup_c == 0.0
    assert numeric_max_search(4.0, 2, trials=10, seed=0).sup_c == 0.0


def test_search_sampled_maximum_is_nondecreasing_in_trials():
    small = numeric_max_search(10.0, 2, trials=40, seed=3)
    large = numeric_max_search(10.0, 2, trials=120, seed=3)
    assert large.argmax["sample_coherence"] >= small.argmax["sample_coherence"]
    assert large.sup_c >= large.argmax["sample_coherence"]


def test_search_never_beats_closed_form(rng):
    for m, E in [(1, 4.0), (2, 7.5), (3, 9.0)]:
        outcome = numeric_max_search(E, m, trials=60, seed=int(rng.integers(1 << 30)))
        assert outcome.sup_c <= max_symplectic_coherence(E, m) + 1e-6


def qp_norm_sq(v: np.ndarray) -> np.ndarray:
    """Squared norm of the position-momentum blocks of a (..., 2m, 2m) stack."""
    m = v.shape[-1] // 2
    return np.einsum("...ij,...ij->...", v[..., :m, m:], v[..., :m, m:])


def gram_coherence(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """``a^T H a`` with ``H = _gram_form(x, y)`` and ``a = (d - 1, 1/d - 1)``.

    ``1/d - 1`` is formed as ``-(d - 1)/d``, which does not cancel near d = 1.
    """
    alpha = d - 1.0
    a = np.concatenate([alpha, -alpha / d], axis=-1)
    return np.einsum("...i,...i->...", (a[..., None, :] @ _gram_form(x, y))[..., 0, :], a)


@pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
def test_gram_form_matches_the_covariance_blocks(m):
    # Near the vacuum the covariance blocks cancel down to ~sqrt(E - 2m) and
    # lose digits (the shifted form does not), so the two agree less closely.
    for E, rel in [
        (2 * m + 1e-9, 1e-9),
        (2 * m + 1e-6, 1e-9),
        (4 * m + 8, 1e-12),
        (1e3, 1e-12),
        (1e8, 1e-12),
    ]:
        for _, x, y, d in pure_param_blocks(11, 64, E, m, False):
            assert_allclose(
                gram_coherence(x, y, d), qp_norm_sq(pure_cm(x, y, d)), rtol=rel, atol=0
            )
        _, x, y, d = next(pure_param_blocks(11, 64, E, m, True))
        assert not np.any(y)
        assert np.all(gram_coherence(x, y, d) == 0.0)


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_search_argmax_reproduces_its_value(m):
    E = 4.0 * m + 8.0
    for seed in range(5):
        outcome = numeric_max_search(E, m, trials=200, seed=seed)
        where = outcome.argmax
        for start, x, y, _ in pure_param_blocks(seed, 200, E, m, False):
            if start <= where["trial"] < start + len(x):
                u = x[where["trial"] - start] + 1j * y[where["trial"] - start]
                break
        u = u * np.exp(1j * np.asarray(where["theta"]))
        d = spectrum_from_weights(E, np.asarray(where["weights"]))
        value = symplectic_coherence(CovMat(pure_cm(u.real, u.imag, d)))
        assert value == pytest.approx(where["refined_coherence"], rel=1e-12, abs=0)
        assert outcome.sup_c == max(where["sample_coherence"], where["refined_coherence"])


@pytest.mark.parametrize(
    "E, m, trials, seed", [(1e6, 2, 60, 4), (16.0, 2, 200, 3), (16.0, 4, 200, 7), (40.0, 8, 200, 0)]
)
def test_search_weights_sum_to_one(E, m, trials, seed):
    # Rescaling the other weights by their own sum keeps the total at 1 to
    # rounding; taking that sum as the total minus weight i cancelled near 1.
    weights = np.asarray(numeric_max_search(E, m, trials, seed).argmax["weights"])
    assert abs(weights.sum() - 1.0) <= 2 * m * np.finfo(float).eps


@pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
def test_xp_block_matches_the_covariance_blocks(m):
    for E in (2 * m + 1e-9, 2 * m + 1e-6, 4 * m + 8, 1e3, 1e8):
        for _, x, y, d in pure_param_blocks(11, 64, E, m, False):
            alpha = d - 1.0
            v = pure_xp_block(x, y, alpha, -alpha / d)
            assert_allclose(v, pure_cm(x, y, d)[..., :m, m:], rtol=0, atol=1e-12 * E)


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_phase_move_closed_form_is_exact(m):
    phis = np.linspace(-np.pi, np.pi, 16, endpoint=False)
    grid = np.linspace(-np.pi, np.pi, 720, endpoint=False)
    for E in (2 * m + 1e-6, 4 * m + 8, 1e8):
        _, xs, ys, ds = next(pure_param_blocks(17, 3, E, m, False))
        for x, y, d in zip(xs, ys, ds):
            u = x + 1j * y
            v = pure_cm(x, y, d)[:m, m:]
            c0 = float(np.sum(v * v))
            sigma = (d - 1.0 / d) / 2.0
            for i in range(m):
                c1, c2 = _phase_coefficients(v, u[:, i], float(sigma[i]))

                def closed(phi):
                    z = np.exp(1j * phi)
                    return c0 + 2.0 * (c1 * (z - 1.0) + c2 * (z * z - 1.0)).real

                # Column i turned by e^{i phi/2}, built and measured explicitly.
                turned = np.repeat(u[None], len(phis), axis=0)
                turned[:, :, i] *= np.exp(0.5j * phis)[:, None]
                spectra = np.repeat(d[None], len(phis), axis=0)
                explicit = qp_norm_sq(pure_cm(turned.real, turned.imag, spectra))
                # c(phi) is c_0 plus terms of the size of c_0, so its error
                # scales with the state's coherence, not with each c(phi).
                scale = max(1.0, float(explicit.max()))
                assert_allclose(closed(phis), explicit, rtol=0, atol=1e-12 * scale)
                z = _phase_argmax(c1, c2)
                assert abs(z) == pytest.approx(1.0, abs=1e-15)
                best = closed(np.angle(z))
                assert best >= closed(grid).max() * (1.0 - 1e-12)


def test_search_builds_one_form_per_sweep(monkeypatch):
    # Sampling scores V_xp directly and the phase moves work on the block, so
    # only the weight moves use the quadratic form, one per sweep.
    shapes = []
    gram_form = coherence._gram_form

    def counting(x, y):
        shapes.append(x.shape)
        return gram_form(x, y)

    monkeypatch.setattr(coherence, "_gram_form", counting)
    numeric_max_search(24.0, 4, trials=300, seed=1)
    assert 1 <= len(shapes) <= coherence._REFINE_PASSES
    assert all(shape == (4, 4) for shape in shapes)


@pytest.mark.parametrize("m, bound", [(2, 0.0100), (4, 0.0445), (8, 0.0460)])
def test_search_mean_gap_and_phase_range(m, bound):
    E = 4.0 * m + 8.0
    c_max = max_symplectic_coherence(E, m)
    gaps = []
    for seed in range(10):
        outcome = numeric_max_search(E, m, trials=200, seed=seed)
        assert outcome.sup_c <= c_max * (1.0 + 1e-12)
        gaps.append((c_max - outcome.sup_c) / c_max)
        theta = np.asarray(outcome.argmax["theta"])
        assert np.all((theta > -np.pi / 2) & (theta <= np.pi / 2))
    assert np.mean(gaps) <= bound


def test_search_input_validation():
    with pytest.raises(ValueError):
        numeric_max_search(6.0, 1, trials=0, seed=0)
    with pytest.raises(ValueError):
        numeric_max_search(1.0, 1, trials=5, seed=0)


def test_loss_scaling_of_measure(rng):
    for _ in range(30):
        m = int(rng.integers(1, 5))
        cov = random_valid_cov(rng, m)
        eta = float(rng.uniform())
        assert symplectic_coherence(apply_loss(cov, eta)) == pytest.approx(
            eta**2 * symplectic_coherence(cov), abs=1e-12, rel=1e-12
        )


def test_norm_inequality_chain(rng):
    # Frobenius <= trace norm <= sqrt(m) * Frobenius for the qp block.
    for _ in range(20):
        m = int(rng.integers(1, 4))
        cov = random_valid_cov(rng, m)
        block = cov.matrix[:m, m:]
        fro = np.linalg.norm(block)
        nuc = np.linalg.norm(block, "nuc")
        assert fro <= nuc + TOL
        assert nuc <= np.sqrt(m) * fro + TOL
