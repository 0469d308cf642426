"""The correlation measure: values, distance form, extremes, and robustness."""

from __future__ import annotations

import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sympcoh import (
    CovMat,
    DimensionError,
    GaussianState,
    NumericError,
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
    _REFINE_PASSES,
    MscSpec,
    _moduli,
    _pair_move,
    _vertex_coherences,
)
from sympcoh.symplectic_ops import (
    block_samples,
    pure_cm,
    pure_xp_block,
    spectrum_from_weights,
)
from sympcoh.applications import qfi_displacement
from sympcoh.gaussian_core import NumericError, rounding_floor, validate
from conftest import (
    first_mode_block_exactly_valid, pure_param_blocks, random_free_cov, random_valid_cov, record_spectra,
    uniform_rows_after_spectra,
)

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


def test_coherence_past_the_float_range_raises_naming_it():
    # Under pytest an overflow warning is an error, so each call is also warning-free.
    cov = CovMat([[1e200, 5e199], [5e199, 1e200]])
    assert is_valid(cov)
    for measure in (symplectic_coherence, coherence_report):
        with pytest.raises(NumericError, match=r"symplectic coherence .* overflows float64"):
            measure(cov)


def test_distance_past_the_float_range_raises_naming_it():
    # sum V_xp^2 = 1.44e308 is finite, the distance 2 * sum V_xp^2 is not.
    cov = CovMat([[2e154, 1.2e154], [1.2e154, 2e154]])
    assert is_valid(cov)
    assert symplectic_coherence(cov) == 1.2e154 * 1.2e154
    with pytest.raises(NumericError, match="squared distance to the free set overflows float64"):
        coherence_report(cov)


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


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16])
def test_canonical_writer_stores_an_exactly_valid_matrix(m):
    # 2m, just above it, and 300 traces up to 1e150: the stored first-mode
    # block is valid in rational arithmetic, the rest is exactly the
    # identity, and V_0m is -sinh 2r moved toward zero by a few ulps at most.
    traces = [2.0 * m, 2.0 * m + 1e-9, *np.geomspace(2.0 * m + 1e-6, 1e150, 300)]
    for E in traces:
        v = msc_canonical(E, m).cov.matrix
        assert first_mode_block_exactly_valid(v), E
        r = msc_squeezing(E, m)
        assert v[0, 0] == v[m, m] == np.cosh(2.0 * r)
        unrounded = -np.sinh(2.0 * r)
        assert unrounded <= v[0, m] <= 0.0
        assert v[0, m] - unrounded <= 4 * np.spacing(abs(unrounded)), E


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16])
def test_validate_accepts_every_exactly_valid_canonical_state(m):
    # 2m, just above it, and 100 traces up to 1e12: each stored matrix is
    # exactly valid, so the verdict must accept it at every trace.  Where its
    # Cholesky succeeds it is also pure and its own maximal decomposition.
    traces = [2.0 * m, 2.0 * m + 1e-9, *np.geomspace(2.0 * m + 1e-6, 1e12, 100)]
    for E in traces:
        cov = msc_canonical(E, m).cov
        assert first_mode_block_exactly_valid(cov.matrix), E
        assert validate(cov) == [], E
        try:
            pure = is_pure(cov)
        except NumericError:  # not positive definite in float64: from E of about 1e9
            assert E > 1e8, E
            continue
        assert pure, E
        assert mixed_msc_check(cov, cov, cov) == (True, []), E
    qfi = qfi_displacement(msc_canonical(1e5, 1).cov)
    assert qfi.exact


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16])
def test_every_canonical_state_is_pure_where_its_cholesky_fails_too(m):
    # From a trace of about 1/sqrt(eps) the smallest eigenvalue of a pure
    # state (about 1/Tr V) is below its rounding and its Cholesky can fail;
    # purity reads eigvalsh(S + i Omega) alone, which exists at every trace.
    for E in np.geomspace(2.0 * m + 1.0, 1e12, 60):
        cov = msc_canonical(E, m).cov
        assert is_pure(cov), E
        assert mixed_msc_check(cov, cov, cov) == (True, []), E


@pytest.mark.parametrize("m", [1, 2, 4, 8])
def test_mixed_check_accepts_a_decomposition_computed_two_ways(m, rng):
    # The same maximal state by two computations, rotated by one Haar orthogonal:
    # the gaps between them are rounding, within the floors of what they difference.
    for E in np.geomspace(2.0 * m + 1.0, 1e8, 12):
        o = haar_orthogonal(m, rng)
        theta = np.zeros(m)
        theta[0] = np.pi / 4
        first = apply(block_orthogonal(o), msc_canonical(E, m)).cov
        second = msc_from_spec(MscSpec(E, theta, np.eye(m), o)).cov
        mixed = mix_states([(0.5, GaussianState(first)), (0.5, GaussianState(second))]).cov
        assert mixed_msc_check(mixed, first, second) == (True, []), E


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
        theta = np.zeros(m)
        theta[0] = np.pi / 4
        spec = MscSpec(E, theta, np.eye(m), np.eye(m))
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
_SLANTED[0, 1] = 3e-15


# |O O^T - I|_F is 4.2e-15 for the slanted identity, within its rounding floor
# rounding_floor(2, |O|_F^2) = 16 * eps * 2 = 7.1e-15, and 1.1e-5 for the scaled one.
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


def test_mixed_decomposition_check_near_the_float_range_names_the_budget():
    e = CovMat([[1e308, 0.0], [0.0, 1e-308]])
    budget = (
        "first component has no maximal coherence: covariance trace must be >= 2m "
        "with E^2 finite, got E=1e+308, m=1"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mixed_msc_check(e, e, e) == (False, [budget])
        # The average's gap to the covariance, 2e308, is past the float range.
        far = CovMat([[-1e308, 0.0], [0.0, 1.0]])
        ok, reasons = mixed_msc_check(far, e, e)
    assert (ok, reasons[0], reasons[-1]) == (
        False,
        "covariance is not the equal-weight average of the components",
        budget,
    )


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


def test_active_gate_counterexample_is_the_apply_output(monkeypatch):
    outputs = []

    def spy(gate, state):
        outputs.append(apply(gate, state))
        return outputs[-1]

    monkeypatch.setattr(coherence, "apply", spy)
    witness = active_gate_counterexample()
    assert len(outputs) == 1
    assert witness.coherence_after == symplectic_coherence(outputs[0].cov)


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


def norm_sq(v: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a (..., n, n) stack."""
    return np.einsum("...ij,...ij->...", v, v)


def qp_norm_sq(v: np.ndarray) -> np.ndarray:
    """Squared norm of the position-momentum blocks of a (..., 2m, 2m) stack."""
    m = v.shape[-1] // 2
    return norm_sq(v[..., :m, m:])


def form_coherence(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Coherence of pure states of one passive unitary U, for stacked moduli ``v = (gamma, sigma)`` (..., 2m).

    The identity of ``numeric_max_search``, ``1/2 [sum(gamma^2 + sigma^2) -
    gamma^T |H|^2 gamma - sigma^T Re(H o H) sigma]`` for ``H = U^T U``, as
    ``1/2 v^T F v`` with the block-diagonal form ``F = I - diag(|H|^2, Re(H o
    H))``.
    """
    gram = u.T @ u
    m = len(gram)
    re_sq, im_sq = gram.real * gram.real, gram.imag * gram.imag
    form = np.eye(2 * m)
    form[:m, :m] -= re_sq + im_sq
    form[m:, m:] -= re_sq - im_sq
    return 0.5 * np.einsum("...i,...i->...", v @ form, v)


def identity_coherence(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The coherence of each sample by the identity in ``H = U^T U``.

    ``gamma`` and ``sigma`` are formed from ``d - 1`` and ``1/d - 1 = -(d - 1)/d``,
    which do not cancel near d = 1.
    """
    alpha = d - 1.0
    beta = -alpha / d
    moduli = np.concatenate([0.5 * (alpha + beta), 0.5 * (alpha - beta)], axis=-1)
    return np.array([form_coherence(xk + 1j * yk, v) for xk, yk, v in zip(x, y, moduli)])


@pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
def test_gram_identity_matches_the_covariance_blocks(m):
    # The identity is a difference of terms of the size of c_max, so it holds
    # to a multiple of c_max, not of each value (an m = 1 sample of small c
    # differs by up to ~1e-10 of its own).  pure_xp_block's shifted blocks
    # meet that bound at every trace; near the vacuum pure_cm's blocks cancel
    # down to ~sqrt(E - 2m) and lose digits, so there they keep 1e-9 relative.
    for E in (2 * m + 1e-9, 2 * m + 1e-6, 4 * m + 8, 1e3, 1e8, 1e12):
        bound = 1e-14 * max_symplectic_coherence(E, m)
        for _, x, y, d in pure_param_blocks(11, 64, E, m, False):
            got = identity_coherence(x, y, d)
            alpha = d - 1.0
            shifted = norm_sq(pure_xp_block(x, y, alpha, -alpha / d))
            assert_allclose(got, shifted, rtol=0, atol=bound)
            full = qp_norm_sq(pure_cm(x, y, d))
            if E >= 4 * m + 8:
                assert_allclose(got, full, rtol=0, atol=bound)
            else:
                assert_allclose(got, full, rtol=1e-9, atol=0)


SEARCH_TRACES = {
    "4m+8": lambda m: 4.0 * m + 8.0,
    "2m+1e-6": lambda m: 2.0 * m + 1e-6,
    "1e8": lambda m: 1e8,
    "1e12": lambda m: 1e12,
}


@pytest.mark.parametrize("trace", list(SEARCH_TRACES))
@pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
def test_search_argmax_reproduces_its_value(m, trace):
    # The argmax alone rebuilds the refined state: U = X + iY with its phases
    # and the spectrum of its weights.  The reference is the shifted block of
    # pure_xp_block: the covariance blocks of pure_cm lose about 8e-13 of the
    # value at large trace.
    E = SEARCH_TRACES[trace](m)
    for seed in range(5):
        outcome = numeric_max_search(E, m, trials=200, seed=seed)
        where = outcome.argmax
        x, y = np.asarray(where["x"]), np.asarray(where["y"])
        assert x.shape == y.shape == (m, m)
        d = spectrum_from_weights(E, np.asarray(where["weights"]))
        alpha = d - 1.0
        value = float(norm_sq(pure_xp_block(x, y, alpha, -alpha / d)))
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
        _, x, y, d = next(pure_param_blocks(11, 64, E, m, True))
        assert not np.any(y)
        alpha = d - 1.0
        assert np.all(pure_xp_block(x, y, alpha, -alpha / d) == 0.0)


def spectrum_bound(d: np.ndarray) -> np.ndarray:
    """``B = sum_k sigma_k^2``, with ``sigma = (alpha - beta)/2`` from ``alpha = d - 1``, ``beta = 1/d - 1``."""
    alpha = d - 1.0
    sigma = 0.5 * (alpha + alpha / d)
    return np.einsum("...i,...i->...", sigma, sigma)


def panel_traces(m: int) -> tuple[float, ...]:
    """Traces from just above the vacuum's 2m to the largest whose square is finite."""
    return (2.0 * m + 1e-9, 2.0 * m + 1e-6, 4.0 * m + 8.0, 1e3, 1e8, 1e12, 1.3e154)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16])
def test_spectrum_bound_holds_on_haar_samples(m):
    # c <= sum_k sigma_k^2 at every passive U, to the rounding floor; with the
    # passive gate e^{i pi/4} O for real orthogonal O, G = i O^T O = i I and
    # the bound is attained, so the floor is exercised where it is tight.
    for E in panel_traces(m):
        for _, x, y, d in pure_param_blocks(13, 300, E, m, False):
            bound, alpha = spectrum_bound(d), d - 1.0
            c = norm_sq(pure_xp_block(x, y, alpha, -alpha / d))
            assert np.all(c <= bound + rounding_floor(2 * m, bound))
        for _, o, _, d in pure_param_blocks(13, 300, E, m, True):
            bound, alpha, turned = spectrum_bound(d), d - 1.0, o * np.sqrt(0.5)
            c = norm_sq(pure_xp_block(turned, turned, alpha, -alpha / d))
            assert np.all(np.abs(c - bound) <= rounding_floor(2 * m, bound))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16])
def test_spectrum_bound_is_attained_by_squeezers_turned_by_pi_4(m):
    # The canonical state's bound is sinh(2r)^2.  Near the vacuum its stored
    # cosh(2r) holds few digits of the excess (its docstring), so the traces
    # start where the stored matrix is within rounding of the state.
    for E in (4.0 * m + 8.0, 1e3, 1e8, 1e12):
        bound = np.sinh(2.0 * msc_squeezing(E, m)) ** 2
        c = symplectic_coherence(msc_canonical(E, m).cov)
        assert abs(c - bound) <= rounding_floor(2 * m, bound)
    r = np.linspace(0.1, 1.5, m)
    modes = [rotated_squeezed(float(rk), np.pi / 4) for rk in r]
    bound = float(spectrum_bound(np.exp(2.0 * r)))
    c = symplectic_coherence(reduce(tensor_states, modes).cov)
    assert abs(c - bound) <= rounding_floor(2 * m, bound)
    # Any other turn theta of one mode loses sinh(2r)^2 cos(2 theta)^2 of it.
    modes[-1] = rotated_squeezed(float(r[-1]), 0.3)
    c = symplectic_coherence(reduce(tensor_states, modes).cov)
    assert bound - c == pytest.approx(np.sinh(2.0 * r[-1]) ** 2 * np.cos(0.6) ** 2, rel=1e-9)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16])
def test_spectrum_bound_is_the_maximum_iff_one_mode_carries_the_excess(m, rng):
    # B = sum gamma^2 + 2h <= h^2 + 2h = c_max with h = (E - 2m)/2, and
    # c_max - B = h^2 - sum gamma^2 = 2 sum_{k<l} gamma_k gamma_l.  The moduli
    # are taken from the weights, as the refinement takes them, since a
    # stored d near 1 holds few digits of its excess.
    for E in (2.0 * m + 1e-6, 4.0 * m + 8.0, 1e3, 1e8, 1e12):
        c_max, h = max_symplectic_coherence(E, m), 0.5 * (E - 2.0 * m)
        for alone in np.eye(m):
            sigma = _moduli(h, alone)[m:]
            assert abs(float(sigma @ sigma) - c_max) <= rounding_floor(2 * m, c_max)
        if m == 1:
            continue
        for _ in range(20):
            weights = rng.dirichlet(np.full(m, 0.3))
            gamma, sigma = np.split(_moduli(h, weights), 2)
            bound = float(sigma @ sigma)
            deficit = h * h - float(gamma @ gamma)
            assert bound <= c_max + rounding_floor(2 * m, c_max)
            assert deficit > rounding_floor(2 * m, c_max)
            assert c_max - bound == pytest.approx(deficit, rel=1e-6, abs=rounding_floor(2 * m, c_max))


def exhaustive_best_sample(E: float, m: int, trials: int, seed: int):
    """``(c, trial, X, Y, d)`` of the first best sample, every kept row factored and scored.

    The search's sampling before it bounded samples by their spectra: each
    block of ``pure_param_blocks`` scored whole, its first maximum taken.
    """
    best_c = -1.0
    for start, xs, ys, ds in pure_param_blocks(seed, trials, E, m, False):
        alpha = ds - 1.0
        c = norm_sq(pure_xp_block(xs, ys, alpha, -alpha / ds))
        j = int(np.argmax(c))
        if c[j] > best_c:
            best_c = float(c[j])
            best = (start + j, xs[j], ys[j], ds[j])
    return (best_c,) + best


def exact(value):
    """``value`` with every float written as its hex form, so equality is equality of bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [exact(v) for v in value]
    if isinstance(value, dict):
        return [(k, exact(v)) for k, v in value.items()]
    return value


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16])
def test_search_is_the_exhaustive_scoring_bit_for_bit(m, monkeypatch):
    # A sample the spectrum bound leaves out could neither win nor tie, so the
    # whole outcome is the exhaustive scoring's, refinement included; at
    # m = 1 every sample has the same bound and none is left out.
    cases = [(E, n, seed) for E in panel_traces(m) for n, seed in ((1, 0), (9, 1), (200, 2), (600, 3))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [numeric_max_search(E, m, n, seed) for E, n, seed in cases]
        monkeypatch.setattr(coherence, "_best_sample", exhaustive_best_sample)
        want = [numeric_max_search(E, m, n, seed) for E, n, seed in cases]
    assert [exact(o) for o in got] == [exact(o) for o in want]


@pytest.mark.parametrize("m, trials", [(8, 1000), (16, 300)])
def test_a_search_that_skips_blocks_is_the_exhaustive_scoring_bit_for_bit(m, trials, monkeypatch):
    # Four or five blocks per search: a later block none of whose rows can
    # reach the best c so far draws no uniforms, and the outcome is still the
    # exhaustive scoring's, refinement included.
    blocks = record_spectra(monkeypatch, coherence)
    cases = [(E, trials, seed) for E in panel_traces(m) for seed in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [numeric_max_search(E, m, n, seed) for E, n, seed in cases]
        assert len(blocks) == len(cases) * -(-trials // block_samples(m)) >= 3 * len(cases)
        drawn = [rows for rows in uniform_rows_after_spectra(blocks, m) if rows]
        assert len(drawn) < len(blocks)
        monkeypatch.setattr(coherence, "_best_sample", exhaustive_best_sample)
        want = [numeric_max_search(E, m, n, seed) for E, n, seed in cases]
    assert [exact(o) for o in got] == [exact(o) for o in want]


@pytest.mark.parametrize("m", [2, 8])
def test_search_makes_no_eigensolve(m, monkeypatch):
    # The phase move is closed form and the rest of the refinement is matrix
    # products; only the sampling's Haar QR reads numpy.linalg.
    def refused(*args, **kwargs):
        raise AssertionError("numpy.linalg called by the refinement")

    for name in np.linalg.__all__:
        if name != "qr" and not isinstance(getattr(np.linalg, name), type):
            monkeypatch.setattr(np.linalg, name, refused)
    outcome = numeric_max_search(4.0 * m + 8.0, m, trials=200, seed=3)
    assert outcome.argmax["refined_coherence"] > outcome.argmax["sample_coherence"]


def check_pair_move(block: np.ndarray) -> None:
    """Assert that ``_pair_move`` of the 2 x 2 complex symmetric block gives ``v^T M v = i sigma_max(M)``, |v| = 1.

    The oracle is numpy's SVD; both sides round, so the value is held to 16 eps of sigma_max.
    """
    eps = np.finfo(float).eps
    sigma = np.linalg.svd(block, compute_uv=False)[0]
    v = np.array(_pair_move(complex(block[0, 0]), complex(block[0, 1]), complex(block[1, 1])))
    assert abs(np.linalg.norm(v) - 1.0) <= 4 * eps
    assert abs(v @ block @ v - 1j * sigma) <= 16 * eps * sigma


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300])
def test_pair_move_reaches_i_sigma_max_on_random_blocks(scale):
    # Complex symmetric blocks at every scale: the block is scaled by its
    # largest entry first, so none of P = M^H M underflows or overflows.
    rng = np.random.default_rng(41)
    for _ in range(500):
        a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * scale
        check_pair_move(a + a.T)


def test_pair_move_reaches_i_sigma_max_on_unitary_and_diagonal_blocks():
    # A unitary symmetric block W W^T (every move at m = 2) has sigma_1 =
    # sigma_2 = 1, where any unit x is a top singular vector.  A diagonal
    # block (H_kj = 0) moves H_kk to the larger diagonal modulus, also with
    # equal moduli, a zero entry, or M = 0.
    rng = np.random.default_rng(42)
    for _ in range(500):
        w = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        check_pair_move(w @ w.T)
        p, q = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for a, b in ((p, q), (p, abs(p) * np.exp(1j * rng.uniform(-np.pi, np.pi))), (p, 0.0), (0.0, q)):
            check_pair_move(np.diag([a, b]).astype(complex))
    check_pair_move(np.zeros((2, 2), dtype=complex))
    check_pair_move(np.array([[0.0, 1.0 - 2.0j], [1.0 - 2.0j, 0.0]]))


@pytest.mark.parametrize("m", [2, 3, 8])
def test_pair_move_on_a_unitary_sets_h_kk_to_i_sigma_max(m):
    # Mixing columns k and j of U by [[v_1, -conj(v_2)], [v_2, conj(v_1)]]
    # keeps U unitary and puts H_kk of H = U^T U at i sigma_max of the block
    # [[H_kk, H_kj], [H_kj, H_jj]], built and measured explicitly; the second
    # unitary is block diagonal, so H_kj = 0 across its blocks.
    rng = np.random.default_rng(43 + m)
    eps = np.finfo(float).eps
    _, xs, ys, _ = next(pure_param_blocks(47, 8, 4.0 * m + 8.0, m, False))
    split = np.zeros((m, m), dtype=complex)
    split[:1, :1] = np.exp(0.3j)
    split[1:, 1:] = np.linalg.qr(rng.standard_normal((m - 1, m - 1)) + 1j * rng.standard_normal((m - 1, m - 1)))[0]
    cases = [(x + 1j * y, *rng.choice(m, 2, replace=False)) for x, y in zip(xs, ys)] + [(split, 0, 1)]
    for u, k, j in cases:
        h = u.T @ u
        block = h[np.ix_([k, j], [k, j])]
        v1, v2 = _pair_move(complex(block[0, 0]), complex(block[0, 1]), complex(block[1, 1]))
        mixed = u.copy()
        mixed[:, k] = v1 * u[:, k] + v2 * u[:, j]
        mixed[:, j] = -np.conj(v2) * u[:, k] + np.conj(v1) * u[:, j]
        assert np.max(np.abs(mixed.conj().T @ mixed - np.eye(m))) <= 16 * m * eps
        sigma = np.linalg.svd(block, compute_uv=False)[0]
        assert abs((mixed.T @ mixed)[k, k] - 1j * sigma) <= 16 * m * eps


@pytest.mark.parametrize("m", [2, 3, 8])
def test_a_second_pair_move_gains_only_rounding(m):
    # After a move H_kk = i sigma_max of the pair's block, and mixing the
    # pair by a unitary leaves the block's singular values alone, so a second
    # move on the same pair raises |H_kk| by rounding only: the sweeps' stop
    # rule of 4 eps has nothing left to keep there.
    rng = np.random.default_rng(53 + m)
    eps = np.finfo(float).eps
    _, xs, ys, _ = next(pure_param_blocks(59, 16, 4.0 * m + 8.0, m, False))
    for x, y in zip(xs, ys):
        u = x + 1j * y
        k, j = rng.choice(m, 2, replace=False)
        for _ in range(2):
            h = u.T @ u
            before = abs(h[k, k])
            v1, v2 = _pair_move(complex(h[k, k]), complex(h[k, j]), complex(h[j, j]))
            u = u.copy()
            u[:, k], u[:, j] = v1 * u[:, k] + v2 * u[:, j], -np.conj(v2) * u[:, k] + np.conj(v1) * u[:, j]
        assert abs((u.T @ u)[k, k]) - before <= 16 * m * eps


@pytest.mark.parametrize("m", range(1, 17))
def test_vertex_coherence_is_the_form_at_each_vertex(m):
    # c(e_k) = h [(h + 1)(1 - x^2) + y^2] at H_kk = x + iy is the form's
    # value at the weights e_k, on Haar unitaries with turned phases, from
    # just above the vacuum to the largest trace whose square is finite,
    # where it stays finite with no warning.
    rng = np.random.default_rng(700 + m)
    traces = [2.0 * m + excess for excess in (1e-6, 1e-3, 1.0, 1e4, 1e8, 1e150)] + [1.3e154]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for E in traces:
            h, c_max = 0.5 * (E - 2.0 * m), max_symplectic_coherence(E, m)
            _, xs, ys, _ = next(pure_param_blocks(31, 3, E, m, False))
            for x, y in zip(xs, ys):
                u = (x + 1j * y) * np.exp(0.5j * rng.uniform(-np.pi, np.pi, m))
                got = _vertex_coherences(np.diagonal(u.T @ u).tolist(), h)
                want = [float(form_coherence(u, _moduli(h, e))) for e in np.eye(m)]
                assert all(np.isfinite(got))
                assert_allclose(got, want, rtol=0, atol=1e-13 * c_max)


def search_gap_panel():
    """``(E, m, seed)`` of the gap panel (E = 4m + 8, seeds 1000-1063) and of E = 1e4 and 1e8."""
    cases = [(4.0 * m + 8.0, m, seed) for m in (2, 4, 8) for seed in range(1000, 1064)]
    return cases + [(E, m, seed) for E in (1e4, 1e8) for m in (2, 4, 8) for seed in range(1000, 1016)]


def test_search_splits_its_gap_into_spectrum_and_unitary_parts():
    # spectrum_gap = c_max - sum sigma_k^2 and unitary_gap = sum sigma_k^2 -
    # c add up to the gap; each is >= 0 up to rounding (sum sigma_k^2 bounds
    # c at every U, and c_max bounds it); at a vertex the spectrum part is 0.
    # vertex_gap is 1 - |H_kk| of the reported U's mode of largest weight.
    for E, m, seed in search_gap_panel():
        c_max = max_symplectic_coherence(E, m)
        floor = rounding_floor(2 * m, c_max)
        where = numeric_max_search(E, m, trials=200, seed=seed).argmax
        spectrum, unitary = where["spectrum_gap"], where["unitary_gap"]
        assert abs(spectrum + unitary - (c_max - where["refined_coherence"])) <= floor
        assert spectrum >= -floor and unitary >= -floor
        weights = np.asarray(where["weights"])
        if np.count_nonzero(weights) == 1:
            assert abs(spectrum) <= floor
        u = np.asarray(where["x"]) + 1j * np.asarray(where["y"])
        k = int(weights.argmax())
        assert where["vertex_gap"] == pytest.approx(1.0 - abs((u.T @ u)[k, k]), rel=0, abs=1e-13)


def test_search_near_the_vacuum_reaches_the_maximum_from_the_best_vertex():
    # Here a search that moved only between vertices by phase and Givens
    # moves read 0.985 c_max, and one with an interior weight grid 1 - 3e-9;
    # pair sweeps from the best vertex reach c_max to rounding.
    E, m = 8.000001, 4
    c_max = max_symplectic_coherence(E, m)
    outcome = numeric_max_search(E, m, 50, 87)
    assert abs(outcome.sup_c - c_max) <= rounding_floor(2 * m, c_max)


@pytest.mark.parametrize("m", [3, 4, 8, 16])
def test_search_just_above_the_vacuum_reaches_the_maximum(m):
    E = 2.0 * m + 1e-6
    c_max = max_symplectic_coherence(E, m)
    for seed in range(77, 101):
        sup_c = numeric_max_search(E, m, 50, seed).sup_c
        assert abs(sup_c - c_max) <= rounding_floor(2 * m, c_max), seed


def test_stop_rule_keeps_many_sweeps_within_the_floor(monkeypatch):
    # Without a stop rule, rounding-level gains carried sup_c past c_max +
    # rounding_floor(2m, c_max) at a 32-sweep cap (in 15 of 96 searches at m =
    # 1 and 28 at m = 2, 30 trials).  A pair sweep that raises |H_kk| by at
    # most 4 eps ends the refinement, so even a cap of 1000 sweeps keeps
    # sup_c within the floor.
    monkeypatch.setattr(coherence, "_REFINE_PASSES", 1000)
    for m in (1, 2, 4):
        for E in (2.0 * m + 1e-3, 4.0 * m + 8.0, 1e4):
            c_max = max_symplectic_coherence(E, m)
            for seed in range(32):
                sup_c = numeric_max_search(E, m, 30, seed).sup_c
                assert sup_c <= c_max + rounding_floor(2 * m, c_max), (m, E, seed)


def test_a_converged_search_stops_before_the_cap(monkeypatch):
    # A sweep makes m - 1 pair moves.  At m = 2 the block is H itself, a
    # unitary, so the first sweep reaches |H_kk| = 1 and the second gains
    # rounding: at most 2 moves.  At every m the sweeps end by the stop rule,
    # before the cap of _REFINE_PASSES.
    calls = []
    pair_move = coherence._pair_move

    def counting(*args):
        calls.append(1)
        return pair_move(*args)

    monkeypatch.setattr(coherence, "_pair_move", counting)
    for m in (2, 4, 8, 16):
        for E in (4.0 * m + 8.0, 1e8):
            c_max = max_symplectic_coherence(E, m)
            for seed in range(10):
                calls.clear()
                sup_c = numeric_max_search(E, m, 200, seed).sup_c
                assert abs(sup_c - c_max) <= rounding_floor(2 * m, c_max)
                assert len(calls) <= 2 if m == 2 else len(calls) < (m - 1) * _REFINE_PASSES, (m, E, seed)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16])
@pytest.mark.parametrize("ulps", [1, 2])
def test_search_just_above_the_minimum_budget(m, ulps):
    # Only E = 2m forces the vacuum; an ulp or two above it the search still
    # finds a squeezed state, with weights summing to 1 and no warning.
    E = 2.0 * m
    for _ in range(ulps):
        E = float(np.nextafter(E, np.inf))
    c_max = max_symplectic_coherence(E, m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = numeric_max_search(E, m, trials=30, seed=0)
    weights = np.asarray(outcome.argmax["weights"])
    assert np.all(np.isfinite(weights)) and np.all(weights >= 0.0)
    assert abs(weights.sum() - 1.0) <= 2 * m * np.finfo(float).eps
    assert 0.5 * c_max < outcome.sup_c <= c_max * (1.0 + 1e-12)
    if m == 1:
        assert outcome.sup_c == pytest.approx(c_max, rel=1e-12, abs=0)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_search_mean_gap_and_phase_range(m):
    # Every gap, and so the mean, is within the rounding floor of c_max; the
    # squeezed mode k has H_kk = i to rounding, so theta_k is the paper's pi/4.
    E = 4.0 * m + 8.0
    c_max = max_symplectic_coherence(E, m)
    bound = rounding_floor(2 * m, 1.0)
    gaps = []
    for seed in range(10):
        outcome = numeric_max_search(E, m, trials=200, seed=seed)
        assert outcome.sup_c <= c_max * (1.0 + 1e-12)
        gaps.append((c_max - outcome.sup_c) / c_max)
        assert abs(gaps[-1]) <= bound
        theta = np.asarray(outcome.argmax["theta"])
        assert np.all((theta > -np.pi / 2) & (theta <= np.pi / 2))
        k = int(np.argmax(outcome.argmax["weights"]))
        assert theta[k] == pytest.approx(np.pi / 4, rel=0, abs=bound)
    assert np.mean(gaps) <= bound


def test_search_reaches_the_maximum_where_phases_and_weights_stalled():
    # At E = 16, m = 4, seed 7 and 10^4 trials, phase and weight moves alone
    # stopped at 0.916 c_max whatever the number of sweeps: they cannot
    # change the columns of the sampled U.  Pair moves mix them.
    c_max = max_symplectic_coherence(16.0, 4)
    outcome = numeric_max_search(16.0, 4, trials=10_000, seed=7)
    assert abs(outcome.sup_c - c_max) <= rounding_floor(8, c_max)


VERTEX_GAP_TRACES = {
    "2m+1e-6": lambda m: 2.0 * m + 1e-6,
    "4m+8": lambda m: 4.0 * m + 8.0,
    "1e4": lambda m: 1e4,
    "1e8": lambda m: 1e8,
}


@pytest.mark.parametrize("trace", list(VERTEX_GAP_TRACES))
@pytest.mark.parametrize("m", [2, 4, 8, 16])
def test_search_vertex_gap_is_within_the_rounding_floor(m, trace):
    # The pair sweeps converge at every trace: 1 - |H_kk| is rounding from
    # just above the vacuum to E = 1e8, where the curvature of c in y is 1/h
    # of that in x and the phase and Givens moves had stalled at 0.86.
    E = VERTEX_GAP_TRACES[trace](m)
    c_max = max_symplectic_coherence(E, m)
    for seed in range(16):
        outcome = numeric_max_search(E, m, 200, seed)
        assert abs(outcome.argmax["vertex_gap"]) <= rounding_floor(2 * m, 1.0), seed
        assert abs(outcome.sup_c - c_max) <= rounding_floor(2 * m, c_max), seed


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16])
def test_search_reports_a_unitary_at_a_vertex_with_the_papers_turn(m):
    # At every trace the reported U = X + iY is unitary to rounding (the
    # moves are products of 2 x 2 unitaries), the weights are a vertex e_k,
    # and theta_k = arg(H_kk)/2 is pi/4 with every other theta in (-pi/2, pi/2].
    bound = rounding_floor(2 * m, 1.0)
    for make in SEARCH_TRACES.values():
        for seed in range(3):
            where = numeric_max_search(make(m), m, 200, seed).argmax
            u = np.asarray(where["x"]) + 1j * np.asarray(where["y"])
            assert np.max(np.abs(u.conj().T @ u - np.eye(m))) <= bound
            weights = np.asarray(where["weights"])
            k = int(weights.argmax())
            assert np.array_equal(weights, np.eye(m)[k])
            theta = np.asarray(where["theta"])
            assert np.all((theta > -np.pi / 2) & (theta <= np.pi / 2))
            assert theta[k] == pytest.approx(np.pi / 4, rel=0, abs=bound)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16])
def test_search_refines_from_the_first_best_vertex_of_its_sample(m):
    # The refinement moves the sampled U's first vertex of largest c(e_k)
    # and keeps only moves that raise |H_kk|, so the refined coherence is at
    # least that vertex's, up to the rounding of recomputing H_kk.
    for make in SEARCH_TRACES.values():
        E = make(m)
        h, c_max = 0.5 * (E - 2.0 * m), max_symplectic_coherence(E, m)
        for seed in range(3):
            _, trial, x, y, _ = coherence._best_sample(E, m, 200, seed)
            u = x + 1j * y
            at = _vertex_coherences(np.diagonal(u.T @ u).tolist(), h)
            where = numeric_max_search(E, m, 200, seed).argmax
            assert where["trial"] == trial
            assert int(np.argmax(where["weights"])) == at.index(max(at))
            assert where["refined_coherence"] >= max(at) - rounding_floor(2 * m, c_max)


@pytest.mark.parametrize("E", [2.0 + 1e-9, 2.0 + 1e-3, 6.0, 1e4, 1e8, 1.3e154])
def test_single_mode_refinement_is_the_turn_alone(E, monkeypatch):
    # At m = 1 U is the phase e^{i phi} and H = e^{2i phi}: the refinement
    # turns it to H = i, so x = y = +-sqrt(1/2), theta = pi/4 and c = c_max,
    # with no pair move.
    calls = []
    pair_move = coherence._pair_move

    def counting(*args):
        calls.append(1)
        return pair_move(*args)

    monkeypatch.setattr(coherence, "_pair_move", counting)
    eps = np.finfo(float).eps
    c_max = max_symplectic_coherence(E, 1)
    for seed in range(8):
        where = numeric_max_search(E, 1, 30, seed).argmax
        (x,), (y,) = where["x"][0], where["y"][0]
        assert abs(abs(x) - np.sqrt(0.5)) <= 4 * eps and abs(abs(y) - np.sqrt(0.5)) <= 4 * eps
        assert where["theta"] == [pytest.approx(np.pi / 4, rel=0, abs=4 * eps)]
        assert abs(where["vertex_gap"]) <= 4 * eps
        assert abs(where["refined_coherence"] - c_max) <= rounding_floor(2, c_max)
    assert not calls


def test_search_input_validation():
    with pytest.raises(ValueError):
        numeric_max_search(6.0, 1, trials=0, seed=0)
    with pytest.raises(ValueError):
        numeric_max_search(1.0, 1, trials=5, seed=0)


def test_search_rejects_a_boolean_trial_count():
    # trials=True used to run one trial.
    with pytest.raises(ValueError, match="^trials must be an integer"):
        numeric_max_search(6.0, 1, trials=True, seed=0)


@pytest.mark.parametrize("field, value", [("seed", 1.5), ("m", 2.0), ("trials", 30.0)])
def test_search_rejects_a_seed_or_count_that_is_not_an_integer(field, value):
    args = {**dict(E=8.0, m=2, trials=30, seed=0), field: value}
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        numeric_max_search(**args)


def test_search_accepts_numpy_integers():
    plain = numeric_max_search(8.0, 2, trials=30, seed=4)
    assert numeric_max_search(8.0, np.int64(2), trials=np.int32(30), seed=np.uint64(4)) == plain


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
