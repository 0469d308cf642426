"""Core covariance-matrix types, validation, invariants, and file I/O."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sympcoh import (
    CovMat,
    DimensionError,
    GaussianState,
    ValidationError,
    assemble,
    blocks,
    coherence_discord_relation_check,
    is_pure,
    is_valid,
    load_state,
    mean_energy,
    mix_states,
    qfi_displacement,
    reduced_first_mode,
    require_valid,
    save_state,
    state_from_dict,
    state_to_dict,
    symplectic_eigenvalues,
    symplectic_form,
    to_density,
    vacuum_state,
    validate,
)
from conftest import random_valid_cov

TOL = 1e-12


def test_symplectic_form_squares_to_minus_identity():
    for m in (1, 2, 5):
        omega = symplectic_form(m)
        assert_allclose(omega @ omega, -np.eye(2 * m), atol=TOL)
        assert_allclose(omega.T, -omega, atol=TOL)


def test_symplectic_form_rejects_nonpositive_m():
    with pytest.raises(DimensionError):
        symplectic_form(0)


def test_covmat_shape_checks():
    with pytest.raises(DimensionError):
        CovMat(np.zeros((3, 3)))
    with pytest.raises(DimensionError):
        CovMat(np.zeros((2, 4)))
    with pytest.raises(DimensionError):
        CovMat([[np.inf, 0.0], [0.0, 1.0]])


def test_covmat_is_read_only_and_derives_m():
    cov = CovMat(np.eye(4))
    assert cov.m == 2
    assert cov.trace == 4.0
    with pytest.raises(ValueError):
        cov.matrix[0, 0] = 5.0


def test_vacuum_is_valid_and_pure():
    state = vacuum_state(3)
    assert is_valid(state.cov)
    assert is_pure(state.cov)
    assert_allclose(symplectic_eigenvalues(state.cov), np.ones(3), atol=TOL)


@pytest.mark.parametrize(
    "matrix, name",
    [
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "symmetry"),
        (-np.eye(2), "positive_definite"),
        (0.5 * np.eye(2), "uncertainty"),
        (np.diag([0.2, 3.0]), "uncertainty"),
    ],
)
def test_validate_names_violations(matrix, name):
    report = validate(CovMat(matrix))
    assert name in {v.name for v in report}


def test_validate_trace_bound():
    report = validate(CovMat(0.8 * np.eye(2)))
    assert "trace_bound" in {v.name for v in report}


def test_require_valid_raises_with_names():
    with pytest.raises(ValidationError) as err:
        require_valid(CovMat(0.5 * np.eye(2)))
    assert "uncertainty" in str(err.value)
    assert err.value.violations


@pytest.mark.parametrize(
    "matrix, expected",
    [
        ([[2.0, 0.5], [0.0, 2.0]], [("symmetry", 0.5)]),
        ([[1.0, 2.0], [2.0, 1.0]], [("positive_definite", 1.0), ("uncertainty", np.sqrt(5) - 1)]),
        (np.diag([0.2, 3.0]), [("uncertainty", (np.sqrt(2.8**2 + 4) - 3.2) / 2)]),
        (
            np.diag([-1.0, 5.0]),
            [("positive_definite", 1.0), ("uncertainty", np.sqrt(10) - 2), ("vx_positive", 1.0)],
        ),
        (
            np.diag([5.0, -1.0]),
            [("positive_definite", 1.0), ("uncertainty", np.sqrt(10) - 2), ("vp_positive", 1.0)],
        ),
        (0.8 * np.eye(2), [("uncertainty", 0.2), ("trace_bound", 0.4)]),
    ],
)
def test_validate_reports_each_invariant_with_its_magnitude(matrix, expected):
    report = validate(CovMat(matrix))
    assert [v.name for v in report] == [name for name, _ in expected]
    for v, (_, magnitude) in zip(report, expected):
        assert v.magnitude == pytest.approx(magnitude, rel=1e-12)


def test_validation_cache_is_tolerance_free():
    v = np.eye(2)
    v[0, 0] -= 1e-6  # about 5e-7 below the uncertainty bound, 1e-6 below the trace bound
    fresh = {tol: validate(CovMat(v), tol) for tol in (1e-9, 1e-3)}
    assert [x.name for x in fresh[1e-9]] == ["uncertainty", "trace_bound"]
    assert fresh[1e-3] == []
    for order in ((1e-9, 1e-3), (1e-3, 1e-9)):
        cov = CovMat(v)
        for tol in order:
            assert validate(cov, tol) == fresh[tol]
        assert is_valid(cov, 1e-3) and not is_valid(cov, 1e-9)


def test_each_covmat_solves_its_eigenproblems_once(monkeypatch):
    calls = {"eigvalsh": 0, "eigvals": 0}

    def counted(name):
        solve = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return solve(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    matrix = np.array([[2.0, 0.5], [0.5, 0.625]])  # a pure single-mode state: det = 1
    cov = CovMat(matrix)
    validate(cov)
    validate(cov, 1e-3)
    require_valid(cov)
    to_density(cov)
    coherence_discord_relation_check(cov)
    assert is_pure(cov)
    nu = symplectic_eigenvalues(cov)
    assert qfi_displacement(cov).exact
    assert calls == {"eigvalsh": 4, "eigvals": 1}  # one validation set of solves, one eig
    nu[0] = 7.0  # the caller's copy, not the cache
    assert_allclose(symplectic_eigenvalues(cov), [1.0], atol=1e-12)
    assert not cov.williamson_moduli.flags.writeable

    again = CovMat(matrix)
    validate(again)
    symplectic_eigenvalues(again)
    assert calls == {"eigvalsh": 8, "eigvals": 2}


def test_blocks_assemble_roundtrip(rng):
    cov = random_valid_cov(rng, 3)
    v_x, v_p, v_xp = blocks(cov)
    assert_allclose(assemble(v_x, v_p, v_xp).matrix, cov.matrix, atol=0)


def test_mean_energy():
    assert mean_energy(vacuum_state(2)) == pytest.approx(1.0)
    coherent = GaussianState(CovMat(np.eye(2)), [2.0, 0.0])
    assert mean_energy(coherent) == pytest.approx(1.5)


def test_symplectic_eigenvalues_thermal_tensor():
    cov = CovMat(np.diag([3.0, 1.5, 3.0, 1.5]))
    assert_allclose(symplectic_eigenvalues(cov), [3.0, 1.5], atol=1e-9)
    assert not is_pure(cov)


def test_symplectic_eigenvalues_squeezed_pure():
    r = 0.7
    cov = CovMat(np.diag([np.exp(2 * r), np.exp(-2 * r)]))
    assert_allclose(symplectic_eigenvalues(cov), [1.0], atol=1e-9)
    assert is_pure(cov)


def test_reduced_first_mode_closed_form(rng):
    cov = random_valid_cov(rng, 3)
    red = reduced_first_mode(cov)
    v = cov.matrix
    expected = v[0, 0] * v[3, 3] - v[0, 3] ** 2
    assert red.nu_sq == pytest.approx(expected, abs=TOL)
    assert red.trace == pytest.approx(v[0, 0] + v[3, 3], abs=TOL)
    assert red.cov.m == 1


def test_mix_states_moment_bookkeeping():
    vac = vacuum_state(1)
    coherent = GaussianState(CovMat(np.eye(2)), [1.2, -0.8])
    mix = mix_states([(0.5, vac), (0.5, coherent)])
    d = np.array([1.2, -0.8])
    assert_allclose(mix.d, 0.5 * d, atol=TOL)
    assert_allclose(mix.cov.matrix, np.eye(2) + 0.25 * np.outer(d, d), atol=TOL)


def test_mix_states_weight_validation():
    vac = vacuum_state(1)
    with pytest.raises(ValueError):
        mix_states([(0.7, vac), (0.7, vac)])
    with pytest.raises(ValueError):
        mix_states([])
    with pytest.raises(DimensionError):
        mix_states([(0.5, vac), (0.5, vacuum_state(2))])


def test_state_dict_roundtrip(rng):
    state = GaussianState(random_valid_cov(rng, 2), rng.normal(size=4))
    doc = state_to_dict(state)
    back = state_from_dict(doc)
    assert_allclose(back.cov.matrix, state.cov.matrix, atol=0)
    assert_allclose(back.d, state.d, atol=0)


def test_state_from_dict_rejects_bad_metadata():
    doc = state_to_dict(vacuum_state(1))
    with pytest.raises(ValueError):
        state_from_dict({**doc, "format": "something-else"})
    with pytest.raises(ValueError):
        state_from_dict({**doc, "ordering": "qpqp"})
    with pytest.raises(ValueError):
        state_from_dict({**doc, "hbar": 1})
    with pytest.raises(DimensionError):
        state_from_dict({**doc, "m": 4})


def test_file_roundtrip_json_and_csv(tmp_path, rng):
    state = GaussianState(random_valid_cov(rng, 2), rng.normal(size=4))
    json_path = str(tmp_path / "state.json")
    save_state(state, json_path)
    back = load_state(json_path)
    assert_allclose(back.cov.matrix, state.cov.matrix, atol=0)
    assert_allclose(back.d, state.d, atol=0)

    csv_path = str(tmp_path / "state.csv")
    save_state(state, csv_path)
    back_csv = load_state(csv_path)
    assert_allclose(back_csv.cov.matrix, state.cov.matrix, atol=0)
    assert_allclose(back_csv.d, np.zeros(4), atol=0)

    with pytest.raises(DimensionError):
        load_state(csv_path, m=3)
