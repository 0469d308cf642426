"""Core covariance-matrix types, validation, invariants, and file I/O."""

from __future__ import annotations

import inspect
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import sympcoh
from sympcoh import (
    CovMat,
    DimensionError,
    GaussianState,
    NumericError,
    ValidationError,
    apply_loss,
    assemble,
    blocks,
    coherence_discord_relation_check,
    gaussian_core,
    is_pure,
    is_valid,
    load_state,
    mean_energy,
    mix_states,
    qfi_displacement,
    require_valid,
    save_state,
    state_from_dict,
    state_to_dict,
    symplectic_eigenvalues,
    symplectic_form,
    symplectic_ops,
    to_density,
    vacuum_state,
    validate,
)
from conftest import SINGULAR_1E12, random_pure_cov, random_valid_cov

TOL = 1e-12
EPS = np.finfo(float).eps


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


def test_covmat_takes_only_the_matrix():
    assert CovMat(np.eye(4)).m == 2
    for keyword in ("m", "tol"):
        with pytest.raises(TypeError):
            CovMat(np.eye(2), **{keyword: 5})


@pytest.mark.parametrize(
    "func, name",
    [
        ("validate", "tol"),
        ("is_valid", "tol"),
        ("require_valid", "tol"),
        ("is_free", "tol"),
        ("symplectic_eigenvalues", "pairing_tol"),
        ("is_pure", "tol"),
        ("is_symplectic", "tol"),
        ("StinespringChannel", "free_tol"),
        ("msc_membership_conditions", "tol"),
        ("mixed_msc_check", "tol"),
        ("is_classical_quantum", "tol"),
        ("wilson_upper", "z"),
    ],
)
def test_single_value_tolerances_are_not_parameters(func, name):
    assert name not in inspect.signature(getattr(sympcoh, func)).parameters


@pytest.mark.parametrize(
    "func, params",
    [
        ("SympGate", ["S", "disp"]),
        ("displacement", ["d"]),
        ("DiscordImage", ["rho", "c_scale"]),
        ("MscSpec", ["E", "theta", "o_inner", "o_outer"]),
        ("spectrum_from_weights", ["E", "weights"]),
        ("sample_pure_cm", ["E", "m", "kind", "rng"]),
        ("numeric_max_search", ["E", "m", "trials", "seed"]),
    ],
)
def test_constructors_take_only_independent_inputs(func, params):
    signature = inspect.signature(getattr(sympcoh, func))
    assert list(signature.parameters) == params
    if func == "numeric_max_search":
        assert signature.parameters["seed"].default is inspect.Parameter.empty


def test_is_free_lives_in_core_only():
    assert sympcoh.is_free is gaussian_core.is_free
    assert not hasattr(sympcoh.coherence, "is_free")
    assert not hasattr(sympcoh.coherence, "FREE_TOL")


def test_no_module_holds_a_tolerance_constant():
    # Gone: DEFAULT_TOL, PURITY_TOL, FREE_TOL (gaussian_core), SYMPLECTIC_TOL
    # (symplectic_ops), MEMBERSHIP_TOL, MIXED_MSC_TOL (coherence), MEAN_GAP_TOL
    # (applications); every verdict compares with gaussian_core.rounding_floor.
    import sympcoh.cli

    for module in (gaussian_core, symplectic_ops, sympcoh.coherence, sympcoh.discord_map,
                   sympcoh.ensembles, sympcoh.applications, sympcoh.cli):
        assert [name for name in vars(module) if name.endswith("_TOL")] == [], module.__name__


def test_rounding_floor_is_the_one_formula():
    assert gaussian_core.rounding_floor(2, 1.0) == 16 * EPS
    assert gaussian_core.rounding_floor(32, 1e12) == 34**2 * EPS * 1e12
    cov = CovMat(np.diag([3.0, 1.0, 2.0, 0.5]))
    assert cov.floor == gaussian_core.rounding_floor(4, 6.5)
    assert CovMat(-np.eye(2)).floor == gaussian_core.rounding_floor(2, 2.0)  # the trace's size


@pytest.mark.parametrize("m", [1, 4, 16])
def test_purity_is_judged_at_the_floor_both_ways(m):
    floor = gaussian_core.rounding_floor(2 * m, 2.0 * m)  # a thermal state's floor, nu near 1
    for times_floor, pure in ((10.0, False), (0.1, True)):
        nu = 1.0 + times_floor * floor
        thermal = CovMat(nu * np.eye(2 * m))
        # Exactly: nu - 1 is beyond the state's own floor iff it is not called pure.
        assert (Fraction(nu) - 1 > Fraction(thermal.floor)) is not pure
        assert is_valid(thermal)
        assert is_pure(thermal) is pure


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
    fresh = validate(CovMat(v))
    assert [x.name for x in fresh] == ["uncertainty", "trace_bound"]
    cov = CovMat(v)
    for _ in range(2):
        assert validate(cov) == fresh
        assert not is_valid(cov)


def test_each_covmat_solves_its_eigenproblems_once(monkeypatch):
    calls = {"cholesky": 0, "eigvalsh": 0, "eigvals": 0}

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
    for _ in range(3):
        assert validate(cov) == []
        require_valid(cov)
        to_density(cov)
        coherence_discord_relation_check(cov)
        assert is_pure(cov)
        nu = symplectic_eigenvalues(cov)
        assert qfi_displacement(cov).exact
    # one Cholesky and one stacked solve of the Williamson matrix and S + i*Omega per matrix, no eig(Omega V)
    assert calls == {"cholesky": 1, "eigvalsh": 1, "eigvals": 0}
    nu[0] = 7.0  # the caller's copy, not the cache
    assert_allclose(symplectic_eigenvalues(cov), [1.0], atol=1e-12)

    again = CovMat(matrix)
    validate(again)
    symplectic_eigenvalues(again)
    assert calls == {"cholesky": 2, "eigvalsh": 2, "eigvals": 0}


def test_validate_solves_only_the_margins_its_floors_leave_open(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    asymmetric = CovMat([[2.0, 1e-3], [0.0, 2.0]])
    assert [v.name for v in validate(asymmetric)] == ["symmetry"]
    assert len(calls) == 1  # Williamson and S + i*Omega, stacked; the Cholesky proves the other margins
    calls.clear()
    below_trace = CovMat(0.5 * np.eye(2))
    assert [v.name for v in validate(below_trace)] == ["uncertainty", "trace_bound"]
    assert len(calls) == 1
    calls.clear()
    indefinite = CovMat([[1.0, 2.0], [2.0, 1.0]])
    assert [v.name for v in validate(indefinite)] == ["positive_definite", "uncertainty"]
    assert len(calls) == 4  # S + i*Omega, then S, S_x and S_p, where the Cholesky fails


def test_covmat_at_the_edge_of_the_float_range():
    pure = CovMat([[1e308, 0.0], [0.0, 1e-308]])  # det 1: a pure state
    assert_allclose(symplectic_eigenvalues(pure), [1.0], rtol=0, atol=1e-12)
    assert is_pure(pure)
    assert validate(pure) == []
    with pytest.raises(DimensionError, match="trace"):
        CovMat([[1e308, 0.0], [0.0, 1e308]])


def test_asymmetric_matrix_at_the_edge_of_the_float_range():
    # Its symmetric part [[1, 1.25e308], [1.25e308, 1]] is indefinite, and
    # finite only when the entries are halved before they are summed.
    lopsided = CovMat([[1.0, 1e308], [1.5e308, 1.0]])
    assert [v.name for v in validate(lopsided)] == ["symmetry", "positive_definite", "uncertainty"]
    assert validate(lopsided)[0].magnitude == pytest.approx(0.5e308, rel=1e-15)
    assert_allclose(validate(lopsided)[1].magnitude, 1.25e308 - 1.0, rtol=1e-12)
    antisymmetric = CovMat([[1.0, 1e308], [-1e308, 1.0]])
    report = validate(antisymmetric)
    assert [v.name for v in report] == ["symmetry"]
    assert report[0].magnitude == np.inf  # 2e308: the true asymmetry is past the float range


def test_the_verdict_is_a_cached_property_at_the_module_tolerance():
    cov = CovMat(np.diag([0.9, 1.0]))
    assert cov.violations is cov.violations
    assert validate(cov) == list(cov.violations)
    assert [v.name for v in cov.violations] == ["uncertainty", "trace_bound"]
    assert not hasattr(gaussian_core, "Certificate")
    assert not hasattr(cov, "certificate")
    assert not hasattr(gaussian_core, "Margins") and not hasattr(cov, "margins")
    assert not hasattr(sympcoh, "orthogonal_stinespring")
    assert not hasattr(symplectic_ops, "_interleave_permutation")


def test_symplectic_spectrum_needs_a_matrix_positive_definite_in_float64():
    # The spectrum needs a Cholesky factor; purity reads eigvalsh(S + i Omega) alone.
    singular = CovMat(SINGULAR_1E12)
    indefinite = CovMat([[1.0, 2.0], [2.0, 1.0]])
    for cov in (singular, indefinite):
        with pytest.raises(NumericError, match="not positive definite in float64"):
            symplectic_eigenvalues(cov)
    assert is_pure(singular) is True
    assert is_pure(indefinite) is False


def test_the_read_side_answers_where_the_cholesky_fails():
    # Exactly singular: the Cholesky of S fails in float64, so only the
    # Williamson spectrum is undefined; every other reader answers.
    cov = CovMat(SINGULAR_1E12)
    assert validate(cov) == []
    assert is_pure(cov) is True
    assert qfi_displacement(cov).exact is True
    image = to_density(cov)
    assert image.c_scale == cov.trace
    rel = coherence_discord_relation_check(cov)
    assert rel.coherence == SINGULAR_1E12[0][1] ** 2
    assert rel.residual <= gaussian_core.rounding_floor(2, rel.coherence)
    with pytest.raises(NumericError, match="not positive definite in float64"):
        symplectic_eigenvalues(cov)


def _reference_report(v: np.ndarray) -> list[tuple[str, float]]:
    """The verdict of the four-eigvalsh margins (symmetric part, V + i*Omega, V_x, V_p),
    each compared with the floor ``(2m + 2)^2 * eps * |Tr V|``."""
    m = v.shape[0] // 2
    tol = (2 * m + 2) ** 2 * EPS * abs(float(np.trace(v)))
    sym = 0.5 * (v + v.T)
    asymmetry = float(np.max(np.abs(v - v.T)))
    min_eig = float(np.linalg.eigvalsh(sym)[0])
    min_uncertainty = float(np.linalg.eigvalsh(sym + 1j * symplectic_form(m))[0])
    min_vx = float(np.linalg.eigvalsh(sym[:m, :m])[0])
    min_vp = float(np.linalg.eigvalsh(sym[m:, m:])[0])
    trace = float(np.trace(v))
    out = []
    if asymmetry > tol:
        out.append(("symmetry", asymmetry))
    if min_eig <= -tol:
        out.append(("positive_definite", -min_eig))
    if min_uncertainty < -tol:
        out.append(("uncertainty", -min_uncertainty))
    if min_vx <= -tol:
        out.append(("vx_positive", -min_vx))
    if min_vp <= -tol:
        out.append(("vp_positive", -min_vp))
    if trace < 2 * m - tol:
        out.append(("trace_bound", 2 * m - trace))
    return out


def _paired_williamson(v: np.ndarray) -> np.ndarray:
    """Symplectic eigenvalues as the moduli of Im eig(Omega V), paired."""
    moduli = np.sort(np.abs(np.linalg.eigvals(symplectic_form(v.shape[0] // 2) @ v).imag))[::-1]
    assert np.max(np.abs(moduli[0::2] - moduli[1::2])) <= 1e-8 * max(1.0, moduli[0])
    return moduli[0::2]


@st.composite
def valid_covs(draw) -> CovMat:
    """Pure, lossy or two-component mixed states, m <= 16, trace <= 1e12."""
    m = draw(st.integers(1, 16))
    kind = draw(st.sampled_from(("pure", "lossy", "mixed")))
    trace = draw(st.floats(2 * m + 1e-6, 1e12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "pure":
        return random_pure_cov(rng, m, trace)
    if kind == "lossy":
        return apply_loss(random_pure_cov(rng, m, trace), draw(st.floats(0.05, 0.95)))
    w = draw(st.floats(0.05, 0.95))
    parts = [GaussianState(random_pure_cov(rng, m, trace)) for _ in range(2)]
    return mix_states([(w, parts[0]), (1.0 - w, parts[1])]).cov


def _plant(v: np.ndarray, kind: str, size: float) -> np.ndarray:
    """A copy of a valid matrix with one invariant violated by about ``size``."""
    m = v.shape[0] // 2
    if kind == "asymmetry":
        out = v.copy()
        out[0, -1] += size
        return out
    if kind == "negative_eigenvalue":
        lam, vec = np.linalg.eigh(v)
        out = v - (lam[0] + size) * np.outer(vec[:, 0], vec[:, 0])
        return 0.5 * (out + out.T)
    if kind == "uncertainty":
        return (1.0 - min(size, 0.5)) * v
    return v * ((2 * m - size) / np.trace(v))  # trace_bound


@settings(max_examples=150, deadline=None)
@given(cov=valid_covs())
def test_validate_and_williamson_match_the_eigenvalue_references_on_valid_states(cov):
    v = cov.matrix
    assert validate(cov) == _reference_report(v) == []
    trace = float(np.trace(v))
    try:
        nu = symplectic_eigenvalues(cov)
    except NumericError:
        # Past a trace of about 1/sqrt(eps) the smallest eigenvalue of a pure
        # state, about 1/Tr[V], is below its rounding: such a matrix is on the
        # boundary of positive definiteness, within the floor.
        m = cov.m
        assert abs(float(np.linalg.eigvalsh(v)[0])) <= (2 * m + 2) ** 2 * EPS * trace
        return
    # measured worst |nu - nu_ref| over 6000 such states: 0.5 * eps * Tr[V]^2
    assert_allclose(nu, _paired_williamson(v), rtol=0, atol=4 * EPS * trace**2)


@settings(max_examples=150, deadline=None)
@given(
    cov=valid_covs(),
    kind=st.sampled_from(("asymmetry", "negative_eigenvalue", "uncertainty", "trace_bound")),
    log_size=st.floats(-13.0, 0.0),
)
def test_validate_matches_the_margin_reference_on_planted_violations(cov, kind, log_size):
    planted = _plant(cov.matrix, kind, 10.0**log_size)
    report = validate(CovMat(planted))
    expected = _reference_report(planted)
    assert [v.name for v in report] == [name for name, _ in expected]
    for v, (_, magnitude) in zip(report, expected):
        assert v.magnitude == pytest.approx(magnitude, rel=1e-12)


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


def test_mix_states_moment_bookkeeping():
    vac = vacuum_state(1)
    coherent = GaussianState(CovMat(np.eye(2)), [1.2, -0.8])
    mix = mix_states([(0.5, vac), (0.5, coherent)])
    d = np.array([1.2, -0.8])
    assert_allclose(mix.d, 0.5 * d, atol=TOL)
    assert_allclose(mix.cov.matrix, np.eye(2) + 0.25 * np.outer(d, d), atol=TOL)


def test_mix_states_near_the_float_range_returns_the_matrix():
    edge = [[1e308, 0.0], [0.0, 1e-308]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mix = mix_states([(1.0, GaussianState(CovMat(edge)))])
    assert np.array_equal(mix.cov.matrix, edge)


def test_mix_states_names_an_overflowing_mixture():
    # d d^T and d_bar d_bar^T past the float range, and inf - inf between them.
    parts = [(0.5, GaussianState(CovMat(np.eye(2)), [1e200, 0.0])), (0.5, vacuum_state(1))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="mixture covariance matrix overflows float64"):
            mix_states(parts)


def test_mix_states_weight_validation():
    vac = vacuum_state(1)
    with pytest.raises(ValueError):
        mix_states([(0.7, vac), (0.7, vac)])
    with pytest.raises(ValueError):
        mix_states([])
    with pytest.raises(DimensionError):
        mix_states([(0.5, vac), (0.5, vacuum_state(2))])


def test_mix_states_weights_sum_to_one_within_the_rounding_floor():
    # Two components: the floor is (2 + 2)^2 eps = 16 eps, where a fixed 1e-12
    # admitted 4 500 eps, and a NaN weight passed both checks.
    vac = vacuum_state(1)
    assert mix_states([(0.5, vac), (0.5 + 8 * EPS, vac)]).cov.trace == pytest.approx(2.0, abs=TOL)
    for weights in ((0.5, 0.5 + 32 * EPS), (math.nan, 1.0), (0.5, math.nan), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="mixture weights must be nonnegative and sum to 1"):
            mix_states([(w, vac) for w in weights])


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


def _ulps_away(x: float, k: int) -> float:
    """The float k ulps from x, away from zero for k > 0 (through the bit pattern)."""
    bits = np.array(abs(x)).view(np.int64) + k
    return math.copysign(float(bits.view(np.float64)), x)


def test_the_scalar_gap_verdict_is_the_array_verdict():
    # The verdict on two Python floats makes no numpy call; it must equal the
    # array form, _max_gap against rounding_floor on 0-d arrays, on pairs from
    # 1 to 2^16 ulps apart either way, in both orders, at magnitudes from
    # 1e-300 to 1e300 of both signs (powers of two among them, where a step
    # down halves the ulp and the larger magnitude's floor decides), and from
    # +-0.0 to the subnormals next to it.
    steps = sorted({s for j in range(17) for s in (2**j - 1, 2**j, 2**j + 1) if 1 <= s <= 2**16})
    mags = [float(x) for x in 10.0 ** np.linspace(-300.0, 300.0, 13)] + [2.0**j for j in range(-990, 997, 165)]
    pairs = [(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    for sign in (1.0, -1.0):
        pairs += [(sign * 0.0, sign * k * 5e-324) for k in steps]
        for mag in mags:
            a = sign * mag
            pairs += [(a, _ulps_away(a, k)) for k in steps] + [(a, _ulps_away(a, -k)) for k in steps]
    for n in (1, 2, 4, 8):
        verdicts = set()
        for a, b in pairs + [(b, a) for a, b in pairs]:
            x, y = np.array(a), np.array(b)
            floor = gaussian_core.rounding_floor(n, max(np.max(np.abs(x)), np.max(np.abs(y))))
            expected = bool(gaussian_core._max_gap(x, y) > floor)
            verdict = gaussian_core._gap_exceeds_floor(a, b, n)
            assert verdict is expected, (a, b, n)
            assert gaussian_core._gap_exceeds_floor(x, y, n) is expected
            verdicts.add(verdict)
        assert verdicts == {True, False}
