"""The read side derives each quantity of a CovMat once, and each equals its plain formula bit for bit."""

from __future__ import annotations

import warnings
from collections import Counter

import numpy as np
import pytest

from sympcoh import (
    CovMat,
    GaussianState,
    NumericError,
    apply_loss,
    coherence_discord_relation_check,
    coherence_report,
    geometric_discord,
    is_pure,
    mix_states,
    sample_pure_cm,
    symplectic_coherence,
    symplectic_eigenvalues,
    to_density,
    validate,
)
from sympcoh.coherence import closest_free_cm
from sympcoh.discord_map import DiscordImage
from sympcoh.gaussian_core import _SAFE_SQ_ROOT, symmetric_part, symplectic_form
from conftest import BASE_SEED

MODES = (1, 2, 4, 8, 16)
KINDS = ("pure", "lossy", "mixed")


def panel_state(m: int, trace: float, kind: str, rng: np.random.Generator) -> CovMat:
    """A valid state of covariance trace ``trace`` (within rounding)."""
    if kind == "pure":
        return sample_pure_cm(trace, m, "unitary", rng)
    if kind == "lossy":
        eta = float(rng.uniform(0.2, 0.9))
        return apply_loss(sample_pure_cm((trace - (1.0 - eta) * 2 * m) / eta, m, "unitary", rng), eta)
    w = float(rng.uniform(0.2, 0.8))
    parts = [(w, GaussianState(sample_pure_cm(trace, m, "unitary", rng))),
             (1.0 - w, GaussianState(sample_pure_cm(trace, m, "unitary", rng)))]
    return mix_states(parts).cov


def panel() -> list[tuple[str, CovMat, float]]:
    rng = np.random.default_rng(BASE_SEED)
    cases = []
    for m in MODES:
        for trace in (2.0 * m + 1.0, 4.0 * m + 8.0, 1e3, 1e5, 1e8):
            for kind in KINDS:
                cases.append((f"m{m}-{trace:g}-{kind}", panel_state(m, trace, kind, rng),
                              float(rng.uniform(0.1, 0.9))))
    return cases


PANEL = panel()


def same(a, b) -> bool:
    """Bitwise equality of two floats or two float arrays, shape included."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name, cov, eta", PANEL, ids=[case[0] for case in PANEL])
def test_every_read_equals_its_plain_formula(name, cov, eta):
    assert validate(cov) == []
    v, m = np.array(cov.matrix), cov.m
    trace = float(np.trace(v))
    xp = v[:m, m:].copy()
    coherence = float(np.sum(xp * xp))
    free = v.copy()
    free[:m, m:] = free[m:, :m] = 0.0
    diff = v - free
    rho = v / trace
    off = rho[:m, m:]
    rescaled = trace * off

    report = coherence_report(cov)
    assert same(report.coherence, coherence)
    assert same(symplectic_coherence(cov), coherence)
    assert same(report.hs_distance_sq_to_free, float(np.sum(diff * diff)))
    assert same(report.closest_free.matrix, free)
    image = to_density(cov)
    assert same(image.rho, rho) and same(image.c_scale, trace) and image.m == m
    assert same(geometric_discord(image), float(2.0 * np.sum(off * off)))
    rel = coherence_discord_relation_check(cov)
    assert same(rel.coherence, coherence)
    assert same(rel.discord, float(2.0 * np.sum(off * off)))
    assert same(rel.residual, abs(coherence - float(np.sum(rescaled * rescaled))))
    assert same(apply_loss(cov, eta).matrix, eta * v + (1.0 - eta) * np.eye(2 * m))


def test_each_quantity_of_a_covmat_is_computed_once(monkeypatch):
    traced = Counter()
    trace = np.trace

    def counted(a, *args, **kwargs):
        traced[id(a)] += 1
        return trace(a, *args, **kwargs)

    monkeypatch.setattr(np, "trace", counted)
    cov = sample_pure_cm(40.0, 4, "unitary", np.random.default_rng(BASE_SEED))
    for _ in range(3):
        validate(cov)
        is_pure(cov)
        symplectic_eigenvalues(cov)
        coherence_report(cov)
        coherence_discord_relation_check(cov)
        apply_loss(cov, 0.5)
        image = to_density(cov)
        assert to_density(cov) is image
    # one trace of V, and one of its image's rho (the unit-trace check), however often it is read
    assert traced == {id(cov.matrix): 1, id(image.rho): 1}
    assert not image.rho.flags.writeable
    with pytest.raises(ValueError):
        image.rho[0, 0] = 0.0


def test_the_geometric_discord_of_an_image_is_computed_once(monkeypatch):
    cached = DiscordImage.__dict__["geometric_discord"]
    calls = Counter()
    compute = cached.func

    def counted(image):
        calls[id(image)] += 1
        return compute(image)

    monkeypatch.setattr(cached, "func", counted)
    cov = sample_pure_cm(40.0, 4, "unitary", np.random.default_rng(BASE_SEED))
    image = to_density(cov)
    off = image.off_block
    for _ in range(3):
        # the state audit: the discord, then the relation check, which reads it too
        assert same(geometric_discord(image), float(2.0 * np.sum(off * off)))
        assert same(coherence_discord_relation_check(cov).discord, geometric_discord(image))
    assert calls == {id(image): 1}


@pytest.mark.parametrize(
    "matrix",
    [
        [[1.0, 1e200], [1e200, 1.0]],  # trace 2: the old trace guard let it through
        [[-1e200, 5e199], [5e199, 1e200]],  # trace 0
        [[1e200, 5e199], [5e199, 1e200]],  # valid
    ],
)
def test_sums_of_squares_past_the_float_range_raise_no_warning_first(matrix):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cov = CovMat(matrix)
        for measure in (symplectic_coherence, coherence_report):
            with pytest.raises(NumericError, match=r"symplectic coherence .* overflows float64"):
                measure(cov)


def test_sums_of_squares_below_the_float_range_take_no_guard(monkeypatch):
    # Any matrix whose entries are at most sqrt(float max) / 2 over its block
    # size is summed with no errstate; the bound holds whatever its trace.
    def no_errstate(**_):
        raise AssertionError("errstate on the fast path")

    monkeypatch.setattr(np, "errstate", no_errstate)
    peak = _SAFE_SQ_ROOT / 4
    cov = CovMat([[-peak, peak], [peak, peak]])
    assert same(symplectic_coherence(cov), peak * peak)
    assert same(coherence_report(cov).hs_distance_sq_to_free, 2 * peak * peak)


ADOPT_ETAS = (0.0, 5e-324, 0.5, 1.0 - 2.0**-53, 1.0)


def adopt_panel() -> list[np.ndarray]:
    """Symmetric matrices at m = 1, 2, 4 with peaks up to and past the
    ``1e300 / n`` edge of ``_as_cm_array``, some with negative diagonals."""
    rng = np.random.default_rng(BASE_SEED)
    out = []
    for m in (1, 2, 4):
        n = 2 * m
        edge = 1e300 / n
        for scale in (1.0, 1e8, np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf), 1e307):
            for signs in (1.0, -1.0):
                r = rng.uniform(-1.0, 1.0, (n, n))
                r = 0.5 * (r + r.T)
                np.fill_diagonal(r, signs * rng.choice([1.0, -1.0], n) if signs < 0 else 1.0)
                out.append(scale * r)
    out.append(np.array([[1e200, 5e199], [5e199, 1e200]]))
    return out


@pytest.mark.parametrize("eta", ADOPT_ETAS)
def test_the_adopted_loss_output_is_the_checked_one(eta):
    # apply_loss adopts its fresh output with no copy and no scan: the bytes
    # are those of the checked CovMat, _peak bounds every entry, and a
    # coherence past the float range is still a named error with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in adopt_panel():
            cov = CovMat(v)
            out = apply_loss(cov, eta)
            n = v.shape[0]
            checked = CovMat(eta * cov.matrix + (1.0 - eta) * np.eye(n))
            assert same(out.matrix, checked.matrix) and out.m == checked.m
            assert not out.matrix.flags.writeable
            assert out._peak >= np.abs(out.matrix).max()
            assert np.isfinite(out.trace)
            m = out.m
            xp = out.matrix[:m, m:]
            with np.errstate(over="ignore"):
                expected = float(np.sum(xp * xp))
            if np.isfinite(expected):
                assert same(symplectic_coherence(out), expected)
            else:
                with pytest.raises(NumericError, match=r"symplectic coherence .* overflows float64"):
                    symplectic_coherence(out)


SPECTRUM_MODES = (1, 2, 3, 4, 8, 16)


def spectrum_panel() -> list[CovMat]:
    rng = np.random.default_rng(BASE_SEED)
    covs = [panel_state(m, trace, kind, rng)
            for m in SPECTRUM_MODES
            for trace in (2.0 * m + 1.0, 4.0 * m + 8.0, 1e3, 1e5, 1e8)
            for kind in KINDS]
    lopsided = np.array(covs[-1].matrix)
    lopsided[0, 1] += 1e-3  # both solves read the symmetric part
    a = float.fromhex("0x1.d1a94a1fffff8p+38")
    return covs + [CovMat([[2.0, 1e-3], [0.0, 2.0]]), CovMat(lopsided),
                   CovMat([[a, -a], [-a, a]])]  # exactly singular: its Cholesky fails


def test_the_stacked_spectra_equal_two_separate_solves_bit_for_bit():
    # One eigvalsh call on the stacked pair solves each matrix as a call of its own.
    branches = Counter()
    for cov in spectrum_panel():
        m = cov.m
        sym = symmetric_part(cov.matrix)
        nu, uncertainty = cov._spectra
        assert same(uncertainty, np.linalg.eigvalsh(sym + 1j * symplectic_form(m)))
        try:
            low = np.linalg.cholesky(sym)
        except np.linalg.LinAlgError:
            assert nu is None
            branches["alone"] += 1
            continue
        a = low[:m].T @ low[m:]
        assert same(nu, np.linalg.eigvalsh(1j * (a - a.T))[m:][::-1])
        assert not nu.flags.writeable
        branches["stacked"] += 1
    assert branches["alone"] >= 1 and branches["stacked"] >= 1


def check_adopted(derived: np.ndarray, source: CovMat) -> None:
    assert not derived.flags.writeable
    assert not np.shares_memory(derived, source.matrix)


@pytest.mark.parametrize("name, cov, eta", PANEL, ids=[case[0] for case in PANEL])
def test_the_adopted_free_matrix_and_image_are_private_and_read_only(name, cov, eta):
    free = coherence_report(cov).closest_free
    check_adopted(free.matrix, cov)
    assert free._peak >= np.abs(free.matrix).max()
    image = to_density(cov)
    check_adopted(image.rho, cov)
    # a valid V has |V_ij| <= Tr V, so its image is finite and at most 1 in size
    assert np.abs(image.rho).max() <= 1.0


def test_the_adopted_free_matrix_is_the_checked_one():
    # closest_free_cm adopts its copy with V's bound, on any CovMat, across the 1e300 / n edge
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in adopt_panel():
            cov = CovMat(v)
            free = closest_free_cm(cov)
            checked = CovMat(free.matrix)
            assert same(free.matrix, checked.matrix) and free.m == checked.m
            assert free._peak == cov._peak >= np.abs(free.matrix).max()
            check_adopted(free.matrix, cov)


def ulps_from(x: float, k: int) -> float:
    """The float k units in the last place above (k > 0) or below (k < 0) a positive x."""
    return float((np.array(x).view(np.int64) + k).view(np.float64))


def test_the_purity_verdict_equals_the_numpy_formula_at_the_floor():
    m = 2
    floor = CovMat(np.eye(2 * m)).floor
    steps = [sign * 2**j for j in range(17) for sign in (1, -1)] + [0]
    values = [ulps_from(floor, k) for k in steps]
    for x in values:
        for lead in ([x, 0.0], [0.0, -x], [-x, x], [x, ulps_from(floor, -1)]):
            spectrum = np.array(lead + [2.0, 3.0])
            cov = CovMat(np.eye(2 * m))
            cov.__dict__["_spectra"] = (None, spectrum)
            expected = float(np.max(np.abs(spectrum[:m]))) <= cov.floor
            assert is_pure(cov) is expected
            assert expected == (abs(x) <= floor)
    for lead in ([np.nan, 0.0], [0.0, np.nan], [np.nan, np.nan], [-np.nan, floor]):
        cov = CovMat(np.eye(2 * m))
        cov.__dict__["_spectra"] = (None, np.array(lead + [2.0, 3.0]))
        assert is_pure(cov) is False  # a NaN is never within the floor, in any position
