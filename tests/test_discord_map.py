"""Normalized-matrix image of a state and its discord-style measure."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sympcoh import (
    CovMat,
    DiscordImage,
    GaussianState,
    ValidationError,
    apply,
    block_orthogonal,
    coherence_discord_relation_check,
    from_density,
    geometric_discord,
    haar_orthogonal,
    is_classical_quantum,
    msc_canonical,
    phase_shifter,
    squeezer,
    symplectic_coherence,
    symplectic_form,
    to_density,
    vacuum_state,
)
from conftest import random_valid_cov

TOL = 1e-9


def test_vacuum_images():
    image = to_density(vacuum_state(1).cov)
    assert_allclose(image.rho, np.eye(2) / 2.0, atol=1e-15)
    assert image.c_scale == pytest.approx(2.0)
    image2 = to_density(vacuum_state(2).cov)
    assert_allclose(image2.rho, np.eye(4) / 4.0, atol=1e-15)


def test_msc_image_off_block():
    state = msc_canonical(6.0, 1)
    image = to_density(state.cov)
    assert image.c_scale == pytest.approx(6.0)
    assert image.off_block[0, 0] == pytest.approx(
        state.cov.matrix[0, 1] / 6.0, abs=1e-15
    )


def test_image_invariants(rng):
    for _ in range(50):
        m = int(rng.integers(1, 4))
        cov = random_valid_cov(rng, m)
        image = to_density(cov)
        assert np.trace(image.rho) == pytest.approx(1.0, abs=1e-12)
        eigvals = np.linalg.eigvalsh(image.rho)
        assert eigvals.min() > 0
        omega = symplectic_form(m)
        scaled = image.c_scale * image.rho + 1j * omega
        assert np.linalg.eigvalsh((scaled + scaled.conj().T) / 2).min() > -TOL
        assert image.c_scale >= 2 * m


def test_image_requires_valid_state():
    bad = GaussianState(CovMat(0.1 * np.eye(2)))
    with pytest.raises(ValidationError):
        to_density(bad.cov)


def test_from_density_roundtrip(rng):
    for _ in range(20):
        m = int(rng.integers(1, 4))
        cov = random_valid_cov(rng, m)
        image = to_density(cov)
        back = from_density(image, image.c_scale)
        assert_allclose(back.matrix, cov.matrix, atol=1e-10)


def test_from_density_with_larger_scale_is_valid(rng):
    cov = random_valid_cov(rng, 2)
    image = to_density(cov)
    doubled = from_density(image, 2 * image.c_scale)
    assert doubled.trace == pytest.approx(2 * image.c_scale, abs=1e-9)


def test_from_density_with_small_scale_rejected():
    image = to_density(vacuum_state(1).cov)
    with pytest.raises(ValidationError):
        from_density(image, image.c_scale / 2.0)


def test_image_constructor_checks_trace():
    with pytest.raises(ValueError):
        DiscordImage(m=1, rho=np.eye(2), c_scale=2.0)


def test_image_copies_the_callers_array():
    a = np.diag([0.75, 0.25])
    image = DiscordImage(m=1, rho=a, c_scale=2.0)
    assert a.flags.writeable
    a[0, 0] = 0.5
    assert image.rho[0, 0] == 0.75
    with pytest.raises(ValueError):
        image.rho[0, 0] = 0.0


def test_geometric_discord_values():
    assert geometric_discord(to_density(vacuum_state(2).cov)) == 0.0
    r = 0.5
    gate = squeezer(1, 1, r)
    rotated = apply(phase_shifter(1, 1, np.pi / 4), apply(gate, vacuum_state(1)))
    image = to_density(rotated.cov)
    assert geometric_discord(image) == pytest.approx(
        np.tanh(2 * r) ** 2 / 2.0, abs=1e-12
    )
    assert geometric_discord(to_density(msc_canonical(6.0, 1).cov)) == pytest.approx(
        4.0 / 9.0, abs=1e-12
    )


def test_geometric_discord_upper_bound(rng):
    for _ in range(200):
        m = int(rng.integers(1, 4))
        cov = random_valid_cov(rng, m)
        assert geometric_discord(to_density(cov)) <= 0.5 + 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("extra", [1.0, 100.0])
def test_extremal_states_stay_strictly_below_half(m, extra):
    image = to_density(msc_canonical(2 * m + extra, m).cov)
    assert geometric_discord(image) < 0.5


def test_classical_quantum_detection(rng):
    assert is_classical_quantum(to_density(vacuum_state(2).cov))
    thermal = GaussianState(CovMat(np.diag([3.0, 2.0, 1.5, 1.0])))
    assert is_classical_quantum(to_density(thermal.cov))
    assert not is_classical_quantum(to_density(msc_canonical(6.0, 1).cov))


def test_relation_exact_examples():
    for state in [vacuum_state(2), msc_canonical(6.0, 1), msc_canonical(10.0, 2)]:
        check = coherence_discord_relation_check(state.cov)
        assert check.residual <= 1e-12


def test_relation_on_random_states(rng):
    for _ in range(100):
        m = int(rng.integers(1, 4))
        state = GaussianState(random_valid_cov(rng, m))
        check = coherence_discord_relation_check(state.cov)
        assert check.residual <= 1e-9
        assert check.coherence == pytest.approx(
            symplectic_coherence(state.cov), abs=1e-12
        )


def test_local_rotation_acts_as_kron_conjugation(rng):
    # A mode rotation applied to the state matches conjugating the image by
    # the corresponding block matrix, so the measure is invariant.
    for _ in range(20):
        m = int(rng.integers(1, 4))
        state = GaussianState(random_valid_cov(rng, m))
        o = haar_orthogonal(m, rng)
        rotated = apply(block_orthogonal(o), state)
        big = np.kron(np.eye(2), o)
        direct = big @ to_density(state.cov).rho @ big.T
        assert_allclose(to_density(rotated.cov).rho, direct, atol=1e-12)
        assert geometric_discord(to_density(rotated.cov)) == pytest.approx(
            geometric_discord(to_density(state.cov)), abs=1e-12
        )
