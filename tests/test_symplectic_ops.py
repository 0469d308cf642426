"""Gates, channels, tensor plumbing, dilations, and Haar samplers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from sympcoh import (
    CovMat,
    DimensionError,
    GateError,
    GaussianState,
    IdentityChannel,
    LossChannel,
    StinespringChannel,
    SympGate,
    apply,
    apply_loss,
    beamsplitter_orthogonal,
    block_orthogonal,
    compose,
    derive_rng,
    displacement,
    haar_orthogonal,
    haar_unitary,
    is_free,
    is_symplectic,
    orthogonal_stinespring,
    partial_trace,
    passive_from_unitary,
    phase_shifter,
    pure_cm,
    squeezer,
    symplectic_coherence,
    tensor_cm,
    tensor_states,
    vacuum_state,
)
from sympcoh import applications, coherence, ensembles, symplectic_ops
from sympcoh.symplectic_ops import (
    BLOCK_ENTRIES,
    block_samples,
    ginibre_batch,
    haar_from_ginibre,
    haar_unitary_batch,
    mean_stderr,
    pure_draw,
    pure_param_blocks,
    sample_d_batch,
)
from conftest import random_valid_cov

TOL = 1e-12


def test_derive_rng_is_deterministic_per_index():
    a = derive_rng(123, 7).standard_normal(5)
    b = derive_rng(123, 7).standard_normal(5)
    c = derive_rng(123, 8).standard_normal(5)
    assert_allclose(a, b, atol=0)
    assert np.any(a != c)


def test_derive_rng_streams_do_not_collide():
    def first(seed, index):
        return derive_rng(seed, index).standard_normal(4)

    assert np.any(first(0, 1) != first(1, 0))  # shared under seed XOR index
    # shared if (seed, index) were hashed as a zero-padded entropy list
    assert np.any(first(5, 3) != first(5 + 3 * 2**32, 0))
    assert_array_equal(first(-1, 2), first(2**64 - 1, 2))


def test_every_driver_derives_one_generator_per_block(monkeypatch):
    calls = []

    def counting(seed, index):
        calls.append(index)
        return derive_rng(seed, index)

    monkeypatch.setattr(symplectic_ops, "derive_rng", counting)

    def count(run) -> int:
        calls.clear()
        run()
        return len(calls)

    pure_blocks = math.ceil(300 / block_samples(2))
    config = ensembles.EnsembleConfig(m=2, E=8.0, n_samples=300, seed=1, kind="unitary")
    assert count(lambda: ensembles.ensemble_nu_sq(config)) == pure_blocks
    assert count(lambda: coherence.numeric_max_search(8.0, 2, 300, 1)) == pure_blocks
    disc = applications.DiscriminationConfig(
        probe=coherence.msc_canonical(6.0, 1),
        channels=(LossChannel(0.5), LossChannel(0.6)),
        delta=0.1,
        n_samples=300,
        trials=500,
        seed=1,
    )
    disc_blocks = math.ceil(500 / (BLOCK_ENTRIES // 300))
    assert count(lambda: applications.run_discrimination(disc)) == disc_blocks
    haar_blocks = len(ensembles.KINDS) * math.ceil(1000 / block_samples(2))
    assert count(lambda: ensembles.haar_moment_check(2, 1000, derive_rng(1, 0))) == haar_blocks


def test_mean_stderr_is_the_plain_formula_and_finite_near_the_float_range(rng):
    for n in (2, 7, 300):
        for scale in (1e-100, 1e-3, 1.0, 1e5, 1e100):
            values = scale * (3.0 + rng.standard_normal(n))
            se = np.std(values, ddof=1) / np.sqrt(n)
            assert mean_stderr(values) == (float(np.mean(values)), float(se))
    assert mean_stderr(np.array([2.5])) == (2.5, 0.0)
    assert mean_stderr(np.zeros(4)) == (0.0, 0.0)
    mean, se = mean_stderr(np.array([1e300, 3e300, 5e300]))
    assert mean == pytest.approx(3e300, rel=1e-15)
    assert se == pytest.approx(2e300 / np.sqrt(3), rel=1e-15)


def test_sample_d_batch_redraws_a_zero_row():
    class ZeroRowFirst:
        """Generator stand-in whose first draw has an all-zero row."""

        def __init__(self):
            self.rng, self.calls = derive_rng(3, 0), 0

        def standard_normal(self, shape):
            g = self.rng.standard_normal(shape)
            self.calls += 1
            if self.calls == 1:
                g[1] = 0.0
            return g

    d = sample_d_batch(8.0, 2, 4, ZeroRowFirst())
    assert np.all(np.isfinite(d)) and np.all(d >= 1.0)
    assert_allclose(np.sum(d + 1.0 / d, axis=1), 8.0, atol=1e-12)
    assert_array_equal(d, sample_d_batch(8.0, 2, 4, ZeroRowFirst()))


def test_constructors_are_symplectic(rng):
    m = 3
    gates = [
        squeezer(m, 2, 0.8),
        phase_shifter(m, 1, 0.3),
        block_orthogonal(haar_orthogonal(m, rng)),
        passive_from_unitary(*haar_unitary(m, rng)),
        displacement(rng.normal(size=2 * m)),
    ]
    for gate in gates:
        assert is_symplectic(gate.S)


def test_sympgate_rejects_nonsymplectic():
    with pytest.raises(GateError):
        SympGate(2.0 * np.eye(2))
    with pytest.raises(DimensionError):
        SympGate(np.eye(2), disp=[1.0, 2.0, 3.0])


def test_gates_take_their_mode_count_from_the_matrix():
    assert SympGate(np.eye(4)).m == 2
    assert_array_equal(SympGate(np.eye(4)).disp, np.zeros(4))
    gate = displacement([1.0, 2.0, 3.0, 4.0])
    assert gate.m == 2
    assert_array_equal(gate.S, np.eye(4))
    for bad in (np.eye(3), np.zeros((2, 4)), np.ones(4), np.zeros((0, 0))):
        with pytest.raises(DimensionError):
            SympGate(bad)
    for bad in ([1.0, 2.0, 3.0], []):
        with pytest.raises(DimensionError):
            displacement(bad)


def test_gate_constructor_input_checks(rng):
    with pytest.raises(GateError):
        squeezer(2, 3, 0.1)
    with pytest.raises(GateError):
        block_orthogonal(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(GateError):
        passive_from_unitary(np.eye(2), np.eye(2))
    with pytest.raises(DimensionError):
        displacement([1.0])


def test_squeezer_action_on_vacuum():
    out = apply(squeezer(1, 1, 0.5), vacuum_state(1))
    assert_allclose(out.cov.matrix, np.diag([np.e, 1 / np.e]), atol=TOL)


def test_phase_shifter_quarter_turn_swaps_quadratures():
    sq = apply(squeezer(1, 1, 0.5), vacuum_state(1))
    out = apply(phase_shifter(1, 1, np.pi / 2), sq)
    assert_allclose(out.cov.matrix, np.diag([1 / np.e, np.e]), atol=1e-10)


def test_compose_matches_sequential_application(rng):
    state = GaussianState(random_valid_cov(rng, 2), rng.normal(size=4))
    g1 = squeezer(2, 1, 0.4)
    g2 = compose(block_orthogonal(haar_orthogonal(2, rng)), displacement([1, 0, 0, -1]))
    seq = apply(g2, apply(g1, state))
    fused = apply(compose(g2, g1), state)
    assert_allclose(fused.cov.matrix, seq.cov.matrix, atol=1e-10)
    assert_allclose(fused.d, seq.d, atol=1e-10)


def test_apply_transforms_first_moments(rng):
    state = GaussianState(CovMat(np.eye(2)), [1.0, 2.0])
    gate = SympGate(np.diag([2.0, 0.5]), disp=[0.5, -0.5])
    out = apply(gate, state)
    assert_allclose(out.d, [2.5, 0.5], atol=TOL)


def test_pure_cm_matches_gate_action(rng):
    m = 2
    gate = passive_from_unitary(*haar_unitary(m, rng))
    r = rng.uniform(-0.6, 0.6, size=m)
    direct = CovMat(pure_cm(gate.S[:m, :m], gate.S[:m, m:], np.exp(2 * r)))
    core = CovMat(np.diag(np.concatenate([np.exp(2 * r), np.exp(-2 * r)])))
    via_apply = apply(gate, GaussianState(core))
    assert_allclose(direct.matrix, via_apply.cov.matrix, atol=1e-10)


@pytest.mark.parametrize("m", [1, 3, 8])
def test_pure_cm_kernel(rng, m):
    draws = [(*haar_unitary(m, rng), 1.0 + rng.exponential(2.0, size=m)) for _ in range(5)]
    x, y, d = (np.stack(a) for a in zip(*draws))
    batched = pure_cm(x, y, d)
    assert batched.shape == (5, 2 * m, 2 * m)
    assert_array_equal(batched, np.swapaxes(batched, -1, -2))
    for k, (xk, yk, dk) in enumerate(draws):
        single = pure_cm(xk, yk, dk)
        assert_allclose(batched[k], single, rtol=0, atol=1e-13 * np.max(np.abs(single)))
        core = CovMat(np.diag(np.concatenate([dk, 1.0 / dk])))
        via_apply = apply(passive_from_unitary(xk, yk), GaussianState(core))
        assert_allclose(single, via_apply.cov.matrix, atol=1e-10)
    o = np.stack([haar_orthogonal(m, rng) for _ in range(5)])
    free = pure_cm(o, np.zeros_like(o), d)
    assert np.all(free[:, :m, m:] == 0.0)


def test_loss_endpoints_and_first_moments(rng):
    state = GaussianState(random_valid_cov(rng, 2), rng.normal(size=4))
    assert_allclose(LossChannel(1.0).apply_to(state).cov.matrix, state.cov.matrix, atol=0)
    zero = LossChannel(0.0).apply_to(state)
    assert_allclose(zero.cov.matrix, np.eye(4), atol=TOL)
    assert_allclose(zero.d, np.zeros(4), atol=TOL)
    eta = 0.37
    out = LossChannel(eta).apply_to(state)
    assert_allclose(out.d, np.sqrt(eta) * state.d, atol=TOL)
    assert_allclose(out.cov.matrix, eta * state.cov.matrix + (1 - eta) * np.eye(4), atol=TOL)


def test_loss_channel_object_matches_function(rng):
    state = GaussianState(random_valid_cov(rng, 1))
    assert_allclose(
        LossChannel(0.6).apply_to(state).cov.matrix,
        apply_loss(state.cov, 0.6).matrix,
        atol=0,
    )
    assert IdentityChannel().apply_to(state) is state
    with pytest.raises(ValueError):
        LossChannel(1.2)


def test_tensor_keeps_qqpp_ordering():
    sq = apply(squeezer(1, 1, 0.5), vacuum_state(1))
    both = tensor_states(sq, vacuum_state(1))
    expected = np.diag([np.e, 1.0, 1 / np.e, 1.0])
    assert_allclose(both.cov.matrix, expected, atol=TOL)


def test_tensor_cm_is_the_block_placed_reordered_direct_sum(rng):
    # Built from the blocks, in (q_A q_B p_A p_B) order: the reorder is exact.
    for m_a, m_b in [(1, 1), (1, 3), (2, 2), (3, 1)]:
        a, b = random_valid_cov(rng, m_a), random_valid_cov(rng, m_b)
        va, vb = a.matrix, b.matrix
        zab = np.zeros((m_a, m_b))
        expected = np.block([
            [va[:m_a, :m_a], zab, va[:m_a, m_a:], zab],
            [zab.T, vb[:m_b, :m_b], zab.T, vb[:m_b, m_b:]],
            [va[m_a:, :m_a], zab, va[m_a:, m_a:], zab],
            [zab.T, vb[m_b:, :m_b], zab.T, vb[m_b:, m_b:]],
        ])
        assert_array_equal(tensor_cm(a, b).matrix, expected)
        da, db = rng.normal(size=2 * m_a), rng.normal(size=2 * m_b)
        joint = tensor_states(GaussianState(a, da), GaussianState(b, db))
        assert_array_equal(joint.cov.matrix, expected)
        assert_array_equal(joint.d, np.concatenate([da[:m_a], db[:m_b], da[m_a:], db[m_b:]]))


def test_partial_trace_inverts_tensor(rng):
    a = GaussianState(random_valid_cov(rng, 2), rng.normal(size=4))
    b = GaussianState(random_valid_cov(rng, 1), rng.normal(size=2))
    joint = tensor_states(a, b)
    back_a = partial_trace(joint, [1, 2])
    back_b = partial_trace(joint, [3])
    assert_allclose(back_a.cov.matrix, a.cov.matrix, atol=0)
    assert_allclose(back_a.d, a.d, atol=0)
    assert_allclose(back_b.cov.matrix, b.cov.matrix, atol=0)


def test_partial_trace_rejects_bad_modes(rng):
    state = GaussianState(random_valid_cov(rng, 2))
    with pytest.raises(DimensionError):
        partial_trace(state, [0])
    with pytest.raises(DimensionError):
        partial_trace(state, [1, 1])


def test_beamsplitter_dilation_realizes_loss(rng):
    eta = 0.55
    state = GaussianState(random_valid_cov(rng, 1), rng.normal(size=2))
    dilated = orthogonal_stinespring(
        state, beamsplitter_orthogonal(eta), vacuum_state(1).cov
    )
    direct = LossChannel(eta).apply_to(state)
    assert_allclose(dilated.cov.matrix, direct.cov.matrix, atol=1e-10)
    assert_allclose(dilated.d, direct.d, atol=1e-10)


def test_stinespring_channel_object(rng):
    eta = 0.8
    channel = StinespringChannel(beamsplitter_orthogonal(eta), vacuum_state(1).cov)
    state = GaussianState(random_valid_cov(rng, 1))
    assert_allclose(
        channel.apply_to(state).cov.matrix, apply_loss(state.cov, eta).matrix, atol=1e-10
    )


def test_stinespring_rejects_correlated_environment():
    env = CovMat(np.array([[2.0, 0.5], [0.5, 2.0]]))
    with pytest.raises(GateError):
        orthogonal_stinespring(vacuum_state(1), beamsplitter_orthogonal(0.5), env)


@pytest.mark.parametrize("xp, free", [(5e-11, True), (2e-10, False)])
def test_stinespring_environment_check_agrees_with_is_free(xp, free):
    env = CovMat(np.array([[1.0, xp], [xp, 1.0]]))
    assert is_free(env) is free
    o = beamsplitter_orthogonal(0.5)
    if free:
        out = orthogonal_stinespring(vacuum_state(1), o, env)
        assert_allclose(out.cov.matrix, np.eye(2), atol=1e-10)
    else:
        with pytest.raises(GateError, match="not free"):
            orthogonal_stinespring(vacuum_state(1), o, env)


def test_stinespring_displacement_lands_on_the_kept_modes():
    # m = 1 plus one vacuum environment mode: d in qqpp order is (q1, q2, p1, p2).
    out = orthogonal_stinespring(
        vacuum_state(1), beamsplitter_orthogonal(0.5), vacuum_state(1).cov, d=[1.0, 2.0, 3.0, 4.0]
    )
    assert_array_equal(out.d, [1.0, 3.0])
    assert_allclose(out.cov.matrix, np.eye(2), atol=1e-12)
    assert not symplectic_ops.is_orthogonal(np.ones((2, 3)))
    assert not symplectic_ops.is_orthogonal(np.ones(4))
    assert not is_symplectic(np.eye(3))
    assert not is_symplectic(np.ones((2, 4)))


def test_loss_scales_coherence_quadratically(rng):
    for _ in range(20):
        m = int(rng.integers(1, 4))
        cov = random_valid_cov(rng, m)
        eta = float(rng.uniform())
        assert symplectic_coherence(apply_loss(cov, eta)) == pytest.approx(
            eta**2 * symplectic_coherence(cov), abs=1e-12, rel=1e-12
        )


def test_haar_samplers_produce_orthogonal_unitary(rng):
    for m in (1, 2, 5):
        o = haar_orthogonal(m, rng)
        assert_allclose(o @ o.T, np.eye(m), atol=1e-10)
        x, y = haar_unitary(m, rng)
        u = x + 1j * y
        assert_allclose(u @ u.conj().T, np.eye(m), atol=1e-10)


@pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
def test_haar_unitary_batch_keeps_the_bytes_of_the_plain_formula(m):
    for seed in range(50):
        rng, ref_rng = derive_rng(seed, m), derive_rng(seed, m)
        z = (
            ref_rng.standard_normal((9, m, m)) + 1j * ref_rng.standard_normal((9, m, m))
        ) / np.sqrt(2.0)
        q, r = np.linalg.qr(z)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        phases = diag / np.abs(diag)
        want = q * phases[:, None, :]
        got = haar_unitary_batch(m, 9, rng)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
def test_haar_orthogonal_batch_keeps_the_bytes_of_the_plain_formula(m):
    for seed in range(50):
        rng, ref_rng = derive_rng(seed, m), derive_rng(seed, m)
        q, r = np.linalg.qr(ref_rng.standard_normal((9, m, m)))
        signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
        signs[signs == 0] = 1.0
        want = q * signs[:, None, :]
        got = haar_from_ginibre(ginibre_batch(m, 9, rng, real=True))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 2, 8, 16])
@pytest.mark.parametrize("real", [True, False], ids=["orthogonal", "unitary"])
def test_haar_first_column_is_the_normalised_ginibre_column(m, real):
    for seed in range(20):
        z = ginibre_batch(m, 9, derive_rng(seed, m), real)
        col = z[:, :, 0]
        want = col / np.linalg.norm(col, axis=1)[:, None]
        got = haar_from_ginibre(ginibre_batch(m, 9, derive_rng(seed, m), real))[:, :, 0]
        assert np.max(np.abs(got - want)) <= 1e-14


def test_haar_batches_match_properties(rng):
    os = haar_from_ginibre(ginibre_batch(3, 8, rng, real=True))
    assert os.shape == (8, 3, 3)
    for o in os:
        assert_allclose(o @ o.T, np.eye(3), atol=1e-10)
    us = haar_unitary_batch(3, 8, rng)
    for u in us:
        assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-10)


@pytest.mark.parametrize("real", [True, False], ids=["orthogonal", "unitary"])
def test_pure_draw_is_spectra_then_one_ginibre_stack(real):
    d, z = pure_draw(derive_rng(2, 0), 5, 12.0, 3, real)
    ref_rng = derive_rng(2, 0)
    assert d.tobytes() == sample_d_batch(12.0, 3, 5, ref_rng).tobytes()
    assert z.tobytes() == ginibre_batch(3, 5, ref_rng, real).tobytes()


@pytest.mark.parametrize("m", [1, 3, 16])
@pytest.mark.parametrize("orthogonal", [True, False], ids=["orthogonal", "unitary"])
def test_pure_param_blocks_are_full_block_draws_cut_at_n(m, orthogonal):
    # Factoring only the kept rows leaves every row's bytes as they are when
    # the whole block is drawn and factored, for n below, at and above a block.
    size, E, seed = block_samples(m), 4.0 * m + 8.0, 41
    for n in (size - 7, size, 2 * size + 5):
        blocks = list(pure_param_blocks(seed, n, E, m, orthogonal))
        assert [start for start, *_ in blocks] == list(range(0, n, size))
        for b, (start, x, y, d) in enumerate(blocks):
            stop = min(size, n - start)
            rng = derive_rng(seed, b)
            want_d = sample_d_batch(E, m, size, rng)[:stop]
            want_u = haar_from_ginibre(ginibre_batch(m, size, rng, orthogonal))[:stop]
            assert x.shape == y.shape == (stop, m, m) and d.shape == (stop, m)
            assert d.tobytes() == want_d.tobytes()
            assert x.tobytes() == want_u.real.tobytes()
            assert y.tobytes() == want_u.imag.tobytes()
            assert not orthogonal or not y.any()


@pytest.mark.parametrize("m", [1, 2, 8])
def test_monte_carlo_drivers_factor_only_the_rows_they_keep(m, monkeypatch):
    sizes = []
    qr = np.linalg.qr

    def recording(z, *args, **kwargs):
        sizes.append((np.iscomplexobj(z), z.shape[0]))
        return qr(z, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording)
    coherence.numeric_max_search(4.0 * m + 8.0, m, 30, 3)
    assert block_samples(m) > 30
    assert sum(n for _, n in sizes) == 30
    if m >= 2:
        sizes.clear()
        ensembles.haar_moment_check(m, 1000, derive_rng(1, 0))
        assert sum(n for c, n in sizes if not c) == 1000
        assert sum(n for c, n in sizes if c) == 1000
