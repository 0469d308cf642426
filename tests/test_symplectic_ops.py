"""Gates, channels, tensor plumbing, dilations, and Haar samplers."""

from __future__ import annotations

import math
import sys
import warnings
from fractions import Fraction

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
    NumericError,
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
    ginibre_from_uniforms,
    haar_from_ginibre,
    haar_unitary_batch,
    pure_xp_block,
    sample_d_batch,
    spectrum_from_weights,
)
from sympcoh.gaussian_core import rounding_floor, symplectic_form
from conftest import (
    exact_residual_sq, fractions, haar_moment_check, mean_stderr, pure_param_blocks, random_valid_cov, record_spectra,
    uniform_rows_after_spectra,
)

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
        trials=140_000,
        seed=1,
    )
    disc_blocks = math.ceil(140_000 / BLOCK_ENTRIES)
    assert count(lambda: applications.run_discrimination(disc)) == disc_blocks
    haar_blocks = len(ensembles.KINDS) * math.ceil(1000 / block_samples(2))
    assert count(lambda: haar_moment_check(2, 1000, derive_rng(1, 0))) == haar_blocks


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
    # Above 2^1023 the scale is that power of two itself, not an infinite 2^1024.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, se = mean_stderr(np.array([1.7e308, 1.6e308, 1.5e308]))
    assert mean == pytest.approx(1.6e308, rel=1e-15)
    assert se == pytest.approx(1e307 / np.sqrt(3), rel=1e-14)


class ZeroRowFirst:
    """Generator stand-in whose first draw has an all-zero row ``row``."""

    def __init__(self, row: int = 1):
        self.rng, self.calls, self.row = derive_rng(3, 0), 0, row

    def standard_normal(self, shape):
        g = self.rng.standard_normal(shape)
        self.calls += 1
        if self.calls == 1:
            g[self.row] = 0.0
        return g


def test_sample_d_batch_redraws_a_zero_row():
    d = sample_d_batch(8.0, 2, 4, ZeroRowFirst())
    assert np.all(np.isfinite(d)) and np.all(d >= 1.0)
    assert_allclose(np.sum(d + 1.0 / d, axis=1), 8.0, atol=1e-12)
    assert_array_equal(d, sample_d_batch(8.0, 2, 4, ZeroRowFirst()))


@pytest.mark.parametrize("m", [1, 2, 8, 16])
def test_sample_d_batch_makes_only_the_kept_spectra_with_the_whole_draws_bytes(m):
    # Every row's normals are drawn and checked for the zero-row redraw, so the
    # stream moves as for the whole draw; the kept rows have the whole draw's bytes.
    n = block_samples(m)
    for E in (2.0 * m + 1e-9, 4.0 * m + 8.0, 1e8, 1.3e154):
        for keep in sorted({k for k in (1, 7, 120, n) if k <= n}):
            rng, ref = derive_rng(59, m), derive_rng(59, m)
            d = sample_d_batch(E, m, n, rng, keep)
            assert d.shape == (keep, m) and d.flags.c_contiguous
            assert d.tobytes() == sample_d_batch(E, m, n, ref)[:keep].tobytes(), (E, keep)
            assert rng.bit_generator.state == ref.bit_generator.state
    # A zero row past the kept ones is still redrawn, from the same generator.
    cut, whole = ZeroRowFirst(row=3), ZeroRowFirst(row=3)
    assert sample_d_batch(8.0, 2, 4, cut, 2).tobytes() == sample_d_batch(8.0, 2, 4, whole)[:2].tobytes()
    assert cut.calls == whole.calls == 2
    assert cut.rng.bit_generator.state == whole.rng.bit_generator.state


def test_in_place_spectrum_has_the_bytes_of_the_closed_form():
    # A seeded fuzz panel: m up to 16, E from just above 2m to the largest E
    # with E^2 finite, zero weights, and weights so small that x^2/4, or x
    # itself, is subnormal.
    rng = derive_rng(61, 0)
    for _ in range(400):
        m = int(rng.integers(1, 17))
        E = float(rng.choice([2.0 * m + 10.0 ** rng.uniform(-12, 0), 10.0 ** rng.uniform(1.5, 153), 1.3e154]))
        E = max(E, 2.0 * m)
        shape = (int(rng.integers(1, 9)), m)
        w = rng.random(shape) * 10.0 ** rng.uniform(-320, 0, shape)
        w[rng.random(shape) < 0.25] = 0.0
        w[:, 0] += w.sum(axis=1) == 0.0
        w /= w.sum(axis=1)[:, None]
        x = (E - 2 * m) * w
        want = 1.0 + x / 2.0 + np.sqrt(x + x * x / 4.0)
        assert symplectic_ops._spectrum(E, w.copy()).tobytes() == want.tobytes(), (E, m)
        before = w.copy()
        assert spectrum_from_weights(E, w).tobytes() == want.tobytes(), (E, m)
        assert w.tobytes() == before.tobytes()  # the checked path works on a copy


@pytest.mark.parametrize("E, m", [(2.5, 1), (12.0, 3), (40.0, 8), (1e8, 4), (1.3e154, 2)])
def test_sample_d_batch_is_the_checked_spectrum_of_its_weights(E, m):
    # The batch skips spectrum_from_weights' checks on the weights it has just
    # normalised; the bytes are those of the checked path.
    d = sample_d_batch(E, m, 250, derive_rng(11, m))
    g = derive_rng(11, m).standard_normal((250, m))
    sq = g * g
    assert d.tobytes() == spectrum_from_weights(E, sq / sq.sum(axis=1)[:, None]).tobytes()


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


_TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (20, 21, 29))


def _exact_passive(m: int, shift: int) -> np.ndarray:
    """A passive gate in rationals: a phase on every mode, then a rotation of
    each neighbouring mode pair, each with a Pythagorean ``(cos, sin)``."""
    n = 2 * m
    out = fractions(np.eye(n))
    for i in range(m):
        a, b, c = _TRIPLES[(i + shift) % len(_TRIPLES)]
        cos, sin = Fraction(a, c), Fraction(b, c)
        phase = fractions(np.eye(n))
        phase[i, i] = phase[m + i, m + i] = cos
        phase[i, m + i], phase[m + i, i] = sin, -sin
        out = phase @ out
        if i + 1 < m:  # diag(G, G) with G the rotation of modes i and i + 1
            turn = fractions(np.eye(n))
            for base in (0, m):
                j, k = base + i, base + i + 1
                turn[j, j] = turn[k, k] = sin
                turn[j, k], turn[k, j] = cos, -cos
            out = turn @ out
    return out


@pytest.mark.parametrize("m", [1, 2, 4])
@pytest.mark.parametrize("k", [0, 7, 14, 20])
def test_exact_symplectic_gates_pass_and_perturbations_above_the_floor_fail(m, k):
    # e^r = 2^k is an exact stand-in for a squeezer, and 2^20 exceeds the msc
    # squeezing e^r at E = 1e12, the largest trace the CLI's msc reaches.
    assert 2.0**20 > math.exp(coherence.msc_squeezing(1e12, 1))
    omega = symplectic_form(m)
    squeeze = fractions(np.eye(2 * m))
    squeeze[0, 0], squeeze[m, m] = Fraction(2**k), Fraction(1, 2**k)
    factors = (_exact_passive(m, 1), squeeze, _exact_passive(m, 0))
    exact = factors[0] @ factors[1] @ factors[2]
    assert exact_residual_sq(exact, omega) == 0
    for p in (factors[0], factors[2]):
        assert exact_residual_sq(p, np.eye(2 * m)) == 0
        assert symplectic_ops.is_orthogonal(p.astype(float))
    rounded = exact.astype(float)  # the exact gate, each entry rounded once
    product = factors[0].astype(float) @ factors[1].astype(float) @ factors[2].astype(float)
    for s in (rounded, product):
        assert is_symplectic(s)
        SympGate(s)
    floor = rounding_floor(2 * m, float(np.linalg.norm(rounded)) ** 2)
    bumped = (1.0 + 2.0 * floor / math.sqrt(2 * m)) * rounded  # residual about 4 floors
    assert exact_residual_sq(bumped, omega) > 4 * Fraction(floor) ** 2
    assert not is_symplectic(bumped)
    with pytest.raises(GateError, match="not symplectic"):
        SympGate(bumped)


@pytest.mark.parametrize("r", [9.0, 9.21, 10.0, 11.0, 12.0])
def test_compose_accepts_its_own_rotated_squeezers(r):
    # The msc squeezing at E = 1e8, m = 2 is r = 9.21; the CLI accepts traces to 1e12.
    for m in (1, 2):
        gate = compose(phase_shifter(m, 1, 0.3), compose(squeezer(m, 1, r), phase_shifter(m, 1, 1.1)))
        assert is_symplectic(gate.S)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_bloch_messiah_gates_are_symplectic_at_large_squeezing(m, rng):
    # P2 Z(r) P1 with Haar passive P: the residual grows like eps * e^{2r}, as its floor does.
    for r in (8.0, 10.0):
        for _ in range(5):
            p1, p2 = (passive_from_unitary(*haar_unitary(m, rng)).S for _ in range(2))
            assert is_symplectic(p2 @ squeezer(m, 1, r).S @ p1)


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


def test_gates_reject_a_non_finite_displacement():
    for bad in ([np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf]):
        with pytest.raises(DimensionError, match="gate displacement must be finite"):
            SympGate(np.eye(2), bad)
        with pytest.raises(DimensionError, match="gate displacement must be finite"):
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


# Entries at the two ends of the float range: V + V^T overflows, V/2 + V^T/2 does not.
EDGE = [[1e308, 0.0], [0.0, 1e-308]]


@pytest.mark.parametrize("gate", [phase_shifter(1, 1, 0.0), squeezer(1, 1, 0.0)], ids=["phase", "squeeze"])
def test_apply_near_the_float_range_returns_the_matrix(gate):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply(gate, GaussianState(CovMat(EDGE)))
    assert np.array_equal(out.cov.matrix, EDGE)


def test_apply_names_an_overflowing_product():
    # Valid inputs whose images are past the float range: a named reason, no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"gate output S V S\^T overflows float64"):
            apply(squeezer(1, 1, 300.0), coherence.msc_canonical(1e100, 1))
        with pytest.raises(NumericError, match=r"gate output S d \+ disp overflows float64"):
            apply(displacement([1.5e308, 0.0]), GaussianState(CovMat(np.eye(2)), [1.5e308, 0.0]))


def _old_phase_shifter_matrix(m: int, mode: int, theta: float) -> np.ndarray:
    """The rotation as phase_shifter once wrote it, entry by entry."""
    s = np.eye(2 * m)
    i = mode - 1
    c, sn = np.cos(theta), np.sin(theta)
    s[i, i] = c
    s[i, m + i] = sn
    s[m + i, i] = -sn
    s[m + i, m + i] = c
    return s


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_phase_shifter_is_the_hand_built_rotation(m):
    angles = [0.0, -0.0, np.pi / 4, np.pi / 2, np.pi, -np.pi / 3, 2 * np.pi, 1e6, -1e-300]
    angles += list(np.linspace(-7.0, 7.0, 15))
    for mode in range(1, m + 1):
        for theta in angles:
            expected = _old_phase_shifter_matrix(m, mode, theta)
            assert np.array_equal(phase_shifter(m, mode, theta).S, expected)


def test_apply_matches_the_old_symmetrisation_bytewise(rng):
    # On ordinary inputs V/2 + V^T/2 has the bits of 0.5 * (V + V^T).
    for _ in range(40):
        m = int(rng.integers(1, 5))
        state = GaussianState(random_valid_cov(rng, m), rng.normal(size=2 * m))
        mode = int(rng.integers(1, m + 1))
        local = compose(
            squeezer(m, mode, float(rng.uniform(-1, 1))),
            phase_shifter(m, mode, float(rng.uniform(-4, 4))),
        )
        gate = compose(passive_from_unitary(*haar_unitary(m, rng)), local)
        v = gate.S @ state.cov.matrix @ gate.S.T
        assert apply(gate, state).cov.matrix.tobytes() == (0.5 * (v + v.T)).tobytes()


@pytest.mark.parametrize(
    "bad", [[[1.0, np.nan], [0.0, 1.0]], np.eye(2)[:1], np.ones((2, 4))], ids=["nan", "1x2", "2x4"]
)
def test_gate_matrix_check_names_the_gate(bad):
    with pytest.raises(DimensionError, match="gate matrix"):
        SympGate(bad)


@pytest.mark.parametrize(
    "make",
    [
        lambda: squeezer(1, 1, 400.0),
        lambda: squeezer(2, 2, -1000.0),
        lambda: squeezer(1, 1, np.inf),
        lambda: SympGate(np.diag([1e200, 1e-200])),
        lambda: SympGate(np.diag([2.0**512, 2.0**-512])),
    ],
    ids=["squeezer-400", "squeezer-minus-1000", "squeezer-inf", "diag-1e200", "diag-2^512"],
)
def test_a_gate_whose_squared_norm_overflows_is_named_with_no_warning(make):
    # Each matrix is exactly symplectic, or would be, but its rounding floor
    # (eps times the squared norm) is infinite, so there is no verdict.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GateError, match="squared norm of the gate matrix overflows float64"):
            make()


def test_gates_with_a_finite_squared_norm_keep_their_verdicts():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # The last squared norms below the float range: exactly symplectic, accepted.
        assert SympGate(np.diag([2.0**511, 2.0**-511])).m == 1
        assert squeezer(2, 1, 354.0).m == 2
        # A residual past the float range is not within the floor: rejected as before.
        with pytest.raises(GateError, match="not symplectic"):
            SympGate(np.diag([1e100, 1e100]))
        # The predicates answer past the float range too.
        assert not is_symplectic(np.array([[1e200, -1e200], [1e200, 1e200]]))
        assert not symplectic_ops.is_orthogonal(np.array([[1e200, -1e200j], [1e200, 1e200]]))


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


def test_the_identity_is_loss_at_eta_one(rng):
    assert type(IdentityChannel()) is LossChannel
    assert IdentityChannel() == LossChannel(1.0) and IdentityChannel().eta == 1.0
    assert not isinstance(symplectic_ops.IdentityChannel, type)
    with pytest.raises(TypeError):
        IdentityChannel(0.5)
    # At eta = 1 loss returns its input, the loss formula's value; only a
    # -0.0 entry, which 1 V + 0 I turns into +0.0, keeps its sign.
    v = random_valid_cov(rng, 2).matrix.copy()
    v[0, 2] = v[2, 0] = -0.0
    state = GaussianState(CovMat(v), rng.normal(size=4))
    out = LossChannel(1.0).apply_to(state)
    assert out is state
    assert np.array_equal(out.cov.matrix, apply_loss(state.cov, 1.0).matrix)
    assert np.signbit(out.cov.matrix[0, 2]) and not np.signbit(apply_loss(state.cov, 1.0).matrix[0, 2])


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
    dilated = StinespringChannel(beamsplitter_orthogonal(eta), vacuum_state(1).cov).apply_to(state)
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
        StinespringChannel(beamsplitter_orthogonal(0.5), env).apply_to(vacuum_state(1))


@pytest.mark.parametrize("xp, free", [(5e-11, True), (2e-10, False)])
def test_stinespring_environment_check_agrees_with_is_free(xp, free):
    # A thermal environment of trace 2e4: its floor, 16 * eps * 2e4 = 7.1e-11,
    # lies between the two entries.
    env = CovMat(np.array([[1e4, xp], [xp, 1e4]]))
    assert is_free(env) is free
    o = beamsplitter_orthogonal(0.5)
    if free:
        out = StinespringChannel(o, env).apply_to(vacuum_state(1))
        assert_allclose(out.cov.matrix, 0.5 * np.eye(2) + 0.5 * env.matrix, rtol=1e-15, atol=1e-11)
    else:
        with pytest.raises(GateError, match="not free"):
            StinespringChannel(o, env).apply_to(vacuum_state(1))


def test_stinespring_channel_checks_its_parts_when_built():
    env, bs = vacuum_state(1).cov, beamsplitter_orthogonal(0.5)
    faults = [
        ((np.array([[1.0, 1.0], [0.0, 1.0]]), env), GateError, "Stinespring o is not orthogonal"),
        ((np.eye(1), env), DimensionError, "Stinespring o must be n x n with n > 1"),
        ((np.ones((2, 3)), env), DimensionError, "Stinespring o must be n x n"),
        ((bs, CovMat(0.5 * np.eye(2))), GateError, "Stinespring environment is not a valid state"),
        ((bs, CovMat([[2.0, 0.5], [0.5, 2.0]])), GateError, "Stinespring environment is not free"),
        ((bs, env, [0.0, 0.0, 0.0]), DimensionError, "Stinespring displacement must have length 4"),
        ((bs, env, [0.0, np.nan, 0.0, 0.0]), DimensionError, "Stinespring displacement must be finite"),
    ]
    for args, error, message in faults:
        with pytest.raises(error, match=message):
            StinespringChannel(*args)
    # o on three modes with a one-mode environment takes two-mode inputs.
    channel = StinespringChannel(np.eye(3), env)
    with pytest.raises(DimensionError, match="Stinespring channel acts on 2-mode inputs"):
        channel.apply_to(vacuum_state(1))
    assert_array_equal(channel.apply_to(vacuum_state(2)).cov.matrix, np.eye(4))


def test_stinespring_apply_reruns_no_construction_check(monkeypatch, rng):
    eta = 0.3
    channel = StinespringChannel(beamsplitter_orthogonal(eta), vacuum_state(1).cov)

    def rerun(*args):
        raise AssertionError("a construction check ran again")

    for name in (
        "is_free", "is_orthogonal", "is_symplectic", "block_orthogonal", "passive_from_unitary",
        "tensor_states", "partial_trace", "apply", "SympGate",
    ):
        monkeypatch.setattr(symplectic_ops, name, rerun)
    state = GaussianState(random_valid_cov(rng, 1))
    for _ in range(3):
        out = channel.apply_to(state)
        assert_allclose(out.cov.matrix, apply_loss(state.cov, eta).matrix, atol=1e-10)


def test_stinespring_displacement_lands_on_the_kept_modes():
    # m = 1 plus one vacuum environment mode: d in qqpp order is (q1, q2, p1, p2).
    out = StinespringChannel(
        beamsplitter_orthogonal(0.5), vacuum_state(1).cov, d=[1.0, 2.0, 3.0, 4.0]
    ).apply_to(vacuum_state(1))
    assert_array_equal(out.d, [1.0, 3.0])
    assert_allclose(out.cov.matrix, np.eye(2), atol=1e-12)
    assert not symplectic_ops.is_orthogonal(np.ones((2, 3)))
    assert not symplectic_ops.is_orthogonal(np.ones(4))
    assert not is_symplectic(np.eye(3))
    assert not is_symplectic(np.ones((2, 4)))


def _dilation_detour(channel, state):
    """The dilation taken literally: tensor the environment, rotate and displace, trace it out."""
    gate = SympGate(block_orthogonal(channel.o).S, channel.d)
    joint = apply(gate, tensor_states(state, GaussianState(channel.env)))
    return partial_trace(joint, range(1, state.m + 1))


def _environment(kind, k, rng):
    if kind == "vacuum":
        return vacuum_state(k).cov
    if kind == "thermal":
        return CovMat(np.diag(np.tile(1.0 + rng.exponential(3.0, size=k), 2)))
    return ensembles.sample_pure_cm(2 * k + float(rng.uniform(0.5, 20.0)), k, "orthogonal", rng)


@pytest.mark.parametrize("m", [1, 2, 4, 8])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("env_kind", ["vacuum", "thermal", "orthogonal"])
def test_stinespring_matches_the_dilation_detour(m, k, env_kind, monkeypatch, rng):
    cases = []
    for trace in (2 * m + 1, 1e2, 1e4, 1e8):
        env = _environment(env_kind, k, rng)
        cov = ensembles.sample_pure_cm(trace, m, "unitary", rng)
        state = GaussianState(cov, math.sqrt(trace) * rng.normal(size=2 * m))
        channel = StinespringChannel(haar_orthogonal(m + k, rng), env, rng.normal(size=2 * (m + k)))
        cases.append((channel, state, _dilation_detour(channel, state)))

    def detour(*args):
        raise AssertionError("the channel built a joint state, gate or partial trace")

    for name in ("tensor_states", "partial_trace", "apply", "SympGate"):
        monkeypatch.setattr(symplectic_ops, name, detour)
    for channel, state, ref in cases:
        out = channel.apply_to(state)
        n = 2 * (m + k)
        cov_floor = rounding_floor(n, state.cov.trace + channel.env.trace)
        assert np.max(np.abs(out.cov.matrix - ref.cov.matrix)) <= cov_floor
        # X d and the joint S d sum the same products, but BLAS may group them
        # differently for rows of 2m and of 2(m+k) entries.
        d_floor = rounding_floor(n, np.abs(state.d).sum() + np.abs(channel.d).sum())
        assert np.max(np.abs(out.d - ref.d)) <= d_floor


def test_stinespring_output_past_the_joint_trace_range():
    # The joint state of input and environment has trace 3.2e308, past the
    # float range; the channel never forms it, and its output is finite.
    big = CovMat(8e307 * np.eye(2))
    channel = StinespringChannel(beamsplitter_orthogonal(0.5), big)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = channel.apply_to(GaussianState(big))
    assert np.max(np.abs(out.cov.matrix - 8e307 * np.eye(2))) <= rounding_floor(4, 8e307)
    assert_array_equal(out.d, [0.0, 0.0])


def test_stinespring_names_an_environment_term_past_the_float_range():
    # A valid free environment of trace just below the float maximum whose
    # position block is nearly all along (1, 1): B V_env B^T sends that whole
    # variance to the kept mode and rounds past the float range.
    a = sys.float_info.max / 2 - 2
    env = CovMat(np.array([[a, a, 0, 0], [a, a, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]]))
    assert not env.violations and is_free(env)
    s = math.sqrt(0.5)
    o = np.array([[0.0, s, s], [0.0, s, -s], [1.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match=r"Stinespring environment term B V_env B\^T overflows"):
            StinespringChannel(o, env)


def test_stinespring_keeps_copies_of_its_arrays(rng):
    o, d = beamsplitter_orthogonal(0.5), np.zeros(4)
    channel = StinespringChannel(o, vacuum_state(1).cov, d)
    state = GaussianState(random_valid_cov(rng, 1), rng.normal(size=2))
    before = channel.apply_to(state)
    o[:] = np.eye(2)
    d[0] = 5.0
    assert_array_equal(channel.o, beamsplitter_orthogonal(0.5))
    assert_array_equal(channel.d, np.zeros(4))
    after = channel.apply_to(state)
    assert_array_equal(after.cov.matrix, before.cov.matrix)
    assert_array_equal(after.d, before.d)
    for attr in (channel.o, channel.d):
        with pytest.raises(ValueError, match="read-only"):
            attr[0] = 1.0


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


@pytest.mark.parametrize("columns", [0, 1, 3])
@pytest.mark.parametrize("real", [True, False], ids=["orthogonal", "unitary"])
def test_ginibre_columns_keep_the_bytes_of_the_plain_formula(columns, real):
    rng, ref_rng = derive_rng(8, columns), derive_rng(8, columns)
    shape = (5, 4, columns)
    want = ref_rng.standard_normal(shape)
    if not real:
        want = (want + 1j * ref_rng.standard_normal(shape)) / np.sqrt(2.0)
    got = ginibre_batch(4, 5, rng, real, columns=columns)
    assert got.dtype == want.dtype and got.shape == shape
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_haar_batches_match_properties(rng):
    os = haar_from_ginibre(ginibre_batch(3, 8, rng, real=True))
    assert os.shape == (8, 3, 3)
    for o in os:
        assert_allclose(o @ o.T, np.eye(3), atol=1e-10)
    us = haar_unitary_batch(3, 8, rng)
    for u in us:
        assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-10)


def test_a_last_fill_of_the_kept_rows_is_the_full_fill_cut():
    # A block that cuts its last fill at the kept rows (the search's
    # uniforms) rests on this: numpy's Generator fills an array in order, so
    # after the same earlier draw, n rows of normals are the first n rows of a
    # full block's.
    size, k = 2184, 30
    for n in (1, 7, 1000, size):
        full_rng, kept_rng = derive_rng(5, n), derive_rng(5, n)
        full_rng.integers(2, size=size)
        kept_rng.integers(2, size=size)
        kept = kept_rng.standard_normal((n, k))
        assert kept.tobytes() == full_rng.standard_normal((size, k))[:n].tobytes()


def test_mc_blocks_hands_each_block_its_kept_rows_and_generator():
    blocks = list(symplectic_ops.mc_blocks(3, 25, 10))
    assert [(start, keep) for start, keep, _ in blocks] == [(0, 10), (10, 10), (20, 5)]
    for b, (_, keep, rng) in enumerate(blocks):
        want = derive_rng(3, b).standard_normal((10, 2))[:keep]
        assert rng.standard_normal((keep, 2)).tobytes() == want.tobytes()


@pytest.mark.parametrize("real", [True, False], ids=["orthogonal", "unitary"])
def test_a_pure_sample_is_spectra_then_one_uniform_stack(real):
    # sample_pure_cm draws the spectrum, then one (1, m, m, 2) stack of
    # uniforms and nothing more; its polar map is the plain Box-Muller
    # formula, real or complex, entry by entry.
    rng, ref_rng = derive_rng(2, 0), derive_rng(2, 0)
    cov = ensembles.sample_pure_cm(12.0, 3, "orthogonal" if real else "unitary", rng)
    d = sample_d_batch(12.0, 3, 1, ref_rng)
    w = ref_rng.random((1, 3, 3, 2))
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    radius, turn = np.sqrt(-np.log1p(-w[..., 0])), 2.0 * np.pi * w[..., 1]
    if real:
        want = radius * np.cos(turn) * np.sqrt(2.0)
    else:
        want = np.empty(radius.shape, dtype=complex)
        want.real, want.imag = radius * np.cos(turn), radius * np.sin(turn)
    got = ginibre_from_uniforms(w, real)
    assert got.dtype == want.dtype and got.shape == (1, 3, 3)
    assert got.tobytes() == want.tobytes()
    u = haar_from_ginibre(want)[0]
    assert cov.matrix.tobytes() == ensembles.pure_cm_from_passive(u.real, u.imag, d[0]).matrix.tobytes()


@pytest.mark.parametrize("real", [True, False], ids=["orthogonal", "unitary"])
def test_a_search_block_fills_its_last_stack_only_to_keep(real):
    # The spectra are drawn for the whole block; the uniforms stop at keep,
    # with the full draw's bytes, and so do the Ginibre stacks mapped from them.
    m, E = 8, 40.0
    n = block_samples(m)
    rng_all = derive_rng(9, 0)
    d_all, w_all = sample_d_batch(E, m, n, rng_all), rng_all.random((n, m, m, 2))
    for keep in (1, 30, n):
        rng = derive_rng(9, 0)
        d, w = sample_d_batch(E, m, n, rng, keep), rng.random((keep, m, m, 2))
        assert d.tobytes() == d_all[:keep].tobytes()
        assert w.tobytes() == w_all[:keep].tobytes()
        assert ginibre_from_uniforms(w, real).tobytes() == ginibre_from_uniforms(w_all, real)[:keep].tobytes()


@pytest.mark.parametrize("m", [1, 3, 16])
@pytest.mark.parametrize("orthogonal", [True, False], ids=["orthogonal", "unitary"])
def test_pure_param_blocks_are_full_block_draws_cut_at_n(m, orthogonal):
    # Mapping and factoring only the kept rows leaves every row's bytes as they
    # are when the whole block is drawn, mapped and factored, for n below, at
    # and above a block.
    size, E, seed = block_samples(m), 4.0 * m + 8.0, 41
    for n in (size - 7, size, 2 * size + 5):
        blocks = list(pure_param_blocks(seed, n, E, m, orthogonal))
        assert [start for start, *_ in blocks] == list(range(0, n, size))
        for b, (start, x, y, d) in enumerate(blocks):
            stop = min(size, n - start)
            rng = derive_rng(seed, b)
            want_d = sample_d_batch(E, m, size, rng)[:stop]
            z = ginibre_from_uniforms(rng.random((size, m, m, 2)), orthogonal)
            want_u = haar_from_ginibre(z)[:stop]
            assert x.shape == y.shape == (stop, m, m) and d.shape == (stop, m)
            assert d.tobytes() == want_d.tobytes()
            assert x.tobytes() == want_u.real.tobytes()
            assert y.tobytes() == want_u.imag.tobytes()
            assert not orthogonal or not y.any()


@pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
def test_polar_ginibre_entries_have_the_normal_moments(real):
    # Moments of the polar map's entries against their closed forms, at 5
    # standard errors on 2e5 draws: a standard normal x has E x^2 = 1 and
    # E x^4 = 3; a standard complex normal z has E|z|^2 = 1, E|z|^4 = 2 and
    # E z = E z^2 = 0.
    x = ginibre_from_uniforms(derive_rng(17, 0).random((200_000, 2)), real)
    if real:
        checks = [(x * x, 1.0), (x**4, 3.0), (x, 0.0)]
    else:
        sq = (x * x.conj()).real
        checks = [(sq, 1.0), (sq * sq, 2.0), (x.real, 0.0), (x.imag, 0.0), ((x * x).real, 0.0), ((x * x).imag, 0.0)]
    for values, exact in checks:
        mean, se = mean_stderr(values)
        assert abs(mean - exact) <= 5.0 * se, (mean, exact, se)


def rows_whose_bound_reaches_the_best(E: float, m: int, trials: int, seed: int) -> list[int]:
    """Rows per block of a maximum search whose spectrum bound can still win, from every row scored.

    A row's reach is its bound ``B = sum_k sigma_k^2`` plus ``4m
    rounding_floor(2m, B)``.  Per block: none if no row reaches the best c
    of earlier blocks; otherwise the ``coherence._FIRST_BATCH`` rows of
    largest bound among those that reach it, and every other row that
    reaches the best c of earlier blocks and of those first rows.
    """
    best, counts = -1.0, []
    for _, x, y, d in pure_param_blocks(seed, trials, E, m, False):
        alpha = d - 1.0
        beta = -alpha / d
        v = pure_xp_block(x, y, alpha, beta)
        c = np.einsum("...ij,...ij->...", v, v)
        sigma = 0.5 * (alpha - beta)
        bound = np.einsum("ij,ij->i", sigma, sigma)
        reach = bound + 4.0 * m * rounding_floor(2 * m, bound)
        live = np.flatnonzero(reach >= best)
        first = live[np.argsort(bound[live])[-coherence._FIRST_BATCH:]]
        if len(first):
            best = max(best, c[first].max())
        others = np.delete(reach, first)
        counts.append(len(first) + int(np.sum(others >= best)))
        best = max(best, c.max())
    return counts


@pytest.mark.parametrize("m", [1, 2, 8, 16])
def test_monte_carlo_drivers_factor_only_the_rows_they_keep(m, monkeypatch):
    sizes = []
    qr = np.linalg.qr

    def recording(z, *args, **kwargs):
        sizes.append((np.iscomplexobj(z), z.shape[0]))
        return qr(z, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recording)
    # The search factors exactly the rows whose spectrum bound can still win:
    # every row at m = 1, where all bounds are equal, and few of them above.
    E, trials, seed = 4.0 * m + 8.0, 200, 3
    coherence.numeric_max_search(E, m, trials, seed)
    factored = sum(n for _, n in sizes)
    assert factored == sum(rows_whose_bound_reaches_the_best(E, m, trials, seed))
    assert factored == trials if m == 1 else factored < trials
    assert (block_samples(m) > trials) == (m < 16)
    if m >= 2:
        sizes.clear()
        haar_moment_check(m, 1000, derive_rng(1, 0))
        assert sum(n for c, n in sizes if not c) == 1000
        assert sum(n for c, n in sizes if c) == 1000


def test_search_maps_to_ginibre_only_the_rows_it_factors(monkeypatch):
    # The search draws uniforms for every kept row of a block it reads, but
    # makes Gaussians only for the rows it QR-factors, a few percent of them
    # at m = 8.
    mapped, factored = [], []
    polar, qr = coherence.ginibre_from_uniforms, np.linalg.qr

    def counting_polar(w, real):
        mapped.append(w.shape[0])
        return polar(w, real)

    def counting_qr(z, *args, **kwargs):
        factored.append(z.shape[0])
        return qr(z, *args, **kwargs)

    monkeypatch.setattr(coherence, "ginibre_from_uniforms", counting_polar)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    trials = 200
    coherence.numeric_max_search(40.0, 8, trials, 3)
    assert mapped == factored
    assert 0 < sum(mapped) < 0.1 * trials


@pytest.mark.parametrize("m, trials, seed", [(8, 2000, 2), (16, 1000, 0)])
def test_a_block_whose_rows_cannot_win_draws_maps_and_factors_nothing(m, trials, seed, monkeypatch):
    # Counted per block: uniform stacks drawn, rows mapped to Ginibre matrices
    # and rows factored.  A block none of whose rows reaches the best c of
    # earlier blocks has none of them; the others factor the reference's rows.
    E = 4.0 * m + 8.0
    want = rows_whose_bound_reaches_the_best(E, m, trials, seed)
    per_block = []
    blocks, polar, qr = coherence.mc_blocks, coherence.ginibre_from_uniforms, np.linalg.qr

    def counting_blocks(*args):
        for block in blocks(*args):
            per_block.append({"mapped": 0, "factored": 0})
            yield block

    def counting_polar(w, real):
        per_block[-1]["mapped"] += w.shape[0]
        return polar(w, real)

    def counting_qr(z, *args, **kwargs):
        per_block[-1]["factored"] += z.shape[0]
        return qr(z, *args, **kwargs)

    log = record_spectra(monkeypatch, coherence)
    monkeypatch.setattr(coherence, "mc_blocks", counting_blocks)
    monkeypatch.setattr(coherence, "ginibre_from_uniforms", counting_polar)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    coherence.numeric_max_search(E, m, trials, seed)
    assert len(per_block) == len(log) == len(want) >= 8
    assert [c["factored"] for c in per_block] == [c["mapped"] for c in per_block] == want
    drawn = uniform_rows_after_spectra(log, m)
    assert [int(rows > 0) for rows in drawn] == [int(n > 0) for n in want]
    # Every block drew its whole block's spectra first; the last is cut at the trials.
    size = block_samples(m)
    assert [keep for *_, keep in log] == [min(size, trials - start) for start in range(0, trials, size)]
    for b, (_, state, _) in enumerate(log):
        ref = derive_rng(seed, b)
        sample_d_batch(E, m, size, ref)
        assert state == ref.bit_generator.state
    assert 0 in want and want[0] >= coherence._FIRST_BATCH
