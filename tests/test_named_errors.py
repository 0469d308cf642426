"""Named errors: each raise that no other test reaches, and the guards of the closed-form bounds."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from sympcoh import (
    CovMat,
    DimensionError,
    GateError,
    GaussianState,
    IdentityChannel,
    LossChannel,
    StinespringChannel,
    assemble,
    beamsplitter_orthogonal,
    compose,
    partial_trace,
    passive_from_unitary,
    phase_shifter,
    squeezer,
    state_from_dict,
    vacuum_state,
)
from sympcoh.applications import (
    DiscriminationConfig,
    energy_offset,
    helstrom_lower_bound_loss,
    loss_gtilde,
    meas_moments,
    n_thres_loss_optimal,
    n_thres_orthogonal,
    rotated_quadrature_variance,
    td_lower_bound_gaussian,
    td_lower_bound_general,
    tvd_bound_ppmm,
    tvd_exact_zero_mean_normals,
    wilson_upper,
)
from sympcoh.cli import build_channel, build_gate
from sympcoh.coherence import (
    MscSpec,
    coherence_report,
    max_symplectic_coherence,
    mixed_msc_check,
    msc_canonical,
    msc_membership_conditions,
    msc_squeezing,
    numeric_max_search,
    perturbation_bound,
    trace_distance_cov_bound,
)
from sympcoh.discord_map import to_density
from sympcoh.gaussian_core import symplectic_form
from sympcoh.ensembles import EnsembleConfig
from sympcoh.symplectic_ops import require_budget, sample_d_batch

NAN, INF = math.nan, math.inf


def _displaced_output_moments():
    # The displacement lands on the kept mode, so the output has first moments.
    channel = StinespringChannel(beamsplitter_orthogonal(0.5), vacuum_state(1).cov, d=[1.0, 0.0, 0.0, 0.0])
    return meas_moments(vacuum_state(1), channel)


def _displaced_probe_config():
    probe = GaussianState(CovMat(np.eye(2)), [1.0, 0.0])
    return DiscriminationConfig(probe, (IdentityChannel(), LossChannel(0.5)), 0.1, 10, 10, 0)


def _discrimination_config(n_samples, trials):
    return DiscriminationConfig(vacuum_state(1), (IdentityChannel(), LossChannel(0.5)), 0.1, n_samples, trials, 0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "call, error, message",
    [
        (_displaced_output_moments, ValueError, "channel output must have zero first moments"),
        (lambda: loss_gtilde(1, 2.0, 0.5), ValueError, "trace budget admits no correlations"),
        (lambda: n_thres_loss_optimal(2, 4.0, 0.4, 0.8, 0.1), ValueError, "trace budget admits no correlations"),
        (lambda: wilson_upper(0, 0), ValueError, "trials must be positive"),
        # These once returned 0.719 and 0.793, or raised an unnamed "math domain error".
        (lambda: wilson_upper(0, 1.5), ValueError, "trials must be an integer, got float 1.5"),
        (lambda: wilson_upper(0, True), ValueError, "trials must be an integer, got bool True"),
        (lambda: wilson_upper(0.5, 2), ValueError, "failures must be an integer, got float 0.5"),
        (lambda: wilson_upper(3, 2), ValueError, "failures must be in 0..2, got 3"),
        (lambda: wilson_upper(-1, 5), ValueError, "failures must be in 0..5, got -1"),
        (_displaced_probe_config, ValueError, "probe must have zero first moments"),
        (
            lambda: rotated_quadrature_variance(vacuum_state(2).cov, 0.3),
            DimensionError,
            "single-mode covariance required, got m=2",
        ),
        (
            lambda: tvd_bound_ppmm(vacuum_state(2).cov, 0.1, 0.0, 0.3),
            DimensionError,
            "single-mode covariance required, got m=2",
        ),
        (lambda: build_gate({"kind": "rotor"}, 1), ValueError, "unknown gate kind 'rotor'"),
        (lambda: build_channel({"kind": "amplifier"}), ValueError, "unknown channel kind 'amplifier'"),
        (
            lambda: msc_membership_conditions(np.eye(2), np.zeros(3)),
            DimensionError,
            "shape mismatch: o (2, 2), theta (3,)",
        ),
        (lambda: trace_distance_cov_bound(-1.0, 1, 0.1), ValueError, "arguments must be nonnegative"),
        (
            lambda: GaussianState(CovMat(np.eye(2)), [0.0, 0.0, 0.0]),
            DimensionError,
            "first-moment vector must have length 2, got 3",
        ),
        (lambda: GaussianState(CovMat(np.eye(2)), [NAN, 0.0]), DimensionError, "first moments must be finite"),
        (lambda: assemble(np.eye(2), np.eye(2), np.eye(3)), DimensionError, "all three blocks must be m x m"),
        (lambda: state_from_dict([1, 2]), ValueError, "covariance-matrix document must be a JSON object"),
        (
            lambda: passive_from_unitary(np.eye(2), np.eye(3)),
            DimensionError,
            "X and Y must be square and of one shape",
        ),
        (
            lambda: compose(squeezer(1, 1, 0.1), squeezer(2, 1, 0.1)),
            DimensionError,
            "cannot compose gates on different mode counts",
        ),
        # A float m once gave 11.25 here, and an unnamed TypeError in msc_canonical.
        (lambda: max_symplectic_coherence(10.0, 2.5), ValueError, "m must be an integer, got float 2.5"),
        (lambda: msc_canonical(10.0, 2.5), ValueError, "m must be an integer, got float 2.5"),
        (lambda: require_budget(10.0, 0), ValueError, "m must be >= 1, got 0"),
        # A fractional mode index once ended in an unnamed IndexError.
        (lambda: squeezer(2, 1.5, 0.3), ValueError, "mode must be an integer, got float 1.5"),
        (lambda: phase_shifter(2, 1.5, 0.3), ValueError, "mode must be an integer, got float 1.5"),
        (
            lambda: partial_trace(vacuum_state(2), [1.5]),
            DimensionError,
            "kept modes must be distinct indices in 1..2",
        ),
        # [True] once kept mode 1.
        (
            lambda: partial_trace(vacuum_state(2), [True]),
            DimensionError,
            "kept modes must be distinct indices in 1..2",
        ),
        # These once returned 12793.0, 17.0 and three more numbers.
        (lambda: n_thres_orthogonal(-1.0, 1.0, -3, 6.0, 0.05), ValueError, "m must be >= 1, got -3"),
        (lambda: energy_offset(0, 6.0), ValueError, "m must be >= 1, got 0"),
        (
            lambda: td_lower_bound_general(6, 4, 1, 0.5, 36, 1.5),
            ValueError,
            "m must be an integer, got float 1.5",
        ),
        (lambda: trace_distance_cov_bound(10, 1.5, 0.01), ValueError, "m must be an integer, got float 1.5"),
        (
            lambda: helstrom_lower_bound_loss(10.0, 2.5, 0.5, 1.0),
            ValueError,
            "m must be an integer, got float 2.5",
        ),
        # One message per count, where "n_samples and trials must be >= 1" named both.
        (lambda: _discrimination_config(0, 10), ValueError, "n_samples must be >= 1, got 0"),
        (lambda: _discrimination_config(10, 0), ValueError, "trials must be >= 1, got 0"),
        (
            lambda: EnsembleConfig(m=1, E=4.0, n_samples=0, seed=0, kind="unitary"),
            ValueError,
            "n_samples must be >= 1, got 0",
        ),
        (lambda: numeric_max_search(6.0, 1, trials=0, seed=0), ValueError, "trials must be >= 1, got 0"),
        # Mode counts of the matrix builders and gates, once an unnamed TypeError.
        (lambda: symplectic_form(1.5), ValueError, "m must be an integer, got float 1.5"),
        (lambda: vacuum_state(2.5), ValueError, "m must be an integer, got float 2.5"),
        (lambda: squeezer(2.5, 1, 0.3), ValueError, "m must be an integer, got float 2.5"),
        (lambda: phase_shifter(True, 1, 0.3), ValueError, "m must be an integer, got bool True"),
        # Non-finite arguments: a RuntimeWarning from cos, "X + iY is not
        # unitary", an unnamed "math domain error", a NaN returned, or a
        # message about the means or an overflow.
        (lambda: phase_shifter(1, 1, INF), GateError, "phase angle theta must be finite, got inf"),
        (lambda: phase_shifter(1, 1, NAN), GateError, "phase angle theta must be finite, got nan"),
        (lambda: squeezer(1, 1, NAN), GateError, "squeezing parameter r must be a number, got nan"),
        (
            lambda: rotated_quadrature_variance(vacuum_state(1).cov, INF),
            ValueError,
            "quadrature angle theta must be finite, got inf",
        ),
        (
            lambda: rotated_quadrature_variance(vacuum_state(1).cov, NAN),
            ValueError,
            "quadrature angle theta must be finite, got nan",
        ),
        (
            lambda: tvd_bound_ppmm(vacuum_state(1).cov, 0.1, 0.0, INF),
            ValueError,
            "quadrature angle theta must be finite, got inf",
        ),
        # A non-finite sxp once gave a bound of 1.0, or "rotated variance of output 1 is nan".
        (lambda: tvd_bound_ppmm(vacuum_state(1).cov, INF, 0.0, 0.3), ValueError, "sxp1 must be finite, got inf"),
        (lambda: tvd_bound_ppmm(vacuum_state(1).cov, -INF, 0.0, 0.3), ValueError, "sxp1 must be finite, got -inf"),
        (lambda: tvd_bound_ppmm(vacuum_state(1).cov, NAN, 0.0, 0.3), ValueError, "sxp1 must be finite, got nan"),
        (lambda: tvd_bound_ppmm(vacuum_state(1).cov, 0.1, INF, 0.3), ValueError, "sxp2 must be finite, got inf"),
        (lambda: tvd_bound_ppmm(vacuum_state(1).cov, 0.1, NAN, 0.3), ValueError, "sxp2 must be finite, got nan"),
        (lambda: energy_offset(1, NAN), ValueError, "covariance trace E must be a number, got nan"),
        (
            lambda: n_thres_orthogonal(NAN, 1.0, 1, 6.0, 0.05),
            ValueError,
            "channel output means must be finite, got nan and 1.0",
        ),
        (
            lambda: n_thres_orthogonal(-1.0, 1.0, 1, NAN, 0.05),
            ValueError,
            "covariance trace E must be a number, got nan",
        ),
    ],
    ids=[
        "meas_moments-displaced-output",
        "loss_gtilde-at-2m",
        "n_thres_loss_optimal-at-2m",
        "wilson_upper-no-trials",
        "wilson_upper-float-trials",
        "wilson_upper-bool-trials",
        "wilson_upper-float-failures",
        "wilson_upper-failures-above-trials",
        "wilson_upper-negative-failures",
        "DiscriminationConfig-displaced-probe",
        "rotated_quadrature_variance-m2",
        "tvd_bound_ppmm-m2",
        "build_gate-unknown-kind",
        "build_channel-unknown-kind",
        "msc_membership_conditions-shapes",
        "trace_distance_cov_bound-negative",
        "GaussianState-moment-length",
        "GaussianState-nan-moment",
        "assemble-block-shapes",
        "state_from_dict-non-object",
        "passive_from_unitary-shapes",
        "compose-mode-counts",
        "max_symplectic_coherence-float-m",
        "msc_canonical-float-m",
        "require_budget-zero-m",
        "squeezer-float-mode",
        "phase_shifter-float-mode",
        "partial_trace-float-mode",
        "partial_trace-bool-mode",
        "n_thres_orthogonal-negative-m",
        "energy_offset-zero-m",
        "td_lower_bound_general-float-m",
        "trace_distance_cov_bound-float-m",
        "helstrom_lower_bound_loss-float-m",
        "DiscriminationConfig-no-shots",
        "DiscriminationConfig-no-trials",
        "EnsembleConfig-no-samples",
        "numeric_max_search-no-trials",
        "symplectic_form-float-m",
        "vacuum_state-float-m",
        "squeezer-float-m",
        "phase_shifter-bool-m",
        "phase_shifter-inf-theta",
        "phase_shifter-nan-theta",
        "squeezer-nan-r",
        "rotated_quadrature_variance-inf-theta",
        "rotated_quadrature_variance-nan-theta",
        "tvd_bound_ppmm-inf-theta",
        "tvd_bound_ppmm-inf-sxp1",
        "tvd_bound_ppmm-minus-inf-sxp1",
        "tvd_bound_ppmm-nan-sxp1",
        "tvd_bound_ppmm-inf-sxp2",
        "tvd_bound_ppmm-nan-sxp2",
        "energy_offset-nan-E",
        "n_thres_orthogonal-nan-mean",
        "n_thres_orthogonal-nan-E",
    ],
)
def test_each_fault_raises_its_named_error(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_mixed_msc_check_names_a_mode_mismatch():
    one, two = vacuum_state(1).cov, vacuum_state(2).cov
    assert mixed_msc_check(one, one, two) == (False, ["mode counts differ"])


@pytest.mark.parametrize(
    "bound, args",
    [
        (td_lower_bound_gaussian, (6.0, 6.0, NAN, 1.0, 10.0, 1)),
        (td_lower_bound_gaussian, (6.0, 6.0, 4.0, 1.0, NAN, 1)),
        (td_lower_bound_gaussian, (NAN, 6.0, 4.0, 1.0, 10.0, 1)),
        (td_lower_bound_gaussian, (6.0, INF, 4.0, 1.0, 10.0, 1)),
        (td_lower_bound_gaussian, (6.0, 6.0, 4.0, -1.0, 10.0, 1)),
        (td_lower_bound_gaussian, (6.0, 6.0, 4.0, 1.0, 10.0, 0)),
        (td_lower_bound_general, (6.0, 6.0, 4.0, NAN, 4.0, 1)),
        (td_lower_bound_general, (6.0, 6.0, 4.0, 1.0, NAN, 1)),
        (helstrom_lower_bound_loss, (NAN, 1, 0.5, 1.0)),
        (helstrom_lower_bound_loss, (6.0, 1, 0.5, NAN)),
        (helstrom_lower_bound_loss, (6.0, 1, 0.5, -1.0)),
        (helstrom_lower_bound_loss, (INF, 1, 0.5, 1.0)),
        (helstrom_lower_bound_loss, (6.0, 1, NAN, 1.0)),
        (perturbation_bound, (NAN, 1.0, 1.0, 0.1)),
        (perturbation_bound, (1.0, 1.0, NAN, 0.1)),
        (perturbation_bound, (1.0, 1.0, INF, 0.0)),
        (perturbation_bound, (1.0, 1.0, 1.0, -0.1)),
        (trace_distance_cov_bound, (NAN, 1, 0.1)),
        (trace_distance_cov_bound, (1.0, 1, NAN)),
        (trace_distance_cov_bound, (1.0, 0, 0.1)),
        (tvd_exact_zero_mean_normals, (NAN, 1.0)),
        (tvd_exact_zero_mean_normals, (1.0, INF)),
        (tvd_exact_zero_mean_normals, (0.0, 1.0)),
    ],
    ids=lambda v: getattr(v, "__name__", None) or ", ".join(map(str, v)),
)
def test_closed_form_bounds_reject_nan_negative_and_infinite_inputs(bound, args):
    # A NaN once passed every min(...) < 0 guard and came out as a cap or a NaN.
    with pytest.raises(ValueError, match="must be"):
        bound(*args)


_M_TAKERS = {
    "max_symplectic_coherence": lambda m: max_symplectic_coherence(10.0, m),
    "msc_squeezing": lambda m: msc_squeezing(10.0, m),
    "msc_canonical": lambda m: msc_canonical(10.0, m),
    "sample_d_batch": lambda m: sample_d_batch(10.0, m, 3, np.random.default_rng(0)),
    "loss_gtilde": lambda m: loss_gtilde(m, 10.0, 0.5),
    "n_thres_loss_optimal": lambda m: n_thres_loss_optimal(m, 10.0, 0.4, 0.8, 0.1),
    "n_thres_orthogonal": lambda m: n_thres_orthogonal(-1.0, 1.0, m, 10.0, 0.05),
    "td_lower_bound_gaussian": lambda m: td_lower_bound_gaussian(6.0, 4.0, 1.0, 0.5, 10.0, m),
    "td_lower_bound_general": lambda m: td_lower_bound_general(6.0, 4.0, 1.0, 0.5, 36.0, m),
    "trace_distance_cov_bound": lambda m: trace_distance_cov_bound(10.0, m, 0.01),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "m, message",
    [
        (2.5, "m must be an integer, got float 2.5"),
        (True, "m must be an integer, got bool True"),
        (0, "m must be >= 1, got 0"),
    ],
)
@pytest.mark.parametrize("take", _M_TAKERS.values(), ids=_M_TAKERS.keys())
def test_every_formula_that_takes_m_checks_it_as_a_count(take, m, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        take(m)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mode", [1.0, True, np.float64(2.0)])
@pytest.mark.parametrize("make", [squeezer, phase_shifter], ids=["squeezer", "phase_shifter"])
def test_a_gate_mode_index_must_be_an_integer(make, mode):
    with pytest.raises(ValueError, match="^mode must be an integer"):
        make(2, mode, 0.3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("keep", [[2.0], [1, False], [np.float64(1.0)]])
def test_partial_trace_rejects_an_index_that_is_not_an_integer(keep):
    with pytest.raises(DimensionError, match=re.escape("kept modes must be distinct indices in 1..2")):
        partial_trace(vacuum_state(2), keep)


def test_numpy_integer_mode_indices_are_accepted():
    assert np.array_equal(squeezer(2, np.int64(2), 0.3).S, squeezer(2, 2, 0.3).S)
    state = GaussianState(CovMat(np.diag([2.0, 3.0, 4.0, 5.0])))
    assert np.array_equal(partial_trace(state, [np.int32(2)]).cov.matrix, np.diag([3.0, 5.0]))


_VALUE_OBJECTS = {
    "CovMat": lambda: CovMat(np.eye(2)),
    "GaussianState": lambda: vacuum_state(1),
    "SympGate": lambda: squeezer(1, 1, 0.3),
    "StinespringChannel": lambda: StinespringChannel(beamsplitter_orthogonal(0.5), CovMat(np.eye(2))),
    "DiscordImage": lambda: to_density(CovMat(np.eye(2))),
    "MscSpec": lambda: MscSpec(6.0, [0.0], np.eye(1), np.eye(1)),
    "MembershipReport": lambda: msc_membership_conditions(np.eye(2), np.zeros(2)),
    "CoherenceReport": lambda: coherence_report(CovMat(np.eye(2))),
    "DiscriminationConfig": lambda: _discrimination_config(10, 10),
}


@pytest.mark.parametrize("make", _VALUE_OBJECTS.values(), ids=_VALUE_OBJECTS.keys())
def test_value_objects_compare_and_hash_by_identity(make):
    # Their generated __eq__ compared array fields and raised "the truth value
    # of an array is ambiguous"; their generated __hash__ raised on the arrays.
    a, b = make(), make()
    assert (a == a) is True and (a == b) is False and a != b
    assert len({a, b}) == 2 and hash(a) == hash(a)
