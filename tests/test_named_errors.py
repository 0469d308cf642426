"""Named errors: each raise that no other test reaches, and the guards of the closed-form bounds."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from sympcoh import (
    CovMat,
    DimensionError,
    GaussianState,
    IdentityChannel,
    LossChannel,
    StinespringChannel,
    assemble,
    beamsplitter_orthogonal,
    compose,
    passive_from_unitary,
    squeezer,
    state_from_dict,
    vacuum_state,
)
from sympcoh.applications import (
    DiscriminationConfig,
    helstrom_lower_bound_loss,
    loss_gtilde,
    meas_moments,
    n_thres_loss_optimal,
    rotated_quadrature_variance,
    td_lower_bound_gaussian,
    td_lower_bound_general,
    tvd_bound_ppmm,
    tvd_exact_zero_mean_normals,
    wilson_upper,
)
from sympcoh.cli import build_channel, build_gate
from sympcoh.coherence import (
    mixed_msc_check,
    msc_membership_conditions,
    perturbation_bound,
    trace_distance_cov_bound,
)

NAN, INF = math.nan, math.inf


def _displaced_output_moments():
    # The displacement lands on the kept mode, so the output has first moments.
    channel = StinespringChannel(beamsplitter_orthogonal(0.5), vacuum_state(1).cov, d=[1.0, 0.0, 0.0, 0.0])
    return meas_moments(vacuum_state(1), channel)


def _displaced_probe_config():
    probe = GaussianState(CovMat(np.eye(2)), [1.0, 0.0])
    return DiscriminationConfig(probe, (IdentityChannel(), LossChannel(0.5)), 0.1, 10, 10, 0)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (_displaced_output_moments, ValueError, "channel output must have zero first moments"),
        (lambda: loss_gtilde(1, 2.0, 0.5), ValueError, "trace budget admits no correlations"),
        (lambda: n_thres_loss_optimal(2, 4.0, 0.4, 0.8, 0.1), ValueError, "trace budget admits no correlations"),
        (lambda: wilson_upper(0, 0), ValueError, "trials must be positive"),
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
            ValueError,
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
    ],
    ids=[
        "meas_moments-displaced-output",
        "loss_gtilde-at-2m",
        "n_thres_loss_optimal-at-2m",
        "wilson_upper-no-trials",
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
