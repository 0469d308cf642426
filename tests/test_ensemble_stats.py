"""Ensembles take their statistics in one stacked pass and do their pair arithmetic in place.

Every output equals the reference in ``conftest`` (one reduction per array,
a new array per operation) bit for bit.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from sympcoh import EnsembleConfig, ensemble_nu_sq
from sympcoh.ensembles import KINDS, _first_mode_nu_sq
from sympcoh.symplectic_ops import block_samples, mean_stderr_rows
from conftest import (
    BASE_SEED,
    mean_stderr,
    pure_param_blocks,
    reference_ensemble_stats,
    reference_first_mode_nu_sq,
    reference_mean_stderr,
    reference_pair_sums,
)

MODES = (1, 2, 3, 8, 16)
SIZES = (1, 2, 7, 257, 1000)


def energies(m: int) -> tuple[float, ...]:
    return (2.0 * m + 1.0, 4.0 * m + 8.0, 1e8, 1.3e154)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", MODES)
def test_ensemble_stats_equal_the_one_pass_per_array_reference(kind, m):
    assert block_samples(16) == 64  # so n = 257 and 1000 span several blocks at m = 16
    for n in SIZES:
        for E in energies(m):
            config = EnsembleConfig(m, E, n, BASE_SEED + n, kind)
            assert repr(ensemble_nu_sq(config)) == repr(reference_ensemble_stats(config)), (n, E)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [2, 8, 16])
def test_in_place_pair_arithmetic_has_the_reference_bytes(kind, m):
    for E in energies(m):
        for _, x, y, d in pure_param_blocks(BASE_SEED, 100, E, m, kind == "orthogonal"):
            u = x[:, 0, :] if kind == "orthogonal" else x[:, 0, :] + 1j * y[:, 0, :]
            # whole blocks, and one-row blocks (a run's last block can be one sample)
            for rows in [slice(None)] + [slice(i, i + 1) for i in range(100)]:
                ur, dr = u[rows], d[rows]
                d_before, u_before = dr.copy(), ur.copy()
                got = _first_mode_nu_sq(ur, dr)  # nu_1^2, then the two pair sums
                want = (reference_first_mode_nu_sq(ur, dr), *reference_pair_sums(dr))
                assert len(got) == len(want) == 3
                for a, b in zip(got, want):
                    assert a.tobytes() == b.tobytes(), (E, rows)
                # the helpers write only into arrays of their own
                assert dr.tobytes() == d_before.tobytes() and ur.tobytes() == u_before.tobytes()


def test_each_row_of_a_stacked_reduction_is_its_one_row_reduction(rng):
    for n in (1, 2, 3, 257, 5000):
        rows = rng.standard_normal((6, n))
        rows[0] *= 1e-300
        rows[1] *= 1e300
        rows[2] = 1.7e308 - np.abs(rows[2]) * 1e307  # scale 2^1023, not an infinite 2^1024
        rows[3] = 0.0
        rows[4] = 2.0 + rows[4]
        means, stderrs = mean_stderr_rows(rows)
        assert means.shape == stderrs.shape == (6,)
        for row, mean, se in zip(rows, means.tolist(), stderrs.tolist()):
            assert (mean, se) == mean_stderr(row) == reference_mean_stderr(row), n
        assert np.isfinite(means).all() and np.isfinite(stderrs).all()


def test_stacked_reduction_of_one_sample_is_exact_and_warning_free():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        means, stderrs = mean_stderr_rows(np.array([[2.5], [-1e308], [0.0]]))
        assert means.tolist() == [2.5, -1e308, 0.0]
        assert stderrs.tolist() == [0.0, 0.0, 0.0]
        assert mean_stderr(np.array([7.0])) == (7.0, 0.0)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("m", [1, 2, 8])
def test_one_sample_and_one_mode_runs_raise_no_warning(kind, m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        one = ensemble_nu_sq(EnsembleConfig(m, 4 * m + 8, 1, 3, kind))
        many = ensemble_nu_sq(EnsembleConfig(m, 4 * m + 8, 50, 3, kind))
        samples = ensemble_nu_sq(EnsembleConfig(m, 4 * m + 8, 1, 3, kind), return_samples=True)
    assert one.stderr == one.stderr_diff == 0.0
    assert samples[0] == one
    if m == 1:
        # every sample is the closed form: nu_1^2 = 1, no pair sums
        assert one.n_sigma == many.n_sigma == 0.0
        assert many.mean_nu_sq == many.analytic_mean == 1.0 and many.stderr == 0.0
    else:
        assert one.n_sigma is None
        assert many.n_sigma is not None and many.stderr > 0.0


def test_ensemble_samples_are_the_rows_the_statistics_reduce():
    config = EnsembleConfig(8, 40.0, 300, 5, "unitary")
    stats, nu_sq, coh = ensemble_nu_sq(config, return_samples=True)
    assert stats == ensemble_nu_sq(config)
    assert nu_sq.shape == coh.shape == (300,)
    assert reference_mean_stderr(nu_sq) == (stats.mean_nu_sq, stats.stderr)
