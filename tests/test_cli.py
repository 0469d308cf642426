"""End-to-end checks of the console entry point (in-process; one subprocess for a closed pipe)."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import resource
import signal
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import sympcoh
from sympcoh import (
    CovMat,
    EnsembleConfig,
    GaussianState,
    ensemble_nu_sq,
    beamsplitter_orthogonal,
    load_state,
    msc_canonical,
    save_state,
    state_to_dict,
    vacuum_state,
)
from sympcoh.cli import DEFAULT_SEED, ENVELOPE_FORMAT, main
from sympcoh.gaussian_core import require_valid, rounding_floor
from sympcoh.symplectic_ops import STREAM_SCHEME
from conftest import SINGULAR_1E12


@contextlib.contextmanager
def deadline(seconds, argv):
    def timeout(signum, frame):
        pytest.fail(f"sympcoh {' '.join(argv)} did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_cli(argv, capsys, monkeypatch=None, stdin_text=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip() else None
    return code, out, captured.err


def test_maxsc_closed_form(capsys):
    code, out, _ = run_cli(["maxsc", "--E", "10", "--m", "2"], capsys)
    assert code == 0
    assert out["result"]["c_max"] == pytest.approx(15.0, abs=1e-12)
    assert out["manifest"]["subcommand"] == "maxsc"
    assert out["manifest"]["parameters"]["E"] == 10.0


def test_msc_pipes_into_coherence(capsys, monkeypatch):
    code, out, _ = run_cli(["msc", "--E", "6", "--m", "1"], capsys)
    assert code == 0
    code, out2, _ = run_cli(
        ["coherence", "-"], capsys, monkeypatch, stdin_text=json.dumps(out)
    )
    assert code == 0
    assert out2["result"]["c"] == pytest.approx(8.0, abs=1e-9)
    assert out2["result"]["is_free"] is False
    assert out2["result"]["hs_distance_sq_to_free"] == pytest.approx(16.0, abs=1e-9)


def test_msc_writes_state_file_and_validate_accepts_it(tmp_path, capsys):
    target = tmp_path / "state.json"
    code, _, err = run_cli(["msc", "--E", "6", "--m", "1", "-o", str(target)], capsys)
    assert code == 0
    assert str(target) in err
    code, out, _ = run_cli(["validate", str(target)], capsys)
    assert code == 0
    assert out["result"]["valid"] is True
    assert out["result"]["violations"] == []


def test_saved_envelope_is_read_from_a_file_and_inline(tmp_path, capsys):
    code, out, _ = run_cli(["msc", "--E", "6", "--m", "1"], capsys)
    assert code == 0
    envelope = tmp_path / "env.json"
    envelope.write_text(json.dumps(out))
    code, out2, err = run_cli(["coherence", str(envelope)], capsys)
    assert code == 0, err
    assert out2["result"]["c"] == pytest.approx(8.0, abs=1e-9)
    code, _, err = run_cli(["coherence", str(envelope), "--m", "2"], capsys)
    assert code == 1
    assert "m=2" in err
    config = tmp_path / "tvd.json"
    config.write_text(json.dumps({"cm": out, "sxp1": 0.3, "sxp2": 0.0, "theta": 0.5}))
    code, out3, err = run_cli(["tvd", "--config", str(config)], capsys)
    assert code == 0, err
    assert np.isfinite(out3["result"]["bound"])


def test_load_state_reads_a_saved_envelope(tmp_path, capsys):
    assert main(["msc", "--E", "6", "--m", "1"]) == 0
    envelope = tmp_path / "env.json"
    envelope.write_text(capsys.readouterr().out)
    state = load_state(str(envelope))
    assert np.array_equal(state.cov.matrix, msc_canonical(6.0, 1).cov.matrix)
    assert load_state(str(envelope), m=1).m == 1


def child_env() -> dict:
    """The environment of a ``python -m sympcoh.cli`` child: this checkout first on its path, one BLAS thread."""
    src = str(Path(sympcoh.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"}


def test_a_reader_that_closes_early_gets_no_traceback():
    # An m = 128 state is about 330 kB of JSON, several times what a pipe
    # holds, so the write fails once the reader has closed its end.
    proc = subprocess.Popen(
        [sys.executable, "-m", "sympcoh.cli", "msc", "--E", "1e3", "--m", "128"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 1
    assert "Traceback" not in err
    reason = "BrokenPipeError: stdout was closed before the output was written"
    assert err.strip().splitlines() == [reason]


# The child alone runs under a 512 MiB address-space cap (RLIMIT_AS, set
# in preexec_fn).  At m = 100000 numpy cannot allocate the 2m x 2m matrix
# (its MemoryError subclass, with a message); at m = 2000 the matrix fits,
# and the 16 million Python floats of its JSON text do not (a bare MemoryError).
@pytest.mark.parametrize("m", [100_000, 2000], ids=["matrix", "json-text"])
def test_a_state_past_the_memory_cap_exits_1_naming_memory_error(m):
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    argv = [sys.executable, "-m", "sympcoh.cli", "msc", "--E", str(4 * m + 8), "--m", str(m)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), preexec_fn=cap, timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("MemoryError: ")


def test_a_memory_error_without_a_message_is_named_out_of_memory(capsys, monkeypatch):
    def exhausted(E, m):
        raise MemoryError

    monkeypatch.setattr(sympcoh.cli.coherence, "max_symplectic_coherence", exhausted)
    code, out, err = run_cli(["maxsc", "--E", "10", "--m", "2"], capsys)
    assert (code, out, err) == (1, None, "MemoryError: out of memory\n")


def test_wall_time_leaves_out_the_wait_for_input(capsys, monkeypatch):
    # A pipe's writer that takes 0.2 s: the clock starts once the input is in.
    text = json.dumps(state_to_dict(msc_canonical(6.0, 1)))

    class SlowStdin:
        def read(self, *args):
            time.sleep(0.2)
            return text

    monkeypatch.setattr("sys.stdin", SlowStdin())
    code, out, _ = run_cli(["validate", "-"], capsys)
    assert code == 0 and out["result"]["valid"]
    assert out["manifest"]["wall_time_s"] < 0.05


def test_wall_time_counts_the_work_before_a_later_read(tmp_path, capsys, monkeypatch):
    # apply validates its state, then reads the gate file: a validation that
    # takes 0.2 s stays on the clock.
    state_path = tmp_path / "state.json"
    save_state(msc_canonical(6.0, 1), str(state_path))
    gate_path = tmp_path / "gate.json"
    gate_path.write_text(json.dumps({"kind": "squeezer", "params": {"mode": 1, "r": 0.1}}))

    def slow_validation(cov):
        time.sleep(0.2)
        return require_valid(cov)

    monkeypatch.setattr(sympcoh.cli.gaussian_core, "require_valid", slow_validation)
    code, out, _ = run_cli(["apply", str(state_path), "--gate", str(gate_path)], capsys)
    assert code == 0
    assert out["manifest"]["wall_time_s"] >= 0.2


def test_validate_names_every_violation_of_a_matrix_near_the_float_range(tmp_path, capsys):
    lopsided = tmp_path / "lopsided.csv"
    lopsided.write_text("1,1e308\n1.5e308,1\n")
    code, out, err = run_cli(["validate", str(lopsided)], capsys)
    assert code == 1
    names = [v["name"] for v in out["result"]["violations"]]
    assert names == ["symmetry", "positive_definite", "uncertainty"]
    assert "positive_definite" in err and "Warning" not in err


def test_coherence_and_discord_agree_on_free(tmp_path, capsys):
    # The floor at trace 2e4 is rounding_floor(2, 2e4) = 7.1e-11: between the first two entries.
    for diag, xp in ((1e4, 5e-11), (1e4, 1e-9), (50.0, 1e-9)):
        state_file = tmp_path / "near_free.json"
        save_state(GaussianState(CovMat([[diag, xp], [xp, diag]])), str(state_file))
        _, coh, _ = run_cli(["coherence", str(state_file)], capsys)
        _, dis, _ = run_cli(["discord", str(state_file)], capsys)
        free = xp <= rounding_floor(2, 2 * diag)
        assert coh["result"]["is_free"] is dis["result"]["classical_quantum"] is free


def test_validate_rejects_invalid_matrix(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, 0.5 * np.eye(2), delimiter=",")
    code, out, err = run_cli(["validate", str(bad)], capsys)
    assert code == 1
    assert out["result"]["valid"] is False
    names = {v["name"] for v in out["result"]["violations"]}
    assert "uncertainty" in names
    assert "violated invariant" in err


def test_validate_reads_csv_matrix(tmp_path, capsys):
    good = tmp_path / "thermal.csv"
    np.savetxt(good, 2.0 * np.eye(4), delimiter=",")
    code, out, _ = run_cli(["validate", str(good)], capsys)
    assert code == 0
    assert out["result"]["valid"] is True


def test_mode_count_cross_check_fails_cleanly(tmp_path, capsys):
    target = tmp_path / "state.json"
    save_state(vacuum_state(2), str(target))
    code, out, err = run_cli(["coherence", str(target), "--m", "3"], capsys)
    assert code == 1
    assert out is None
    assert "m=3" in err


def test_apply_gate_spec(tmp_path, capsys):
    state_file = tmp_path / "vac.json"
    save_state(vacuum_state(1), str(state_file))
    gate_file = tmp_path / "gate.json"
    gate_file.write_text(json.dumps({"kind": "squeezer", "params": {"mode": 1, "r": 0.5}}))
    code, out, _ = run_cli(
        ["apply", str(state_file), "--gate", str(gate_file)], capsys
    )
    assert code == 0
    got = np.asarray(out["result"]["matrix"])
    assert np.allclose(got, np.diag([np.e, 1.0 / np.e]), atol=1e-12)


def test_loss_scales_coherence(tmp_path, capsys, monkeypatch):
    state_file = tmp_path / "msc.json"
    save_state(msc_canonical(6.0, 1), str(state_file))
    code, out, _ = run_cli(["loss", str(state_file), "--eta", "0.6"], capsys)
    assert code == 0
    code, out2, _ = run_cli(
        ["coherence", "-"], capsys, monkeypatch, stdin_text=json.dumps(out)
    )
    assert code == 0
    assert out2["result"]["c"] == pytest.approx(0.36 * 8.0, abs=1e-9)


def test_discord_report(tmp_path, capsys):
    state_file = tmp_path / "msc.json"
    save_state(msc_canonical(6.0, 1), str(state_file))
    code, out, _ = run_cli(["discord", str(state_file)], capsys)
    assert code == 0
    assert out["result"]["D_G"] == pytest.approx(4.0 / 9.0, abs=1e-12)
    assert out["result"]["relation_residual"] <= 1e-9
    assert out["result"]["classical_quantum"] is False


def test_qfi_report(tmp_path, capsys):
    state_file = tmp_path / "msc.json"
    save_state(msc_canonical(6.0, 1), str(state_file))
    code, out, _ = run_cli(["qfi", str(state_file)], capsys)
    assert code == 0
    assert out["result"]["qfi"] == pytest.approx(23.31370849898476, abs=1e-9)
    assert out["result"]["exact"] is True


@pytest.mark.parametrize("m, E, samples, seed", [(2, 8.0, 50, 11), (8, 40.0, 1000, DEFAULT_SEED)])
def test_ensemble_with_csv_side_channel(m, E, samples, seed, tmp_path, capsys):
    csv_path = tmp_path / "samples.csv"
    argv = ["ensemble", "--m", str(m), "--E", str(E), "--kind", "unitary", "--samples", str(samples)]
    argv += ["--seed", str(seed)]
    code, out, err = run_cli(argv + ["--csv", str(csv_path)], capsys)
    assert code == 0
    assert str(csv_path) in err
    # Writing the samples changes no statistic.
    assert out["result"] == run_cli(argv, capsys)[1]["result"]
    stats = ensemble_nu_sq(EnsembleConfig(m=m, E=E, n_samples=samples, seed=seed, kind="unitary"))
    assert out["result"]["mean_nu_sq"] == pytest.approx(stats.mean_nu_sq, abs=0)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "nu_sq", "coherence"]
    assert len(rows) == samples + 1
    mean_from_csv = np.mean([float(r[1]) for r in rows[1:]])
    assert mean_from_csv == pytest.approx(stats.mean_nu_sq, abs=1e-12)


def test_ensemble_default_seed_in_manifest(capsys):
    argv = ["ensemble", "--m", "1", "--E", "4", "--kind", "orthogonal", "--samples", "5"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out["manifest"]["seed"] == DEFAULT_SEED


def test_ensemble_reports_n_sigma_or_null(capsys):
    base = ["ensemble", "--E", "20", "--kind", "unitary", "--seed", "3"]
    code, out, _ = run_cli(base + ["--m", "3", "--samples", "500"], capsys)
    assert code == 0
    result = out["result"]
    assert result["n_sigma"] == pytest.approx(
        abs(result["mean_nu_sq"] - result["analytic_mean"]) / result["stderr_diff"], rel=1e-15
    )
    code, out, _ = run_cli(base + ["--m", "1", "--samples", "20"], capsys)
    assert code == 0 and out["result"]["n_sigma"] == 0.0
    # One sample has no standard error: null, not a non-JSON Infinity.
    code, out, _ = run_cli(base + ["--m", "3", "--samples", "1"], capsys)
    assert code == 0 and out["result"]["n_sigma"] is None


def test_discriminate_from_config_file(tmp_path, capsys):
    probe_file = tmp_path / "probe.json"
    save_state(msc_canonical(6.0, 1), str(probe_file))
    config = {
        "probe_file": str(probe_file),
        "channels": [{"kind": "loss", "eta": 0.4}, {"kind": "loss", "eta": 0.8}],
        "delta": 0.1,
        "n_samples": 32,
        "trials": 25,
        "seed": 3,
    }
    config_file = tmp_path / "disc.json"
    config_file.write_text(json.dumps(config))
    code, out, _ = run_cli(["discriminate", "--config", str(config_file)], capsys)
    assert code == 0
    result = out["result"]
    assert result["mu1"] == pytest.approx(-0.4 * np.sqrt(8.0), abs=1e-9)
    assert result["mu2"] == pytest.approx(-0.8 * np.sqrt(8.0), abs=1e-9)
    assert 0.0 <= result["empirical_error"] <= 1.0
    assert result["error_wilson_upper"] >= result["empirical_error"]
    assert result["n_thres"] == pytest.approx(7562.7261245870495, abs=1e-6)
    assert out["manifest"]["seed"] == 3


def test_discriminate_inline_probe_and_file_environment(tmp_path, capsys):
    # Inline probe, stinespring env given as a path, no seed: the default seed runs.
    env_file = tmp_path / "env.json"
    save_state(vacuum_state(1), str(env_file))
    config = {
        "probe": state_to_dict(msc_canonical(6.0, 1)),
        "channels": [
            {"kind": "identity"},
            {"kind": "stinespring", "o": beamsplitter_orthogonal(0.5).tolist(), "env": str(env_file)},
        ],
        "delta": 0.1,
        "n_samples": 32,
        "trials": 25,
    }
    config_file = tmp_path / "disc.json"
    config_file.write_text(json.dumps(config))
    code, out, _ = run_cli(["discriminate", "--config", str(config_file)], capsys)
    assert code == 0
    assert out["result"]["mu2"] == pytest.approx(0.5 * out["result"]["mu1"], abs=1e-12)
    assert out["manifest"]["seed"] == DEFAULT_SEED
    assert out["manifest"]["parameters"] == {"config": str(config_file)}


def test_tvd_exact_and_bound(tmp_path, capsys):
    config = {
        "var1": 1.0,
        "var2": 4.0,
        "cm": {
            "format": "sympcoh-cm-v1",
            "ordering": "qqpp",
            "hbar": 2,
            "m": 1,
            "matrix": [[1.0, 0.0], [0.0, 1.0]],
        },
        "sxp1": 0.3,
        "sxp2": 0.0,
        "theta": np.pi / 4,
        "inflated": True,
    }
    config_file = tmp_path / "tvd.json"
    config_file.write_text(json.dumps(config))
    code, out, _ = run_cli(["tvd", "--config", str(config_file)], capsys)
    assert code == 0
    assert out["result"]["tvd_exact"] == pytest.approx(0.3226745688347685, abs=1e-12)
    assert out["result"]["bound"] == pytest.approx(1.5 * 0.3 / 1.3, abs=1e-12)
    assert out["result"]["inflated"] is True


def test_tvd_exact_at_extreme_variance_ratios(tmp_path, capsys):
    for var1, var2 in ((1e-310, 1.0), (1.0, 1e-310), (2.0, 1.5e308), (1e-10, 1e300)):
        config_file = tmp_path / "tvd.json"
        config_file.write_text(json.dumps({"var1": var1, "var2": var2}))
        code, out, err = run_cli(["tvd", "--config", str(config_file)], capsys)
        assert code == 0, err
        assert out["result"]["tvd_exact"] > 0.99


def test_validate_at_the_edge_of_the_float_range(tmp_path, capsys):
    pure = tmp_path / "pure.json"
    save_state(GaussianState(CovMat([[1e308, 0.0], [0.0, 1e-308]])), str(pure))
    code, out, err = run_cli(["validate", str(pure)], capsys)
    assert code == 0, err
    assert out["result"]["valid"] is True
    overflow = tmp_path / "overflow.csv"
    overflow.write_text("1e308,0\n0,1e308\n")
    code, out, err = run_cli(["validate", str(overflow)], capsys)
    assert code == 1
    assert out is None
    assert "DimensionError" in err and "trace" in err
    assert "Traceback" not in err


def test_tvd_rejects_an_invalid_inline_state(tmp_path, capsys):
    # Below the uncertainty bound: validate rejects it, so tvd must too.
    config = {
        "cm": {"format": "sympcoh-cm-v1", "matrix": [[0.1, 0.0], [0.0, 0.1]]},
        "sxp1": 0.3,
        "sxp2": 0.0,
        "theta": np.pi / 4,
    }
    config_file = tmp_path / "tvd.json"
    config_file.write_text(json.dumps(config))
    code, out, err = run_cli(["tvd", "--config", str(config_file)], capsys)
    assert code == 1
    assert out is None
    assert "uncertainty" in err


def test_discord_at_a_trace_whose_square_overflows(tmp_path, capsys):
    state_file = tmp_path / "large.json"
    save_state(GaussianState(CovMat([[1e160, 1.0], [1.0, 1e160]])), str(state_file))
    code, out, err = run_cli(["discord", str(state_file)], capsys)
    assert code == 0, err
    result = out["result"]
    assert np.isfinite([result["c"], result["D_G"], result["relation_residual"]]).all()
    assert result["relation_residual"] <= 1e-15 * max(1.0, result["c"])


@pytest.mark.parametrize("sub", ["coherence", "discord"])
def test_coherence_past_the_float_range_exits_1_naming_it(sub, capsys, monkeypatch):
    # Valid, but sum V_xp^2 = 2.5e399: a named reason, no overflow warning (an error under pytest).
    doc = {"format": "sympcoh-cm-v1", "matrix": [[1e200, 5e199], [5e199, 1e200]]}
    code, _, _ = run_cli(["validate", "-"], capsys, monkeypatch, stdin_text=json.dumps(doc))
    assert code == 0
    code, out, err = run_cli([sub, "-"], capsys, monkeypatch, stdin_text=json.dumps(doc))
    assert code == 1
    assert out is None
    assert "NumericError: symplectic coherence" in err and "overflows float64" in err
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_apply_past_the_float_range_exits_1_naming_it(tmp_path, capsys, monkeypatch):
    # A squeezer at r = 300 on a trace-1e100 state: S V S^T is past the float
    # range, a named reason with no overflow warning (an error under pytest).
    code, state, _ = run_cli(["msc", "--E", "1e100", "--m", "1"], capsys)
    assert code == 0
    gate_file = tmp_path / "r300.json"
    gate_file.write_text(json.dumps({"kind": "squeezer", "params": {"mode": 1, "r": 300}}))
    argv = ["apply", "-", "--gate", str(gate_file)]
    code, out, err = run_cli(argv, capsys, monkeypatch, stdin_text=json.dumps(state))
    assert code == 1
    assert out is None
    assert "NumericError: gate output S V S^T overflows float64" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("sub", ["validate", "qfi", "coherence", "discord"])
def test_every_reader_answers_where_the_cholesky_fails(sub, tmp_path, capsys):
    state_file = tmp_path / "singular.json"
    state_file.write_text(json.dumps({"format": "sympcoh-cm-v1", "matrix": SINGULAR_1E12}))
    code, out, err = run_cli([sub, str(state_file)], capsys)
    assert code == 0, err
    assert out["result"]


@pytest.mark.filterwarnings("error")
def test_qfi_past_the_float_range_exits_1_naming_the_overflow(tmp_path, capsys):
    # A valid pure state whose bound 2 (V_x + V_p) overflows: every other reader answers.
    edge = tmp_path / "edge.csv"
    edge.write_text("1e308,0\n0,1e-308\n")
    for sub in ("validate", "coherence", "discord"):
        code, out, err = run_cli([sub, str(edge)], capsys)
        assert code == 0 and err == "", (sub, err)
    code, out, err = run_cli(["qfi", str(edge)], capsys)
    assert code == 1 and out is None
    assert "NumericError: quantum Fisher information" in err and "overflows float64" in err
    assert "RuntimeWarning" not in err and "Traceback" not in err


_PROBE = {"format": "sympcoh-cm-v1", "matrix": [[3.0, 1.0], [1.0, 3.0]]}
_DISC = {"probe": _PROBE, "delta": 0.1, "n_samples": 10, "trials": 10}


@pytest.mark.parametrize(
    "sub, doc",
    [
        ("apply", [1, 2]),
        ("apply", {"kind": "squeezer", "params": [1, 0.5]}),
        ("tvd", 5),
        ("discriminate", [1]),
        ("discriminate", {**_DISC, "channels": [[1], {"kind": "identity"}]}),
        ("discriminate", {**_DISC, "channels": 5}),
        ("apply", [1]),
    ],
)
def test_json_inputs_of_the_wrong_shape_exit_1(sub, doc, tmp_path, capsys):
    doc_file = tmp_path / "doc.json"
    doc_file.write_text(json.dumps(doc))
    if sub == "apply":
        state_file = tmp_path / "state.json"
        save_state(vacuum_state(1), str(state_file))
        argv = ["apply", str(state_file), "--gate", str(doc_file)]
    else:
        argv = [sub, "--config", str(doc_file)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out is None
    assert "ValueError" in err and "must be a JSON" in err
    assert "Traceback" not in err


_CHANNELS = [{"kind": "identity"}, {"kind": "loss", "eta": 0.5}]
_TVD_BOUND = {"cm": _PROBE, "sxp1": 0.3, "sxp2": 0.0, "theta": 0.5}
_VACUUM = {"format": "sympcoh-cm-v1", "matrix": [[1.0, 0.0], [0.0, 1.0]]}
# Integer fields take no fraction and no boolean; `inflated` takes only a boolean.
_FIELD_KINDS = {f: "an integer" for f in ("mode", "n_samples", "trials", "seed")} | {
    "inflated": "a boolean"
}


@pytest.mark.parametrize(
    "sub, doc, field",
    [
        ("tvd", {"var1": [1], "var2": 2}, "var1"),
        ("tvd", {"var1": 1, "var2": {"v": 2}}, "var2"),
        ("tvd", {"var1": None, "var2": 2}, "var1"),
        ("tvd", {**_TVD_BOUND, "theta": [0.5]}, "theta"),
        ("tvd", {**_TVD_BOUND, "sxp1": {"v": 0.3}}, "sxp1"),
        ("apply", {"kind": "squeezer", "params": {"mode": [1], "r": 0.5}}, "mode"),
        ("apply", {"kind": "squeezer", "params": {"mode": 1, "r": {"r": 0.5}}}, "r"),
        ("apply", {"kind": "phase_shifter", "params": {"mode": 1, "theta": [0.1]}}, "theta"),
        ("apply", {"kind": "beamsplitter", "params": {"eta": [0.5]}}, "eta"),
        ("discriminate", {**_DISC, "channels": _CHANNELS, "delta": [0.1]}, "delta"),
        ("discriminate", {**_DISC, "channels": _CHANNELS, "n_samples": {"n": 10}}, "n_samples"),
        ("discriminate", {**_DISC, "channels": _CHANNELS, "trials": [10]}, "trials"),
        ("discriminate", {**_DISC, "channels": _CHANNELS, "seed": [3]}, "seed"),
        ("discriminate", {**_DISC, "channels": [{"kind": "loss", "eta": [0.4]}, _CHANNELS[0]]}, "eta"),
        ("tvd", {**_TVD_BOUND, "theta": float("nan")}, "theta"),
        ("tvd", {"var1": float("nan"), "var2": 2}, "var1"),
        ("tvd", {"var1": 1, "var2": float("inf")}, "var2"),
        ("tvd", {**_TVD_BOUND, "sxp2": float("-inf")}, "sxp2"),
        ("apply", {"kind": "squeezer", "params": {"mode": 1, "r": float("nan")}}, "r"),
        ("discriminate", {**_DISC, "channels": _CHANNELS, "delta": float("inf")}, "delta"),
        ("discriminate", {**_DISC, "channels": _CHANNELS, "trials": float("nan")}, "trials"),
        ("discriminate", {**_DISC, "channels": _CHANNELS, "seed": float("-inf")}, "seed"),
        ("apply", {"kind": "squeezer", "params": {"mode": 1.9, "r": 0.5}}, "mode"),
        ("apply", {"kind": "phase_shifter", "params": {"mode": True, "theta": 0.1}}, "mode"),
        ("discriminate", {**_DISC, "channels": _CHANNELS, "n_samples": 10.7}, "n_samples"),
        ("discriminate", {**_DISC, "channels": _CHANNELS, "trials": True}, "trials"),
        ("discriminate", {**_DISC, "channels": _CHANNELS, "seed": "3"}, "seed"),
        ("tvd", {**_TVD_BOUND, "inflated": "false"}, "inflated"),
        ("tvd", {**_TVD_BOUND, "inflated": 1}, "inflated"),
        ("tvd", {**_TVD_BOUND, "inflated": None}, "inflated"),
        ("tvd", {**_TVD_BOUND, "theta": "0.7"}, "theta"),
        ("tvd", {**_TVD_BOUND, "sxp1": True}, "sxp1"),
        ("tvd", {"var1": "1", "var2": 2}, "var1"),
        ("apply", {"kind": "beamsplitter", "params": {"eta": False}}, "eta"),
        ("discriminate", {**_DISC, "channels": _CHANNELS, "delta": "0.1"}, "delta"),
    ],
)
def test_non_numeric_scalar_fields_exit_1(sub, doc, field, tmp_path, capsys):
    doc_file = tmp_path / "doc.json"
    doc_file.write_text(json.dumps(doc))
    if sub == "apply":
        state_file = tmp_path / "state.json"
        save_state(vacuum_state(1), str(state_file))
        argv = ["apply", str(state_file), "--gate", str(doc_file)]
    else:
        argv = [sub, "--config", str(doc_file)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out is None
    assert "ValueError" in err and f"field {field!r} must be {_FIELD_KINDS.get(field, 'a number')}" in err
    assert "Traceback" not in err


_ENV = {"format": "sympcoh-cm-v1", "matrix": [[1.0, 0.0], [0.0, 1.0]]}
_BS = [[0.6, 0.8], [-0.8, 0.6]]


@pytest.mark.parametrize(
    "sub, doc, field",
    [
        ("apply", {"kind": "block_orthogonal", "params": {"o": {"a": 1}}}, "o"),
        ("apply", {"kind": "passive", "params": {"x": {"a": 1}, "y": [[0.0]]}}, "x"),
        ("apply", {"kind": "passive", "params": {"x": [[1.0]], "y": {"a": 1}}}, "y"),
        ("apply", {"kind": "displacement", "params": {"d": {"a": 1}}}, "d"),
        ("apply", {"kind": "matrix", "params": {"S": {"a": 1}}}, "S"),
        ("apply", {"kind": "matrix", "params": {"S": [[1, 0], [0, 1]], "disp": {"a": 1}}}, "disp"),
        ("apply", {"kind": "matrix", "params": {"S": [[1, 0], [0, "x"]]}}, "S"),
        (
            "discriminate",
            {**_DISC, "channels": [{"kind": "stinespring", "o": {"a": 1}, "env": _ENV}, _CHANNELS[0]]},
            "o",
        ),
        (
            "discriminate",
            {
                **_DISC,
                "channels": [{"kind": "stinespring", "o": _BS, "env": _ENV, "d": {"a": 1}}, _CHANNELS[0]],
            },
            "d",
        ),
    ],
)
def test_non_numeric_array_fields_exit_1(sub, doc, field, tmp_path, capsys):
    doc_file = tmp_path / "doc.json"
    doc_file.write_text(json.dumps(doc))
    if sub == "apply":
        state_file = tmp_path / "state.json"
        save_state(vacuum_state(1), str(state_file))
        argv = ["apply", str(state_file), "--gate", str(doc_file)]
    else:
        argv = [sub, "--config", str(doc_file)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out is None
    assert "ValueError" in err and f"field {field!r} must be an array of numbers" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "bad, field, what",
    [
        ({"matrix": {"a": 1}}, "matrix", "an array of numbers"),
        ({"matrix": [[1, 0], [0, "x"]]}, "matrix", "an array of numbers"),
        ({"displacement": {"a": 1}}, "displacement", "an array of numbers"),
        ({"m": [1]}, "m", "an integer"),
        ({"m": 1.7}, "m", "an integer"),
        ({"m": True}, "m", "an integer"),
    ],
)
@pytest.mark.parametrize("where", ["validate", "probe", "env", "cm"])
def test_bad_state_document_fields_exit_1(where, bad, field, what, tmp_path, capsys, monkeypatch):
    doc = {**_ENV, **bad}
    if where == "validate":
        code, out, err = run_cli(["validate", "-"], capsys, monkeypatch, json.dumps(doc))
    else:
        sub, cfg = {
            "probe": ("discriminate", {**_DISC, "probe": doc, "channels": _CHANNELS}),
            "env": (
                "discriminate",
                {**_DISC, "channels": [{"kind": "stinespring", "o": _BS, "env": doc}, _CHANNELS[0]]},
            ),
            "cm": ("tvd", {**_TVD_BOUND, "cm": doc}),
        }[where]
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(cfg))
        code, out, err = run_cli([sub, "--config", str(cfg_file)], capsys)
    assert code == 1
    assert out is None
    assert "ValueError" in err and f"field {field!r} must be {what}" in err
    assert "Traceback" not in err


def test_qfi_on_a_matrix_not_positive_definite_in_float64_is_exact(tmp_path, capsys):
    # msc's document at E = 1e12, holding [[a, -a], [-a, a]] (singular in
    # float64) as msc stored it before its off-diagonal entry was rounded:
    # purity needs no Cholesky factor, so the value is the QFI itself.
    state_file = tmp_path / "s.json"
    code, _, _ = run_cli(["msc", "--E", "1e12", "--m", "1", "-o", str(state_file)], capsys)
    assert code == 0
    doc = json.loads(state_file.read_text())
    doc["matrix"] = SINGULAR_1E12
    state_file.write_text(json.dumps(doc))
    code, out, err = run_cli(["qfi", str(state_file)], capsys)
    assert code == 0, err
    assert out["result"]["exact"] is True


def test_manifest_key_set(capsys):
    code, out, _ = run_cli(["maxsc", "--E", "10", "--m", "2"], capsys)
    assert code == 0
    manifest = out["manifest"]
    assert set(manifest) == {
        "format",
        "numpy_version",
        "parameters",
        "seed",
        "stream_scheme",
        "subcommand",
        "version",
        "wall_time_s",
    }
    assert manifest["format"] == ENVELOPE_FORMAT
    assert manifest["numpy_version"] == np.__version__
    assert manifest["stream_scheme"] == STREAM_SCHEME


@pytest.mark.parametrize("E, m", [("1e3", 4), ("3.5e7", 8)])
def test_validate_result_key_set_and_floor(E, m, tmp_path, capsys):
    # Eigenvalue rounding at E = 3.5e7, about eps * E = 7.8e-9, is above any
    # absolute 1e-9 but far below the floor the verdict is judged at.
    state_file = tmp_path / "s.json"
    code, _, _ = run_cli(["msc", "--E", E, "--m", str(m), "-o", str(state_file)], capsys)
    assert code == 0
    code, out, err = run_cli(["validate", str(state_file)], capsys)
    assert code == 0, err
    result = out["result"]
    assert set(result) == {"valid", "floor", "violations"}
    assert result["valid"] is True and result["violations"] == []
    trace = load_state(str(state_file)).cov.trace
    assert result["floor"] == rounding_floor(2 * m, trace) == (2 * m + 2) ** 2 * np.finfo(float).eps * trace


def test_tvd_rejects_empty_config(tmp_path, capsys):
    config_file = tmp_path / "empty.json"
    config_file.write_text("{}")
    code, out, err = run_cli(["tvd", "--config", str(config_file)], capsys)
    assert code == 1
    assert out is None
    assert "ValueError" in err


def test_maxsearch_within_bound(capsys):
    argv = ["maxsearch", "--E", "6", "--m", "1", "--trials", "50", "--seed", "2"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out["result"]["within_bound"] is True
    assert out["result"]["sup_c"] <= out["result"]["c_max"] + 1e-6
    assert out["result"]["sup_c"] >= 7.0


def test_maxsearch_within_bound_at_large_trace(capsys):
    # sup_c exceeds c_max here by rounding only (9.5e-16 relative).
    argv = ["maxsearch", "--E", "1e5", "--m", "1", "--trials", "30", "--seed", "4"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out["result"]["within_bound"] is True


def strip_wall_time(envelope: dict) -> dict:
    envelope["manifest"].pop("wall_time_s")
    return envelope


def test_repeated_runs_are_bit_identical(capsys):
    argv = ["ensemble", "--m", "2", "--E", "8", "--kind", "unitary", "--samples", "40"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert strip_wall_time(first) == strip_wall_time(second)


@pytest.mark.parametrize(
    "argv",
    [
        ["maxsearch", "--E", "6", "--m", "1", "--trials", "50", "--seed", "-1"],
        ["ensemble", "--m", "2", "--E", "8", "--kind", "unitary", "--samples", "40", "--seed", "-1"],
    ],
)
def test_negative_seed_runs_and_repeats(argv, capsys):
    code, first, _ = run_cli(argv, capsys)
    assert code == 0
    _, second, _ = run_cli(argv, capsys)
    assert strip_wall_time(first) == strip_wall_time(second)


def test_usage_errors_exit_2(capsys):
    assert main(["no-such-subcommand"]) == 2
    capsys.readouterr()
    assert main(["maxsc", "--E", "6"]) == 2  # missing --m
    capsys.readouterr()
    assert main(["maxsearch", "--E", "6", "--m", "1", "--trials", "5", "--threads", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["maxsc", "--E", "4", "--m", "0"],
        ["maxsc", "--E", "4", "--m", "-3"],
        ["maxsc", "--E", "nan", "--m", "1"],
        ["maxsearch", "--E", "inf", "--m", "1", "--trials", "5"],
        ["maxsearch", "--E", "nan", "--m", "1", "--trials", "5"],
        ["maxsearch", "--E", "6", "--m", "0", "--trials", "5"],
        ["maxsearch", "--E", "1e200", "--m", "2", "--trials", "3"],
    ],
    ids=" ".join,
)
def test_out_of_domain_budget_exits_1(argv, capsys):
    with deadline(20, argv):
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "ValueError" in captured.err


def test_malformed_json_exit_1(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, out, err = run_cli(["coherence", str(broken)], capsys)
    assert code == 1
    assert out is None
    assert "JSON" in err or "json" in err


def test_missing_file_exit_1(capsys):
    code, out, err = run_cli(["coherence", "/no/such/file.json"], capsys)
    assert code == 1
    assert out is None


def test_invalid_state_blocks_analysis_subcommands(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    np.savetxt(bad, 0.5 * np.eye(2), delimiter=",")
    code, out, err = run_cli(["coherence", str(bad)], capsys)
    assert code == 1
    assert out is None
    assert "uncertainty" in err


def test_version_flag(capsys):
    # The build reads the version from the attribute pyproject.toml names;
    # tomllib is not in Python 3.10, so both files are read with a regex.
    root = Path(__file__).resolve().parents[1]
    pyproject = (root / "pyproject.toml").read_text()
    attr = re.search(r'^version = \{attr = "([\w.]+)"\}', pyproject, re.M).group(1)
    module, name = attr.rsplit(".", 1)
    source = (root / "src" / Path(*module.split("."))).with_suffix(".py").read_text()
    version = re.search(rf'^{re.escape(name)} = "([^"]+)"', source, re.M).group(1)

    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == version
    code, out, _ = run_cli(["maxsc", "--E", "10", "--m", "2"], capsys)
    assert code == 0
    assert out["manifest"]["version"] == version


def test_stdin_accepts_bare_document(capsys, monkeypatch):
    from sympcoh import state_to_dict

    doc = state_to_dict(msc_canonical(6.0, 1))
    code, out, _ = run_cli(
        ["coherence", "-"], capsys, monkeypatch, stdin_text=json.dumps(doc)
    )
    assert code == 0
    assert out["result"]["c"] == pytest.approx(8.0, abs=1e-9)


def test_validate_reports_an_asymmetry_past_the_float_range_as_null(tmp_path, capsys):
    # max|V - V^T| is 2e308 here: inf as a float, null in the JSON envelope.
    antisymmetric = tmp_path / "antisymmetric.csv"
    antisymmetric.write_text("1,1e308\n-1e308,1\n")
    code, out, err = run_cli(["validate", str(antisymmetric)], capsys)
    assert code == 1
    assert out["result"] == {
        "valid": False,
        "floor": rounding_floor(2, 2.0),
        "violations": [{"name": "symmetry", "magnitude": None}],
    }
    assert "symmetry (magnitude inf)" in err
    assert "ValueError" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "gate, counts",
    [
        ({"kind": "matrix", "params": {"S": np.eye(2).tolist()}}, "1 modes"),
        ({"kind": "displacement", "params": {"d": [1.0, 2.0]}}, "1 modes"),
        ({"kind": "matrix", "params": {"S": np.eye(6).tolist()}}, "3 modes"),
    ],
)
def test_apply_rejects_a_gate_of_the_wrong_size(gate, counts, tmp_path, capsys):
    state_file = tmp_path / "vac.json"
    save_state(vacuum_state(2), str(state_file))
    gate_file = tmp_path / "gate.json"
    gate_file.write_text(json.dumps(gate))
    code, out, err = run_cli(["apply", str(state_file), "--gate", str(gate_file)], capsys)
    assert code == 1
    assert out is None
    assert f"gate acts on {counts} but state has 2" in err
    assert "Traceback" not in err


_NORM_OVERFLOW = "GateError: squared norm of the gate matrix overflows float64"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "sub, doc, reason",
    [
        (
            "apply",
            {"kind": "displacement", "params": {"d": [float("nan"), 0]}},
            "gate displacement must be finite",
        ),
        (
            "tvd",
            {**_TVD_BOUND, "cm": _VACUUM, "sxp1": -5, "theta": np.pi / 4},
            "rotated variance of output 1",
        ),
        ("apply", {"kind": "squeezer", "params": {"mode": 1, "r": 400.0}}, _NORM_OVERFLOW),
        ("apply", {"kind": "squeezer", "params": {"mode": 1, "r": 1000.0}}, _NORM_OVERFLOW),
        ("apply", {"kind": "matrix", "params": {"S": [[1e200, 0.0], [0.0, 1e-200]]}}, _NORM_OVERFLOW),
        ("discriminate", {**_DISC, "channels": _CHANNELS, "trials": 0}, "trials must be >= 1"),
        ("discriminate", {**_DISC, "channels": _CHANNELS, "n_samples": 0}, "n_samples must be >= 1"),
    ],
)
def test_gate_and_bound_faults_exit_1_naming_the_input(sub, doc, reason, tmp_path, capsys):
    doc_file = tmp_path / "doc.json"
    doc_file.write_text(json.dumps(doc))
    if sub == "apply":
        state_file = tmp_path / "state.json"
        save_state(vacuum_state(1), str(state_file))
        argv = ["apply", str(state_file), "--gate", str(doc_file)]
    else:
        argv = [sub, "--config", str(doc_file)]
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out is None
    assert reason in err
    assert "first moments" not in err and "Traceback" not in err


def test_apply_takes_the_size_of_a_displacement_gate_from_its_vector(tmp_path, capsys):
    state_file = tmp_path / "vac.json"
    save_state(vacuum_state(2), str(state_file))
    gate_file = tmp_path / "gate.json"
    gate_file.write_text(json.dumps({"kind": "displacement", "params": {"d": [1, 2, 3, 4]}}))
    code, out, _ = run_cli(["apply", str(state_file), "--gate", str(gate_file)], capsys)
    assert code == 0
    assert out["result"]["displacement"] == [1.0, 2.0, 3.0, 4.0]


@pytest.mark.parametrize(
    "matrix, reason",
    [
        # V_0m^2 underflows to 0: once a ZeroDivisionError traceback.
        ([[1.0, 1e-200], [1e-200, 1.0]], "NumericError: sample threshold overflows float64"),
        # n_thres is inf: once "Out of range float values are not JSON compliant".
        ([[1.0, 1e-160], [1e-160, 1.0]], "NumericError: sample threshold overflows float64"),
        # V_00 V_mm overflows: once an OverflowError traceback, after an overflow warning.
        ([[1.5e200, 1e200], [1e200, 1.5e200]], "NumericError: variance 1 + V_00 V_mm + mu^2"),
    ],
)
def test_discrimination_past_the_float_range_exits_1_naming_it(matrix, reason, tmp_path, capsys):
    assert sympcoh.is_valid(CovMat(matrix))
    config = {
        "probe": {"format": "sympcoh-cm-v1", "matrix": matrix},
        "channels": [{"kind": "loss", "eta": 0.5}, {"kind": "identity"}],
        "delta": 0.05,
        "n_samples": 200,
        "trials": 100,
        "seed": 7,
    }
    config_file = tmp_path / "disc.json"
    config_file.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["discriminate", "--config", str(config_file)], capsys)
    assert code == 1
    assert out is None
    assert reason in err


def test_discrimination_names_a_stinespring_channel_of_the_wrong_size(tmp_path, capsys):
    config = {
        **_DISC,
        "channels": [{"kind": "stinespring", "o": np.eye(3).tolist(), "env": _VACUUM}, _CHANNELS[0]],
    }
    config_file = tmp_path / "disc.json"
    config_file.write_text(json.dumps(config))
    code, out, err = run_cli(["discriminate", "--config", str(config_file)], capsys)
    assert code == 1
    assert out is None
    assert "DimensionError: Stinespring channel acts on 2-mode inputs" in err


@pytest.mark.parametrize("rel, within", [(0.0, True), (8.0 * sys.float_info.epsilon, True), (1e-9, False)])
def test_maxsearch_within_bound_is_the_rounding_floor_of_c_max(rel, within, capsys, monkeypatch):
    # At E = 2 + 1e-13, c_max is about 1e-13, and a fixed slack of 1e-12
    # accepted ten times c_max.  The floor at m = 1 is 16 eps c_max: a
    # synthetic sup_c = c_max (1 + rel) is inside it at 8 eps, not at 1e-9.
    E, m = 2.0000000000001, 1
    c_max = sympcoh.max_symplectic_coherence(E, m)
    sup_c = c_max * (1.0 + rel)
    outcome = sympcoh.coherence.SearchOutcome(sup_c, {"trial": 0})
    monkeypatch.setattr(sympcoh.coherence, "numeric_max_search", lambda *args: outcome)
    code, out, _ = run_cli(["maxsearch", "--E", repr(E), "--m", str(m), "--trials", "30"], capsys)
    assert code == 0
    assert (out["result"]["sup_c"], out["result"]["c_max"]) == (sup_c, c_max)
    assert out["result"]["within_bound"] is within


def test_maxsearch_stays_within_the_rounding_floor_near_the_maximum():
    # Near-maximal searches at m = 1, 2, 4, 8 and 16 with E - 2m from 1e-15
    # to 1e150: sup_c passes c_max only by its rounding, never by the floor,
    # and falls short of it by no more than the floor either.
    rng = np.random.default_rng(34)
    modes = (1, 2, 4, 8, 16)
    worst = dict.fromkeys(modes, -1.0)
    for i in range(800):
        m = modes[i % len(modes)]
        E = 2 * m + 10.0 ** rng.uniform(-15.0, 150.0)
        c_max = sympcoh.max_symplectic_coherence(E, m)
        sup_c = sympcoh.numeric_max_search(E, m, 30, int(rng.integers(2**31))).sup_c
        assert abs(sup_c - c_max) <= rounding_floor(2 * m, c_max), (E, m)
        if c_max:  # an excess below half an ulp of 2m leaves E = 2m, the vacuum
            worst[m] = max(worst[m], (sup_c - c_max) / c_max)
    # The sweep reaches c_max at every m: some search passes it by rounding.
    assert all(w > 0.0 for w in worst.values()), worst


# ---------------------------------------------------------------------------
# The CLI contract: one invocation per row, in process with warnings as errors
# ---------------------------------------------------------------------------


class Case(NamedTuple):
    """``sympcoh <argv>`` run in a fresh directory holding ``files``, with ``stdin``.

    A file or stdin text ``"sympcoh <argv>"`` is the stdout of that command
    (files are written in order, so one may read another); other text is
    itself, and anything else is written as JSON.  ``err`` is a pattern
    stderr matches; if empty, stderr is empty.  ``check`` is a predicate on
    the result.
    """

    argv: str
    code: int = 0
    err: str = ""
    check: Callable[[dict], bool] | None = None
    stdin: object = None
    files: dict = {}


_MSC = "sympcoh msc --E 6 --m 1"
_E10 = (np.array(_BS) @ np.diag([np.exp(10), np.exp(-10)]) @ np.array(_BS).T).tolist()
_DILATED_LOSS = {"kind": "stinespring", "o": beamsplitter_orthogonal(0.8).tolist(), "env": _ENV}
_LOSS0_ID = [{"kind": "loss", "eta": 0.0}, _CHANNELS[0]]
_DISCRIMINATE = "discriminate --config disc.json"
_QUARTER = {"kind": "phase_shifter", "params": {"mode": 1, "theta": 1.5707963267948966}}
_NO_FILE_DASH = r"\AFileNotFoundError: [^\n]*'-'\n\Z"


def _disc_files(probe=_MSC, **changes):
    """A probe file and a seeded config: loss at eta = 0.5 against the identity, 100 trials of 200 shots."""
    config = {"probe_file": "probe.json", "channels": _CHANNELS[::-1], "delta": 0.05, "n_samples": 200}
    return {"probe.json": probe, "disc.json": {**config, "trials": 100, "seed": 7, **changes}}


def _search(m, also=lambda r: True):
    """Within its bound, short of c_max by at most its rounding floor, and ``also``."""
    return lambda r: (
        r["within_bound"] is True and r["c_max"] - r["sup_c"] <= rounding_floor(2 * m, r["c_max"]) and also(r)
    )


def _at_a_vertex(m):
    return lambda r: abs(r["argmax"]["vertex_gap"]) <= rounding_floor(2 * m, 1.0)


def _finite(r):
    return all(math.isfinite(v) for k, v in r.items() if k != "kind")


def _exact_error(r):
    return 0 < r["empirical_error"] < 1


def _exactly_valid(r):
    # msc stores its first-mode block exactly symmetric with det >= 1, in rational arithmetic.
    (a, b), (c, d) = (map(Fraction, row) for row in r["matrix"])
    return b == c and a > 0 and a * d - b * c >= 1


_CONTRACT = {
    "ensemble-one-sample": Case(
        "ensemble --m 4 --E 24 --kind unitary --samples 1",
        check=lambda r: r["stderr"] == 0 and r["n_sigma"] is None,
    ),
    "ensemble-m16": Case("ensemble --m 16 --E 72 --kind unitary --samples 1000", check=_finite),
    "ensemble-m1-at-1e12": Case(
        "ensemble --m 1 --E 1e12 --kind unitary --samples 1000",
        check=lambda r: abs(r["mean_nu_sq"] - 1) <= 1e-12,
    ),
    # Ensemble statistics stay finite up to the largest trace whose square is finite.
    "ensemble-at-1.3e154": Case("ensemble --m 2 --E 1.3e154 --kind unitary --samples 200", check=_finite),
    "qfi-at-1e5": Case("qfi -", stdin="sympcoh msc --E 1e5 --m 1", check=lambda r: r["exact"] is True),
    # Purity needs no Cholesky factor: a pure state whose factor fails in float64 is exact.
    "qfi-where-the-cholesky-fails": Case(
        "qfi -", stdin="sympcoh msc --E 4173961835.019933 --m 1", check=lambda r: r["exact"] is True
    ),
    "msc-exact-at-1e12": Case("msc --E 1e12 --m 1", check=_exactly_valid),
    "apply-e10-squeezer": Case(
        "apply - --gate g.json", stdin=_MSC, files={"g.json": {"kind": "matrix", "params": {"S": _E10}}}
    ),
    # A gate on a matrix at both ends of the float range: no overflow, no warning.
    "apply-at-both-ends-of-the-float-range": Case(
        "apply edge.csv --gate g.json",
        files={"edge.csv": "1e308,0\n0,1e-308\n", "g.json": {**_QUARTER, "params": {"mode": 1, "theta": 0}}},
    ),
    "validate-below-the-uncertainty-bound": Case(
        "validate -", 1, "uncertainty", stdin={**_VACUUM, "matrix": [[0.5, 0], [0, 0.5]]}
    ),
    "validate-trace-overflow": Case(
        "validate -", 1, "DimensionError.*trace", stdin={**_VACUUM, "matrix": [[1e308, 0], [0, 1e308]]}
    ),
    # Pair sweeps from the best vertex bring an 8-mode search to c_max within its rounding floor.
    "maxsearch-m8": Case("maxsearch --E 40 --m 8 --trials 200 --seed 0", check=_search(8)),
    # At a large trace the pair sweeps reach c_max too, with every phase in (-pi/2, pi/2].
    "maxsearch-m4-at-1e8": Case(
        "maxsearch --E 1e8 --m 4 --trials 200 --seed 0",
        check=_search(4, lambda r: all(-math.pi / 2 < t <= math.pi / 2 for t in r["argmax"]["theta"])),
    ),
    # At a large trace search_gap_rel cannot see whether |H_kk| = 1 at the best vertex; vertex_gap can.
    "maxsearch-m8-at-1e8": Case(
        "maxsearch --E 1e8 --m 8 --trials 200 --seed 0", check=_search(8, _at_a_vertex(8))
    ),
    # Just above the vacuum the pair sweeps end by their stop rule at the rounding floor.
    "maxsearch-m8-near-the-vacuum": Case(
        "maxsearch --E 16.000001 --m 8 --trials 50 --seed 77", check=_search(8, _at_a_vertex(8))
    ),
    # Here the maximiser needs the sampled U's columns mixed, which only pair moves do.
    "maxsearch-m4-10000-trials": Case("maxsearch --E 16 --m 4 --trials 10000 --seed 7", check=_search(4)),
    # Near the vacuum the maximum is reached from the best vertex, not between vertices.
    "maxsearch-m4-near-the-vacuum": Case(
        "maxsearch --E 8.000001 --m 4 --trials 50 --seed 87", check=_search(4)
    ),
    # An ulp above the minimum budget is not the vacuum: the search finds squeezing.
    "maxsearch-an-ulp-above-2m": Case(
        "maxsearch --E 2.0000000000000004 --m 1 --trials 30 --seed 0", check=lambda r: r["sup_c"] > 0
    ),
    # Just above the minimum budget within_bound is two-sided: sup_c is within 16 eps of c_max.
    "maxsearch-just-above-2m": Case(
        "maxsearch --E 2.0000000000001 --m 1 --trials 30",
        check=lambda r: r["within_bound"] is True
        and r["sup_c"] <= r["c_max"] * (1 + 16 * sys.float_info.epsilon),
    ),
    "maxsearch-m16": Case("maxsearch --E 72 --m 16 --trials 30 --seed 0", check=_search(16)),
    # A long search factors only the samples whose bound can win, and keeps the exhaustive argmax.
    "maxsearch-m8-20000-trials": Case(
        "maxsearch --E 40 --m 8 --trials 20000 --seed 0",
        check=_search(8, lambda r: r["argmax"]["trial"] == 247),
    ),
    # The spectrum bounds stay finite up to the largest trace whose square is finite.
    "maxsearch-at-1.3e154": Case("maxsearch --E 1.3e154 --m 8 --trials 300"),
    # Discrimination at 1e8 shots per trial draws only one uniform per trial.
    "discriminate-1e8-shots": Case(_DISCRIMINATE, files=_disc_files(n_samples=100_000_000, trials=20)),
    # A seeded run (K = 30, with K/2 ties) keeps its error rate under v8.
    "discriminate-seeded": Case(
        _DISCRIMINATE, files=_disc_files(trials=5000), check=lambda r: r["empirical_error"] == 0.0174
    ),
    # Tie-heavy (a K/2 tie with chance about 14%), K = 2 (two groups of one
    # shot) and the far tail (the probe turned a quarter period, the vacuum's
    # group means above the midpoint with chance below 1e-3): each exact
    # error is computed with no warning and no error.
    "discriminate-tie-heavy": Case(
        _DISCRIMINATE,
        files=_disc_files(channels=[_CHANNELS[1], {"kind": "loss", "eta": 0.52}], trials=2000),
        check=_exact_error,
    ),
    "discriminate-k2": Case(
        _DISCRIMINATE,
        files=_disc_files(channels=_LOSS0_ID, delta=0.1, n_samples=2, trials=2000),
        check=_exact_error,
    ),
    "discriminate-far-tail": Case(
        _DISCRIMINATE,
        files={
            "msc.json": _MSC,
            "quarter.json": _QUARTER,
            **_disc_files(
                "sympcoh apply msc.json --gate quarter.json",
                channels=_LOSS0_ID,
                delta=0.95,
                n_samples=60,
                trials=2000,
            ),
        },
        check=_exact_error,
    ),
    # A config names a state by path or inline document: its "-" is a file
    # name, and stdin (a stub that fails the row if read) stays unread.
    "discriminate-probe-file-dash": Case(_DISCRIMINATE, 1, _NO_FILE_DASH, files=_disc_files(probe_file="-")),
    "discriminate-stinespring-env-dash": Case(
        _DISCRIMINATE, 1, _NO_FILE_DASH, files=_disc_files(channels=[_CHANNELS[0], {**_DILATED_LOSS, "env": "-"}])
    ),
    "tvd-cm-dash": Case("tvd --config t.json", 1, _NO_FILE_DASH, files={"t.json": {**_TVD_BOUND, "cm": "-"}}),
    # Identity against the beam-splitter dilation of loss at eta = 0.8: mu2 = 0.8 mu1.
    "discriminate-beam-splitter-dilation": Case(
        _DISCRIMINATE,
        files=_disc_files(channels=[_CHANNELS[0], _DILATED_LOSS]),
        check=lambda r: abs(r["mu2"] - 0.8 * r["mu1"]) <= 1e-12 * abs(r["mu1"]),
    ),
}


class _UnreadStdin:
    """The stdin of a row that gives none: reading it fails the row."""

    def read(self, *args):
        pytest.fail("stdin was read")

    readline = read


def _text(spec, capsys) -> str:
    if isinstance(spec, str) and spec.startswith("sympcoh "):
        code, out, err = run_cli(spec.split()[1:], capsys)
        assert code == 0, err
        return json.dumps(out)
    return spec if isinstance(spec, str) else json.dumps(spec)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", _CONTRACT.values(), ids=_CONTRACT.keys())
def test_cli_contract(case, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, spec in case.files.items():
        Path(name).write_text(_text(spec, capsys))
    stdin = None if case.stdin is None else _text(case.stdin, capsys)
    if stdin is None:
        monkeypatch.setattr("sys.stdin", _UnreadStdin())
    with deadline(60, case.argv.split()):
        code, out, err = run_cli(case.argv.split(), capsys, monkeypatch, stdin)
    assert code == case.code, err
    assert re.search(case.err, err) if case.err else err == "", err
    assert "Traceback" not in err and "Warning" not in err
    assert out is None or out["manifest"]["stream_scheme"] == "seedseq-spawn-v8"
    if case.check is not None:
        assert case.check(out["result"]), out["result"]


@pytest.mark.filterwarnings("error")
def test_discrimination_in_the_other_channel_order_swaps_only_the_moments(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    results = []
    for channels in (_CHANNELS[::-1], _CHANNELS):
        for name, spec in _disc_files(channels=channels, trials=5000).items():
            Path(name).write_text(_text(spec, capsys))
        code, out, err = run_cli(_DISCRIMINATE.split(), capsys)
        assert code == 0, err
        results.append(out["result"])
    a, b = results
    assert a == {**b, "mu1": b["mu2"], "mu2": b["mu1"], "var1": b["var2"], "var2": b["var1"]}
