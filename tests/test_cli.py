"""End-to-end checks of the console entry point (in-process; one subprocess for a closed pipe)."""

from __future__ import annotations

import csv
import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

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
from sympcoh.symplectic_ops import STREAM_SCHEME


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


def test_a_reader_that_closes_early_gets_no_traceback():
    # An m = 128 state is about 330 kB of JSON, several times what a pipe
    # holds, so the write fails once the reader has closed its end.
    src = str(Path(sympcoh.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "sympcoh.cli", "msc", "--E", "1e3", "--m", "128"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.communicate(timeout=120)[1].decode()
    assert proc.returncode == 1
    assert "Traceback" not in err
    reason = "BrokenPipeError: stdout was closed before the output was written"
    assert err.strip().splitlines() == [reason]


def test_validate_names_every_violation_of_a_matrix_near_the_float_range(tmp_path, capsys):
    lopsided = tmp_path / "lopsided.csv"
    lopsided.write_text("1,1e308\n1.5e308,1\n")
    code, out, err = run_cli(["validate", str(lopsided)], capsys)
    assert code == 1
    names = [v["name"] for v in out["result"]["violations"]]
    assert names == ["symmetry", "positive_definite", "uncertainty"]
    assert "positive_definite" in err and "Warning" not in err


def test_coherence_and_discord_agree_on_free(tmp_path, capsys):
    for xp in (5e-11, 1e-9):
        state_file = tmp_path / "near_free.json"
        save_state(GaussianState(CovMat([[50.0, xp], [xp, 50.0]])), str(state_file))
        _, coh, _ = run_cli(["coherence", str(state_file)], capsys)
        _, dis, _ = run_cli(["discord", str(state_file)], capsys)
        assert coh["result"]["is_free"] is dis["result"]["classical_quantum"] is (xp < 1e-10)


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


def test_ensemble_with_csv_side_channel(tmp_path, capsys):
    csv_path = tmp_path / "samples.csv"
    argv = [
        "ensemble",
        "--m", "2",
        "--E", "8",
        "--kind", "unitary",
        "--samples", "50",
        "--seed", "11",
        "--csv", str(csv_path),
    ]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert str(csv_path) in err
    stats = ensemble_nu_sq(EnsembleConfig(m=2, E=8.0, n_samples=50, seed=11, kind="unitary"))
    assert out["result"]["mean_nu_sq"] == pytest.approx(stats.mean_nu_sq, abs=0)
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "nu_sq", "coherence"]
    assert len(rows) == 51
    mean_from_csv = np.mean([float(r[1]) for r in rows[1:]])
    assert mean_from_csv == pytest.approx(stats.mean_nu_sq, abs=1e-12)


def test_ensemble_default_seed_in_manifest(capsys):
    argv = ["ensemble", "--m", "1", "--E", "4", "--kind", "orthogonal", "--samples", "5"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert out["manifest"]["seed"] == DEFAULT_SEED


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


def test_qfi_on_a_matrix_not_positive_definite_in_float64_exits_1(tmp_path, capsys):
    # At E = 1e12 the stored msc matrix is [[a, -a], [-a, a]]: singular in float64.
    state_file = tmp_path / "s.json"
    code, _, _ = run_cli(["msc", "--E", "1e12", "--m", "1", "-o", str(state_file)], capsys)
    assert code == 0
    code, out, err = run_cli(["qfi", str(state_file)], capsys)
    assert code == 1
    assert out is None
    assert "NumericError" in err and "not positive definite in float64" in err
    assert "Traceback" not in err


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
    def timeout(signum, frame):
        pytest.fail(f"sympcoh {' '.join(argv)} did not return within 20 s")

    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(20)
    try:
        code = main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
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
    assert out["result"] == {"valid": False, "violations": [{"name": "symmetry", "magnitude": None}]}
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


def test_apply_takes_the_size_of_a_displacement_gate_from_its_vector(tmp_path, capsys):
    state_file = tmp_path / "vac.json"
    save_state(vacuum_state(2), str(state_file))
    gate_file = tmp_path / "gate.json"
    gate_file.write_text(json.dumps({"kind": "displacement", "params": {"d": [1, 2, 3, 4]}}))
    code, out, _ = run_cli(["apply", str(state_file), "--gate", str(gate_file)], capsys)
    assert code == 0
    assert out["result"]["displacement"] == [1.0, 2.0, 3.0, 4.0]
