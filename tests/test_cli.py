"""End-to-end checks of the console entry point (in-process, no subprocess)."""

from __future__ import annotations

import csv
import io
import json
import re
import signal
from pathlib import Path

import numpy as np
import pytest

from sympcoh import (
    EnsembleConfig,
    ensemble_nu_sq,
    msc_canonical,
    save_state,
    vacuum_state,
)
from sympcoh.cli import DEFAULT_SEED, main


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
