"""The cold-CLI script: generated input files and one cycle of subcommands.

Every subcommand appears once per cycle, on states with m in {1, 2, 4}, plus
the ``msc | coherence -`` pipe (run as two processes one after the other, so
that at most one program process runs at a time).  Each command carries the
oracle check of its output.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gen
import oracle
from oracle import Failure

TRACE_LARGE = 1e8


@dataclass(frozen=True)
class Command:
    sub: str
    argv: list[str]
    check: Callable[[int, dict | None], list[Failure]]
    #: Index of the command in the cycle whose stdout is this one's stdin.
    stdin_from: int | None = None


def envelope(text: str) -> dict | None:
    """The JSON envelope a sympcoh invocation printed, or None."""
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _write(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _needs(code: int, env: dict | None, cls: str = "error") -> list[Failure]:
    if code != 0 or env is None:
        return [Failure(cls, f"exit code {code}")]
    return []


def _matrix(doc: dict) -> np.ndarray:
    return np.asarray(doc["matrix"], dtype=float)


def build(workdir: str, seed: int, large: bool = True) -> list[Command]:
    """Write the input files into ``workdir`` and return one cycle of commands.

    ``large=False`` leaves out the two large-trace states, which come from
    :func:`gen.panel_rng` and are the same for every seed.
    """
    rng = gen.rng_for(seed, gen.TAG_CLI)
    panel = gen.panel_rng(1)

    def state(name: str, v: np.ndarray) -> str:
        return _write(os.path.join(workdir, name), gen.cm_doc(v))

    cmds: list[Command] = []

    e_maxsc = float(rng.uniform(3.0, 12.0))

    def check_maxsc(code, env):
        return _needs(code, env) or (
            [] if oracle.close(env["result"]["c_max"], oracle.c_max(e_maxsc, 1))
            else [Failure("value", "maxsc differs from the closed form")]
        )

    cmds.append(Command("maxsc", ["maxsc", "--E", repr(e_maxsc), "--m", "1"], check_maxsc))

    e_msc = float(rng.uniform(9.0, 16.0))
    msc_path = os.path.join(workdir, "msc_out.json")

    def check_msc_file(code, env):
        if _needs(code, env):
            return _needs(code, env)
        with open(msc_path) as fh:
            v = _matrix(json.load(fh))
        if oracle.close(oracle.coherence(v), oracle.c_max(e_msc, 2)) and oracle.close(
            float(np.trace(v)), e_msc
        ):
            return []
        return [Failure("value", "msc -o: state is not maximal at its trace")]

    cmds.append(
        Command("msc", ["msc", "--E", repr(e_msc), "--m", "2", "-o", msc_path], check_msc_file)
    )

    def check_valid(large_trace: bool):
        def check(code, env):
            if env is None:
                return [Failure("error", f"exit code {code}, no output")]
            return [] if code == 0 and env["result"]["valid"] else [
                Failure(oracle.verdict_class(large_trace), "validate rejects a valid state")
            ]

        return check

    pure4 = gen.pure_cm(float(rng.uniform(12.0, 30.0)), 4, rng)
    cmds.append(Command("validate", ["validate", state("pure4.json", pure4), "--m", "4"], check_valid(False)))
    if large:
        cmds.append(
            Command("validate", ["validate", state("large2.json", gen.pure_cm(TRACE_LARGE, 2, panel))],
                    check_valid(True))
        )

    def check_invalid(code, env):
        if code == 1 and env is not None and not env["result"]["valid"] and any(
            v["name"] == "uncertainty" for v in env["result"]["violations"]
        ):
            return []
        return [Failure("value", "validate accepts a state that violates the uncertainty relation")]

    cmds.append(Command("validate", ["validate", state("invalid1.json", 0.5 * np.eye(2))], check_invalid))

    mixed2 = gen.mixed_cm(float(rng.uniform(6.0, 14.0)), 2, rng)

    def check_coh(code, env):
        if _needs(code, env):
            return _needs(code, env)
        r = env["result"]
        return oracle.check_coherence(mixed2, r["c"], r["hs_distance_sq_to_free"])

    cmds.append(Command("coherence", ["coherence", state("mixed2.json", mixed2)], check_coh))

    lossy4 = gen.lossy_cm(float(rng.uniform(12.0, 24.0)), 4, float(rng.uniform(0.2, 0.9)), rng)
    eta = float(rng.uniform(0.1, 0.9))

    def check_loss(code, env):
        return _needs(code, env) or oracle.check_loss(lossy4, _matrix(env["result"]), eta)

    cmds.append(Command("loss", ["loss", state("lossy4.json", lossy4), "--eta", repr(eta)], check_loss))

    pure1 = gen.pure_cm(float(rng.uniform(3.0, 12.0)), 1, rng)
    pure1_path = state("pure1.json", pure1)

    def check_discord(code, env):
        if _needs(code, env):
            return _needs(code, env)
        return oracle.check_relation(pure1, env["result"]["c"], env["result"]["D_G"])

    cmds.append(Command("discord", ["discord", pure1_path], check_discord))

    def qfi_check(v, large_trace: bool):
        cls = oracle.verdict_class(large_trace)

        def check(code, env):
            if _needs(code, env, cls):
                return _needs(code, env, cls)
            out = []
            if not oracle.close(env["result"]["qfi"], oracle.qfi_displacement(v)):
                out.append(Failure("value", "qfi differs from the closed form"))
            out += oracle.check_verdict("qfi exact", env["result"]["exact"], True, cls)
            return out

        return check

    cmds.append(Command("qfi", ["qfi", pure1_path], qfi_check(pure1, False)))
    if large:
        large1 = gen.pure_cm(TRACE_LARGE, 1, panel)
        cmds.append(Command("qfi", ["qfi", state("large1.json", large1)], qfi_check(large1, True)))

    pure2 = gen.pure_cm(float(rng.uniform(6.0, 14.0)), 2, rng)
    gate = {"kind": "block_orthogonal", "params": {"o": gen.haar_orthogonal(2, rng).tolist()}}

    def check_apply(code, env):
        if _needs(code, env):
            return _needs(code, env)
        out = _matrix(env["result"])
        if oracle.close(oracle.coherence(out), oracle.coherence(pure2)) and oracle.close(
            float(np.trace(out)), float(np.trace(pure2))
        ):
            return []
        return [Failure("value", "block-orthogonal gate changed c or the trace")]

    cmds.append(
        Command(
            "apply",
            ["apply", state("pure2.json", pure2), "--gate", _write(os.path.join(workdir, "gate.json"), gate)],
            check_apply,
        )
    )

    var1, var2 = (float(x) for x in rng.uniform(0.5, 4.0, size=2))

    def check_tvd(code, env):
        if _needs(code, env):
            return _needs(code, env)
        if oracle.close(env["result"]["tvd_exact"], oracle.tvd_exact(var1, var2)):
            return []
        return [Failure("value", "tvd differs from the erfc closed form")]

    tvd_cfg = _write(os.path.join(workdir, "tvd.json"), {"var1": var1, "var2": var2})
    cmds.append(Command("tvd", ["tvd", "--config", tvd_cfg], check_tvd))

    def check_ensemble(code, env):
        return _needs(code, env) or oracle.check_ensemble("unitary", 2, env["result"])[0]

    cmds.append(
        Command(
            "ensemble",
            ["ensemble", "--m", "2", "--E", "16", "--kind", "unitary", "--samples", "200",
             "--seed", str(gen.program_seed(rng))],
            check_ensemble,
        )
    )

    def check_search(code, env):
        if _needs(code, env):
            return _needs(code, env)
        r = env["result"]
        out = oracle.check_search(24.0, 4, r["sup_c"])[0]
        if not oracle.close(r["c_max"], oracle.c_max(24.0, 4)):
            out.append(Failure("value", "maxsearch c_max differs from the closed form"))
        return out

    cmds.append(
        Command(
            "maxsearch",
            ["maxsearch", "--E", "24", "--m", "4", "--trials", "100", "--seed", str(gen.program_seed(rng))],
            check_search,
        )
    )

    probe = gen.msc_cm(float(rng.uniform(8.0, 16.0)), 2)
    disc_cfg = _write(
        os.path.join(workdir, "disc.json"),
        {
            "probe": gen.cm_doc(probe),
            "channels": [{"kind": "loss", "eta": 0.5}, {"kind": "identity"}],
            "delta": 0.05,
            "n_samples": 200,
            "trials": 300,
            "seed": gen.program_seed(rng),
        },
    )

    def check_disc(code, env):
        return _needs(code, env) or oracle.check_discrimination(probe, 0.5, 1.0, 0.05, env["result"])

    cmds.append(Command("discriminate", ["discriminate", "--config", disc_cfg], check_disc))

    e_pipe = float(rng.uniform(3.0, 12.0))

    def check_pipe_msc(code, env):
        if _needs(code, env):
            return _needs(code, env)
        if oracle.close(oracle.coherence(_matrix(env["result"])), oracle.c_max(e_pipe, 1)):
            return []
        return [Failure("value", "msc: state is not maximal at its trace")]

    def check_pipe_coh(code, env):
        if _needs(code, env):
            return _needs(code, env)
        if oracle.close(env["result"]["c"], oracle.c_max(e_pipe, 1)):
            return []
        return [Failure("value", "msc | coherence -: c is not c_max")]

    cmds.append(Command("msc", ["msc", "--E", repr(e_pipe), "--m", "1"], check_pipe_msc))
    cmds.append(Command("coherence", ["coherence", "-"], check_pipe_coh, stdin_from=len(cmds) - 1))
    return cmds
