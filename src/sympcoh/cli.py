"""Command-line front end: subcommand dispatch, file I/O, run manifests.

Every invocation prints a single JSON object to stdout with two keys:
``result`` (subcommand-specific payload) and ``manifest`` (envelope format,
subcommand, parameters, seed, RNG stream scheme, tool and numpy versions,
wall time).  Diagnostics go to stderr.
Exit codes: 0 success, 1 invalid input (with the violated invariant named
on stderr), 2 usage error.

State files are JSON documents (see :mod:`sympcoh.gaussian_core`) or bare
CSV matrices.  A state argument ``-`` on the command line reads a document
from stdin; a config names a state by path or inline document, so a ``-``
there is a file name.  A JSON document, from a file, stdin or inline in a
config, may be bare or a previous invocation's envelope, so subcommands
pipe and read each other's saved output:
``sympcoh msc --E 6 --m 1 | sympcoh coherence -``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import applications, coherence, discord_map, ensembles, gaussian_core
from . import symplectic_ops as ops
from .gaussian_core import _array, _scalar
from ._version import __version__

DEFAULT_SEED = 0x5EED
ENVELOPE_FORMAT = "sympcoh-envelope-v1"


def _read_state(spec: str | dict, m: int | None = None) -> gaussian_core.GaussianState:
    """A state from a file path or an inline document; ``main`` alone reads stdin.

    A JSON document may be bare or a previous invocation's envelope around one
    (``gaussian_core.state_from_dict`` reads both).
    """
    if isinstance(spec, str):
        return gaussian_core.load_state(spec, m)
    return gaussian_core.state_from_dict(spec, m)


def _read_valid_state(spec: str | dict, m: int | None = None) -> gaussian_core.GaussianState:
    state = _read_state(spec, m)
    gaussian_core.require_valid(state.cov)
    return state


def _require_object(doc, what: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    return doc


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return _require_object(json.load(fh), f"the document in {path}")


# ---------------------------------------------------------------------------
# Gate and channel specs
# ---------------------------------------------------------------------------


def build_gate(spec: dict, m: int) -> ops.SympGate:
    """Build a gate from a JSON spec ``{"kind": ..., "params": {...}}``.

    Kinds: ``squeezer`` (mode, r), ``phase_shifter`` (mode, theta),
    ``block_orthogonal`` (o), ``passive`` (x, y), ``displacement`` (d),
    ``beamsplitter`` (eta; two modes), ``matrix`` (S, optional disp).
    ``m`` sizes the squeezer and the phase shifter; every other kind takes its
    mode count from its parameters, and ``apply`` rejects a gate whose mode
    count differs from the state's.
    """
    kind = _require_object(spec, "gate spec").get("kind")
    params = _require_object(spec.get("params", {}), "gate params")
    if kind == "squeezer":
        return ops.squeezer(m, _scalar(params, "mode", int), _scalar(params, "r"))
    if kind == "phase_shifter":
        return ops.phase_shifter(m, _scalar(params, "mode", int), _scalar(params, "theta"))
    if kind == "block_orthogonal":
        return ops.block_orthogonal(_array(params, "o"))
    if kind == "passive":
        return ops.passive_from_unitary(_array(params, "x"), _array(params, "y"))
    if kind == "displacement":
        return ops.displacement(_array(params, "d"))
    if kind == "beamsplitter":
        return ops.block_orthogonal(ops.beamsplitter_orthogonal(_scalar(params, "eta")))
    if kind == "matrix":
        disp = None if params.get("disp") is None else _array(params, "disp")
        return ops.SympGate(_array(params, "S"), disp)
    raise ValueError(f"unknown gate kind {kind!r}")


def build_channel(spec: dict):
    """Build a channel from ``{"kind": "loss"|"identity"|"stinespring", ...}``."""
    kind = _require_object(spec, "channel spec").get("kind")
    if kind == "loss":
        return ops.LossChannel(_scalar(spec, "eta"))
    if kind == "identity":
        return ops.IdentityChannel()
    if kind == "stinespring":
        return ops.StinespringChannel(
            o=_array(spec, "o"),
            env=_read_state(spec["env"]).cov,
            d=None if spec.get("d") is None else _array(spec, "d"),
        )
    raise ValueError(f"unknown channel kind {kind!r}")


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (result, exit_code)
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> tuple[dict, int]:
    state = _read_state(args.cm, args.m)
    report = gaussian_core.validate(state.cov)
    result = {
        "valid": not report,
        "floor": state.cov.floor,
        # JSON has no inf: an asymmetry past the float range is reported as null.
        "violations": [
            {"name": v.name, "magnitude": v.magnitude if np.isfinite(v.magnitude) else None}
            for v in report
        ],
    }
    for v in report:
        print(f"violated invariant: {v.name} (magnitude {v.magnitude:.3e})", file=sys.stderr)
    return result, 0 if not report else 1


def _cmd_coherence(args) -> tuple[dict, int]:
    state = _read_valid_state(args.cm, args.m)
    report = coherence.coherence_report(state.cov)
    return {
        "c": report.coherence,
        "hs_distance_sq_to_free": report.hs_distance_sq_to_free,
        "is_free": gaussian_core.is_free(state.cov),
        "closest_free": report.closest_free.matrix.tolist(),
        "m": state.m,
        "trace": state.cov.trace,
    }, 0


def _cmd_maxsc(args) -> tuple[dict, int]:
    return {"E": args.E, "m": args.m, "c_max": coherence.max_symplectic_coherence(args.E, args.m)}, 0


def _cmd_msc(args) -> tuple[dict, int]:
    state = coherence.msc_canonical(args.E, args.m)
    doc = gaussian_core.state_to_dict(state)
    if args.out:
        gaussian_core.save_state(state, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    return doc, 0


def _cmd_apply(args) -> tuple[dict, int]:
    state = _read_valid_state(args.cm, args.m)
    gate = build_gate(_load_json(args.gate), state.m)
    out = ops.apply(gate, state)
    return gaussian_core.state_to_dict(out), 0


def _cmd_loss(args) -> tuple[dict, int]:
    state = _read_valid_state(args.cm, args.m)
    out = ops.LossChannel(args.eta).apply_to(state)
    return gaussian_core.state_to_dict(out), 0


def _cmd_discord(args) -> tuple[dict, int]:
    state = _read_valid_state(args.cm, args.m)
    rel = discord_map.coherence_discord_relation_check(state.cov)
    image = discord_map.to_density(state.cov)
    return {
        "c": rel.coherence,
        "D_G": rel.discord,
        "relation_residual": rel.residual,
        "classical_quantum": discord_map.is_classical_quantum(image),
    }, 0


def _cmd_ensemble(args) -> tuple[dict, int]:
    config = ensembles.EnsembleConfig(
        m=args.m, E=args.E, n_samples=args.samples, seed=args.seed, kind=args.kind
    )
    if args.csv:
        stats, nu_sq, coh = ensembles.ensemble_nu_sq(config, return_samples=True)
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "nu_sq", "coherence"])
            for i, (n_val, c_val) in enumerate(zip(nu_sq, coh)):
                writer.writerow([i, repr(float(n_val)), repr(float(c_val))])
        print(f"wrote {args.csv}", file=sys.stderr)
    else:
        stats = ensembles.ensemble_nu_sq(config)
    return asdict(stats), 0


def _cmd_discriminate(args) -> tuple[dict, int]:
    cfg = _load_json(args.config)
    probe = _read_valid_state(cfg["probe_file"] if "probe_file" in cfg else cfg["probe"])
    if not isinstance(cfg["channels"], list):
        raise ValueError("discriminate config: channels must be a JSON list of two channel specs")
    channels = tuple(build_channel(spec) for spec in cfg["channels"])
    config = applications.DiscriminationConfig(
        probe=probe,
        channels=channels,
        delta=_scalar(cfg, "delta"),
        n_samples=_scalar(cfg, "n_samples", int),
        trials=_scalar(cfg, "trials", int),
        seed=_scalar(cfg, "seed", int) if "seed" in cfg else DEFAULT_SEED,
    )
    report = applications.run_discrimination(config)
    args.seed = config.seed  # the manifest reports the seed that ran
    return asdict(report), 0


def _cmd_qfi(args) -> tuple[dict, int]:
    state = _read_valid_state(args.cm, args.m)
    bound = applications.qfi_displacement(state.cov)
    return {"qfi": bound.value, "exact": bound.exact}, 0


def _cmd_tvd(args) -> tuple[dict, int]:
    cfg = _load_json(args.config)
    result: dict = {}
    if "var1" in cfg or "var2" in cfg:
        result["tvd_exact"] = applications.tvd_exact_zero_mean_normals(
            _scalar(cfg, "var1"), _scalar(cfg, "var2")
        )
    if "sxp1" in cfg or "sxp2" in cfg:
        state = _read_valid_state(cfg["cm"])
        inflated = _scalar(cfg, "inflated", bool) if "inflated" in cfg else False
        result["bound"] = applications.tvd_bound_ppmm(
            state.cov,
            _scalar(cfg, "sxp1"),
            _scalar(cfg, "sxp2"),
            _scalar(cfg, "theta"),
            inflated=inflated,
        )
        result["inflated"] = inflated
    if not result:
        raise ValueError(
            "tvd config must contain var1/var2 (exact) and/or cm/sxp1/sxp2/theta (bound)"
        )
    return result, 0


def _cmd_maxsearch(args) -> tuple[dict, int]:
    outcome = coherence.numeric_max_search(args.E, args.m, args.trials, args.seed)
    c_max = coherence.max_symplectic_coherence(args.E, args.m)
    return {
        "sup_c": outcome.sup_c,
        "c_max": c_max,
        # sup_c can exceed c_max only by the rounding of a 2m-mode coherence of size c_max.
        "within_bound": outcome.sup_c <= c_max + gaussian_core.rounding_floor(2 * args.m, c_max),
        "argmax": outcome.argmax,
    }, 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _add_cm_arg(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("cm", help="state file (JSON document or CSV matrix), or - for stdin")
    sub.add_argument("--m", type=int, default=None, help="expected mode count (cross-checked)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sympcoh",
        description="Position-momentum correlations of Gaussian states: "
        "measure, extremal states, discord image, metrology and "
        "channel-discrimination bounds.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("validate", help="check covariance-matrix invariants")
    _add_cm_arg(p)
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("coherence", help="coherence and distance-to-free report")
    _add_cm_arg(p)
    p.set_defaults(func=_cmd_coherence)

    p = subs.add_parser("maxsc", help="closed-form maximal coherence at fixed trace")
    p.add_argument("--E", type=float, required=True, help="covariance trace budget")
    p.add_argument("--m", type=int, required=True, help="mode count")
    p.set_defaults(func=_cmd_maxsc)

    p = subs.add_parser("msc", help="canonical maximal-coherence state")
    p.add_argument("--E", type=float, required=True, help="covariance trace budget")
    p.add_argument("--m", type=int, required=True, help="mode count")
    p.add_argument("-o", "--out", default=None, help="write the state file here")
    p.set_defaults(func=_cmd_msc)

    p = subs.add_parser("apply", help="apply a symplectic gate from a JSON spec")
    _add_cm_arg(p)
    p.add_argument("--gate", required=True, help="gate spec JSON file")
    p.set_defaults(func=_cmd_apply)

    p = subs.add_parser("loss", help="send the state through a pure-loss channel")
    _add_cm_arg(p)
    p.add_argument("--eta", type=float, required=True, help="transmissivity in [0, 1]")
    p.set_defaults(func=_cmd_loss)

    p = subs.add_parser("discord", help="virtual-state geometric discord report")
    _add_cm_arg(p)
    p.set_defaults(func=_cmd_discord)

    p = subs.add_parser("ensemble", help="fixed-trace pure-state ensemble statistics")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--kind", choices=ensembles.KINDS, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--csv", default=None, help="write per-sample (nu_sq, coherence) rows")
    p.set_defaults(func=_cmd_ensemble)

    p = subs.add_parser("discriminate", help="simulate the two-channel protocol")
    p.add_argument("--config", required=True, help="config JSON file")
    p.set_defaults(func=_cmd_discriminate)

    p = subs.add_parser("qfi", help="displacement-sensing Fisher information (m=1)")
    _add_cm_arg(p)
    p.set_defaults(func=_cmd_qfi)

    p = subs.add_parser("tvd", help="total-variation distance helpers")
    p.add_argument("--config", required=True, help="config JSON file")
    p.set_defaults(func=_cmd_tvd)

    p = subs.add_parser("maxsearch", help="randomized search for the coherence maximum")
    p.add_argument("--E", type=float, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_maxsearch)

    return parser


def _manifest(args: argparse.Namespace, params: dict, wall_time: float) -> dict:
    return {
        "format": ENVELOPE_FORMAT,
        "subcommand": args.subcommand,
        "parameters": params,
        "seed": getattr(args, "seed", None),
        "stream_scheme": ops.STREAM_SCHEME,
        "version": __version__,
        "numpy_version": np.__version__,
        "wall_time_s": round(wall_time, 6),
    }


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The parameters as parsed; a handler may then set args.seed to the seed it ran.
    params = {k: v for k, v in vars(args).items() if k not in ("func", "subcommand")}
    try:
        # A state piped on stdin is read before the clock starts, so that
        # wall_time_s times what ran and not the wait for the pipe's writer.
        if getattr(args, "cm", None) == "-":
            args.cm = _require_object(json.load(sys.stdin), "the document on stdin")
        start = time.perf_counter()
        result, code = args.func(args)
        envelope = {"result": result, "manifest": _manifest(args, params, time.perf_counter() - start)}
        text = json.dumps(envelope, sort_keys=True, allow_nan=False)  # no bare NaN/Infinity
    except gaussian_core.ValidationError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"malformed JSON: {exc}", file=sys.stderr)
        return 1
    except (gaussian_core.NumericError, ValueError, KeyError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy raises a subclass with a private name
        print(f"MemoryError: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed early (``sympcoh ... | head``).  Point stdout at
        # devnull, so that the flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("BrokenPipeError: stdout was closed before the output was written", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
