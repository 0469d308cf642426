"""Golden slice of the (m, E) grid: write or recompute ``trace_grid.json``.

Over m in {1, 2, 4, 8, 16} and traces E in {2m + 1e-6, 4m + 8, 1e4, 1e8,
1e12}: ``msc_canonical``, ``numeric_max_search`` at 200 trials with two
seeds, and the read side on a seeded corpus of states.  The corpus holds at
each grid point the canonical state, one ``sample_pure_cm`` state of each
kind, that unitary state through loss 0.3 and the equal mixture of the two
pure states (the last two built with numpy alone), each with first moments
``1, 2, ..., 2m``.  For every state the slice records its matrix, trace,
``validate``'s verdict, violations and ``floor``, the symplectic eigenvalues
in order, each under its two-digit index from 01 (or the name of the error
``symplectic_eigenvalues`` raises), ``is_pure``,
the coherence report, the coherence-discord relation, the
``LossChannel(0.5)`` output and, at m = 1, ``qfi_displacement``.  Outputs
are encoded as in ``mc_drivers.py``, whose manifest this slice shares.

Regenerate from the repository root with

    PYTHONPATH=src python tests/golden/trace_grid.py

A regeneration changes test data: it is made only when a seeded output
moves on purpose, and the change log names each moved output and why.
``tests/test_golden.py`` compares the running code with the stored file.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

import numpy as np

from sympcoh import (
    CovMat,
    GaussianState,
    LossChannel,
    NumericError,
    coherence_discord_relation_check,
    coherence_report,
    derive_rng,
    is_pure,
    msc_canonical,
    numeric_max_search,
    qfi_displacement,
    sample_pure_cm,
    symplectic_eigenvalues,
    validate,
)
from mc_drivers import encode, manifest

PATH = Path(__file__).with_name("trace_grid.json")

MODES = (1, 2, 4, 8, 16)
SEARCH_SEEDS = (50, 51)
SEARCH_TRIALS = 200
# Seed of the corpus; grid point i draws its orthogonal state from
# derive_rng(CORPUS_SEED, 2i) and its unitary one from derive_rng(CORPUS_SEED, 2i + 1).
CORPUS_SEED = 60
LOSS_ETA = 0.3
STATE_KINDS = ("msc", "pure-orthogonal", "pure-unitary", "lossy", "mixed")


def traces(m: int) -> tuple[float, ...]:
    return (2.0 * m + 1e-6, 4.0 * m + 8.0, 1e4, 1e8, 1e12)


GRID = [(m, E) for m in MODES for E in traces(m)]


def corpus_state(kind: str, index: int) -> GaussianState:
    """State ``kind`` of the corpus at grid point ``index``."""
    m, E = GRID[index]
    if kind == "msc":
        cov = msc_canonical(E, m).cov
    else:
        orthogonal = sample_pure_cm(E, m, "orthogonal", derive_rng(CORPUS_SEED, 2 * index))
        unitary = sample_pure_cm(E, m, "unitary", derive_rng(CORPUS_SEED, 2 * index + 1))
        cov = {
            "pure-orthogonal": orthogonal,
            "pure-unitary": unitary,
            "lossy": CovMat(LOSS_ETA * unitary.matrix + (1.0 - LOSS_ETA) * np.eye(2 * m)),
            "mixed": CovMat(0.5 * (orthogonal.matrix + unitary.matrix)),
        }[kind]
    return GaussianState(cov, np.arange(1.0, 2 * m + 1))


def read_side(state: GaussianState) -> dict:
    """Every read-side output the slice records for one state."""
    cov = state.cov
    violations = validate(cov)
    try:
        nu = {f"{k:02d}": x for k, x in enumerate(symplectic_eigenvalues(cov).tolist(), 1)}
    except NumericError as exc:
        nu = type(exc).__name__
    report = coherence_report(cov)
    lossy = LossChannel(0.5).apply_to(state)
    out = {
        "matrix": cov.matrix,
        "trace": cov.trace,
        "valid": not violations,
        "violations": {v.name: v.magnitude for v in violations},
        "floor": cov.floor,
        "nu": nu,
        "pure": is_pure(cov),
        "coherence": {
            "coherence": report.coherence,
            "hs_distance_sq_to_free": report.hs_distance_sq_to_free,
            "closest_free": report.closest_free.matrix,
        },
        "relation": coherence_discord_relation_check(cov)._asdict(),
        "loss": {"matrix": lossy.cov.matrix, "d": lossy.d},
    }
    if cov.m == 1:
        out["qfi"] = qfi_displacement(cov)._asdict()
    return out


def _state(kind, index) -> dict:
    return read_side(corpus_state(kind, index))


def _search(E, m, seed) -> dict:
    return numeric_max_search(E, m, SEARCH_TRIALS, seed)._asdict()


def cases() -> dict:
    """Name -> zero-argument call for every output of the slice."""
    out = {}
    for m, E in GRID:
        for seed in SEARCH_SEEDS:
            out[f"grid-search-E{E!r}-m{m}-t{SEARCH_TRIALS}-s{seed}"] = partial(_search, E, m, seed)
    for i, (m, E) in enumerate(GRID):
        for kind in STATE_KINDS:
            out[f"state-{kind}-m{m}-E{E!r}"] = partial(_state, kind, i)
    return out


def main() -> None:
    outputs = {name: encode(call()) for name, call in cases().items()}
    PATH.write_text(json.dumps({"manifest": manifest(), "outputs": outputs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} outputs to {PATH}")


if __name__ == "__main__":
    main()
