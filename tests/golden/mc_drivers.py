"""Golden slice of the seeded Monte-Carlo drivers: write or recompute ``mc_drivers.json``.

Every seeded output of the three drivers (the max search, the ensembles and
the discrimination protocol), of ``sample_pure_cm`` and of the Haar samplers
over a fixed panel of cases, encoded as JSON: floats as ``float.hex``,
arrays (and lists of floats) as the sha256 of their float64 bytes with
their shape, sum and sum of magnitudes.  A manifest records the setup that
wrote it.

Regenerate from the repository root with

    PYTHONPATH=src python tests/golden/mc_drivers.py

A regeneration changes test data: it is made only when a seeded output
moves on purpose, and the change log names each moved output and why.
``tests/test_golden.py`` compares the running code with the stored file.
"""

from __future__ import annotations

import hashlib
import json
import platform
from functools import partial
from pathlib import Path

import numpy as np

from sympcoh import LossChannel, derive_rng, haar_orthogonal, msc_canonical, numeric_max_search, sample_pure_cm
from sympcoh.applications import DiscriminationConfig, run_discrimination
from sympcoh.ensembles import EnsembleConfig, ensemble_nu_sq
from sympcoh.symplectic_ops import haar_unitary_batch

PATH = Path(__file__).with_name("mc_drivers.json")

# (E, m, trials, seed).  block_samples(m) is 256 rows up to m = 8, and 64 at
# m = 16: the long runs span several blocks, and the later blocks of a
# search mostly have no row that can win, so they skip.
SEARCHES = [
    (3.5, 1, 1, 0),
    (6.0, 1, 200, 1),
    (4.0 + 1e-6, 2, 30, 2),
    (12.0, 2, 200, 3),
    (1e8, 2, 700, 4),
    (6.5, 3, 1, 5),
    (40.0, 3, 300, 6),
    (17.0, 8, 200, 7),
    (40.0, 8, 2000, 8),
    (1e4, 8, 700, 9),
    (40.0, 16, 600, 10),
    (33.0, 16, 30, 11),
]
# (kind, m, E, n_samples, seed, return_samples).  block_samples(2) = 256: 600
# samples end inside a third block.
ENSEMBLES = [
    (kind, m, E, n, seed, samples)
    for kind in ("orthogonal", "unitary")
    for (m, E, n, seed) in [(1, 5.0, 40, 20), (2, 10.0, 600, 21), (4, 30.0, 250, 22), (8, 40.0, 300, 23)]
    for samples in (False, True)
]
# (E, m, kind, seed, index): one state from derive_rng(seed, index).
PURE_STATES = [
    (E, m, kind, 30, i)
    for i, (E, m) in enumerate([(3.0, 1), (9.0, 2), (20.0, 4), (50.0, 8)])
    for kind in ("orthogonal", "unitary")
]
# (m, seed): a stack of 9 Haar unitaries, and one Haar orthogonal matrix, from derive_rng(seed, m).
HAAR = [(m, 70 + m) for m in (1, 2, 4, 8)]
# (E, eta1, eta2, delta, n_samples, trials, seed).  BLOCK_ENTRIES = 65536
# trials per block: 70 000 trials end in the second block, 140 000 in the third.
DISCRIMINATIONS = [
    (6.0, 0.5, 0.6, 0.1, 300, 1, 40),
    (6.0, 0.5, 0.6, 0.1, 300, 5000, 41),
    (10.0, 0.2, 0.9, 0.05, 16, 70_000, 42),
    (6.0, 0.5, 0.6, 0.1, 300, 140_000, 43),
]


def manifest() -> dict:
    """Python, numpy, the machine, numpy's SIMD dispatch and its BLAS: the setup outputs depend on."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy before 1.26 prints its config and cannot return it
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "simd": config.get("SIMD Extensions"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def encode(value):
    """JSON form of one output: floats as hex, arrays and float lists as a digest."""
    if isinstance(value, dict):
        return {key: encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        array = np.asarray(value, dtype=float)
        return {
            "sha256": hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest(),
            "shape": list(array.shape),
            "sum": float(array.sum()).hex(),
            "abs_sum": float(np.abs(array).sum()).hex(),
        }
    if isinstance(value, (bool, str, type(None))):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    return float(value).hex()


def _search(E, m, trials, seed) -> dict:
    return numeric_max_search(E, m, trials, seed)._asdict()


def _ensemble(kind, m, E, n, seed, samples) -> dict:
    result = ensemble_nu_sq(EnsembleConfig(m, E, n, seed, kind), return_samples=samples)
    if not samples:
        return vars(result)
    stats, nu_sq, coh = result
    return {**vars(stats), "nu_sq_samples": nu_sq, "coherence_samples": coh}


def _pure_state(E, m, kind, seed, index) -> dict:
    return {"matrix": sample_pure_cm(E, m, kind, derive_rng(seed, index)).matrix}


def _haar_unitary_batch(m, seed) -> dict:
    u = haar_unitary_batch(m, 9, derive_rng(seed, m))
    return {"real": u.real, "imag": u.imag}


def _haar_orthogonal(m, seed) -> dict:
    return {"matrix": haar_orthogonal(m, derive_rng(seed, m))}


def _discrimination(E, eta1, eta2, delta, n, trials, seed) -> dict:
    channels = (LossChannel(eta1), LossChannel(eta2))
    return vars(run_discrimination(DiscriminationConfig(msc_canonical(E, 1), channels, delta, n, trials, seed)))


def cases() -> dict:
    """Name -> zero-argument call for every output of the slice."""
    out = {}
    for E, m, trials, seed in SEARCHES:
        out[f"search-E{E!r}-m{m}-t{trials}-s{seed}"] = partial(_search, E, m, trials, seed)
    for kind, m, E, n, seed, samples in ENSEMBLES:
        name = f"ensemble-{kind}-m{m}-E{E!r}-n{n}-s{seed}-{'samples' if samples else 'stats'}"
        out[name] = partial(_ensemble, kind, m, E, n, seed, samples)
    for E, m, kind, seed, i in PURE_STATES:
        out[f"pure-{kind}-m{m}-E{E!r}-s{seed}-{i}"] = partial(_pure_state, E, m, kind, seed, i)
    for m, seed in HAAR:
        out[f"haar-unitary-batch-m{m}-s{seed}"] = partial(_haar_unitary_batch, m, seed)
        out[f"haar-orthogonal-m{m}-s{seed}"] = partial(_haar_orthogonal, m, seed)
    for E, eta1, eta2, delta, n, trials, seed in DISCRIMINATIONS:
        name = f"discrimination-E{E!r}-eta{eta1}-{eta2}-n{n}-t{trials}-s{seed}"
        out[name] = partial(_discrimination, E, eta1, eta2, delta, n, trials, seed)
    return out


def main() -> None:
    outputs = {name: encode(call()) for name, call in cases().items()}
    PATH.write_text(json.dumps({"manifest": manifest(), "outputs": outputs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} outputs to {PATH}")


if __name__ == "__main__":
    main()
