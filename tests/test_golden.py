"""The golden slice: the seeded Monte-Carlo drivers give the outputs stored in ``tests/golden/mc_drivers.json``.

When the stored manifest is the running setup (Python, numpy, machine,
numpy's SIMD dispatch and BLAS), every output must match bit for bit.
Elsewhere transcendental kernels and reductions may round differently, so
integers, verdicts and strings must still match exactly, array shapes too,
and each float must lie within ``FLOAT_REL`` times a scale of the stored
value: its own magnitude, an array's sum of magnitudes for its sum, and for
a field that is 0 up to rounding (``residual_scales``) the magnitude it is
rounded at, taken from the same output.  A search's argmax unitary is
compared by its shape alone there (``UNPINNED``).
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("mc_drivers", Path(__file__).parent / "golden" / "mc_drivers.py")
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

STORED = json.loads(golden.PATH.read_text())
EXACT = STORED["manifest"] == golden.manifest()
# Bound on a float, off the setup that wrote the slice, relative to its scale.
FLOAT_REL = 1e-9
CASES = golden.cases()
# A search's argmax unitary X + iY is one point of a set of maximizers: at
# the vertex e_k only row k of H = U U^T sets c, and the refinement stops
# wherever its comparisons of near-equal sizes send it, so a last-ulp change
# upstream moves X and Y by O(1) while theta, the gaps and c stay put.
UNPINNED = {".argmax.x", ".argmax.y"}


def residual_scales(want: dict) -> dict[str, float]:
    """Path -> scale of each field of an output that is 0 up to rounding.

    A search's gaps: ``spectrum_gap`` and ``unitary_gap`` are differences of
    coherences of size ``sup_c``, and ``vertex_gap`` is ``1 - |H_kk|``.  A
    last-ulp change upstream changes such a residual by its own size, so it
    is compared with FLOAT_REL times that scale, not with its own magnitude.
    """
    if "argmax" not in want:
        return {}
    c = abs(float.fromhex(want["sup_c"]))
    return {".argmax.spectrum_gap": c, ".argmax.unitary_gap": c, ".argmax.vertex_gap": 1.0}


def _close(got: str, want: str, scale: float | None = None) -> bool:
    a, b = float.fromhex(got), float.fromhex(want)
    if math.isnan(b) or math.isinf(b):
        return got == want
    size = max(abs(a), abs(b)) if scale is None else scale
    return abs(a - b) <= FLOAT_REL * size


def mismatches(got, want, scales: dict[str, float], path: str = "") -> list[str]:
    """Where ``got`` differs from ``want`` beyond what this setup allows (both encoded)."""
    if isinstance(want, dict) and "sha256" in want:
        if EXACT:
            return [] if got == want else [path]
        if path in UNPINNED:
            return [] if got["shape"] == want["shape"] else [path]
        if got["shape"] != want["shape"] or not _close(got["sum"], want["sum"], float.fromhex(want["abs_sum"])):
            return [path]
        return [] if _close(got["abs_sum"], want["abs_sum"]) else [path]
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [path]
        return [bad for key in want for bad in mismatches(got[key], want[key], scales, f"{path}.{key}")]
    if got == want:
        return []
    if EXACT or not isinstance(want, str) or not isinstance(got, str):
        return [path]
    try:
        return [] if _close(got, want, scales.get(path)) else [path]
    except ValueError:  # a string that is not a float: compared exactly above
        return [path]


def test_the_slice_is_the_panel_that_writes_it():
    assert set(STORED["outputs"]) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_matches_the_golden_slice(name):
    want = STORED["outputs"][name]
    got = golden.encode(CASES[name]())
    assert mismatches(got, want, residual_scales(want)) == [], f"exact={EXACT}"
