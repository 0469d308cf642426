"""The golden slices: seeded outputs equal those stored under ``tests/golden/``.

Slice 1 (``mc_drivers.json``) holds the seeded Monte-Carlo drivers and the
Haar samplers, slice 2 (``trace_grid.json``) ``msc_canonical``, searches and
the read side over the (m, E) grid.  When a slice's stored manifest is the
running setup (Python, numpy, machine, numpy's SIMD dispatch and BLAS),
every output must match bit for bit.  Elsewhere transcendental kernels and
reductions may round differently, so integers, verdicts and strings must
still match exactly, array shapes too, and each float must lie within
``FLOAT_REL`` times its own magnitude of the stored value (an array's sum
within that of its sum of magnitudes), or within the bound ``tolerances``
derives from the same output for a field that is 0 up to rounding or
amplifies it.  A search's argmax unitary is compared by its shape alone
there (``UNPINNED``), and the symplectic eigenvalues of a state whose
rounding leaves them no digits are not compared at all.
"""

from __future__ import annotations

import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest


def _load(name: str):
    """The slice script ``tests/golden/<name>.py``, importable by name (``trace_grid`` imports ``mc_drivers``)."""
    spec = importlib.util.spec_from_file_location(name, Path(__file__).parent / "golden" / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SLICES = [_load("mc_drivers"), _load("trace_grid")]
STORED = {slice_: json.loads(slice_.PATH.read_text()) for slice_ in SLICES}
# Output name -> (its slice, its zero-argument call); names are unique across slices.
CASES = {name: (slice_, call) for slice_ in SLICES for name, call in slice_.cases().items()}
# Bound on a float, off the setup that wrote the slice, relative to its scale.
FLOAT_REL = 1e-9
# A search's argmax unitary X + iY is one point of a set of maximizers: at
# the vertex e_k only row k of H = U U^T sets c, and the refinement stops
# wherever its comparisons of near-equal sizes send it, so a last-ulp change
# upstream moves X and Y by O(1) while theta, the gaps and c stay put.
UNPINNED = {".argmax.x", ".argmax.y"}


def tolerances(want: dict) -> dict[str, float | None]:
    """Path -> bound on ``|got - want|`` off the recording setup, for fields not bounded by their own size.

    A search's gaps: ``spectrum_gap`` and ``unitary_gap`` are differences of
    coherences of size ``sup_c``, and ``vertex_gap`` is ``1 - |H_kk|``, so
    each is bounded by FLOAT_REL times that size.  A state's
    coherence-discord residual is a difference of two coherences.  Its
    symplectic eigenvalues: a change dV of V moves each nu_k by at most
    ``nu_k |dV| / lambda_min(V)`` (nu is monotone and homogeneous in V), and
    a valid V has ``lambda_min(V) >= 1 / Tr V``.  Each setup's V and
    Cholesky factor are within ``floor`` of the exact V (the corpus's
    products and the Cholesky round below it), so nu_k is bounded by
    ``FLOAT_REL + spread`` times its size, spread = ``2 floor Tr V``.  Where
    spread >= 1 (on the grid E >= 1e8, spread >= 70, against <= 5e-5 for E
    <= 1e4) nu has no digits, and whether the Cholesky succeeds at all is
    rounding's call, so nu is not compared there (None).
    """
    if "argmax" in want:
        c = abs(float.fromhex(want["sup_c"]))
        return {".argmax.spectrum_gap": FLOAT_REL * c, ".argmax.unitary_gap": FLOAT_REL * c, ".argmax.vertex_gap": FLOAT_REL}
    if "relation" not in want:
        return {}
    out = {".relation.residual": FLOAT_REL * abs(float.fromhex(want["relation"]["coherence"]))}
    spread = 2.0 * float.fromhex(want["floor"]) * float.fromhex(want["trace"])
    if spread >= 1.0:
        out[".nu"] = None
    elif isinstance(want["nu"], dict):
        out.update({f".nu.{k}": (FLOAT_REL + spread) * abs(float.fromhex(x)) for k, x in want["nu"].items()})
    return out


def _close(got: str, want: str, bound: float | None) -> bool:
    a, b = float.fromhex(got), float.fromhex(want)
    if math.isnan(b) or math.isinf(b):
        return got == want
    return abs(a - b) <= (FLOAT_REL * max(abs(a), abs(b)) if bound is None else bound)


def mismatches(got, want, bounds: dict[str, float | None], path: str = "") -> list[str]:
    """Where ``got`` differs from ``want`` (both encoded) beyond what another setup allows."""
    if path in bounds and bounds[path] is None:
        return []
    if isinstance(want, dict) and "sha256" in want:
        if not (isinstance(got, dict) and "sha256" in got) or got["shape"] != want["shape"]:
            return [path]
        if path in UNPINNED:
            return []
        close = _close(got["sum"], want["sum"], FLOAT_REL * float.fromhex(want["abs_sum"]))
        return [] if close and _close(got["abs_sum"], want["abs_sum"], None) else [path]
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [path]
        return [bad for key in want for bad in mismatches(got[key], want[key], bounds, f"{path}.{key}")]
    if got == want:
        return []
    if not isinstance(want, str) or not isinstance(got, str):
        return [path]
    try:
        return [] if _close(got, want, bounds.get(path)) else [path]
    except ValueError:  # a string that is not a float: compared exactly above
        return [path]


def test_the_slice_is_the_panel_that_writes_it():
    assert len(CASES) == sum(len(stored["outputs"]) for stored in STORED.values())
    for slice_, stored in STORED.items():
        assert set(stored["outputs"]) == set(slice_.cases())


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_matches_the_golden_slice(name):
    slice_, call = CASES[name]
    stored = STORED[slice_]
    want = stored["outputs"][name]
    got = slice_.encode(call())
    if stored["manifest"] == slice_.manifest():
        assert got == want
    else:
        assert mismatches(got, want, tolerances(want)) == []


def test_off_the_setup_a_field_of_another_kind_is_a_mismatch_where_it_has_digits():
    """The branch CI takes (its Pythons differ from the manifests'), on stored outputs changed by hand."""
    for slice_, stored in STORED.items():
        for want in stored["outputs"].values():
            assert mismatches(want, want, tolerances(want)) == []
    outputs = STORED[SLICES[1]]["outputs"]
    mixed = outputs["state-mixed-m2-E10000.0"]  # spread 2 floor Tr V ≈ 1e-6: nu has digits
    bounds = tolerances(mixed)
    nu = list(mixed["nu"].values())
    assert mismatches({**mixed, "nu": "NumericError"}, mixed, bounds) == [".nu"]
    assert mismatches({**mixed, "nu": dict(zip(mixed["nu"], nu[::-1]))}, mixed, bounds) == [".nu.01", ".nu.02"]
    assert mismatches({**mixed, "matrix": "NumericError"}, mixed, bounds) == [".matrix"]
    assert mismatches(mixed, {**mixed, "matrix": "NumericError"}, bounds) == [".matrix"]
    assert mismatches({**mixed, "pure": True}, mixed, bounds) == [".pure"]
    singular = outputs["state-msc-m2-E1000000000000.0"]  # spread ≈ 3e9: nu has none, the Cholesky fails here
    assert singular["nu"] == "NumericError"
    assert mismatches({**singular, "nu": mixed["nu"]}, singular, tolerances(singular)) == []
