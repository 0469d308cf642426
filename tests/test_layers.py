"""Relative imports inside the package point one way, down the layer order.

_version -> gaussian_core -> symplectic_ops -> {coherence, discord_map, ensembles}
-> applications -> cli, with the package ``__init__`` on top.  A module may
import only from layers strictly below its own.  Outside the package the
runtime needs numpy alone: scipy serves only the tests.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable

import pytest

import sympcoh

LAYERS = {
    "_version": -1,
    "gaussian_core": 0,
    "symplectic_ops": 1,
    "coherence": 2,
    "discord_map": 2,
    "ensembles": 2,
    "applications": 3,
    "cli": 4,
    "__init__": 5,
}
SOURCES = sorted(Path(sympcoh.__file__).parent.glob("*.py"))


def relative_imports(path: Path) -> list[str]:
    """Package modules named by ``from . import a`` / ``from .a import b``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.append(node.module.split(".")[0])
            else:
                found.extend(alias.name for alias in node.names)
    return found


def called_name(call: ast.Call) -> str | None:
    """The name a call calls: ``f`` of ``f(...)`` or of ``x.f(...)``."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def call_sites(matches: Callable[[ast.Call], bool]) -> set[tuple[str, str]]:
    """``(module, function)`` of every call that ``matches``, by its innermost function (``<module>`` outside any)."""
    found = set()

    def visit(node: ast.AST, module: str, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and matches(child):
                found.add((module, where))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(child, module, inner)

    for path in SOURCES:
        visit(ast.parse(path.read_text()), path.stem, "<module>")
    return found


def test_only_the_block_driver_seeds():
    # One driver owns seeding: the callers draw from the generators it hands them.
    seeding = {"derive_rng", "default_rng", "SeedSequence"}
    sites = call_sites(lambda call: called_name(call) in seeding)
    assert sites == {("symplectic_ops", "derive_rng"), ("symplectic_ops", "mc_blocks")}


def test_gaussian_fills_stay_in_the_samplers():
    # Standard normals are drawn for the spectra and for the Ginibre stacks
    # alone, and only a Ginibre stack reads normals as complex numbers.
    normals = call_sites(lambda call: called_name(call) == "standard_normal")
    assert normals == {("symplectic_ops", "sample_d_batch"), ("symplectic_ops", "ginibre_batch")}
    complex_views = call_sites(
        lambda call: called_name(call) == "view" and any("complex" in ast.unparse(arg) for arg in call.args)
    )
    assert complex_views == {("symplectic_ops", "ginibre_batch")}


def test_every_module_has_a_layer():
    assert {path.stem for path in SOURCES} == set(LAYERS)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_imports_point_down(path):
    upward = [name for name in relative_imports(path) if LAYERS[name] >= LAYERS[path.stem]]
    assert not upward, f"{path.stem} imports {upward} from its own layer or above"


def test_cli_import_loads_no_scipy():
    src = str(Path(sympcoh.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, sympcoh.cli; print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip() == "[]"


def test_statistics_loads_only_when_a_discrimination_trial_ties():
    # The tie branch's normal quantile comes from the stdlib's statistics,
    # imported on that branch alone: a run with no K/2 tie (K = 1) loads it
    # no more than the CLI import does.
    src = str(Path(sympcoh.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import sys, sympcoh.cli\n"
        "from sympcoh import DiscriminationConfig, LossChannel, msc_canonical, run_discrimination\n"
        "def run(eta, n_samples):\n"
        "    run_discrimination(DiscriminationConfig(msc_canonical(6.0, 1), (LossChannel(0.5), LossChannel(eta)), 0.05, n_samples, 500, 0))\n"
        "    return 'statistics' in sys.modules\n"
        "print([run(0.9, 1), run(0.52, 200)])"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip() == "[False, True]"
