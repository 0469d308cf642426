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


def seeding_calls(path: Path) -> set[str]:
    """The innermost functions of a module (``<module>`` outside any) that call a seeding name.

    The names are ``derive_rng``, ``default_rng`` and ``SeedSequence``,
    called bare or as an attribute (``np.random.default_rng``).
    """
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("derive_rng", "default_rng", "SeedSequence"):
                    found.add(where)
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            visit(child, inner)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def test_only_the_block_driver_seeds():
    # One driver owns seeding: the callers draw from the generators it hands them.
    sites = {(path.stem, where) for path in SOURCES for where in seeding_calls(path)}
    assert sites == {("symplectic_ops", "derive_rng"), ("symplectic_ops", "mc_blocks")}


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
