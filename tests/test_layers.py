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
