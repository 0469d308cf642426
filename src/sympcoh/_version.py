"""The package version: the one place it is written.

``pyproject.toml`` reads it for the build metadata (``[tool.setuptools.dynamic]``)
and the CLI reports it, so both agree when sympcoh runs from a source tree too.
Kept in a module of its own, below every other, so that any layer may import it.
"""

__version__ = "0.1.0"
