"""Imports for the tools under tests/ of code that is not on the import path:
a perfbench module by its file, and another checkout's `edysec` package
under a name of its own, so that an A/B runs both sides in one process."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OTHER = "edysec_other"  # the package name `load_other` imports another checkout's edysec under


def load_by_path(name: str, path: Path, search: list[str] | None = None):
    """The module at `path` (a package's `__init__.py`, with `search` its
    submodule locations), imported as `name`."""
    spec = importlib.util.spec_from_file_location(name, path, submodule_search_locations=search)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # its dataclasses look their module up by name, its relative imports resolve under it
    spec.loader.exec_module(module)
    return module


def perfbench(name: str):
    """This checkout's perfbench/<name>.py, imported as perfbench_<name>."""
    return load_by_path(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")


def load_other(checkout):
    """Another checkout's edysec package, imported as OTHER."""
    package = Path(checkout).resolve() / "src" / "edysec"
    return load_by_path(OTHER, package / "__init__.py", [str(package)])
