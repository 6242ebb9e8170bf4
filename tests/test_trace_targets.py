"""Every function the traced benchmark wraps must exist in edysec, so a rename
fails here rather than only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name in tracing.MODULES:
        importlib.import_module(f"edysec.{module_name}")
    missing = []
    for module_name, attr, _, _ in tracing.TARGETS:
        owner = importlib.import_module(f"edysec.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"edysec.{module_name}.{attr}")
    assert not missing, f"traced targets missing from edysec: {missing}"
