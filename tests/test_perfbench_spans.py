"""The traced benchmark run patches package names; every one must still exist."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_patched_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(module, attr) for module, attr, _, _ in spans.CALLS + spans.GENERATORS]
    missing = [name for name in names if not callable(getattr(importlib.import_module(name[0]), name[1], None))]
    assert names and missing == []
