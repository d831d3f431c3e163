"""The benchmark's traced run wraps tinyasr functions by name; a target
that a refactor renamed or deleted would only be noted on the stderr of a
traced run, and its per-layer metric would vanish. This checks the list
against the package instead."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_is_a_package_function():
    spans = load_spans()
    assert spans.TARGETS
    missing = [f"{module}.{name}" for module, name, _ in spans.TARGETS
               if not callable(getattr(importlib.import_module(
                   f"{spans.PACKAGE}.{module}"), name, None))]
    assert missing == []
