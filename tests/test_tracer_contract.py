"""The benchmark's span tracer wraps gcval functions by name.

perfbench/spans.py lists them in TRACED and looks each one up with getattr,
so a deleted or renamed function breaks only the traced benchmark run.
This test reads that list and fails first.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves_in_gcval():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for mod, fn in spans.TRACED:
        module = importlib.import_module(f"gcval.{mod}")
        assert callable(getattr(module, fn, None)), f"gcval.{mod}.{fn}"
