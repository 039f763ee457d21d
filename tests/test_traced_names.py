"""Every function the benchmark's layer trace wraps still exists."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("module, name", sorted({entry[:2] for entry in spans.SPANNED + spans.COUNTED}))
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"seasonthresh.{module}"), name))
