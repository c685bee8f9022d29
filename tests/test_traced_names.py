"""Every name the benchmark's span recorder traces still exists in lexhyp."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TRACED


@pytest.mark.parametrize("span, module, attr", _traced())
def test_traced_name_resolves(span, module, attr):
    # the recorder patches a module attribute, or a method in its class's own dict
    mod = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(mod, cls_name)), span
    else:
        assert callable(getattr(mod, attr, None)), span
