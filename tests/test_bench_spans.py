"""The benchmark's span targets name live library functions.

bench/spans.py wraps each (module, qualified name) of ``TARGETS`` in a
traced run; a rename in the library would otherwise surface only there.
"""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def test_every_span_target_is_a_callable():
    # run_path reads the file as it is and writes no bytecode next to it
    spans = runpy.run_path(str(SPANS))
    assert spans["TARGETS"]
    for module_name, qualname in spans["TARGETS"]:
        obj = importlib.import_module(f"vforge.{module_name}")
        for attr in qualname.split("."):
            assert hasattr(obj, attr), f"vforge.{module_name}.{qualname}"
            obj = getattr(obj, attr)
        assert callable(obj), f"vforge.{module_name}.{qualname}"
    for names in spans["MUST_FIRE"].values():
        assert set(names) <= set(spans["SPAN_NAMES"])
