"""The benchmark's span tracer (``bench/spans.py``) wraps package names by
where they live, and the two containers through their own ``__init__``.  A
refactor that moves or renames one of them breaks the traced benchmark run;
these checks make it fail the test suite first.  The tracer module is only
read.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_its_layer():
    spans = _spans()
    assert set(spans.WRAPPED) <= set(spans.LAYERS)
    for layer, names in spans.WRAPPED.items():
        module = importlib.import_module(f"fockcalc.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"bench/spans.py wraps {layer}.{missing}, which fockcalc.{layer} lacks"


def test_traced_containers_define_their_own_init():
    spans = _spans()
    series = importlib.import_module("fockcalc.series")
    classes = [name for name in spans.WRAPPED["series"] if isinstance(getattr(series, name), type)]
    assert sorted(classes) == ["KernelCoeffs", "SeriesCoeffs"]
    for name in classes:
        assert "__init__" in vars(getattr(series, name)), f"{name}.__init__ must be in its own class body"

