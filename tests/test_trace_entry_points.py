"""The benchmark's span tracer (perfbench/spans.py) wraps names in src/ by
string.  A deletion or rename there fails here, in tier-1, and not only in
the traced benchmark pass."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_entry_point_resolves():
    spans = _load_spans()
    assert spans.ENTRY_POINTS
    for owner, attr, name in spans.ENTRY_POINTS:
        module, _, cls = owner.partition(":")
        target = importlib.import_module(module)
        if cls:
            assert hasattr(target, cls), owner
            target = getattr(target, cls)
        assert callable(getattr(target, attr, None)), (owner, attr)
        assert spans.layer_of(name) in spans.LAYERS, name
