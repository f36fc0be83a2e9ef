"""The benchmark's tracer must still find every function it wraps.

``perfbench/spans.py`` patches package functions and methods by name; a
rename in the package would make the traced benchmark run fail, so this
loads the tracer by path and enters and exits it once.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def test_every_trace_target_resolves_and_is_restored():
    spans = load_spans()
    targets = [t[:2] for t in spans.SPANNED] + [t[:2] for t in spans.COUNTED]
    originals = {}
    for module_name, path in targets:
        owner, attr = resolve(module_name, path)
        originals[module_name, path] = getattr(owner, attr)
    with spans.Tracer():
        for module_name, path in targets:
            owner, attr = resolve(module_name, path)
            assert getattr(owner, attr) is not originals[module_name, path], path
    for module_name, path in targets:
        owner, attr = resolve(module_name, path)
        assert getattr(owner, attr) is originals[module_name, path], path
