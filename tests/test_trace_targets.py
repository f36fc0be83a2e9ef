"""The benchmark's tracer must still find every function it wraps.

``perfbench/spans.py`` patches package functions and methods by name; a
rename in the package would make the traced benchmark run fail, so this
loads the tracer by path and enters and exits it once. The tracer replaces
module attributes, so a function the package reaches some other way (say,
through a table of function objects) would drop out of the per-layer
metrics without an error; the second test runs the bound commands traced
and checks that every bound still records its span. The third runs a short
synthesized simulation traced and checks the flow decoder's counts, which a
hook reads from the result of each ``FlowDecoder.step``.
"""

import importlib
import json
import importlib.util
from pathlib import Path

from delayexp import cli
from delayexp.exponents import BOUNDS_AT_RATE

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
# The span each bound's exponent command must record; the random-coding pair
# has no span of its own and is seen through e0_max.
BOUND_SPANS = {"sp": "exponents.sphere_packing", "rc": "exponents.e0_max",
               "list": "exponents.e0_max", "focusing": "exponents.focusing_bound",
               "achieved": "exponents.achieved_exponent_at_rate"}


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


def test_traced_bound_commands_record_every_bound(tmp_path):
    spans = load_spans()
    with spans.Tracer() as tracer:
        for bound in BOUNDS_AT_RATE:
            tracer.command = bound
            assert cli.main(["exponent", "--bound", bound, "--bec", "0.4",
                             "--rate-bits", "0.5"]) == 0
        tracer.command = "figure"
        assert cli.main(["figure", "--bec", "0.4", "--points", "4",
                         "--outdir", str(tmp_path)]) == 0
    seen = {(command, name) for _, _, command, name, _, _ in tracer.spans}
    for bound, name in BOUND_SPANS.items():
        assert (bound, name) in seen, bound
    for name in ("curves.sweep", "exponents.sphere_packing", "exponents.focusing_bound",
                 "exponents.achieved_exponent_at_rate"):
        assert ("figure", name) in seen, name
    assert tracer.counts["curves.sweep.cells"] == 4 * len(cli.FIGURE_BOUNDS)


def test_traced_synthesized_run_counts_flow_steps(tmp_path):
    # 4,800 uses are 200 chunks of 24; a window of 4 chunks leaves the last
    # 4 of them unsettled.
    spans = load_spans()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 2, "c": 24, "l": 1, "theta": 12, "rate_bits": 1 / 6,
                               "redecode_window": 4, "seed": 0}))
    with spans.Tracer() as tracer:
        tracer.command = "synthesized"
        assert cli.main(["simulate", "synthesized", "--bsc", "0.05", "--config", str(cfg),
                         "--horizon", "4800", "--delays", "24,48", "--seed", "0",
                         "--outdir", str(tmp_path / "out")]) == 0
    assert tracer.counts["sim_anytime.FlowDecoder.step.calls"] == 200
    assert tracer.counts["sim_anytime.flow.chunks_settled"] == 196
    assert tracer.counts["sim_anytime.FlowCode.letters.calls"] == 200
