"""In-memory spans and counters around the public functions of each layer.

The tracer patches ``delayexp`` functions and methods from outside the
package: every module attribute bound to a traced function is replaced by a
wrapper for the duration of a ``with Tracer(...)`` block, then restored. A
span records (id, parent id, command id, name, start ns, end ns); spans are
kept in memory and written out once, at the end of the traced run.
"""

from __future__ import annotations

import gzip
import importlib
import json
import resource
import sys
import time
from collections import Counter, defaultdict

ROOT = -1


def _result_counts(prefix: str):
    def hook(tracer, args, kwargs, result):
        for name in ("blocks_confirmed", "punctuation_chunk_errors", "data_block_errors",
                     "spurious_confirms"):
            tracer.counts[f"sim_anytime.{name}"] += getattr(result, name)
        tracer.counts[f"{prefix}.blocks"] += result.blocks_confirmed
    return hook


def _capacity_rows(tracer, args, kwargs, result):
    tracer.counts["channel.capacity_batch.rows"] += len(result)


def _sweep_cells(tracer, args, kwargs, result):
    tracer.counts["curves.sweep.cells"] += len(result.rates) * len(result.bounds)


def _flow_settled(tracer, args, kwargs, result):
    tracer.counts["sim_anytime.flow.chunks_settled"] += len(result[0])


def _queue_rss(tracer, args, kwargs, result):
    # The queue command's O(horizon) arrays are the largest allocation of any
    # workload, so the process peak right after it is the queue's peak.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.queue_peak_rss_mb = max(tracer.queue_peak_rss_mb, rss_mb)


# (module, attribute path, span name, hook run on the result). COUNTED
# functions get a call counter and no span: a synthesized command calls
# them about a million times.
SPANNED = [
    ("delayexp.cli", "main", "cli.main", None),
    ("delayexp.channel", "capacity_batch", "channel.capacity_batch", _capacity_rows),
    ("delayexp.exponents", "e0_max", "exponents.e0_max", None),
    ("delayexp.exponents", "sphere_packing", "exponents.sphere_packing", None),
    ("delayexp.exponents", "haroutunian_oracle", "exponents.haroutunian_oracle", None),
    ("delayexp.exponents", "focusing_bound", "exponents.focusing_bound", None),
    ("delayexp.exponents", "achieved_exponent_at_rate", "exponents.achieved_exponent_at_rate",
     None),
    ("delayexp.curves", "sweep", "curves.sweep", _sweep_cells),
    ("delayexp.curves", "emit_csv", "curves.emit_csv", None),
    ("delayexp.sim_queue", "simulate_bec_feedback", "sim_queue.simulate_bec_feedback",
     _queue_rss),
    ("delayexp.sim_anytime", "fortified_run", "sim_anytime.fortified_run",
     _result_counts("sim_anytime.fortified_run")),
    ("delayexp.sim_anytime", "synthesized_run", "sim_anytime.synthesized_run",
     _result_counts("sim_anytime.synthesized_run")),
    ("delayexp.sim_anytime", "BlockCodebook.candidates_range",
     "sim_anytime.BlockCodebook.candidates_range", None),
    ("delayexp.sim_anytime", "FlowDecoder.step", "sim_anytime.FlowDecoder.step", _flow_settled),
]
COUNTED = [
    ("delayexp.sim_anytime", "FlowCode.letters", "sim_anytime.FlowCode.letters"),
    ("delayexp.sim_anytime", "FlowCode.extend", "sim_anytime.FlowCode.extend"),
]


def self_times(spans) -> dict[int, float]:
    """Self time in seconds of each span: its duration minus the part of it
    covered by its children (the union of their intervals)."""
    children = defaultdict(list)
    for sid, parent, _cmd, _name, t0, t1 in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _parent, _cmd, _name, t0, t1 in spans:
        covered, reach = 0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, reach), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[sid] = (t1 - t0 - covered) / 1e9
    return out


class Tracer:
    """Patches the traced functions on entry and restores them on exit."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.queue_peak_rss_mb = 0.0
        self.command = ""
        self._stack = [ROOT]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- patching -------------------------------------------------------------

    def _span_wrapper(self, fn, name, hook):
        tracer = self
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, tracer.command, name, t0, t1))
                tracer.counts[name + ".calls"] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts
        key = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module_name, path, make):
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = make(original)
        if outer:  # a method: patch the class
            self._set(owner, attr, wrapped, original)
            return
        # A function: patch every package module that imported it by name.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "delayexp" and getattr(mod, attr, None) is original:
                self._set(mod, attr, wrapped, original)

    def _set(self, owner, attr, wrapped, original):
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def __enter__(self):
        for module_name, path, name, hook in SPANNED:
            self._patch(module_name, path, lambda fn, n=name, h=hook: self._span_wrapper(fn, n, h))
        for module_name, path, name in COUNTED:
            self._patch(module_name, path, lambda fn, n=name: self._count_wrapper(fn, n))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    # -- results --------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total span time and total self time per span name, in seconds."""
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        selfs = self_times(self.spans)
        for sid, _parent, _cmd, name, t0, t1 in self.spans:
            total[name] += (t1 - t0) / 1e9
            own[name] += selfs[sid]
        return total, own

    def write(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(["id", "parent", "command", "name", "start_ns", "end_ns"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
