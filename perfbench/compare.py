#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py PARENT CHANGE
    python3 perfbench/compare.py --bundle RUNS_DIR OUT.json

PARENT and CHANGE are each a directory of run records (as written to
``perfbench/out/runs/``) or a bundle file holding {"runs": [...]}. For every
(workload, metric) the report gives each side's median and quartiles, the
pairs the change won and a verdict:

* improved: the change wins at least 9 of 10 pairs and its median is better
  than the parent's by more than the parent's interquartile range;
* worse: the median is worse than the parent's by more than the metric's
  bound from BENCHMARK.json, or, for a metric without a bound, the change
  loses 9 of 10 pairs by more than the parent's interquartile range;
* unresolved: the parent's own spread exceeds the bound and the change does
  not beat every parent run, or the medians differ by more than that spread
  without a decisive pair count;
* unchanged: otherwise.

Runs are paired in seed order. ``--bundle`` packs a directory of run
records into one file, which is how ``perfbench/baseline/`` is stored.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def load_runs(path: Path) -> list[dict]:
    if path.is_dir():
        return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(path.glob("*.json"))]
    return json.loads(path.read_text(encoding="utf-8"))["runs"]


def metric_values(run: dict) -> dict[str, float]:
    # A gain does not count when more commands fail, so failures are a row too.
    return {**run["metrics"], **run.get("class_metrics", {}), "failed_commands": run["failed"]}


def grouped(runs: list[dict]) -> dict[tuple, list[dict[str, float]]]:
    """(workload, trace) -> metric dicts of its runs, in seed order."""
    out = defaultdict(list)
    for run in sorted(runs, key=lambda r: (r["seed"], r.get("time", 0))):
        out[(run["workload"], run["trace"])].append(metric_values(run))
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], lower_is_better: bool,
            bound: float | None) -> tuple[str, int, int]:
    """(verdict, pairs won by the change, pairs) under the rule in the docstring."""
    sign = -1.0 if lower_is_better else 1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    p_q1, p_med, p_q3 = quartiles(parent)
    gain = sign * (statistics.median(change) - p_med)  # > 0 means better
    spread = p_q3 - p_q1
    if pairs and wins >= WIN_SHARE * len(pairs) and gain > spread:
        return "improved", wins, len(pairs)
    if bound is not None:
        if -gain > bound * abs(p_med):
            return "worse", wins, len(pairs)
        beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
        if spread > bound * abs(p_med) and not beats_all:
            return "unresolved", wins, len(pairs)
        return "unchanged", wins, len(pairs)
    if pairs and losses >= WIN_SHARE * len(pairs) and -gain > spread:
        return "worse", wins, len(pairs)
    return ("unresolved" if abs(gain) > spread else "unchanged"), wins, len(pairs)


def metric_specs() -> tuple[dict[str, bool], dict[str, float]]:
    """Direction (True when lower is better) and bound of each metric."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    lower, bounds = {}, {}
    for m in spec["end_to_end"] + spec["per_layer"]:
        lower[m["name"]] = m["better"] == "lower"
        if "bound" in m:
            bounds[m["name"]] = m["bound"]
    return lower, bounds


def compare(parent_runs: list[dict], change_runs: list[dict]) -> list[dict]:
    lower, bounds = metric_specs()
    rows = []
    parent_groups, change_groups = grouped(parent_runs), grouped(change_runs)
    for key in sorted(set(parent_groups) & set(change_groups)):
        p_runs, c_runs = parent_groups[key], change_groups[key]
        names = sorted(set().union(*p_runs) & set().union(*c_runs))
        for name in names:
            p = [r[name] for r in p_runs if name in r]
            c = [r[name] for r in c_runs if name in r]
            # Class metrics are not in BENCHMARK.json: rates higher, the rest lower.
            lower_better = lower.get(name, not name.endswith("_per_s"))
            result, wins, n = verdict(p, c, lower_better, bounds.get(name))
            rows.append({"workload": key[0], "trace": key[1], "metric": name,
                         "parent": quartiles(p), "change": quartiles(c),
                         "wins": wins, "pairs": n, "verdict": result})
    return rows


def bundle(runs_dir: Path, out: Path) -> None:
    """Pack run records into one file, one run per line, without the
    fields that only repeat the workload definition or name local files."""
    runs = load_runs(runs_dir)
    for run in runs:
        run.pop("spans_file", None)
        for p in run["passes"]:
            for c in p["commands"]:
                c.pop("argv", None)
    lines = ",\n".join(json.dumps(run, separators=(",", ":")) for run in runs)
    out.write_text('{"runs": [\n' + lines + "\n]}\n", encoding="utf-8")
    print(f"wrote {out}: {len(runs)} runs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs=2, type=Path)
    parser.add_argument("--bundle", action="store_true",
                        help="pack the run records in the first path into the second")
    args = parser.parse_args(argv)
    if args.bundle:
        bundle(*args.paths)
        return 0
    rows = compare(load_runs(args.paths[0]), load_runs(args.paths[1]))
    print(f"{'workload':<18} {'metric':<50} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'won':>6}  verdict")
    for r in rows:
        name = r["workload"] + (" traced" if r["trace"] else "")
        side = [f"{m:.5g} [{a:.5g}, {b:.5g}]" for a, m, b in (r["parent"], r["change"])]
        print(f"{name:<18} {r['metric']:<50} {side[0]:>36} {side[1]:>36} "
              f"{r['wins']:>2}/{r['pairs']:<3}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
