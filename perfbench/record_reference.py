#!/usr/bin/env python3
"""Record the reference outputs that checks.py compares against.

Run from the root of a checkout of the commit whose outputs are the
reference (outputs must not move under a performance change):

    python3 perfbench/record_reference.py [--workload NAME ...]

Each workload runs once, as fresh processes, at the default seed and full
scale. The printed text, the exit code, the figure artifacts and the
simulation table of every command are written to
``perfbench/reference/<workload>.json``. Commands with a known failure are
not recorded; they are checked only for their exit code and manifest.
"""

from __future__ import annotations

import argparse
import json
import time

from checks import digest
from run import HARD_LIMIT_S, HERE, REFERENCE, fresh_executor, run_pass
from workloads import DEFAULT_SEED, WORKLOADS, commands

FIGURE_FILES = ("curves.csv", "curves.gp")


def record(workload: str, out) -> dict:
    workdir = out / "work" / f"{workload}-reference"
    execute = fresh_executor(workdir / "_logs", time.perf_counter() + 10 * HARD_LIMIT_S)
    cmds = {c.id: c for c in commands(workload, DEFAULT_SEED)}
    result = run_pass(workload, DEFAULT_SEED, 1.0, workdir, execute, None)
    refs = {}
    for rec in result["commands"]:
        cmd = cmds[rec["id"]]
        if cmd.known_failure is not None:
            continue
        if rec["status"] == "failed":
            raise SystemExit(f"{workload}/{cmd.id} failed: {rec['problems']}")
        cwd = workdir / cmd.id
        ref = {"argv": list(cmd.argv), "exit": rec["exit"],
               "stdout": (workdir / "_logs" / f"{cmd.id}.out").read_text()}
        if cmd.kind == "figure":
            ref["files"] = {name: (cwd / name).read_text() for name in FIGURE_FILES}
        if (cwd / "table.csv").is_file():
            table = (cwd / "table.csv").read_text()
            ref["table"] = table
            ref["table_sha256"] = digest(table)
        refs[cmd.id] = ref
    return {"seed": DEFAULT_SEED, "commands": refs}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    REFERENCE.mkdir(exist_ok=True)
    for workload in args.workload or sorted(WORKLOADS):
        payload = record(workload, HERE / "out")
        path = REFERENCE / f"{workload}.json"
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path}: {len(payload['commands'])} commands")


if __name__ == "__main__":
    main()
