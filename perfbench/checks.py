"""Output checks: every command's exit code, manifest and printed numbers.

A check never raises on bad program output; it returns a list of problems.
An empty list means the command passed.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

from workloads import Command

NUMBER_TOL = 1e-9
# Printed values carry 9 decimals, so a last-digit flip is exactly 1e-9.
_TOL_SLACK = 1e-12
ORACLE_SP_TOL = 5e-3

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")


@dataclass
class CommandResult:
    """What one command did: exit code, printed text and its directory."""

    argv: tuple[str, ...]
    exit: int
    stdout: str
    stderr: str
    workdir: Path


def numeric_diff(ref: str, got: str, tol: float = NUMBER_TOL) -> str | None:
    """None when ``got`` equals ``ref`` up to ``tol`` on every number.

    The text between numbers must match exactly; otherwise the first
    difference is described.
    """
    ref_nums, got_nums = _NUMBER.findall(ref), _NUMBER.findall(got)
    if _NUMBER.split(ref) != _NUMBER.split(got) or len(ref_nums) != len(got_nums):
        return "text differs from the reference"
    for i, (a, b) in enumerate(zip(ref_nums, got_nums)):
        x, y = float(a), float(b)
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        if not abs(x - y) <= tol + _TOL_SLACK:
            return f"number {i} is {b}, reference {a}"
    return None


def printed_value(stdout: str, key: str) -> float | None:
    """The number after ``key`` at the start of a printed line, if any."""
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[0] == key:
            try:
                return float(parts[1])
            except ValueError:
                return None
    return None


def manifest_problems(cmd: Command, res: CommandResult) -> list[str]:
    """A written manifest must exist and list exactly the files written."""
    path = res.workdir / "manifest.json"
    if not path.is_file():
        return ["manifest.json missing"]
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        listed = {Path(p).name for p in manifest["artifacts"]}
        seeds = tuple(manifest["seeds"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"manifest.json unreadable: {exc!r}"]
    written = {p.name for p in res.workdir.iterdir()} - set(cmd.inputs)
    problems = []
    if listed != written:
        problems.append(f"manifest lists {sorted(listed)}, directory holds {sorted(written)}")
    if seeds != cmd.manifest_seeds:
        problems.append(f"manifest seeds {seeds}, expected {cmd.manifest_seeds}")
    return problems


def table_problems(cmd: Command, text: str) -> list[str]:
    """Shape of a delay/error table: the requested delays, errors in [0, 1]."""
    lines = text.splitlines()
    if not lines or lines[0] != "delay,error,trials,half_width":
        return ["table.csv has no header"]
    try:
        rows = [line.split(",") for line in lines[1:]]
        delays = tuple(int(r[0]) for r in rows)
        errors = [float(r[1]) for r in rows]
        trials = [int(r[2]) for r in rows]
    except (ValueError, IndexError):
        return ["table.csv is malformed"]
    problems = []
    if delays != tuple(sorted(cmd.delays)):
        problems.append(f"table delays {delays}, expected {cmd.delays}")
    if not all(0.0 <= e <= 1.0 for e in errors) or not all(t > 0 for t in trials):
        problems.append("table errors outside [0, 1] or trials not positive")
    return problems


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_command(cmd: Command, res: CommandResult, ref: dict | None) -> tuple[str, list[str]]:
    """Status ("ok", "known_failure" or "failed") and the problems found.

    ``ref`` is the command's stored reference, or None where no reference
    applies (another seed or scale).
    """
    if cmd.known_failure is not None and res.exit == cmd.known_failure:
        if (res.workdir / "manifest.json").exists():
            return "failed", [f"exit {res.exit} after writing a manifest"]
        return "known_failure", []
    if res.exit not in cmd.ok_exits:
        last = res.stderr.strip().splitlines()[-1:] or [""]
        return "failed", [f"exit {res.exit}, expected {cmd.ok_exits}: {last[0][:200]}"]
    problems = []
    if cmd.manifest_seeds is not None:
        problems += manifest_problems(cmd, res)
    else:
        stray = {p.name for p in res.workdir.iterdir()} - set(cmd.inputs)
        if stray:
            problems.append(f"wrote unexpected files {sorted(stray)}")
    table_path = res.workdir / "table.csv"
    table = table_path.read_text(encoding="utf-8") if table_path.is_file() else None
    if cmd.delays:
        problems += ["table.csv missing"] if table is None else table_problems(cmd, table)
    if ref is not None:
        problems += reference_problems(res, ref, table)
    if cmd.slope is not None:
        target, rel = cmd.slope
        slope = printed_value(res.stdout, "slope")
        if slope is None or not abs(slope - target) <= rel * target:
            problems.append(f"slope {slope} outside {rel:.0%} of {target:.6f}")
    return ("failed" if problems else "ok"), problems


def reference_problems(res: CommandResult, ref: dict, table: str | None) -> list[str]:
    problems = []
    if ref["argv"] != list(res.argv):
        return ["reference was recorded for another command line"]
    if res.exit != ref["exit"]:
        problems.append(f"exit {res.exit}, reference {ref['exit']}")
    diff = numeric_diff(ref["stdout"], res.stdout)
    if diff:
        problems.append(f"stdout: {diff}")
    for name, want in ref.get("files", {}).items():
        path = res.workdir / name
        if not path.is_file():
            problems.append(f"{name} missing")
            continue
        diff = numeric_diff(want, path.read_text(encoding="utf-8"))
        if diff:
            problems.append(f"{name}: {diff}")
    if "table_sha256" in ref and (table is None or digest(table) != ref["table_sha256"]):
        problems.append("table.csv is not byte-identical to the reference")
    return problems


def cross_problems(workload: str, results: dict[str, CommandResult],
                   scale: float) -> dict[str, list[str]]:
    """Checks across commands: the oracle against sphere packing (criterion 5).

    Only at full scale, where the oracle runs on its criterion-5 grid.
    """
    if workload != "bounds-sym" or scale != 1.0:
        return {}
    oracle = printed_value(results["oracle-bsc0.1"].stdout, "exponent")
    sp = printed_value(results["exponent-sp-bsc0.1"].stdout, "exponent")
    if oracle is None or sp is None or not abs(oracle - sp) <= ORACLE_SP_TOL:
        return {"oracle-bsc0.1": [f"oracle {oracle} vs sphere packing {sp}: "
                                  f"gap above {ORACLE_SP_TOL}"]}
    return {}
