#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``delayexp`` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bounds-sym --seed 0 --seconds 25 --trace 0

With ``--trace 0`` every command runs as a fresh ``python -m delayexp.cli``
process, one after another from a single client (a closed loop, no
parallelism), and whole passes of the workload repeat until ``--seconds``
have elapsed; each metric is the median over passes. With ``--trace 1`` the
same commands run in this process through ``delayexp.cli.main(argv)``:
untraced, then with spans around each layer's public functions, then
untraced again, which gives the per-layer metrics and the tracing overhead.

Every command's output is checked (see checks.py). The last line printed is
one JSON object with the keys correct, attempted, failed and metrics; a run
record with the environment and every command's exit code and max-RSS goes
to ``perfbench/out/runs/``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import CommandResult, check_command, cross_problems  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, commands  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"

# `delayexp --version` processes timed before each pass and after the last.
SETUP_REPS_PER_PASS = 3
# Passes repeat until --seconds have elapsed, but a pass that would end past
# PASS_OVERSHOOT x --seconds is not started. A run starts no pass after
# PASS_BUDGET_S and kills any command still running at HARD_LIMIT_S, so it
# always ends within 180 s.
PASS_OVERSHOOT = 1.6
PASS_BUDGET_S = 120.0
HARD_LIMIT_S = 170.0

END_TO_END = {"workload_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Class metrics: printed and recorded on the workloads that have the class.
CLASS_TIMES = {"figure_s": "figure", "focusing_s": "focusing", "oracle_s": "oracle"}
CLASS_RATES = {"fortified_uses_per_s": "fortified", "synthesized_uses_per_s": "synthesized",
               "queue_uses_per_s": "queue"}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    "channel.capacity_batch.calls": "count",
    "channel.capacity_batch.rows": "count",
    "channel.capacity_batch.self_s": "s",
    "exponents.e0_max.calls": "count",
    "exponents.e0_max.self_s": "s",
    "exponents.sphere_packing.calls": "count",
    "exponents.sphere_packing.self_s": "s",
    "exponents.haroutunian_oracle.self_s": "s",
    "exponents.focusing_bound.self_s": "s",
    "exponents.achieved_exponent_at_rate.self_s": "s",
    "curves.sweep.cells": "count",
    "curves.sweep.self_s": "s",
    "curves.emit_csv.s": "s",
    "sim_queue.simulate_bec_feedback.s": "s",
    "sim_queue.peak_rss_mb": "MB",
    "sim_anytime.fortified_run.self_s_per_block": "s/block",
    "sim_anytime.BlockCodebook.candidates_range.calls": "count",
    "sim_anytime.BlockCodebook.candidates_range.self_s": "s",
    "sim_anytime.FlowDecoder.step.calls": "count",
    "sim_anytime.FlowDecoder.step.self_s": "s",
    "sim_anytime.FlowCode.letters.calls": "count",
    "sim_anytime.FlowCode.extend.calls": "count",
    "sim_anytime.synthesized_run.self_s": "s",
    "sim_anytime.blocks_confirmed": "count",
    "sim_anytime.punctuation_chunk_errors": "count",
    "sim_anytime.data_block_errors": "count",
    "sim_anytime.spurious_confirms": "count",
    "sim_anytime.flow.chunk_ok_ratio": "ratio",
    "sim_anytime.flow.chunks_settled": "count",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
    "trace.wrapped_calls": "count",
}


# -- running commands ----------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("DELAYEXP_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_fresh(argv, cwd: Path, log: Path, timeout: float) -> tuple[int, float, float]:
    """Run ``delayexp <argv>`` as a fresh process in ``cwd``.

    Returns (exit code, wall seconds, max RSS in MB). Output goes to
    ``log`` + ".out" / ".err". A process still running after ``timeout``
    seconds is killed and reported with exit code -9.
    """
    with open(f"{log}.out", "wb") as out, open(f"{log}.err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "delayexp.cli", *argv], cwd=cwd,
                                env=_child_env(), stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
        timer = threading.Timer(max(timeout, 0.0), _kill, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_inprocess(main, argv, cwd: Path) -> tuple[int, float, str, str]:
    """Run ``main(argv)`` in ``cwd``; returns (exit, wall seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    previous = os.getcwd()
    os.chdir(cwd)
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            except Exception:  # a traceback is a failed command, not a failed run
                traceback.print_exc()
                code = 1
    finally:
        wall = time.perf_counter() - t0
        os.chdir(previous)
    return code, wall, out.getvalue(), err.getvalue()


def _prepare(workdir: Path, cmd) -> Path:
    path = workdir / cmd.id
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    for name, text in cmd.inputs.items():
        (path / name).write_text(text, encoding="utf-8")
    return path


def load_reference(workload: str) -> dict | None:
    path = REFERENCE / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else None


def _reference_for(ref: dict | None, cmd, seed: int, scale: float) -> dict | None:
    if ref is None or scale != 1.0 or (cmd.seeded and seed != ref["seed"]):
        return None
    return ref["commands"].get(cmd.id)


def run_pass(workload: str, seed: int, scale: float, workdir: Path, execute,
             ref: dict | None) -> dict:
    """Run every command of the workload once and check its outputs.

    ``execute(cmd, cwd)`` runs one command and returns (exit, wall seconds,
    max RSS in MB or None, stdout, stderr). ``ref`` is the workload's stored
    reference, or None to skip the reference comparison.
    """
    cmds = commands(workload, seed, scale)
    results, records = {}, []
    for cmd in cmds:
        cwd = _prepare(workdir, cmd)
        code, wall, rss, stdout, stderr = execute(cmd, cwd)
        results[cmd.id] = CommandResult(cmd.argv, code, stdout, stderr, cwd)
        records.append({"id": cmd.id, "kind": cmd.kind, "uses": cmd.uses,
                        "argv": list(cmd.argv), "exit": code, "wall_s": wall,
                        "max_rss_mb": rss})
    cross = cross_problems(workload, results, scale)
    for cmd, rec in zip(cmds, records):
        status, problems = check_command(cmd, results[cmd.id],
                                         _reference_for(ref, cmd, seed, scale))
        problems += cross.get(cmd.id, [])
        rec["status"] = "failed" if problems else status
        rec["problems"] = problems
    return {"wall_s": sum(r["wall_s"] for r in records), "commands": records}


def fresh_executor(logdir: Path, deadline: float):
    logdir.mkdir(parents=True, exist_ok=True)

    def execute(cmd, cwd):
        log = logdir / cmd.id
        code, wall, rss = run_fresh(cmd.argv, cwd, log, deadline - time.perf_counter())
        return (code, wall, rss, Path(f"{log}.out").read_text(errors="replace"),
                Path(f"{log}.err").read_text(errors="replace"))
    return execute


def inprocess_executor(main, before=None):
    def execute(cmd, cwd):
        if before is not None:
            before(cmd)
        code, wall, stdout, stderr = run_inprocess(main, cmd.argv, cwd)
        return code, wall, None, stdout, stderr
    return execute


# -- metrics -------------------------------------------------------------------

def class_metrics(passes: list[dict]) -> dict[str, float]:
    """Median over passes of each class metric present in the workload."""
    per_pass: dict[str, list[float]] = {}
    for p in passes:
        cmds = p["commands"]
        for name, kind in CLASS_TIMES.items():
            walls = [c["wall_s"] for c in cmds if c["kind"] == kind]
            if walls:
                per_pass.setdefault(name, []).append(sum(walls))
        for name, kind in CLASS_RATES.items():
            sel = [c for c in cmds if c["kind"] == kind]
            if sel:
                per_pass.setdefault(name, []).append(
                    sum(c["uses"] for c in sel) / sum(c["wall_s"] for c in sel))
    return {name: statistics.median(v) for name, v in per_pass.items()}


def layer_metrics(tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass; 0 for layers it never entered."""
    total, own = tracer.totals()
    counts = tracer.counts
    metrics = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "self_s":
            metrics[name] = own.get(base, 0.0)
        elif field == "s":
            metrics[name] = total.get(base, 0.0)
        else:  # counts; the derived metrics below overwrite their zero
            metrics[name] = float(counts[name])
    blocks = counts["sim_anytime.fortified_run.blocks"]
    if blocks:
        metrics["sim_anytime.fortified_run.self_s_per_block"] = \
            own["sim_anytime.fortified_run"] / blocks
    settled = counts["sim_anytime.flow.chunks_settled"]
    if settled:
        metrics["sim_anytime.flow.chunk_ok_ratio"] = \
            (settled - counts["sim_anytime.punctuation_chunk_errors"]) / settled
    metrics["sim_queue.peak_rss_mb"] = tracer.queue_peak_rss_mb
    return metrics


# -- the two kinds of run ------------------------------------------------------

def untraced_run(workload: str, seed: int, seconds: float, scale: float, out: Path) -> dict:
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    workdir = out / "work" / workload
    execute = fresh_executor(workdir / "_logs", deadline)
    setup_dir = workdir / "_setup"
    setup_dir.mkdir(parents=True, exist_ok=True)
    setup: list[float] = []

    def measure_setup():
        # Spread over the run, so one slow moment does not set the median.
        for _ in range(SETUP_REPS_PER_PASS):
            code, wall, _ = run_fresh(["--version"], setup_dir, setup_dir / "version",
                                      deadline - time.perf_counter())
            if code != 0:
                raise SystemExit(f"error: `delayexp --version` exited {code}")
            setup.append(wall)

    ref = load_reference(workload)
    passes = []
    measure_start = time.perf_counter()
    while True:
        measure_setup()
        passes.append(run_pass(workload, seed, scale, workdir, execute, ref))
        now = time.perf_counter()
        longest = max(p["wall_s"] for p in passes)
        if (now - measure_start >= seconds or now - start + longest > PASS_BUDGET_S
                or now - measure_start + longest > PASS_OVERSHOOT * seconds):
            break
    measure_setup()
    metrics = {
        "workload_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": max(c["max_rss_mb"] for p in passes for c in p["commands"]),
    }
    return {"metrics": metrics, "class_metrics": class_metrics(passes),
            "setup_samples_s": setup, "passes": passes}


def traced_run(workload: str, seed: int, scale: float, out: Path) -> dict:
    from spans import Tracer

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import delayexp.cli as cli
    import_s = time.perf_counter() - t0
    if Path(cli.__file__).resolve().parent != (SRC / "delayexp").resolve():
        raise SystemExit(f"error: imported delayexp from {cli.__file__}, not from {SRC}")
    workdir = out / "work" / f"{workload}-inproc"
    ref = load_reference(workload)
    # cli.main is looked up at each call, so the traced pass calls the wrapper.
    untraced = inprocess_executor(lambda a: cli.main(a))
    tracer = Tracer()

    def before(cmd):
        tracer.command = cmd.id

    # Untraced passes on both sides of the traced one, so that warm-up and
    # drift in machine speed do not land on one side of the overhead.
    first = run_pass(workload, seed, scale, workdir, untraced, ref)
    with tracer:
        traced = run_pass(workload, seed, scale, workdir, inprocess_executor(
            lambda a: cli.main(a), before), ref)
    last = run_pass(workload, seed, scale, workdir, untraced, ref)
    untraced_s = (first["wall_s"] + last["wall_s"]) / 2.0
    metrics = layer_metrics(tracer)
    metrics["cli.import_s"] = import_s
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced_s
    metrics["trace.wrapped_calls"] = float(sum(
        v for k, v in tracer.counts.items() if k.endswith(".calls")))
    spans_dir = out / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_path = spans_dir / f"{workload}-seed{seed}.jsonl.gz"
    tracer.write(spans_path)
    return {"metrics": metrics, "passes": [first, traced, last], "span_count": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT) if spans_path.is_relative_to(ROOT)
                              else spans_path)}


# -- environment and output ----------------------------------------------------

def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, check=False).stdout.strip() or None
    except OSError:
        sha = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "platform": platform.platform(), "git_sha": sha}


def summarize(record: dict) -> tuple[int, int, int]:
    """(attempted, failed, known failures) over every command of the run."""
    cmds = [c for p in record["passes"] for c in p["commands"]]
    failed = sum(c["status"] == "failed" for c in cmds)
    known = sum(c["status"] == "known_failure" for c in cmds)
    return len(cmds), failed, known


def print_report(record: dict, attempted: int, failed: int, known: int) -> None:
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{len(record['passes'])} passes, {attempted} commands")
    for p in record["passes"]:
        for c in p["commands"]:
            rss = "" if c["max_rss_mb"] is None else f" {c['max_rss_mb']:.1f} MB"
            print(f"  {c['id']:<24} exit {c['exit']:>2} {c['wall_s']:8.3f} s{rss} "
                  f"{c['status']}{': ' + '; '.join(c['problems']) if c['problems'] else ''}")
    for name, value in record["metrics"].items():
        print(f"metric {name} {value:.6g} {record['units'][name]}")
    if not record["trace"]:
        for name in list(CLASS_TIMES) + list(CLASS_RATES):
            value = record["class_metrics"].get(name)
            shown = "n/a (no such command in this workload)" if value is None else f"{value:.6g}"
            print(f"metric {name} {shown} {'s' if name in CLASS_TIMES else 'uses/s'}")
    # failed_frac counts the known failure too; the JSON "failed" does not.
    print(f"metric failed_frac {(failed + known) / attempted:.6g} ratio "
          f"({failed} failed + {known} known failures of {attempted} commands)")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink grids and horizons (self-tests); default 1")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for work files, run records and spans")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must lie in (0, 1]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "delayexp" / "cli.py").is_file():
        print(f"error: no delayexp sources under {SRC}", file=sys.stderr)
        return 2
    out = args.out.resolve()
    if args.trace:
        record = traced_run(args.workload, args.seed, args.scale, out)
        units = PER_LAYER
    else:
        record = untraced_run(args.workload, args.seed, args.seconds, args.scale, out)
        units = END_TO_END
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, scale=args.scale, units=units,
                  environment=environment(), time=time.time())
    attempted, failed, known = summarize(record)
    record.update(attempted=attempted, failed=failed, known_failures=known)
    runs = out / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (runs / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_report(record, attempted, failed, known)
    print(f"run record {runs / name}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in record["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
