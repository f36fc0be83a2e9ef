"""Self-tests of the benchmark's own code.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- self time -------------------------------------------------------------------

def test_self_time_of_nested_spans():
    s = 1_000_000_000  # ns per second
    synthetic = [
        (0, spans.ROOT, "c", "root", 0, 100 * s),
        (1, 0, "c", "a", 10 * s, 40 * s),
        (2, 1, "c", "a.inner", 20 * s, 30 * s),
        (3, 0, "c", "b", 50 * s, 60 * s),
    ]
    assert spans.self_times(synthetic) == {0: 60.0, 1: 20.0, 2: 10.0, 3: 10.0}


def test_self_time_counts_overlapping_children_once():
    synthetic = [(0, spans.ROOT, "c", "root", 0, 100), (1, 0, "c", "x", 10, 40),
                 (2, 0, "c", "y", 30, 50), (3, 0, "c", "z", 90, 120)]
    assert spans.self_times(synthetic)[0] == pytest.approx((100 - 40 - 10) / 1e9)


def test_tracer_nests_spans_and_restores_functions():
    sys.path.insert(0, str(ROOT / "src"))
    from delayexp import exponents
    from delayexp.channel import make_bsc

    original = exponents.e0_max
    with spans.Tracer() as tracer:
        exponents.sphere_packing(make_bsc(0.1), 0.1)
    assert exponents.e0_max is original
    by_id = {sp[0]: sp for sp in tracer.spans}
    outer = [sp for sp in tracer.spans if sp[3] == "exponents.sphere_packing"]
    inner = [sp for sp in tracer.spans if sp[3] == "exponents.e0_max"]
    assert len(outer) == 1 and inner
    assert all(by_id[sp[1]][3] == "exponents.sphere_packing" for sp in inner)
    assert tracer.counts["exponents.e0_max.calls"] == len(inner)


# -- output checks ---------------------------------------------------------------

def _figure_result(tmp_path, reference_cmd, stdout=None, exit_code=0, manifest=True):
    cmd = next(c for c in workloads.commands("bounds-sym", 0) if c.id == "figure-bsc0.1")
    for name, text in reference_cmd["files"].items():
        (tmp_path / name).write_text(text)
    if manifest:
        (tmp_path / "manifest.json").write_text(json.dumps({
            "command_line": "delayexp", "seeds": [], "tool_version": "0",
            "artifacts": ["./curves.csv", "./curves.gp", "./manifest.json"]}))
    res = checks.CommandResult(cmd.argv, exit_code, stdout or reference_cmd["stdout"], "",
                               tmp_path)
    return cmd, res


@pytest.fixture
def figure_ref():
    return run.load_reference("bounds-sym")["commands"]["figure-bsc0.1"]


def test_checker_accepts_the_reference(tmp_path, figure_ref):
    cmd, res = _figure_result(tmp_path, figure_ref)
    assert checks.check_command(cmd, res, figure_ref) == ("ok", [])


def test_checker_flags_a_perturbed_value(tmp_path, figure_ref):
    perturbed = figure_ref["stdout"].replace("crossover_rate 0.1140963", "crossover_rate 0.1140964")
    assert perturbed != figure_ref["stdout"]
    cmd, res = _figure_result(tmp_path, figure_ref, stdout=perturbed)
    status, problems = checks.check_command(cmd, res, figure_ref)
    assert status == "failed" and "stdout" in problems[0]


def test_checker_tolerates_a_last_digit_flip():
    assert checks.numeric_diff("x 0.100000000 y", "x 0.100000001 y") is None
    assert checks.numeric_diff("x 0.100000000 y", "x 0.100000003 y") is not None
    assert checks.numeric_diff("x 0.1 y", "x 0.1 z") is not None


def test_checker_flags_an_unexpected_exit_code(tmp_path, figure_ref):
    cmd, res = _figure_result(tmp_path, figure_ref, exit_code=1)
    status, problems = checks.check_command(cmd, res, figure_ref)
    assert status == "failed" and problems[0].startswith("exit 1")


def test_checker_flags_a_missing_manifest(tmp_path, figure_ref):
    cmd, res = _figure_result(tmp_path, figure_ref, manifest=False)
    status, problems = checks.check_command(cmd, res, figure_ref)
    assert status == "failed" and "manifest.json missing" in problems


def test_checker_flags_an_unlisted_artifact(tmp_path, figure_ref):
    cmd, res = _figure_result(tmp_path, figure_ref)
    (tmp_path / "stray.txt").write_text("")
    status, problems = checks.check_command(cmd, res, figure_ref)
    assert status == "failed" and "manifest lists" in problems[0]


def test_known_failure_is_checked_for_exit_code_and_manifest(tmp_path):
    cmd = next(c for c in workloads.commands("asym-z", 0) if c.known_failure is not None)
    res = checks.CommandResult(cmd.argv, cmd.known_failure, "", "error", tmp_path)
    assert checks.check_command(cmd, res, None) == ("known_failure", [])
    (tmp_path / "manifest.json").write_text("{}")
    assert checks.check_command(cmd, res, None)[0] == "failed"
    res.exit = 1
    assert checks.check_command(cmd, res, None)[0] == "failed"


def test_oracle_cross_check_flags_disagreement(tmp_path):
    def result(value):
        return checks.CommandResult((), 0, f"exponent {value} nats\n", "", tmp_path)

    good = {"oracle-bsc0.1": result(0.1148), "exponent-sp-bsc0.1": result(0.1147)}
    bad = {"oracle-bsc0.1": result(0.125), "exponent-sp-bsc0.1": result(0.1147)}
    assert checks.cross_problems("bounds-sym", good, 1.0) == {}
    assert "oracle-bsc0.1" in checks.cross_problems("bounds-sym", bad, 1.0)


# -- compare mode ----------------------------------------------------------------

def test_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.1, 9.9, 10.0]
    faster = [p * 0.8 for p in parent]
    slower = [p * 1.3 for p in parent]
    assert compare.verdict(parent, faster, True, 0.1)[0] == "improved"
    assert compare.verdict(parent, slower, True, 0.1)[0] == "worse"
    assert compare.verdict(parent, list(parent), True, 0.1)[0] == "unchanged"
    noisy = [5.0, 15.0, 6.0, 14.0, 5.0, 15.0, 6.0, 14.0, 10.0, 10.0]
    assert compare.verdict(noisy, [10.5] * 10, True, 0.1)[0] == "unresolved"
    assert compare.verdict([1.0] * 10, [2.0] * 10, False, None) == ("improved", 10, 10)
    assert compare.verdict([2.0] * 10, [1.0] * 10, False, None)[0] == "worse"


# -- the spec and the runs -------------------------------------------------------

def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert {m["unit"] for m in SPEC["per_layer"]} <= set(run.PER_LAYER.values())


def _bench(*args, cwd=ROOT, out):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args, "--out", str(out)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_scaled_down_pass_runs_end_to_end(workload, tmp_path):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0", "--scale", "0.02",
                  out=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert list((tmp_path / "runs").glob(f"{workload}-seed1-trace0-*.json"))


@pytest.mark.parametrize("workload", ["bounds-sym", "schemes-sym"])
def test_scaled_down_traced_pass_reports_every_layer(workload, tmp_path):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "0", "--scale", "0.02",
                  "--trace", "1", out=tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == list(run.PER_LAYER)
    assert list((tmp_path / "spans").glob(f"{workload}-seed1.jsonl.gz"))


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "bounds-sym", "--seed", "0", "--seconds", "1", cwd=tmp_path,
                  out=tmp_path / "out")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
