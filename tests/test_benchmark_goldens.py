"""The benchmark's simulate commands reproduce its recorded outputs.

``perfbench/workloads.py`` lists the benchmark's commands and their input
files, and ``perfbench/reference`` holds each command's stdout and table at
the default seed. This runs the five ``simulate`` commands of the
schemes-sym and asym-z workloads through ``cli.main``, so an output change
in a simulator fails here and not only in a benchmark run.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from delayexp import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # The dataclasses in it resolve their annotations through sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()
CASES = [(workload, cmd) for workload in ("schemes-sym", "asym-z")
         for cmd in WORKLOADS.commands(workload, WORKLOADS.DEFAULT_SEED)
         if cmd.argv[0] == "simulate"]


@pytest.mark.parametrize("workload, cmd", CASES, ids=[cmd.id for _, cmd in CASES])
def test_simulate_matches_reference(workload, cmd, tmp_path, monkeypatch, capsys):
    reference = json.loads((PERFBENCH / "reference" / f"{workload}.json").read_text())
    ref = reference["commands"][cmd.id]
    assert reference["seed"] == WORKLOADS.DEFAULT_SEED
    assert ref["argv"] == list(cmd.argv)
    for name, text in cmd.inputs.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert cli.main(list(cmd.argv)) == ref["exit"]
    assert capsys.readouterr().out == ref["stdout"]
    assert (tmp_path / "table.csv").read_text() == ref["table"]


def test_all_five_commands_are_covered():
    assert sorted(cmd.id for _, cmd in CASES) == [
        "fortified-bec0.4", "fortified-bsc0.05", "fortified-z", "queue-bec0.4",
        "synthesized-bsc0.05"]
