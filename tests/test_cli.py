import argparse
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import delayexp
from delayexp.channel import (conditional_divergence, load_channel, make_bsc, make_dmc,
                              mutual_information)
from delayexp import cli
from delayexp.cli import EXIT_PIPE_CLOSED, HORIZON_MAX, POINTS_MAX, main
from delayexp.errors import DelayexpError
from delayexp.exponents import BOUNDS_AT_RATE, bound_at_rate, gallager_e0
from delayexp.sim_anytime import SchemeConfig, synthesized_run

LN2 = math.log(2.0)

IDENTITY_MATRIX = {"matrix": [[1.0, 0.0], [0.0, 1.0]]}
Z_MATRIX = {"matrix": [[1.0, 0.0], [0.3, 0.7]]}
NOISY_TYPEWRITER = [[.5, .5, 0, 0], [0, .5, .5, 0], [0, 0, .5, .5], [.5, 0, 0, .5]]
FORTIFIED_CFG = {"n": 1, "c": 2, "l": 0, "rate_bits": 0.5, "seed": 0}
SYNTHESIZED_CFG = {"n": 1, "c": 8, "l": 0, "theta": 4, "rate_bits": 0.125, "seed": 3,
                   "redecode_window": 4}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fields(line):
    out = []
    for token in line.split():
        try:
            out.append(float(token))
        except ValueError:
            pass
    return out


class TestExponentCommand:
    def test_sphere_packing_bec_half_bit(self, capsys):
        code, out, _ = run(capsys, ["exponent", "--bec", "0.4", "--bound", "sp",
                                    "--rate-bits", "0.5"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "exponent 0.020410997 nats"
        assert lines[1].startswith("param ")

    def test_focusing_bec_half_bit(self, capsys):
        code, out, _ = run(capsys, ["exponent", "--bec", "0.4", "--bound", "focusing",
                                    "--rate-bits", "0.5"])
        assert code == 0
        assert out.splitlines()[0] == "exponent 0.405465108 nats"

    def test_achieved_at_unit_rho(self, capsys):
        code, out, _ = run(capsys, ["exponent", "--bsc", "0.4", "--bound", "achieved",
                                    "--rho", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "rate 0.005076712 nats"
        assert lines[1] == "exponent 0.005076712 nats"
        assert lines[2] == "param 1.000000000"

    def test_haroutunian_grid_too_slow_is_domain_error(self, capsys):
        # The default 100 grid steps on three outputs would pair 26.5M rows.
        code, out, err = run(capsys, ["exponent", "--bound", "haroutunian", "--bec", "0.1",
                                      "--rate-bits", "0.1"])
        assert code == 3
        assert out == ""
        assert err.startswith("error: grid_steps 100 on 3 outputs") and err.count("\n") == 1
        assert err.endswith("the largest grid_steps that fits is 43\n")

    def test_haroutunian_close_to_sphere_packing(self, capsys):
        args = ["--bsc", "0.1", "--rate-bits", "0.159"]
        code_h, out_h, _ = run(capsys, ["exponent", *args, "--bound", "haroutunian"])
        code_s, out_s, _ = run(capsys, ["exponent", *args, "--bound", "sp"])
        assert code_h == code_s == 0
        vh = fields(out_h.splitlines()[0])[0]
        vs = fields(out_s.splitlines()[0])[0]
        assert abs(vh - vs) <= 5e-3
        # The oracle has no optimizer parameter, so it prints no param line.
        assert len(out_h.splitlines()) == 1

    @pytest.mark.parametrize("channel", [["--bsc", "0"], ["--bec", "0"]], ids=["bsc0", "bec0"])
    def test_haroutunian_unbounded_on_noiseless_channels(self, capsys, channel):
        # Every grid channel below the rate leaves the support of P, so the
        # divergence is infinite; it prints as inf with a flag, not as a sentinel.
        code, out, err = run(capsys, ["exponent", "--bound", "haroutunian", *channel,
                                      "--rate-bits", "0.5", "--grid-steps", "10"])
        assert code == 4
        assert out == "exponent inf nats\n"
        assert err.startswith("flag unbounded:") and err.count("\n") == 1

    def test_haroutunian_flags_rate_above_capacity(self, capsys):
        # Answered as sp answers it: 0 with a flag, exit 4.
        code, out, err = run(capsys, ["exponent", "--bound", "haroutunian", "--bsc", "0.1",
                                      "--rate-bits", "0.9", "--grid-steps", "10"])
        assert code == 4
        assert out == "exponent 0.000000000 nats\n"
        assert err.startswith("flag rate_above_capacity:") and err.count("\n") == 1

    def test_haroutunian_zero_capacity_is_domain_error(self, capsys):
        code, out, err = run(capsys, ["exponent", "--bound", "haroutunian", "--bsc", "0.5",
                                      "--rate-bits", "0.5", "--grid-steps", "10"])
        assert code == 3
        assert out == ""
        assert err.startswith("error: channel capacity") and err.count("\n") == 1

    def test_bits_output_scales_every_unit_field(self, capsys):
        base = ["exponent", "--bec", "0.4", "--bound", "sp", "--rate-bits", "0.5"]
        _, out_nats, _ = run(capsys, base + ["--unit", "nats"])
        _, out_bits, _ = run(capsys, base + ["--unit", "bits"])
        for ln, lb in zip(out_nats.splitlines(), out_bits.splitlines()):
            vn, vb = fields(ln)[0], fields(lb)[0]
            if ln.startswith("param"):
                # Dimensionless: identical under both units.
                assert ln == lb
            else:
                assert vb * LN2 == pytest.approx(vn, abs=5e-9)

    def test_matrix_file_channel(self, capsys, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps({"matrix": [[0.6, 0.4], [0.4, 0.6]]}))
        code, out, _ = run(capsys, ["exponent", "--matrix", str(path), "--bound", "rc",
                                    "--rate-bits", "0.002"])
        code2, out2, _ = run(capsys, ["exponent", "--bsc", "0.4", "--bound", "rc",
                                      "--rate-bits", "0.002"])
        assert code == code2 == 0
        assert out == out2

    def test_rate_above_capacity_is_flagged(self, capsys):
        for bound in ("sp", "achieved"):
            code, out, err = run(capsys, ["exponent", "--bsc", "0.4", "--bound", bound,
                                          "--rate-bits", "0.5"])
            assert code == 4
            assert out.splitlines()[0] == "exponent 0.000000000 nats"
            assert "rate_above_capacity" in err

    @pytest.mark.parametrize("rho", ["1e-6", "1"])
    def test_achieved_point_on_zero_capacity_is_domain_error(self, capsys, rho):
        # Capacity 2.0e-14 nats: refused as every bound refuses it, not printed as rate 0.
        code, out, err = run(capsys, ["exponent", "--bound", "achieved", "--bsc", "0.4999999",
                                      "--rho", rho])
        assert (code, out) == (3, "")
        assert err.startswith("error: channel capacity") and err.count("\n") == 1

    def test_missing_rate_is_input_error(self, capsys):
        code, _, err = run(capsys, ["exponent", "--bsc", "0.4", "--bound", "sp"])
        assert code == 2
        assert "--rate-bits" in err

    def test_bad_channel_parameter_is_input_error(self, capsys):
        code, _, err = run(capsys, ["exponent", "--bsc", "1.5", "--bound", "sp",
                                    "--rate-bits", "0.1"])
        assert code == 2
        assert err.startswith("error:")

    def test_nonpositive_rate_is_domain_error(self, capsys):
        code, _, err = run(capsys, ["exponent", "--bsc", "0.4", "--bound", "sp",
                                    "--rate-bits", "-0.1"])
        assert code == 3
        assert err.startswith("error:")

    # Below RHO_MIN, E0 is lost to rounding (-0.0 at 1e-300, 10% low at
    # 1e-15); far above RHO_MAX it reaches the rho -> inf value -ln 2.
    @pytest.mark.parametrize("rho", ["nan", "inf", "0", "-1", "1e-300", "1e-15", "1e308"])
    def test_non_finite_or_nonpositive_rho_is_domain_error(self, capsys, rho):
        code, out, err = run(capsys, ["exponent", "--bsc", "0.4", "--bound", "achieved",
                                      "--rho", rho])
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("matrix", [
        [[1, 0], [0.3]],
        "x",
        {"a": 1},
        [["1", "0"], ["0.3", "0.7"]],
        [[True, False], [0.3, 0.7]],
        [[1, 0], [0.3, None]],
        [[10 ** 400, 0], [0.3, 0.7]],
        [1, 0],
    ])
    def test_malformed_matrix_file_is_input_error(self, capsys, tmp_path, matrix):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"matrix": matrix}))
        code, out, err = run(capsys, ["exponent", "--bound", "sp", "--matrix", str(path),
                                      "--rate-bits", "0.3"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("payload,message", [
        ({"matrix": [[1e308, 1e308], [0.5, 0.5]]}, "row 0 sums to inf, expected 1"),
        ({"matrix": [[0.9, 0.1], [0.1, 0.9]], "lable": "typo"},
         "channel file {path} has unknown keys: ['lable']"),
    ], ids=["row-sum-overflows", "unknown-key"])
    def test_refused_matrix_file_gives_one_plain_line(self, tmp_path, payload, message):
        # In a fresh process, without pytest's warning filters: numpy's
        # overflow warning would add lines, and its repr would show as np.
        path = tmp_path / "m.json"
        path.write_text(json.dumps(payload))
        proc = subprocess.run([sys.executable, "-m", "delayexp.cli", "exponent", "--bound", "sp",
                               "--matrix", str(path), "--rate-bits", "0.3"],
                              capture_output=True, text=True, env=_child_env(), timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {message.format(path=path)}\n"
        assert "np." not in proc.stderr

    @pytest.mark.parametrize("channel", [
        ["--bsc", "0"],
        ["--matrix", "typewriter.json"],
    ], ids=["bsc0", "typewriter"])
    def test_focusing_unbounded_on_zero_error_channels(self, capsys, tmp_path, monkeypatch,
                                                       channel):
        monkeypatch.chdir(tmp_path)
        Path("typewriter.json").write_text(json.dumps({"matrix": NOISY_TYPEWRITER}))
        code, out, err = run(capsys, ["exponent", "--bound", "focusing", *channel,
                                      "--rate-bits", "0.5"])
        assert code == 4
        assert out.splitlines() == ["exponent inf nats", "param inf"]
        assert "unbounded" in err

    def test_unknown_bound_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["exponent", "--bsc", "0.4", "--bound", "bogus", "--rate-bits", "0.1"])
        assert exc.value.code == 2

    def test_bound_choices_are_the_shared_dispatch(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        bound = next(a for a in commands.choices["exponent"]._actions if a.dest == "bound")
        assert bound.choices == (*BOUNDS_AT_RATE, "haroutunian")

    @pytest.mark.parametrize("bound", BOUNDS_AT_RATE)
    def test_exponent_prints_the_dispatched_bound(self, capsys, bound):
        list_size = ["--list-size", "3"] if bound == "list" else []
        code, out, _ = run(capsys, ["exponent", "--bound", bound, "--bsc", "0.1",
                                    "--rate-bits", "0.3", *list_size])
        expected = bound_at_rate(make_bsc(0.1), bound, 0.3 * LN2, 3)
        assert code == 0
        assert out.splitlines() == [f"exponent {expected.value:.9f} nats",
                                    f"param {expected.param:.9f}"]

    @pytest.mark.parametrize("argv, unread", [
        (["--bound", "achieved", "--rho", "1", "--rate-bits", "0.01"], "--rate-bits"),
        (["--bound", "sp", "--rate-bits", "0.5", "--rho", "3", "--grid-steps", "7",
          "--list-size", "9"], "--rho, --list-size, --grid-steps"),
        (["--bound", "list", "--rate-bits", "0.3", "--grid-steps", "7"], "--grid-steps"),
        (["--bound", "haroutunian", "--rate-bits", "0.3", "--list-size", "2"], "--list-size"),
        (["--bound", "focusing", "--rate-bits", "0.3", "--rho", "1"], "--rho"),
    ])
    def test_flags_the_bound_does_not_read_are_refused(self, capsys, argv, unread):
        # A flag the bound ignores would answer a question nobody asked.
        code, out, err = run(capsys, ["exponent", "--bsc", "0.1", *argv])
        assert code == 2
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error: --bound ") and line.endswith(f"does not read {unread}")

    def test_list_size_defaults_to_two(self, capsys):
        argv = ["exponent", "--bound", "list", "--bsc", "0.1", "--rate-bits", "0.3"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert run(capsys, [*argv, "--list-size", "2"])[1] == out

    @pytest.mark.parametrize("channel", [["--bsc", "0"], ["--bsc", "-0.0"], ["--bec", "0"]])
    def test_huge_list_size_on_noiseless_channel_is_unbounded(self, capsys, channel):
        # The rho bracket stops at 64, where E0 still has its linear growth;
        # at rho = 10**12 it would underflow to the log of 0.
        code, out, err = run(capsys, ["exponent", "--bound", "list", *channel,
                                      "--rate-bits", "0.1", "--list-size", str(10 ** 12)])
        assert code == 4
        assert out.splitlines() == ["exponent inf nats", "param inf"]
        assert err.startswith("flag unbounded:")

    def test_list_size_past_the_float_range_is_sphere_packing(self, capsys):
        argv = ["exponent", "--bsc", "0.1", "--rate-bits", "0.1"]
        code, out, _ = run(capsys, [*argv, "--bound", "list", "--list-size", str(10 ** 400)])
        assert code == 0
        assert out == run(capsys, [*argv, "--bound", "sp"])[1]


def _child_env():
    """The environment of a CLI child process that imports this package."""
    src = Path(cli.__file__).resolve().parents[1]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def _run_into_closed_pipe(argv, env_overrides):
    """Run the CLI in a child process whose stdout is a pipe with no reader
    left, as under ``| head -0``; return the exit code and stderr.

    The read end is closed before the child starts, so the child's first
    write fails whatever the timing.
    """
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    env.update(env_overrides)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "delayexp.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr.decode()


# Block-buffered stdout meets the closed pipe at the final flush, unbuffered
# stdout at the first print.
PIPE_BUFFERING = pytest.mark.parametrize("env_overrides", [{}, {"PYTHONUNBUFFERED": "1"}],
                                         ids=["buffered", "unbuffered"])


class TestClosedStdout:
    @PIPE_BUFFERING
    def test_exponent(self, env_overrides):
        code, err = _run_into_closed_pipe(
            ["exponent", "--bound", "sp", "--bsc", "0.1", "--rate-bits", "0.2"], env_overrides)
        assert (code, err) == (EXIT_PIPE_CLOSED, "")

    @PIPE_BUFFERING
    def test_bec_queue_leaves_a_complete_manifest(self, env_overrides, tmp_path):
        code, err = _run_into_closed_pipe(
            ["simulate", "bec-queue", "--delta", "0.4", "--horizon", "100000",
             "--delays", "4,8,12", "--outdir", str(tmp_path)], env_overrides)
        assert (code, err) == (EXIT_PIPE_CLOSED, "")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["artifacts"] == [str(tmp_path / "table.csv"),
                                         str(tmp_path / "manifest.json")]
        assert len((tmp_path / "table.csv").read_text().splitlines()) == 4


class TestFigureCommand:
    def test_writes_csv_script_and_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "fig"
        code, out, _ = run(capsys, ["figure", "--bsc", "0.4", "--points", "16",
                                    "--outdir", str(out_dir)])
        assert code == 0
        csv_path = out_dir / "curves.csv"
        gp_path = out_dir / "curves.gp"
        record_path = out_dir / "run_record.json"
        manifest_path = out_dir / "manifest.json"
        for p in (csv_path, gp_path, record_path, manifest_path):
            assert p.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "rate,sp,focusing,achieved"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["tool_version"]
        assert manifest["seeds"] == []
        assert manifest["artifacts"] == [str(csv_path), str(gp_path), str(record_path),
                                         str(manifest_path)]
        assert "crossover_rate " in out
        assert "flat_curvature" not in out

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, ["figure", "--bsc", "0.4", "--points", "16", "--outdir", str(a)])
        run(capsys, ["figure", "--bsc", "0.4", "--points", "16", "--outdir", str(b)])
        for name in ("curves.csv", "curves.gp", "run_record.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_record_holds_crossover_fraction_and_slopes(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["figure", "--bsc", "0.1", "--points", "16",
                                    "--outdir", str(tmp_path)])
        assert code == 0
        record = json.loads((tmp_path / "run_record.json").read_text())
        crossing = next(fields(line)[0] for line in out.splitlines()
                        if line.startswith("crossover_rate "))
        assert record["crossover_fraction"] == pytest.approx(
            crossing / record["capacity"], abs=1e-8)
        slopes = record["capacity_slopes"]
        assert slopes["focusing"] > slopes["achieved"] > 0
        assert slopes["flags"] == []

    def test_unit_conversion_scales_every_csv_field(self, capsys, tmp_path):
        a, b = tmp_path / "nats", tmp_path / "bits"
        run(capsys, ["figure", "--bsc", "0.4", "--points", "12", "--outdir", str(a)])
        run(capsys, ["figure", "--bsc", "0.4", "--points", "12",
                     "--unit", "bits", "--outdir", str(b)])
        rows_n = (a / "curves.csv").read_text().splitlines()[1:]
        rows_b = (b / "curves.csv").read_text().splitlines()[1:]
        assert len(rows_n) == len(rows_b) == 12
        for rn, rb in zip(rows_n, rows_b):
            for fn, fb in zip(rn.split(","), rb.split(",")):
                assert (fn == "") == (fb == "")
                if fn:
                    assert float(fb) * LN2 == pytest.approx(float(fn), abs=5e-9)

    def test_flat_curvature_note_on_noiseless_channel(self, capsys, tmp_path):
        path = tmp_path / "ident.json"
        path.write_text(json.dumps(IDENTITY_MATRIX))
        code, out, _ = run(capsys, ["figure", "--matrix", str(path), "--points", "8",
                                    "--outdir", str(tmp_path / "fig")])
        assert code == 0
        assert "flag flat_curvature" in out
        assert "crossover_rate none" in out

    def test_asymmetric_channel_finishes_with_manifest(self, capsys, tmp_path):
        path = tmp_path / "z.json"
        path.write_text(json.dumps(Z_MATRIX))
        out_dir = tmp_path / "fig"
        code, out, _ = run(capsys, ["figure", "--matrix", str(path), "--points", "2",
                                    "--outdir", str(out_dir)])
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["artifacts"] == [str(out_dir / name) for name in
                                         ("curves.csv", "curves.gp", "run_record.json",
                                          "manifest.json")]
        assert "crossover_rate " in out
        record = json.loads((out_dir / "run_record.json").read_text())
        assert record["capacity_slopes"] is None
        assert (out_dir / "curves.csv").read_text() == (
            "rate,sp,focusing,achieved\n"
            "0.003491326,0.917084567,1.100070108,0.207691224\n"
            "0.348783511,0.000000233,0.000932211,0.000201065\n")

    def test_label_cannot_write_lines_into_the_plot_script(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**Z_MATRIX, "label": "BSC\nprint \"injected line\""}))
        out_dir = tmp_path / "fig"
        code, out, err = run(capsys, ["figure", "--matrix", str(path), "--points", "2",
                                      "--outdir", str(out_dir)])
        assert (code, out) == (2, "")
        assert err.startswith("error: channel label must be a string without control characters")
        assert len(err.splitlines()) == 1
        assert not out_dir.exists()

    def test_zero_capacity_channel_is_named_in_the_error(self, capsys, tmp_path):
        out_dir = tmp_path / "fig"
        code, out, err = run(capsys, ["figure", "--bsc", "0.5", "--outdir", str(out_dir)])
        assert code == 3
        assert out == ""
        assert err == "error: channel capacity 0.0 is numerically zero\n"
        assert not out_dir.exists()

    def test_request_too_large_for_memory_is_domain_error(self, capsys, tmp_path):
        # 10**12 rates would need 7.3 TiB; the cap refuses them before any allocation.
        out_dir = tmp_path / "fig"
        code, out, err = run(capsys, ["figure", "--bsc", "0.1", "--points", str(10 ** 12),
                                      "--outdir", str(out_dir)])
        assert code == 3
        assert out == ""
        assert err == f"error: --points {10 ** 12} exceeds the cap of {POINTS_MAX}\n"
        assert not out_dir.exists()

    def test_out_of_memory_is_one_line_domain_error(self, capsys, tmp_path, monkeypatch):
        # An allocation refused below the caps still ends in exit 3 and one line.
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(cli, "sweep", refuse)
        out_dir = tmp_path / "fig"
        code, out, err = run(capsys, ["figure", "--bsc", "0.1", "--points", str(POINTS_MAX),
                                      "--outdir", str(out_dir)])
        assert code == 3
        assert out == ""
        assert err == "error: out of memory: Unable to allocate 7.28 TiB\n"
        assert not out_dir.exists()

    def test_manifest_command_line_round_trips_through_shlex(self, capsys, tmp_path):
        out_dir = tmp_path / "with space"
        argv = ["figure", "--bsc", "0.4", "--points", "8", "--outdir", str(out_dir)]
        code, _, _ = run(capsys, argv)
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert shlex.split(manifest["command_line"]) == ["delayexp", *argv]

    def test_outdir_env_default_and_flag_override(self, capsys, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("DELAYEXP_OUTDIR", str(env_dir))
        run(capsys, ["figure", "--bsc", "0.4", "--points", "8"])
        assert (env_dir / "curves.csv").exists()
        flag_dir = tmp_path / "from_flag"
        run(capsys, ["figure", "--bsc", "0.4", "--points", "8",
                     "--outdir", str(flag_dir)])
        assert (flag_dir / "curves.csv").exists()


class TestSimulateCommand:
    def test_bec_queue_prints_fit_and_reference(self, capsys, tmp_path):
        code, out, _ = run(capsys, ["simulate", "bec-queue", "--delta", "0.4",
                                    "--horizon", "100000", "--delays", "4,8,12",
                                    "--seed", "11", "--outdir", str(tmp_path)])
        assert code == 0
        table = (tmp_path / "table.csv").read_text().splitlines()
        assert table[0] == "delay,error,trials,half_width"
        assert len(table) == 4
        assert any(line.startswith("slope ") for line in out.splitlines())
        assert "reference 0.405465108 nats_per_use" in out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seeds"] == [11]

    def test_bec_queue_deterministic_across_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "bec-queue", "--delta", "0.4", "--horizon", "100000",
                "--delays", "4,8,12", "--seed", "11"]
        run(capsys, argv + ["--outdir", str(a)])
        run(capsys, argv + ["--outdir", str(b)])
        assert (a / "table.csv").read_bytes() == (b / "table.csv").read_bytes()

    def test_fortified_on_noiseless_channel_has_zero_errors(self, capsys, tmp_path):
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps({"n": 1, "c": 2, "l": 0, "theta": 0,
                                   "rate_bits": 0.5, "seed": 0}))
        chan = tmp_path / "ident.json"
        chan.write_text(json.dumps(IDENTITY_MATRIX))
        code, out, _ = run(capsys, ["simulate", "fortified", "--config", str(cfg),
                                    "--matrix", str(chan), "--horizon", "20000",
                                    "--delays", "2,4,8", "--seed", "1",
                                    "--outdir", str(tmp_path)])
        assert code == 0
        rows = (tmp_path / "table.csv").read_text().splitlines()[1:]
        assert all(float(row.split(",")[1]) == 0.0 for row in rows)
        assert "fit unavailable" in out
        assert "blocks_confirmed 10000" in out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seeds"] == [0, 1]

    @pytest.mark.parametrize("scheme, cfg, horizon, delays", [
        ("fortified", {"n": 1, "c": 2, "l": 0, "rate_bits": 0.5}, "20000", "6,10,14,18"),
        ("synthesized", {"n": 2, "c": 24, "l": 1, "theta": 12, "rate_bits": 1 / 6,
                         "redecode_window": 4}, "4800", "24,48,72"),
    ], ids=["fortified", "synthesized"])
    def test_zero_capacity_channel_is_refused(self, capsys, tmp_path, scheme, cfg, horizon,
                                              delays):
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        (tmp_path / "useless.json").write_text(json.dumps({"matrix": [[0.5, 0.5], [0.5, 0.5]]}))
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, ["simulate", scheme, "--config", str(tmp_path / "cfg.json"),
                                      "--matrix", str(tmp_path / "useless.json"), "--horizon",
                                      horizon, "--delays", delays, "--outdir", str(out_dir)])
        assert (code, out, err) == (3, "", "error: channel capacity 0.0 is numerically zero\n")
        assert not out_dir.exists()

    def test_missing_config_is_input_error(self, capsys, tmp_path):
        chan = tmp_path / "ident.json"
        chan.write_text(json.dumps(IDENTITY_MATRIX))
        code, _, err = run(capsys, ["simulate", "fortified", "--matrix", str(chan),
                                    "--horizon", "20000", "--delays", "2,4",
                                    "--seed", "1"])
        assert code == 2
        assert "--config" in err
        code2, _, err2 = run(capsys, ["simulate", "fortified", "--config",
                                      str(tmp_path / "absent.json"), "--matrix",
                                      str(chan), "--horizon", "20000",
                                      "--delays", "2,4", "--seed", "1"])
        assert code2 == 2
        assert "absent.json" in err2

    def test_unknown_config_key_is_input_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"n": 1, "c": 2, "l": 0, "window": 4}))
        code, _, err = run(capsys, ["simulate", "fortified", "--config", str(cfg),
                                    "--bsc", "0.05", "--horizon", "20000",
                                    "--delays", "2,4", "--seed", "1"])
        assert code == 2
        assert "window" in err

    def test_record_counters_match_the_library_run(self, capsys, tmp_path):
        cfg = {"n": 2, "c": 24, "l": 1, "theta": 12, "rate_bits": 1 / 6, "seed": 0,
               "redecode_window": 4}
        path = tmp_path / "syn.json"
        path.write_text(json.dumps(cfg))
        code, _, _ = run(capsys, ["simulate", "synthesized", "--config", str(path),
                                  "--bsc", "0.05", "--horizon", "4800", "--delays", "24,48",
                                  "--seed", "2", "--outdir", str(tmp_path / "out")])
        assert code == 0
        record = json.loads((tmp_path / "out" / "run_record.json").read_text())
        table = synthesized_run(SchemeConfig(**cfg), make_bsc(0.05), 4800, (24, 48), 2)
        # The counters SchemeRunResult declares, in their order.
        assert list(record) == ["blocks_confirmed", "punctuation_chunk_errors",
                                "data_block_errors", "spurious_confirms", "wrong_bit_weight",
                                "missed_bit_weight"]
        assert record == {name: getattr(table, name) for name in record}
        assert record["missed_bit_weight"] > 0

    @pytest.mark.parametrize("scheme, override, seed", [
        ("fortified", {"seed": -1}, "0"),
        ("fortified", {"n": 1.5, "c": 4}, "0"),
        ("fortified", {"seed": 0.5}, "0"),
        ("fortified", {"n": True}, "0"),
        ("synthesized", {"redecode_window": "4"}, "0"),
        ("fortified", {}, "-3"),
        ("synthesized", {}, "-3"),
        ("bec-queue", {}, "-3"),
    ])
    def test_bad_config_fields_and_seeds_are_input_errors(self, capsys, tmp_path, scheme,
                                                          override, seed):
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, _simulate_argv(tmp_path, scheme, override, seed, out_dir))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert not out_dir.exists()

    def test_synthesized_refuses_theta_zero_by_name(self, capsys, tmp_path):
        # theta 0 is the fortified scheme's noiseless side link; the synthesized
        # scheme, whose flow control rides the channel, refuses it by name.
        out_dir = tmp_path / "out"
        code, out, err = run(capsys, _simulate_argv(tmp_path, "synthesized", {"theta": 0}, "0",
                                                    out_dir))
        assert code == 3
        assert out == ""
        assert err == "error: synthesized mode requires theta >= 1 flow-control uses per chunk\n"
        assert not out_dir.exists()

    def test_outdir_under_a_regular_file_is_input_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run(capsys, _simulate_argv(tmp_path, "bec-queue", {}, "0",
                                                    blocker / "sub"))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_horizon_too_large_for_memory_is_domain_error(self, capsys, tmp_path):
        # 10**12 uses would need 7.3 TiB of noise draws; every simulate mode
        # refuses them at the cap before any allocation.
        for scheme in ("bec-queue", "fortified", "synthesized"):
            out_dir = tmp_path / scheme
            argv = _simulate_argv(tmp_path, scheme, {}, "0", out_dir)
            argv[argv.index("--horizon") + 1] = str(10 ** 12)
            code, out, err = run(capsys, argv)
            assert code == 3
            assert out == ""
            assert err == f"error: --horizon {10 ** 12} exceeds the cap of {HORIZON_MAX}\n"
            assert not out_dir.exists()

    def test_bad_delays_are_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, ["simulate", "bec-queue", "--delta", "0.4",
                                    "--horizon", "100000", "--delays", "4;8",
                                    "--seed", "0", "--outdir", str(tmp_path)])
        assert code == 2
        assert "delays" in err

    def test_synthesized_runs_and_is_deterministic(self, capsys, tmp_path):
        cfg = tmp_path / "syn.json"
        cfg.write_text(json.dumps({"n": 1, "c": 8, "l": 0, "theta": 4,
                                   "rate_bits": 0.125, "seed": 3,
                                   "redecode_window": 4}))
        chan = tmp_path / "ident.json"
        chan.write_text(json.dumps(IDENTITY_MATRIX))
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["simulate", "synthesized", "--config", str(cfg), "--matrix",
                str(chan), "--horizon", "4000", "--delays", "16,24", "--seed", "5"]
        code, out, _ = run(capsys, argv + ["--outdir", str(a)])
        assert code == 0
        assert any(line.startswith("slope ") or "fit unavailable" in line
                   for line in out.splitlines())
        run(capsys, argv + ["--outdir", str(b)])
        assert (a / "table.csv").read_bytes() == (b / "table.csv").read_bytes()


def _simulate_argv(tmp_path, scheme, override, seed, out_dir):
    """A small run of one simulate mode, with config fields overridden."""
    if scheme == "bec-queue":
        head = ["bec-queue", "--delta", "0.4", "--delays", "2,4"]
    else:
        base = FORTIFIED_CFG if scheme == "fortified" else SYNTHESIZED_CFG
        cfg = Path(tmp_path) / "cfg.json"
        cfg.write_text(json.dumps({**base, **override}))
        head = [scheme, "--bsc", "0.05", "--config", str(cfg), "--delays", "16,24"]
    return ["simulate", *head, "--horizon", "2000", "--seed", seed, "--outdir", str(out_dir)]



# Each artifact-writing command, as a small run, and the files it writes.
ARTIFACT_SETS = {
    "figure": ("curves.csv", "curves.gp", "run_record.json", "manifest.json"),
    "bec-queue": ("table.csv", "manifest.json"),
    "fortified": ("table.csv", "run_record.json", "manifest.json"),
    "synthesized": ("table.csv", "run_record.json", "manifest.json"),
}


class TestArtifactSets:
    @pytest.mark.parametrize("command,blocked", [
        (command, name) for command, names in ARTIFACT_SETS.items() for name in names])
    def test_a_blocked_name_leaves_none_of_the_runs_files(self, capsys, tmp_path, command,
                                                          blocked):
        # A directory at one artifact name stops the run with exit 2 before
        # any file moves into place: an earlier run's set stays as it was,
        # and no temporary is left behind.
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        names = ARTIFACT_SETS[command]
        for name in names:
            (out_dir / name).write_text("earlier run\n")
        (out_dir / blocked).unlink()
        (out_dir / blocked).mkdir()
        if command == "figure":
            argv = ["figure", "--bsc", "0.1", "--points", "4", "--outdir", str(out_dir)]
        else:
            argv = _simulate_argv(tmp_path, command, {}, "1", out_dir)
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write artifacts to {out_dir}: ")
        assert err.count("\n") == 1 and str(out_dir / blocked) in err
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(names)
        assert all((out_dir / name).read_text() == "earlier run\n"
                   for name in names if name != blocked)

    def test_a_complete_set_replaces_an_earlier_one(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        for name in ARTIFACT_SETS["fortified"]:
            (out_dir / name).write_text("earlier run\n")
        code, _, _ = run(capsys, _simulate_argv(tmp_path, "fortified", {}, "1", out_dir))
        assert code == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["artifacts"] == [str(out_dir / name)
                                         for name in ARTIFACT_SETS["fortified"]]
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(ARTIFACT_SETS["fortified"])
        assert (out_dir / "table.csv").read_text().startswith("delay,error,trials,half_width\n")


def _fuzz_main(argv, out_dir=None, parser_may_exit=True, flagged_ok=False):
    """Run ``main`` and check it ended in a documented exit code without a traceback.

    A nonzero exit must print an ``error:`` line, except exit 4 under
    ``flagged_ok``, which must print its ``flag`` line. The parser may
    reject a flag value with ``SystemExit(2)`` only under
    ``parser_may_exit``. ``out_dir`` must end up holding a manifest or no
    files at all.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            if not parser_may_exit:
                raise
            code = exc.code
            assert code == 2 and ": error: " in err.getvalue()
        else:
            assert code in (0, 2, 3, 4)
            if code == 4 and flagged_ok:
                assert err.getvalue().startswith("flag ")
            elif code != 0:
                assert err.getvalue().startswith("error:")
    assert "Traceback" not in err.getvalue()
    if out_dir is not None:
        written = list(out_dir.iterdir()) if out_dir.is_dir() else []
        assert not written or (out_dir / "manifest.json").is_file()


def _out_dir(tmp, blocked):
    """A fresh output directory, or one under a regular file that cannot be created."""
    if not blocked:
        return Path(tmp) / "out"
    (Path(tmp) / "file").write_text("")
    return Path(tmp) / "file" / "sub"


FUZZ_VALUES = (math.nan, math.inf, -math.inf, -1, 0, 10 ** 18, 10 ** 400, 1e300, 1.5, 1e-300,
               True, "4", None)


@given(scheme=st.sampled_from(["fortified", "synthesized"]),
       field=st.sampled_from(sorted(SYNTHESIZED_CFG)),
       value=st.sampled_from(FUZZ_VALUES),
       seed=st.sampled_from(["0", "-1", str(10 ** 18)]),
       blocked=st.booleans())
@settings(max_examples=30, deadline=None)
def test_simulate_fuzz_exits_cleanly(scheme, field, value, seed, blocked):
    # Any config value, seed or output directory ends in a documented exit
    # code with no traceback, and leaves a manifest or no files at all.
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = _out_dir(tmp, blocked)
        _fuzz_main(_simulate_argv(tmp, scheme, {field: value}, seed, out_dir), out_dir,
                   parser_may_exit=False)


# Flag values for the fuzz tests of the other commands: non-finite, signed
# zero, subnormal-scale and boundary numbers. They are passed as
# --flag=value, so the parser does not take -inf for a flag.
FUZZ_NUMBERS = ("nan", "inf", "-inf", "-0.0", "0", "1e-300", "0.5", "1")
# Integer flags get small counts, a few values that are not integers, and
# 10**12, which the program must refuse at once or use without allocating
# for it.
FUZZ_COUNTS = ("-1", "0", "1", "2", "8", "0.5", "nan", str(10 ** 12))


def _flag(flag, values, usual=None):
    """``[flag=value]`` for one of ``values``, or else the usual setting.

    The usual setting keeps the other flags' values reachable past the
    first check; ``usual=None`` leaves the flag out.
    """
    usual_args = [] if usual is None else [f"{flag}={usual}"]
    return st.one_of(st.just(usual_args), st.sampled_from(values).map(lambda v: [f"{flag}={v}"]))


CHANNEL = st.sampled_from(["--bsc", "--bec"]).flatmap(
    lambda flag: _flag(flag, FUZZ_NUMBERS, usual="0.1"))
UNIT = _flag("--unit", ("nats", "bits", "nan"))


RATE = _flag("--rate-bits", FUZZ_NUMBERS, usual="0.1")


def _bound_args(bound):
    """``--bound`` with a rate and the flags that bound reads, and no others,
    so that every example reaches the bound's own code."""
    if bound == "achieved":
        # The point at --rho, or else the curve solved at --rate-bits.
        rest = st.one_of(st.sampled_from(FUZZ_NUMBERS).map(lambda v: [f"--rho={v}"]), RATE)
    elif bound == "list":
        rest = st.tuples(RATE, _flag("--list-size", FUZZ_COUNTS)).map(lambda t: t[0] + t[1])
    elif bound == "haroutunian":
        # Always given: the oracle's default of 100 steps is slow on three outputs.
        grid_steps = _flag("--grid-steps", FUZZ_COUNTS + ("20",), usual="4")
        rest = st.tuples(RATE, grid_steps).map(lambda t: t[0] + t[1])
    else:
        rest = RATE
    return rest.map(lambda flags: ["--bound", bound, *flags])


@given(bound=st.sampled_from(["sp", "rc", "list", "haroutunian", "focusing", "achieved"])
       .flatmap(_bound_args),
       channel=CHANNEL,
       unit=UNIT)
@settings(max_examples=150, deadline=None)
@example(bound=["--bound", "list", "--rate-bits=0.1", "--list-size=1000000000000"],
         channel=["--bsc=-0.0"], unit=[])
@example(bound=["--bound", "achieved", "--rho=1e-6"], channel=["--bsc=0.4999999"], unit=[])
def test_exponent_fuzz_exits_cleanly(bound, channel, unit):
    _fuzz_main(["exponent", *bound, *channel, *unit], flagged_ok=True)


@given(points=_flag("--points", FUZZ_COUNTS, usual="8"), channel=CHANNEL, unit=UNIT,
       blocked=st.booleans())
@settings(max_examples=60, deadline=None)
def test_figure_fuzz_exits_cleanly(points, channel, unit, blocked):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = _out_dir(tmp, blocked)
        _fuzz_main(["figure", *channel, *points, *unit, "--outdir", str(out_dir)], out_dir)


@given(delta=_flag("--delta", FUZZ_NUMBERS, usual="0.4"),
       horizon=_flag("--horizon", FUZZ_COUNTS + ("20",), usual="20000"),
       delays=_flag("--delays", ("0", "-1", "", ",", "2,,4", "4;8", "1e-300", "nan", " 2, 4",
                                 "99999"), usual="2,4"),
       seed=_flag("--seed", FUZZ_COUNTS, usual="0"),
       blocked=st.booleans())
@settings(max_examples=100, deadline=None)
def test_bec_queue_fuzz_exits_cleanly(delta, horizon, delays, seed, blocked):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = _out_dir(tmp, blocked)
        _fuzz_main(["simulate", "bec-queue", *delta, *horizon, *delays, *seed,
                    "--outdir", str(out_dir)], out_dir)


# Channel-file entries at the edges: a row's main mass may be one rounding
# step short of 1, or so large that the row sum is refused (or overflows,
# next to a second such entry), and its other entries subnormal-scale.
MAIN_MASSES = (1 - 1e-16, 1.0, 1e308)
SIDE_MASSES = (1e-300, 0.0, 1e-16)
MALFORMED_CHANNEL_FILES = ("", "{", '{"matrix": [[0.5, 0.5], [0.5', "[[0.5, 0.5], [0.5, 0.5]]",
                           "null", '{"matrix": NaN}', '{"matrix": [[0.5, 0.5], [0.5, 0.5]],}')
# Focusing and the figure are seconds per call on an asymmetric channel of
# more than two inputs, so they get two-input matrices only, and fewer
# examples: a two-point figure still takes about half a second.
MATRIX_COMMANDS = ("sp", "rc", "achieved", "fortified", "synthesized")
TWO_INPUT_COMMANDS = ("focusing", "figure")


def _matrix_argv(command, tmp):
    """``command`` on the channel file ``tmp/m.json``; a command that writes
    files writes them under ``tmp/out``."""
    matrix, out = ["--matrix", str(tmp / "m.json")], ["--outdir", str(tmp / "out")]
    if command == "fortified":
        return ["simulate", "fortified", *matrix, "--config", str(tmp / "cfg.json"),
                "--horizon", "2000", "--delays", "2,4", "--seed", "0", *out]
    if command == "synthesized":
        return ["simulate", "synthesized", *matrix, "--config", str(tmp / "syn.json"),
                "--horizon", "400", "--delays", "8,16", "--seed", "0", *out]
    if command == "figure":
        return ["figure", *matrix, "--points", "2", *out]
    return ["exponent", "--bound", command, *matrix, "--rate-bits", "0.1"]


@st.composite
def _matrix_file(draw, inputs):
    """The text of a ``--matrix`` file: a matrix with a row count drawn from
    ``inputs`` and two to five columns, each row either normalized integer
    weights with some zeros or one main mass among side masses, and rows
    sometimes repeated; or an unknown key next to the matrix; or malformed
    JSON. Hypothesis leans to the first of sampled values and to small
    integers, so a repeat is drawn on the largest integer and the weights
    start nonzero: equal rows would make most examples zero-capacity."""
    kind = draw(st.sampled_from(["matrix"] * 4 + ["unknown key", "malformed"]))
    if kind == "malformed":
        return draw(st.sampled_from(MALFORMED_CHANNEL_FILES))
    cols = draw(st.integers(2, 5))
    rows = []
    for _ in range(draw(inputs)):
        if rows and draw(st.integers(0, 3)) == 3:
            rows.append(draw(st.sampled_from(rows)))
        elif draw(st.booleans()):
            weights = draw(st.lists(st.sampled_from([1, 0, 2, 0, 3]), min_size=cols,
                                    max_size=cols))
            weights[draw(st.integers(0, cols - 1))] += 1
            rows.append([w / sum(weights) for w in weights])
        else:
            row = draw(st.lists(st.sampled_from(SIDE_MASSES), min_size=cols, max_size=cols))
            row[draw(st.integers(0, cols - 1))] = draw(st.sampled_from(MAIN_MASSES))
            rows.append(row)
    payload = {"matrix": rows, "label": "fuzz"}
    if kind == "unknown key":
        payload["lable"] = "typo"
    return json.dumps(payload)


def _fuzz_matrix_command(command, text):
    """Run ``command`` on a channel file holding ``text``: it must end in a
    documented exit code with no traceback, and a command that writes must
    leave a manifest or no files at all."""
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        (tmp / "m.json").write_text(text)
        (tmp / "cfg.json").write_text(json.dumps(FORTIFIED_CFG))
        (tmp / "syn.json").write_text(json.dumps(SYNTHESIZED_CFG))
        _fuzz_main(_matrix_argv(command, tmp), tmp / "out", parser_may_exit=False,
                   flagged_ok=True)


@given(command=st.sampled_from(MATRIX_COMMANDS),
       text=_matrix_file(st.sampled_from([2, 3, 4, 5, 1])))
@settings(max_examples=60, deadline=None)
@example(command="sp", text=json.dumps({"matrix": [[1e308, 1e308], [0.5, 0.5]]}))
@example(command="sp", text=json.dumps({"matrix": [[0.9, 0.1], [0.1, 0.9]], "lable": "typo"}))
def test_matrix_file_fuzz_exits_cleanly(command, text):
    _fuzz_matrix_command(command, text)


@given(command=st.sampled_from(TWO_INPUT_COMMANDS), text=_matrix_file(st.just(2)))
@settings(max_examples=10, deadline=None)
def test_two_input_matrix_file_fuzz_exits_cleanly(command, text):
    _fuzz_matrix_command(command, text)


# JSON-like values for the library's input functions: scalars of every JSON
# kind plus NaN, infinities, 1e308, numeric strings and ints too large for a
# float, nested in lists (ragged or not) and objects.
LIBRARY_SCALARS = st.one_of(
    st.sampled_from([None, True, False, 0, 1, -1, 0.5, 0.1, 0.9, 1e308, -1e308, math.nan,
                     math.inf, -math.inf, 10 ** 400, -(10 ** 400), "0.5", "1", "nan", "a", ""]),
    st.floats(), st.integers())
LIBRARY_VALUES = st.recursive(
    LIBRARY_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=12)
CONFIG_KEYS = ("n", "c", "l", "theta", "rate_bits", "seed", "redecode_window", "bogus")


def _returns_or_refuses(call) -> None:
    """Run ``call``: it must return or raise one of the package's errors."""
    try:
        call()
    except DelayexpError:
        pass


@given(value=LIBRARY_VALUES, key=st.sampled_from(CONFIG_KEYS))
@settings(max_examples=300, deadline=None)
@example(value=["a", "b"], key="n")  # a bare ValueError from gallager_e0 and the divergence
@example(value=[[0.5], [0.5, 0]], key="n")  # a bare ValueError from mutual_information
@example(value={1: 0, "x": 1}, key="n")  # keys of two types cannot be sorted as they are
@example(value=1, key="n")  # open() would take the path 1 as stdout's descriptor
@example(value=None, key="n")  # a bare TypeError from open()
@example(value=2.5, key="n")
def test_library_input_fuzz_raises_only_package_errors(value, key):
    ch = make_bsc(0.1)
    for call in (lambda: make_dmc(value), lambda: gallager_e0(ch, 1.0, value),
                 lambda: load_channel(value), lambda: SchemeConfig.from_json(value),
                 lambda: mutual_information(value, ch),
                 lambda: conditional_divergence(ch, ch, value),
                 lambda: SchemeConfig.from_dict(value),
                 lambda: SchemeConfig.from_dict({**FORTIFIED_CFG, key: value})):
        _returns_or_refuses(call)
    with tempfile.TemporaryDirectory() as name:
        for payload in (value, {"matrix": value}, {**IDENTITY_MATRIX, "label": value},
                        {**FORTIFIED_CFG, key: value}):
            path = Path(name) / "input.json"
            path.write_text(json.dumps(payload))
            _returns_or_refuses(lambda: load_channel(path))
            _returns_or_refuses(lambda: SchemeConfig.from_json(path))


def test_a_descriptor_number_is_refused_as_a_path():
    # open(1) would wrap stdout's descriptor, and closing the file would close stdout.
    script = ("import delayexp\n"
              "try:\n    delayexp.load_channel(1)\nexcept delayexp.BadInputError:\n    pass\n"
              "print('stdout open')\n")
    child = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env=_child_env(), timeout=300)
    assert (child.returncode, child.stdout, child.stderr) == (0, "stdout open\n", "")


BSC = make_bsc(0.1)
FORTIFIED = SchemeConfig(**FORTIFIED_CFG)
SYNTHESIZED = SchemeConfig(**SYNTHESIZED_CFG)


def _scheme_config(field):
    return lambda v: SchemeConfig(**{**SYNTHESIZED_CFG, field: v})


def _table(column):
    columns = {"delays": (2,), "errors": (0.1,), "trials": (10,), "half_widths": (0.0,)}
    return lambda v: delayexp.DelayErrorTable(**{**columns, column: v})


def _result(counter):
    return lambda v: delayexp.SchemeRunResult((2,), (0.1,), (10,), (0.0,), **{counter: v})


def _codebook():
    return delayexp.BlockCodebook(BSC, 2, 0)


# Every public numeric parameter: the kind of value it takes ("number", "integer",
# "delays", a collection of integers, "numbers", a collection of numbers, or "rates", a
# number or a list, tuple or 1-D array of numbers, as every bound takes) and one call
# with the other arguments small and valid. Horizons, point counts and codeword counts
# are drawn too short to run, at most 2, or past int64, so no example allocates for a
# long run.
NUMERIC_PARAMETERS = {
    "make_bsc": ("number", delayexp.make_bsc),
    "make_bec": ("number", delayexp.make_bec),
    "gallager_e0 rho": ("number", lambda v: delayexp.gallager_e0(BSC, v)),
    "e0_max rho": ("number", lambda v: delayexp.e0_max(BSC, v)),
    "achieved_exponent rho": ("number", lambda v: delayexp.achieved_exponent(BSC, v)),
    "overhead_fraction rho": ("number", lambda v: delayexp.overhead_fraction(BSC, v)),
    "sphere_packing rate": ("rates", lambda v: delayexp.sphere_packing(BSC, v)),
    "random_coding rate": ("rates", lambda v: delayexp.random_coding(BSC, v)),
    "focusing_bound rate": ("rates", lambda v: delayexp.focusing_bound(BSC, v)),
    "achieved_exponent_at_rate rate": ("rates",
                                       lambda v: delayexp.achieved_exponent_at_rate(BSC, v)),
    "bound_at_rate rate": ("rates", lambda v: bound_at_rate(BSC, "sp", v)),
    "list_random_coding rate": ("rates", lambda v: delayexp.list_random_coding(BSC, v, 2)),
    "list_random_coding list_size": ("integer",
                                     lambda v: delayexp.list_random_coding(BSC, 0.1, v)),
    "bound_at_rate list_size": ("integer", lambda v: bound_at_rate(BSC, "list", 0.1, v)),
    "haroutunian_oracle rate": ("number", lambda v: delayexp.haroutunian_oracle(BSC, v, 4)),
    "haroutunian_oracle grid_steps": ("integer",
                                      lambda v: delayexp.haroutunian_oracle(BSC, 0.1, v)),
    "bec_feedback_exponent": ("number", delayexp.bec_feedback_exponent),
    "sweep rate_min": ("number", lambda v: delayexp.sweep(BSC, v, 0.3, 3, {"sp"})),
    "sweep rate_max": ("number", lambda v: delayexp.sweep(BSC, 0.1, v, 3, {"sp"})),
    "sweep points": ("integer", lambda v: delayexp.sweep(BSC, 0.1, 0.3, v, {"sp"})),
    "simulate_bec_feedback delta": (
        "number", lambda v: delayexp.simulate_bec_feedback(v, 2000, (2, 4), 0)),
    "simulate_bec_feedback horizon": (
        "integer", lambda v: delayexp.simulate_bec_feedback(0.4, v, (2, 4), 0)),
    "simulate_bec_feedback delays": (
        "delays", lambda v: delayexp.simulate_bec_feedback(0.4, 2000, v, 0)),
    "simulate_bec_feedback seed": (
        "integer", lambda v: delayexp.simulate_bec_feedback(0.4, 2000, (2, 4), v)),
    **{f"SchemeConfig {field}": ("number" if field == "rate_bits" else "integer",
                                 _scheme_config(field)) for field in SYNTHESIZED_CFG},
    "BlockCodebook payload_bits": ("integer", lambda v: delayexp.BlockCodebook(BSC, v, 0)),
    "BlockCodebook seed": ("integer", lambda v: delayexp.BlockCodebook(BSC, 1, v)),
    "FlowCode theta": ("integer", lambda v: delayexp.FlowCode(BSC, v, 0, 4)),
    "FlowCode seed": ("integer", lambda v: delayexp.FlowCode(BSC, 2, v, 4)),
    "FlowCode memory": ("integer", lambda v: delayexp.FlowCode(BSC, 2, 0, v)),
    "FlowCode.letters chunk_index": (
        "integer", lambda v: delayexp.FlowCode(BSC, 2, 0, 4).letters(bytes(16), v)),
    "FlowDecoder l": ("integer",
                      lambda v: delayexp.FlowDecoder(delayexp.FlowCode(BSC, 2, 0, 4), BSC, v)),
    "BlockCodebook.candidates_range block_id": (
        "integer", lambda v: _codebook().candidates_range(v, 0, 4)),
    "BlockCodebook.candidates_range start": (
        "integer", lambda v: _codebook().candidates_range(0, v, 4)),
    "BlockCodebook.candidates_range count": (
        "integer", lambda v: _codebook().candidates_range(0, 0, v)),
    "BlockCodebook.head_letters first": ("integer", lambda v: _codebook().head_letters(v, 2)),
    "BlockCodebook.head_letters count": ("integer", lambda v: _codebook().head_letters(0, v)),
    **{f"DelayErrorTable {column}": ("delays" if column in ("delays", "trials") else "numbers",
                                     _table(column))
       for column in ("delays", "errors", "trials", "half_widths")},
    **{f"SchemeRunResult {counter}": ("number" if counter.endswith("weight") else "integer",
                                      _result(counter))
       for counter in ("blocks_confirmed", "punctuation_chunk_errors", "data_block_errors",
                       "spurious_confirms", "wrong_bit_weight", "missed_bit_weight")},
    **{f"{run.__name__} {name}": (kind, call)
       for run, cfg in ((delayexp.fortified_run, FORTIFIED),
                        (delayexp.synthesized_run, SYNTHESIZED))
       for name, kind, call in (
           ("horizon", "integer", lambda v, run=run, cfg=cfg: run(cfg, BSC, v, (16, 24), 0)),
           ("delays", "delays", lambda v, run=run, cfg=cfg: run(cfg, BSC, 2000, v, 0)),
           ("seed", "integer", lambda v, run=run, cfg=cfg: run(cfg, BSC, 2000, (16, 24), v)))},
}
NUMERIC_VALUES = (None, "0.1", "2", "", [0.1], True, False, math.nan, math.inf, -math.inf, -1,
                  0, 1, 2, 1.5, 2.0, 0.1, 0.4, 2 ** 63, 10 ** 400, -(10 ** 400), np.int64(2),
                  np.float64(0.1), np.bool_(True))
DELAY_VALUES = (None, 5, "24", (), (2, 4), (1.5, 2), (2.0, 4), ("2",), (True,), (-1,),
                (math.nan,), (10 ** 400,), np.array([2, 4]), [np.int64(16), 24])


def _malformed(value, kind) -> bool:
    """Whether ``value`` is no value of ``kind``: not a number, a bool, NaN, a non-integer
    where an integer is due, or a collection with such an entry. Such a value must be
    refused."""
    if kind == "rates":
        listed = isinstance(value, (list, tuple, np.ndarray))
        return _malformed(value, "numbers" if listed else "number")
    if kind in ("delays", "numbers"):
        return isinstance(value, str) or not hasattr(value, "__iter__") or any(
            _malformed(d, "integer" if kind == "delays" else "number") for d in value)
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, float, np.number)):
        return True
    return value != value or kind == "integer" and not isinstance(value, (int, np.integer))


def _case(name):
    kind = NUMERIC_PARAMETERS[name][0]
    values = {"delays": DELAY_VALUES, "numbers": DELAY_VALUES,
              "rates": NUMERIC_VALUES + DELAY_VALUES}.get(kind, NUMERIC_VALUES)
    return st.tuples(st.just(name), st.sampled_from(values))


@given(case=st.sampled_from(sorted(NUMERIC_PARAMETERS)).flatmap(_case))
@settings(max_examples=150, deadline=None)
@example(case=("make_bsc", "0.1"))  # a bare TypeError
@example(case=("e0_max rho", 10 ** 400))  # a bare OverflowError
@example(case=("haroutunian_oracle grid_steps", 10.5))  # a grid of 10.5 steps
@example(case=("sweep points", 10 ** 400))  # a bare OverflowError
@example(case=("simulate_bec_feedback delays", (1.5, 2)))  # the table of delays (1, 2)
@example(case=("simulate_bec_feedback delays", None))  # a bare TypeError
@example(case=("simulate_bec_feedback horizon", 2000.9))  # a run of 2000 uses
@example(case=("fortified_run seed", 1.5))  # the run of seed 1
@example(case=("BlockCodebook seed", -1))  # splits -1 into 32-bit words without end
@example(case=("DelayErrorTable errors", ("2",)))  # a bare TypeError
@example(case=("SchemeRunResult blocks_confirmed", "x"))  # a count that is a string
@example(case=("SchemeRunResult wrong_bit_weight", -1.0))  # a negative weight
def test_numeric_parameter_fuzz_refuses_with_package_errors(case):
    # Any value returns or raises one of the package's errors, and a value of
    # the wrong kind is refused, never truncated or read as another number.
    name, value = case
    kind, call = NUMERIC_PARAMETERS[name]
    try:
        call(value)
    except DelayexpError:
        return
    assert not _malformed(value, kind), f"{name} took {value!r}"


def test_numpy_scalars_give_the_python_results():
    # A numpy scalar converts to the Python number of its value, so each result,
    # its types included, is the one the Python arguments give.
    i, f = np.int64, np.float64
    numpy_config = SchemeConfig(**{k: f(v) if k == "rate_bits" else i(v)
                                   for k, v in SYNTHESIZED_CFG.items()})
    calls = [
        (delayexp.make_bsc, (0.1,), (f(0.1),)),
        (delayexp.e0_max, (BSC, 0.5), (BSC, f(0.5))),
        (delayexp.sphere_packing, (BSC, 0.1), (BSC, f(0.1))),
        (delayexp.list_random_coding, (BSC, 0.1, 3), (BSC, f(0.1), i(3))),
        (delayexp.achieved_exponent, (BSC, 0.5), (BSC, f(0.5))),
        (delayexp.sweep, (BSC, 0.1, 0.3, 3, {"sp"}), (BSC, f(0.1), f(0.3), i(3), {"sp"})),
        (delayexp.simulate_bec_feedback, (0.4, 2000, (2, 4), 1),
         (f(0.4), i(2000), np.array([2, 4]), i(1))),
        (delayexp.fortified_run, (FORTIFIED, BSC, 2000, (16, 24), 1),
         (SchemeConfig(**{k: i(v) if k != "rate_bits" else f(v)
                          for k, v in FORTIFIED_CFG.items()}), BSC, i(2000), (i(16), 24), i(1))),
        (delayexp.synthesized_run, (SYNTHESIZED, BSC, 2000, (16, 24), 1),
         (numpy_config, BSC, i(2000), np.array([16, 24]), i(1))),
    ]
    assert repr(numpy_config) == repr(SYNTHESIZED)
    for call, python, numpy in calls:
        assert repr(call(*python)) == repr(call(*numpy)), call.__name__


def test_bound_commands_load_no_simulator(tmp_path):
    # The simulators, and hashlib that the flow code needs, load only on the
    # simulate paths; a fresh process shows what the bound commands import.
    out = str(tmp_path)
    script = (
        "import sys\n"
        "from delayexp.cli import main\n"
        "assert main(['exponent', '--bound', 'sp', '--bec', '0.4', '--rate-bits', '0.5']) == 0\n"
        f"assert main(['figure', '--bec', '0.4', '--points', '4', '--outdir', {out!r}]) == 0\n"
        "print(sorted(m for m in ('delayexp.sim_anytime', 'delayexp.sim_queue', 'hashlib')\n"
        "             if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "0.1.0"
