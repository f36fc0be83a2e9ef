"""Command-line surface: bound evaluation, curve sweeps, simulations.

Three subcommands:

* ``exponent``: evaluate one bound at one rate (or the achieved curve at
  one parameter value) and print the value with its achieving parameter.
* ``figure``: sweep sphere-packing, focusing, and achieved bounds over a
  rate grid; write a CSV, a gnuplot script, a run record, and a run
  manifest; report the crossover rate where the achieved curve passes
  sphere packing.
* ``simulate``: run one of the closed-loop schemes and write its
  delay/error table with a fitted decay slope; the two block schemes also
  write a run record of their failure counters.

Exit codes: 0 success, 2 malformed input, 3 domain violation or a request
too large for memory, 4 when the printed result carries a numerical flag.
Rates are accepted in bits (``--rate-bits``); ``--unit`` rescales
displayed rates and exponents by exactly ln 2 and leaves dimensionless
fields untouched. All file outputs are deterministic functions of the full
flag set, and the manifest is always the last file written.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shlex
import sys
from pathlib import Path

from . import __version__
from .channel import Channel, capacity_detail, is_symmetric, load_channel, make_bec, make_bsc
from .curves import convert, crossover_rate, emit_csv, emit_plot_script, sweep
from .errors import BadInputError, DomainError
from .exponents import (
    BOUNDS_AT_RATE,
    FLAG_FLAT_CURVATURE,
    achieved_exponent,
    bec_feedback_exponent,
    bound_at_rate,
    capacity_slopes,
    haroutunian_oracle,
)
from .sim_anytime import SchemeConfig, fortified_run, synthesized_run
from .sim_queue import (
    AllZeroErrorsError,
    TooFewPointsError,
    fit_exponent,
    simulate_bec_feedback,
)

LN2 = math.log(2.0)

FIGURE_BOUNDS = ("sp", "focusing", "achieved")
FIGURE_RATE_LO = 0.01   # fraction of capacity
FIGURE_RATE_HI = 0.999

# Size caps, far above the largest runs in use (512 points, 10**7 uses) and
# checked before anything is allocated, so that a refusal does not depend on
# how the host answers a huge allocation.
POINTS_MAX = 10 ** 6
HORIZON_MAX = 10 ** 8

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_FLAGGED = 4

RECORD_NAME = "run_record.json"
SCHEME_COUNTERS = ("blocks_confirmed", "punctuation_chunk_errors", "data_block_errors",
                   "spurious_confirms", "wrong_bit_weight", "missed_bit_weight")


def _write_manifest(outdir: Path, command_line: str, seeds, artifact_paths) -> Path:
    """Write ``manifest.json`` after every file it lists; it lists itself last."""
    path = outdir / "manifest.json"
    manifest = {"command_line": command_line,
                "seeds": [int(s) for s in seeds],
                "artifacts": [str(p) for p in artifact_paths] + [str(path)],
                "tool_version": __version__}
    path.write_text(_record_json(manifest), encoding="utf-8")
    return path


def _write_artifacts(flag_value: str | None, command_line: str, seeds,
                     files: dict[str, str]) -> list[Path]:
    """Write ``files`` (name to text) in order, then the manifest listing them.

    The output directory is ``--outdir``, else $DELAYEXP_OUTDIR, else the
    current directory. Returns the written paths, the manifest last.
    """
    outdir = Path(flag_value or os.environ.get("DELAYEXP_OUTDIR") or ".")
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        paths = []
        for name, text in files.items():
            path = outdir / name
            path.write_text(text, encoding="utf-8")
            paths.append(path)
        return paths + [_write_manifest(outdir, command_line, seeds, paths)]
    except OSError as exc:
        raise BadInputError(f"cannot write artifacts to {outdir}: {exc}") from exc


def _record_json(record: dict) -> str:
    return json.dumps(record, indent=2) + "\n"


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _build_channel(args) -> Channel:
    if args.bsc is not None:
        return make_bsc(args.bsc)
    if args.bec is not None:
        return make_bec(args.bec)
    return load_channel(args.matrix)


def _add_channel_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--bsc", type=float, metavar="DELTA",
                       help="binary symmetric channel with crossover DELTA")
    group.add_argument("--bec", type=float, metavar="DELTA",
                       help="binary erasure channel with erasure DELTA")
    group.add_argument("--matrix", metavar="FILE",
                       help="JSON file holding {\"matrix\": [[...], ...]}")


def _parse_delays(text: str) -> tuple[int, ...]:
    try:
        delays = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise BadInputError(f"delays must be comma-separated integers, got {text!r}") from exc
    if not delays:
        raise BadInputError("need at least one delay")
    return delays


def _scale(value_nats: float, unit: str) -> float:
    return value_nats / LN2 if unit == "bits" else value_nats


def _rate_nats(args) -> float:
    if args.rate_bits is None:
        raise BadInputError(f"bound {args.bound!r} requires --rate-bits")
    return args.rate_bits * LN2


# -- exponent ----------------------------------------------------------------

# The bound-specific flags of ``exponent``, each with the one bound that reads it.
BOUND_FLAGS = {"rho": "achieved", "list_size": "list", "grid_steps": "haroutunian"}
LIST_SIZE_DEFAULT = 2
GRID_STEPS_DEFAULT = 100


def _check_bound_flags(args) -> None:
    """Refuse the flags the chosen bound would not read, naming them."""
    unread = [f"--{name.replace('_', '-')}" for name, bound in BOUND_FLAGS.items()
              if getattr(args, name) is not None and args.bound != bound]
    if unread:
        raise BadInputError(f"--bound {args.bound} does not read {', '.join(unread)}")
    if args.rho is not None and args.rate_bits is not None:
        raise BadInputError("--bound achieved with --rho does not read --rate-bits")


def cmd_exponent(args) -> int:
    _check_bound_flags(args)
    ch = _build_channel(args)
    unit = args.unit
    if args.bound == "achieved" and args.rho is not None:
        point = achieved_exponent(ch, args.rho)
        print(f"rate {_scale(point.rate, unit):.9f} {unit}")
        print(f"exponent {_scale(point.exponent, unit):.9f} {unit}")
        print(f"param {point.rho:.9f}")
        return EXIT_OK
    if args.bound == "haroutunian":
        grid_steps = GRID_STEPS_DEFAULT if args.grid_steps is None else args.grid_steps
        result = haroutunian_oracle(ch, _rate_nats(args), grid_steps=grid_steps)
    else:
        list_size = LIST_SIZE_DEFAULT if args.list_size is None else args.list_size
        result = bound_at_rate(ch, args.bound, _rate_nats(args), list_size)
    print(f"exponent {_scale(result.value, unit):.9f} {unit}")
    if result.param is not None:
        print(f"param {result.param:.9f}")
    if result.flags:
        print(f"flag {','.join(result.flags)}: result carries a numerical edge condition",
              file=sys.stderr)
        return EXIT_FLAGGED
    return EXIT_OK


# -- figure ------------------------------------------------------------------

def cmd_figure(args, command_line: str) -> int:
    ch = _build_channel(args)
    solved = capacity_detail(ch)
    cap = solved.value
    table = sweep(ch, FIGURE_RATE_LO * cap, FIGURE_RATE_HI * cap, args.points,
                  FIGURE_BOUNDS)
    table = convert(table, args.unit)
    crossing = crossover_rate(table)
    # The slopes at capacity are defined for symmetric channels only.
    slopes = capacity_slopes(ch) if is_symmetric(ch) else None
    record = {
        "capacity": table.capacity,
        "capacity_iterations": solved.iterations,
        "capacity_converged": solved.converged,
        "crossover_fraction": None if crossing is None else crossing / table.capacity,
        "capacity_slopes": None if slopes is None else {
            "focusing": _finite_or_none(slopes.focusing_slope),
            "achieved": _finite_or_none(slopes.achieved_slope),
            "flags": list(slopes.flags)},
    }
    csv_path, gp_path, _, manifest_path = _write_artifacts(
        args.outdir, command_line, (),
        {"curves.csv": emit_csv(table),
         "curves.gp": emit_plot_script(table, "curves.csv"),
         RECORD_NAME: _record_json(record)})

    print(f"wrote {csv_path}")
    print(f"wrote {gp_path}")
    if crossing is None:
        print("crossover_rate none")
    else:
        print(f"crossover_rate {crossing:.9f} {args.unit}")
    if slopes is not None and FLAG_FLAT_CURVATURE in slopes.flags:
        print("flag flat_curvature: curve slopes at capacity diverge")
    print(f"wrote {manifest_path}")
    return EXIT_OK


# -- simulate ----------------------------------------------------------------

def _print_fit(table) -> None:
    try:
        fit = fit_exponent(table)
    except (AllZeroErrorsError, TooFewPointsError) as exc:
        print(f"fit unavailable: {exc}")
        return
    print(f"slope {fit.slope:.9f} nats_per_use")
    print(f"r_squared {fit.r_squared:.6f}")


def cmd_simulate_bec_queue(args, command_line: str) -> int:
    table = simulate_bec_feedback(args.delta, args.horizon,
                                  _parse_delays(args.delays), args.seed)
    csv_path, manifest_path = _write_artifacts(args.outdir, command_line, (args.seed,),
                                               {"table.csv": table.to_csv()})
    print(f"wrote {csv_path}")
    _print_fit(table)
    print(f"reference {bec_feedback_exponent(args.delta):.9f} nats_per_use")
    print(f"wrote {manifest_path}")
    return EXIT_OK


def cmd_simulate_scheme(args, command_line: str) -> int:
    if args.config is None:
        raise BadInputError(f"scheme {args.scheme!r} requires --config")
    cfg = SchemeConfig.from_json(args.config)
    ch = _build_channel(args)
    delays = _parse_delays(args.delays)
    if args.scheme == "fortified":
        table = fortified_run(cfg, ch, args.horizon, delays, args.seed)
    else:
        table = synthesized_run(cfg, ch, args.horizon, delays, args.seed)
    record = {name: getattr(table, name) for name in SCHEME_COUNTERS}
    csv_path, _, manifest_path = _write_artifacts(
        args.outdir, command_line, (cfg.seed, args.seed),
        {"table.csv": table.to_csv(), RECORD_NAME: _record_json(record)})
    print(f"wrote {csv_path}")
    _print_fit(table)
    print(f"blocks_confirmed {table.blocks_confirmed}")
    print(f"wrote {manifest_path}")
    return EXIT_OK


# -- wiring ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delayexp",
        description="Fixed-delay reliability bounds and feedback scheme simulators.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("exponent", help="evaluate one bound at one rate")
    _add_channel_flags(p_exp)
    p_exp.add_argument("--bound", required=True, choices=(*BOUNDS_AT_RATE, "haroutunian"))
    p_exp.add_argument("--rate-bits", type=float,
                       help="rate in bits per channel use")
    p_exp.add_argument("--rho", type=float,
                       help="curve parameter for --bound achieved")
    p_exp.add_argument("--list-size", type=int,
                       help=f"list size for --bound list (default {LIST_SIZE_DEFAULT})")
    p_exp.add_argument("--grid-steps", type=int,
                       help=f"grid refinement for --bound haroutunian "
                            f"(default {GRID_STEPS_DEFAULT})")
    p_exp.add_argument("--unit", choices=("nats", "bits"), default="nats")

    p_fig = sub.add_parser("figure", help="sweep the three bounds over a rate grid")
    _add_channel_flags(p_fig)
    p_fig.add_argument("--points", type=int, default=128)
    p_fig.add_argument("--unit", choices=("nats", "bits"), default="nats")
    p_fig.add_argument("--outdir", help="output directory (default $DELAYEXP_OUTDIR or .)")

    p_sim = sub.add_parser("simulate", help="run a closed-loop scheme")
    sim_sub = p_sim.add_subparsers(dest="scheme", required=True)

    p_queue = sim_sub.add_parser("bec-queue",
                                 help="repeat-until-correct scheme on an erasure channel")
    p_queue.add_argument("--delta", type=float, required=True)
    p_queue.add_argument("--horizon", type=int, required=True)
    p_queue.add_argument("--delays", required=True,
                         help="comma-separated delays in channel uses")
    p_queue.add_argument("--seed", type=int, default=0)
    p_queue.add_argument("--outdir", help="output directory (default $DELAYEXP_OUTDIR or .)")

    for scheme in ("fortified", "synthesized"):
        p_s = sim_sub.add_parser(scheme, help=f"{scheme} block scheme")
        _add_channel_flags(p_s)
        p_s.add_argument("--config", help="scheme config JSON file")
        p_s.add_argument("--horizon", type=int, required=True)
        p_s.add_argument("--delays", required=True,
                         help="comma-separated delays in channel uses")
        p_s.add_argument("--seed", type=int, default=0)
        p_s.add_argument("--outdir", help="output directory (default $DELAYEXP_OUTDIR or .)")

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    command_line = shlex.join(["delayexp", *argv])
    try:
        if args.command == "simulate" and args.seed < 0:
            raise BadInputError(f"--seed must be >= 0, got {args.seed}")
        if args.command == "simulate" and args.horizon > HORIZON_MAX:
            raise DomainError(f"--horizon {args.horizon} exceeds the cap of {HORIZON_MAX}")
        if args.command == "figure" and args.points > POINTS_MAX:
            raise DomainError(f"--points {args.points} exceeds the cap of {POINTS_MAX}")
        if args.command == "exponent":
            return cmd_exponent(args)
        if args.command == "figure":
            return cmd_figure(args, command_line)
        if args.scheme == "bec-queue":
            return cmd_simulate_bec_queue(args, command_line)
        return cmd_simulate_scheme(args, command_line)
    except BadInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:
        # Every command computes before it writes, so no files are left behind.
        print(f"error: out of memory: {exc or 'allocation refused'}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
