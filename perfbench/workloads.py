"""The benchmark's workloads: lists of ``delayexp`` CLI commands.

Each workload is a fixed list of commands that one client runs one after
another (a closed loop). The workload seed feeds the simulations' ``--seed``
flag and their config ``seed``; the bound-computing commands take no seed.
``scale`` below 1 shrinks grids and horizons for the self-tests; outputs at a
scale other than 1 are not compared with the stored references.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

DEFAULT_SEED = 0

# Why each workload exists; BENCHMARK.json carries the same reasons.
WHY = {
    "bounds-sym": "symmetric bounds: uniform e0_max shortcut, curves sweep and the "
                  "capacity_batch oracle; bypasses every simulator and the asymmetric ascent",
    "asym-z": "Z channel: pairwise e0_max ascent in the focusing surrogate and i.i.d.-letter "
              "codebooks; keeps the failing asymmetric figure in view",
    "schemes-sym": "fortified, synthesized and queue simulators: block service, the flow "
                   "decoder and O(horizon) memory; bypasses the bound code",
}

Z_CHANNEL = {"matrix": [[1.0, 0.0], [0.3, 0.7]]}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what its outputs must satisfy.

    ``kind`` is the class the end-to-end class metrics sum over. ``uses`` is
    the simulated horizon of a ``simulate`` command. ``inputs`` are files
    written into the command's working directory before it runs.
    ``manifest_seeds`` is None for commands that write no artifacts; the
    simulations, whose outputs depend on the workload seed, list it there.
    ``known_failure`` is the exit code of a command that fails at the seed
    commit; such a command is checked only for its exit code and manifest.
    ``slope`` is (target, relative tolerance) for the fitted decay slope.
    """

    id: str
    argv: tuple[str, ...]
    kind: str
    uses: int = 0
    inputs: dict = field(default_factory=dict)
    ok_exits: tuple[int, ...] = (0,)
    manifest_seeds: tuple[int, ...] | None = None
    known_failure: int | None = None
    slope: tuple[float, float] | None = None
    delays: tuple[int, ...] = ()

    @property
    def seeded(self) -> bool:
        return bool(self.manifest_seeds)


LN_1_5 = math.log(1.5)
# Slope tolerances relative to ln 1.5 on BEC(0.4): criterion 6 for the queue,
# criterion 7 for fortified. At 200,000 uses the fortified slope spreads by
# about 15% between seeds (16 seeds: -23% to +42%), so 20% holds only at the
# default seed, where the table is also byte-checked; other seeds get a bound
# that still catches errors that stop decaying.
QUEUE_SLOPE_TOL = 0.15
FORTIFIED_SLOPE_TOL = 0.20
FORTIFIED_SLOPE_TOL_ANY_SEED = 0.60


def _bsc_capacity_bits(delta: float) -> float:
    return 1.0 + delta * math.log2(delta) + (1.0 - delta) * math.log2(1.0 - delta)


def _scaled(value: int, scale: float, floor: int) -> int:
    return max(floor, int(round(value * scale)))


def _config(payload: dict) -> dict:
    return {"cfg.json": json.dumps(payload, sort_keys=True) + "\n"}


def bounds_sym(seed: int, scale: float) -> list[Command]:
    del seed  # the bound computations take no randomness
    points = str(_scaled(512, scale, 8))
    cmds = [Command(f"figure-{label}", ("figure", flag, val, "--points", points, "--outdir", "."),
                    "figure", manifest_seeds=())
            for label, flag, val in (("bsc0.1", "--bsc", "0.1"), ("bsc0.4", "--bsc", "0.4"),
                                     ("bec0.4", "--bec", "0.4"))]
    for bound in ("sp", "rc", "list", "focusing", "achieved"):
        cmds.append(Command(f"exponent-{bound}-bec0.4",
                            ("exponent", "--bound", bound, "--bec", "0.4", "--rate-bits", "0.5"),
                            "exponent"))
    # Criterion 5: the oracle at 0.3 C must agree with sphere packing there.
    rate = repr(0.3 * _bsc_capacity_bits(0.1))
    grid = str(_scaled(100, scale, 10))
    cmds.append(Command("exponent-sp-bsc0.1", ("exponent", "--bound", "sp", "--bsc", "0.1",
                                               "--rate-bits", rate), "exponent"))
    cmds.append(Command("oracle-bsc0.1", ("exponent", "--bound", "haroutunian", "--bsc", "0.1",
                                          "--rate-bits", rate, "--grid-steps", grid), "oracle"))
    return cmds


def asym_z(seed: int, scale: float) -> list[Command]:
    z = {"z.json": json.dumps(Z_CHANNEL) + "\n"}
    cmds = [
        # The surrogate focusing bound always carries its flag, so exit 4.
        Command("focusing-z", ("exponent", "--bound", "focusing", "--matrix", "z.json",
                               "--rate-bits", "0.3"), "focusing", inputs=z, ok_exits=(4,)),
    ]
    for bound in ("sp", "rc", "achieved"):
        cmds.append(Command(f"exponent-{bound}-z", ("exponent", "--bound", bound, "--matrix",
                                                    "z.json", "--rate-bits", "0.3"),
                            "exponent", inputs=z))
    # Exits 3 at the seed commit: capacity_slopes rejects asymmetric channels
    # after curves.csv and curves.gp are written, so no manifest follows.
    cmds.append(Command("figure-z", ("figure", "--matrix", "z.json", "--points", "2",
                                     "--outdir", "."), "figure", inputs=z,
                        manifest_seeds=(), known_failure=3))
    horizon = _scaled(100_000, scale, 2_000)
    cfg = {"n": 1, "c": 2, "l": 0, "rate_bits": 0.5, "seed": seed}
    cmds.append(Command("fortified-z", ("simulate", "fortified", "--matrix", "z.json",
                                        "--config", "cfg.json", "--horizon", str(horizon),
                                        "--delays", "1,2,3,4", "--seed", str(seed),
                                        "--outdir", "."),
                        "fortified", uses=horizon, inputs={**z, **_config(cfg)},
                        manifest_seeds=(seed, seed), delays=(1, 2, 3, 4)))
    return cmds


def schemes_sym(seed: int, scale: float) -> list[Command]:
    cmds = []
    h_fort = _scaled(200_000, scale, 2_000)
    fort_delays = (6, 10, 14, 18)
    cmds.append(Command(
        "fortified-bec0.4",
        ("simulate", "fortified", "--bec", "0.4", "--config", "cfg.json", "--horizon",
         str(h_fort), "--delays", "6,10,14,18", "--seed", str(seed), "--outdir", "."),
        "fortified", uses=h_fort,
        inputs=_config({"n": 1, "c": 2, "l": 0, "rate_bits": 0.5, "seed": seed}),
        manifest_seeds=(seed, seed), delays=fort_delays,
        slope=None if scale != 1.0 else (LN_1_5, FORTIFIED_SLOPE_TOL if seed == DEFAULT_SEED
                                         else FORTIFIED_SLOPE_TOL_ANY_SEED)))
    cmds.append(Command(
        "fortified-bsc0.05",
        ("simulate", "fortified", "--bsc", "0.05", "--config", "cfg.json", "--horizon",
         str(h_fort), "--delays", "6,10,14,18", "--seed", str(seed), "--outdir", "."),
        "fortified", uses=h_fort,
        inputs=_config({"n": 2, "c": 7, "l": 1, "rate_bits": 3 / 14, "seed": seed}),
        manifest_seeds=(seed, seed), delays=fort_delays))
    h_syn = _scaled(60_000, scale, 2_400)
    cmds.append(Command(
        "synthesized-bsc0.05",
        ("simulate", "synthesized", "--bsc", "0.05", "--config", "cfg.json", "--horizon",
         str(h_syn), "--delays", "24,48,72,96", "--seed", str(seed), "--outdir", "."),
        "synthesized", uses=h_syn,
        inputs=_config({"n": 2, "c": 24, "l": 1, "theta": 12, "rate_bits": 1 / 6,
                        "redecode_window": 4, "seed": seed}),
        manifest_seeds=(seed, seed), delays=(24, 48, 72, 96)))
    h_queue = _scaled(10_000_000, scale, 10_000)
    queue_delays = (2, 6, 10, 14, 18, 22, 26)
    cmds.append(Command(
        "queue-bec0.4",
        ("simulate", "bec-queue", "--delta", "0.4", "--horizon", str(h_queue), "--delays",
         ",".join(map(str, queue_delays)), "--seed", str(seed), "--outdir", "."),
        "queue", uses=h_queue, manifest_seeds=(seed,), delays=queue_delays,
        slope=(LN_1_5, QUEUE_SLOPE_TOL) if scale == 1.0 else None))
    return cmds


WORKLOADS = {"bounds-sym": bounds_sym, "asym-z": asym_z, "schemes-sym": schemes_sym}


def commands(workload: str, seed: int, scale: float = 1.0) -> list[Command]:
    """The command list of ``workload`` at ``seed`` and ``scale``."""
    return WORKLOADS[workload](seed, scale)
