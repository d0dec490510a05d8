#!/usr/bin/env python3
"""Profile the simulator over any preset x workload cell.

Standalone wrapper around :mod:`repro.sim.profiling` -- the same
harness ``repro profile`` uses -- with two extra modes:

* ``--compare`` profiles the reference and the table-based incremental
  scheduler paths back to back on the identical cell, checks the two
  digests match, and prints both effort summaries so a regression in
  either speed or behaviour is visible from one command.
* ``--opcodes`` counts Python calls and executed bytecodes per DRAM
  command, per function and in total, under ``sys.settrace``.  Unlike
  wall time these counts do not move between runs of the same code,
  so one run before and one after a change measure its per-command
  interpreter work.  ``--spec NAME --cell I`` (repeatable) counts
  cells of a named figure grid instead of one ``--config``/``--mix``.

::

    python tools/profile_sim.py --config vsb --mix mix0
    python tools/profile_sim.py --config masa8-eruca --compare
    python tools/profile_sim.py --config ddr4 --output ddr4.pstats
    python tools/profile_sim.py --opcodes --spec fig13 --accesses 160 \
        --mixes mix0,mix3,mix6 --seed 5 --cell 0 --cell 12
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - direct invocation
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import CONFIG_FACTORIES
from repro.cpu.core import CoreConfig
from repro.sim.parallel import SimJob
from repro.sim.profiling import count_opcodes, profile_run
from repro.sim.runner import cell_job
from repro.sim.specs import NAMED_SPECS, ExperimentSettings, resolve_spec
from repro.workloads.mixes import MIX_NAMES


def _opcode_jobs(args) -> list:
    """The cells ``--opcodes`` counts, as grid jobs."""
    if args.spec is None:
        return [SimJob(config=CONFIG_FACTORIES[args.config](),
                       accesses=args.accesses,
                       fragmentation=args.fragmentation, seed=args.seed,
                       core_config=CoreConfig(), mix=args.mix)]
    mixes = tuple(args.mixes.split(",")) if args.mixes else MIX_NAMES
    settings = ExperimentSettings(accesses_per_core=args.accesses,
                                  fragmentation=args.fragmentation,
                                  seed=args.seed, mixes=mixes)
    spec = resolve_spec(args.spec, settings)
    cells = spec.expand()
    return [cell_job(cells[i], spec.observe) for i in args.cell or [0]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--config", default="vsb",
                        choices=sorted(CONFIG_FACTORIES))
    parser.add_argument("--mix", default="mix0", choices=MIX_NAMES)
    parser.add_argument("--accesses", type=int, default=1500)
    parser.add_argument("--fragmentation", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sort", default="cumulative",
                        help="pstats sort key (default cumulative)")
    parser.add_argument("--limit", type=int, default=25,
                        help="pstats rows to print (default 25)")
    parser.add_argument("--output", metavar="FILE",
                        help="dump binary pstats to FILE (in --compare "
                             "mode the incremental run is dumped)")
    parser.add_argument("--reference", action="store_true",
                        help="profile the reference scheduler path")
    parser.add_argument("--compare", action="store_true",
                        help="profile both paths and assert digests "
                             "match")
    parser.add_argument("--opcodes", action="store_true",
                        help="count Python calls and bytecodes per DRAM "
                             "command instead of profiling")
    parser.add_argument("--spec", choices=sorted(NAMED_SPECS),
                        help="with --opcodes: count cells of this named "
                             "figure grid")
    parser.add_argument("--mixes", metavar="A,B",
                        help="with --spec: the grid's mixes (default "
                             "all)")
    parser.add_argument("--cell", type=int, action="append",
                        metavar="I",
                        help="with --spec: grid cell index to count "
                             "(repeatable; default 0)")
    args = parser.parse_args(argv)

    if args.opcodes:
        report = count_opcodes(_opcode_jobs(args))
        print(report.format_table(limit=args.limit), end="")
        return 0

    config = CONFIG_FACTORIES[args.config]()
    cell = dict(mix=args.mix, accesses=args.accesses,
                fragmentation=args.fragmentation, seed=args.seed)

    if args.compare:
        reference = profile_run(config, incremental=False, **cell)
        incremental = profile_run(config, incremental=True, **cell)
        for title, report in (("reference", reference),
                              ("incremental", incremental)):
            print(f"== {title} path " + "=" * 50)
            print(report.format_table(limit=args.limit, sort=args.sort))
        if reference.digest != incremental.digest:
            print("DIGEST MISMATCH between scheduler paths",
                  file=sys.stderr)
            return 1
        speedup = (reference.wall_time_s
                   / max(1e-9, incremental.wall_time_s))
        print(f"digests match; incremental examined "
              f"{incremental.candidates_examined} candidates vs "
              f"{reference.candidates_examined} reference "
              f"({speedup:.2f}x wall under profiler)")
        if args.output:
            incremental.dump(args.output)
            print(f"wrote {args.output}")
        return 0

    report = profile_run(
        config, incremental=False if args.reference else None, **cell)
    print(report.format_table(limit=args.limit, sort=args.sort), end="")
    if args.output:
        report.dump(args.output)
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
