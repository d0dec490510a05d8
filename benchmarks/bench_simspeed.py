"""Simulator throughput: selection tables, candidate cache, parallelism.

Not a paper figure: this quantifies the optimisation layers on a quick
Fig. 12 grid, one phase per layer --

* **reference-serial**: the rebuild-every-candidate-every-peek
  scheduler path (the original algorithm, kept as the equivalence
  oracle), one process;
* **incremental-serial**: the per-bank candidate cache with
  floor-indexed selection tables, still one process -- isolates the
  scheduler win from parallelism;
* **parallel**: process-level fan-out with ``REPRO_BENCH_JOBS`` worker
  processes (at least 4 for this bench).

Every phase starts from a cold alone-IPC cache and must produce the
exact same speedup table *and* per-cell behaviour digests; wall times
and the scheduler's effort counters (peeks, candidates built,
candidates examined) are printed and recorded to
``BENCH_simspeed.json`` so the perf trajectory is tracked across PRs.

Runs two ways: under pytest-benchmark (the full three phases), or
standalone for the CI perf smoke --

::

    python benchmarks/bench_simspeed.py --quick

which runs the two serial phases on a smaller grid and asserts the
digest equality plus the peeks-per-command / candidates-per-command
ceilings.
"""

import hashlib
import json
import os
import sys
import time
from pathlib import Path

try:
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - standalone invocation
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                           / "src"))

import repro.controller.scheduler as scheduler_mod
from repro.sim.experiments import (
    ExperimentContext,
    ExperimentSettings,
    fig12,
)

#: Effort ceilings asserted by the CI perf smoke.  Generous versus the
#: observed ~1.4 peeks and ~1.4 built candidates per command -- they
#: catch an accidental return to per-peek rebuilding (reference path
#: builds tens of candidates per command), not normal jitter.
MAX_PEEKS_PER_COMMAND = 2.5
MAX_CANDIDATES_BUILT_PER_COMMAND = 4.0


def _accesses(default: int = 800) -> int:
    # A lighter default than the figure benches: this grid runs thrice.
    return int(os.environ.get("REPRO_BENCH_ACCESSES", str(default)))


def _bench_mixes():
    from conftest import bench_mixes
    return bench_mixes()


def _run_grid_phase(jobs: int, incremental: bool, cache_dir: str,
                    accesses: int, mixes):
    """One timed fig12 grid run under one scheduler path."""
    old_mode = scheduler_mod.INCREMENTAL_DEFAULT
    old_cache = os.environ.get("REPRO_CACHE_DIR")
    scheduler_mod.INCREMENTAL_DEFAULT = incremental
    os.environ["REPRO_CACHE_DIR"] = cache_dir
    try:
        context = ExperimentContext(ExperimentSettings(
            accesses_per_core=accesses, mixes=mixes),
            jobs=jobs)
        start = time.perf_counter()
        table = fig12(context)
        elapsed = time.perf_counter() - start
        counters = {"commands": 0, "peeks": 0, "candidates_built": 0,
                    "candidates_examined": 0, "transactions": 0}
        digests = {}
        for cell, result in context._cell_cache.items():
            if cell.kind != "mix":
                continue
            counters["commands"] += result.stats.commands_issued
            counters["peeks"] += result.stats.peeks
            counters["candidates_built"] += result.stats.candidates_built
            counters["candidates_examined"] += \
                result.stats.candidates_examined
            counters["transactions"] += result.transactions
            digests[f"{cell.config.name}|{cell.workload}"] = result.digest()
        # Result-store discipline: each phase ran against a cold cache
        # directory, so the store must have missed once and put once
        # per grid cell, and served nothing.
        sc = context.store.counters
        counters["store_hits"] = sc.hits
        counters["store_misses"] = sc.misses
        counters["store_puts"] = sc.puts
        counters["store_cells"] = len(context._cell_cache)
        return elapsed, table, counters, digests
    finally:
        scheduler_mod.INCREMENTAL_DEFAULT = old_mode
        if old_cache is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old_cache


def _grid_digest(digests: dict) -> str:
    """One hash standing for every cell's behaviour digest."""
    blob = "\n".join(f"{k}:{v}" for k, v in sorted(digests.items()))
    return hashlib.sha256(blob.encode()).hexdigest()


def _phase_record(name: str, jobs: int, incremental: bool,
                  elapsed: float, counters: dict, digests: dict,
                  round_walls) -> dict:
    commands = max(1, counters["commands"])
    peeks = max(1, counters["peeks"])
    return {
        "name": name,
        "jobs": jobs,
        "incremental": incremental,
        "wall_s": round(elapsed, 4),
        "round_walls": [round(w, 4) for w in round_walls],
        **counters,
        "peeks_per_command": round(counters["peeks"] / commands, 4),
        "candidates_built_per_command": round(
            counters["candidates_built"] / commands, 4),
        "candidates_examined_per_peek": round(
            counters["candidates_examined"] / peeks, 4),
        "digest": _grid_digest(digests),
    }


def run_phases(accesses: int, mixes, jobs: int, cache_root: str,
               parallel_phase: bool = True, rounds: int = 2):
    """The bench proper: (phase records, speedup tables) for checks.

    Timing rounds are *interleaved* across the phases (reference,
    incremental, reference, incremental, ...) and each phase keeps its
    best round for ``wall_s`` plus every round's wall in
    ``round_walls``.  Back-to-back phases within a round see the same
    machine load, so the speedup ratios are computed *paired per
    round* (:func:`paired_speedup`): a slow patch of a shared box
    degrades both sides of a ratio instead of just whichever phase's
    best round happened to land in it.  Results, counters and digests
    are deterministic across rounds, so any round's table stands for
    all of them.
    """
    specs = [("reference-serial", 1, False),
             ("incremental-serial", 1, True)]
    if parallel_phase:
        specs.append((f"parallel-x{jobs}", jobs, True))
    best = [None] * len(specs)
    walls = [[] for _ in specs]
    for rnd in range(rounds):
        for i, (name, n_jobs, incremental) in enumerate(specs):
            cache_dir = str(Path(cache_root)
                            / f"{name.replace('-', '_')}_{rnd}")
            elapsed, table, counters, digests = _run_grid_phase(
                n_jobs, incremental, cache_dir, accesses, mixes)
            walls[i].append(elapsed)
            if best[i] is None or elapsed < best[i][0]:
                best[i] = (elapsed, table, counters, digests)
    records, tables = [], []
    for i, ((name, n_jobs, incremental),
            (elapsed, table, counters, digests)) in \
            enumerate(zip(specs, best)):
        records.append(_phase_record(name, n_jobs, incremental,
                                     elapsed, counters, digests,
                                     walls[i]))
        tables.append(table)
    return records, tables


def _phase(records, name):
    return next(r for r in records if r["name"] == name)


def paired_speedup(records, slow: str, fast: str) -> float:
    """Median over timing rounds of the paired per-round wall ratio.

    Within one round the phases run back to back (seconds apart), so a
    shared box's slow patches -- which drift on the scale of minutes --
    hit both sides of the ratio equally and cancel.  A ratio of
    best-of-N walls has no such guarantee: the two minima may come
    from different rounds, crediting one phase with a fast patch the
    other never saw.
    """
    num = _phase(records, slow)["round_walls"]
    den = _phase(records, fast)["round_walls"]
    ratios = sorted(n / max(1e-9, d) for n, d in zip(num, den))
    mid = len(ratios) // 2
    if len(ratios) % 2:
        return ratios[mid]
    return (ratios[mid - 1] + ratios[mid]) / 2


def check_phases(records, tables) -> None:
    """The acceptance assertions every mode of this bench enforces."""
    ref, inc = records[0], records[1]
    # Identical science: not one value, not one digest may move: the
    # incremental and parallel phases must match the reference
    # scheduler's digests exactly.
    for record in records[1:]:
        assert record["digest"] == ref["digest"], (
            f"{record['name']} digests diverged from reference")
    for table in tables[1:]:
        assert table.values == tables[0].values
    # The incremental path peeks exactly as often but rebuilds far
    # less, and the selection tables examine strictly fewer candidates
    # per peek than the reference scan.
    assert inc["peeks"] == ref["peeks"]
    assert inc["candidates_built"] < ref["candidates_built"] / 2
    assert (inc["candidates_examined_per_peek"]
            < ref["candidates_examined_per_peek"])
    # Effort ceilings: catches a return to per-peek rebuilding.
    assert inc["peeks_per_command"] <= MAX_PEEKS_PER_COMMAND
    assert (inc["candidates_built_per_command"]
            <= MAX_CANDIDATES_BUILT_PER_COMMAND)
    # Store-counter ceilings: every phase runs cold, so the store must
    # behave exactly once-per-cell -- no redundant probing (a miss
    # storm), no double writes, and no phantom hits.
    for record in records:
        assert record["store_hits"] == 0, record["name"]
        assert record["store_puts"] == record["store_cells"], \
            record["name"]
        assert record["store_misses"] <= record["store_cells"], \
            record["name"]


#: The quick grid (--quick: 400 accesses, mix0/mix3) whose reference
#: digest is pinned in ``BENCH_simspeed.json`` as ``quick_digest``.
QUICK_ACCESSES = 400
QUICK_MIXES = ("mix0", "mix3")


def recorded_quick_digest() -> str:
    """The pre-refactor reference digest of the quick grid, from the
    repo-root ``BENCH_simspeed.json`` ('' if absent)."""
    path = Path(__file__).resolve().parent.parent / "BENCH_simspeed.json"
    try:
        with open(path) as fh:
            return json.load(fh).get("quick_digest", "")
    except (OSError, ValueError):
        return ""


def write_json(path: str, accesses: int, mixes, records) -> None:
    payload = {
        "benchmark": "simspeed_fig12_grid",
        "accesses_per_core": accesses,
        "mixes": list(mixes),
        "phases": records,
        "speedup_incremental_serial": round(
            paired_speedup(records, "reference-serial",
                           "incremental-serial"), 3),
    }
    parallel = [r for r in records if r["name"].startswith("parallel-")]
    if parallel:
        payload["speedup_parallel"] = round(
            paired_speedup(records, "reference-serial",
                           parallel[0]["name"]), 3)
    # Carry the pinned quick-grid digest across rewrites (full-mode
    # runs record different grid params but must not drop the pin).
    quick = recorded_quick_digest()
    if (accesses, tuple(mixes)) == (QUICK_ACCESSES, QUICK_MIXES):
        quick = records[0]["digest"]
    if quick:
        payload["quick_digest"] = quick
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _print_phases(records, header: str) -> None:
    print(f"\n== {header}")
    for r in records:
        print(f"{r['name']:22s} {r['wall_s']:7.2f}s   "
              f"peeks/cmd={r['peeks_per_command']:.3f} "
              f"built/cmd={r['candidates_built_per_command']:.3f} "
              f"examined/peek={r['candidates_examined_per_peek']:.3f}")
    ref = records[0]["name"]
    for r in records[1:]:
        print(f"speedup vs reference  "
              f"{paired_speedup(records, ref, r['name']):7.2f}x"
              f"   ({r['name']})")


def test_simspeed_fig12_grid(benchmark, tmp_path):
    from conftest import bench_jobs, print_header
    jobs = max(bench_jobs(), 4)
    accesses, mixes = _accesses(), _bench_mixes()

    records, tables = benchmark.pedantic(
        lambda: run_phases(accesses, mixes, jobs, str(tmp_path)),
        rounds=1, iterations=1)

    print_header("Simulator speed: quick Fig. 12 grid "
                 f"({accesses} accesses, {len(mixes)} mixes)")
    _print_phases(records, "phases")
    out = Path(__file__).resolve().parent.parent / "BENCH_simspeed.json"
    write_json(str(out), accesses, mixes, records)
    print(f"wrote {out}")

    check_phases(records, tables)
    # Conservative wall-clock floor for the scheduler alone (the
    # acceptance bar: >= 1.5x on one core, no parallelism involved).
    speedup = paired_speedup(records, "reference-serial",
                             "incremental-serial")
    assert speedup >= 1.5


def main(argv=None) -> int:
    """Standalone / CI perf-smoke mode (no pytest-benchmark needed)."""
    import argparse
    import tempfile
    parser = argparse.ArgumentParser(
        description="simulator speed bench (see module docstring)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller grid, serial phases only, one "
                             "round (the CI perf smoke)")
    parser.add_argument("--jobs", type=int,
                        default=int(os.environ.get("REPRO_BENCH_JOBS",
                                                   "4")))
    parser.add_argument("--json", metavar="FILE", default=None,
                        help="write the phase records to FILE "
                             "(default: BENCH_simspeed.json in the "
                             "repo root; 'none' to skip)")
    args = parser.parse_args(argv)

    if args.quick:
        accesses = _accesses(QUICK_ACCESSES)
        mixes = QUICK_MIXES
        parallel, rounds = False, 1
    else:
        accesses = _accesses()
        mixes = tuple(os.environ.get("REPRO_BENCH_MIXES",
                                     "mix0,mix3,mix6").split(","))
        parallel, rounds = True, 3

    with tempfile.TemporaryDirectory() as cache_root:
        records, tables = run_phases(accesses, mixes,
                                     max(args.jobs, 2), cache_root,
                                     parallel_phase=parallel,
                                     rounds=rounds)
    _print_phases(records, f"simspeed ({accesses} accesses, "
                           f"mixes={','.join(mixes)})")
    if args.json != "none":
        out = args.json or str(Path(__file__).resolve().parent.parent
                               / "BENCH_simspeed.json")
        write_json(out, accesses, mixes, records)
        print(f"wrote {out}")
    check_phases(records, tables)
    if args.quick and (accesses, tuple(mixes)) == (QUICK_ACCESSES,
                                                   QUICK_MIXES):
        # The scheduler's behaviour is pinned: the quick grid's
        # reference digest must match the value recorded before the
        # memory-technology backend refactor.
        expected = recorded_quick_digest()
        got = records[0]["digest"]
        assert not expected or got == expected, (
            f"quick-grid digest {got} != recorded quick_digest "
            f"{expected} (BENCH_simspeed.json): the dram backend's "
            f"behaviour moved")
        print(f"quick digest pinned: {got[:16]}... ok")
    if not args.quick:
        speedup = paired_speedup(records, "reference-serial",
                                 "incremental-serial")
        assert speedup >= 1.5, f"serial speedup {speedup:.2f}x < 1.5x"
    print("all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
