"""One measured step of the benchmark, in a fresh interpreter.

``run.py`` starts this script once per timed iteration, so every cold
grid pays what a CLI run pays: imports, trace generation, an empty
result store and, for ``--jobs 2``, a new worker pool.  The step is
described by one JSON argument; the result is printed as one JSON line.

Modes:

* ``cold``: run one figure grid against an empty store
  (``run_figure`` through a fresh ``ExperimentContext``, the way
  ``repro figN`` runs it), optionally traced.
* ``fill``: fill a store with every figure of a warm workload.
* ``warm``: run groups of warm passes over a filled store as
  ``run.py`` asks for them (``run_spec`` plus the figure reducer, the
  way ``repro run <name>`` runs it), alternating traced and untraced
  passes when tracing.
* ``crosscheck``: recompute fig12 and figref at
  ``repro.sim.pinning.pinned_settings()`` and compare them with the
  repository's pinned figure digests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from repro.sim.experiments import (  # noqa: E402
    FIGURE_REDUCERS,
    ExperimentContext,
    ExperimentSettings,
    run_figure,
)
from repro.sim.pinning import payload_digest  # noqa: E402
from repro.sim.runner import run_spec  # noqa: E402
from repro.sim.specs import NAMED_SPECS  # noqa: E402
from repro.sim.store import ResultStore  # noqa: E402

import layers  # noqa: E402
from workloads import SCALES, WORKLOADS  # noqa: E402

def figure_payload(name: str, out):
    """JSON-able reduced output of one figure runner.  fig12 takes the
    shape of ``repro.sim.pinning``'s fig12 builder; the other figures
    return points (dataclasses) or a plain mapping."""
    if name == "fig12":
        return {"values": out.values, "normalized": out.normalized(),
                "gmeans": out.gmeans()}
    if isinstance(out, dict):
        return dict(out)
    return [dataclasses.asdict(point) for point in out]


def grid_digest(results) -> str:
    """sha256 over the sorted per-cell ``SimulationResult.digest()``."""
    digests = sorted(result.digest() for result in results)
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def sums(results) -> dict:
    """Exact counters over the simulated (live) results of a grid."""
    out = {"commands": 0, "peeks": 0, "candidates_built": 0,
           "candidates_examined": 0}
    for result in results:
        if result.stats.peeks:
            out["commands"] += result.stats.commands_issued
            out["peeks"] += result.stats.peeks
            out["candidates_built"] += result.stats.candidates_built
            out["candidates_examined"] += \
                result.stats.candidates_examined
    return out


def peak_rss_mb() -> float:
    """Max RSS (MiB) of this process and of every child it waited for
    (pool workers included, once the pool has been shut down)."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


#: CPUs this process may run on, before any pinning.
CPUS = sorted(os.sched_getaffinity(0))


def pin_cpu(index: int) -> None:
    """Run on one CPU, picked round-robin by ``index``.  On a shared VM
    each CPU can slow down on its own; alternating lets a run sample
    every CPU."""
    os.sched_setaffinity(0, {CPUS[index % len(CPUS)]})


def settings_for(job: dict) -> ExperimentSettings:
    accesses, mixes = SCALES[job["scale"]][job["workload"]]
    accesses = job.get("accesses") or accesses
    return ExperimentSettings(accesses_per_core=accesses,
                              seed=job["sim_seed"], mixes=tuple(mixes))


def stop_pool() -> bool:
    """Shut the warm pool down and wait for its workers; True if a
    pool had been started."""
    from repro.sim import parallel
    pool = parallel._warm_pool
    if pool is None:
        return False
    pool.shutdown(wait=True)
    parallel._warm_pool = None
    return True


def traced_part(tracer, workload: str, results) -> dict:
    records = tracer.snapshot()
    return {"layers": layers.layer_metrics(records, tracer.grid,
                                           sums(results)),
            "generate_calls": layers.calls(records,
                                           "workloads.generate"),
            "bypass": layers.check_bypass(workload, records),
            "skipped": tracer.skipped}


# -- modes -------------------------------------------------------------------


def run_cold(job: dict) -> dict:
    spec = WORKLOADS[job["workload"]]
    (figure,) = spec["figures"]
    if spec["jobs"] == 1:
        pin_cpu(job["cpu"])
    context = ExperimentContext(settings_for(job), jobs=spec["jobs"],
                                observe=spec["observe"])
    ready = time.monotonic()
    tracer = layers.Tracer().install() if job["trace"] else None
    start = time.perf_counter()
    out = run_figure(figure, context)
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    cells = context._cell_cache
    results = list(cells.values())
    report = context.last_report
    problems = []
    if report.store_hits or report.memory_hits \
            or report.submitted != report.cells:
        problems.append(f"not cold: {report.summary()}")
    if spec["jobs"] > 1 and not stop_pool():
        problems.append("the grid never reached the worker pool")
    row = {
        "setup_s": ready - job["launched"],
        "wall_s": wall,
        "commands": sum(r.stats.commands_issued for r in results),
        "store_misses": report.submitted,
        "grid_digest": grid_digest(results),
        "figure_digest": payload_digest(
            {figure: figure_payload(figure, out)}),
        "problems": problems,
        "peak_rss_mb": peak_rss_mb(),
    }
    row["cells"] = len(cells)
    row["cell_s"] = {cell.store_key(): r.wall_time_s
                     for cell, r in cells.items()}
    if tracer is not None:
        row.update(traced_part(tracer, job["workload"], results))
    return row


def warm_figures(job: dict):
    settings = settings_for(job)
    return [(name, NAMED_SPECS[name](settings))
            for name in WORKLOADS[job["workload"]]["figures"]]


def run_fill(job: dict) -> dict:
    figures = warm_figures(job)
    store = ResultStore()
    cells, payloads = {}, {}
    for name, spec in figures:
        rs, _ = run_spec(spec, jobs=WORKLOADS[job["workload"]]["fill_jobs"],
                         store=store)
        cells.update(rs.results)
        payloads[name] = figure_payload(
            name, FIGURE_REDUCERS[name](rs, spec.mixes))
    stop_pool()
    return {"grid_digest": grid_digest(cells.values()),
            "figure_digest": payload_digest(payloads),
            "cells": len(cells), "peak_rss_mb": peak_rss_mb()}


def warm_pass(job: dict, figures, store, traced: bool) -> dict:
    tracer = layers.Tracer().install() if traced else None
    intervals, sets, outs, problems = [], [], {}, []
    start = time.perf_counter()
    for name, spec in figures:
        last = [time.perf_counter()]

        def progress(cell, status, last=last):
            now = time.perf_counter()
            intervals.append(now - last[0])
            last[0] = now

        rs, report = run_spec(spec, store=store, progress=progress)
        outs[name] = FIGURE_REDUCERS[name](rs, spec.mixes)
        sets.append(rs)
        if report.submitted or report.store_hits != report.cells:
            problems.append(f"{name} not served warm: {report.summary()}")
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
    cells = {}
    for rs in sets:
        cells.update(rs.results)
    results = list(cells.values())
    row = {
        "traced": traced,
        "wall_s": wall,
        # A cell shared by several figures is served once per figure.
        "commands": sum(r.stats.commands_issued for rs in sets
                        for r in rs.results.values()),
        "store_misses": 0,
        "grid_digest": grid_digest(results),
        "figure_digest": payload_digest(
            {name: figure_payload(name, out) for name, out in outs.items()}),
        "problems": problems,
    }
    # Cells are served in the same order on every pass.
    row["cells"] = len(intervals)
    row["cell_s"] = intervals
    if "fig12" in outs:
        row["gmeans"] = outs["fig12"].gmeans()
    if tracer is not None:
        row.update(traced_part(tracer, job["workload"], results))
    return row


def run_warm(job: dict) -> dict:
    """Serve groups of warm passes on request.  After set-up, each line
    on standard input asks for one group (``{"cpu": k, "seconds": s}``):
    passes on CPU ``k`` for about ``s`` seconds, answered with one JSON
    line.  ``run.py`` probes the host's speed between groups.  Traced
    and untraced passes alternate; an empty line ends the step."""
    figures = warm_figures(job)
    store = ResultStore()
    reply({"setup_s": time.monotonic() - job["launched"]})
    count = 0
    for line in sys.stdin:
        if not line.strip():
            break
        ask = json.loads(line)
        pin_cpu(ask["cpu"])
        started, group = time.monotonic(), []
        while not group or time.monotonic() - started < ask["seconds"]:
            traced = job["trace"] and count % 2 == 1
            group.append(warm_pass(job, figures, store, traced))
            count += 1
        reply({"passes": group})
    return {"peak_rss_mb": peak_rss_mb()}


def reply(message: dict) -> None:
    print(json.dumps(message), flush=True)


def run_crosscheck(job: dict) -> dict:
    from repro.sim.pinning import (
        PINNED_DIGESTS_PATH,
        figure_payload as pinned_payload,
        load_pinned_digests,
        pinned_settings,
    )
    pins = load_pinned_digests(os.path.join(ROOT, PINNED_DIGESTS_PATH))
    context = ExperimentContext(pinned_settings())
    mismatched, gmeans = [], {}
    for name in ("fig12", "figref"):
        payload = pinned_payload(name, context)
        if payload_digest(payload) != pins["figures"][name]["digest"]:
            mismatched.append(name)
        if name == "fig12":
            gmeans = payload["gmeans"]
    return {"mismatched": mismatched, "gmeans": gmeans}


MODES = {"cold": run_cold, "fill": run_fill, "warm": run_warm,
         "crosscheck": run_crosscheck}


def main() -> None:
    job = json.loads(sys.argv[1])
    reply(MODES[job["mode"]](job))


if __name__ == "__main__":
    main()
