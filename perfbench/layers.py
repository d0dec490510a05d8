"""Outside-in layer spans for the traced benchmark run.

Nothing here edits the program: :class:`Tracer` replaces each layer's
public entry point (a class attribute or a module-level function) with
a wrapper that records a ``perf_counter_ns`` span, and puts the
original back on :meth:`Tracer.uninstall`.  A layer's *self* time is
its span minus the spans of the layers it called.  A target that no
longer exists (say a loop that was deleted) is skipped and listed in
:attr:`Tracer.skipped` instead of failing the run.

Pool workers are forked after :meth:`Tracer.install`, so they inherit
the wrappers.  The wrapper around ``repro.sim.parallel._run_job``
zeroes the worker's records before each cell and sends the cell's span
totals back on the result; the ``run_grid`` wrapper merges them in the
parent, so worker-side layers are counted with the parent-side ones.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from typing import Callable, Dict, List, Tuple

#: Attribute a pool worker's span totals ride back on, per result.
WORKER_SPANS = "_perfbench_spans"

#: Wrapped layers: (span name, module, attribute path).  Several
#: targets may share a span name; their records add up.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.generate", "repro.workloads.generator",
     "TraceGenerator.generate"),
    ("cpu.pop_request", "repro.cpu.core", "TraceCore.pop_request"),
    ("cpu.complete_read", "repro.cpu.core", "TraceCore.complete_read"),
    ("sim.route", "repro.sim.simulator", "MemorySystem.controller_for"),
    ("controller.mapping.decode", "repro.controller.mapping",
     "AddressMapping.decode"),
    ("controller.enqueue", "repro.controller.controller",
     "ChannelController.enqueue"),
    ("controller.has_room", "repro.controller.controller",
     "ChannelController.has_room"),
    ("controller.scheduler.best", "repro.controller.scheduler",
     "Scheduler.best"),
    ("controller.refresh.arbitrate", "repro.controller.scheduler",
     "RefreshScheduler.arbitrate"),
    ("controller.refresh.catch_up", "repro.controller.scheduler",
     "RefreshScheduler.catch_up"),
    ("controller.commit", "repro.controller.controller",
     "ChannelController.commit"),
    ("dram.issue", "repro.dram.device", "Channel.issue_act"),
    ("dram.issue", "repro.dram.device", "Channel.issue_column"),
    ("dram.issue", "repro.dram.device", "Channel.issue_precharge"),
    ("dram.issue", "repro.dram.device", "Channel.issue_refresh"),
    ("sim.accounting.floors_for", "repro.sim.accounting",
     "CommandObserver.floors_for"),
    ("sim.accounting.on_command", "repro.sim.accounting",
     "CommandObserver.on_command"),
    ("sim.loop.classic", "repro.sim.simulator", "Simulator.run"),
    ("sim.loop.sharded", "repro.sim.shards", "ShardedSimulator.run"),
    ("sim.collect", "repro.sim.simulator", "collect_result"),
    ("sim.collect", "repro.sim.shards", "collect_result"),
    ("sim.specs.expand", "repro.sim.specs", "ExperimentSpec.expand"),
    ("sim.runner.execute_cells", "repro.sim.runner", "execute_cells"),
    ("sim.runner.execute_cells", "repro.sim.experiments",
     "execute_cells"),
    ("sim.experiments.reduce", "repro.sim.experiments", "reduce_fig12"),
    ("sim.experiments.reduce", "repro.sim.experiments", "reduce_fig13"),
    ("sim.experiments.reduce", "repro.sim.experiments", "reduce_fig14"),
    ("sim.experiments.reduce", "repro.sim.experiments", "reduce_fig15"),
    ("sim.experiments.reduce", "repro.sim.experiments", "reduce_fig16"),
    ("sim.experiments.reduce", "repro.sim.experiments", "reduce_figref"),
    ("sim.store.get", "repro.sim.store", "ResultStore.get"),
    ("sim.store.put", "repro.sim.store", "ResultStore.put"),
    ("sim.parallel.run_grid", "repro.sim.runner", "run_grid"),
    ("sim.parallel.run_job", "repro.sim.parallel", "_run_job"),
)

#: Module-level tables that hold references to wrapped functions (the
#: figure reducer registry); their entries are swapped too.
REGISTRIES: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.experiments", "FIGURE_REDUCERS"),
)


def _has_room_extra(args, result) -> int:
    return 0 if result else 1  # refusals


def _store_get_extra(args, result) -> int:
    return 0 if result is None else 1  # hits


def _store_put_extra(args, result) -> int:
    store, key = args[0], args[1]
    return os.path.getsize(store.path_for(key))  # bytes written


#: Per-span extra counter: ``extra(args, result)`` adds to record[3].
EXTRAS: Dict[str, Callable] = {
    "controller.has_room": _has_room_extra,
    "sim.store.get": _store_get_extra,
    "sim.store.put": _store_put_extra,
}


class Tracer:
    """Span records keyed by span name: ``[calls, self_ns, total_ns,
    extra]``, plus the per-grid figures of the ``run_grid`` wrapper."""

    def __init__(self) -> None:
        self.records: Dict[str, List[int]] = {}
        #: Child-time accumulators of the open spans; the bottom entry
        #: collects top-level spans and is never popped.
        self.stack: List[int] = [0]
        self.grid = {"first_result_ns": 0, "cell_wall_s": 0.0,
                     "worker_ns": 0}
        self.skipped: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- records ---------------------------------------------------------

    def record(self, name: str) -> List[int]:
        return self.records.setdefault(name, [0, 0, 0, 0])

    def reset(self) -> None:
        """Zero every record in place (wrappers hold the lists)."""
        for rec in self.records.values():
            rec[:] = [0, 0, 0, 0]
        del self.stack[1:]
        self.stack[0] = 0

    def snapshot(self) -> Dict[str, List[int]]:
        return {name: list(rec) for name, rec in self.records.items()
                if rec[0]}

    def merge(self, spans: Dict[str, List[int]]) -> None:
        for name, values in spans.items():
            rec = self.record(name)
            for i, value in enumerate(values):
                rec[i] += value

    # -- wrappers --------------------------------------------------------

    def span(self, name: str, fn: Callable) -> Callable:
        rec = self.record(name)
        stack = self.stack
        clock = time.perf_counter_ns
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                rec[0] += 1
                rec[1] += elapsed - child
                rec[2] += elapsed
            if extra is not None:
                rec[3] += extra(args, result)
            return result

        return wrapper

    def _run_grid(self, fn: Callable) -> Callable:
        timed = self.span("sim.parallel.run_grid", fn)
        grid = self.grid
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def run_grid(jobs, workers=1, on_result=None):
            start = clock()
            first = []

            def landed(index, result):
                if not first:
                    first.append(clock() - start)
                spans = result.__dict__.pop(WORKER_SPANS, None)
                if spans is not None:
                    self.merge(spans)
                grid["cell_wall_s"] += result.wall_time_s
                if on_result is not None:
                    on_result(index, result)

            try:
                return timed(jobs, workers, landed)
            finally:
                grid["first_result_ns"] += first[0] if first else 0
                grid["worker_ns"] += (clock() - start) * max(1, workers)

        return run_grid

    def _run_job(self, fn: Callable) -> Callable:
        parent = os.getpid()

        @functools.wraps(fn)
        def _run_job(job):
            if os.getpid() == parent:
                return fn(job)
            # Inside a forked pool worker: report this cell's spans only.
            self.reset()
            result = fn(job)
            result.__dict__[WORKER_SPANS] = self.snapshot()
            return result

        return _run_job

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        if name == "sim.parallel.run_grid":
            return self._run_grid(fn)
        if name == "sim.parallel.run_job":
            return self._run_job(fn)
        return self.span(name, fn)

    # -- install / uninstall ---------------------------------------------

    def install(self) -> "Tracer":
        originals: Dict[int, Callable] = {}
        for name, module_name, path in TARGETS:
            owner, attr = _resolve(module_name, path)
            if owner is None:
                self.skipped.append(f"{module_name}.{path}")
                continue
            original = getattr(owner, attr)
            wrapped = self._wrapper(name, original)
            originals[id(original)] = wrapped
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        for module_name, path in REGISTRIES:
            owner, attr = _resolve(module_name, path)
            table = getattr(owner, attr) if owner is not None else {}
            for key, value in list(table.items()):
                if id(value) in originals:
                    self._patches.append((table, key, value))
                    table[key] = originals[id(value)]
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


def _resolve(module_name: str, path: str):
    """(owner, attribute) for ``module.path``, or (None, None) if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if not hasattr(owner, attr):
        return None, None
    return owner, attr


def calls(records: Dict[str, List[int]], name: str) -> int:
    return records.get(name, [0])[0]


def self_s(records: Dict[str, List[int]], name: str) -> float:
    return records.get(name, [0, 0])[1] / 1e9


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(records: Dict[str, List[int]], grid: dict,
                  sums: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``sums`` carries the exact counters of the iteration's simulated
    results (commands, peeks, candidates built and examined) and the
    grid's worker count.
    """
    c = functools.partial(calls, records)
    s = functools.partial(self_s, records)
    extra = {name: rec[3] for name, rec in records.items()}
    loop_runs = c("sim.loop.classic") + c("sim.loop.sharded")
    loop_self = s("sim.loop.classic") + s("sim.loop.sharded")
    commands = sums["commands"]
    out: Dict[str, float] = {}
    for name in ("workloads.generate", "cpu.pop_request",
                 "cpu.complete_read", "sim.route",
                 "controller.mapping.decode", "controller.enqueue",
                 "controller.scheduler.best",
                 "controller.refresh.arbitrate",
                 "controller.refresh.catch_up", "controller.commit",
                 "dram.issue", "sim.accounting.floors_for",
                 "sim.accounting.on_command", "sim.store.get",
                 "sim.store.put"):
        out[f"{name}.calls"] = c(name)
        out[f"{name}.self_s"] = s(name)
    best_calls = c("controller.scheduler.best")
    out.update({
        "sim.route.miss_ratio": ratio(c("controller.mapping.decode"),
                                      c("sim.route")),
        "controller.has_room.refused_ratio": ratio(
            extra.get("controller.has_room", 0),
            c("controller.has_room")),
        "controller.scheduler.best.ns_per_call": ratio(
            records.get("controller.scheduler.best", [0, 0])[1],
            best_calls),
        "controller.scheduler.peeks_per_cmd": ratio(sums["peeks"],
                                                     commands),
        "controller.scheduler.candidates_built_per_cmd": ratio(
            sums["candidates_built"], commands),
        "controller.scheduler.candidates_examined_per_peek": ratio(
            sums["candidates_examined"], sums["peeks"]),
        "sim.loop.self_s": loop_self,
        "sim.loop.ns_per_cmd": ratio(loop_self * 1e9, commands),
        "sim.loop.kind": ratio(c("sim.loop.sharded"), loop_runs),
        "sim.collect.self_s": s("sim.collect"),
        "sim.specs.expand.self_s": s("sim.specs.expand"),
        "sim.runner.execute_cells.self_s": s("sim.runner.execute_cells"),
        "sim.experiments.reduce.self_s": s("sim.experiments.reduce"),
        "sim.store.get.hit_ratio": ratio(extra.get("sim.store.get", 0),
                                         c("sim.store.get")),
        "sim.store.bytes_written": extra.get("sim.store.put", 0),
        "sim.parallel.run_grid.wall_s": records.get(
            "sim.parallel.run_grid", [0, 0, 0])[2] / 1e9,
        "sim.parallel.first_result_s": grid["first_result_ns"] / 1e9,
        "sim.parallel.pool_efficiency": ratio(
            grid["cell_wall_s"], grid["worker_ns"] / 1e9),
    })
    return out


def check_bypass(workload: str, records: Dict[str, List[int]]
                 ) -> List[str]:
    """Exact-count predictions for layers a workload must not (or must)
    reach; returns the violated ones."""
    c = functools.partial(calls, records)
    problems: List[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            problems.append(what)

    refresh = c("controller.refresh.arbitrate") \
        + c("controller.refresh.catch_up")
    accounting = c("sim.accounting.floors_for") \
        + c("sim.accounting.on_command")
    if workload == "figref-observed":
        expect(accounting > 0, "sim.accounting.*.calls > 0")
        expect(c("controller.refresh.arbitrate") > 0,
               "controller.refresh.arbitrate.calls > 0")
    else:
        expect(accounting == 0, "sim.accounting.*.calls == 0")
        expect(refresh == 0, "controller.refresh.*.calls == 0")
    if workload == "store-warm":
        simulated = sum(c(name) for name in (
            "workloads.generate", "cpu.pop_request", "sim.route",
            "controller.enqueue", "controller.scheduler.best",
            "controller.commit", "dram.issue", "sim.loop.classic",
            "sim.loop.sharded", "sim.parallel.run_grid"))
        expect(simulated == 0, "no simulation spans")
        expect(c("sim.store.put") == 0, "sim.store.put.calls == 0")
    else:
        expect(c("workloads.generate") > 0, "workloads.generate.calls > 0")
    return problems
