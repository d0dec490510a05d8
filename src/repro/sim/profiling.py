"""cProfile harness over one (config, mix) simulation cell.

Shared by ``repro profile`` (:mod:`repro.cli`) and the standalone
``tools/profile_sim.py`` so both entry points measure exactly the same
thing: trace generation happens *outside* the profiled region, the
event loop (:meth:`repro.sim.simulator.Simulator.run`) inside it.  The
report carries the raw :class:`pstats.Stats` for programmatic use and
can dump the standard binary pstats format for snakeviz / gprof2dot.

:func:`count_opcodes` is the deterministic twin: it runs the same
region under ``sys.settrace`` with per-opcode events and counts Python
calls and executed bytecodes per function.  The counts are a pure
function of the code and the cell, so a before/after comparison needs
one run each instead of the paired wall-time rounds a noisy host
demands.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import io
import pstats
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.config import SystemConfig

#: Sort orders ``format_table`` accepts (a subset of pstats' aliases
#: that always exists; pstats itself accepts more).
SORT_KEYS = ("cumulative", "tottime", "calls", "ncalls", "pcalls")


@dataclass
class ProfileReport:
    """One profiled simulation: perf counters + the pstats data."""

    config_name: str
    mix: str
    accesses: int
    #: DRAM commands issued during the profiled run.
    commands: int
    #: Memory transactions served.
    transactions: int
    #: Wall-clock seconds inside the profiled event loop (measured by
    #: the simulator itself, so it excludes profiler bookkeeping done
    #: outside the loop but still pays the per-call tracing tax).
    wall_time_s: float
    #: Scheduler effort: peeks, candidates built, candidates examined.
    peeks: int
    candidates_built: int
    candidates_examined: int
    #: Behaviour digest of the profiled run -- lets a profile double as
    #: an equivalence witness when comparing scheduler paths.
    digest: str
    stats: pstats.Stats

    @property
    def commands_per_second(self) -> float:
        if self.wall_time_s <= 0:
            return 0.0
        return self.commands / self.wall_time_s

    def format_table(self, limit: int = 25,
                     sort: str = "cumulative") -> str:
        """Human-readable summary + top-``limit`` pstats lines."""
        buf = io.StringIO()
        buf.write(
            f"config: {self.config_name}  mix: {self.mix}  "
            f"accesses/core: {self.accesses}\n"
            f"commands: {self.commands}  transactions: "
            f"{self.transactions}  wall: {self.wall_time_s:.3f}s  "
            f"({self.commands_per_second:,.0f} cmd/s under profiler)\n"
            f"peeks/command: {self.peeks / max(1, self.commands):.3f}  "
            f"candidates built/command: "
            f"{self.candidates_built / max(1, self.commands):.3f}  "
            f"examined/peek: "
            f"{self.candidates_examined / max(1, self.peeks):.3f}\n"
            f"digest: {self.digest}\n\n")
        self.stats.stream = buf
        self.stats.sort_stats(sort).print_stats(limit)
        return buf.getvalue()

    def dump(self, path: str) -> None:
        """Write the binary pstats file (snakeviz/pstats compatible)."""
        self.stats.dump_stats(path)


def profile_run(config: SystemConfig, mix: str,
                accesses: int = 1500, fragmentation: float = 0.1,
                seed: int = 0,
                incremental: Optional[bool] = None) -> ProfileReport:
    """Profile one (config, mix) cell and return the report.

    ``incremental`` overrides the scheduler path for this run only
    (None keeps the config's own setting): profiling reference vs.
    table-based selection on the same cell is the intended use, and
    the digests in the two reports must match.
    """
    from repro.sim.simulator import MemorySystem, Simulator
    from repro.cpu.core import CoreConfig, TraceCore
    from repro.workloads.mixes import mix_traces

    if incremental is not None:
        config = dataclasses.replace(config, incremental=incremental)
    traces = mix_traces(mix, accesses, fragmentation=fragmentation,
                        seed=seed)
    system = MemorySystem(config)
    cores = [TraceCore(trace, CoreConfig(), core_id=i)
             for i, trace in enumerate(traces)]
    simulator = Simulator(system, cores)

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = simulator.run()
    finally:
        profiler.disable()

    stats = pstats.Stats(profiler)
    s = result.stats
    return ProfileReport(
        config_name=config.name,
        mix=mix,
        accesses=accesses,
        commands=s.commands_issued,
        transactions=result.transactions,
        wall_time_s=result.wall_time_s,
        peeks=s.peeks,
        candidates_built=s.candidates_built,
        candidates_examined=s.candidates_examined,
        digest=result.digest(),
        stats=stats,
    )


#: One function's opcode-count row: (qualified name, calls, opcodes).
OpcodeRow = Tuple[str, int, int]


@dataclass
class OpcodeReport:
    """Python calls and bytecodes executed by one or more event loops.

    ``calls`` and ``opcodes`` are run-wide totals, counted apart from
    the per-function tally; ``rows`` holds one entry per Python
    function name that ran, heaviest first, and sums to the totals
    exactly.  Calls count frame entries as ``sys.settrace`` reports
    them, so a resumed generator counts once per resumption; C
    functions run no bytecode and are not counted.
    """

    #: DRAM commands issued by the counted runs.
    commands: int
    calls: int
    opcodes: int
    #: One behaviour digest per counted run, in run order.
    digests: List[str]
    rows: List[OpcodeRow]

    def format_table(self, limit: int = 25) -> str:
        """Per-command totals, then the top-``limit`` functions."""
        per = 1.0 / max(1, self.commands)
        lines = [
            f"commands: {self.commands}  calls/cmd: "
            f"{self.calls * per:.2f}  opcodes/cmd: "
            f"{self.opcodes * per:.1f}",
            *(f"digest: {d}" for d in self.digests),
            "",
            f"{'calls/cmd':>10} {'opcodes/cmd':>12}  function",
        ]
        for name, calls, opcodes in self.rows[:limit]:
            lines.append(f"{calls * per:10.3f} {opcodes * per:12.2f}  "
                         f"{name}")
        return "\n".join(lines) + "\n"


def _code_name(code) -> str:
    qualname = getattr(code, "co_qualname", code.co_name)  # 3.11+
    module = code.co_filename.rsplit("/", 1)[-1]
    return f"{module}:{code.co_firstlineno}({qualname})"


def count_opcodes(jobs: Sequence) -> OpcodeReport:
    """Count calls and bytecodes per function over each job's loop.

    ``jobs`` are :class:`~repro.sim.parallel.SimJob` cells.  Traces
    are generated and the system built before tracing starts, so only
    :meth:`~repro.sim.simulator.Simulator.run` (result collection
    included) is counted, the same region :func:`profile_run` covers.
    Tracing never changes scheduling: each digest equals the
    uninstrumented run's.
    """
    from repro.cpu.core import TraceCore
    from repro.sim.parallel import _job_traces
    from repro.sim.simulator import MemorySystem, Simulator

    records: Dict[object, List[int]] = {}
    totals = [0, 0]

    def on_call(frame, event, arg):
        code = frame.f_code
        rec = records.get(code)
        if rec is None:
            rec = records[code] = [0, 0]
        rec[0] += 1
        totals[0] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True

        def on_opcode(frame, event, arg):
            if event == "opcode":
                rec[1] += 1
                totals[1] += 1
            return on_opcode

        return on_opcode

    commands = 0
    digests: List[str] = []
    for job in jobs:
        traces = _job_traces(job)
        system = MemorySystem(job.config, observe=job.observe or None)
        cores = [TraceCore(trace, job.core_config, core_id=i)
                 for i, trace in enumerate(traces)]
        simulator = Simulator(system, cores)
        previous = sys.gettrace()
        # CPython 3.12 arms per-opcode events only if some frame asked
        # for them before ``settrace``; this frame has no local tracer,
        # so it reports nothing itself.
        here = sys._getframe()
        here.f_trace_opcodes = True
        # A cyclic-GC pass can run finalizers anywhere, depending on
        # what the process allocated earlier: keep it out of the count.
        collecting = gc.isenabled()
        gc.disable()
        sys.settrace(on_call)
        try:
            result = simulator.run()
        finally:
            sys.settrace(previous)
            here.f_trace_opcodes = False
            if collecting:
                gc.enable()
        commands += result.stats.commands_issued
        digests.append(result.digest())
    # Code objects that print alike (say, the ``__init__`` of every
    # dataclass, all generated from ``<string>``) share one row.
    by_name: Dict[str, List[int]] = {}
    for code, (calls, opcodes) in records.items():
        row = by_name.setdefault(_code_name(code), [0, 0])
        row[0] += calls
        row[1] += opcodes
    rows = sorted(((name, calls, opcodes)
                   for name, (calls, opcodes) in by_name.items()),
                  key=lambda row: (-row[2], -row[1], row[0]))
    return OpcodeReport(commands=commands, calls=totals[0],
                        opcodes=totals[1], digests=digests, rows=rows)
