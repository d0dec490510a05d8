"""Host-speed probe: a fixed pure-Python kernel timed while the program runs.

The benchmark host is a shared VM.  Each of its CPUs flips, every few
hundred milliseconds, between a fast state and one about half as fast
(README, Noise and bounds), so a timing says as much about the mix of
states it met as about the program.  The probe measures that mix: while
a timed step runs, a ``Sampler`` thread times a short kernel every
``PERIOD_S`` on the CPUs the step runs on.  The kernel is frozen code
that does the same kind of work as the simulator's inner loop --
slotted objects scattered over a few MiB, attribute and dict reads, a
queue scan for the best candidate, a small heap -- so it slows down
with the host much as the simulator does.  It lives in the benchmark,
not in the program, so no change to the program moves it.  It runs in
``run.py``'s process, not the program's, so its memory never counts in
the program's peak RSS.

``Sampler.slowness()`` is the host's mean slowness over the step: the
trimmed mean of the kernel's timings over ``NOMINAL_S``.  The program
feels less of it than the kernel (``ELASTICITY``), so a timing divided
by ``Sampler.factor()`` is host seconds at the nominal (fast-state)
speed.
"""

from __future__ import annotations

import heapq
import os
import random
import statistics
import threading
import time

#: Kernel steps per sample: about 1 ms in the fast state.
SAMPLE_STEPS = 150
#: Time (s) of one sample on the reference host in the fast state.  Only
#: ratios of probe-scaled timings matter; this merely keeps scaled
#: figures near raw host seconds.
NOMINAL_S = 0.0011
#: How much of the kernel's slowdown the program shares: the program's
#: host time grows as slowness ** ELASTICITY.  Regressing log host time
#: on log slowness over the iterations of 21 runs (2-vCPU VM) gave
#: slopes of 0.60-0.71 on the cold grids and 0.81-0.94 on warm passes.
ELASTICITY = 0.8
#: The sampler takes one sample per period, on its CPUs in turn.
PERIOD_S = 0.05
#: Share of samples dropped at each end: a sample the scheduler cut in
#: two measures the scheduler, not the host.
TRIM = 0.1

_REQUESTS = 32768
_BANKS = 512
_QUEUE_DEPTH = 24


class _Bank:
    __slots__ = ("open_row", "ready", "hits")

    def __init__(self) -> None:
        self.open_row = -1
        self.ready = 0
        self.hits = 0


class _Req:
    __slots__ = ("bank", "row", "arrive")

    def __init__(self, bank: int, row: int, arrive: int) -> None:
        self.bank = bank
        self.row = row
        self.arrive = arrive


_state = {}


def _data():
    """The kernel's inputs, built once: requests in shuffled memory
    order, the banks they target and a per-request timing table."""
    if not _state:
        rng = random.Random(20260101)
        requests = [_Req(rng.randrange(_BANKS), rng.randrange(64), i)
                    for i in range(_REQUESTS)]
        rng.shuffle(requests)
        _state["requests"] = requests
        _state["banks"] = [_Bank() for _ in range(_BANKS)]
        _state["extra"] = {i: (i * 31) % 3 for i in range(_REQUESTS)}
    return _state["requests"], _state["banks"], _state["extra"]


def kernel(steps: int = SAMPLE_STEPS) -> int:
    """A fixed amount of work: an FR-FCFS-like loop over the request
    stream.  Returns a checksum so the work cannot be skipped."""
    requests, banks, extra = _data()
    queue = requests[:_QUEUE_DEPTH]
    feed = _QUEUE_DEPTH
    events = []
    now = total = 0
    for step in range(steps):
        best = best_key = None
        for req in queue:
            bank = banks[req.bank]
            hit = bank.open_row == req.row
            key = (not hit, max(bank.ready, now), req.arrive)
            if best_key is None or key < best_key:
                best, best_key = req, key
        bank = banks[best.bank]
        hit = bank.open_row == best.row
        now = best_key[1] + 4 + 9 * (not hit) + extra[best.arrive]
        bank.ready = now
        bank.open_row = best.row
        bank.hits += hit
        queue.remove(best)
        queue.append(requests[(feed * 7919) % _REQUESTS])
        feed += 1
        heapq.heappush(events, (now, step))
        if len(events) > 32:
            total += heapq.heappop(events)[0] & 255
    return total


class Sampler:
    """Times ``kernel()`` every ``PERIOD_S`` on ``cpus`` in turn, from a
    thread of this process, between ``start()`` and ``stop()`` (or
    around a ``with`` block).  The thread pins only itself, so the
    caller's CPU affinity is untouched."""

    def __init__(self, cpus) -> None:
        self.cpus = list(cpus)
        self.timings = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        _data()

    def _run(self) -> None:
        """Sample until stopped, at least once."""
        turn = 0
        while True:
            os.sched_setaffinity(0, {self.cpus[turn % len(self.cpus)]})
            turn += 1
            start = time.perf_counter()
            kernel()
            self.timings.append(time.perf_counter() - start)
            if self._stop.wait(PERIOD_S):
                return

    def start(self) -> "Sampler":
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def __enter__(self) -> "Sampler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def slowness(self) -> float:
        """Trimmed mean of the timings over ``NOMINAL_S`` (1 at the
        nominal speed, 1.3 when the kernel ran 30% slower)."""
        ordered = sorted(self.timings)
        cut = int(len(ordered) * TRIM)
        return statistics.fmean(ordered[cut:len(ordered) - cut]
                                or ordered) / NOMINAL_S

    def factor(self) -> float:
        """What the host did to the program's time over the sampled
        span: ``slowness() ** ELASTICITY``.  Dividing a timing by it
        gives host seconds at the nominal speed."""
        return self.slowness() ** ELASTICITY
