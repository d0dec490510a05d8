"""Wake-on-room admission parking and the command budget."""

from dataclasses import replace

import pytest

from repro.controller.queue import QueueConfig
from repro.cpu.core import CoreConfig, TraceCore
from repro.sim import config as cfgs
from repro.sim.simulator import (
    CommandBudgetExceeded,
    DeadlockError,
    MemorySystem,
    Simulator,
)
from repro.workloads.mixes import mix_traces


def _build(config, park_admission, accesses=300, mix="mix0", seed=0):
    traces = mix_traces(mix, accesses, fragmentation=0.1, seed=seed)
    cores = [TraceCore(trace, CoreConfig(), core_id=i)
             for i, trace in enumerate(traces)]
    return Simulator(MemorySystem(config), cores,
                     park_admission=park_admission)


class _ParkCountingSimulator(Simulator):
    """Counts how many admissions actually parked (test-only)."""

    parks = 0

    def _try_enqueue(self, core, ready):
        before = len(self._parked_cores)
        admitted = super()._try_enqueue(core, ready)
        if len(self._parked_cores) > before:
            self.parks += 1
        return admitted


class TestWakeOnRoomDeterminism:
    def test_digests_match_with_parking_on_and_off(self):
        # Tiny queues force constant admission failures, the regime
        # where parking and busy-retry could diverge if the re-arm
        # protocol lost or reordered a wake.
        config = replace(cfgs.ddr4_baseline(),
                         queue=QueueConfig(read_depth=2, write_depth=2,
                                           drain_high=2, drain_low=1))
        parked = _build(config, park_admission=True).run()
        retried = _build(config, park_admission=False).run()
        assert parked.digest() == retried.digest()
        assert parked.stats.commands_issued > 0

    def test_default_config_digests_match_too(self):
        config = cfgs.vsb()
        parked = _build(config, park_admission=True, accesses=200).run()
        retried = _build(config, park_admission=False,
                         accesses=200).run()
        assert parked.digest() == retried.digest()

    def test_parking_actually_engages_on_tiny_queues(self):
        config = replace(cfgs.ddr4_baseline(),
                         queue=QueueConfig(read_depth=2, write_depth=2,
                                           drain_high=2, drain_low=1))
        traces = mix_traces("mix0", 300, fragmentation=0.1, seed=0)
        cores = [TraceCore(trace, CoreConfig(), core_id=i)
                 for i, trace in enumerate(traces)]
        sim = _ParkCountingSimulator(MemorySystem(config), cores,
                                     park_admission=True)
        sim.run()
        assert sim.parks > 0
        # Every parked core was eventually woken and drained.
        assert not sim._parked_cores
        assert all(not lst for lst in sim._parked)

    def test_lost_wake_raises_parked_deadlock(self):
        config = replace(cfgs.ddr4_baseline(),
                         queue=QueueConfig(read_depth=2, write_depth=2,
                                           drain_high=2, drain_low=1))
        sim = _build(config, park_admission=True, accesses=50)

        commit = sim._commit

        def commit_without_wakes(idx, candidate):
            commit(idx, candidate)
            for lst in sim._parked:
                lst.clear()  # drop the wake signal, keep cores parked

        sim._commit = commit_without_wakes
        with pytest.raises(DeadlockError, match="parked"):
            sim.run()


class TestCommandBudget:
    def test_budget_enforced(self):
        sim = _build(cfgs.ddr4_baseline(), park_admission=True,
                     accesses=200)
        with pytest.raises(CommandBudgetExceeded, match="50 commands"):
            sim.run(max_commands=50)

