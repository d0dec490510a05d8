"""Cost-aware grid dispatch, the warm pool, and trace-memo eviction.

:func:`repro.sim.parallel.run_grid` must not pay pool startup for grids
too small to amortise it (the parallel-overhead cliff): below the
estimated-cost threshold it runs serially even when workers were
requested, ``REPRO_GRID_MIN_COST`` overrides the threshold in either
direction, and grids that do go parallel share one warm executor across
calls instead of re-forking per figure.
"""

import os
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.sim.parallel as parallel
from repro.cpu.core import CoreConfig
from repro.sim import config as cfgs
from repro.sim.parallel import (
    SimJob,
    _job_cost,
    grid_min_cost,
    run_grid,
    trace_memo_stats,
)
from repro.sim.runner import execute_cells
from repro.sim.specs import ExperimentSettings, fig13_spec


def _exit_in_worker(job):
    """Grid job that kills the pool worker running it."""
    os._exit(1)


def _job(accesses=50, mix="mix0", benchmark=None, seed=0):
    return SimJob(config=cfgs.ddr4_baseline(), accesses=accesses,
                  fragmentation=0.1, seed=seed,
                  core_config=CoreConfig(), mix=mix,
                  benchmark=benchmark)


class _PoolMustNotStart:
    def map(self, fn, jobs, chunksize=1):  # pragma: no cover
        raise AssertionError("grid took the pool path")


class _RecordingPool:
    def __init__(self):
        self.calls = 0

    def map(self, fn, jobs, chunksize=1):
        self.calls += 1
        return [fn(job) for job in jobs]


class _DispatchRecordingPool:
    """Runs in-process and records what ``run_grid`` handed it."""

    def __init__(self):
        self.jobs = None
        self.chunksize = None

    def map(self, fn, jobs, chunksize=1):
        self.jobs, self.chunksize = list(jobs), chunksize
        return [fn(job) for job in self.jobs]


class TestCostGate:
    def test_job_cost_scales_with_cores(self):
        assert _job_cost(_job(accesses=100)) == 400  # 4-core mix
        assert _job_cost(_job(accesses=100, mix=None,
                              benchmark="mcf")) == 100

    def test_min_cost_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRID_MIN_COST", "123")
        assert grid_min_cost() == 123
        monkeypatch.setenv("REPRO_GRID_MIN_COST", "bogus")
        assert grid_min_cost() == parallel.DEFAULT_GRID_MIN_COST
        monkeypatch.delenv("REPRO_GRID_MIN_COST")
        assert grid_min_cost() == parallel.DEFAULT_GRID_MIN_COST

    def test_small_grid_stays_serial(self, monkeypatch):
        # A 3-job grid with --jobs 4: below the cost threshold, the
        # pool must never start (the cliff this PR fixes).
        monkeypatch.setattr(parallel, "_warm_executor",
                            lambda workers: _PoolMustNotStart())
        results = run_grid([_job(seed=s) for s in range(3)], workers=4)
        assert len(results) == 3

    def test_forced_parallel_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRID_MIN_COST", "0")
        pool = _RecordingPool()
        monkeypatch.setattr(parallel, "_warm_executor",
                            lambda workers: pool)
        jobs = [_job(seed=s) for s in range(2)]
        results = run_grid(jobs, workers=2)
        assert pool.calls == 1
        serial = run_grid(jobs, workers=1)
        assert [r.digest() for r in results] == \
            [r.digest() for r in serial]

    def test_forced_serial_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRID_MIN_COST", str(1 << 40))
        monkeypatch.setattr(parallel, "_warm_executor",
                            lambda workers: _PoolMustNotStart())
        big = [_job(accesses=400, seed=s) for s in range(6)]
        assert len(run_grid(big, workers=4)) == 6


class TestWarmPool:
    def teardown_method(self):
        parallel._shutdown_warm_pool()

    def test_pool_reused_across_calls(self):
        a = parallel._warm_executor(2)
        b = parallel._warm_executor(2)
        assert a is b

    def test_pool_refreshed_when_defaults_change(self, monkeypatch):
        import repro.controller.scheduler as scheduler_mod
        a = parallel._warm_executor(2)
        monkeypatch.setattr(scheduler_mod, "INCREMENTAL_DEFAULT",
                            not scheduler_mod.INCREMENTAL_DEFAULT)
        b = parallel._warm_executor(2)
        assert a is not b

    def test_pool_refreshed_when_width_changes(self):
        a = parallel._warm_executor(2)
        b = parallel._warm_executor(3)
        assert a is not b

    def test_broken_pool_replaced_after_worker_death(self, monkeypatch):
        # A worker that dies breaks the pool; the next grid must run on
        # a fresh pool instead of failing at once on the cached one.
        monkeypatch.setenv("REPRO_GRID_MIN_COST", "0")
        jobs = [_job(accesses=20, seed=s) for s in range(2)]
        with monkeypatch.context() as patch:
            patch.setattr(parallel, "_run_job", _exit_in_worker)
            with pytest.raises(BrokenProcessPool):
                run_grid(jobs, workers=2)
        assert parallel._warm_pool is None
        results = run_grid(jobs, workers=2)
        assert [r.digest() for r in results] == \
            [r.digest() for r in run_grid(jobs, workers=1)]


class TestTraceMemo:
    def test_oldest_half_eviction(self, monkeypatch):
        monkeypatch.setattr(parallel, "TRACE_MEMO_CAPACITY", 4)
        monkeypatch.setattr(parallel, "_trace_memo", {})
        monkeypatch.setattr(parallel, "_trace_memo_evictions", 0)
        for seed in range(6):
            parallel._job_traces(_job(accesses=8, mix=None,
                                      benchmark="mcf", seed=seed))
        stats = trace_memo_stats()
        assert stats["evictions"] >= 1
        assert stats["size"] <= 4
        # The newest entries survive the sweep.
        memo_keys = list(parallel._trace_memo)
        assert any(key[4] == 5 for key in memo_keys)

    def test_memo_hit_returns_same_object(self, monkeypatch):
        monkeypatch.setattr(parallel, "_trace_memo", {})
        job = _job(accesses=8)
        assert parallel._job_traces(job) is parallel._job_traces(job)


class TestDispatchOrder:
    def test_cells_go_heaviest_first_in_fine_chunks(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRID_MIN_COST", "0")
        pool = _DispatchRecordingPool()
        monkeypatch.setattr(parallel, "_warm_executor",
                            lambda workers: pool)
        settings = ExperimentSettings(accesses_per_core=12,
                                      mixes=("mix0", "mix3"))
        cells = fig13_spec(settings).expand()
        pooled = {}
        report = execute_cells(cells, results=pooled, jobs=2)
        assert report.submitted == len(cells) == len(pool.jobs)
        # ~1/16 of a worker's share per chunk (84 cells, 2 workers).
        assert pool.chunksize == len(cells) // (
            2 * parallel.CHUNKS_PER_WORKER) == 2
        # Heaviest first: the 4-core mix cells, then the alone cells.
        costs = [_job_cost(job) for job in pool.jobs]
        assert costs == sorted(costs, reverse=True)
        assert costs[0] > costs[-1]
        # Within a cost class, each workload's cells are contiguous, so
        # a chunk's cells share one worker's trace memo entry.
        workloads = [(job.mix, job.benchmark, job.fragmentation)
                     for job in pool.jobs]
        runs = [w for i, w in enumerate(workloads)
                if i == 0 or w != workloads[i - 1]]
        assert len(runs) == len(set(workloads))
        # Results land on their own cells: digest-equal to serial.
        serial = {}
        execute_cells(cells, results=serial, jobs=1)
        assert {c: r.digest() for c, r in pooled.items()} == \
            {c: r.digest() for c, r in serial.items()}

    def test_results_keep_submission_order(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRID_MIN_COST", "0")
        pool = _DispatchRecordingPool()
        monkeypatch.setattr(parallel, "_warm_executor",
                            lambda workers: pool)
        jobs = [_job(accesses=10, seed=s % 3) if s % 2 else
                _job(accesses=10, mix=None, benchmark="mcf", seed=s)
                for s in range(40)]
        results = run_grid(jobs, workers=2)
        assert pool.chunksize == 1  # 40 // 32, never below one
        assert [r.digest() for r in results] == \
            [r.digest() for r in run_grid(jobs, workers=1)]
