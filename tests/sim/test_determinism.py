"""Determinism guarantees: reruns, worker processes, and the disk cache.

The whole experiment pipeline is deterministic given (config, workload,
seed): identical digests across independent runs, identical results
whether a grid executes serially or across worker processes, and a
result store that returns exactly what was computed.
"""

import json

from repro.cpu.core import CoreConfig
from repro.sim import config as cfgs
from repro.sim.experiments import ExperimentContext, ExperimentSettings
from repro.sim.parallel import SimJob, run_grid
from repro.sim.simulator import run_traces
from repro.sim.store import ResultStore, store_key
from repro.workloads.mixes import mix_traces


def test_same_seed_same_digest():
    traces_a = mix_traces("mix0", 300, seed=7)
    traces_b = mix_traces("mix0", 300, seed=7)
    a = run_traces(cfgs.vsb(), traces_a)
    b = run_traces(cfgs.vsb(), traces_b)
    assert a.digest() == b.digest()


def test_different_seed_different_digest():
    a = run_traces(cfgs.vsb(), mix_traces("mix0", 300, seed=7))
    b = run_traces(cfgs.vsb(), mix_traces("mix0", 300, seed=8))
    assert a.digest() != b.digest()


def _grid_jobs():
    return [
        SimJob(config=config, accesses=250, fragmentation=0.1, seed=0,
               core_config=CoreConfig(), mix=mix)
        for config in (cfgs.ddr4_baseline(), cfgs.vsb())
        for mix in ("mix0", "mix3")
    ]


def test_grid_results_identical_serial_vs_parallel():
    serial = run_grid(_grid_jobs(), workers=1)
    parallel = run_grid(_grid_jobs(), workers=4)
    assert [r.digest() for r in serial] == \
        [r.digest() for r in parallel]
    # Order matters too: results must come back in submission order.
    assert [r.config_name for r in parallel] == \
        ["DDR4", "DDR4", "VSB(EWLR+RAP,4P)+DDB", "VSB(EWLR+RAP,4P)+DDB"]


def _alone_key(config, benchmark="mcf"):
    """Store key of a 250-access alone run, as ExperimentContext
    computes it."""
    return store_key(config, benchmark=benchmark, fragmentation=0.1,
                     seed=0, accesses=250, core_config=CoreConfig())


def test_alone_runs_through_grid_match_inline(tmp_path, monkeypatch):
    """A benchmark alone-run gives the same IPC via any execution path."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    settings = ExperimentSettings(accesses_per_core=250, mixes=("mix0",))
    inline = ExperimentContext(settings, disk_cache=False)
    job = SimJob(config=cfgs.ddr4_baseline(), accesses=250,
                 fragmentation=0.1, seed=0, core_config=CoreConfig(),
                 benchmark="mcf")
    (gridded,) = run_grid([job], workers=1)
    assert gridded.ipcs[0] == inline.alone_ipc("mcf")


def test_disk_cache_round_trip(tmp_path):
    key = _alone_key(cfgs.ddr4_baseline())
    store = ResultStore(str(tmp_path / "cache"))
    assert store.get_scalar(key) is None
    store.put_scalar(key, 1.234)
    # A fresh instance reads what the first one persisted.
    assert ResultStore(str(tmp_path / "cache")).get_scalar(key) == 1.234
    # A second writer's entry does not displace the first.
    other = ResultStore(str(tmp_path / "cache"))
    other.put_scalar(_alone_key(cfgs.ddr4_baseline(), benchmark="lbm"), 2.5)
    assert ResultStore(str(tmp_path / "cache")).get_scalar(key) == 1.234


def test_disk_cache_survives_corruption(tmp_path):
    key = _alone_key(cfgs.ddr4_baseline())
    store = ResultStore(str(tmp_path))
    store.put_scalar(key, 1.0)
    # Corrupt the entry in place: it must read as a miss, and a re-put
    # must repair it.
    with open(store.path_for(key), "w") as fh:
        fh.write("{not json")
    assert store.get_scalar(key) is None
    store.put_scalar(key, 1.0)
    assert ResultStore(str(tmp_path)).get_scalar(key) == 1.0


def test_context_alone_ipc_uses_disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    settings = ExperimentSettings(accesses_per_core=250, mixes=("mix0",))
    first = ExperimentContext(settings)
    value = first.alone_ipc("mcf")
    path = first.store.path_for(_alone_key(cfgs.ddr4_baseline()))
    with open(path) as fh:
        entry = json.load(fh)
    assert entry["result"]["ipcs"][0] == value
    # A second context must serve the value from disk: poison the
    # stored entry with a sentinel and observe it coming back.
    sentinel = 42.0
    entry["result"]["ipcs"][0] = sentinel
    with open(path, "w") as fh:
        json.dump(entry, fh)
    second = ExperimentContext(settings)
    assert second.alone_ipc("mcf") == sentinel


def test_parallel_context_matches_serial_tables(tmp_path, monkeypatch):
    """fig12-style prefetch through workers equals the serial runner."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro.sim.experiments import fig12
    settings = ExperimentSettings(accesses_per_core=250,
                                  mixes=("mix0", "mix3"))
    configs = [cfgs.ddr4_baseline(), cfgs.vsb()]
    serial = fig12(ExperimentContext(settings, jobs=1), configs)
    parallel = fig12(ExperimentContext(settings, jobs=4), configs)
    assert serial.values == parallel.values


def test_cache_key_includes_full_config_digest(tmp_path, monkeypatch):
    """Regression (stale alone-IPC keys): a ``--refresh`` alone run must
    never hit a refresh-free cache entry -- the key carries the full
    config digest, so any behaviour-affecting override separates."""
    from dataclasses import replace

    base = cfgs.ddr4_baseline()
    refreshed = replace(base, refresh_density="8Gb",
                        refresh_policy="darp")
    plain = _alone_key(base)
    assert plain != _alone_key(refreshed)
    # Host-side knobs and the cosmetic name must NOT split the key.
    renamed = replace(base, name="renamed", record_commands=True,
                      incremental=False)
    assert _alone_key(renamed) == plain

    # End to end: a refresh-enabled alone baseline recomputes instead
    # of reusing the refresh-free context's persisted entry.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    settings = ExperimentSettings(accesses_per_core=250, mixes=("mix0",))
    ExperimentContext(settings).alone_ipc("mcf")
    second = ExperimentContext(settings, alone_config=refreshed)
    second.alone_ipc("mcf")
    assert len(second.store) == 2


def test_disk_cache_two_writers_freshest_wins(tmp_path):
    """Regression (stale overlay in put_many): a writer that wrote
    earlier must not shadow a value another writer persisted later."""
    shared = _alone_key(cfgs.ddr4_baseline())
    unrelated = _alone_key(cfgs.ddr4_baseline(), benchmark="lbm")
    stale = ResultStore(str(tmp_path))
    stale.put_scalar(shared, 1.0)
    other = ResultStore(str(tmp_path))
    other.put_scalar(shared, 2.0)      # a second writer updates it
    stale.put_scalar(unrelated, 3.0)   # must not resurrect 1.0
    fresh = ResultStore(str(tmp_path))
    assert fresh.get_scalar(shared) == 2.0
    assert fresh.get_scalar(unrelated) == 3.0
