"""The content-addressed result store: round-trips, merges, gc.

The store's contract is that a restored result is *behaviourally
indistinguishable* from the live one (same digest, same reducer
inputs), that concurrent writers merge freshest-last without dropping
sidecars, and that entries from other cache versions are ignored --
never misread -- including the pre-v4 ``alone_ipc.json`` table.
"""

import json
import multiprocessing
import os
import subprocess
import sys
import time

import pytest

from repro.cpu.core import CoreConfig
from repro.sim import config as cfgs
from repro.sim.accounting import ObserveOptions
from repro.sim.runner import execute_cells
from repro.sim.simulator import run_traces
from repro.sim.specs import CellKey
from repro.sim.store import CACHE_VERSION, ResultStore, store_key
from repro.workloads.mixes import mix_traces


def _small_result(observe=False):
    traces = mix_traces("mix0", 200, fragmentation=0.1, seed=0)
    return run_traces(cfgs.vsb(), traces,
                      observe=ObserveOptions() if observe else None)


def _key(config=None, seed=0):
    return store_key(config or cfgs.vsb(), accesses=200,
                     fragmentation=0.1, seed=seed, mix="mix0",
                     core_config=CoreConfig())


def test_round_trip_is_digest_identical(tmp_path):
    store = ResultStore(str(tmp_path))
    live = _small_result()
    store.put(_key(), live)
    restored = ResultStore(str(tmp_path)).get(_key())
    assert restored is not None
    # Digest equality covers IPCs, stats, energy, and precharge causes
    # -- everything any figure reducer reads.
    assert restored.digest() == live.digest()
    assert restored.ipcs == list(live.ipcs)
    assert restored.energy.activation_energy_nj() == \
        live.energy.activation_energy_nj()
    assert restored.energy.access_energy_nj() == \
        live.energy.access_energy_nj()
    assert restored.stats.read_latencies.quartiles() == \
        live.stats.read_latencies.quartiles()


def test_store_key_demands_exactly_one_workload():
    with pytest.raises(ValueError):
        store_key(cfgs.vsb(), accesses=200, fragmentation=0.1, seed=0)
    with pytest.raises(ValueError):
        store_key(cfgs.vsb(), accesses=200, fragmentation=0.1, seed=0,
                  mix="mix0", benchmark="mcf")


def test_unobserved_overwrite_keeps_accounting_sidecar(tmp_path):
    """Freshest-last merge: a plain re-run must not drop the sidecar an
    observed run persisted earlier."""
    observed = _small_result(observe=True)
    assert observed.accounting is not None
    first = ResultStore(str(tmp_path))
    first.put(_key(), observed, key_info={"kind": "mix"})
    # A different store instance (e.g. another process's runner)
    # rewrites the same key without accounting.
    second = ResultStore(str(tmp_path))
    second.put(_key(), _small_result(observe=False))
    merged = ResultStore(str(tmp_path)).get(_key(),
                                            need_accounting=True)
    assert merged is not None and merged.accounting is not None
    assert merged.accounting.to_dict() == observed.accounting.to_dict()
    # The key sidecar survives too.
    entry = ResultStore(str(tmp_path)).load_entry(_key())
    assert entry["key"] == {"kind": "mix"}


def test_need_accounting_misses_on_plain_entries(tmp_path):
    store = ResultStore(str(tmp_path))
    store.put(_key(), _small_result())
    assert store.get(_key(), need_accounting=True) is None
    assert store.get(_key()) is not None


def _writer(directory, key, result):
    ResultStore(directory).put(key, result)


def test_two_process_writers_both_persist(tmp_path):
    """Two OS processes writing distinct keys into one store directory
    must both land (atomic per-entry files, no shared table to race)."""
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else None)
    keys = [_key(seed=1), _key(seed=2)]
    results = [_small_result(), _small_result(observe=True)]
    procs = [ctx.Process(target=_writer,
                         args=(str(tmp_path), key, result))
             for key, result in zip(keys, results)]
    for p in procs:
        p.start()
    for p in procs:
        p.join()
        assert p.exitcode == 0
    store = ResultStore(str(tmp_path))
    # The first writer's result is plain, the second's observed: each
    # key holds exactly what its own writer put.
    first, second = (store.get(k) for k in keys)
    assert first.digest() == results[0].digest()
    assert first.accounting is None
    assert second.accounting.to_dict() == results[1].accounting.to_dict()


def test_v3_alone_ipc_table_is_ignored_not_misread(tmp_path):
    """Regression for the v3 -> v4 migration: the old single-file
    alone-IPC table must never surface as a store hit."""
    key = store_key(cfgs.ddr4_baseline(), benchmark="mcf",
                    fragmentation=0.1, seed=0, accesses=250,
                    core_config=CoreConfig())
    # The pre-v4 layout: one JSON table of {key: ipc} at the root.
    with open(tmp_path / "alone_ipc.json", "w") as fh:
        json.dump({"version": 3, "entries": {key: 99.0}}, fh)
    store = ResultStore(str(tmp_path))
    assert store.get(key) is None
    # Even a hand-placed *entry file* from another version reads as a
    # miss (the version is checked inside the payload as well).
    path = store.path_for(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"version": 3, "result": {"ipcs": [99.0]}}, fh)
    assert store.get(key) is None
    assert not store.contains(key)
    # A fresh put repairs the entry in place.
    live = _small_result()
    store.put(key, live)
    assert ResultStore(str(tmp_path)).get(key).digest() == live.digest()


def _plant_stub(store, key, ipc=1.5):
    """Hand-place the one-core stub summary an earlier scalar writer
    produced: a current-version entry with only a name and one IPC."""
    path = store.path_for(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"version": CACHE_VERSION, "key": {},
                   "result": {"config_name": "", "ipcs": [ipc]},
                   "accounting": None, "written_at": time.time()}, fh)


def test_stub_summary_entry_is_a_miss_and_a_grid_run_repairs_it(tmp_path):
    """Regression: a stub entry at an alone cell's key made
    ``execute_cells`` raise ``KeyError: 'stats'`` while restoring it,
    and ``contains`` reported it as a hit."""
    cell = CellKey(kind="alone", config=cfgs.ddr4_baseline(),
                   workload="mcf", accesses=200, fragmentation=0.1,
                   seed=0, core_config=CoreConfig())
    key = cell.store_key()
    store = ResultStore(str(tmp_path))
    _plant_stub(store, key)
    results = {}
    report = execute_cells([cell], results=results, store=store)
    assert (report.store_hits, report.submitted) == (0, 1)
    assert results[cell].stats.commands_issued > 0
    # The run's put replaced the stub with the full summary.
    fresh = ResultStore(str(tmp_path))
    assert fresh.contains(key)
    assert fresh.get(key).digest() == results[cell].digest()
    # A stub is no hit for ``contains`` and unreadable for ``gc``.
    _plant_stub(store, _key(seed=9))
    assert not store.contains(_key(seed=9))
    assert store.get(_key(seed=9)) is None
    report = store.gc()
    assert (report.scanned, report.removed, report.kept) == (2, 1, 1)
    assert fresh.contains(key)


def test_gc_prunes_versions_age_and_excess(tmp_path):
    store = ResultStore(str(tmp_path))
    live = _small_result()
    for seed in range(3):
        store.put(_key(seed=seed), live)
    # A stale-version file, a corrupt file and valid JSON that is not
    # an entry object all go unconditionally.
    stale = store.path_for("stale")
    os.makedirs(os.path.dirname(stale), exist_ok=True)
    with open(stale, "w") as fh:
        json.dump({"version": CACHE_VERSION - 1, "result": {}}, fh)
    with open(os.path.join(os.path.dirname(stale), "bad.json"),
              "w") as fh:
        fh.write("{not json")
    with open(os.path.join(os.path.dirname(stale), "null.json"),
              "w") as fh:
        fh.write("null\n")
    report = store.gc()
    assert (report.scanned, report.removed, report.kept) == (6, 3, 3)
    assert report.freed_bytes > 0
    # Age-based pruning: backdate one survivor.
    old = store.load_entry(_key(seed=0))
    old["written_at"] = 0.0
    with open(store.path_for(_key(seed=0)), "w") as fh:
        json.dump(old, fh)
    report = store.gc(max_age_days=1)
    assert (report.removed, report.kept) == (1, 2)
    # Size cap keeps the newest N.
    report = store.gc(max_entries=1)
    assert (report.removed, report.kept) == (1, 1)
    assert store.counters.evictions == 5


def test_counters_tally_hits_misses_puts(tmp_path):
    store = ResultStore(str(tmp_path))
    assert store.get(_key()) is None
    store.put(_key(), _small_result())
    assert store.get(_key()) is not None
    c = store.counters
    assert (c.hits, c.misses, c.puts) == (1, 1, 1)


def _temp_files(store):
    return [name for _, _, names in os.walk(store.directory)
            for name in names if ".json.tmp." in name]


def test_failed_write_leaves_no_temp_file(tmp_path):
    store = ResultStore(str(tmp_path))
    with pytest.raises(TypeError):
        store._write(_key(), {"result": object()})  # not JSON
    assert _temp_files(store) == []
    assert not os.path.exists(store.path_for(_key()))
    assert len(store) == 0


def _plant_temp(store, pid, payload="{half a write"):
    path = f"{store.path_for(_key())}.tmp.{pid}"
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(payload)
    return path


def test_gc_collects_the_temp_file_of_a_dead_writer(tmp_path):
    store = ResultStore(str(tmp_path))
    store.put(_key(seed=1), _small_result())
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped: its pid names no live process
    orphan = _plant_temp(store, child.pid)
    size = os.path.getsize(orphan)
    report = store.gc()
    assert not os.path.exists(orphan)
    assert (report.scanned, report.removed, report.kept) == (1, 1, 1)
    assert report.freed_bytes == size
    assert store.counters.evictions == 0  # not an entry eviction


def test_gc_keeps_the_temp_file_of_a_live_writer(tmp_path):
    store = ResultStore(str(tmp_path))
    live = _plant_temp(store, os.getpid())
    report = store.gc()
    assert os.path.exists(live)
    assert (report.removed, report.freed_bytes) == (0, 0)
