"""Content-addressed on-disk result store for the experiment grid.

Every grid cell -- one :class:`~repro.sim.config.SystemConfig` evaluated
on one workload (a mix, or a lone benchmark for the weighted-speedup
denominator) -- is deterministic given its key, so its
:class:`~repro.sim.simulator.SimulationResult` can be persisted once and
reused by every figure, CLI invocation, and resumed sweep.  The store
generalises the old alone-IPC JSON table (PR 1/PR 8) to *all* cell
results:

* **Keys** are SHA-256 digests over a canonical JSON tuple of
  ``(CACHE_VERSION, SystemConfig.digest(), trace key, seed, core
  config)`` -- see :func:`store_key`.  Any behaviour-affecting knob
  lands in the config digest, so a refresh or backend override can
  never alias a stale entry.
* **Entries** are one JSON file each under
  ``<cache dir>/store/<key[:2]>/<key>.json`` holding the serialized
  result summary (everything :meth:`SimulationResult.digest` hashes,
  plus the counters the reducers read) and, for observed runs, the
  stall-attribution sidecar payload.
* **Writes** are atomic (temp file + ``os.replace``) and merge
  freshest-last: concurrent writers of the same key race to an
  identical deterministic payload, and a new unobserved write never
  drops an existing entry's accounting sidecar.  A write that fails
  removes its temp file; ``gc`` removes those a killed writer left.
* **Counters** -- hits / misses / puts / evictions -- are kept per
  store and aggregated process-wide (``repro stats`` prints the
  aggregate); ``repro gc`` prunes stale versions and old entries.

Set ``REPRO_CACHE_DIR`` to relocate the store (tests run against a
throwaway directory); delete the directory to invalidate everything.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.controller.controller import ControllerStats
from repro.cpu.core import CoreConfig
from repro.dram.commands import PrechargeCause
from repro.dram.power import EnergyMeter, EnergyParams
from repro.sim.config import SystemConfig
from repro.sim.metrics import LatencyHistogram
from repro.sim.simulator import SimulationResult

#: Environment variable relocating the on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro_cache"
#: Bump to invalidate every persisted entry after a modelling change.
#: v2: the tFAW four-activate window changed simulated IPCs.
#: v3: keys gained the full alone-config digest.
#: v4: the alone-IPC table became the content-addressed result store --
#: entries are full result summaries keyed by (version, config digest,
#: trace key, seed, core config); v3 ``alone_ipc.json`` files are
#: ignored entirely (never parsed as store entries).
CACHE_VERSION = 4

_HEX_KEY = re.compile(r"[0-9a-f]{64}")
#: Name of an in-flight write's temp file, ``<key>.json.tmp.<pid>``.
_TEMP_NAME = re.compile(r"\.json\.tmp\.(\d+)$")


def _pid_alive(pid: int) -> bool:
    """Whether process ``pid`` exists (signal 0 probes, sends nothing)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # someone else's live process
    return True


def cache_directory(directory: Optional[str] = None) -> str:
    """The cache root, honouring ``REPRO_CACHE_DIR``."""
    if directory is not None:
        return directory
    return os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)


def store_key(config: SystemConfig, *, accesses: int,
              fragmentation: float, seed: int,
              mix: Optional[str] = None,
              benchmark: Optional[str] = None,
              core_config: Optional[CoreConfig] = None) -> str:
    """Content address of one grid cell.

    Exactly one of ``mix`` / ``benchmark`` names the workload; the
    trace key (workload, accesses, fragmentation, seed) regenerates the
    stimulus bit-for-bit and :meth:`SystemConfig.digest` pins every
    behaviour-affecting system knob, so equal keys imply equal
    :class:`~repro.sim.simulator.SimulationResult` digests.
    """
    if (mix is None) == (benchmark is None):
        raise ValueError("exactly one of mix/benchmark must be given")
    cc = core_config or CoreConfig()
    payload = {
        "version": CACHE_VERSION,
        "config": config.digest(),
        "workload": {"mix": mix, "benchmark": benchmark,
                     "accesses": accesses,
                     "fragmentation": fragmentation, "seed": seed},
        "core": {f.name: getattr(cc, f.name)
                 for f in dataclasses.fields(cc)},
    }
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- result (de)serialization ------------------------------------------------


def serialize_result(result: SimulationResult) -> dict:
    """JSON-able summary carrying everything the reducers and the
    result digest read.  Perf counters (peeks, wall time) are host-side
    observations, not behaviour, and are deliberately dropped."""
    s = result.stats
    e = result.energy
    return {
        "config_name": result.config_name,
        "ipcs": list(result.ipcs),
        "finish_times": list(result.finish_times),
        "elapsed_ps": result.elapsed_ps,
        "transactions": result.transactions,
        "stats": {
            "commands_issued": s.commands_issued,
            "acts": s.acts,
            "ewlr_hits": s.ewlr_hits,
            "columns": s.columns,
            "precharges": s.precharges,
            "refreshes": s.refreshes,
            "write_cancels": s.write_cancels,
            "read_latencies": {str(v): n for v, n in
                               sorted(s.read_latencies.counts.items())},
        },
        "energy": {
            "params": {f.name: getattr(e.params, f.name)
                       for f in dataclasses.fields(EnergyParams)},
            "activations": e.activations,
            "ewlr_hit_activations": e.ewlr_hit_activations,
            "precharges": e.precharges,
            "partial_precharges": e.partial_precharges,
            "reads": e.reads,
            "writes": e.writes,
        },
        "precharge_causes": {cause.name: n for cause, n
                             in result.precharge_causes.items()},
        "digest": result.digest(),
    }


class StoredAccounting:
    """Restored stall-attribution sidecar.

    Quacks like :class:`~repro.sim.accounting.AccountingReport` for the
    two calls the sidecar emitters make -- ``verify()`` (a no-op: the
    live report was verified before it was persisted) and ``to_dict()``
    (returns the stored payload verbatim, so re-emitted sidecars are
    byte-identical to the original run's).
    """

    def __init__(self, payload: dict) -> None:
        self._payload = payload

    def verify(self) -> None:
        """Already verified before persisting."""

    def to_dict(self) -> dict:
        """The persisted report payload (a copy: sidecar emitters
        annotate the returned dict in place)."""
        return dict(self._payload)


def restore_result(payload: dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from :func:`serialize_result`.

    The restored result digests identically to the live one (asserted
    in ``tests/sim/test_store.py``); perf counters come back zero.
    """
    stats_p = payload["stats"]
    hist = LatencyHistogram()
    hist.counts = Counter({int(v): n for v, n
                           in stats_p["read_latencies"].items()})
    hist.total = sum(hist.counts.values())
    stats = ControllerStats(
        commands_issued=stats_p["commands_issued"],
        acts=stats_p["acts"],
        ewlr_hits=stats_p["ewlr_hits"],
        columns=stats_p["columns"],
        precharges=stats_p["precharges"],
        refreshes=stats_p["refreshes"],
        write_cancels=stats_p["write_cancels"],
        read_latencies=hist,
    )
    energy_p = payload["energy"]
    energy = EnergyMeter(
        params=EnergyParams(**energy_p["params"]),
        activations=energy_p["activations"],
        ewlr_hit_activations=energy_p["ewlr_hit_activations"],
        precharges=energy_p["precharges"],
        partial_precharges=energy_p["partial_precharges"],
        reads=energy_p["reads"],
        writes=energy_p["writes"],
    )
    causes = {PrechargeCause[name]: n for name, n
              in payload["precharge_causes"].items()}
    accounting = payload.get("accounting")
    return SimulationResult(
        config_name=payload["config_name"],
        ipcs=list(payload["ipcs"]),
        finish_times=list(payload["finish_times"]),
        stats=stats,
        energy=energy,
        precharge_causes=causes,
        elapsed_ps=payload["elapsed_ps"],
        transactions=payload["transactions"],
        accounting=StoredAccounting(accounting) if accounting else None,
    )


# -- counters ----------------------------------------------------------------


@dataclass
class StoreCounters:
    """Hit/miss/put/evict tallies for one store (and the process)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts, "evictions": self.evictions}


#: Process-wide aggregate over every :class:`ResultStore` instance,
#: surfaced by ``repro stats`` next to the trace-memo counters.
GLOBAL_COUNTERS = StoreCounters()


def store_counter_stats() -> Dict[str, int]:
    """This process's aggregate store counters (``repro stats``)."""
    return GLOBAL_COUNTERS.as_dict()


#: Top-level fields of a result summary that :func:`restore_result`
#: reads; an entry missing any of them is unreadable.
_RESULT_FIELDS = frozenset(("config_name", "ipcs", "finish_times",
                            "elapsed_ps", "transactions", "stats",
                            "energy", "precharge_causes"))


def _read_entry(path: str) -> Optional[dict]:
    """The entry at ``path``, or ``None`` when it cannot be used.

    Unusable means unreadable JSON, no JSON object, another cache
    version, or a ``result`` that is not a full summary (the one-core
    ``{"config_name": "", "ipcs": [x]}`` stub an earlier scalar writer
    left, say).  Entries from other cache versions are ignored, not
    misread: the version is checked inside the payload as well as being
    part of the key digest, so even a hand-placed file from an older
    scheme cannot surface.
    """
    try:
        with open(path) as fh:
            entry = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(entry, dict) \
            or entry.get("version") != CACHE_VERSION:
        return None
    result = entry.get("result")
    if not isinstance(result, dict) or not _RESULT_FIELDS <= result.keys():
        return None
    return entry


# -- the store ---------------------------------------------------------------


@dataclass
class GcReport:
    """What one :meth:`ResultStore.gc` sweep did."""

    scanned: int = 0
    removed: int = 0
    kept: int = 0
    freed_bytes: int = 0


class ResultStore:
    """Content-addressed {cell key: result summary} table on disk.

    One JSON file per entry under ``<root>/store/<key[:2]>/``; see the
    module docstring for key and merge semantics.  All methods tolerate
    concurrent writers and corrupt files (a corrupt entry reads as a
    miss and is rewritten on the next put).
    """

    def __init__(self, directory: Optional[str] = None) -> None:
        self.root = cache_directory(directory)
        self.directory = os.path.join(self.root, "store")
        self.counters = StoreCounters()

    # -- paths ---------------------------------------------------------

    @staticmethod
    def entry_id(key: str) -> str:
        """Normalise a key to a 64-hex entry id.

        Store keys already are digests; any other string is hashed into
        the same namespace.
        """
        if _HEX_KEY.fullmatch(key):
            return key
        return hashlib.sha256(key.encode()).hexdigest()

    def path_for(self, key: str) -> str:
        eid = self.entry_id(key)
        return os.path.join(self.directory, eid[:2], eid + ".json")

    # -- reads ---------------------------------------------------------

    def load_entry(self, key: str) -> Optional[dict]:
        """The raw entry payload, or ``None`` on miss/corruption.

        See :func:`_read_entry` for what counts as readable.
        """
        return _read_entry(self.path_for(key))

    def get(self, key: str,
            need_accounting: bool = False) -> Optional[SimulationResult]:
        """The stored result, or ``None``.

        ``need_accounting`` makes entries without a stall-attribution
        sidecar read as misses -- an observed consumer must re-run the
        cell (the re-run's put then merges the sidecar in).
        """
        entry = self.load_entry(key)
        if entry is None:
            self._miss()
            return None
        if need_accounting and not entry.get("accounting"):
            self._miss()
            return None
        payload = dict(entry["result"])
        if entry.get("accounting"):
            payload["accounting"] = entry["accounting"]
        self._hit()
        return restore_result(payload)

    def contains(self, key: str, need_accounting: bool = False) -> bool:
        """Hit test without deserialising (and without counting)."""
        entry = self.load_entry(key)
        if entry is None:
            return False
        if need_accounting and not entry.get("accounting"):
            return False
        return True

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_paths())

    def iter_paths(self) -> Iterator[str]:
        """Every entry file currently on disk."""
        return self._iter_files(lambda name: name.endswith(".json"))

    def _iter_files(self, wanted) -> Iterator[str]:
        if not os.path.isdir(self.directory):
            return
        for shard in sorted(os.listdir(self.directory)):
            sub = os.path.join(self.directory, shard)
            if not os.path.isdir(sub):
                continue
            for name in sorted(os.listdir(sub)):
                if wanted(name):
                    yield os.path.join(sub, name)

    # -- writes --------------------------------------------------------

    def put(self, key: str, result: SimulationResult,
            key_info: Optional[dict] = None) -> None:
        """Persist one result summary (atomic, freshest-last merge).

        The new summary overlays any existing entry; an existing
        accounting sidecar survives an unobserved overwrite, and an
        observed result contributes its sidecar.  ``key_info`` is
        stored for ``repro cells`` / debugging only -- it never feeds
        the key.
        """
        accounting = None
        report = result.accounting
        if report is not None:
            report.verify()
            accounting = report.to_dict()
        entry = {
            "version": CACHE_VERSION,
            "key": key_info or {},
            "result": serialize_result(result),
            "accounting": accounting,
            "written_at": time.time(),
        }
        existing = self.load_entry(key)
        if existing is not None:
            # Freshest-last: the new payload wins, but a sidecar the
            # new run did not produce is preserved from the old entry.
            if accounting is None and existing.get("accounting"):
                entry["accounting"] = existing["accounting"]
            if not entry["key"] and existing.get("key"):
                entry["key"] = existing["key"]
        self._write(key, entry)
        self.counters.puts += 1
        GLOBAL_COUNTERS.puts += 1

    def _write(self, key: str, entry: dict) -> None:
        path = self.path_for(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w") as fh:
                # ``dumps`` runs the C encoder; ``dump`` would stream
                # through the pure-Python one.  The bytes are the same.
                fh.write(json.dumps(entry, sort_keys=True) + "\n")
            os.replace(tmp, path)
        except BaseException:
            # A failed serialisation or write must not leave the temp
            # file behind (gc collects only those of dead writers).
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    # -- maintenance ---------------------------------------------------

    def gc(self, max_age_days: Optional[float] = None,
           max_entries: Optional[int] = None) -> GcReport:
        """Prune the store; returns what was scanned/removed/kept.

        Always removes unreadable entries and entries from other cache
        versions.  ``max_age_days`` drops entries older than that
        (by ``written_at``, falling back to file mtime);
        ``max_entries`` keeps only the newest N survivors.  Temp files
        of writers that died mid-write (``<key>.json.tmp.<pid>`` with
        no live ``pid``) are removed too and count in ``removed`` and
        ``freed_bytes``; a live writer's temp file is left alone.
        """
        report = GcReport()
        for path in list(self._iter_files(_TEMP_NAME.search)):
            pid = int(_TEMP_NAME.search(path).group(1))
            if not _pid_alive(pid):
                self._remove(path, report, evict=False)
        survivors: List[tuple] = []
        now = time.time()
        for path in list(self.iter_paths()):
            report.scanned += 1
            entry = _read_entry(path)
            stale = entry is None
            stamp = 0.0
            if not stale:
                raw_stamp = entry.get("written_at")
                try:
                    stamp = (float(raw_stamp) if raw_stamp is not None
                             else os.path.getmtime(path))
                except (OSError, ValueError, TypeError):
                    stale = True
            if not stale and max_age_days is not None:
                stale = now - stamp > max_age_days * 86400.0
            if stale:
                self._remove(path, report)
            else:
                survivors.append((stamp, path))
        if max_entries is not None and len(survivors) > max_entries:
            survivors.sort(reverse=True)  # newest first
            for _, path in survivors[max_entries:]:
                self._remove(path, report)
            survivors = survivors[:max_entries]
        report.kept = len(survivors)
        return report

    def _remove(self, path: str, report: GcReport,
                evict: bool = True) -> None:
        try:
            size = os.path.getsize(path)
            os.remove(path)
        except OSError:  # pragma: no cover - racing gc sweeps
            return
        report.removed += 1
        report.freed_bytes += size
        if evict:
            self.counters.evictions += 1
            GLOBAL_COUNTERS.evictions += 1

    # -- counter plumbing ---------------------------------------------

    def _hit(self) -> None:
        self.counters.hits += 1
        GLOBAL_COUNTERS.hits += 1

    def _miss(self) -> None:
        self.counters.misses += 1
        GLOBAL_COUNTERS.misses += 1
