"""One runner per paper table/figure (shared by benches and examples).

Each figure is now a *declarative spec plus a pure reducer*: the grid
(configs x mixes x fragmentations x seeds) is described by an
:class:`~repro.sim.specs.ExperimentSpec` from :mod:`repro.sim.specs`,
executed through the content-addressed result store by
:mod:`repro.sim.runner`, and reduced to the paper's tables by the
``reduce_figN`` functions below -- pure functions over a
:class:`~repro.sim.runner.ResultSet`.  The historical entry points
(``fig12(context)`` and friends) remain as thin shims over that
pipeline, producing bit-identical numbers to the pre-refactor path
(pinned in ``tests/data/figure_digests.json``).

Weighted speedup follows the paper: per-mix Snavely-Tullsen WS normalised
to the DDR4 baseline, GMEAN across mixes.  Alone-IPCs are measured on the
baseline system once per (benchmark, fragmentation, seed) and served
from the store on every later run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.mechanisms import EruConfig
from repro.cpu.core import CoreConfig
from repro.cpu.trace import Trace
from repro.dram.timing import FIG14_BUS_FREQUENCIES_HZ
from repro.sim import config as cfgs
from repro.sim.config import SystemConfig
from repro.sim.metrics import LatencyHistogram, gmean, quartiles
from repro.sim.parallel import SimJob, _job_traces
from repro.sim.runner import ResultSet, RunReport, execute_cells
from repro.sim.simulator import SimulationResult
from repro.sim.specs import (  # noqa: F401  (re-exports)
    FIG12_CONFIG_SPECS,
    FIG13_PLANES,
    FIG13_SCHEMES,
    FIG14_CONFIG_SPECS,
    FIG15_CONFIG_SPECS,
    FIG16_CONFIG_SPECS,
    REFRESH_SWEEP_DENSITIES,
    CellKey,
    ConfigSpec,
    ExperimentSettings,
    ExperimentSpec,
    fig12_spec,
    fig13_spec,
    fig14_spec,
    fig15_spec,
    fig16_spec,
    figref_spec,
    refresh_config_specs,
    refresh_platform_spec,
)
from repro.sim.store import ResultStore


class ExperimentContext:
    """The in-memory layer over :func:`~repro.sim.runner.execute_cells`.

    The context holds one cell cache (:class:`CellKey` -> result) above
    the persistent :class:`~repro.sim.store.ResultStore`.  Every result
    it hands out -- a whole spec through :meth:`execute`, or one cell
    through the lookups :meth:`run`, :meth:`alone_ipc` and
    :meth:`mix_ws` -- comes from :meth:`run_cells`: memory first, store
    second, simulation (``jobs``-wide) only for what is left.  Serial
    and parallel execution produce identical tables.

    ``disk_cache`` (on by default) persists every cell result across
    invocations; pass ``disk_cache=False`` for a hermetic context.

    ``observe`` attaches cycle accounting (:mod:`repro.sim.accounting`)
    to every mix run, so each cached result carries a stall-attribution
    report that :func:`emit_stats_sidecars` can export next to the
    figure tables.  Alone-IPC runs are never observed.  Observation
    never changes any table value.
    """

    def __init__(self, settings: ExperimentSettings = ExperimentSettings(),
                 core_config: CoreConfig = CoreConfig(),
                 jobs: int = 1, disk_cache: bool = True,
                 observe: bool = False,
                 alone_config: Optional[SystemConfig] = None) -> None:
        self.settings = settings
        self.core_config = core_config
        self.jobs = jobs
        self.observe = observe
        #: The configuration alone-IPC denominators run on (weighted
        #: speedup normalises against it).  Part of every alone cell's
        #: content address, so a refresh-enabled or non-DRAM alone
        #: baseline never collides with the default's entries.
        self.alone_config = alone_config or cfgs.ddr4_baseline()
        #: Persistent result store (``None`` for hermetic contexts).
        self.store: Optional[ResultStore] = (
            ResultStore() if disk_cache else None)
        #: Counters of the most recent :meth:`run_cells` pass.
        self.last_report: Optional[RunReport] = None
        #: Finished cells keyed by :class:`CellKey` -- the memory layer
        #: :func:`~repro.sim.runner.execute_cells` diffs first.
        self._cell_cache: Dict[CellKey, SimulationResult] = {}

    def traces(self, mix: str,
               fragmentation: Optional[float] = None) -> List[Trace]:
        """The mix's traces at the context's scale (memoised per
        process, shared with the grid runner)."""
        s = self.settings
        return _job_traces(SimJob(
            config=self.alone_config, accesses=s.accesses_per_core,
            fragmentation=(s.fragmentation if fragmentation is None
                           else fragmentation),
            seed=s.seed, core_config=self.core_config, mix=mix))

    # -- lookups -------------------------------------------------------------

    def _view(self, fragmentation: Optional[float],
              core_config: Optional[CoreConfig],
              config: Optional[SystemConfig] = None,
              mix: Optional[str] = None) -> ResultSet:
        """The cache as a one-level spec at the context's scale (over
        ``config`` x ``mix`` and its alone cells, when given)."""
        s = self.settings
        spec = ExperimentSpec(
            name="context", mixes=(mix,) if mix else (),
            configs=(ConfigSpec(inline=config),) if config else (),
            accesses_per_core=s.accesses_per_core,
            fragmentations=(s.fragmentation if fragmentation is None
                            else fragmentation,),
            seeds=(s.seed,), observe=self.observe,
            alone=ConfigSpec(inline=self.alone_config))
        return ResultSet(spec, self._cell_cache,
                         core_config or self.core_config)

    def alone_ipc(self, benchmark: str,
                  fragmentation: Optional[float] = None,
                  core_config: Optional[CoreConfig] = None) -> float:
        view = self._view(fragmentation, core_config)
        self.run_cells([view.cell("alone", self.alone_config, benchmark)])
        return view.alone_ipc(benchmark)

    def run(self, config: SystemConfig, mix: str,
            fragmentation: Optional[float] = None,
            core_config: Optional[CoreConfig] = None) -> SimulationResult:
        view = self._view(fragmentation, core_config)
        self.run_cells([view.cell("mix", config, mix)])
        return view.mix(config, mix)

    def mix_ws(self, config: SystemConfig, mix: str,
               fragmentation: Optional[float] = None,
               core_config: Optional[CoreConfig] = None
               ) -> Tuple[float, SimulationResult]:
        view = self._view(fragmentation, core_config, config, mix)
        self.run_cells(view.spec.expand(view.core_config))
        return view.ws(config, mix)

    # -- execution -----------------------------------------------------------

    def run_cells(self, cells: Sequence[CellKey],
                  observe: Optional[bool] = None) -> RunReport:
        """Execute a cell list through memory -> store -> simulation."""
        self.last_report = execute_cells(
            cells, results=self._cell_cache, store=self.store,
            jobs=self.jobs,
            observe=self.observe if observe is None else observe)
        return self.last_report

    def execute(self, spec: ExperimentSpec) -> ResultSet:
        """Run a whole spec; only cells absent everywhere simulate."""
        self.run_cells(spec.expand(self.core_config),
                       observe=spec.observe)
        return ResultSet(spec, self._cell_cache, self.core_config)


# -- Fig. 12: normalised weighted speedup per mix ---------------------------


def fig12_configs() -> List[SystemConfig]:
    """The Fig. 12 comparison set (plus the paired-bank variants)."""
    return [cs.to_config() for cs in FIG12_CONFIG_SPECS]


@dataclass
class SpeedupTable:
    """Per-mix normalised weighted speedups: {config: {mix: value}}."""

    values: Dict[str, Dict[str, float]] = field(default_factory=dict)
    baseline: str = "DDR4"

    def normalized(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        base = self.values[self.baseline]
        for config, row in self.values.items():
            out[config] = {mix: v / base[mix] for mix, v in row.items()}
        return out

    def gmeans(self) -> Dict[str, float]:
        return {config: gmean(row.values())
                for config, row in self.normalized().items()}


def reduce_fig12(rs: ResultSet,
                 configs: Sequence[SystemConfig],
                 mixes: Sequence[str]) -> SpeedupTable:
    """Pure Fig. 12 reducer: weighted speedups per (config, mix)."""
    table = SpeedupTable()
    for config in configs:
        table.values[config.name] = {mix: rs.ws(config, mix)[0]
                                     for mix in mixes}
    return table


def fig12(context: ExperimentContext,
          configs: Optional[Sequence[SystemConfig]] = None) -> SpeedupTable:
    if configs is None:
        spec = fig12_spec(context.settings, observe=context.observe)
    else:
        spec = ExperimentSpec(
            name="fig12", mixes=context.settings.mixes,
            accesses_per_core=context.settings.accesses_per_core,
            fragmentations=(context.settings.fragmentation,),
            seeds=(context.settings.seed,), observe=context.observe,
            configs=tuple(ConfigSpec(inline=c) for c in configs))
    rs = context.execute(spec)
    return reduce_fig12(rs, [cs.to_config() for cs in spec.configs],
                        context.settings.mixes)


# -- Fig. 13: plane-count sensitivity + conflict precharges -----------------


@dataclass
class PlaneSweepPoint:
    scheme: str
    planes: int
    fragmentation: float
    normalized_ws: float
    plane_precharge_fraction: float
    ewlr_hit_rate: float


def reduce_fig13(rs: ResultSet, mixes: Sequence[str],
                 fragmentations: Sequence[float],
                 planes: Sequence[int],
                 schemes) -> List[PlaneSweepPoint]:
    """Pure Fig. 13 reducer over the (scheme, planes, frag) sweep."""
    points: List[PlaneSweepPoint] = []
    for frag in fragmentations:
        base_ws = {mix: rs.ws(cfgs.ddr4_baseline(), mix, frag)[0]
                   for mix in mixes}
        for scheme, make in schemes:
            for n in planes:
                config = cfgs.vsb(make(n))
                normalized, pre_frac, hits = [], [], []
                for mix in mixes:
                    ws, result = rs.ws(config, mix, frag)
                    normalized.append(ws / base_ws[mix])
                    pre_frac.append(
                        result.plane_conflict_precharge_fraction)
                    hits.append(result.ewlr_hit_rate)
                points.append(PlaneSweepPoint(
                    scheme=scheme, planes=n, fragmentation=frag,
                    normalized_ws=gmean(normalized),
                    plane_precharge_fraction=(
                        sum(pre_frac) / len(pre_frac)),
                    ewlr_hit_rate=sum(hits) / len(hits)))
    return points


def fig13(context: ExperimentContext,
          fragmentations: Sequence[float] = (0.1, 0.5),
          planes: Sequence[int] = FIG13_PLANES,
          schemes=FIG13_SCHEMES) -> List[PlaneSweepPoint]:
    spec = fig13_spec(context.settings, fragmentations, planes,
                      schemes, observe=context.observe)
    rs = context.execute(spec)
    return reduce_fig13(rs, context.settings.mixes, fragmentations,
                        planes, schemes)


# -- Fig. 14: channel-frequency sensitivity of DDB ---------------------------


@dataclass
class FrequencyPoint:
    config: str
    bus_frequency_hz: float
    normalized_ws: float


def fig14_configs() -> List[SystemConfig]:
    return [cs.to_config() for cs in FIG14_CONFIG_SPECS]


def reduce_fig14(rs: ResultSet, mixes: Sequence[str],
                 frequencies: Sequence[float],
                 core_config: CoreConfig) -> List[FrequencyPoint]:
    """Pure Fig. 14 reducer: normalised WS per (config, frequency)."""
    points: List[FrequencyPoint] = []
    base_freq = frequencies[0]
    for freq in frequencies:
        factor = freq / base_freq
        core = core_config.scaled(factor)
        base_ws = {
            mix: rs.ws(cfgs.ddr4_baseline().at_frequency(freq), mix,
                       core_config=core)[0]
            for mix in mixes}
        for config in fig14_configs():
            scaled = config.at_frequency(freq)
            normalized = [
                rs.ws(scaled, mix, core_config=core)[0] / base_ws[mix]
                for mix in mixes]
            points.append(FrequencyPoint(
                config=config.name, bus_frequency_hz=freq,
                normalized_ws=gmean(normalized)))
    return points


def fig14(context: ExperimentContext,
          frequencies: Sequence[float] = FIG14_BUS_FREQUENCIES_HZ
          ) -> List[FrequencyPoint]:
    """DDB speedup as the channel clock scales (CPU clock scales along,
    per the paper, to keep memory intensity constant)."""
    spec = fig14_spec(context.settings, frequencies,
                      observe=context.observe)
    rs = context.execute(spec)
    return reduce_fig14(rs, context.settings.mixes, frequencies,
                        context.core_config)


# -- Fig. 15: comparison to prior sub-banking work ---------------------------


def fig15_configs() -> List[SystemConfig]:
    return [cs.to_config() for cs in FIG15_CONFIG_SPECS]


def reduce_fig15(rs: ResultSet,
                 mixes: Sequence[str]) -> Dict[str, float]:
    """Pure Fig. 15 reducer: GMEAN normalised WS per prior-work config."""
    base_ws = {mix: rs.ws(cfgs.ddr4_baseline(), mix)[0]
               for mix in mixes}
    out: Dict[str, float] = {}
    for config in fig15_configs():
        normalized = [rs.ws(config, mix)[0] / base_ws[mix]
                      for mix in mixes]
        out[config.name] = gmean(normalized)
    return out


def fig15(context: ExperimentContext) -> Dict[str, float]:
    """GMEAN normalised weighted speedup of each prior-work config."""
    spec = fig15_spec(context.settings, observe=context.observe)
    rs = context.execute(spec)
    return reduce_fig15(rs, context.settings.mixes)


# -- Fig. 16: read queueing latency and energy -------------------------------


@dataclass
class LatencyEnergyRow:
    config: str
    latency_stats_ns: Dict[str, float]
    background_energy: float
    activation_energy: float
    total_energy: float

    def relative_to(self, other: "LatencyEnergyRow") -> Dict[str, float]:
        return {
            "background": self.background_energy / other.background_energy,
            "activation": self.activation_energy / other.activation_energy,
            "total": self.total_energy / other.total_energy,
        }


def fig16_configs() -> List[SystemConfig]:
    return [cs.to_config() for cs in FIG16_CONFIG_SPECS]


def reduce_fig16(rs: ResultSet,
                 mixes: Sequence[str]) -> List[LatencyEnergyRow]:
    """Pure Fig. 16 reducer: latency quartiles + energy per config."""
    rows: List[LatencyEnergyRow] = []
    for config in fig16_configs():
        # Merging histograms is O(unique latencies), never O(samples).
        latencies = LatencyHistogram()
        background = activation = total = 0.0
        for mix in mixes:
            result = rs.mix(config, mix)
            latencies.merge(result.stats.read_latencies)
            background += result.energy.background_energy_nj(
                result.elapsed_ps)
            activation += result.energy.activation_energy_nj()
            total += result.energy.total_energy_nj(result.elapsed_ps)
        stats = {k: v / 1000.0 for k, v in quartiles(latencies).items()}
        rows.append(LatencyEnergyRow(
            config=config.name, latency_stats_ns=stats,
            background_energy=background, activation_energy=activation,
            total_energy=total))
    return rows


def fig16(context: ExperimentContext) -> List[LatencyEnergyRow]:
    # Fig. 16 never computes weighted speedup, so no alone cells.
    spec = fig16_spec(context.settings, observe=context.observe)
    rs = context.execute(spec)
    return reduce_fig16(rs, context.settings.mixes)


# -- refresh sweep: policy x density grade (docs/REFRESH.md) -----------------


@dataclass
class RefreshPoint:
    """One cell of the refresh sweep: policy x density grade."""

    policy: str
    density: str
    #: GMEAN weighted speedup normalised to the same platform with
    #: refresh off (1.0 = the policy fully hides the refresh tax).
    normalized_ws: float
    #: REF/REFpb commands issued, summed over mixes and channels.
    refreshes: int


def refresh_platform() -> SystemConfig:
    """The sweep's platform: the headline VSB(EWLR+RAP,4P)+DDB config
    (its sub-banks are what the ``sarp`` policy refreshes under open
    neighbours)."""
    return refresh_platform_spec().to_config()


def refresh_configs(densities: Sequence[str] = REFRESH_SWEEP_DENSITIES
                    ) -> List[SystemConfig]:
    return [cs.to_config() for cs in refresh_config_specs(densities)]


def reduce_figref(rs: ResultSet, mixes: Sequence[str],
                  densities: Sequence[str]) -> List[RefreshPoint]:
    """Pure refresh-sweep reducer, normalised to the refresh-off
    platform."""
    base = refresh_platform()
    base_ws = {mix: rs.ws(base, mix)[0] for mix in mixes}
    points: List[RefreshPoint] = []
    for config in refresh_configs(densities):
        normalized, refreshes = [], 0
        for mix in mixes:
            ws, result = rs.ws(config, mix)
            normalized.append(ws / base_ws[mix])
            refreshes += result.stats.refreshes
        points.append(RefreshPoint(
            policy=config.refresh_policy,
            density=config.refresh_density,
            normalized_ws=gmean(normalized),
            refreshes=refreshes))
    return points


def fig_refresh(context: ExperimentContext,
                densities: Sequence[str] = REFRESH_SWEEP_DENSITIES
                ) -> List[RefreshPoint]:
    """Weighted speedup per refresh policy and density grade, normalised
    to the refresh-off platform (the figure in ``docs/REFRESH.md``)."""
    spec = figref_spec(context.settings, densities,
                       observe=context.observe)
    rs = context.execute(spec)
    return reduce_figref(rs, context.settings.mixes, densities)


#: Pure reducer per named figure spec, for callers that execute specs
#: directly through :func:`repro.sim.runner.run_spec`:
#: ``FIGURE_REDUCERS[spec.name](rs, mixes)`` with the spec's default
#: axes.
FIGURE_REDUCERS: Dict[str, Callable[[ResultSet, Sequence[str]], object]] = {
    "fig12": lambda rs, mixes: reduce_fig12(
        rs, [cs.to_config() for cs in rs.spec.configs], mixes),
    "fig13": lambda rs, mixes: reduce_fig13(
        rs, mixes, rs.spec.fragmentations, FIG13_PLANES, FIG13_SCHEMES),
    "fig14": lambda rs, mixes: reduce_fig14(
        rs, mixes, FIG14_BUS_FREQUENCIES_HZ, CoreConfig()),
    "fig15": reduce_fig15,
    "fig16": reduce_fig16,
    "figref": lambda rs, mixes: reduce_figref(
        rs, mixes, REFRESH_SWEEP_DENSITIES),
}


#: Named figure runners: shim per spec in
#: :data:`repro.sim.specs.NAMED_SPECS` (benches and the CLI resolve
#: figures by name through this).
FIGURES: Dict[str, Callable] = {
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15": fig15,
    "fig16": fig16,
    "figref": fig_refresh,
}


def run_figure(name: str, context: ExperimentContext, **axes):
    """Run one named figure spec through ``context`` and reduce it.

    The thin entry point the benches wrap: resolves ``name`` in
    :data:`FIGURES`, executes the figure's declarative spec against the
    store (only absent cells simulate), and returns the reduced table.
    """
    return FIGURES[name](context, **axes)


# -- stall-attribution sidecars ----------------------------------------------


def slug(name: str) -> str:
    """Filesystem-safe slug of a config name (``VSB(EWLR+RAP,4P)+DDB``
    becomes ``vsb-ewlr-rap-4p-ddb``)."""
    out = []
    for ch in name.lower():
        out.append(ch if ch.isalnum() else "-")
    collapsed = "-".join(p for p in "".join(out).split("-") if p)
    return collapsed or "config"


def emit_stats_sidecars(context: ExperimentContext, directory: str,
                        prefix: str = "") -> List[str]:
    """Write one JSON stall-attribution sidecar per observed mix run.

    Walks every result the context has cached so far (i.e. everything
    the figure runners executed) and, for each one that carries an
    accounting report, writes ``<prefix><config-slug>__<mix>.json`` with
    the report's :meth:`~repro.sim.accounting.AccountingReport.to_dict`
    schema (documented in ``docs/OBSERVABILITY.md``) plus a ``system``
    block naming the technology backend and the *effective* refresh
    policy -- ``sarp`` on a non-sub-banked organisation degrades to
    ``darp``, and the sidecar records the policy actually applied.
    Results restored from the store carry their persisted report, so
    re-emitted sidecars are identical to the original run's.  Returns
    the paths written, sorted.  Runs without accounting
    (``observe=False``) are skipped silently, so the helper is safe to
    call unconditionally.
    """
    import json
    import os

    os.makedirs(directory, exist_ok=True)
    s = context.settings
    paths: List[str] = []
    for cell, result in sorted(
            ((cell, result) for cell, result in context._cell_cache.items()
             if cell.kind == "mix" and cell.seed == s.seed
             and cell.accesses == s.accesses_per_core),
            key=lambda kv: (kv[0].config.name, kv[0].workload,
                            kv[0].fragmentation)):
        config, mix, frag = cell.config, cell.workload, cell.fragmentation
        report = result.accounting
        if report is None:
            continue
        report.verify()
        payload = report.to_dict()
        payload["system"] = {
            "backend": config.backend,
            "refresh_policy": config.refresh_policy,
            "effective_refresh_policy": config.effective_refresh_policy,
        }
        name = f"{prefix}{slug(config.name)}__{mix}"
        if frag != context.settings.fragmentation:
            name += f"__frag{frag:g}"
        path = os.path.join(directory, name + ".json")
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return sorted(paths)
