"""The cycle-accounting layer: invariants, neutrality, and exports.

Three families of guarantees:

1. **Sum invariant** -- on every configuration preset, each channel's
   stall buckets sum exactly to its accounted wall time (and the issue
   bucket is exactly one ``tCK`` per command).
2. **Observer neutrality** -- observation never changes behaviour: the
   command stream and result digest are bit-identical with the
   observer on or off.
3. **Explain/earliest agreement** -- the tagged floor decompositions
   (``Channel.explain_*`` / ``ChannelResources.*_floors``) reproduce
   the matching ``earliest_*`` legality query exactly, on live
   pre-issue state throughout real runs.
"""

import hashlib
import io
import json
from dataclasses import replace

import pytest

from repro.core.mechanisms import EruConfig
from repro.cpu.core import CoreConfig, TraceCore
from repro.dram.commands import CommandKind
from repro.sim import config as cfgs
from repro.sim.accounting import (
    AccountingReport,
    ChannelAccounting,
    ObserveOptions,
    StallBucket,
    binding_floor,
)
from repro.sim.simulator import MemorySystem, Simulator, run_traces
from repro.workloads.mixes import mix_traces

from tests.sim.test_equivalence import PRESETS, command_stream_hash


def observed_run(config, traces, trace=False, record_commands=False):
    if record_commands:
        config = replace(config, record_commands=True)
    system = MemorySystem(config, observe=ObserveOptions(trace=trace))
    cores = [TraceCore(t, CoreConfig(), core_id=i)
             for i, t in enumerate(traces)]
    result = Simulator(system, cores).run()
    return result, system


# -- 1. the sum invariant, on every preset -------------------------------


@pytest.mark.parametrize("config", PRESETS,
                         ids=[c.name for c in PRESETS])
def test_buckets_sum_to_wall_time_on_every_preset(config):
    traces = mix_traces("mix1", 250)
    result, _ = observed_run(config, traces)
    report = result.accounting
    assert report is not None
    report.verify()  # per-channel sum + issue-bucket invariants
    assert sum(report.totals().values()) == report.wall_ps()
    for channel in report.channels:
        assert sum(channel.buckets.values()) == channel.horizon_ps
        assert (channel.buckets[StallBucket.ISSUE]
                == channel.commands * channel.tCK)
        # The horizon covers the run: nothing accounted past the end,
        # except a channel whose last command outlived the cores.
        assert channel.horizon_ps >= 0


@pytest.mark.parametrize("config", PRESETS[:4],
                         ids=[c.name for c in PRESETS[:4]])
def test_bank_counters_match_controller_stats(config):
    traces = mix_traces("mix0", 300)
    result, _ = observed_run(config, traces)
    merged = result.accounting.merged_bank_stats()
    assert merged.acts == result.stats.acts
    assert merged.ewlr_hits == result.stats.ewlr_hits
    assert merged.columns == result.stats.columns
    assert merged.precharges == result.stats.precharges
    assert merged.partial_precharges == result.energy.partial_precharges
    by_cause = {c.value: n for c, n in result.precharge_causes.items()}
    assert (merged.plane_conflict_precharges
            == by_cause.get("plane_conflict", 0))
    assert (merged.row_conflict_precharges
            == by_cause.get("row_conflict", 0))
    assert (result.accounting.commands()
            == result.stats.commands_issued)


def test_fig12_mix_attribution_sums():
    """The ISSUE acceptance criterion: fig12-mix stats add up."""
    for config in (cfgs.ddr4_baseline(), cfgs.vsb(EruConfig.full(4))):
        result = run_traces(config, mix_traces("mix0", 400),
                            observe=True)
        report = result.accounting
        report.verify()
        table = report.format_table()
        assert "stall attribution" in table
        assert f"{report.wall_ps():14d}" in table  # the total row


# -- 2. observer neutrality ----------------------------------------------


@pytest.mark.parametrize("config", PRESETS,
                         ids=[c.name for c in PRESETS])
def test_observation_never_changes_the_command_stream(config):
    traces = mix_traces("mix0", 250)
    plain_result, plain_system = observed_run(
        replace(config, record_commands=True), traces, trace=False)
    # Manual un-observed run with command recording.
    system = MemorySystem(replace(config, record_commands=True))
    cores = [TraceCore(t, CoreConfig(), core_id=i)
             for i, t in enumerate(traces)]
    result = Simulator(system, cores).run()
    assert result.accounting is None and result.trace is None
    assert (command_stream_hash(system)
            == command_stream_hash(plain_system))
    assert result.digest() == plain_result.digest()


def test_digest_excludes_observability():
    traces = mix_traces("mix2", 200)
    observed = run_traces(cfgs.vsb(), traces,
                          observe=ObserveOptions(trace=True))
    plain = run_traces(cfgs.vsb(), traces)
    assert observed.accounting is not None
    assert observed.trace is not None
    assert plain.accounting is None
    assert observed.digest() == plain.digest()


# -- 3. explain floors == earliest queries -------------------------------


@pytest.mark.parametrize("config", PRESETS,
                         ids=[c.name for c in PRESETS])
def test_explain_floors_match_earliest_throughout_a_run(config):
    """On live pre-issue state, max(floors) == the legality query.

    Patches the controller commit path to cross-check every command the
    scheduler actually issues, covering every policy/organisation arm
    of the floor decompositions with real traffic.
    """
    system = MemorySystem(config)
    checked = 0
    for controller in system.controllers:
        channel = controller.channel
        original = controller.commit

        def commit(candidate, channel=channel, original=original):
            nonlocal checked
            txn = candidate.txn
            if candidate.kind is CommandKind.PRE:
                bank_index, slot = candidate.victim
                floors = channel.explain_precharge(bank_index, slot)
                expected = channel.earliest_precharge(bank_index, slot)
            elif candidate.kind is CommandKind.ACT:
                floors = channel.explain_act(txn.coords)
                expected = channel.earliest_act(txn.coords)
            else:
                is_write = candidate.kind is CommandKind.WR
                floors = channel.explain_column(txn.coords, is_write)
                expected = channel.earliest_column(txn.coords, is_write)
            assert max(t for _, t in floors) == expected
            checked += 1
            return original(candidate)

        controller.commit = commit
    cores = [TraceCore(t, CoreConfig(), core_id=i)
             for i, t in enumerate(mix_traces("mix3", 150))]
    Simulator(system, cores).run()
    assert checked > 100


def test_binding_floor_prefers_specific_tags_on_ties():
    floors = [("bus", 100), ("ccd_wtr_long", 100), ("bank_busy", 90)]
    bucket, released = binding_floor(floors)
    assert bucket is StallBucket.CCD_WTR_LONG
    assert released == 100
    bucket, _ = binding_floor([("bus", 50), ("bank_busy", 50),
                               ("ddb_window", 50)])
    assert bucket is StallBucket.DDB_WINDOW


# -- unit-level accounting behaviour -------------------------------------


def test_channel_accounting_queue_empty_vs_request_gap():
    acc = ChannelAccounting(0, tCK=750, ewlr=False)
    # Queue empty from 0; first txn arrives at 1000; ACT issues at 4000
    # with a device floor releasing at 4000 (bank busy).
    acc.note_nonempty(1000)
    bucket, wait = acc.on_command(
        4000, CommandKind.ACT, None, bank=0, subbank=0,
        floors=[("bus", 0), ("bank_busy", 4000)], ewlr_hit=False,
        partial=False, queue_empty_after=False)
    assert bucket is StallBucket.BANK_BUSY
    assert wait == 3000  # past the queue-empty prefix
    assert acc.buckets[StallBucket.QUEUE_EMPTY] == 1000
    assert acc.buckets[StallBucket.BANK_BUSY] == 3000
    acc.finish(10_000)
    acc.verify()
    # Queue stayed non-empty after the command, so the tail past the
    # command end files as request_gap, not queue_empty.
    assert acc.buckets[StallBucket.REQUEST_GAP] == 10_000 - 4750
    assert sum(acc.buckets.values()) == 10_000


def test_channel_accounting_idle_tail_is_queue_empty():
    acc = ChannelAccounting(0, tCK=750, ewlr=False)
    acc.note_nonempty(0)
    acc.on_command(0, CommandKind.ACT, None, 0, 0,
                   floors=[("bus", 0)], ewlr_hit=False, partial=False,
                   queue_empty_after=True)
    acc.finish(5750)
    acc.verify()
    assert acc.buckets[StallBucket.ISSUE] == 750
    assert acc.buckets[StallBucket.QUEUE_EMPTY] == 5000


def test_channel_accounting_rejects_overlapping_commands():
    acc = ChannelAccounting(0, tCK=750, ewlr=False)
    acc.on_command(1000, CommandKind.ACT, None, 0, 0, [("bus", 0)],
                   False, False, False)
    with pytest.raises(ValueError):
        acc.on_command(1200, CommandKind.ACT, None, 0, 0, [("bus", 0)],
                       False, False, False)


def test_plane_conflict_files_as_ewlr_miss_only_with_ewlr():
    from repro.dram.commands import PrechargeCause
    for ewlr, expected in ((True, StallBucket.EWLR_MISS),
                           (False, StallBucket.PLANE_CONFLICT)):
        acc = ChannelAccounting(0, tCK=750, ewlr=ewlr)
        acc.note_nonempty(0)
        bucket, _ = acc.on_command(
            2000, CommandKind.PRE, PrechargeCause.PLANE_CONFLICT,
            0, 0, None, False, False, False)
        assert bucket is expected
        assert acc.buckets[expected] == 2000


# -- exports -------------------------------------------------------------


def test_report_json_and_csv_roundtrip(tmp_path):
    result = run_traces(cfgs.vsb(), mix_traces("mix0", 200),
                        observe=True)
    report = result.accounting
    payload = io.StringIO()
    report.write_json(payload)
    data = json.loads(payload.getvalue())
    assert data["config"] == result.config_name
    assert sum(data["buckets_ps"].values()) == data["wall_ps"]
    for channel in data["channels"]:
        assert (sum(channel["buckets_ps"].values())
                == channel["horizon_ps"])
    assert data["commands"] == result.stats.commands_issued
    assert data["banks"], "per-bank rows must be present"
    rows = report.bucket_csv_rows()
    assert rows[0] == ["channel", "bucket", "ps"]
    assert sum(r[2] for r in rows[1:]) == report.wall_ps()


def test_reports_pickle_for_the_process_pool():
    import pickle
    result = run_traces(cfgs.vsb(), mix_traces("mix0", 150),
                        observe=ObserveOptions(trace=True,
                                               trace_limit=50))
    clone = pickle.loads(pickle.dumps(result))
    assert clone.accounting.wall_ps() == result.accounting.wall_ps()
    assert len(clone.trace) == len(result.trace)


def test_emit_stats_sidecars(tmp_path):
    from repro.sim.experiments import (ExperimentContext,
                                       ExperimentSettings,
                                       emit_stats_sidecars)
    settings = ExperimentSettings(accesses_per_core=150,
                                  mixes=("mix0",))
    context = ExperimentContext(settings, disk_cache=False,
                                observe=True)
    context.run(cfgs.ddr4_baseline(), "mix0")
    context.run(cfgs.vsb(), "mix0")
    paths = emit_stats_sidecars(context, str(tmp_path), prefix="t__")
    assert len(paths) == 2
    for path in paths:
        with open(path) as fh:
            data = json.load(fh)
        assert sum(data["buckets_ps"].values()) == data["wall_ps"]


def test_unobserved_context_emits_nothing(tmp_path):
    from repro.sim.experiments import (ExperimentContext,
                                       ExperimentSettings,
                                       emit_stats_sidecars)
    context = ExperimentContext(
        ExperimentSettings(accesses_per_core=120, mixes=("mix0",)),
        disk_cache=False)
    context.run(cfgs.ddr4_baseline(), "mix0")
    assert emit_stats_sidecars(context, str(tmp_path)) == []


def test_observed_grid_jobs_carry_reports():
    from repro.cpu.core import CoreConfig as CC
    from repro.sim.parallel import SimJob, run_grid
    job = SimJob(config=cfgs.vsb(), accesses=120, fragmentation=0.1,
                 seed=0, core_config=CC(), mix="mix0", observe=True)
    plain = replace(job, observe=False)
    observed_result, plain_result = run_grid([job, plain], workers=2)
    assert observed_result.accounting is not None
    observed_result.accounting.verify()
    assert plain_result.accounting is None
    assert observed_result.digest() == plain_result.digest()


# -- 4. pinned observer output -------------------------------------------


def _pin_config(policy):
    config = cfgs.vsb()
    if policy is None:
        return config
    return replace(config, refresh_density="16Gb", refresh_policy=policy,
                   name=f"{config.name}+ref-{policy}-16Gb")


#: sha256 of the canonical ``AccountingReport.to_dict()`` JSON and of
#: the JSONL event trace, per refresh policy (``None`` = refresh off),
#: for ``vsb`` on mix0 at 200 accesses per core.  Bucket values and
#: event fields are otherwise only held to invariants, so these pins
#: catch an observer change that moves time between buckets.  The run
#: ends before the all-bank ``baseline``'s first tREFI deadline, so its
#: event trace equals the refresh-off one (its report differs only in
#: the config name); ``darp``/``sarp`` refresh from ~tREFI/banks on.
OBSERVER_PINS = {
    None: (
        "c8af88079399fea0a6811b04f42073cb5c184b5884d8cbde543067d240ed400f",
        "d82e2c92066f75af97c163852426348ae88bd075062b4863df5d1655a45c633d"),
    "baseline": (
        "64153c9ace67e60bcda7a91c9288de0c6b7846f4c891621914799632388576f8",
        "d82e2c92066f75af97c163852426348ae88bd075062b4863df5d1655a45c633d"),
    "darp": (
        "1d0ba536a969441d1b38f10224a8acaa3af9aa9fd827617cc1832678988d7965",
        "572d0147d91b44fb025a86ae6d5263d0247198f0c21d42abd1735d99e0ac78e8"),
    "sarp": (
        "130926c42e1d06b87a13faad6b0b8a2ad20c59887081b9d57d78df8a1c6a7a78",
        "7256569cce2926a75fe9e66b017919c85a2a9595bc1451c4539dfb9662f82d8a"),
}


def observer_digests(policy):
    result = run_traces(_pin_config(policy), mix_traces("mix0", 200),
                        observe=ObserveOptions(trace=True))
    report = json.dumps(result.accounting.to_dict(), sort_keys=True,
                        separators=(",", ":"))
    events = io.StringIO()
    result.trace.write_jsonl(events)
    return (hashlib.sha256(report.encode()).hexdigest(),
            hashlib.sha256(events.getvalue().encode()).hexdigest())


@pytest.mark.parametrize("policy", list(OBSERVER_PINS),
                         ids=lambda p: p or "off")
def test_observer_output_is_pinned(policy):
    assert observer_digests(policy) == OBSERVER_PINS[policy]
