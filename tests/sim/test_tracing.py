"""The per-command event trace: schema, capping, exporters."""

import csv
import io
import json
from dataclasses import replace

import pytest

from repro.core.mechanisms import EruConfig
from repro.dram.commands import CommandKind
from repro.sim import config as cfgs
from repro.sim.accounting import ObserveOptions, StallBucket
from repro.sim.simulator import run_traces
from repro.sim.tracing import TRACE_FIELDS, TraceEvent, TraceSink
from repro.workloads.mixes import mix_traces


def traced_run(config, mix="mix0", accesses=250, limit=None):
    return run_traces(
        config, mix_traces(mix, accesses),
        observe=ObserveOptions(trace=True, trace_limit=limit))


def test_one_event_per_committed_command():
    result = traced_run(cfgs.vsb(EruConfig.full(4)))
    assert result.trace is not None
    assert len(result.trace) == result.stats.commands_issued
    assert result.trace.dropped == 0


def test_events_carry_the_documented_schema():
    plain = cfgs.vsb(EruConfig.full(4))
    sarp = replace(plain, refresh_density="16Gb", refresh_policy="sarp",
                   name=f"{plain.name}+ref-sarp-16Gb")
    buckets = {b.value for b in StallBucket}
    kinds = {k.name for k in CommandKind}
    for config in (plain, sarp):
        result = traced_run(config)
        assert all(tuple(d) == TRACE_FIELDS
                   for d in result.trace.to_dicts())
        for event in result.trace:
            assert event.time_ps >= 0
            assert event.kind in kinds
            assert event.stall in buckets
            assert event.wait_ps >= 0
            if event.kind == "ACT":
                assert event.row >= 0 and event.core >= 0
            if event.kind in ("RD", "WR"):
                assert event.row == -1 and event.core >= 0
            if event.kind not in ("PRE", "PRE_PARTIAL"):
                assert event.cause == ""
            if event.kind in ("REF", "REFPB"):
                # Refresh serves no transaction; the scope rides in
                # bank/subbank, with -1 as the "all" wildcard.
                assert event.row == -1 and event.core == -1
                assert event.group == -1
                assert (event.bank == -1) == (event.kind == "REF")
                assert event.stall in (StallBucket.ISSUE.value,
                                       StallBucket.REFRESH.value)
        refreshes = sum(e.kind in ("REF", "REFPB") for e in result.trace)
        assert (refreshes > 0) == config.refresh_enabled, config.name


def test_per_channel_traces_interleave_monotonically():
    result = traced_run(cfgs.ddr4_baseline())
    last = {}
    for event in result.trace:
        if event.channel in last:
            assert event.time_ps > last[event.channel]
        last[event.channel] = event.time_ps
    assert len(last) == 2, "both channels of the preset must appear"


def test_precharge_events_name_their_cause():
    result = traced_run(cfgs.vsb(EruConfig.naive(4)), accesses=400)
    pres = [e for e in result.trace
            if e.kind in ("PRE", "PRE_PARTIAL")]
    assert pres, "a 400-access mix must precharge at least once"
    assert all(e.cause for e in pres)
    assert any(e.cause == "plane_conflict" for e in pres), \
        "naive VSB exists to demonstrate plane-conflict precharges"


def test_trace_limit_counts_dropped_events():
    full = traced_run(cfgs.ddr4_baseline(), accesses=200)
    total = len(full.trace)
    capped = traced_run(cfgs.ddr4_baseline(), accesses=200,
                        limit=total // 2)
    assert len(capped.trace) == total // 2
    assert capped.trace.dropped == total - total // 2
    assert capped.trace.to_dicts() == full.trace.to_dicts()[:total // 2]


def test_zero_limit_keeps_nothing_but_counts_everything():
    result = traced_run(cfgs.ddr4_baseline(), accesses=150, limit=0)
    assert len(result.trace) == 0
    assert result.trace.dropped == result.stats.commands_issued


def test_negative_limit_rejected():
    with pytest.raises(ValueError):
        TraceSink(limit=-1)


def test_jsonl_roundtrip():
    result = traced_run(cfgs.vsb(), accesses=150)
    payload = io.StringIO()
    count = result.trace.write_jsonl(payload)
    lines = payload.getvalue().splitlines()
    assert count == len(lines) == len(result.trace)
    parsed = [json.loads(line) for line in lines]
    assert parsed == [dict(sorted(d.items()))
                      for d in result.trace.to_dicts()]
    assert all(set(d) == set(TRACE_FIELDS) for d in parsed)


def test_csv_roundtrip():
    result = traced_run(cfgs.vsb(), accesses=150)
    payload = io.StringIO()
    count = result.trace.write_csv(payload)
    rows = list(csv.reader(io.StringIO(payload.getvalue())))
    assert tuple(rows[0]) == TRACE_FIELDS
    assert len(rows) - 1 == count
    first = dict(zip(TRACE_FIELDS, rows[1]))
    original = result.trace.to_dicts()[0]
    assert int(first["time_ps"]) == original["time_ps"]
    assert first["kind"] == original["kind"]
    assert first["stall"] == original["stall"]


def test_sink_is_shared_across_channels_in_time_order_per_record():
    sink = TraceSink()
    for i, ch in enumerate((0, 1, 0)):
        sink.record(TraceEvent(
            time_ps=i * 1000, channel=ch, bank=0, subbank=0, group=0,
            kind="ACT", cause="", row=1, core=0, stall="issue",
            wait_ps=0))
    assert [e.channel for e in sink] == [0, 1, 0]
    assert len(sink) == 3


def test_trace_wait_matches_accounting_totals():
    """Sum of traced waits == sum of non-issue, non-tail gap buckets."""
    result = traced_run(cfgs.vsb(EruConfig.full(4)), accesses=300)
    report = result.accounting
    traced_wait = sum(e.wait_ps for e in result.trace)
    totals = report.totals()
    tail_free = sum(ps for bucket, ps in totals.items()
                    if bucket is not StallBucket.ISSUE)
    # The accounting additionally files the post-last-command drained
    # tail (and any pre-first-arrival idle) outside the trace, so the
    # traced waits can only undershoot.
    assert traced_wait <= tail_free
    # But each traced wait must itself be accounted: a run's gaps
    # dominate its issue slots on a memory-bound mix.
    assert traced_wait > 0
