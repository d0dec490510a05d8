"""Tests for the experiment runners (small scale, shape assertions)."""

import pytest

from repro.sim.config import ddr4_baseline, ideal32, vsb
from repro.sim.experiments import (
    ExperimentContext,
    ExperimentSettings,
    fig12,
    fig12_configs,
    fig13,
    fig14,
    fig14_configs,
    fig15,
    fig15_configs,
    fig16,
    fig16_configs,
)

SMALL = ExperimentSettings(accesses_per_core=400, mixes=("mix0",))


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(SMALL)


class TestContext:
    def test_traces_cached(self, context):
        a = context.traces("mix0")
        b = context.traces("mix0")
        assert a is b

    def test_traces_differ_by_fragmentation(self, context):
        a = context.traces("mix0", 0.1)
        b = context.traces("mix0", 0.9)
        assert a is not b

    def test_alone_ipc_cached_and_positive(self, context):
        a = context.alone_ipc("mcf")
        assert a > 0
        assert context.alone_ipc("mcf") == a

    def test_mix_ws_positive(self, context):
        ws, result = context.mix_ws(ddr4_baseline(), "mix0")
        assert ws > 0
        assert result.transactions == 4 * SMALL.accesses_per_core


    def test_lookups_share_the_spec_grid_cache(self, monkeypatch):
        """``mix_ws``/``alone_ipc`` after a figure run read the cells the
        spec path filled: same values bit for bit, nothing simulated."""
        import repro.sim.parallel as parallel
        from repro.sim.specs import ConfigSpec, ExperimentSpec

        settings = ExperimentSettings(accesses_per_core=150,
                                      mixes=("mix0",))
        context = ExperimentContext(settings, disk_cache=False)
        table = fig12(context, [ddr4_baseline(), vsb()])

        def no_simulation(job):
            raise AssertionError(f"simulated a cached cell: {job}")

        monkeypatch.setattr(parallel, "_run_job", no_simulation)
        rs = context.execute(ExperimentSpec(
            name="fig12", mixes=("mix0",), accesses_per_core=150,
            configs=(ConfigSpec(inline=vsb()),)))
        ws, result = context.mix_ws(vsb(), "mix0")
        assert ws == table.values[vsb().name]["mix0"]
        assert result is rs.mix(vsb(), "mix0")
        assert context.alone_ipc("mcf") == rs.alone_ipc("mcf")
        assert context.last_report.memory_hits == 1
        assert context.last_report.submitted == 0

    def test_observed_run_carries_accounting(self):
        context = ExperimentContext(
            ExperimentSettings(accesses_per_core=120, mixes=("mix0",)),
            disk_cache=False, observe=True)
        result = context.run(vsb(), "mix0")
        assert result.accounting is not None
        result.accounting.verify()
        assert context.run(vsb(), "mix0") is result


class TestFig12:
    def test_table_covers_all_configs(self, context):
        table = fig12(context, configs=[ddr4_baseline(), ideal32()])
        assert set(table.values) == {"DDR4", "Ideal32"}

    def test_normalised_baseline_is_one(self, context):
        table = fig12(context, configs=[ddr4_baseline(), ideal32()])
        norm = table.normalized()
        assert all(v == pytest.approx(1.0)
                   for v in norm["DDR4"].values())

    def test_gmeans_exist_per_config(self, context):
        table = fig12(context, configs=[ddr4_baseline(), vsb()])
        gm = table.gmeans()
        assert gm["DDR4"] == pytest.approx(1.0)
        assert gm[vsb().name] > 0

    def test_default_config_list_shape(self):
        names = [c.name for c in fig12_configs()]
        assert names[0] == "DDR4"
        assert any("Ideal32" in n for n in names)
        assert any("Paired-bank" in n for n in names)


class TestFig13:
    def test_points_cover_grid(self, context):
        points = fig13(context, fragmentations=(0.1,), planes=(2, 4),
                       schemes=(("VSB(naive)+DDB",
                                 __import__("repro.core.mechanisms",
                                            fromlist=["EruConfig"])
                                 .EruConfig.naive_ddb),))
        assert len(points) == 2
        assert {p.planes for p in points} == {2, 4}
        for p in points:
            assert p.normalized_ws > 0
            assert 0.0 <= p.plane_precharge_fraction <= 1.0


class TestFig14:
    def test_frequency_points(self, context):
        points = fig14(context, frequencies=(1.333e9, 2.0e9))
        configs = {p.config for p in points}
        assert len(configs) == len(fig14_configs())
        assert len(points) == 2 * len(configs)

    def test_config_list_contains_bg_and_ddb_variants(self):
        names = [c.name for c in fig14_configs()]
        assert any("DDB" in n for n in names)
        assert any("DDB" not in n for n in names)


class TestFig15:
    def test_covers_prior_work(self, context):
        out = fig15(context)
        assert any("Half-DRAM" in k for k in out)
        assert any("MASA8+ERUCA" in k for k in out)
        assert all(v > 0 for v in out.values())

    def test_config_list(self):
        names = [c.name for c in fig15_configs()]
        assert "MASA4" in names and "MASA8" in names


class TestFig16:
    def test_rows_have_latency_and_energy(self, context):
        rows = fig16(context)
        assert [r.config for r in rows] == [c.name
                                            for c in fig16_configs()]
        for row in rows:
            assert set(row.latency_stats_ns) == {
                "mean", "q1", "median", "q3"}
            assert row.total_energy > row.background_energy > 0

    def test_relative_energy(self, context):
        rows = fig16(context)
        rel = rows[1].relative_to(rows[0])
        assert set(rel) == {"background", "activation", "total"}
        assert all(v > 0 for v in rel.values())


class TestSettings:
    def test_quick_shrinks(self):
        s = ExperimentSettings()
        q = s.quick()
        assert q.accesses_per_core < s.accesses_per_core
        assert len(q.mixes) <= 2
