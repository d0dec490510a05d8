"""The cProfile harness shared by ``repro profile`` and tools/, and
the deterministic opcode counter behind ``profile_sim.py --opcodes``."""

import pstats
import sys

from repro.cli import main
from repro.cpu.core import CoreConfig
from repro.sim import config as cfgs
from repro.sim.parallel import SimJob, _run_job
from repro.sim.profiling import count_opcodes, profile_run


class TestProfileRun:
    def test_reports_counters_and_digest(self):
        report = profile_run(cfgs.ddr4_baseline(), "mix0", accesses=60)
        assert report.commands > 0
        assert report.transactions > 0
        assert report.peeks > 0
        assert len(report.digest) == 64
        assert report.commands_per_second > 0

    def test_paths_profile_to_the_same_digest(self):
        cell = dict(mix="mix0", accesses=60)
        reference = profile_run(cfgs.vsb(), incremental=False, **cell)
        incremental = profile_run(cfgs.vsb(), incremental=True, **cell)
        assert reference.digest == incremental.digest
        assert reference.commands == incremental.commands
        # The selection tables examine strictly fewer candidates.
        assert (incremental.candidates_examined
                < reference.candidates_examined)

    def test_format_table_lists_scheduler_frames(self):
        report = profile_run(cfgs.ddr4_baseline(), "mix0", accesses=60)
        text = report.format_table(limit=40, sort="cumulative")
        assert "digest:" in text
        assert "simulator" in text  # the profiled event loop shows up

    def test_dump_writes_loadable_pstats(self, tmp_path):
        report = profile_run(cfgs.ddr4_baseline(), "mix0", accesses=60)
        out = tmp_path / "profile.pstats"
        report.dump(str(out))
        assert pstats.Stats(str(out)).total_calls > 0


class TestProfileCli:
    def test_repro_profile_smoke(self, capsys):
        main(["profile", "--config", "ddr4", "--mix", "mix0",
              "--accesses", "60", "--limit", "5"])
        out = capsys.readouterr().out
        assert "digest:" in out
        assert "commands:" in out

    def test_repro_profile_reference_path(self, capsys):
        main(["profile", "--config", "ddr4", "--mix", "mix0",
              "--accesses", "60", "--path", "reference"])
        assert "digest:" in capsys.readouterr().out


class TestCountOpcodes:
    def _job(self, config):
        return SimJob(config=config, accesses=30, fragmentation=0.1,
                      seed=0, core_config=CoreConfig(), mix="mix0")

    def test_digest_equals_the_uninstrumented_run(self):
        jobs = [self._job(cfgs.vsb()), self._job(cfgs.masa(4))]
        report = count_opcodes(jobs)
        assert report.digests == [_run_job(job).digest() for job in jobs]
        assert report.commands == sum(
            _run_job(job).stats.commands_issued for job in jobs)
        assert sys.gettrace() is None  # the tracer is removed again

    def test_rows_sum_to_the_totals(self):
        report = count_opcodes([self._job(cfgs.vsb())])
        assert report.calls > report.commands > 0
        assert report.opcodes > report.calls
        assert sum(row[1] for row in report.rows) == report.calls
        assert sum(row[2] for row in report.rows) == report.opcodes
        names = [row[0] for row in report.rows]
        assert len(names) == len(set(names))
        assert any("Scheduler.best" in name for name in names)

    def test_counts_are_deterministic(self):
        job = self._job(cfgs.ddr4_baseline())
        first, second = count_opcodes([job]), count_opcodes([job])
        assert (first.calls, first.opcodes) == \
            (second.calls, second.opcodes)

    def test_tool_prints_per_command_counts(self, capsys):
        import importlib.util
        import pathlib
        path = (pathlib.Path(__file__).resolve().parents[2] / "tools"
                / "profile_sim.py")
        spec = importlib.util.spec_from_file_location("profile_sim", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert tool.main(["--opcodes", "--spec", "fig13", "--accesses",
                          "20", "--mixes", "mix0", "--cell", "3",
                          "--limit", "5"]) == 0
        out = capsys.readouterr().out
        assert "calls/cmd:" in out and "opcodes/cmd:" in out
        assert out.count("digest:") == 1
