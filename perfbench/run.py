"""Repository benchmark: figure-grid workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figref-observed --seed 1 --seconds 35 --trace 0

Each workload is one client that submits a figure grid and waits for
it.  Every timed iteration runs in a fresh interpreter
(``perfbench/child.py``) with a fresh result store under
``.perfbench_tmp/``, so nothing warmed by an earlier iteration (trace
memo, worker pool, route memos) is reused.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics.
Every iteration's outputs are checked against ``perfbench/pins.json``
(seeds 0-2) or against the run's first output (any other seed); the
last line of standard output is the JSON result.

``--write-pins`` recomputes ``pins.json`` for a scale (run it only
after a change that is meant to alter simulated behaviour).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import probe  # noqa: E402
from workloads import (  # noqa: E402
    PINNED_SEEDS,
    SCALE_ENV,
    SCALES,
    WARM_SETUPS,
    WORKLOADS,
)

CHILD = os.path.join(HERE, "child.py")
PINS = os.path.join(HERE, "pins.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
#: Hard cap on one child step (a cold grid, a fill, a warm interpreter).
CHILD_TIMEOUT_S = 150
#: CPUs the benchmark may run on; serial iterations alternate over them.
CPUS = sorted(os.sched_getaffinity(0))
#: Warm passes run in groups of about this many seconds, each group
#: on one CPU and with its own probe of the host's speed.
WARM_GROUP_S = 1.0


class StepFailed(RuntimeError):
    """A child step exited non-zero or timed out."""


class Steps:
    """Runs child steps, each with its own fresh store directory."""

    def __init__(self) -> None:
        self.root = os.path.join(SCRATCH, str(os.getpid()))
        self.count = 0

    def new_store(self) -> str:
        self.count += 1
        path = os.path.join(self.root, f"store{self.count}")
        os.makedirs(path)
        return path

    def popen(self, job: dict, store: str, **streams):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(SCALE_ENV[job["scale"]], REPRO_CACHE_DIR=store)
        job = dict(job, launched=time.monotonic())
        return subprocess.Popen(
            [sys.executable, CHILD, json.dumps(job)], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, text=True, start_new_session=True,
            **streams)

    def session(self, job: dict, store: str) -> "Session":
        """Start a step that answers requests (a warm interpreter)."""
        self.count += 1
        err = os.path.join(self.root, f"stderr{self.count}")
        with open(err, "w") as fh:
            proc = self.popen(job, store, stdin=subprocess.PIPE, stderr=fh)
        return Session(proc, err, job["mode"])

    def run(self, job: dict, store: str) -> dict:
        proc = self.popen(job, store, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise StepFailed(f"{job['mode']} step timed out")
        if proc.returncode != 0:
            raise StepFailed(f"{job['mode']} step failed:\n{err[-3000:]}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        try:
            os.rmdir(SCRATCH)
        except OSError:
            pass


class Session:
    """A running step that answers one JSON line per request.  It is
    killed, with its process group, if it outlives ``CHILD_TIMEOUT_S``
    or is closed early; either way it is waited for."""

    def __init__(self, proc, err: str, mode: str) -> None:
        self.proc, self.err, self.mode = proc, err, mode
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.kill)
        self.timer.start()

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            with open(self.err) as fh:
                raise StepFailed(f"{self.mode} step failed:\n"
                                 f"{fh.read()[-3000:]}")
        return json.loads(line)

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def finish(self) -> dict:
        """Ask the step to end and return its last line."""
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        out = self.read()
        self.proc.wait()
        self.close()
        return out

    def close(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.kill()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self.proc.wait()


#: The tail cell is the slowest one with this many cells beyond it.
TAIL_BEYOND = 10


def med(values):
    return statistics.median(values)


def scaled_per_cell(rows):
    """Each cell's median probe-scaled host time (s) over the run's
    iterations.  Cold rows key cells by store key; warm passes serve
    them in one order."""
    first = rows[0]["cell_s"]
    if isinstance(first, dict):
        return [med([r["cell_s"][key] / r["host_factor"] for r in rows])
                for key in first]
    return [med([t / r["host_factor"] for t, r in zip(times, rows)])
            for times in zip(*(r["cell_s"] for r in rows))]


# -- one run of a workload -----------------------------------------------------


class Run:
    """Collects iterations of one workload and checks their outputs.

    With a pinned seed every iteration's digests must equal the pins;
    otherwise they must equal the run's first output (a traced run also
    cross-checks the program at ``pinned_settings()``)."""

    def __init__(self, args, pin, cells: int) -> None:
        self.args = args
        self.expected = pin
        self.cells = cells
        self.steps = Steps()
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.rows = []
        self.setups = []

    def job(self, mode: str, **extra) -> dict:
        return dict(mode=mode, workload=self.args.workload,
                    scale=self.args.scale, accesses=self.args.accesses,
                    sim_seed=self.args.seed, **extra)

    def check(self, row: dict, label: str) -> None:
        """Count the row's cells; a wrong digest, a bypass violation or
        any other problem fails all of them."""
        problems = list(row.get("problems", ()))
        if self.expected is None:
            self.expected = {"grid": row["grid_digest"],
                             "figure": row["figure_digest"],
                             "source": "the run's first output"}
        source = self.expected.get("source", "pin")
        if row["grid_digest"] != self.expected["grid"]:
            problems.append(f"grid digest differs from {source}")
        if row["figure_digest"] != self.expected["figure"]:
            problems.append(f"figure digest differs from {source}")
        problems += [f"bypass: {b}" for b in row.get("bypass", ())]
        self.attempted += row["cells"]
        if problems:
            self.failed += row["cells"]
            self.notes.append(f"{label}: " + "; ".join(problems))

    def step_failed(self, label: str, error: Exception) -> None:
        self.attempted += self.cells
        self.failed += self.cells
        self.notes.append(f"{label}: {error}")

    # -- cold workloads ----------------------------------------------------

    def cold(self) -> None:
        """Fresh-interpreter iterations until ``--seconds`` is used up,
        each while the probe samples the host's speed on its CPUs."""
        pooled = WORKLOADS[self.args.workload]["jobs"] > 1
        start = time.monotonic()
        while True:
            traced = self.args.trace and len(self.rows) % 2 == 1
            label = f"iteration {len(self.rows) + 1}" + (
                " (traced)" if traced else "")
            # Traced and untraced iterations both alternate CPUs.
            cpu = len(self.rows) // 2 if self.args.trace else len(self.rows)
            cpus = CPUS if pooled else [CPUS[cpu % len(CPUS)]]
            began = time.monotonic()
            try:
                with probe.Sampler(cpus) as sampler:
                    row = self.steps.run(
                        self.job("cold", trace=traced, cpu=cpu),
                        self.steps.new_store())
            except StepFailed as error:
                self.step_failed(label, error)
                return
            row["host_factor"] = sampler.factor()
            row["traced"] = traced
            self.check(row, label)
            self.rows.append(row)
            self.setups.append(row["setup_s"] / row["host_factor"])
            print(f"{label}: wall {row['wall_s']:.3f} s, "
                  f"{row['cells']} cells, setup {row['setup_s']:.3f} s, "
                  f"host factor {row['host_factor']:.3f}")
            done = time.monotonic()
            enough = any(r["traced"] for r in self.rows) \
                or not self.args.trace
            if enough and done - start + (done - began) > self.args.seconds:
                return

    # -- warm workload -----------------------------------------------------

    def warm(self) -> None:
        """One store fill (in its own interpreter, before the timed
        part), then ``WARM_SETUPS`` warm interpreters in turn, each
        running groups of passes over that store for its share of
        ``--seconds``.  Each group runs on one CPU while the probe
        samples the host's speed there; the CPUs alternate.  Each warm
        interpreter's start is one set-up sample."""
        store = self.steps.new_store()
        began = time.monotonic()
        try:
            fill = self.steps.run(self.job("fill"), store)
        except StepFailed as error:
            self.step_failed("fill", error)
            return
        self.check(fill, "fill")
        print(f"fill: {fill['cells']} cells in "
              f"{time.monotonic() - began:.3f} s")
        start, groups = time.monotonic(), 0
        for i in range(WARM_SETUPS):
            deadline = start + self.args.seconds * (i + 1) / WARM_SETUPS
            rows, session = [], None
            start_up = probe.Sampler(CPUS).start()
            try:
                session = self.steps.session(
                    self.job("warm", trace=self.args.trace), store)
                setup = session.read()["setup_s"]
                start_up.stop()
                self.setups.append(setup / start_up.factor())
                while True:
                    cpu = [CPUS[groups % len(CPUS)]]
                    with probe.Sampler(cpu) as sampler:
                        group = session.ask({"cpu": groups,
                                             "seconds": WARM_GROUP_S})
                    for row in group["passes"]:
                        row["host_factor"] = sampler.factor()
                    rows += group["passes"]
                    groups += 1
                    if time.monotonic() >= deadline and (
                            not self.args.trace
                            or any(r["traced"] for r in rows)):
                        break
                out = session.finish()
            except StepFailed as error:
                self.step_failed(f"warm interpreter {i + 1}", error)
                return
            finally:
                start_up.stop()
                if session is not None:
                    session.close()
            for row in rows:
                label = f"pass {len(self.rows) + 1}" + (
                    " (traced)" if row["traced"] else "")
                row["peak_rss_mb"] = max(fill["peak_rss_mb"],
                                         out["peak_rss_mb"])
                self.check(row, label)
                self.rows.append(row)
            print(f"warm interpreter {i + 1}: set-up {setup:.3f} s, "
                  f"{len(rows)} passes")
        print(f"{len(self.rows)} passes, fastest "
              f"{min(r['wall_s'] for r in self.rows):.4f} s, "
              f"{self.rows[0]['cells']} cells served per pass")

    # -- metrics -----------------------------------------------------------

    def consistency(self) -> None:
        """Cold means cold: every iteration missed the store on every
        cell and, when serial, generated the same traces.  With a pool,
        how often a trace is regenerated depends on which worker draws
        which chunk (each worker has its own trace memo), so the count
        legitimately varies."""
        misses = {r["store_misses"] for r in self.rows}
        serial = WORKLOADS[self.args.workload]["jobs"] == 1
        generated = {r["generate_calls"] for r in self.rows
                     if r["traced"] and serial}
        for what, values in (("store misses", misses),
                             ("workloads.generate.calls", generated)):
            if len(values) > 1:
                self.failed = self.attempted
                self.notes.append(f"{what} differ across iterations: "
                                  f"{sorted(values)}")

    def end_to_end(self) -> dict:
        """Medians of probe-scaled timings: each timing is divided by the
        host factor measured while it ran (``probe.py``), which takes out
        most of the host's drift; see README, Noise and bounds."""
        rows = [r for r in self.rows if not r["traced"]]
        walls = [r["wall_s"] / r["host_factor"] for r in rows]
        cells = sorted(scaled_per_cell(rows))
        n = len(cells)
        tail = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
        print(f"cell_ms_tail is p{100.0 * (tail + 1) / n:.1f} of {n} "
              f"cells, each at its median over {len(rows)} iterations")
        print("raw wall: best {:.4f} s, median {:.4f} s; median host "
              "factor {:.3f}".format(
                  min(r["wall_s"] for r in rows),
                  med([r["wall_s"] for r in rows]),
                  med([r["host_factor"] for r in rows])))
        return {
            "wall_s": med(walls),
            "cmds_per_s": med([r["commands"] / w
                               for r, w in zip(rows, walls)]),
            "cells_per_s": med([r["cells"] / w
                                for r, w in zip(rows, walls)]),
            "cell_ms_p50": med(cells) * 1e3,
            "cell_ms_tail": cells[tail] * 1e3,
            "setup_s": med(self.setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in self.rows),
        }

    def per_layer(self, paper: dict) -> dict:
        traced = [r for r in self.rows if r["traced"]]
        plain = [r for r in self.rows if not r["traced"]]
        out = {name: med([r["layers"][name] for r in traced])
               for name in traced[0]["layers"]}
        out["trace.overhead_ratio"] = (
            med([r["wall_s"] / r["host_factor"] for r in traced])
            / med([r["wall_s"] / r["host_factor"] for r in plain]))
        selfs = {name[:-len(".self_s")]: value
                 for name, value in out.items() if name.endswith(".self_s")}
        total = sum(selfs.values())
        if total:
            print("self-time shares: " + ", ".join(
                f"{name} {value / total:.1%}" for name, value in
                sorted(selfs.items(), key=lambda kv: -kv[1])
                if value >= 0.001 * total))
        skipped = sorted({s for r in traced for s in r["skipped"]})
        if skipped:
            print("trace: skipped missing targets " + ", ".join(skipped))
        check = self.steps.run(self.job("crosscheck"),
                               self.steps.new_store())
        if check["mismatched"]:
            self.failed = self.attempted
            self.notes.append("pinned figure digests differ: "
                              + ", ".join(check["mismatched"]))
        gmean = check["gmeans"][paper["config"]]
        out["paper.gap_pp"] = abs(gmean - paper["fig12_gmean"]) * 100
        print(f"paper: {paper['config']} GMEAN {gmean:.4f} at pinned "
              f"scale vs paper {paper['fig12_gmean']} (model at full "
              f"scale {paper['model_full_scale']})")
        return out


def bench_scale_gap(rows, paper: dict) -> None:
    gmeans = [r["gmeans"][paper["config"]] for r in rows if "gmeans" in r]
    if gmeans:
        gap = abs(gmeans[0] - paper["fig12_gmean"]) * 100
        print(f"paper: {paper['config']} GMEAN {gmeans[0]:.4f} at this "
              f"run's scale, gap {gap:.2f} pp to the paper's "
              f"{paper['fig12_gmean']}")


def run_workload(args) -> dict:
    with open(PINS) as fh:
        pins = json.load(fh)
    with open(BENCHMARK) as fh:
        declared = json.load(fh)
    table = pins["scales"][args.scale][args.workload]
    pin = None if args.accesses else table.get(str(args.seed))
    if pin is None:
        print(f"seed {args.seed} has no pin at this scale: outputs are "
              "checked for equality across iterations")
    run = Run(args, pin, next(iter(table.values()))["cells"])
    try:
        if WORKLOADS[args.workload]["kind"] == "cold":
            run.cold()
        else:
            run.warm()
        if not run.rows:
            raise StepFailed("; ".join(run.notes))
        run.consistency()
        bench_scale_gap(run.rows, pins["paper"])
        if args.trace:
            values = run.per_layer(pins["paper"])
            wanted = declared["per_layer"]
        else:
            values = run.end_to_end()
            wanted = declared["end_to_end"]
    finally:
        run.steps.close()
    for note in run.notes:
        print(f"FAILED {note}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }


# -- pins ----------------------------------------------------------------------


def write_pins(scale: str) -> None:
    with open(PINS) as fh:
        pins = json.load(fh)
    table = {}
    steps = Steps()
    try:
        for workload, spec in WORKLOADS.items():
            table[workload] = {}
            for seed in PINNED_SEEDS:
                job = dict(workload=workload, scale=scale, accesses=None,
                           sim_seed=seed, cpu=0)
                store = steps.new_store()
                if spec["kind"] == "cold":
                    row = steps.run(dict(job, mode="cold", trace=False),
                                    store)
                else:
                    row = steps.run(dict(job, mode="fill"), store)
                    session = steps.session(dict(job, mode="warm",
                                                 trace=False), store)
                    try:
                        session.read()
                        warm = session.ask({"cpu": 0, "seconds": 0})
                        session.finish()
                    finally:
                        session.close()
                    warm = warm["passes"][0]
                    if (warm["grid_digest"], warm["figure_digest"]) != \
                            (row["grid_digest"], row["figure_digest"]):
                        raise SystemExit(f"{workload}: warm pass differs "
                                         "from the fill")
                table[workload][str(seed)] = {
                    "grid": row["grid_digest"],
                    "figure": row["figure_digest"],
                    "cells": row["cells"]}
                print(workload, seed, table[workload][str(seed)])
    finally:
        steps.close()
    pins["scales"][scale] = table
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="bench")
    parser.add_argument("--accesses", type=int, default=None,
                        help="accesses per core instead of the scale's "
                        "(unpinned: outputs are checked for equality "
                        "across iterations)")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("perfbench: no simulator sources under src/repro; run "
                 "from a checkout of the repository")
    if args.write_pins:
        write_pins(args.scale)
        return
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
