"""Tiny-scale self-test of the benchmark's plumbing.

Runs every workload at ``--scale tiny`` for one second, untraced and
traced, and checks that each run is correct and emits every metric of
``BENCHMARK.json`` with its declared unit.  It also checks that every
name in ``BENCHMARK.json`` matches ``^[A-Za-z0-9_.-]+$``.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited "
                             f"{proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    groups = {0: declared["end_to_end"], 1: declared["per_layer"]}
    names = [w["name"] for w in declared["workloads"]] + [
        m["name"] for ms in groups.values() for m in ms]
    bad = [n for n in names if not NAME.match(n)]
    assert not bad, f"names outside ^[A-Za-z0-9_.-]+$: {bad}"
    assert len(names) == len(set(names)), "a name is used twice"
    for workload in (w["name"] for w in declared["workloads"]):
        for trace, wanted in groups.items():
            result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            assert result["correct"] and result["failed"] == 0, \
                f"{label}: outputs failed their checks"
            assert result["attempted"] >= 1, label
            emitted = result["metrics"]
            for metric in wanted:
                got = emitted.get(metric["name"])
                assert got is not None, f"{label}: {metric['name']} missing"
                assert got["unit"] == metric["unit"], \
                    f"{label}: {metric['name']} unit {got['unit']}"
                assert isinstance(got["value"], (int, float)), label
                if trace == 0:
                    assert got["value"] > 0, \
                        f"{label}: {metric['name']} is {got['value']}"
            assert set(emitted) == {m["name"] for m in wanted}, label
            print(f"ok {label}: {len(emitted)} metrics")


if __name__ == "__main__":
    main()
