#!/usr/bin/env python3
"""The benchmark's own test, at tiny scale (a minute or two).

    python3 perfbench/smoke_test.py

For every workload it runs the untraced program at two host-thread counts
and the traced run once, through run.py, and checks that:
  - the result line carries every metric BENCHMARK.json names for that
    mode, each with the unit BENCHMARK.json gives it;
  - every op succeeded (failed == 0, failed_op_share == 0);
  - the virtual metrics (billed $, virtual time) are byte-identical
    between the two host-thread counts.
Exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
VIRTUAL = ("usd_per_op", "virtual_ms_per_op", "usd_per_doc", "usd_per_query",
           "makespan_s", "query_vtime_p50_ms")


def run(workload, trace, host_threads):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--smoke", "--host-threads", str(host_threads)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {done.returncode}")
    lines = done.stdout.splitlines()
    report = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ", 3)
            report[name] = (value, unit)
    return json.loads(lines[-1]), report


def check(condition, message):
    if not condition:
        raise AssertionError(message)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        results = {}
        for trace, threads in ((0, 1), (0, 4), (1, 4)):
            result, report = run(workload, trace, threads)
            where = f"{workload} trace={trace} host_threads={threads}"
            check(result["correct"] and result["failed"] == 0,
                  f"{where}: failed ops")
            check(report.get("failed_op_share", ("?",))[0] == "0",
                  f"{where}: failed_op_share != 0")
            for metric in spec["per_layer" if trace else "end_to_end"]:
                got = result["metrics"].get(metric["name"])
                check(got is not None, f"{where}: {metric['name']} missing")
                check(got["unit"] == metric["unit"],
                      f"{where}: {metric['name']} unit {got['unit']}")
            results[(trace, threads)] = (result, report)
        one, one_report = results[(0, 1)]
        four, four_report = results[(0, 4)]
        for name in VIRTUAL:
            if name in one["metrics"]:
                check(one["metrics"][name] == four["metrics"][name],
                      f"{workload}: {name} differs across host threads")
            check(one_report.get(name) == four_report.get(name),
                  f"{workload}: {name} report line differs across host threads")
        print(f"{workload}: ok", flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as error:
        print(f"FAIL {error}")
        sys.exit(1)
