"""Small-size self-test of the benchmark itself.

Runs every workload at tiny size in both modes and checks that the result
line has exactly the agreed keys, that every end-to-end metric and every
per-layer metric is emitted with the unit BENCHMARK.json gives it, that the
per-layer times of the layers a workload uses are above 0 and all figures of
the layers it does not use are 0, that no pass fails its checks and no wrap
target is absent, and that the benchmark refuses to run, without printing a
result, in a directory that holds only BENCHMARK.json and the benchmark.
Run from the repository root (about a minute):

    python3 perfbench/selftest.py
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

import tracer
import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(args, cwd=None):
    return subprocess.run(
        [sys.executable, RUN, *args], stdout=subprocess.PIPE, text=True, cwd=cwd, timeout=180
    )


def check_workload(name, trace, spec):
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = run(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", str(trace),
                "--tiny"])
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2].removeprefix("info "))
    result = json.loads(lines[-1])
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    if emitted != expected:
        problems.append(f"metrics {emitted} differ from BENCHMARK.json {expected}")
    if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
        problems.append("non-numeric metric value")
    if result["attempted"] < 1 or result["failed"] != 0 or not result["correct"]:
        problems.append(f"failed {result['failed']}/{result['attempted']}: {info['first_failure']}")
    if info["failed_frac"] != 0:
        problems.append(f"failed_frac {info['failed_frac']}")
    if info.get("absent_layers"):
        problems.append(f"absent layers {info['absent_layers']}")
    if trace:
        unused = tracer.not_applicable(wl.kind(name))
        for metric, unit in expected.items():
            value = result["metrics"].get(metric, {}).get("value")
            if metric in unused and value != 0:
                problems.append(f"{metric} = {value} on a workload that does not use it")
            if metric not in unused and unit == "s" and not value:
                problems.append(f"{metric} = {value} on a workload that uses it")
    return problems


def check_refuses_without_program(spec_path):
    with tempfile.TemporaryDirectory(dir=os.path.dirname(HERE)) as bare:
        shutil.copy(spec_path, bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", wl.WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=bare, timeout=180,
        )
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"ran without the program: code {proc.returncode}, output {proc.stdout!r}"]
    return []


def main():
    spec_path = os.path.join(os.getcwd(), "BENCHMARK.json")
    with open(spec_path) as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(wl.WORKLOADS):
        print("FAIL BENCHMARK.json workloads differ from workloads.py")
        return 1
    status = 0
    for name in wl.WORKLOADS:
        for trace in (0, 1):
            problems = check_workload(name, trace, spec)
            print(f"{'FAIL' if problems else 'ok  '} {name} trace={trace} {'; '.join(problems)}")
            status |= bool(problems)
    problems = check_refuses_without_program(spec_path)
    print(f"{'FAIL' if problems else 'ok  '} refuses to run without ./src {'; '.join(problems)}")
    status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())
