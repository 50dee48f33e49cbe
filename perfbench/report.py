"""Print every metric of every workload as one table, failed_frac included.

Run from the repository root:

    python3 perfbench/report.py --seed 1 --seconds 20            # end-to-end
    python3 perfbench/report.py --seed 1 --seconds 20 --trace 1  # per layer

Each workload runs through run.py in its own processes, one after another.
Exits non-zero if any workload fails to run or any pass fails its checks.
"""

import argparse
import json
import os
import subprocess
import sys

import workloads as wl

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", nargs="+", choices=wl.WORKLOADS, default=list(wl.WORKLOADS))
    args = p.parse_args(argv)

    status = 0
    print(f"{'workload':<12} {'metric':<26} {'value':>16}  unit")
    for name in args.workloads:
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name:<12} run failed with code {proc.returncode}")
            status = 1
            continue
        info = json.loads(lines[-2].removeprefix("info "))
        result = json.loads(lines[-1])
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows.append(("failed_frac", info["failed_frac"], "fraction"))
        rows.append(("passes", info["passes"], "count"))
        rows.append(("wall_run_s", info["wall_run_s"], "s"))
        if info.get("run_s_p75") is not None:
            rows.append(("run_s_p75", info["run_s_p75"], "s"))
        for metric, value, unit in rows:
            print(f"{name:<12} {metric:<26} {value:>16.6g}  {unit}")
        if not result["correct"]:
            print(f"{name:<12} FAILED: {info['first_failure']}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
