"""byzfusion benchmark: one workload, end-to-end metrics or per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload fixed6-m4 --seed 1 --seconds 20 --trace 0

Workloads are listed in workloads.py and BENCHMARK.json. Each run starts the
workload in a fresh interpreter (worker.py) with BLAS/OpenMP pools pinned to
one thread and byzfusion imported from ./src. With ``--trace 0`` it also
starts set-up-only interpreters, and reports

    setup_s        median time from process start to ready (imports + warm-up)
                   over SETUP_RUNS interpreters, each scaled by a stand-in's
                   time (see STAND_IN below)
    run_s          median calibrated time of one workload pass (see worker.py)
    decodes_per_s  report matrices MAP-decoded per second of run_s
    peak_rss_mb    peak resident memory of the workload process

With ``--trace 1`` it reports every per-layer figure of tracer.py instead;
one that the workload does not use reads 0 and is named in the ``info``
line's ``not_applicable``, and a removed wrap target is named in its
``absent_layers``. Every pass is checked (see worker.py); a line starting
``info`` gives the environment, the pass count, the median wall time of a
pass (``wall_run_s``), the 75th percentile of the calibrated pass times
where at least 40 passes support it (``run_s_p75``, else null), and
failed_frac, and the last line is the JSON result ``{"correct", "attempted",
"failed", "metrics"}``. Exits non-zero, without a result, if the program
cannot be found or a process fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import workloads as wl

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_RUNS = 5
# Set-up time moves with this machine's speed, which drifts by up to 1.7x over
# minutes (see worker.py). So each set-up sample is paired with a stand-in
# started just before it: a fresh interpreter that imports the third-party
# modules byzfusion imports, and nothing of byzfusion. The sample is scaled by
# the stand-in's reference time over its time now. A change to byzfusion's own
# set-up moves the sample, not the stand-in. STAND_IN_REF_S is the stand-in's
# median time on the 2-core x86-64 box where the benchmark was defined.
STAND_IN = "import numpy, scipy.optimize, scipy.special; print('ready', flush=True)"
STAND_IN_REF_S = 0.60
TIME_LIMIT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    pass


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def worker_cmd(args, setup_only):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    return cmd


def spawn(cmd, env, deadline):
    """Run a process that prints ``ready`` once set up; returns (seconds to ready, later stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            raise BenchError(f"{os.path.basename(cmd[1])} did not get ready: {line.strip()!r}")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{os.path.basename(cmd[1])} exceeded the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[1])} exited with code {proc.returncode}")
    return ready, out


def run(args):
    deadline = time.perf_counter() + TIME_LIMIT_S
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "byzfusion", "__init__.py")):
        raise BenchError("byzfusion sources not found under ./src; run from the repository root")
    env = child_env(src)
    setups = []  # (set-up seconds, stand-in seconds)
    if not args.trace:
        for _ in range(2 if args.tiny else SETUP_RUNS):
            stand_in, _ = spawn([sys.executable, "-c", STAND_IN], env, deadline)
            ready, _ = spawn(worker_cmd(args, setup_only=True), env, deadline)
            setups.append((ready, stand_in))
    _, out = spawn(worker_cmd(args, setup_only=False), env, deadline)
    summary = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        metrics = summary["per_layer"]
    else:
        metrics = {
            "setup_s": {
                "value": statistics.median(r * STAND_IN_REF_S / b for r, b in setups),
                "unit": "s",
            },
            "run_s": {"value": summary["run_s"], "unit": "s"},
            "decodes_per_s": {"value": summary["decodes_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
        }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": summary["passes"],
        "run_s_p75": summary["run_s_p75"],
        "wall_run_s": summary["wall_run_s"],
        "failed_frac": summary["failed"] / summary["attempted"],
        "first_failure": summary["first_failure"],
        "decodes_per_pass": wl.decodes_per_pass(args.workload, args.tiny),
        "setup_samples_s": [r for r, _ in setups],
        "stand_in_samples_s": [b for _, b in setups],
        "env": summary["env"],
    }
    for key in ("traced_passes", "absent_layers", "not_applicable", "trace_file"):
        if key in summary:
            info[key] = summary[key]
    print("info " + json.dumps(info))
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small sizes, for selftest.py")
    args = p.parse_args(argv)
    try:
        run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
