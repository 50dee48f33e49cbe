"""Regenerate reference.json: the statistical and pinned references the checks use.

Payoff workloads get a matrix at many times the pass trial count, drawn with REFERENCE_SEED (a seed no benchmark run uses), with its
per-cell standard errors. The exact sweep gets every scenario's value as
computed by the current code, to which later runs must agree to 1e-9
relative. Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
import sys

import workloads as wl
from worker import REFERENCE_FILE, ExactWorkload, PayoffWorkload


def main():
    payoff = {}
    for name in wl.PAYOFF:
        work = PayoffWorkload(name, wl.REFERENCE_SEED, tiny=False)
        work.trials = wl.PAYOFF[name][4]
        pm = work.run_pass()
        payoff[name] = {
            "trials": work.trials,
            "seed": wl.REFERENCE_SEED,
            "pe_component": pm.pe_component.tolist(),
            "se_component": pm.se_component.tolist(),
            "pe_sequence": pm.pe_sequence.tolist(),
            "se_sequence": pm.se_sequence.tolist(),
        }
        print(name, work.trials, "trials", file=sys.stderr)
    work = ExactWorkload(tiny=False)
    exact = {wl.spec_key(spec): value for spec, value in zip(work.specs, work.run_pass())}
    with open(REFERENCE_FILE, "w") as fh:
        json.dump({"payoff": payoff, "exact": exact}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
