"""Runs the tinyasr benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own interpreter, one after the other, with the
BLAS thread variables pinned to THREADS: the thread count changes the
bytes of checkpoint.bin, so results compare only at one setting. With
one workload, the last line of standard output is that workload's result
JSON; with ``all``, a table of every metric comes first and the last line
combines the workloads.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep-fast", "train-full", "decode")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# one thread: bit-exact on every machine, and steadier on a shared one
THREADS = 1
WORKLOAD_TIMEOUT_S = 175

HERE = Path(__file__).resolve().parent


def run_workload(name, args):
    env = dict(os.environ)
    env.update({var: str(THREADS) for var in THREAD_VARS})
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {name} did not finish in {WORKLOAD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None, None, ""
    lines = proc.stdout.splitlines()
    if len(lines) < 2 or not lines[-1].startswith('{"correct"'):
        return proc.returncode, None, None, proc.stdout
    return proc.returncode, json.loads(lines[-1]), json.loads(lines[-2]), proc.stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (HERE.parent / "src" / "tinyasr" / "cli.py").is_file():
        print("error: tinyasr sources not found under src/", file=sys.stderr)
        return 2

    if args.workload != "all":
        code, _, _, stdout = run_workload(args.workload, args)
        print(stdout, end="")
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        code, result, details, stdout = run_workload(name, args)
        worst = worst or code
        print(stdout, end="")
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            print(f"{name:<11} {metric:<42} {entry['value']:>14.6g} {entry['unit']}")
            combined["metrics"][f"{name}/{metric}"] = entry
        # checked and repeated exactly, but too seed-dependent to bound
        for metric in ("ler", "beam_ler"):
            if metric in details.get("details", {}):
                value = details["details"][metric]
                print(f"{name:<11} {metric:<42} {value:>14.6g} ratio")
    print(json.dumps(combined))
    return worst


if __name__ == "__main__":
    sys.exit(main())
