"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload sweep --seeds 0-9 --seconds 30 [--trace 0]

Runs perfbench/run.py once per seed, one run at a time, and prints for each
metric the median and the interquartile range as a share of the median
(quartiles as ``statistics.quantiles(values, n=4)`` gives them). Exits 1 if
any run reports ``correct: false``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", default="30")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    values: dict[str, list[float]] = {}
    all_correct = True
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        t0 = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        elapsed = time.monotonic() - t0
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        all_correct &= result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({elapsed:.0f} s): correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            print(f"{name:32s} median {med:.5g}  IQR/median {(q3 - q1) / med:.3f}  n={len(vs)}")
        else:
            print(f"{name:32s} median {med:.5g}  n={len(vs)}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
