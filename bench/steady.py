"""Steadiness mode: repeat each workload on fresh seeds, report the spread.

    python3 bench/steady.py [--runs 10] [--workload NAME ...] [--first-seed 1]

Runs ``bench/run.py --trace 0`` ``--runs`` times per workload, each with
another seed and the run length from ``BENCHMARK.json``.  For every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) /
median``, next to the metric's bound; a spread is marked ``steady`` when
it is below a third of the bound.
It also prints the share of failed operations of every run, which must be
the same in all of them.  The last line is a JSON object with every value.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", nargs="*", choices=names, default=names)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {}
    all_steady = True
    for name in args.workload:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [*spec["command"], "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=400,
            )
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ) + f" attempted={result['attempted']} failed={result['failed']} "
                f"correct={result['correct']}", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        summary[name] = {"failed_share": shares, "correct": correct, "metrics": {}}
        all_steady &= correct and len(shares) == 1
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            steady = spread < bound / 3
            all_steady &= steady
            summary[name]["metrics"][metric] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread, "values": values,
            }
            print(f"  {name:16s} {metric:12s} median {median:10.5g}  q1 {q1:10.5g}  "
                  f"q3 {q3:10.5g}  spread {spread:7.2%}  bound {bound:.0%}  "
                  f"{'steady' if steady else 'NOT STEADY'}", flush=True)
        print(f"  {name:16s} failed share {shares}  correct {correct}", flush=True)
    print(json.dumps(summary))
    return 0 if all_steady else 1


if __name__ == "__main__":
    sys.exit(main())
