"""Run-to-run stability of the benchmark's end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/stability.py --runs 10 [--workloads verify-pairs,sweeps] [--first-seed 1]

Runs each workload `--runs` times in fresh processes, one after another, each
with its own --seed, for the run length BENCHMARK.json sets. For every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median and that
spread as a share of the metric's bound, after one line per run with its wall
time, failed share and metrics. Exits 1 if a run reports correct=false or any
spread exceeds its bound; a run that exits non-zero stops it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int) -> tuple[dict, float]:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args(argv)

    ok = True
    for workload in args.workloads.split(","):
        results, walls = [], []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            res, wall = run_once(spec, workload, seed)
            results.append(res)
            walls.append(wall)
            ok &= res["correct"]
            values = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
            print(f"  seed {seed}: {wall:.1f} s, failed {res['failed']}/{res['attempted']}, {values}")
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed share {shares}, correct {all(r['correct'] for r in results)}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} "
              f"{'bound':>6s} {'/bound':>7s}")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            share = spread / m["bound"]
            ok &= share <= 1
            print(f"  {m['name']:16s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
                  f"{m['bound']:6.2f} {share:7.2f}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
