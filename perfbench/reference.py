"""Reference figures for perfbench/README.md: machine, per-stage times, sum_dof cost.

Usage (from the repository root):

    python3 perfbench/reference.py

Prints Markdown: the machine metadata, the per-stage milliseconds of one
`run_end_to_end` for the four scenarios of the ROADMAP baseline table (mean
over SEEDS derived seeds, inclusive span times, one BLAS thread), and the cost
of one `sum_dof` call as the number of single-antenna relays L grows.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = (
    ("twic", 4, (2,)),
    ("case1", 8, (7,)),
    ("case2", 8, (6,)),
    ("case1", 6, (1,) * 21),
)
SEEDS = 20  # derived seeds per scenario in the stage table
STAGES = (
    ("draw", "channel.draw_channels"),
    ("design+verify", "precoder.design"),
    ("phase 1", "protocol.run_phase1"),
    ("relay", "protocol.relay_process"),
    ("phase 2", "protocol.run_phase2"),
    ("decode", "protocol.decode_user"),
)


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return out.stdout.strip()


def main() -> int:
    from run import BLAS_ENV, SRC
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import numpy as np

    import spans
    from stpnc import dof, protocol
    from stpnc.channel import NetworkConfig, derive_trial_seed

    print("| item | value |\n|---|---|")
    print(f"| cores | {os.cpu_count()} |")
    print(f"| Python | {platform.python_version()} |")
    print(f"| NumPy | {np.__version__} |")
    print(f"| BLAS threads | {', '.join(f'{k}={v}' for k, v in BLAS_ENV.items())} |")
    print(f"| git sha | {git_sha()} |")

    print("\n| scenario | total | " + " | ".join(s for s, _ in STAGES) + " |")
    print("|---" * (len(STAGES) + 2) + "|")
    for scenario, K, antennas in SCENARIOS:
        cfg = NetworkConfig(K, antennas)
        protocol.run_end_to_end(scenario, cfg, 0)  # warm-up
        tracer = spans.Tracer()
        with spans.instrument(tracer):
            run = tracer.wrap(protocol.run_end_to_end, "total")
            for i in range(SEEDS):
                run(scenario, cfg, derive_trial_seed(0, i))
        ms = [1e3 * tracer.total_s[name] / SEEDS for name in ("total", *(n for _, n in STAGES))]
        relays = f"{len(antennas)}x1" if len(antennas) > 1 else f"M=({antennas[0]})"
        print(f"| {scenario} K={K} {relays} | " + " | ".join(f"{x:.2f}" for x in ms) + " |")

    print("\n| L (single-antenna relays) | sum_dof us/call |\n|---|---|")
    for L in (10, 100, 1000, 10_000):
        antennas = (1,) * L
        reps = max(5, 20_000 // L)
        times = []
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(reps):
                dof.sum_dof(6, antennas)
            times.append((perf_counter() - t0) / reps)
        print(f"| {L} | {1e6 * statistics.median(times):.1f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
