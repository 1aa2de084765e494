"""Finite-SNR ergodic sum rate of the two-pair exchange vs a TDMA baseline.

Monte Carlo over fading realizations. The relayed exchange pays a decode-
and-forward penalty per flow but delivers 4 symbols per 3 slots, so its
curve grows 4/3 as fast in the high-SNR regime and overtakes TDMA around
8 dB.

Run: python demos/ergodic_rate.py [--trials N] [--csv out.csv]
"""

import sys

import numpy as np

from stpnc.rate import snr_sweep, trial_gains, write_rate_csv

trials = int(sys.argv[sys.argv.index("--trials") + 1]) if "--trials" in sys.argv else 10_000
grid = tuple(float(s) for s in range(0, 31))
gains = trial_gains(seed=0, start=0, count=trials)
result = snr_sweep(grid, gains)

print(f"{trials} trials per point")
print(f"{'SNR dB':>7} {'relayed':>9} {'tdma':>9}")
for p in result.points[::3]:
    marker = "  <- relayed ahead" if p.stpnc_rate > p.tdma_rate else ""
    print(f"{p.snr_db:>7.0f} {p.stpnc_rate:>9.3f} {p.tdma_rate:>9.3f}{marker}")
print(f"\ncrossover: {result.crossover_db:.2f} dB")

hi = [p for p in result.points if p.snr_db >= 20]
slope = np.polyfit([p.snr_db for p in hi], [p.stpnc_rate for p in hi], 1)[0]
base = np.polyfit([p.snr_db for p in hi], [p.tdma_rate for p in hi], 1)[0]
print(f"high-SNR slope ratio: {slope / base:.3f} (4/3 = {4 / 3:.3f})")

if "--csv" in sys.argv:
    path = sys.argv[sys.argv.index("--csv") + 1]
    with open(path, "w") as f:
        write_rate_csv(result, f)
    print(f"wrote {path}")
