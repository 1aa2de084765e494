"""The general constructions at several network sizes, incl. an infeasible one.

Construction 1 (neutralization only): k1 users exchange k1*(k1-1) symbols in
2*k1-2 slots whenever the relays' squared antenna counts sum to at least
(k1-1)(k1-2)+1. Construction 2 (alignment + neutralization): k2 users
exchange k2*(k2-2) symbols in 2*k2-3 slots whenever the sum reaches
(k2-2)^2. Relays forward linear combinations without decoding, so the
antennas may be spread across several relays.

Run: python demos/general_network.py
"""

from stpnc.channel import NetworkConfig
from stpnc.precoder import AntennaDeficit
from stpnc.protocol import run_end_to_end

runs = [
    ("case1", NetworkConfig(3, (2,))),
    ("case1", NetworkConfig(4, (3,))),
    ("case1", NetworkConfig(4, (1, 1, 1, 2))),   # distributed relays, same budget
    ("case1", NetworkConfig(5, (4,))),
    ("case2", NetworkConfig(4, (2,))),
    ("case2", NetworkConfig(5, (3,))),
    ("case2", NetworkConfig(5, (2, 2, 1))),
    ("case2", NetworkConfig(6, (4,))),
    ("case1", NetworkConfig(4, (2,))),           # one antenna short: must fail
]

for scenario, cfg in runs:
    label = f"{scenario} K={cfg.K} antennas={cfg.relay_antennas}"
    try:
        rep = run_end_to_end(scenario, cfg, seed=99)
    except AntennaDeficit as exc:
        print(f"{label:<42} infeasible: {exc}")
        continue
    print(f"{label:<42} DoF {str(rep.achieved_dof(0)):>5}  "
          f"worst error {rep.max_symbol_error[0]:.1e}  "
          f"residual {rep.constraint_residual[0]:.1e}")
