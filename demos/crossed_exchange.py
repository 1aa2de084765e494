"""The crossed two-pair exchange: alignment on top of neutralization.

Users 1 and 2 each send one symbol to user 3 and one to user 4, and vice
versa: eight symbols. A two-antenna relay cannot neutralize everything for
everyone, so its precoders additionally *replay* each symbol's interference
in the exact shape the partner that overheard it stored during phase 1,
making it cancelable by subtraction. Eight symbols cross in five channel uses.

Run: python demos/crossed_exchange.py
"""

from stpnc.channel import NetworkConfig, draw_channels
from stpnc.precoder import design_twxc
from stpnc.protocol import decode_user, draw_payload, relay_process, run_phase1, run_phase2
from stpnc.scheduler import schedule_twxc

cfg = NetworkConfig(K=4, relay_antennas=(2,))
sched = schedule_twxc()
ch = draw_channels(cfg, sched.n_slots, seed=7)
s = draw_payload(sched, seed=8)  # one entry per symbol, in sched.symbols order

ledger = run_phase1(sched, ch, s)
p = design_twxc(ch)
plan = relay_process(ledger, p, mode="decode_forward")
ledger = run_phase2(plan, sched, ch, ledger=ledger)

print("per-user view of the relay slot:")
for k in sched.users:
    row = ledger.rows[5 - 1, k - 1]  # user k's equation in the relay slot 5
    (ref_slot,) = sched.pure_slots(k)  # the overheard slot without desired symbols
    # the symbols k overheard in that slot (AOI), rebuilt from the relay slot's coefficients
    oi_value = sum(row[c] * s[c] for c in sched.column.values() if sched.classes[k][c] == "AOI")
    print(f"  user {k}: overheard-interference part equals its stored slot-{ref_slot} "
          f"equation to {abs(oi_value - ledger.values[ref_slot - 1, k - 1]):.2e}")

print("\ndecoding (subtract self-interference, subtract the replayed equation, solve 2x2):")
worst = 0.0
for k in sched.users:
    res = decode_user(k, ledger, sched, s)  # it reads its own symbols' values from s
    errs = {sched.symbols[c]: abs(est - s[c]) for c, est in zip(res.columns, res.recovered)}
    worst = max(worst, max(errs.values()))
    got = ", ".join(f"s[{s.dest}<-{s.src}]" for s in errs)
    print(f"  user {k}: {got}, worst error {max(errs.values()):.2e}")

print(f"\n8 symbols in 5 slots, worst recovery error {worst:.2e}")
