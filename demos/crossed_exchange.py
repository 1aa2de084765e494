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
from stpnc.protocol import decode_user, draw_symbols, relay_process, run_phase1, run_phase2
from stpnc.scheduler import schedule_twxc

cfg = NetworkConfig(K=4, relay_antennas=(2,))
sched = schedule_twxc()
ch = draw_channels(cfg, sched.n_slots, seed=7)
syms = draw_symbols(sched, seed=8)

ledger = run_phase1(sched, ch, syms)
p = design_twxc(ch)
plan = relay_process(ledger, p, sched, mode="decode_forward")
ledger = run_phase2(plan, sched, ch, ledger=ledger)

print("per-user view of the relay slot:")
for k in sched.users:
    eq = [e for e in ledger.users[k] if e.slot == 5][0]
    (ref_slot,) = sched.pure_slots(k)  # the overheard slot without desired symbols
    ref = [e for e in ledger.users[k] if e.slot == ref_slot][0]
    oi_value = sum(eq.coeffs[c] * syms[sym] for sym, c in sched.column.items()
                   if sched.role(k, sym) == "OI")
    print(f"  user {k}: overheard-interference part equals its stored slot-{ref_slot} "
          f"equation to {abs(oi_value - ref.value):.2e}")

print("\ndecoding (subtract self-interference, subtract the replayed equation, solve 2x2):")
worst = 0.0
for k in sched.users:
    own = {sym: syms[sym] for sym in sched.own_symbols(k)}
    res = decode_user(k, ledger, sched, own)
    errs = {sym: abs(est - syms[sym]) for sym, est in res.recovered.items()}
    worst = max(worst, max(errs.values()))
    got = ", ".join(f"s[{s.dest}<-{s.src}]" for s in errs)
    print(f"  user {k}: {got}, worst error {max(errs.values()):.2e}")

print(f"\n8 symbols in 5 slots, worst recovery error {worst:.2e}")
