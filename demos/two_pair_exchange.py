"""Walk through the two-pair exchange step by step.

Two user pairs (1<->3 and 2<->4) swap one symbol each with the help of a
two-antenna relay, in three channel uses instead of four: two learning
slots, then one relay slot whose precoders neutralize exactly the interference
each user could not have overheard.

Run: python demos/two_pair_exchange.py
"""

from stpnc.channel import NetworkConfig, draw_channels
from stpnc.precoder import design_twic
from stpnc.protocol import decode_user, draw_symbols, relay_process, run_phase1, run_phase2
from stpnc.scheduler import schedule_twic

cfg = NetworkConfig(K=4, relay_antennas=(2,))
sched = schedule_twic()
ch = draw_channels(cfg, sched.n_slots, seed=2024)
syms = draw_symbols(sched, seed=1)

print("symbols in flight (dest <- src):")
for sym, val in syms.items():
    print(f"  s[{sym.dest}<-{sym.src}] = {val:.3f}")

# Phase 1: users 1,2 transmit, then users 3,4; everyone else listens.
ledger = run_phase1(sched, ch, syms)
for t in sched.phase1_slots:
    plan = sched.slot(t)
    print(f"\nslot {t}: users {sorted(plan.sources)} transmit, "
          f"users {sorted(plan.destinations)} and the relay listen")
for (_, slot), eq in ledger.relays.items():
    heard = sorted(sched.slot(slot).sends.values())
    for m in range(eq.value.shape[0]):
        terms = " + ".join(f"({eq.coeffs[m, sched.column[s]]:.2f})s[{s.dest}<-{s.src}]" for s in heard)
        print(f"  relay antenna eq, slot {slot}: y = {terms}")

# The relay decodes all four symbols and forwards each phase-1 slot's
# reception through one 2x2 block precoder, chosen so that every symbol
# reaches the one user that neither sent nor overheard it with a zero
# coefficient.
p = design_twic(ch)
print(f"\nprecoder residual (worst neutralization violation): {p.residual:.2e}")
plan = relay_process(ledger, p, sched, mode="decode_forward")
ledger = run_phase2(plan, sched, ch, ledger=ledger)

eq = [e for e in ledger.users[1] if e.slot == 3][0]
print("\nuser 1, relay slot coefficient split:")
for part in ("D", "SI", "OI", "N"):
    for sym, c in sched.column.items():
        if sched.role(1, sym) == part:
            print(f"  {part:>2}: s[{sym.dest}<-{sym.src}] coefficient {abs(eq.coeffs[c]):.2e}")
print("  (N is the neutralized symbol user 1 never overheard)")

# Decoding: subtract self-interference, then solve the little 2x2 system
# of the stored slot-2 equation and the cleaned relay equation.
print("\ndecoding results:")
for k in sched.users:
    own = {sym: syms[sym] for sym in sched.own_symbols(k)}
    res = decode_user(k, ledger, sched, own)
    for sym, est in res.recovered.items():
        err = abs(est - syms[sym])
        print(f"  user {k} recovers s[{sym.dest}<-{sym.src}]: error {err:.2e} "
              f"(system rank {res.effective_rank})")

n_sym, n_slot = len(sched.symbols), sched.n_slots
print(f"\n{n_sym} symbols in {n_slot} slots: {n_sym}/{n_slot} symbols per channel use "
      f"(TDMA needs one slot per symbol)")
