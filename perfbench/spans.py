"""Timing spans wrapped around the public stpnc functions, from outside the program.

Each wrapped function is patched where its calling module binds it (for
example ``stpnc.protocol.run_phase1``, which ``_execute`` looks up at call
time), so a traced run executes the very same CLI calls as an untraced one.
Spans nest through a stack: a span's self time is its duration minus the
durations of the spans it directly encloses. Spans are aggregated per name in
memory as they close; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _svd_flops(shape, vectors: bool) -> float:
    """Real flops of a complex SVD of the given shape (Golub-Van Loan counts, x4 for complex).

    vectors=True is the full decomposition ``null_space`` asks for; False is
    the singular-values-only cost, used for ``rank`` and for the SVD-based
    least-squares solves (``lstsq``). These are computed, not measured.
    """
    if len(shape) < 2:
        shape = (1, shape[0] if shape else 1)
    p, q = max(shape), min(shape)
    if vectors:
        return 4.0 * (4 * p * p * q + 8 * p * q * q + 9 * q ** 3)
    return 4.0 * (4 * p * q * q - 4 * q ** 3 / 3)


class Tracer:
    """Per-name span statistics (calls, inclusive and self seconds) plus counters."""

    def __init__(self):
        self.calls: dict = defaultdict(int)
        self.total_s: dict = defaultdict(float)
        self.self_s: dict = defaultdict(float)
        self.counters: dict = defaultdict(float)
        self._stack: list = []  # seconds covered by direct children of each open span

    def wrap(self, fn, name: str, on_return=None):
        """Return fn wrapped in a span; on_return(args, result) runs outside every span."""
        stack, calls, total_s, self_s = self._stack, self.calls, self.total_s, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                calls[name] += 1
                total_s[name] += dt
                self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
            if on_return is not None:
                t1 = perf_counter()
                on_return(args, result)
                if stack:  # the hook's own time is charged to no span
                    stack[-1] += perf_counter() - t1
            return result

        return wrapper

    def count(self, fn, name: str):
        """Return fn wrapped in a bare call counter (no span)."""
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # hooks that turn arguments and results into work counts

    def _svd_hook(self, vectors: bool, constraint: bool):
        counters = self.counters

        def hook(args, _result):
            shape = np.shape(args[0])
            counters["linalg.svd_flop"] += _svd_flops(shape, vectors)
            if constraint:
                counters["precoder.constraint_rows"] += shape[0] if len(shape) == 2 else 1
        return hook

    def _draw_hook(self, args, _result):
        cfg, slots = args[0], args[1]
        per_slot = cfg.K * (cfg.K - 1) + 2 * cfg.K * sum(cfg.relay_antennas)
        self.counters["channel.coeffs_drawn"] += slots * per_slot

    def _ledger_hook(self, _args, ledger):
        n = sum(len(eqs) for eqs in ledger.users.values()) + len(ledger.relays)
        self.counters["protocol.equations_stored"] += n

    def _trials_hook(self, args, _result):
        self.counters["rate.trials"] += args[2]


@contextmanager
def instrument(tracer: Tracer):
    """Patch spans into the stpnc modules for the duration of the block."""
    import stpnc.cli
    import stpnc.dof
    import stpnc.linalg
    import stpnc.precoder
    import stpnc.protocol
    import stpnc.rate
    from stpnc.scheduler import Schedule

    t = tracer
    spans = [
        # (module that binds the name, attribute, span name, hook)
        (stpnc.precoder, "null_space", "linalg.null_space", t._svd_hook(True, True)),
        (stpnc.rate, "null_space", "linalg.null_space", t._svd_hook(True, False)),
        (stpnc.precoder, "solve_least_norm", "linalg.solve_least_norm", t._svd_hook(False, True)),
        (stpnc.protocol, "zf_solve", "linalg.zf_solve", t._svd_hook(False, False)),
        (stpnc.protocol, "rank", "linalg.rank", t._svd_hook(False, False)),
        (stpnc.linalg, "rank", "linalg.rank", t._svd_hook(False, False)),  # inside zf_solve
        (stpnc.protocol, "draw_channels", "channel.draw_channels", t._draw_hook),
        (stpnc.rate, "draw_channels", "channel.draw_channels", t._draw_hook),
        (stpnc.protocol, "design_twic", "precoder.design", None),
        (stpnc.protocol, "design_twxc", "precoder.design", None),
        (stpnc.protocol, "design_case1", "precoder.design", None),
        (stpnc.protocol, "design_case2", "precoder.design", None),
        (stpnc.rate, "design_twic", "precoder.design", None),
        (stpnc.precoder, "verify_constraints", "precoder.verify_constraints", None),
        (stpnc.protocol, "run_phase1", "protocol.run_phase1", None),
        (stpnc.protocol, "relay_process", "protocol.relay_process", None),
        (stpnc.protocol, "run_phase2", "protocol.run_phase2", t._ledger_hook),
        (stpnc.protocol, "decode_user", "protocol.decode_user", None),
        (stpnc.protocol, "alignment_error", "protocol.checks", None),
        (stpnc.protocol, "ledger_linearity_error", "protocol.checks", None),
        (stpnc.cli, "verify_scenario", "protocol.verify_scenario", None),
        (stpnc.rate, "trial_gains", "rate.trial_gains", t._trials_hook),
        (stpnc.rate, "snr_sweep", "rate.snr_sweep", None),
        (stpnc.dof, "single_antenna_sweep", "dof.single_antenna_sweep", None),
        (stpnc.dof, "sum_dof", "dof.sum_dof", None),
    ]
    counted = [
        (Schedule, "slot_of", "scheduler.slot_of"),
        (Schedule, "listened_phase1", "scheduler.listened_phase1"),
    ]
    saved = []
    try:
        for owner, attr, name, hook in spans:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, t.wrap(getattr(owner, attr), name, hook))
        for owner, attr, name in counted:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, t.count(getattr(owner, attr), name))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(t: Tracer, rounds: int) -> dict:
    """The per-layer metrics of one traced pass, normalised per round of CLI calls."""
    def ms(name):
        return 1e3 * t.self_s[name] / rounds

    def per_round(x):
        return x / rounds

    trials = t.counters["rate.trials"]
    sum_dof_calls = t.calls["dof.sum_dof"]
    values = {
        "linalg.null_space.calls": (per_round(t.calls["linalg.null_space"]), "calls/round"),
        "linalg.null_space.ms": (ms("linalg.null_space"), "ms/round"),
        "linalg.solve_least_norm.calls": (per_round(t.calls["linalg.solve_least_norm"]), "calls/round"),
        "linalg.solve_least_norm.ms": (ms("linalg.solve_least_norm"), "ms/round"),
        "linalg.zf_solve.calls": (per_round(t.calls["linalg.zf_solve"]), "calls/round"),
        "linalg.zf_solve.ms": (ms("linalg.zf_solve"), "ms/round"),
        "linalg.rank.calls": (per_round(t.calls["linalg.rank"]), "calls/round"),
        "linalg.rank.ms": (ms("linalg.rank"), "ms/round"),
        "linalg.svd_gflop": (per_round(t.counters["linalg.svd_flop"]) / 1e9, "GFLOP/round"),
        "channel.draw_channels.calls": (per_round(t.calls["channel.draw_channels"]), "calls/round"),
        "channel.draw_channels.ms": (ms("channel.draw_channels"), "ms/round"),
        "channel.coeffs_drawn": (per_round(t.counters["channel.coeffs_drawn"]), "coeffs/round"),
        "scheduler.slot_of.calls": (per_round(t.calls["scheduler.slot_of"]), "calls/round"),
        "scheduler.listened_phase1.calls": (
            per_round(t.calls["scheduler.listened_phase1"]), "calls/round"),
        "precoder.design.calls": (per_round(t.calls["precoder.design"]), "calls/round"),
        "precoder.design.ms": (ms("precoder.design"), "ms/round"),
        "precoder.verify_constraints.ms": (ms("precoder.verify_constraints"), "ms/round"),
        "precoder.constraint_rows": (per_round(t.counters["precoder.constraint_rows"]), "rows/round"),
        "protocol.run_phase1.ms": (ms("protocol.run_phase1"), "ms/round"),
        "protocol.relay_process.ms": (ms("protocol.relay_process"), "ms/round"),
        "protocol.run_phase2.ms": (ms("protocol.run_phase2"), "ms/round"),
        "protocol.decode_user.calls": (per_round(t.calls["protocol.decode_user"]), "calls/round"),
        "protocol.decode_user.ms": (ms("protocol.decode_user"), "ms/round"),
        "protocol.checks.ms": (ms("protocol.checks"), "ms/round"),
        "protocol.equations_stored": (per_round(t.counters["protocol.equations_stored"]), "eqs/round"),
        "rate.trial_gains.us_per_trial": (
            1e6 * t.total_s["rate.trial_gains"] / trials if trials else 0.0, "us/trial"),
        "rate.snr_sweep.ms": (ms("rate.snr_sweep"), "ms/round"),
        "dof.sum_dof.calls": (per_round(sum_dof_calls), "calls/round"),
        "dof.sum_dof.us_per_call": (
            1e6 * t.total_s["dof.sum_dof"] / sum_dof_calls if sum_dof_calls else 0.0, "us/call"),
        "cli.main.ms": (1e3 * t.total_s["cli.main"] / rounds, "ms/round"),
        "cli.overhead.ms": (ms("cli.main"), "ms/round"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def span_table(t: Tracer, rounds: int) -> str:
    """Every span name with calls, inclusive and self milliseconds per round."""
    lines = [f"{'span':32s} {'calls/round':>12s} {'incl ms':>10s} {'self ms':>10s}"]
    for name in sorted(t.calls, key=lambda n: -t.self_s.get(n, 0.0)):
        lines.append(f"{name:32s} {t.calls[name] / rounds:12.1f} "
                     f"{1e3 * t.total_s.get(name, 0.0) / rounds:10.3f} "
                     f"{1e3 * t.self_s.get(name, 0.0) / rounds:10.3f}")
    return "\n".join(lines)
