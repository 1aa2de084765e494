"""Command-line front end: scenario runs, DoF sweeps, rate sweeps, verification.

Exit codes: 0 success, 1 output closed early, 2 usage error, 3 infeasible
configuration (antenna deficit / rank-deficient decoding), 4 verification
failure. The root seed, a nonnegative integer, defaults to $STPNC_SEED or 0; an
optional JSON config file can pre-set any flag of the subcommand; its
values are parsed like the flags themselves, and explicit flags win. Output
files are byte-identical across runs with identical arguments.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import re
import sys
from contextlib import nullcontext

import numpy as np

from . import dof, rate
from .channel import NetworkConfig
from .linalg import RankDeficient
from .precoder import AntennaDeficit
from .protocol import RELAY_MODES, SCENARIOS, scenario_schedule, simulate, verify_scenario
from .scheduler import InvalidUserCount

EXIT_OK = 0
EXIT_OUTPUT_CLOSED = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY_FAILED = 4

_GAIN_BLOCK = 2048  # trials per parallel work unit; fixed so merges are identical


class UsageError(Exception):
    pass


def _parse_relays(text) -> tuple:
    try:
        antennas = tuple(int(p) for p in str(text).split(","))
    except ValueError:
        raise UsageError(f"--relays expects comma-separated antenna counts, got {text!r}")
    if not antennas or any(m < 1 for m in antennas):
        raise UsageError("--relays needs at least one relay with at least one antenna")
    return antennas


def _parse_snr_grid(text) -> tuple:
    """SNR grid 'start:stop:step' in dB, endpoints inclusive; or a single value."""
    try:
        values = tuple(float(p) for p in str(text).split(":"))
        if len(values) not in (1, 3) or not all(map(math.isfinite, values)):
            raise ValueError
    except ValueError:
        raise UsageError(f"--snr expects finite 'start:stop:step' values in dB, got {text!r}")
    if len(values) == 1:
        return values
    start, stop, step = values
    if step <= 0 or stop < start:
        raise UsageError("--snr needs step > 0 and stop >= start")
    count = (stop - start) / step + 1e-9
    if not math.isfinite(count):
        raise UsageError(f"--snr grid {text!r} has no finite point count")
    return tuple(start + k * step for k in range(int(np.floor(count)) + 1))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing never mutates it."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", default=None, help="output path (default: stdout)")
    common.add_argument("--config", default=None,
                        help="JSON file with flag defaults; explicit flags win")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None,
                        help="root seed (default: $STPNC_SEED or 0)")
    network = argparse.ArgumentParser(add_help=False, parents=[seeded])
    network.add_argument("--scenario", required=True, choices=SCENARIOS)
    for name, entry in SCENARIOS.items():
        if entry.user_flag:
            network.add_argument(f"--{entry.user_flag}", type=int, help=f"user count for {name}")
    network.add_argument("--relays", help="comma-separated antenna counts, e.g. '2' or '1,1,2'")

    parser = argparse.ArgumentParser(
        prog="stpnc",
        description="Simulator for two-phase relayed multi-way exchange: "
                    "protocol runs, DoF tables, and ergodic-rate sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[network],
                       help="run the protocol end to end and report recovery quality")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--noise-var", type=float, default=0.0)
    p.add_argument("--relay-mode", choices=RELAY_MODES, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="json")

    p = sub.add_parser("dof-sweep", parents=[common],
                       help="closed-form sum-DoF table over single-antenna relay counts")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("rate-sweep", parents=[seeded],
                       help="Monte Carlo ergodic sum rate vs the TDMA baseline")
    p.add_argument("--snr", required=True, help="grid 'start:stop:step' in dB")
    p.add_argument("--jobs", type=int, default=0,
                   help="worker processes for Monte Carlo blocks (0 = all cores; "
                        "at most the core count)")
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("verify", parents=[network],
                       help="run the invariant suite over many seeds; exit 0 iff all pass")
    p.add_argument("--seeds", type=int, default=100)
    return parser


def _parse_args(argv: list) -> argparse.Namespace:
    """Parse argv; a --config file's values enter as flags placed before the explicit ones.

    Argparse keeps the last value of a flag, so explicit flags win. Keys that
    name no flag of the subcommand are ignored. Errors exit through argparse.
    """
    argv = list(argv)  # argparse reads a negative grid ('-10:30:10') as a flag; bind it with '='
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] == "--snr" and re.match(r"-[\d.]", argv[i]):
            argv[i - 1:i + 1] = [f"--snr={argv[i]}"]
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.config is None:
        return ns
    try:
        with open(ns.config) as f:
            overrides = json.load(f)
    except (OSError, ValueError) as exc:
        parser.error(f"cannot read --config {ns.config}: {exc}")
    if not isinstance(overrides, dict):
        parser.error("--config must hold a JSON object of flag values")
    tokens = []
    for key, val in overrides.items():
        attr = key.replace("-", "_")
        if attr in ("command", "config") or not hasattr(ns, attr):
            continue
        if isinstance(val, list):
            val = ",".join(str(v) for v in val)
        tokens.append(f"--{attr.replace('_', '-')}={val}")
    return parser.parse_args([argv[0], *tokens, *argv[1:]])


def _resolve_seed(ns: argparse.Namespace) -> int:
    """--seed (a config's seed included), else $STPNC_SEED, else 0: a nonnegative integer."""
    text = os.environ.get("STPNC_SEED", "0") if ns.seed is None else str(ns.seed)
    if not text.strip().isdecimal():
        name = "$STPNC_SEED" if ns.seed is None else "--seed"
        raise UsageError(f"{name} must be a nonnegative integer, got {text!r}")
    return int(text)


def _network_config(ns: argparse.Namespace, noise_var: float = 0.0) -> NetworkConfig:
    """Users from the scenario's user-count flag or schedule; relays from --relays or schedule."""
    flag = SCENARIOS[ns.scenario].user_flag
    users = getattr(ns, flag) if flag else None
    if flag and users is None:
        raise UsageError(f"--{flag} is required for scenario {ns.scenario}")
    sched = scenario_schedule(ns.scenario, users)
    if ns.relays is None and sched.relays is None:
        raise UsageError(f"--relays is required for scenario {ns.scenario}")
    relays = sched.relays if ns.relays is None else _parse_relays(ns.relays)
    try:
        return NetworkConfig(len(sched.users), relays, noise_var=noise_var)
    except ValueError as exc:  # the config's own rules; only the noise rule is left to fail here
        raise UsageError(str(exc).replace("noise_var", "--noise-var"))


def _out_stream(ns: argparse.Namespace):
    if ns.output in (None, "-"):
        return nullcontext(sys.stdout)
    try:
        return open(ns.output, "w")
    except OSError as exc:
        raise UsageError(f"cannot write --output {ns.output}: {exc.strerror}")


def _write_json(doc, f) -> None:
    """Every JSON output's form: indented, keys sorted, one final newline."""
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")


def _report_json(rep, i: int) -> dict:
    return {
        "trial": i,
        "seed": rep.seeds[i],
        "max_symbol_error": float(rep.max_symbol_error[i]),
        "constraint_residual": float(rep.constraint_residual[i]),
        "max_stray_coeff": float(rep.max_stray_coeff[i]),
        "alignment_error": float(rep.alignment_error[i]),
        "linearity_error": float(rep.linearity_error[i]),
        "achieved_dof": str(rep.achieved_dof(i)),
        "slots_used": rep.sched.n_slots,
        "symbols_delivered": len(rep.sched.symbols),
        "effective_ranks": {str(k): r for k, r in zip(rep.sched.users, rep.effective_ranks[i].tolist())},
        "recovered": {f"{sym.dest}:{sym.src}": [val.real, val.imag]
                      for sym, val in zip(rep.sched.symbols, rep.recovered[i].tolist())},
    }


def _cmd_simulate(ns: argparse.Namespace) -> int:
    if ns.trials < 1:
        raise UsageError("--trials must be at least 1")
    seed = _resolve_seed(ns)
    cfg = _network_config(ns, noise_var=ns.noise_var)
    mode = ns.relay_mode or SCENARIOS[ns.scenario].relay_mode
    rep = simulate(ns.scenario, cfg, seed, ns.trials, mode)
    with _out_stream(ns) as f:
        if ns.format == "json":
            doc = {
                "scenario": ns.scenario,
                "K": cfg.K,
                "relay_antennas": list(cfg.relay_antennas),
                "power_P": 1.0,  # unit transmit power; the key stays in the schema
                "noise_var": cfg.noise_var,
                "relay_mode": mode,
                "trials": [_report_json(rep, i) for i in range(len(rep.seeds))],
            }
            _write_json(doc, f)
        else:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["trial", "seed", "max_symbol_error", "constraint_residual",
                        "achieved_dof", "slots_used", "symbols_delivered",
                        "rank_min", "rank_max"])
            for i, seed in enumerate(rep.seeds):
                w.writerow([i, seed, f"{rep.max_symbol_error[i]:.10g}", f"{rep.constraint_residual[i]:.10g}",
                            str(rep.achieved_dof(i)), rep.sched.n_slots, len(rep.sched.symbols),
                            rep.effective_ranks[i].min(), rep.effective_ranks[i].max()])
    return EXIT_OK


def _cmd_dof_sweep(ns: argparse.Namespace) -> int:
    if ns.k < 3:
        raise UsageError("--k must be at least 3")
    if ns.l_max < 1:
        raise UsageError("--l-max must be at least 1")
    rows = dof.single_antenna_sweep(ns.k, ns.l_max)
    with _out_stream(ns) as f:
        if ns.format == "csv":
            dof.write_sweep_csv(rows, f)
        else:
            doc = [
                {
                    "L": L,
                    "term_in": str(r.term_in),
                    "term_in_ia": str(r.term_in_ia),
                    "term_ia": str(r.term_ia),
                    "gof": str(r.gof),
                    "stpnc_value": str(r.value),
                    "optimal": r.optimal,
                }
                for L, r in rows
            ]
            _write_json(doc, f)
    return EXIT_OK


def _parallel_gains(seed: int, trials: int, jobs: int) -> np.ndarray:
    blocks = [(seed, start, min(_GAIN_BLOCK, trials - start))
              for start in range(0, trials, _GAIN_BLOCK)]
    if jobs == 1 or len(blocks) == 1:
        parts = [rate.trial_gains(*b) for b in blocks]
    else:
        from multiprocessing import Pool  # here, so processes that start no worker skip its import
        with Pool(min(jobs, len(blocks))) as pool:
            parts = pool.starmap(rate.trial_gains, blocks)
    return np.vstack(parts)


def _cmd_rate_sweep(ns: argparse.Namespace) -> int:
    seed = _resolve_seed(ns)
    grid = _parse_snr_grid(ns.snr)
    if ns.trials < 1:
        raise UsageError("--trials must be at least 1")
    if ns.jobs < 0:
        raise UsageError("--jobs must be nonnegative (0 = all cores)")
    cores = os.cpu_count() or 1  # outputs do not depend on the worker count
    jobs = min(ns.jobs, cores) if ns.jobs else cores
    gains = _parallel_gains(seed, ns.trials, jobs)
    try:  # the grid and trial count are checked above: an overflow is the one ValueError left
        result = rate.snr_sweep(grid, gains)
    except ValueError:
        raise UsageError(f"--snr {ns.snr!r} is too high: its rates overflow")
    cross = "none" if result.crossover_db is None else f"{result.crossover_db:.4g}"
    with _out_stream(ns) as f:
        if ns.format == "csv":
            rate.write_rate_csv(result, f)
        else:
            points = [dict(zip(rate.COLUMNS, row)) for row in result.table.tolist()]
            _write_json({"seed": seed, "trials": ns.trials, "crossover_db": result.crossover_db,
                         "points": points}, f)
    summary = sys.stdout if ns.output not in (None, "-") else sys.stderr
    print(f"crossover_db={cross}", file=summary)
    return EXIT_OK


def _cmd_verify(ns: argparse.Namespace) -> int:
    if ns.seeds < 1:
        raise UsageError("--seeds must be at least 1")
    seed = _resolve_seed(ns)
    cfg = _network_config(ns, noise_var=0.0)
    summary = verify_scenario(ns.scenario, cfg, ns.seeds, seed)
    with _out_stream(ns) as f:
        _write_json(summary, f)
    return EXIT_OK if summary["passed"] else EXIT_VERIFY_FAILED


_COMMANDS = {
    "simulate": _cmd_simulate,
    "dof-sweep": _cmd_dof_sweep,
    "rate-sweep": _cmd_rate_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        ns = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        status = _COMMANDS[ns.command](ns)
        sys.stdout.flush()  # a closed pipe fails here, not in the interpreter's exit flush
        return status
    except BrokenPipeError:  # point stdout at devnull so no later flush fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OUTPUT_CLOSED
    except (UsageError, InvalidUserCount) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AntennaDeficit, RankDeficient) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
