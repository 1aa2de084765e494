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
import dataclasses
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
from .protocol import SCENARIOS, scenario_schedule, simulate, verify_scenario
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

    parser = argparse.ArgumentParser(
        prog="stpnc",
        description="Simulator for two-phase relayed multi-way exchange: "
                    "protocol runs, DoF tables, and ergodic-rate sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[seeded],
                       help="run the protocol end to end and report recovery quality")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--k1", type=int, default=None, help="user count for case1")
    p.add_argument("--k2", type=int, default=None, help="user count for case2")
    p.add_argument("--relays", default=None,
                   help="comma-separated antenna counts, e.g. '2' or '1,1,2'")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--noise-var", type=float, default=0.0)
    p.add_argument("--relay-mode", choices=("decode_forward", "linear_forward"), default=None)
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

    p = sub.add_parser("verify", parents=[seeded],
                       help="run the invariant suite over many seeds; exit 0 iff all pass")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--k1", type=int, default=None)
    p.add_argument("--k2", type=int, default=None)
    p.add_argument("--relays", default=None)
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
    return NetworkConfig(len(sched.users), relays, noise_var=noise_var)


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


def _report_json(rep, trial: int) -> dict:
    return {
        "trial": trial,
        "seed": rep.seed,
        "max_symbol_error": rep.max_symbol_error,
        "constraint_residual": rep.constraint_residual,
        "max_stray_coeff": rep.max_stray_coeff,
        "alignment_error": rep.alignment_error,
        "linearity_error": rep.linearity_error,
        "achieved_dof": str(rep.achieved_dof),
        "slots_used": rep.slots_used,
        "symbols_delivered": rep.symbols_delivered,
        "effective_ranks": {str(k): r for k, r in sorted(rep.effective_ranks.items())},
        "recovered": {
            f"{sym.dest}:{sym.src}": [val.real, val.imag] for sym, val in sorted(rep.recovered.items())
        },
    }


def _cmd_simulate(ns: argparse.Namespace) -> int:
    if ns.noise_var < 0:
        raise UsageError("--noise-var must be nonnegative")
    if not math.isfinite(ns.noise_var):
        raise UsageError("--noise-var must be finite")
    if ns.trials < 1:
        raise UsageError("--trials must be at least 1")
    seed = _resolve_seed(ns)
    cfg = _network_config(ns, noise_var=ns.noise_var)
    mode = ns.relay_mode or SCENARIOS[ns.scenario].relay_mode
    reports = simulate(ns.scenario, cfg, seed, ns.trials, mode)
    with _out_stream(ns) as f:
        if ns.format == "json":
            doc = {
                "scenario": ns.scenario,
                "K": cfg.K,
                "relay_antennas": list(cfg.relay_antennas),
                "power_P": 1.0,  # unit transmit power; the key stays in the schema
                "noise_var": cfg.noise_var,
                "relay_mode": mode,
                "trials": [_report_json(rep, i) for i, rep in enumerate(reports)],
            }
            _write_json(doc, f)
        else:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["trial", "seed", "max_symbol_error", "constraint_residual",
                        "achieved_dof", "slots_used", "symbols_delivered",
                        "rank_min", "rank_max"])
            for i, rep in enumerate(reports):
                ranks = rep.effective_ranks.values()
                w.writerow([i, rep.seed, f"{rep.max_symbol_error:.10g}",
                            f"{rep.constraint_residual:.10g}", str(rep.achieved_dof),
                            rep.slots_used, rep.symbols_delivered, min(ranks), max(ranks)])
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
    result = rate.snr_sweep(grid, gains)
    cross = "none" if result.crossover_db is None else f"{result.crossover_db:.4g}"
    with _out_stream(ns) as f:
        if ns.format == "csv":
            rate.write_rate_csv(result, f)
        else:
            points = [dataclasses.asdict(p) for p in result.points]
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
