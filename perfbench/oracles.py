"""Independent checks of stpnc's outputs, written with numpy and the stdlib only.

None of these compares against stored copies of earlier output. The verify
oracle rebuilds each seed's inputs through the public draw and design
functions and applies the benchmark's own reading of the paper's rule: a user
may receive its desired symbols (D), its own symbols (SI), interference in
the shape it overheard (OI) and nothing else (N). The rate oracle integrates
the two ergodic-rate curves in closed form; the DoF oracle checks the
table's defining properties row by row.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction

import numpy as np

from stpnc.channel import NetworkConfig, derive_trial_seed, draw_channels
from stpnc.dof import sum_dof
from stpnc.linalg import InconsistentSystem, RankDeficient
from stpnc.precoder import (
    AntennaDeficit,
    SynthesisFailed,
    design_case1,
    design_case2,
    design_twic,
    design_twxc,
)
from stpnc.protocol import draw_symbols
from stpnc.scheduler import (
    SymbolId,
    schedule_case1,
    schedule_case2,
    schedule_twic,
    schedule_twxc,
)

COEFF_TOL = 1e-9     # |N coefficient| and |OI coefficient - phase-1 coefficient|
SYMBOL_TOL = 1e-8    # relative error of a recovered symbol
RATE_Z = 4.0         # rate curves must sit within this many standard errors
CROSSOVER_DB = (6.0, 10.0)
# what one seed may raise; each counts as that seed's failure, and the run goes on
SEED_ERRORS = (AntennaDeficit, RankDeficient, SynthesisFailed, InconsistentSystem)


def scenario_dof(scenario: str, K: int) -> Fraction:
    """Symbols per slot each construction delivers, from the paper's closed forms."""
    return {
        "twic": Fraction(4, 3),
        "twxc": Fraction(8, 5),
        "case1": Fraction(K, 2),
        "case2": Fraction(K * (K - 2), 2 * K - 3),
    }[scenario]


def _schedule_and_design(scenario: str, K: int):
    if scenario == "twic":
        return schedule_twic(), design_twic
    if scenario == "twxc":
        return schedule_twxc(), design_twxc
    if scenario == "case1":
        return schedule_case1(K), lambda ch: design_case1(ch, K)
    return schedule_case2(K), lambda ch: design_case2(ch, K)


def classify(sched, j: int, t1: int, sym) -> str:
    """D, SI, OI or N for symbol sym (sent in phase-1 slot t1) as seen by user j."""
    if sym.dest == j:
        return "D"
    if sym.src == j:
        return "SI"
    if j in sched.slots[t1 - 1].destinations:
        return "OI"
    return "N"


def end_to_end_coefficients(sched, ch, p):
    """Yield (t, j, t1, sym, coefficient) for every phase-2 slot, user and symbol.

    Block precoders: sum over relays of h_dn(j, l, t) V_(l,t,t1) h_up(l, src, t1).
    Per-symbol beams (decode-and-forward): h_dn(j, 1, t) v_(t, sym).
    """
    users = list(sched.users)
    n_relays = len(ch.config.relay_antennas)
    for t in range(sched.phase1_len + 1, sched.phase1_len + sched.phase2_len + 1):
        for t1 in range(1, sched.phase1_len + 1):
            sends = sorted(sched.slots[t1 - 1].sends.items())
            syms = [sym for _, sym in sends]
            if p.mode == "per_symbol":
                dn = np.array([ch.relay_user[(j, 1, t)] for j in users])
                beams = np.stack([p.per_symbol[(t, sym)] for sym in syms], axis=1)
                coeffs = dn @ beams
            else:
                coeffs = np.zeros((len(users), len(syms)), dtype=complex)
                for ell in range(1, n_relays + 1):
                    dn = np.array([ch.relay_user[(j, ell, t)] for j in users])
                    up = np.stack([ch.user_relay[(ell, i, t1)] for i, _ in sends], axis=1)
                    coeffs += dn @ p.per_block[(ell, t, t1)] @ up
            for a, j in enumerate(users):
                for b, sym in enumerate(syms):
                    yield t, j, t1, sym, complex(coeffs[a, b])


def check_verify_seed(scenario: str, cfg: NetworkConfig, seed: int, trial: dict) -> list:
    """Names of the checks one verify seed fails; trial is its `simulate` JSON entry."""
    sched, design = _schedule_and_design(scenario, cfg.K)
    ch = draw_channels(cfg, sched.phase1_len + sched.phase2_len, derive_trial_seed(seed, 0))
    syms = draw_symbols(sched, derive_trial_seed(seed, 1))
    p = design(ch)
    failed = set()
    if trial.get("seed") != seed:
        failed.add("oracle.seed_mismatch")
    for t, j, t1, sym, c in end_to_end_coefficients(sched, ch, p):
        kind = classify(sched, j, t1, sym)
        if kind == "N" and abs(c) > COEFF_TOL:
            failed.add("oracle.neutralized_coefficient")
        if kind == "OI":
            pure = all(s.dest != j for s in sched.slots[t1 - 1].sends.values())
            if pure and abs(c - ch.user_user[(j, sym.src, t1)]) > COEFF_TOL:
                failed.add("oracle.aligned_coefficient")
    recovered = 0
    reported = trial.get("recovered", {})
    if set(reported) != {f"{s.dest}:{s.src}" for s in syms}:
        failed.add("oracle.symbol_set")
    for key, (re, im) in reported.items():
        dest, src = (int(x) for x in key.split(":"))
        want = syms.get(SymbolId(dest, src))
        if want is not None and abs(complex(re, im) - want) <= SYMBOL_TOL * abs(want):
            recovered += 1
    if recovered != len(syms):
        failed.add("oracle.symbol_recovery")
    dof = Fraction(recovered, sched.phase1_len + sched.phase2_len)
    closed_form = scenario_dof(scenario, cfg.K)
    bound = sum_dof(cfg.K, cfg.relay_antennas).value
    if dof != closed_form:
        failed.add("oracle.recovered_dof")
    if not closed_form <= bound <= Fraction(cfg.K, 2):
        failed.add("oracle.dof_bound")
    return sorted(failed)


def check_verify_summary(scenario: str, cfg: NetworkConfig, doc: dict) -> list:
    """Names of the checks a `verify` JSON summary fails as a whole."""
    failed = []
    if doc.get("passed") is not True or doc.get("failures"):
        failed.append("verify.passed")
    if doc.get("achieved_dof") != str(scenario_dof(scenario, cfg.K)):
        failed.append("verify.achieved_dof")
    if not doc.get("max_symbol_error", 1.0) < SYMBOL_TOL:
        failed.append("verify.max_symbol_error")
    return failed


# ---- ergodic rates ------------------------------------------------------------------

def rate_quadrature(snr_db) -> tuple[np.ndarray, np.ndarray]:
    """Exact ergodic sum rates (relayed exchange, TDMA) by trapezoidal quadrature.

    TDMA: the direct gain is Exp(1), so E log2(1+rho g) = int_0^inf exp(-(2^r-1)/rho) dr.
    Relayed: the uplink gain after nulling is Exp(1) and the direct-plus-relayed
    downlink gain is Gamma(2,1), independent of it; with a = (2^r-1)/rho,
    P(min of the two hop rates > r) = exp(-a) exp(-2.5a)(1+2.5a), and four
    symbols cross in three slots.
    """
    stpnc, tdma = [], []
    for snr in snr_db:
        rho = 10.0 ** (snr / 10.0)
        r = np.linspace(0.0, np.log2(1.0 + 60.0 * rho), 200_001)
        a = (np.exp2(r) - 1.0) / rho
        tdma.append(np.trapezoid(np.exp(-a), r))
        stpnc.append(4.0 / 3.0 * np.trapezoid(np.exp(-3.5 * a) * (1.0 + 2.5 * a), r))
    return np.array(stpnc), np.array(tdma)


def parse_rate_csv(text: str) -> np.ndarray:
    """Rows of (snr_db, stpnc_rate, stpnc_stderr, tdma_rate, tdma_stderr)."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "snr_db,stpnc_rate,stpnc_stderr,tdma_rate,tdma_stderr":
        raise ValueError("unexpected rate-sweep header")
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def pooled_curves(tables, trials) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pool independent sweeps into one mean and standard error per SNR point and curve.

    Each sweep reports mean m_i and stderr s_i/sqrt(n_i) with sample
    variance s_i^2; the pooled sample variance adds the within-sweep and
    between-sweep sums of squares.
    """
    n = np.asarray(trials, dtype=float)[:, None]
    big_n = n.sum()
    out = []
    for col in (1, 3):
        m = np.stack([tab[:, col] for tab in tables])
        se = np.stack([tab[:, col + 1] for tab in tables])
        mean = (n * m).sum(axis=0) / big_n
        ss = ((n - 1) * se ** 2 * n).sum(axis=0) + (n * (m - mean) ** 2).sum(axis=0)
        out += [mean, np.sqrt(ss / (big_n - 1) / big_n)]
    return tuple(out)


def crossover(snr_db, stpnc, tdma):
    """First upward crossing of the relayed curve over TDMA, linearly interpolated."""
    d = stpnc - tdma
    for i in range(len(d) - 1):
        if d[i] <= 0.0 < d[i + 1]:
            return float(snr_db[i] + (snr_db[i + 1] - snr_db[i]) * (-d[i]) / (d[i + 1] - d[i]))
    return None


def check_rate_table(text: str, snr_db) -> list:
    """Names of the exact checks one rate-sweep table fails.

    Both curves must rise strictly with SNR: on the same channel draws every
    trial's rate does, so their means must too. No check here can fail by
    chance, so it applies to sweeps of any size.
    """
    try:
        tab = parse_rate_csv(text)
    except ValueError:
        return ["rate.csv_format"]
    if tab.shape != (len(snr_db), 5) or not np.allclose(tab[:, 0], snr_db):
        return ["rate.grid"]
    failed = []
    if np.any(np.diff(tab[:, 1]) <= 0) or np.any(np.diff(tab[:, 3]) <= 0):
        failed.append("rate.monotone")
    if not np.all(np.isfinite(tab)) or np.any(tab[:, [2, 4]] < 0):
        failed.append("rate.stderr")
    return failed


def check_rate_sweeps(texts, trials, snr_db) -> list:
    """Names of the statistical checks the pooled rate-sweep tables of one run fail.

    The tables must already pass check_rate_table. The 6-10 dB crossover
    window needs many trials: one sweep's crossover has a standard deviation
    of 0.62 dB at 2048 trials, against 8.27 dB exact.
    """
    s_mean, s_se, t_mean, t_se = pooled_curves([parse_rate_csv(t) for t in texts], trials)
    s_exact, t_exact = rate_quadrature(snr_db)
    failed = []
    if np.any(np.abs(s_mean - s_exact) > RATE_Z * s_se):
        failed.append("rate.stpnc_quadrature")
    if np.any(np.abs(t_mean - t_exact) > RATE_Z * t_se):
        failed.append("rate.tdma_quadrature")
    cross = crossover(np.asarray(snr_db), s_mean, t_mean)
    if cross is None or not CROSSOVER_DB[0] <= cross <= CROSSOVER_DB[1]:
        failed.append("rate.crossover")
    return failed


# ---- DoF tables ---------------------------------------------------------------------

def check_dof_table(text: str, K: int, l_max: int) -> tuple[int, list]:
    """(rows failing, check names) for one `dof-sweep` CSV over L = 1..l_max single-antenna relays.

    value == K/2 exactly when L >= (K-1)(K-2)+1; value nondecreasing in L;
    value >= the GOF baseline column.
    """
    rows = list(csv.DictReader(io.StringIO(text)))
    if [int(r["L"]) for r in rows] != list(range(1, l_max + 1)):
        return l_max, ["dof.rows"]
    bad, names = 0, set()
    prev = Fraction(0)
    for r in rows:
        L, value, gof = int(r["L"]), Fraction(r["stpnc_exact"]), Fraction(r["gof"])
        ok = True
        if (value == Fraction(K, 2)) != (L >= (K - 1) * (K - 2) + 1):
            names.add("dof.optimal_iff_antennas")
            ok = False
        if value < prev:
            names.add("dof.monotone")
            ok = False
        if value < gof:
            names.add("dof.above_gof")
            ok = False
        prev = value
        bad += not ok
    return bad, sorted(names)
