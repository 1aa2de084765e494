"""solve_least_norm in dual (Gram) form against the complete-QR kernel it replaced.

``qr_least_norm`` is that kernel's body, kept here as the oracle: the point of {a x = b}
nearest to x0 from one batched complete QR a^H = [Q1 N] R as x = N N^H x0 + Q1 R^-H b.
Both kernels must give the same verdicts, and solutions within 1e-9 relative, on random
stacks and on the stacks ``design`` hands the solver.
"""

import math

import numpy as np
import pytest

from stpnc import precoder
from stpnc.channel import NetworkConfig, draw_channels
from stpnc.linalg import ABS_EPS, as_cmatrix, solve_least_norm
from stpnc.protocol import scenario_schedule


def qr_least_norm(a, b, x0=None):
    """The complete-QR least-norm kernel, verbatim: the R^-H solve is skipped where b is
    zero, members whose R has an exact zero on its diagonal are left NaN, and with r > n only
    the leading n equations are solved; the verdict is the same residual gate."""
    m = as_cmatrix(a)
    batch, (r, n) = m.shape[:-2], m.shape[-2:]
    size = math.prod(batch)
    m = m.reshape(size, r, n)
    rhs = np.asarray(b, dtype=complex).reshape(size, r)
    lead = min(r, n)
    q, rr = np.linalg.qr(m[:, :lead].conj().transpose(0, 2, 1), mode="complete")
    if x0 is None:
        x, base = np.zeros((size, n), dtype=complex), rhs
    else:
        start = np.broadcast_to(np.asarray(x0, dtype=complex), (size, n))
        null = q[:, :, lead:]
        x = (null @ (null.conj().transpose(0, 2, 1) @ start[:, :, None]))[:, :, 0]
        base = (m @ start[:, :, None])[:, :, 0] - rhs
    active = rhs.any(axis=1)
    regular = np.diagonal(rr, axis1=1, axis2=2).all(axis=1)
    x[active & ~regular] = np.nan
    solved = np.flatnonzero(active & regular)
    if solved.size:
        lower = rr[solved, :lead].conj().transpose(0, 2, 1)
        y = np.linalg.solve(lower, rhs[solved, :lead, None])
        x[solved] += (q[solved, :, :lead] @ y)[:, :, 0]
    resid = np.linalg.norm((m @ x[:, :, None])[:, :, 0] - rhs, axis=1)
    ok = resid <= ABS_EPS * (1.0 + np.linalg.norm(base, axis=1))
    return x.reshape(batch + (n,)), ok.reshape(batch)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def assert_matches_oracle(a, b, x0=None):
    """Equal verdicts, and every passing member within 1e-9 of the oracle's x relative to
    the problem's scale, ||x|| + ||x0|| (a homogeneous square system solves to 0)."""
    x, ok = solve_least_norm(a, b, x0)
    want, verdict = qr_least_norm(a, b, x0)
    assert np.array_equal(ok, verdict)
    scale = np.linalg.norm(want[ok], axis=-1) + (0.0 if x0 is None else np.linalg.norm(x0))
    assert np.all(np.linalg.norm(x[ok] - want[ok], axis=-1) <= 1e-9 * scale)
    return ok


@pytest.mark.parametrize("r,n", [(3, 5), (4, 4), (1, 6), (6, 4)], ids=["wide", "square", "one-row", "tall"])
def test_random_stacks_match_the_qr_oracle(r, n):
    # with r > n only the leading n equations are solved, so a random target fails the gate
    rng = np.random.default_rng(r * 10 + n)
    a, x0 = crandn(rng, 3, 4, r, n), crandn(rng, n)
    consistent = np.einsum("...ij,...j->...i", a, crandn(rng, 3, 4, n))
    for b, solvable in ((crandn(rng, 3, 4, r), r <= n), (consistent, True), (np.zeros((3, 4, r)), True)):
        for start in (None, x0):
            assert (assert_matches_oracle(a, b, start) == solvable).all()


def test_singular_and_zero_row_members_keep_the_oracles_verdicts():
    rng = np.random.default_rng(3)
    a, b, x0 = crandn(rng, 4, 3, 4), crandn(rng, 4, 3), crandn(rng, 4)
    a[1, 2] = a[1, 0]  # equal rows, unequal targets: inconsistent and exactly singular
    a[2, 1] = 0        # a zero row with a nonzero target: inconsistent
    assert assert_matches_oracle(a, b, x0).tolist() == [True, False, False, True]


def test_a_vacuous_equation_no_longer_fails_its_system():
    # a zero row with a zero target: the dual form solves the other rows, while the QR
    # kernel left the member NaN for its exact zero on R's diagonal
    rng = np.random.default_rng(4)
    a, b, x0 = crandn(rng, 3, 4), crandn(rng, 3), crandn(rng, 4)
    a[1], b[1] = 0, 0
    x, ok = solve_least_norm(a, b, x0)
    assert ok and not qr_least_norm(a, b, x0)[1]
    rows = [0, 2]
    assert np.linalg.norm(x - solve_least_norm(a[rows], b[rows], x0)[0]) <= 1e-12


def design_stacks(sched, ch, monkeypatch, kernel=None):
    """Every (a, b, x0) design hands its solver, with the bank it builds; kernel, when given,
    replaces the solver."""
    real, seen = kernel or precoder.solve_least_norm, []

    def record(a, b, x0=None):
        seen.append((a, b, x0))
        return real(a, b, x0)

    with monkeypatch.context() as patch:
        patch.setattr(precoder, "solve_least_norm", record)
        p = precoder.design(sched, ch)
    return seen, p


RELAY_SETS = {
    "case1-6-21x1": ("case1", 6, (1,) * 21, 1),
    "case2-6-16x1": ("case2", 6, (1,) * 16, 1),
    "twic": ("twic", 4, (2,), 20),
    "twxc": ("twxc", 4, (2,), 12),
    "case1-8-7": ("case1", 8, (7,), 1),
    "case2-8-6": ("case2", 8, (6,), 1),
    "case1-9-7222": ("case1", 9, (7, 2, 2, 2), 1),
    "case2-10-8": ("case2", 10, (8,), 1),
    "case1-10-9": ("case1", 10, (9,), 1),
    "case1-5-2221": ("case1", 5, (2, 2, 2, 1), 4),
}


@pytest.mark.parametrize("scenario,K,antennas,seeds", RELAY_SETS.values(), ids=RELAY_SETS)
def test_design_stacks_and_banks_match_the_qr_oracle(monkeypatch, scenario, K, antennas, seeds):
    sched = scenario_schedule(scenario, K)
    ch = draw_channels(NetworkConfig(K, antennas), sched.n_slots, list(range(seeds)))
    seen, p = design_stacks(sched, ch, monkeypatch)
    for a, b, x0 in seen:
        assert assert_matches_oracle(a, b, x0).all()
    _, oracle = design_stacks(sched, ch, monkeypatch, qr_least_norm)
    assert p.failures == oracle.failures == {}
    assert np.linalg.norm(p.bank - oracle.bank) <= 1e-9 * np.linalg.norm(oracle.bank)
    assert np.all(p.residual <= 1e-10)


REFUTED = {
    "case1-5-32": ("case1", 5, (3, 2)),
    "case2-7-43": ("case2", 7, (4, 3)),
    "case1-10-83": ("case1", 10, (8, 3)),
}


@pytest.mark.parametrize("scenario,K,antennas", REFUTED.values(), ids=REFUTED)
def test_refuted_sets_keep_the_oracles_verdicts(monkeypatch, scenario, K, antennas):
    sched = scenario_schedule(scenario, K)
    ch = draw_channels(NetworkConfig(K, antennas), sched.n_slots, [0, 1, 2])
    seen, p = design_stacks(sched, ch, monkeypatch)
    for a, b, x0 in seen:
        assert np.array_equal(solve_least_norm(a, b, x0)[1], qr_least_norm(a, b, x0)[1])
    _, oracle = design_stacks(sched, ch, monkeypatch, qr_least_norm)
    assert {i: str(e) for i, e in p.failures.items()} == {i: str(e) for i, e in oracle.failures.items()}


def test_faulty_twxc_chunk_keeps_the_oracles_verdicts(monkeypatch):
    # seed 2 has no uplinks (zero rows against alignment targets), seed 1 a deaf user 1
    sched = scenario_schedule("twxc")
    ch = draw_channels(NetworkConfig(4, (2,)), sched.n_slots, [0, 1, 2, 3])
    ch.up[2] = 0.0
    ch.gain[1, 2, 0] = 0.0
    seen, p = design_stacks(sched, ch, monkeypatch)
    (a, b, x0), = seen
    ok = assert_matches_oracle(a, b, x0)
    assert ok[[0, 1, 3]].all() and not ok[2].all()
    _, oracle = design_stacks(sched, ch, monkeypatch, qr_least_norm)
    assert list(p.failures) == list(oracle.failures) == [2]
    assert str(p.failures[2]) == str(oracle.failures[2])
