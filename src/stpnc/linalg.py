"""Dense complex linear-algebra kernels used by the precoder, protocol and rate code.

Everything operates on complex numpy arrays, deterministically. ``solve_least_norm``
and ``zf_solve`` take a stack of systems of one shape, (..., r, n), and solve them all
from one batched decomposition whose result per system is bitwise that of the system
alone, so a batch of seeds decodes exactly as each seed would by itself. Neither raises
for a bad system: each reports a per-system status next to its solutions (the residual
gate's verdict, the kept singular-value count), and the caller decides what a failure
means. The precoders use only ``solve_least_norm`` (one batched QR); decoding uses
``zf_solve`` (one batched SVD). ``null_space`` (ascending singular values, each column's
first significant entry real positive) and ``rank`` stay as test oracles and benchmark
bindings.
"""

from __future__ import annotations

import math

import numpy as np


class InconsistentSystem(Exception):
    """The linear constraints admit no solution within tolerance.

    Nothing raises it: ``solve_least_norm`` returns a verdict per system, and ``design``
    reports an infeasible slot pair as AntennaDeficit. perfbench/oracles.py imports it.
    """


class RankDeficient(Exception):
    """The coefficient matrix does not have full column rank."""


# Singular values at or below REL_EPS * s_max * max(shape) count as zero.
REL_EPS = 1e-10
# A least-norm solve is consistent when its residual is at most ABS_EPS * (1 + ||a x0 - b||).
ABS_EPS = 1e-10

# Entries below this magnitude never count as the anchor for the phase fix;
# null-space columns are unit norm, so their largest entry is >= 1/sqrt(n).
_PHASE_ANCHOR_EPS = 1e-12


def as_cmatrix(a) -> np.ndarray:
    """Coerce input to a complex array of at least 2-D, rejecting NaN/Inf entries."""
    m = np.atleast_2d(np.asarray(a, dtype=complex))
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def _kept(s: np.ndarray, shape: tuple[int, int]):
    """How many of the descending singular values s (..., k) of each (rows, cols) matrix
    lie above the relative cutoff."""
    return (s > REL_EPS * s[..., :1] * max(shape)).sum(axis=-1)


def rank(a) -> int:
    """Number of singular values above the relative cutoff."""
    m = as_cmatrix(a)
    s = np.linalg.svd(m, compute_uv=False)
    return int(_kept(s, m.shape))


def null_space(a) -> np.ndarray:
    """Orthonormal basis of the right null space of a, as matrix columns.

    Columns are ordered by ascending singular value and phase-fixed so the
    first significant entry of each column is real positive. Returns a
    (cols x 0) matrix when the null space is trivial.
    """
    m = as_cmatrix(a)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    r = int(_kept(s, m.shape))
    basis = vh[r:][::-1].conj().T  # smallest singular direction first
    for j in range(basis.shape[1]):
        col = basis[:, j]
        anchor = np.flatnonzero(np.abs(col) > _PHASE_ANCHOR_EPS)[0]
        basis[:, j] = col * np.exp(-1j * np.angle(col[anchor]))
    return basis


def solve_least_norm(a, b, x0=None) -> tuple[np.ndarray, np.ndarray]:
    """The x with a @ x = b nearest to x0 (minimum norm when x0 is omitted), per system,
    and each system's verdict.

    a is (..., r, n) and b (..., r): one system per leading index, all solved from one
    batched complete QR a^H = [Q1 N] R as x = N N^H x0 + Q1 R^-H b. The R^-H solve is
    skipped where b is zero, so a homogeneous system returns the projection of x0 onto a
    null space even when a is rank deficient; the other systems take one batched solve,
    and those whose R has an exact zero on its diagonal are left NaN. With r > n only the
    leading n equations are solved. The verdict (...,) is the residual gate, ||a x - b|| <=
    ABS_EPS * (1 + ||a x0 - b||): False where the system is inconsistent, singular or comes
    out non-finite (its x may then hold NaN). That signals infeasible precoder constraints,
    and it is the only check: QR does not reveal rank.
    """
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
    regular = np.diagonal(rr, axis1=1, axis2=2).all(axis=1)  # a zero on R's diagonal: singular
    x[active & ~regular] = np.nan  # the gate fails them
    solved = np.flatnonzero(active & regular)
    if solved.size:
        lower = rr[solved, :lead].conj().transpose(0, 2, 1)  # R1^H, lower triangular
        y = np.linalg.solve(lower, rhs[solved, :lead, None])
        x[solved] += (q[solved, :, :lead] @ y)[:, :, 0]
    resid = np.linalg.norm((m @ x[:, :, None])[:, :, 0] - rhs, axis=1)
    ok = resid <= ABS_EPS * (1.0 + np.linalg.norm(base, axis=1))  # False on NaN
    return x.reshape(batch + (n,)), ok.reshape(batch)


def zf_solve(h, y) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing decode: least-squares solution of h @ s = y, per system of a stack,
    and each system's kept singular-value count.

    h is (..., r, c) and y either (..., r), one right-hand side per system, or (..., r, m).
    The count (...,) is the rank at the relative cutoff, as ``rank`` gives it; a system
    decodes when it equals c, and one short of c (an undecodable configuration) solves to
    zeros instead of dividing by a zero singular value. One batched SVD gives both.
    """
    m = as_cmatrix(h)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    kept = _kept(s, m.shape[-2:])
    s[kept < m.shape[-1]] = np.inf
    rhs = np.asarray(y, dtype=complex)
    vector = rhs.ndim == m.ndim - 1
    if vector:
        rhs = rhs[..., None]
    sol = vh.conj().swapaxes(-1, -2) @ ((u.conj().swapaxes(-1, -2) @ rhs) / s[..., None])
    return (sol[..., 0] if vector else sol), kept
