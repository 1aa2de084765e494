"""Dense complex linear-algebra kernels used by the precoder, protocol and rate code.

Everything operates on complex numpy arrays, deterministically. ``solve_least_norm``
and ``zf_solve`` take a stack of systems of one shape, (..., r, n), and solve them all
from one batched decomposition whose result per system is bitwise that of the system
alone, so a batch of seeds decodes exactly as each seed would by itself; a failure names
the first failing system by its ``index`` in the stack. The precoders use only
``solve_least_norm`` (one batched QR); decoding uses ``zf_solve`` (one batched SVD).
``null_space`` (ascending singular values, each column's first significant entry real
positive) stays as a test oracle and a benchmark binding.
"""

from __future__ import annotations

import math

import numpy as np


class InconsistentSystem(Exception):
    """The linear constraints admit no solution within tolerance.

    ``index`` is the failing system's position in the stack (``()`` for a single system).
    """

    def __init__(self, message: str, index: tuple = ()):
        super().__init__(message)
        self.index = index


class RankDeficient(Exception):
    """The coefficient matrix does not have full column rank.

    ``index`` is the failing matrix's position in the stack (``()`` for a single matrix).
    """

    def __init__(self, message: str, index: tuple = ()):
        super().__init__(message)
        self.index = index


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


def kron(a, b) -> np.ndarray:
    """Kronecker product: entry ((i*rows_b+p),(j*cols_b+q)) = a[i,j] * b[p,q]."""
    return np.kron(as_cmatrix(a), as_cmatrix(b))


def vec(m) -> np.ndarray:
    """Stack the columns of m into a single column vector."""
    return as_cmatrix(m).reshape(-1, 1, order="F")


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


def solve_least_norm(a, b, x0=None) -> np.ndarray:
    """The x with a @ x = b nearest to x0 (minimum norm when x0 is omitted), per system.

    a is (..., r, n) and b (..., r): one system per leading index, all solved from one
    batched complete QR a^H = [Q1 N] R as x = N N^H x0 + Q1 R^-H b. The R^-H solve is
    skipped where b is zero, so a homogeneous system returns the projection of x0 onto a
    null space even when a is rank deficient. With r > n only the leading n equations are
    solved. Each system is then judged by its residual, ||a x - b|| <= ABS_EPS *
    (1 + ||a x0 - b||); the first system (in C order) that fails it, is singular or comes
    out non-finite raises InconsistentSystem with its index. That signals infeasible
    precoder constraints, and it is the only check: QR does not reveal rank.
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
    active = np.flatnonzero(rhs.any(axis=1))
    if active.size:
        lower = rr[active, :lead].conj().transpose(0, 2, 1)  # R1^H, lower triangular
        try:
            y = np.linalg.solve(lower, rhs[active, :lead, None])
        except np.linalg.LinAlgError:  # find the singular members; the gate names the first
            y = np.full((active.size, lead, 1), np.nan, dtype=complex)
            for j, one in enumerate(lower):
                try:
                    y[j] = np.linalg.solve(one, rhs[active[j], :lead, None])
                except np.linalg.LinAlgError:
                    pass
        x[active] += (q[active, :, :lead] @ y)[:, :, 0]
    resid = np.linalg.norm((m @ x[:, :, None])[:, :, 0] - rhs, axis=1)
    ok = resid <= ABS_EPS * (1.0 + np.linalg.norm(base, axis=1))  # False on NaN
    if not ok.all():
        first = int(np.flatnonzero(~ok)[0])
        index = tuple(int(i) for i in np.unravel_index(first, batch))
        raise InconsistentSystem(
            f"system {index}: residual {resid[first]:.3e} exceeds tolerance", index
        )
    return x.reshape(batch + (n,))


def zf_solve(h, y) -> np.ndarray:
    """Zero-forcing decode: least-squares solution of h @ s = y, per system of a stack.

    h is (..., r, c) and y either (..., r), one right-hand side per system, or (..., r, m).
    Every h must have full column rank; the first (in C order) that does not raises
    RankDeficient with its index, which signals an undecodable configuration. One batched
    SVD gives both the rank check and the solutions.
    """
    m = as_cmatrix(h)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    short = _kept(s, m.shape[-2:]) < m.shape[-1]
    if short.any():
        index = np.unravel_index(int(np.flatnonzero(short)[0]), short.shape)
        raise RankDeficient(
            f"matrix rank below column count {m.shape[-1]}; cannot zero-force",
            tuple(int(i) for i in index),
        )
    rhs = np.asarray(y, dtype=complex)
    vector = rhs.ndim == m.ndim - 1
    if vector:
        rhs = rhs[..., None]
    sol = vh.conj().swapaxes(-1, -2) @ ((u.conj().swapaxes(-1, -2) @ rhs) / s[..., None])
    return sol[..., 0] if vector else sol
