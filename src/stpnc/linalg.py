"""Dense complex linear-algebra kernels used by the precoder, protocol and rate code.

Everything operates on 2-D complex numpy arrays, deterministically. The
precoders use only ``solve_least_norm``. ``null_space`` (ascending singular
values, each column's first significant entry real positive) stays as a test
oracle and a benchmark binding.
"""

from __future__ import annotations

import numpy as np


class InconsistentSystem(Exception):
    """The linear constraints admit no solution within tolerance."""


class RankDeficient(Exception):
    """The coefficient matrix does not have full column rank."""


# Singular values at or below REL_EPS * s_max * max(shape) count as zero.
REL_EPS = 1e-10
# A least-norm solve is consistent when its residual is at most ABS_EPS * (1 + ||b||).
ABS_EPS = 1e-10

# Entries below this magnitude never count as the anchor for the phase fix;
# null-space columns are unit norm, so their largest entry is >= 1/sqrt(n).
_PHASE_ANCHOR_EPS = 1e-12


def as_cmatrix(a) -> np.ndarray:
    """Coerce input to a 2-D complex array, rejecting NaN/Inf entries."""
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


def _sv_cutoff(s: np.ndarray, shape: tuple[int, int]) -> float:
    if s.size == 0:
        return 0.0
    return REL_EPS * s[0] * max(shape)


def rank(a) -> int:
    """Number of singular values above the relative cutoff."""
    m = as_cmatrix(a)
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.count_nonzero(s > _sv_cutoff(s, m.shape)))


def null_space(a) -> np.ndarray:
    """Orthonormal basis of the right null space of a, as matrix columns.

    Columns are ordered by ascending singular value and phase-fixed so the
    first significant entry of each column is real positive. Returns a
    (cols x 0) matrix when the null space is trivial.
    """
    m = as_cmatrix(a)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    r = int(np.count_nonzero(s > _sv_cutoff(s, m.shape)))
    basis = vh[r:][::-1].conj().T  # smallest singular direction first
    for j in range(basis.shape[1]):
        col = basis[:, j]
        anchor = np.flatnonzero(np.abs(col) > _PHASE_ANCHOR_EPS)[0]
        basis[:, j] = col * np.exp(-1j * np.angle(col[anchor]))
    return basis


def solve_least_norm(a, b) -> np.ndarray:
    """Minimum-norm x with a @ x = b, checked post-hoc by residual.

    Raises InconsistentSystem when no solution exists within
    ABS_EPS * (1 + ||b||); that signals infeasible precoder constraints.
    The result matches the dimensionality of b (vector in, vector out).
    """
    m = as_cmatrix(a)
    rhs = np.asarray(b, dtype=complex)
    rhs_col = rhs.reshape(-1, 1) if rhs.ndim == 1 else rhs
    x, *_ = np.linalg.lstsq(m, rhs_col, rcond=None)
    resid = np.linalg.norm(m @ x - rhs_col)
    if resid > ABS_EPS * (1.0 + np.linalg.norm(rhs_col)):
        raise InconsistentSystem(f"residual {resid:.3e} exceeds tolerance")
    return x.reshape(-1) if rhs.ndim == 1 else x


def zf_solve(h, y) -> np.ndarray:
    """Zero-forcing decode: least-squares solution of h @ s = y.

    Requires h to have full column rank; raises RankDeficient otherwise,
    which signals an undecodable configuration.
    """
    m = as_cmatrix(h)
    if rank(m) < m.shape[1]:
        raise RankDeficient(
            f"matrix rank below column count {m.shape[1]}; cannot zero-force"
        )
    rhs = np.asarray(y, dtype=complex)
    rhs_col = rhs.reshape(-1, 1) if rhs.ndim == 1 else rhs
    s, *_ = np.linalg.lstsq(m, rhs_col, rcond=None)
    return s.reshape(-1) if rhs.ndim == 1 else s
