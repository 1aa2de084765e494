"""Dense complex linear-algebra kernels used by the precoder, protocol and rate code.

Everything operates on complex numpy arrays, deterministically. ``solve_least_norm``
and ``zf_solve`` take a stack of systems of one shape, (..., r, n), and solve them all
with batched calls whose result per system is bitwise that of the system alone, so a
batch of seeds decodes exactly as each seed would by itself. Neither raises for a bad
system: each reports a per-system status next to its solutions (the residual gate's
verdict, the kept singular-value count), and the caller decides what a failure means.
The precoders use only ``solve_least_norm`` (the dual form: one batched Gram solve and
one refinement step); decoding uses ``zf_solve`` (one batched SVD). ``null_space`` and
``rank`` stay as test oracles and benchmark bindings.
"""

from __future__ import annotations

import math

import numpy as np


class InconsistentSystem(Exception):
    """Never raised: ``solve_least_norm`` returns a verdict per system. perfbench imports it."""


class RankDeficient(Exception):
    """The coefficient matrix does not have full column rank."""


# Singular values at or below REL_EPS * s_max * max(shape) count as zero (see _kept).
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


def _kept(s: np.ndarray, shape: tuple[int, int], scale=None):
    """How many of the descending singular values s (..., k) of each (rows, cols) matrix lie
    above the cutoff, relative to the largest one or to scale (...,) where that is larger."""
    top = s[..., :1] if scale is None else np.maximum(s[..., :1], np.asarray(scale)[..., None])
    return (s > REL_EPS * top * max(shape)).sum(axis=-1)


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

    a is (..., r, n) and b (..., r), one system per leading index, solved in dual form: x =
    x0 + a^H l with G l = b - a x0 for the batched Gram G = a a^H, then one refinement step
    with the same G on the residual. A zero row (a vacuous equation) gets 1 on G's diagonal;
    if the batched solve raises, one batched slogdet marks the members whose G is exactly
    singular, which are left NaN. With r > n only the leading n equations are solved. The
    verdict (...,), the only check, is the residual gate over every equation, ||a x - b|| <=
    ABS_EPS * (1 + ||a x0 - b||): False where a system is inconsistent, singular or
    non-finite (x may then hold NaN), which signals infeasible precoder constraints.
    """
    m = as_cmatrix(a)
    batch, (r, n) = m.shape[:-2], m.shape[-2:]
    size, lead = math.prod(batch), min(r, n)
    m = m.reshape(size, r, n)
    rhs = np.asarray(b, dtype=complex).reshape(size, r)
    x = np.array(np.broadcast_to(0 if x0 is None else x0, (size, n)), dtype=complex)
    base = rhs - np.matvec(m, x)
    eq, solved = m[:, :lead], slice(None)
    adj = eq.conj().swapaxes(-1, -2)
    gram = eq @ adj
    member, row = np.nonzero(np.diagonal(gram, axis1=1, axis2=2) == 0)  # the zero rows
    gram[member, row, row] = 1.0  # a vacuous equation: its target alone decides the gate
    try:
        step = np.linalg.solve(gram, base[:, :lead, None])
    except np.linalg.LinAlgError:  # an exactly singular member fails the whole stack
        singular = np.linalg.slogdet(gram)[0] == 0
        x[singular], solved = np.nan, np.flatnonzero(~singular)  # the gate fails them
        step = np.linalg.solve(gram[solved], base[solved, :lead, None])
    x[solved] += (adj[solved] @ step)[..., 0]
    step = np.linalg.solve(gram[solved], (rhs[solved, :lead] - np.matvec(eq[solved], x[solved]))[..., None])
    x[solved] += (adj[solved] @ step)[..., 0]
    ok = np.linalg.norm(np.matvec(m, x) - rhs, axis=1) <= ABS_EPS * (1.0 + np.linalg.norm(base, axis=1))
    return x.reshape(batch + (n,)), ok.reshape(batch)


def zf_solve(h, y, scale=None) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing decode: least-squares solution of h @ s = y, per system of a stack,
    and each system's kept singular-value count.

    h is (..., r, c) and y (..., r), one right-hand side per system. The count (...,) is the
    rank at the relative cutoff, as ``rank`` gives it, or against scale (...,) where given
    and larger; a system decodes when it equals c, and one short of c solves to zeros
    instead of dividing by a zero singular value. One batched SVD gives both.
    """
    m = as_cmatrix(h)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    kept = _kept(s, m.shape[-2:], scale)
    s[kept < m.shape[-1]] = np.inf
    rhs = np.asarray(y, dtype=complex)[..., None]
    sol = vh.conj().swapaxes(-1, -2) @ ((u.conj().swapaxes(-1, -2) @ rhs) / s[..., None])
    return sol[..., 0], kept
