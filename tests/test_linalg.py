import numpy as np
import pytest

from stpnc.linalg import (
    null_space,
    rank,
    solve_least_norm,
    zf_solve,
)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def vec(m) -> np.ndarray:
    """The columns of m stacked into one column: the vec the precoder rows assume."""
    return np.asarray(m, dtype=complex).reshape(-1, 1, order="F")


def test_kron_identity():
    assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_scalar_scaling():
    assert np.array_equal(np.kron([[2.0]], np.eye(2)), 2.0 * np.eye(2))


def test_kron_matches_elementwise_oracle():
    # brute-force double loop; allow last-ulp slack between the vectorized
    # and scalar complex-multiply code paths
    rng = np.random.default_rng(0)
    a, b = crandn(rng, 2, 2), crandn(rng, 2, 2)
    got = np.kron(a, b)
    for i in range(2):
        for j in range(2):
            for p in range(2):
                for q in range(2):
                    assert abs(got[i * 2 + p, j * 2 + q] - a[i, j] * b[p, q]) < 1e-15


def test_vec_definition():
    out = vec([[1, 2], [3, 4]])
    assert np.array_equal(out, np.array([[1], [3], [2], [4]], dtype=complex))


def test_vec_of_column_is_itself():
    col = np.array([[1.0 + 2j], [3.0]])
    assert np.array_equal(vec(col), col)


def test_vec_kron_multiply_out_oracle():
    rng = np.random.default_rng(2)
    a, x, b = crandn(rng, 2, 2), crandn(rng, 2, 2), crandn(rng, 2, 2)
    lhs = vec(a @ x @ b)
    rhs = np.kron(b.T, a) @ vec(x)
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_null_space_axis_case():
    n = null_space(np.array([[1.0, 0.0]]))
    assert n.shape == (2, 1)
    assert np.allclose(n, [[0.0], [1.0]])


def test_null_space_full_rank_is_empty():
    assert null_space(np.eye(3)).shape == (3, 0)


def test_null_space_residual_and_orthonormality():
    rng = np.random.default_rng(3)
    a = crandn(rng, 2, 4)
    n = null_space(a)
    assert n.shape == (4, 2)
    assert np.max(np.abs(a @ n)) < 1e-10
    assert np.max(np.abs(n.conj().T @ n - np.eye(2))) < 1e-10


def test_null_space_canonical_phase():
    rng = np.random.default_rng(4)
    n = null_space(crandn(rng, 3, 5))
    for j in range(n.shape[1]):
        anchor = n[np.flatnonzero(np.abs(n[:, j]) > 1e-12)[0], j]
        assert abs(anchor.imag) < 1e-12 and anchor.real > 0


def test_rank_identity():
    assert rank(np.eye(2)) == 2


def test_rank_outer_product_is_one():
    rng = np.random.default_rng(5)
    u, v = crandn(rng, 4), crandn(rng, 4)
    assert rank(np.outer(u, v)) == 1


def test_solve_least_norm_identity():
    x, ok = solve_least_norm(np.eye(2), np.array([1.0, 2.0]))
    assert np.allclose(x, [1.0, 2.0]) and ok


def test_solve_least_norm_underdetermined_axis():
    x, ok = solve_least_norm(np.array([[1.0, 0.0]]), np.array([3.0]))
    assert np.allclose(x, [3.0, 0.0]) and ok


def test_solve_least_norm_beats_sampled_alternatives():
    rng = np.random.default_rng(6)
    a = crandn(rng, 2, 4)
    b = crandn(rng, 2)
    x, ok = solve_least_norm(a, b)
    assert ok and np.linalg.norm(a @ x - b) < 1e-10
    n = null_space(a)
    for _ in range(50):
        alt = x + n @ crandn(rng, n.shape[1])
        assert np.linalg.norm(x) <= np.linalg.norm(alt) + 1e-12


def test_solve_least_norm_rejects_inconsistent():
    a = np.array([[1.0], [1.0]])
    _, ok = solve_least_norm(a, np.array([1.0, 2.0]))
    assert ok.shape == () and not ok


def test_solve_least_norm_stack_matches_lstsq_per_system():
    # full-row-rank stacks, wide, square and one-row, against each member's SVD-based lstsq
    rng = np.random.default_rng(9)
    for r, n in ((3, 5), (4, 4), (1, 6)):
        a, b = crandn(rng, 2, 3, r, n), crandn(rng, 2, 3, r)
        x, ok = solve_least_norm(a, b)
        assert x.shape == (2, 3, n) and ok.shape == (2, 3) and ok.all()
        for idx in np.ndindex(2, 3):
            want = np.linalg.lstsq(a[idx], b[idx], rcond=None)[0]
            assert np.linalg.norm(x[idx] - want) <= 1e-12


def test_solve_least_norm_nearest_to_x0_matches_null_space_oracle():
    # the solution nearest to x0 is the least-norm solution plus x0's null-space component
    rng = np.random.default_rng(10)
    a, b, x0 = crandn(rng, 4, 3, 6), crandn(rng, 4, 3), crandn(rng, 6)
    b[1] = 0  # a homogeneous member: the projection of x0 alone
    x, ok = solve_least_norm(a, b, x0)
    assert ok.all()
    for i in range(4):
        n = null_space(a[i])
        want = n @ (n.conj().T @ x0) + np.linalg.lstsq(a[i], b[i], rcond=None)[0]
        assert np.linalg.norm(x[i] - want) <= 1e-12


def test_solve_least_norm_fails_exactly_the_bad_members(monkeypatch):
    rng = np.random.default_rng(11)
    a, b = crandn(rng, 2, 3, 2, 3), crandn(rng, 2, 3, 2)
    a[1, 0, 1] = a[1, 0, 0]  # equal rows, unequal targets: no solution
    a[1, 2] = 0  # and a singular member after it
    real, calls = np.linalg.solve, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    x, ok = solve_least_norm(a, b)
    # the batched Gram solve raises for the exactly singular member (1, 0); the other five
    # take one batched solve and one batched refinement, and no member is re-solved alone
    assert [len(gram) for gram, _ in calls] == [6, 5, 5]
    assert np.array_equal(~ok, [[False, False, False], [True, False, True]])
    for idx in zip(*np.nonzero(ok)):  # every other member is bitwise its solution alone
        alone, verdict = solve_least_norm(a[idx], b[idx])
        assert verdict and np.array_equal(x[idx], alone)
    _, ok = solve_least_norm(a[1, 1:], b[1, 1:])  # the singular one among fewer
    assert ok.tolist() == [True, False]
    calls.clear()
    solve_least_norm(a[0], b[0])  # a regular stack: one solve and one refinement
    assert [len(gram) for gram, _ in calls] == [3, 3]


def test_solve_least_norm_rank_deficient_homogeneous_member_is_a_null_vector():
    # member 1's zero row is a vacuous equation, and member 2's dependent rows leave its Gram
    # singular only to rounding, so both solve
    rng = np.random.default_rng(12)
    a, x0 = crandn(rng, 3, 3, 5), crandn(rng, 5)
    a[1, 1] = 0  # member 1 has rank 2 and an exactly singular R
    a[2, 2] = a[2, 0] + 2j * a[2, 1]  # member 2 has rank 2
    x, ok = solve_least_norm(a, np.zeros((3, 3)), x0)
    assert ok.all()
    for i in range(3):
        assert np.linalg.norm(a[i] @ x[i]) <= 1e-12
        assert np.linalg.norm(x[i]) >= 0.1


def test_zf_solve_identity():
    s = np.array([0.3 + 1j, -2.0])
    x, kept = zf_solve(np.eye(2), s)
    assert np.allclose(x, s) and kept == 2


def test_zf_solve_diagonal():
    h = np.diag([2.0, 4.0j])
    x, kept = zf_solve(h, np.array([2.0, 4.0j]))
    assert np.allclose(x, [1.0, 1.0]) and kept == 2


def test_zf_solve_round_trip():
    rng = np.random.default_rng(7)
    h = crandn(rng, 4, 4)
    s = crandn(rng, 4)
    x, kept = zf_solve(h, h @ s)
    assert np.linalg.norm(x - s) < 1e-9 and kept == 4


def test_zf_solve_requires_full_column_rank():
    h = np.array([[1.0, 2.0], [2.0, 4.0]])
    x, kept = zf_solve(h, np.array([1.0, 2.0]))
    assert kept == 1 < h.shape[1]
    assert np.all(np.isfinite(x))


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (5, 3), (9, 4)])
def test_zf_solve_stack_is_each_system_alone(shape):
    # one batched SVD, bitwise the solution of each system solved by itself, for one
    # right-hand side per system and for a matrix of them
    rng = np.random.default_rng(9)
    h = crandn(rng, 6, *shape)
    y, ys = crandn(rng, 6, shape[0]), crandn(rng, 6, shape[0], 2)

    def sol(*args):
        return zf_solve(*args)[0]

    assert sol(h, y).shape == (6, shape[1])
    assert np.array_equal(zf_solve(h, y)[1], [shape[1]] * 6)
    assert np.array_equal(sol(h, y), np.array([sol(m, v) for m, v in zip(h, y)]))
    assert np.array_equal(sol(h, ys), np.array([sol(m, v) for m, v in zip(h, ys)]))
    assert np.array_equal(sol(h[2:3], y[2:3])[0], sol(h[2], y[2]))
    assert np.linalg.norm(sol(h, np.einsum("sij,sj->si", h, y[:, :shape[1]])) - y[:, :shape[1]]) < 1e-9


def test_zf_solve_counts_each_members_rank():
    rng = np.random.default_rng(10)
    h = crandn(rng, 2, 3, 4, 2)
    h[1, 0, :, 1] = 2.0 * h[1, 0, :, 0]  # rank 1
    h[1, 2] = 0.0                        # rank 0, later in C order
    y = crandn(rng, 2, 3, 4)
    x, kept = zf_solve(h, y)
    assert kept.tolist() == [[2, 2, 2], [1, 2, 0]]
    assert kept.tolist() == [[rank(m) for m in row] for row in h]  # each member alone
    assert np.all(np.isfinite(x))  # the short members too
    for idx in np.ndindex(2, 3):
        alone, count = zf_solve(h[idx], y[idx])
        assert count == kept[idx] and np.array_equal(x[idx], alone)


def test_zf_solve_counts_a_system_small_against_its_scale_as_deficient():
    # relative to its own largest singular value, a system scaled by 1e-15 has full rank;
    # against the scale of the rows it came from, it has none
    rng = np.random.default_rng(13)
    h = crandn(rng, 4, 2)
    stack, y = np.stack([h, 1e-15 * h]), crandn(rng, 2, 4)
    assert zf_solve(stack, y)[1].tolist() == [2, 2]
    x, kept = zf_solve(stack, y, np.abs(h).max())
    assert kept.tolist() == [2, 0]
    assert np.array_equal(x[0], zf_solve(h, y[0])[0]) and not x[1].any()


def test_operations_bitwise_deterministic():
    rng = np.random.default_rng(8)
    a = crandn(rng, 3, 5)
    b = crandn(rng, 3)
    assert np.array_equal(null_space(a), null_space(a.copy()))
    assert np.array_equal(solve_least_norm(a, b)[0], solve_least_norm(a.copy(), b.copy())[0])
    assert rank(a) == rank(a.copy())
    stack, rhs, x0 = crandn(rng, 2, 4, 3, 5), crandn(rng, 2, 4, 3), crandn(rng, 5)
    assert np.array_equal(solve_least_norm(stack, rhs, x0)[0],
                          solve_least_norm(stack.copy(), rhs.copy(), x0.copy())[0])


def test_rejects_nonfinite_entries():
    with pytest.raises(ValueError):
        rank(np.array([[np.nan, 1.0]]))
