import numpy as np
import pytest

from stpnc.linalg import (
    InconsistentSystem,
    RankDeficient,
    kron,
    null_space,
    rank,
    solve_least_norm,
    vec,
    zf_solve,
)


def crandn(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def test_kron_identity():
    assert np.array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_scalar_scaling():
    assert np.array_equal(kron([[2.0]], np.eye(2)), 2.0 * np.eye(2))


def test_kron_matches_elementwise_oracle():
    # brute-force double loop; allow last-ulp slack between the vectorized
    # and scalar complex-multiply code paths
    rng = np.random.default_rng(0)
    a, b = crandn(rng, 2, 2), crandn(rng, 2, 2)
    got = kron(a, b)
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
    rhs = kron(b.T, a) @ vec(x)
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
    x = solve_least_norm(np.eye(2), np.array([1.0, 2.0]))
    assert np.allclose(x, [1.0, 2.0])


def test_solve_least_norm_underdetermined_axis():
    x = solve_least_norm(np.array([[1.0, 0.0]]), np.array([3.0]))
    assert np.allclose(x, [3.0, 0.0])


def test_solve_least_norm_beats_sampled_alternatives():
    rng = np.random.default_rng(6)
    a = crandn(rng, 2, 4)
    b = crandn(rng, 2)
    x = solve_least_norm(a, b)
    assert np.linalg.norm(a @ x - b) < 1e-10
    n = null_space(a)
    for _ in range(50):
        alt = x + n @ crandn(rng, n.shape[1])
        assert np.linalg.norm(x) <= np.linalg.norm(alt) + 1e-12


def test_solve_least_norm_rejects_inconsistent():
    a = np.array([[1.0], [1.0]])
    with pytest.raises(InconsistentSystem):
        solve_least_norm(a, np.array([1.0, 2.0]))


def test_zf_solve_identity():
    s = np.array([0.3 + 1j, -2.0])
    assert np.allclose(zf_solve(np.eye(2), s), s)


def test_zf_solve_diagonal():
    h = np.diag([2.0, 4.0j])
    assert np.allclose(zf_solve(h, np.array([2.0, 4.0j])), [1.0, 1.0])


def test_zf_solve_round_trip():
    rng = np.random.default_rng(7)
    h = crandn(rng, 4, 4)
    s = crandn(rng, 4)
    assert np.linalg.norm(zf_solve(h, h @ s) - s) < 1e-9


def test_zf_solve_requires_full_column_rank():
    h = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(RankDeficient):
        zf_solve(h, np.array([1.0, 2.0]))


def test_operations_bitwise_deterministic():
    rng = np.random.default_rng(8)
    a = crandn(rng, 3, 5)
    b = crandn(rng, 3)
    assert np.array_equal(null_space(a), null_space(a.copy()))
    assert np.array_equal(solve_least_norm(a, b), solve_least_norm(a.copy(), b.copy()))
    assert rank(a) == rank(a.copy())


def test_rejects_nonfinite_entries():
    with pytest.raises(ValueError):
        rank(np.array([[np.nan, 1.0]]))
