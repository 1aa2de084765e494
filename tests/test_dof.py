import io
from fractions import Fraction

import pytest

from stpnc.dof import (
    gof_dof,
    k_stars,
    single_antenna_sweep,
    sum_dof,
    write_sweep_csv,
)


def test_k_stars_frozen_values():
    # cross-check by hand: n=4 gives sqrt(3.25)+1.5 = 3.302 -> 3
    assert k_stars((2,)) == (3, 4, 3)
    assert k_stars((1,)) == (2, 3, 2)
    assert k_stars((1,) * 21) == (6, 6, 5)


def test_k_stars_exact_at_perfect_square_boundaries():
    # (K1-1)(K1-2)+1 for K1 = 3..8: 3, 7, 13, 21, 31, 43
    for k1, n in [(3, 3), (4, 7), (5, 13), (6, 21), (7, 31), (8, 43)]:
        assert k_stars((1,) * n)[0] == k1
        assert k_stars((1,) * (n - 1))[0] == k1 - 1


def test_sum_dof_examples():
    r = sum_dof(6, (1,) * 7)
    assert r.value == Fraction(2)
    assert r.term_in == Fraction(2)
    assert r.term_ia == Fraction(9, 5)

    r = sum_dof(6, (1,) * 21)
    assert r.value == Fraction(3) == r.cap
    assert r.optimal

    r = sum_dof(6, (1,) * 20)
    assert r.value == Fraction(8, 3)
    assert not r.optimal

    r = sum_dof(4, (2,))
    assert r.term_in_ia == Fraction(8, 5)
    assert r.value == Fraction(8, 5)


def test_sum_dof_requires_three_users():
    with pytest.raises(ValueError):
        sum_dof(2, (2,))


def test_gof_examples():
    assert gof_dof(6, (1,) * 25) == Fraction(3)
    assert gof_dof(6, (1,)) == Fraction(1)
    assert gof_dof(2, (5, 5)) == Fraction(1)


def test_single_relay_examples():
    for K in range(3, 9):
        assert sum_dof(K, (K - 1,)).value == Fraction(K, 2)
    assert sum_dof(4, (2,)).value == Fraction(8, 5)
    assert sum_dof(3, (1,)).value == Fraction(1)
    with pytest.raises(ValueError):
        sum_dof(4, (0,))


def test_sweep_fig_claims_exact():
    rows = dict(single_antenna_sweep(6, 30))
    for L, r in rows.items():
        if L <= 25:
            assert r.value >= r.gof
        if L in (2, 4, 5, 6):
            assert r.term_ia > r.term_in and r.term_ia > r.term_in_ia
    assert rows[21].value == Fraction(3)
    assert all(rows[L].value == Fraction(3) for L in range(21, 31))
    assert rows[20].value < Fraction(3)
    # monotone nondecreasing, capped at K/2
    values = [rows[L].value for L in range(1, 31)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert all(v <= Fraction(3) for v in values)


def test_all_dof_arithmetic_is_exact():
    r = sum_dof(5, (2, 3))
    for term in (r.term_in, r.term_in_ia, r.term_ia, r.gof, r.cap, r.value):
        assert isinstance(term, Fraction)
    assert all(isinstance(x, int) for x in k_stars((2, 3)))


def test_cap_always_binds():
    for K in range(3, 10):
        for n in range(1, 60, 7):
            assert sum_dof(K, (1,) * n).value <= Fraction(K, 2)


def test_monotone_in_antennas():
    for K in (4, 6, 9):
        prev = Fraction(0)
        for L in range(1, 40):
            v = sum_dof(K, (1,) * L).value
            assert v >= prev
            prev = v
        prev = Fraction(0)
        for m in range(1, 12):
            v = sum_dof(K, (m,)).value
            assert v >= prev
            prev = v


def test_sweep_csv_format():
    buf = io.StringIO()
    write_sweep_csv(single_antenna_sweep(6, 4), buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "L,term_in,term_in_ia,term_ia,gof,stpnc_value,stpnc_exact"
    assert lines[1] == "1,1,1,1.33333,1,1.33333,4/3"
    assert lines[4] == "4,1.5,1.6,1.8,1.5,1.8,9/5"
