"""Structure maps of the specialized algebra and the T-operators."""

import numpy as np
import pytest

import dense
from khoarrow.algebra import EVEN, ODD, RingParams

PRESETS = [RingParams(x, y, z) for x in (1, -1) for y in (1, -1)
           for z in (1, -1)]


def test_ring_params_validation():
    with pytest.raises(ValueError):
        RingParams(2, 1, 1)
    with pytest.raises(ValueError):
        RingParams(1, 0, 1)
    assert EVEN == RingParams(1, 1, 1)
    assert ODD == RingParams(1, -1, 1)


@pytest.mark.parametrize("p", PRESETS)
def test_mul_entries(p):
    m = dense.mul(p)
    # columns (11, 1x, x1, xx), rows (1, x)
    assert m[:, 0].tolist() == [1, 0]          # 1*1 = 1
    assert m[:, 1].tolist() == [0, 1]          # 1*x = x
    assert m[:, 2].tolist() == [0, p.x * p.z]  # x*1 = XZ x
    assert m[:, 3].tolist() == [0, 0]          # x*x = 0


@pytest.mark.parametrize("p", PRESETS)
def test_comul_entries(p):
    d = dense.comul(p)
    assert d[:, 0].tolist() == [0, p.y * p.z, 1, 0]  # 1 -> x1 + YZ 1x
    assert d[:, 1].tolist() == [0, 0, 0, 1]          # x -> xx


def test_even_preset_is_khovanov():
    m, d = dense.mul(EVEN), dense.comul(EVEN)
    assert m[1, 2] == 1
    assert d[1, 0] == 1


def test_odd_preset_flips_comultiplication_only():
    assert dense.mul(ODD)[1, 2] == 1
    assert dense.comul(ODD)[1, 0] == -1


@pytest.mark.parametrize("p", PRESETS)
def test_unit_counit(p):
    # the unit 1 and the counit 1 -> 0, x -> 1 of A: m(1 (x) a) = a and
    # (counit (x) id) comul = id
    eta = np.array([[1], [0]], dtype=np.int64)
    eps = np.array([[0, 1]], dtype=np.int64)
    eye = np.eye(2, dtype=np.int64)
    assert np.array_equal(dense.mul(p) @ np.kron(eta, eye), eye)
    assert np.array_equal(np.kron(eps, eye) @ dense.comul(p), eye)
    # counit picks out the coefficient the multiplication pairs with
    m = dense.mul(p)
    assert (eps @ m)[0].tolist() == [0, 1, p.x * p.z, 0]


@pytest.mark.parametrize("p", PRESETS)
def test_perm_entries_and_involution(p):
    P = dense.perm(p)
    assert P[0, 0] == p.x
    assert P[2, 1] == p.z and P[1, 2] == p.z
    assert P[3, 3] == p.y
    assert np.array_equal(P @ P, np.eye(4, dtype=np.int64))


@pytest.mark.parametrize("p", PRESETS)
def test_adjacent_swap_braid_relation(p):
    s1 = dense.adjacent_swap(p, 3, 1)
    s2 = dense.adjacent_swap(p, 3, 2)
    assert np.array_equal(s1 @ s2 @ s1, s2 @ s1 @ s2)


def test_adjacent_swap_range():
    with pytest.raises(ValueError):
        dense.adjacent_swap(EVEN, 3, 3)
    with pytest.raises(ValueError):
        dense.adjacent_swap(EVEN, 2, 0)


@pytest.mark.parametrize("p", PRESETS)
def test_factor_permutation_composes(p):
    # moving the third factor to the front by two adjacent swaps pays, per
    # factor it passes, X when both are 1, Z when one is x and Y when both
    # are x: the rule chain.edge_map applies to every factor it moves
    rot = dense.adjacent_swap(p, 3, 1) @ dense.adjacent_swap(p, 3, 2)
    cost = {(0, 0): p.x, (0, 1): p.z, (1, 0): p.z, (1, 1): p.y}
    for idx in range(8):
        a, b, c = idx >> 2 & 1, idx >> 1 & 1, idx & 1
        expected = [0] * 8
        expected[c << 2 | a << 1 | b] = cost[c, a] * cost[c, b]
        assert rot[:, idx].tolist() == expected, idx


def test_t_merge_matches_multiplication_by_sum():
    # on A (x) A: (x1 + x2) * 1(x)1 = x(x)1 + 1(x)x, etc.
    T = dense.t_merge(2, 1, 2)
    assert T[:, 0].tolist() == [0, 1, 1, 0]
    assert T[:, 1].tolist() == [0, 0, 0, 1]
    assert T[:, 2].tolist() == [0, 0, 0, 1]
    assert T[:, 3].tolist() == [0, 0, 0, 0]


def test_t_merge_symmetric_and_nilpotent():
    T = dense.t_merge(2, 1, 2)
    assert np.array_equal(T, dense.t_merge(2, 2, 1))
    T2 = T @ T
    assert T2[3, 0] == 2 and np.count_nonzero(T2) == 1  # (x1+x2)^2 = 2 x1x2
    assert not np.any(T @ T @ T)


def test_t_split_matches_doubled_variable():
    L = dense.t_split(1, 1)
    assert L[:, 0].tolist() == [0, 2]
    assert L[:, 1].tolist() == [0, 0]
    assert not np.any(L @ L)


def test_t_operators_commute():
    a = dense.t_merge(3, 1, 2)
    b = dense.t_merge(3, 2, 3)
    c = dense.t_split(3, 1)
    assert np.array_equal(a @ b, b @ a)
    assert np.array_equal(a @ c, c @ a)


def test_t_operator_validation():
    with pytest.raises(ValueError):
        dense.t_merge(2, 1, 1)
    with pytest.raises(IndexError):
        dense.t_merge(2, 1, 3)
    with pytest.raises(IndexError):
        dense.t_split(2, 0)


def test_basis_degree():
    assert dense.basis_degree(3, 0b000) == -3
    assert dense.basis_degree(3, 0b101) == 1
    assert dense.basis_degree(1, 1) == 1
    # t_merge raises degree by 2 wherever it acts
    T = dense.t_merge(2, 1, 2)
    rows, cols = np.nonzero(T)
    for r, c in zip(rows, cols):
        assert dense.basis_degree(2, r) == dense.basis_degree(2, c) + 2
