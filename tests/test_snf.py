"""Smith normal form: correctness properties."""

import random
import time

import numpy as np
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

from khoarrow.snf import KERNEL, smith_normal_form, snf_diagonal


def check_snf(M, D, U, V):
    M = np.array(M, dtype=object).reshape(len(M), -1) if M and M[0] else None
    Da = np.array(D, dtype=object) if D else np.zeros((0, 0), dtype=object)
    Ua = np.array(U, dtype=object)
    Va = np.array(V, dtype=object)
    if M is not None:
        assert np.array_equal(Ua @ M @ Va, Da)
    # unimodular transforms
    assert abs(sympy.Matrix(U).det()) == 1
    assert abs(sympy.Matrix(V).det()) == 1
    # diagonal, nonnegative, divisibility chain
    diag = []
    for i in range(Da.shape[0]):
        for j in range(Da.shape[1]):
            if i != j:
                assert Da[i, j] == 0
        if i < Da.shape[1]:
            diag.append(Da[i, i])
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    assert diag[:len(nz)] == nz          # zeros come last
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0


matrices = st.integers(1, 5).flatmap(
    lambda m: st.integers(1, 5).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-30, 30), min_size=n, max_size=n),
            min_size=m, max_size=m)))


def _sympy_diagonal(M):
    return [abs(f) for f in invariant_factors(sympy.Matrix(M), domain=sympy.ZZ)
            if f]


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_python_snf_properties(M):
    D, U, V = smith_normal_form(M)
    check_snf(M, D, U, V)
    diag = [row[i] for i, row in enumerate(D) if i < len(row) and row[i]]
    assert snf_diagonal(M) == diag
    # snf_diagonal reads D, so sympy is the independent oracle
    assert diag == _sympy_diagonal(M)


# products A B of an m x k and a k x n matrix with k < min(m, n): the
# nearly rank-deficient shape on which a pivot-and-remainder Smith form's
# entries grow
low_rank_products = st.tuples(
    st.integers(2, 7), st.integers(2, 7), st.integers(1, 4)).flatmap(
    lambda mnk: st.tuples(
        st.lists(st.lists(st.integers(-9, 9), min_size=mnk[2],
                          max_size=mnk[2]), min_size=mnk[0], max_size=mnk[0]),
        st.lists(st.lists(st.integers(-9, 9), min_size=mnk[1],
                          max_size=mnk[1]), min_size=mnk[2], max_size=mnk[2])))


@settings(max_examples=200, deadline=None)
@given(low_rank_products)
def test_snf_diagonal_of_low_rank_products_matches_sympy(AB):
    A, B = AB
    M = [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
         for row in A]
    assert snf_diagonal(M) == _sympy_diagonal(M)


# the 12 x 13 block from bidegree (7, 21) to (8, 21) that unit cancellation
# leaves of the odd complex of the 12-crossing closure of
# (s1 s2)^5 s1 s1.  A pivot-and-remainder Smith form does not finish on
# it: the entries outside its pivot row and column grow without bound
B12_BLOCK = [
    [-57, -158, -95, 59, 214, -59, 57, -152, -250, -99, 192, -156, 157],
    [-33, -92, -54, 34, 124, -34, 32, -87, -145, -58, 111, -90, 92],
    [-33, -91, -55, 34, 124, -34, 33, -88, -144, -57, 111, -91, 91],
    [72, 203, 120, -75, -272, 75, -72, 193, 320, 128, -245, 198, -203],
    [33, 91, 55, -34, -124, 34, -33, 88, 145, 58, -111, 91, -91],
    [-99, -277, -165, 103, 373, -103, 99, -265, -439, -175, 337, -271, 277],
    [99, 279, 165, -103, -373, 103, -99, 265, 440, 176, -337, 270, -280],
    [-51, -144, -85, 53, 192, -53, 51, -137, -227, -91, 174, -140, 144],
    [-24, -68, -40, 25, 90, -25, 24, -64, -107, -43, 82, -65, 68],
    [33, 92, 55, -34, -124, 34, -33, 88, 145, 58, -111, 90, -93],
    [-59, -165, -97, 61, 221, -61, 58, -156, -260, -104, 199, -160, 165],
    [81, 228, 135, -84, -304, 84, -81, 216, 359, 144, -274, 220, -229],
]


def test_odd_b12_residue_block():
    t0 = time.perf_counter()
    D, U, V = smith_normal_form(B12_BLOCK)
    assert time.perf_counter() - t0 < 1.0
    check_snf(B12_BLOCK, D, U, V)
    diag = snf_diagonal(B12_BLOCK)
    assert diag == [1] * 12
    assert _sympy_diagonal(B12_BLOCK) == diag


def test_transform_entries_stay_small():
    # the 1000 matrices of acceptance 7, on which a pivot-and-remainder
    # loop takes U and V to 35,160-bit entries
    rng = random.Random(20260824)
    for _ in range(1000):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        M = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(m)]
        _, U, V = smith_normal_form(M)
        assert max(abs(x).bit_length() for T in (U, V) for row in T
                   for x in row) < 1024


def test_known_matrices():
    assert snf_diagonal([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert snf_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert snf_diagonal([[0, 0], [0, 0]]) == []
    assert snf_diagonal([]) == snf_diagonal([[]]) == []
    assert snf_diagonal([[6]]) == [6]
    assert snf_diagonal([[-5]]) == [5]
    assert snf_diagonal([[2, 0], [0, 3]]) == [1, 6]
    assert snf_diagonal([[2 ** 70, 0], [0, 3 * 2 ** 70]]) == [2 ** 70, 3 * 2 ** 70]


def test_rectangular():
    M = [[1, 2, 3, 4], [5, 6, 7, 8]]
    D, U, V = smith_normal_form(M)
    check_snf(M, D, U, V)
    assert snf_diagonal(M) == [1, 4]


def test_numpy_input_accepted():
    M = np.array([[2, 0], [0, 4]])
    assert snf_diagonal(M) == [2, 4]


def test_kernel_flag():
    assert KERNEL == "python"


def test_seeded_stress():
    rng = random.Random(12345)
    for _ in range(50):
        m = rng.randint(1, 6)
        n = rng.randint(1, 6)
        M = [[rng.randint(-10, 10) for _ in range(n)] for _ in range(m)]
        D, U, V = smith_normal_form(M)
        check_snf(M, D, U, V)
