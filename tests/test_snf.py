"""Smith normal form: correctness properties."""

import random

import numpy as np
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

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


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_python_snf_properties(M):
    D, U, V = smith_normal_form(M)
    check_snf(M, D, U, V)


def test_known_matrices():
    assert snf_diagonal([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert snf_diagonal([[1, 0], [0, 1]]) == [1, 1]
    assert snf_diagonal([[0, 0], [0, 0]]) == []
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
