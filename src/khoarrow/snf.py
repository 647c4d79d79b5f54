"""Hermite and Smith normal forms over the integers.

``hermite`` serves the operator lattices and ``snf_diagonal``.
``smith_normal_form`` returns (D, U, V) with U @ M @ V = D, U and V of
determinant +-1 and D diagonal with d1 | d2 | ... .  All work with
arbitrary-precision Python integers, so no entry can overflow.
"""

from __future__ import annotations

from math import gcd

__all__ = ["hermite", "smith_normal_form", "snf_diagonal", "KERNEL"]

KERNEL = "python"   # the only SNF implementation, named for environment reports


def hermite(rows) -> list:
    """Row Hermite form: the nonzero rows, with positive pivots and the
    entries above each pivot reduced into [0, pivot)."""
    A = [list(row) for row in rows]
    r = 0
    for col in range(len(A[0]) if A else 0):
        live = [i for i in range(r, len(A)) if A[i][col]]
        if not live:
            continue
        while len(live) > 1:
            piv = min(live, key=lambda i: abs(A[i][col]))
            for i in live:
                if i != piv:
                    q = A[i][col] // A[piv][col]
                    A[i] = [a - q * b for a, b in zip(A[i], A[piv])]
            live = [i for i in live if A[i][col]]
        A[r], A[live[0]] = A[live[0]], A[r]
        if A[r][col] < 0:
            A[r] = [-a for a in A[r]]
        for i in range(r):
            q = A[i][col] // A[r][col]
            if q:
                A[i] = [a - q * b for a, b in zip(A[i], A[r])]
        r += 1
    return A[:r]


def smith_normal_form(M):
    """SNF of an integer matrix (nested sequences or a 2-D array).

    Returns (D, U, V) as nested Python int lists with U @ M @ V = D.
    """
    A = [[int(x) for x in row] for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def addmul_row(dst, src, c):
        Ad, As = A[dst], A[src]
        for k in range(n):
            Ad[k] += c * As[k]
        Ud, Us = U[dst], U[src]
        for k in range(m):
            Ud[k] += c * Us[k]

    def addmul_col(dst, src, c):
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    limit = min(m, n)
    while t < limit:
        # locate a pivot of minimal absolute value
        piv = None
        best = None
        for i in range(t, m):
            Ai = A[i]
            for j in range(t, n):
                x = Ai[j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])

        while True:
            # clear column t
            dirty = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    addmul_row(i, t, -q)
                    if A[i][t]:
                        swap_rows(t, i)
                        dirty = True
            if dirty:
                continue
            # clear row t
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    addmul_col(j, t, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility into the remaining block
            offender = None
            d = A[t][t]
            for i in range(t + 1, m):
                Ai = A[i]
                for j in range(t + 1, n):
                    if Ai[j] % d:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            addmul_row(t, offender, 1)
        if A[t][t] < 0:
            negate_row(t)
        t += 1
    return A, U, V


def snf_diagonal(M) -> list[int]:
    """The nonzero invariant factors of M, in divisibility order.

    Row Hermite forms of M and of its transposes, alternated until the
    matrix is diagonal (Kannan and Bachem, SIAM J. Comput. 8, 1979).
    Each form reduces the entries above its pivots, so entries stay
    small where ``smith_normal_form``'s can grow without bound.  Pairs
    of diagonal entries are then replaced by their gcd and lcm.
    """
    A = hermite([int(x) for x in row] for row in M)
    while True:
        A = hermite(zip(*A))      # square, pivots on the diagonal
        if not any(x for i, row in enumerate(A) for x in row[i + 1:]):
            break
    diag = [row[i] for i, row in enumerate(A)]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag
