"""Smith normal form over the integers, with unimodular transforms.

``smith_normal_form`` returns (D, U, V) with U @ M @ V = D, U and V of
determinant +-1 and D diagonal with d1 | d2 | ... .  It works with
arbitrary-precision Python integers, so no entry can overflow.
"""

from __future__ import annotations

__all__ = ["smith_normal_form", "snf_diagonal", "KERNEL"]

KERNEL = "python"   # the only SNF implementation, named for environment reports


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
    """The nonzero invariant factors of M, in divisibility order."""
    D, _, _ = smith_normal_form(M)
    out = []
    for i in range(min(len(D), len(D[0]) if D else 0)):
        if D[i][i]:
            out.append(D[i][i])
    return out
