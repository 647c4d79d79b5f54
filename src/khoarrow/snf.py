"""Hermite and Smith normal forms over the integers.

``hermite`` is the one elimination routine: it serves the operator
lattices and ``smith_normal_form``.  ``smith_normal_form`` returns
(D, U, V) with U @ M @ V = D, U and V of determinant +-1 and D diagonal
with d1 | d2 | ... ; it alternates Hermite forms of the rows and of the
columns, each carrying its transform (Kannan and Bachem, SIAM J.
Comput. 8, 1979).  Every Hermite form reduces the entries above its
pivots, so the entries of D, U and V stay small.  ``snf_diagonal`` is
the nonzero diagonal of D.  All work with arbitrary-precision Python
integers, so no entry can overflow.
"""

from __future__ import annotations

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


def _row_pass(A, T):
    """The Hermite form of [A | T], split back into its two blocks.

    T is square and unimodular, so [A | T] has full row rank and no row
    is dropped; the row operations on A are recorded in T."""
    n = len(A[0])
    H = hermite(a + t for a, t in zip(A, T))
    return [h[:n] for h in H], [h[n:] for h in H]


def _transpose(A):
    return [list(col) for col in zip(*A)]


def smith_normal_form(M):
    """SNF of an integer matrix (nested sequences or a 2-D array).

    Returns (D, U, V) as nested Python int lists with U @ M @ V = D.
    """
    A = [[int(x) for x in row] for row in M]
    m = len(A)
    n = len(A[0]) if m else 0
    U = [[int(i == j) for j in range(m)] for i in range(m)]
    V = [[int(i == j) for j in range(n)] for i in range(n)]
    if not n:
        return A, U, V
    while True:
        A, U = _row_pass(A, U)
        At, Vt = _row_pass(_transpose(A), _transpose(V))
        A, V = _transpose(At), _transpose(Vt)
        if any(x for i, row in enumerate(A) for j, x in enumerate(row)
               if i != j):
            continue
        diag = [A[i][i] for i in range(min(m, n)) if A[i][i]]
        bad = next(((i, j) for i in range(len(diag))
                    for j in range(i + 1, len(diag)) if diag[j] % diag[i]),
                   None)
        if bad is None:
            return A, U, V
        # the next row pass lowers diag[i] to gcd(diag[i], diag[j])
        i, j = bad
        for row in A + V:
            row[i] += row[j]


def snf_diagonal(M) -> list[int]:
    """The nonzero invariant factors of M, in divisibility order."""
    D = smith_normal_form(M)[0]
    return [row[i] for i, row in enumerate(D) if i < len(row) and row[i]]
