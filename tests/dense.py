"""Dense reference matrices of the specialized algebra's structure maps.

The tests compare ``chain.edge_map``'s sparse monomial maps and
``lattice``'s values at 1 against these matrices; the package itself
never builds them.  Basis order of A^{(x)k} is lexicographic with 1 < x
and the first tensor factor most significant, so basis index ``i``
encodes the monomial whose factor ``j`` (1-based) is ``x`` iff bit
``k - j`` of ``i`` is set.  The parameters (x, y, z) of a
``RingParams`` enter the multiplication, comultiplication and
factor-swap maps; the arrow operators ``t_merge``/``t_split`` are
parameter-free and act over Z.
"""

import numpy as np

from khoarrow.algebra import RingParams


def mul(p: RingParams) -> np.ndarray:
    """Multiplication A (x) A -> A as a 2x4 matrix.

    Column order (11, 1x, x1, xx), row order (1, x).
    """
    m = np.zeros((2, 4), dtype=np.int64)
    m[0, 0] = 1            # 1*1 = 1
    m[1, 1] = 1            # 1*x = x
    m[1, 2] = p.x * p.z    # x*1 = XZ x
    return m


def comul(p: RingParams) -> np.ndarray:
    """Comultiplication A -> A (x) A as a 4x2 matrix."""
    d = np.zeros((4, 2), dtype=np.int64)
    d[2, 0] = 1            # 1 -> x1 + YZ 1x
    d[1, 0] = p.y * p.z
    d[3, 1] = 1            # x -> xx
    return d


def perm(p: RingParams) -> np.ndarray:
    """Factor swap A (x) A -> A (x) A with specialization coefficients.

    P(11) = X 11, P(1x) = Z x1, P(x1) = Z 1x, P(xx) = Y xx
    (Z is its own inverse at a +-1 specialization).
    """
    P = np.zeros((4, 4), dtype=np.int64)
    P[0, 0] = p.x
    P[2, 1] = p.z
    P[1, 2] = p.z
    P[3, 3] = p.y
    return P


def adjacent_swap(p: RingParams, k: int, j: int) -> np.ndarray:
    """Swap of tensor factors j and j+1 (1-based) of A^{(x)k}."""
    if not 1 <= j < k:
        raise ValueError(f"adjacent position {j} out of range for {k} factors")
    left = np.eye(2 ** (j - 1), dtype=np.int64)
    right = np.eye(2 ** (k - j - 1), dtype=np.int64)
    return np.kron(np.kron(left, perm(p)), right)


def t_merge(k: int, s: int, t: int) -> np.ndarray:
    """Merge-type operator on A^{(x)k}: multiplication by x_s + x_t.

    ``s`` and ``t`` are distinct 1-based factor indices.
    """
    if not (1 <= s <= k) or not (1 <= t <= k):
        raise IndexError(f"factor index out of range for k={k}: ({s}, {t})")
    if s == t:
        raise ValueError(f"merge operator needs distinct factors, got s=t={s}")
    n = 2 ** k
    out = np.zeros((n, n), dtype=np.int64)
    bs = 1 << (k - s)
    bt = 1 << (k - t)
    for idx in range(n):
        if not idx & bs:
            out[idx | bs, idx] += 1
        if not idx & bt:
            out[idx | bt, idx] += 1
    return out


def t_split(k: int, s: int) -> np.ndarray:
    """Loop-type operator on A^{(x)k}: multiplication by 2 x_s."""
    if not 1 <= s <= k:
        raise IndexError(f"factor index out of range for k={k}: {s}")
    n = 2 ** k
    out = np.zeros((n, n), dtype=np.int64)
    bs = 1 << (k - s)
    for idx in range(n):
        if not idx & bs:
            out[idx | bs, idx] += 2
    return out


def basis_degree(k: int, idx: int) -> int:
    """Degree of a basis tensor with deg(1) = -1 and deg(x) = +1."""
    ones = bin(idx).count("1")
    return 2 * ones - k
