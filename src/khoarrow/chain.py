"""Assembly of the unreduced chain complex from the resolution cube.

Edge maps are built from the parameterized (co)multiplication acting at
the stable position of the merged/split circle, with tensor factors
shuffled by the parameterized swap and a graded reach-over coefficient
for every factor left of the saddle.  A GF(2) solve then fixes edge
signs so that every 2-face of the cube anticommutes.

Gradings: homological degree h = |I| - n_minus.  Quantum degree in the
``standard`` convention is (#1 - #x) + |I| + n_plus - 2 n_minus; the
``paper`` convention is its negative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .algebra import RingParams
from .cube import Resolution, cube_faces, khovanov_sign, resolve, vertices
from .diagram import Diagram

__all__ = [
    "BigradedComplex",
    "SignAssignment",
    "NotAnEdge",
    "FaceNotProportional",
    "Unsolvable",
    "edge_map",
    "solve_signs",
    "cube_layout",
    "build_unreduced",
]


class NotAnEdge(ValueError):
    pass


class FaceNotProportional(RuntimeError):
    pass


class Unsolvable(RuntimeError):
    pass


@dataclass
class BigradedComplex:
    """Chain groups per homological degree with sparse integer boundaries.

    groups[h] is the list of quantum degrees of the generators in degree
    h.  boundaries[h] maps degree h to degree h+1 as one ``{row: entry}``
    dict per generator of degree h: the nonzero entries of that column,
    keyed by the index of a generator of degree h+1, as Python ints.
    """

    groups: dict[int, list[int]] = field(default_factory=dict)
    boundaries: dict[int, list[dict[int, int]]] = field(default_factory=dict)

    def degrees(self):
        return sorted(self.groups)

    def iter_bidegrees(self):
        for h, qs in self.groups.items():
            seen: dict[int, int] = {}
            for q in qs:
                seen[q] = seen.get(q, 0) + 1
            for q, count in seen.items():
                yield h, q, count

    def check_d_squared(self) -> bool:
        """Whether every composite d_{h+1} d_h vanishes, exactly over Z.

        Raises ValueError if d_{h+1} and d_h do not compose: d_{h+1} has
        a column count other than the number of generators of degree h+1,
        or d_h has a row index past them.
        """
        for h, first in self.boundaries.items():
            second = self.boundaries.get(h + 1)
            if second is None:
                continue
            size = len(self.groups.get(h + 1, []))
            if len(second) != size or any(
                    r >= size for col in first for r in col):
                raise ValueError(f"d_{h + 1} and d_{h} do not compose")
            for col in first:
                acc: dict[int, int] = {}
                for mid, a in col.items():
                    for r, b in second[mid].items():
                        acc[r] = acc.get(r, 0) + a * b
                if any(acc.values()):
                    return False
        return True

    def check_q_preserved(self) -> bool:
        for h, cols in self.boundaries.items():
            qs_src = self.groups.get(h, [])
            qs_dst = self.groups.get(h + 1, [])
            for c, col in enumerate(cols):
                if any(qs_dst[r] != qs_src[c] for r in col):
                    return False
        return True


@dataclass(frozen=True)
class SignAssignment:
    signs: dict    # (I bits, crossing) -> +-1

    def __getitem__(self, key):
        return self.signs[key]


def _bubble(p: RingParams, k: int, src: int, dst: int) -> np.ndarray:
    """Move the factor at position `src` to `dst` (0-based) by adjacent swaps."""
    mat = np.eye(2 ** k, dtype=np.int64)
    if src < dst:
        for j in range(src, dst):
            mat = algebra.adjacent_swap(p, k, j + 1) @ mat
    else:
        for j in range(src - 1, dst - 1, -1):
            mat = algebra.adjacent_swap(p, k, j + 1) @ mat
    return mat


def _reach_twist(p: RingParams, k: int, positions, t1: int, tx: int) -> np.ndarray:
    """Diagonal matrix scaling each basis tensor by prod over `positions`
    of t1 (factor = 1) or tx (factor = x)."""
    diag = np.ones(2 ** k, dtype=np.int64)
    for idx in range(2 ** k):
        c = 1
        for j in positions:
            c *= tx if (idx >> (k - 1 - j)) & 1 else t1
        diag[idx] = c
    return np.diag(diag)


def edge_map(rI: Resolution, rJ: Resolution, i: int, p: RingParams) -> np.ndarray:
    """Unsigned chain map A^{(x)k(I)} -> A^{(x)k(J)} along cube edge i.

    The circles touched by the crossing are made adjacent (via the
    parameterized swap) at the position the merged or split circle
    occupies in the stable order of the target resolution; the
    (co)multiplication then acts there in position order.  Each saddle
    additionally reaches over every factor strictly to its left, paying
    the graded exchange coefficient per factor: (x, z) per (1, x) for a
    merge, (z, y) for a split.  At the even specialization all of these
    coefficients are 1 and the map is the plain Khovanov edge map; away
    from it they are exactly what makes every 2-face of the cube commute
    up to a single global unit.
    """
    if (rI.index[i], rJ.index[i]) != (0, 1) or any(
            a != b for j, (a, b) in enumerate(zip(rI.index, rJ.index)) if j != i):
        raise NotAnEdge(f"{rI.index} -> {rJ.index} is not the edge at {i}")
    kI = rI.k
    arrI = rI.arrows[i]
    if arrI.source != arrI.target:
        # merge: the merged circle inherits the smaller stable position
        ps, pt = sorted((arrI.source, arrI.target))
        pre = _bubble(p, kI, pt, ps + 1)
        m_op = np.kron(
            np.kron(np.eye(2 ** ps, dtype=np.int64), algebra.mul(p)),
            np.eye(2 ** (kI - ps - 2), dtype=np.int64))
        twist = _reach_twist(p, kI, range(ps), p.x, p.z)
        return m_op @ pre @ twist
    # split: the daughter containing the minimal arc keeps the position
    pu = arrI.source
    d_op = np.kron(
        np.kron(np.eye(2 ** pu, dtype=np.int64), algebra.comul(p)),
        np.eye(2 ** (kI - pu - 1), dtype=np.int64))
    d_min = rJ.circle_of(rI.circles[pu][0])
    daughters = {rJ.circle_of(a) for a in rI.circles[pu]}
    d_other = (daughters - {d_min}).pop()
    post = _bubble(p, kI + 1, pu + 1, d_other)
    twist = _reach_twist(p, kI, range(pu), p.z, p.y)
    return post @ d_op @ twist


def _edge_key(bits, i):
    return (tuple(bits), i)


def solve_signs(d: Diagram, p: RingParams,
                resolutions: dict | None = None,
                maps: dict | None = None) -> SignAssignment:
    """Edge signs making every 2-face of the cube anticommute.

    Starts from the Khovanov sign rule and solves the residual
    constraints over GF(2) with free variables set to zero in
    lexicographic edge order, so at the even specialization the result
    is exactly the Khovanov assignment.
    """
    n = d.n
    if resolutions is None:
        resolutions = {}
    if maps is None:
        maps = {}

    def res(bits):
        if bits not in resolutions:
            resolutions[bits] = resolve(d, bits)
        return resolutions[bits]

    def emap(bits, i):
        key = _edge_key(bits, i)
        if key not in maps:
            to = bits[:i] + (1,) + bits[i + 1:]
            maps[key] = edge_map(res(bits), res(to), i, p)
        return maps[key]

    edge_keys = sorted(
        _edge_key(bits, i)
        for bits in vertices(n) for i in range(n) if not bits[i])
    edge_pos = {k: idx for idx, k in enumerate(edge_keys)}

    rows = []
    rhs = []
    for bits, i, j in cube_faces(d):
        bi = bits[:i] + (1,) + bits[i + 1:]
        bj = bits[:j] + (1,) + bits[j + 1:]
        m1 = emap(bi, j) @ emap(bits, i)     # path through i first
        m2 = emap(bj, i) @ emap(bits, j)
        z1, z2 = not np.any(m1), not np.any(m2)
        if z1 and z2:
            continue
        if z1 != z2:
            raise FaceNotProportional(
                f"face {bits} ({i},{j}): exactly one composite vanishes")
        if np.array_equal(m1, m2):
            lam = 1
        elif np.array_equal(m1, -m2):
            lam = -1
        else:
            raise FaceNotProportional(
                f"face {bits} ({i},{j}): composites not +-proportional")
        keys = [_edge_key(bits, i), _edge_key(bi, j),
                _edge_key(bits, j), _edge_key(bj, i)]
        base_parity = sum(
            0 if khovanov_sign(k[0], k[1]) > 0 else 1 for k in keys) % 2
        target = 1 if lam > 0 else 0   # product of four signs must be -lam
        row = [0] * len(edge_keys)
        for k in keys:
            row[edge_pos[k]] ^= 1
        rows.append(row)
        rhs.append(target ^ base_parity)

    delta = _solve_gf2(rows, rhs, len(edge_keys))
    signs = {}
    for k in edge_keys:
        base = khovanov_sign(k[0], k[1])
        signs[k] = -base if delta[edge_pos[k]] else base
    return SignAssignment(signs)


def _solve_gf2(rows, rhs, width):
    """Gaussian elimination over GF(2); free variables are zero."""
    aug = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for col in range(width):
        sel = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if sel is None:
            continue
        aug[r], aug[sel] = aug[sel], aug[r]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                aug[i] = [a ^ b for a, b in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(aug)):
        if aug[i][width]:
            raise Unsolvable("sign constraints are inconsistent")
    x = [0] * width
    for row_idx, col in enumerate(pivots):
        x[col] = aug[row_idx][width]
    return x


def cube_layout(d: Diagram) -> dict[int, list[tuple[int, ...]]]:
    """Cube vertices of `d` by homological degree h = |I| - n_minus.

    Vertices of one degree are in lexicographic order; the chain group
    of degree h lays out one block of 2^k(I) generators per vertex in
    this order, each block in the basis order of A^{(x)k(I)}.
    """
    vertex_by_h: dict[int, list[tuple[int, ...]]] = {}
    for bits in vertices(d.n):
        vertex_by_h.setdefault(sum(bits) - d.n_minus, []).append(bits)
    return vertex_by_h


def build_unreduced(d: Diagram, p: RingParams, convention: str = "standard",
                    flip_arrows: bool = False) -> BigradedComplex:
    """The unreduced complex of `d` at specialization `p`."""
    if convention not in ("standard", "paper"):
        raise ValueError(f"unknown grading convention {convention!r}")
    n = d.n
    resolutions = {bits: resolve(d, bits, flip_arrows) for bits in vertices(n)}
    maps: dict = {}
    assignment = solve_signs(d, p, resolutions=resolutions, maps=maps)

    shift = d.n_plus - 2 * d.n_minus
    groups: dict[int, list[int]] = {}
    offsets: dict[tuple[int, ...], int] = {}
    vertex_by_h = cube_layout(d)
    for h in vertex_by_h:
        qs = []
        for bits in vertex_by_h[h]:
            k = resolutions[bits].k
            offsets[bits] = len(qs)
            for idx in range(2 ** k):
                q = (k - 2 * bin(idx).count("1")) + sum(bits) + shift
                qs.append(q if convention == "standard" else -q)
        groups[h] = qs

    boundaries: dict[int, list[dict[int, int]]] = {}
    for h in sorted(vertex_by_h):
        if h + 1 not in vertex_by_h:
            continue
        cols: list[dict[int, int]] = [{} for _ in groups[h]]
        for bits in vertex_by_h[h]:
            # the later the bit that flips, the earlier its target in the
            # layout: walking the crossings backwards writes each column's
            # rows in increasing order, the order homology() picks pivots in
            for i in reversed(range(n)):
                if bits[i]:
                    continue
                to = bits[:i] + (1,) + bits[i + 1:]
                key = _edge_key(bits, i)
                if key not in maps:
                    maps[key] = edge_map(resolutions[bits], resolutions[to], i, p)
                block = maps[key]
                sign, r0, c0 = assignment[key], offsets[to], offsets[bits]
                rows, idx = np.nonzero(block)
                # blocks of distinct edges never overlap
                for r, c, v in zip(rows.tolist(), idx.tolist(),
                                   block[rows, idx].tolist()):
                    cols[c0 + c][r0 + r] = sign * v
        boundaries[h] = cols
    return BigradedComplex(groups=groups, boundaries=boundaries)
