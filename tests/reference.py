"""Slow, plain reference versions of two build steps.

``resolve`` finds circles with a union-find class and ``restricted_reduced``
builds the whole unreduced complex and keeps the top half of every vertex
block.  The package does both faster; the tests compare its results with
these.
"""

from khoarrow.algebra import EVEN
from khoarrow.chain import BigradedComplex, build_unreduced, cube_layout
from khoarrow.cube import Arrow, Resolution


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


def _smoothing_pairs(crossing, bit):
    a, b, c, d = crossing
    if bit == 0:
        return (a, b), (c, d)
    return (a, d), (b, c)


def resolve(d, bits):
    """Smooth every crossing of `d` according to `bits`."""
    bits = tuple(int(b) for b in bits)
    uf = UnionFind(d.arcs)
    for c, bit in zip(d.crossings, bits):
        for x, y in _smoothing_pairs(c, bit):
            uf.union(x, y)
    groups = {}
    for a in d.arcs:
        groups.setdefault(uf.find(a), []).append(a)
    circles = sorted((tuple(sorted(g)) for g in groups.values()),
                     key=lambda g: g[0])
    circles += [()] * d.free_loops
    index_of = {a: i for i, circ in enumerate(circles) for a in circ}
    arrows = []
    for ci, (c, bit) in enumerate(zip(d.crossings, bits)):
        p_ab, p_cd = _smoothing_pairs(c, bit)
        arrows.append(Arrow(ci, index_of[p_cd[0]], index_of[p_ab[0]]))
    return Resolution(bits, tuple(circles), tuple(arrows))


def restricted_reduced(d, p=EVEN, convention="standard"):
    """The reduced complex as the restriction of ``build_unreduced(d, p)``
    to the generators with x on the base circle, the top half of every
    vertex block, with q + 1.  A boundary that leaves them raises KeyError."""
    full = build_unreduced(d, p)
    shift = d.n_plus - 2 * d.n_minus
    keep = {}
    for h, layer in cube_layout(d).items():
        keep[h] = []
        offset = 0
        for bits in layer:
            # a block's first generator, 1 on all k circles, sits at
            # q = k + |I| + shift
            k = full.groups[h][offset] - sum(bits) - shift
            keep[h] += range(offset + 2 ** (k - 1), offset + 2 ** k)
            offset += 2 ** k

    sign = 1 if convention == "standard" else -1
    groups = {h: [sign * (full.groups[h][j] + 1) for j in kept]
              for h, kept in keep.items()}
    boundaries = {}
    for h, cols in full.boundaries.items():
        row_of = {g: j for j, g in enumerate(keep[h + 1])}
        boundaries[h] = []
        for g in keep[h]:
            boundaries[h].append({row_of[r]: v for r, v in cols[g].items()})
    return BigradedComplex(groups=groups, boundaries=boundaries)
