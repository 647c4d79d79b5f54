"""Slow, plain reference versions of three build steps.

``resolve`` finds circles with a union-find class, ``resolution_build``
assembles a complex from one ``Resolution`` per vertex with bit-tuple
keys, and ``restricted_reduced`` builds the whole unreduced complex and
keeps the top half of every vertex block.  The package does all three
faster; the tests compare its results with these.
"""

from khoarrow.algebra import EVEN
from khoarrow.chain import (BigradedComplex, Unsolvable, _compose,
                            _edge_signature, _proportion, build_unreduced,
                            edge_map)
from khoarrow.cube import Arrow, Resolution, khovanov_sign, vertices


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


def cube_layout(d):
    """Cube vertices of `d` by homological degree h = |I| - n_minus, each
    degree's in lexicographic order: the order of the vertex blocks in
    the chain group of degree h, each block in the basis order of
    A^{(x)k(I)}."""
    layout = {}
    for bits in vertices(d.n):
        layout.setdefault(sum(bits) - d.n_minus, []).append(bits)
    return layout


def _flip(bits, i, bit):
    return bits[:i] + (bit,) + bits[i + 1:]


def _solve_signs(maps, n):
    """``chain.solve_signs`` keyed by (I bits, crossing), composing every
    face afresh: the same walk, constraints and elimination."""
    masks, pivots, unknowns = {}, {}, 0
    order = sorted(vertices(n), key=lambda bits: (sum(bits), bits))
    for i in range(n):
        for bits in order:
            if bits[i]:
                continue
            equations = []
            for j in range(i):
                if not bits[j]:
                    continue
                low = _flip(bits, j, 0)
                up = _flip(low, i, 1)
                lam = _proportion(_compose(maps[(bits, i)], maps[(low, j)]),
                                  _compose(maps[(up, j)], maps[(low, i)]),
                                  f"face {low} ({j},{i})")
                if lam:
                    equations.append(masks[(low, j)] ^ masks[(low, i)]
                                     ^ masks[(up, j)] ^ (lam > 0))
            if equations:
                mask = equations[0]
            elif any(bits[:i]):
                unknowns += 1
                mask = (1 << unknowns) | (khovanov_sign(bits, i) < 0)
            else:
                mask = 0
            masks[(bits, i)] = mask
            for eq in equations[1:]:
                eq ^= mask
                while eq > 1 and eq.bit_length() - 1 in pivots:
                    eq ^= pivots[eq.bit_length() - 1]
                if eq == 1:
                    raise Unsolvable("sign constraints are inconsistent")
                if eq:
                    pivots[eq.bit_length() - 1] = eq
    solution = 1
    for lead in sorted(pivots):
        if (pivots[lead] & solution).bit_count() & 1:
            solution |= 1 << lead
    return {key: -1 if (mask & solution).bit_count() & 1 else 1
            for key, mask in masks.items()}


def resolution_build(d, p=EVEN, convention="standard", reduced=False):
    """``chain.build_unreduced`` (or, with `reduced`, ``build_reduced``)
    assembled from one ``resolve`` per vertex and one ``_edge_signature``
    per edge, with maps, signs and block offsets keyed by bit tuples."""
    n = d.n
    res = {bits: resolve(d, bits) for bits in vertices(n)}
    shared, maps = {}, {}
    for bits, r in res.items():
        for i in range(n):
            if not bits[i]:
                sig = _edge_signature(r, res[_flip(bits, i, 1)], i)
                if sig not in shared:
                    shared[sig] = edge_map(sig, p)
                maps[(bits, i)] = shared[sig]
    signs = _solve_signs(maps, n)

    shift = d.n_plus - 2 * d.n_minus + reduced
    q_sign = 1 if convention == "standard" else -1
    first = {bits: 2 ** (r.k - 1) if reduced else 0 for bits, r in res.items()}
    groups, offsets = {}, {}
    layout = cube_layout(d)
    for h, layer in layout.items():
        groups[h] = []
        for bits in layer:
            offsets[bits] = len(groups[h]) - first[bits]
            q0 = res[bits].k + sum(bits) + shift
            groups[h] += [q_sign * (q0 - 2 * bin(idx).count("1"))
                          for idx in range(first[bits], 2 ** res[bits].k)]
    boundaries = {}
    for h, layer in layout.items():
        if h + 1 not in layout:
            continue
        boundaries[h] = []
        for bits in layer:
            for c in range(first[bits], 2 ** res[bits].k):
                col = {}
                for i in reversed(range(n)):
                    if bits[i]:
                        continue
                    to = _flip(bits, i, 1)
                    for r, v in maps[(bits, i)][c]:
                        if r < first[to]:
                            raise KeyError(f"{bits} -> {to} leaves the "
                                           "kept half")
                        col[offsets[to] + r] = signs[(bits, i)] * v
                boundaries[h].append(col)
    return BigradedComplex(groups=groups, boundaries=boundaries)


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
