"""The hypercube of resolutions of a link diagram.

Each vertex is a full smoothing D(I): the crossings are replaced by one
of two crossingless local pictures selected by the bits of I.  For a
crossing (a, b, c, d) the 0-smoothing joins (a,b) and (c,d), the
1-smoothing joins (a,d) and (b,c).  Circles are connected components of
arcs under these joins; every crossing contributes one arrow between the
circles carrying its two smoothing arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .diagram import Diagram

__all__ = [
    "Arrow",
    "Resolution",
    "vertices",
    "resolve",
    "count_circles",
    "khovanov_sign",
    "check_planarity",
]


@dataclass(frozen=True)
class Arrow:
    crossing: int
    source: int   # circle index within the resolution
    target: int


@dataclass(frozen=True)
class Resolution:
    index: tuple[int, ...]
    circles: tuple[tuple[int, ...], ...]   # sorted arc labels; free loops empty
    arrows: tuple[Arrow, ...]

    @property
    def k(self) -> int:
        return len(self.circles)

    def circle_of(self, arc: int) -> int:
        for i, circ in enumerate(self.circles):
            if arc in circ:
                return i
        raise KeyError(f"arc {arc} not in resolution {self.index}")


class _UnionFind:
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


def resolve(d: Diagram, bits) -> Resolution:
    """Smooth every crossing of `d` according to `bits`."""
    bits = tuple(int(b) for b in bits)
    if len(bits) != d.n or any(b not in (0, 1) for b in bits):
        raise ValueError(f"bad resolution index {bits} for {d.n} crossings")
    uf = _UnionFind(d.arcs)
    for c, bit in zip(d.crossings, bits):
        for x, y in _smoothing_pairs(c, bit):
            uf.union(x, y)
    groups: dict[int, list[int]] = {}
    for a in d.arcs:
        groups.setdefault(uf.find(a), []).append(a)
    circles = sorted((tuple(sorted(g)) for g in groups.values()),
                     key=lambda g: g[0])
    circles += [()] * d.free_loops
    index_of = {}
    for i, circ in enumerate(circles):
        for a in circ:
            index_of[a] = i

    arrows = []
    for ci, (c, bit) in enumerate(zip(d.crossings, bits)):
        p_ab, p_cd = _smoothing_pairs(c, bit)
        # the arrow leaves the smoothing arc carrying the outgoing under
        # strand (arc c sits in the second pair for either bit) and points
        # at the circle through the other smoothing arc
        source = index_of[p_cd[0]]
        target = index_of[p_ab[0]]
        arrows.append(Arrow(ci, source, target))
    return Resolution(tuple(bits), tuple(circles), tuple(arrows))


def count_circles(d: Diagram, bits) -> int:
    """Number of circles of D(I) (fast path used by the bracket oracle)."""
    uf = _UnionFind(d.arcs)
    for c, bit in zip(d.crossings, bits):
        for x, y in _smoothing_pairs(c, bit):
            uf.union(x, y)
    roots = {uf.find(a) for a in d.arcs}
    return len(roots) + d.free_loops


def khovanov_sign(bits, i: int) -> int:
    """(-1)^(number of 1-bits strictly before coordinate i); i is 0-based."""
    bits = tuple(bits)
    if bits[i] != 0:
        raise ValueError(f"coordinate {i} of {bits} is already 1")
    return -1 if sum(bits[:i]) % 2 else 1


def vertices(n: int):
    """The 2^n vertices of the n-cube as bit tuples, in lexicographic order."""
    return product((0, 1), repeat=n)


def check_planarity(d: Diagram) -> bool:
    """Whether every crossing change alters the circle count by exactly 1.

    This holds for every planar diagram and fails for "virtual" PD codes,
    e.g. those produced by a Reidemeister move applied at a geometrically
    incoherent site.  Exponential in the crossing number; intended for
    validating small curated diagrams.
    """
    counts = {bits: count_circles(d, bits) for bits in vertices(d.n)}
    for bits in vertices(d.n):
        for i in range(d.n):
            if bits[i]:
                continue
            to = bits[:i] + (1,) + bits[i + 1:]
            if abs(counts[to] - counts[bits]) != 1:
                return False
    return True
