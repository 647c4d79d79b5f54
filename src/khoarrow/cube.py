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


@dataclass(frozen=True, slots=True)
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


def _join(d: Diagram, bits) -> dict:
    """Union-find parents over the arcs of `d` with the smoothing arcs of
    every crossing joined as `bits` selects: (a,b) and (c,d) at 0, (a,d)
    and (b,c) at 1.  A root is its own parent."""
    parent = {a: a for a in d.arcs}
    for (a, b, c, e), bit in zip(d.crossings, bits):
        for x, y in ((a, e), (b, c)) if bit else ((a, b), (c, e)):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x != y:
                parent[x] = y
    return parent


def resolve(d: Diagram, bits) -> Resolution:
    """Smooth every crossing of `d` according to `bits`."""
    bits = tuple(int(b) for b in bits)
    if len(bits) != d.n or any(b not in (0, 1) for b in bits):
        raise ValueError(f"bad resolution index {bits} for {d.n} crossings")
    parent = _join(d, bits)
    # arcs are sorted, so each circle's arcs come in order and circles in
    # order of their smallest arc
    index_of: dict[int, int] = {}
    of_root: dict[int, int] = {}
    members: list[list[int]] = []
    for a in d.arcs:
        root = a
        while parent[root] != root:
            root = parent[root]
        i = of_root.get(root)
        if i is None:
            i = of_root[root] = len(members)
            members.append([a])
        else:
            members[i].append(a)
        index_of[a] = i
    circles = tuple(map(tuple, members)) + ((),) * d.free_loops

    # the arrow leaves the smoothing arc carrying the outgoing under
    # strand (arc c sits in the second pair for either bit) and points
    # at the circle through the other smoothing arc, which holds arc a
    arrows = tuple(Arrow(ci, index_of[c], index_of[a])
                   for ci, (a, _, c, _) in enumerate(d.crossings))
    return Resolution(bits, circles, arrows)


def count_circles(d: Diagram, bits) -> int:
    """Number of circles of D(I) (fast path used by the bracket oracle)."""
    parent = _join(d, bits)
    return sum(parent[a] == a for a in d.arcs) + d.free_loops


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
