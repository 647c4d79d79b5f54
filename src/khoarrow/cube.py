"""The hypercube of resolutions of a link diagram.

Each vertex is a full smoothing D(I): the crossings are replaced by one
of two crossingless local pictures selected by the bits of I.  For a
crossing (a, b, c, d) the 0-smoothing joins (a,b) and (c,d), the
1-smoothing joins (a,d) and (b,c).  Circles are connected components of
arcs under these joins; every crossing contributes one arrow between the
circles carrying its two smoothing arcs.  ``circle_labels`` is the one
routine that finds circles: for one vertex, or in one walk for the whole
cube, which the chain-complex build reads without making a
``Resolution`` per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .diagram import Diagram

__all__ = [
    "Arrow",
    "Resolution",
    "vertices",
    "circle_labels",
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


def circle_labels(d: Diagram, bits=None) -> list[tuple[dict[int, int], int]]:
    """Each arc's circle and the circle count k of D(I), for the vertex
    `bits`, or for every vertex of the cube when `bits` is None.

    The labels map every arc to its circle.  Circles are numbered by
    their smallest arc, and the free loops, which hold no arc, come after
    them.  The cube comes in lexicographic order: the labels of vertex I
    sit at index mask(I), crossing i being bit n - 1 - i of the mask.
    The vertices are walked depth first, crossing 0 outermost and its
    0-smoothing first, with one union-find over the arcs: each step
    joins the two pairs of arcs a crossing's smoothing brings together,
    (a,b) and (c,d) at 0, (a,d) and (b,c) at 1, in a copy of the parents
    above it (in place when there is one vertex), so a prefix of
    smoothings is joined once for all the vertices below it.  A root is
    the smallest arc of its circle, and every parent is smaller than its
    child.  Raises ValueError unless
    `bits` has one 0 or 1 per crossing.
    """
    n = d.n
    if bits is None:
        choices = [(0, 1)] * n
    else:
        bits = tuple(bits)
        if len(bits) != n or not {*bits} <= {0, 1}:
            raise ValueError(f"bad resolution index {bits} for {n} crossings")
        choices = [(b,) for b in bits]
    arcs, crossings = d.arcs, d.crossings
    out: list[tuple[dict[int, int], int]] = []

    def walk(i, parent):
        if i == n:
            # a parent is smaller than its child, so it is labelled first
            labels: dict[int, int] = {}
            k = 0
            for a in arcs:
                up = parent[a]
                if up == a:
                    labels[a] = k
                    k += 1
                else:
                    labels[a] = labels[up]
            out.append((labels, k + d.free_loops))
            return
        a, b, c, e = crossings[i]
        for bit in choices[i]:
            joined = parent.copy() if len(choices[i]) > 1 else parent
            for x, y in ((a, e), (b, c)) if bit else ((a, b), (c, e)):
                while joined[x] != x:
                    joined[x] = x = joined[joined[x]]
                while joined[y] != y:
                    joined[y] = y = joined[joined[y]]
                if x < y:
                    joined[y] = x
                elif y < x:
                    joined[x] = y
            walk(i + 1, joined)

    walk(0, {a: a for a in arcs})
    return out


def resolve(d: Diagram, bits) -> Resolution:
    """Smooth every crossing of `d` according to `bits`."""
    bits = tuple(int(b) for b in bits)
    (labels, k), = circle_labels(d, bits)
    members: list[list[int]] = [[] for _ in range(k - d.free_loops)]
    for a, c in labels.items():
        members[c].append(a)
    circles = tuple(map(tuple, members)) + ((),) * d.free_loops
    # the arrow leaves the smoothing arc carrying the outgoing under
    # strand (arc c sits in the second pair for either bit) and points
    # at the circle through the other smoothing arc, which holds arc a
    arrows = tuple(Arrow(ci, labels[c], labels[a])
                   for ci, (a, _, c, _) in enumerate(d.crossings))
    return Resolution(bits, circles, arrows)


def count_circles(d: Diagram, bits) -> int:
    """Number of circles of D(I)."""
    return circle_labels(d, bits)[0][1]


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
    ks = [k for _, k in circle_labels(d)]
    return all(abs(ks[mask | 1 << s] - k) == 1
               for mask, k in enumerate(ks) for s in range(d.n)
               if not mask >> s & 1)
