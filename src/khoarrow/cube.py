"""The hypercube of resolutions of a link diagram.

Each vertex is a full smoothing D(I): the crossings are replaced by one
of two crossingless local pictures selected by the bits of I.  For a
crossing (a, b, c, d) the 0-smoothing joins (a,b) and (c,d), the
1-smoothing joins (a,d) and (b,c).  Circles are connected components of
arcs under these joins; every crossing contributes one arrow between the
circles carrying its two smoothing arcs.  A vertex is its circle labels,
one dict from arc to circle, and its circle count k.  ``circle_labels``
is the one routine that finds circles, in one walk of the whole cube,
which every consumer of the cube reads; ``arrows`` reads a vertex's
arrows off its labels.
"""

from __future__ import annotations

from .diagram import Diagram

__all__ = ["circle_labels", "arrows", "check_planarity"]


def circle_labels(d: Diagram) -> list[tuple[dict[int, int], int]]:
    """Each arc's circle and the circle count k of D(I), for every
    vertex I of the cube.

    The labels map every arc to its circle.  Circles are numbered by
    their smallest arc, and the free loops, which hold no arc, come after
    them.  The cube comes in lexicographic order: the labels of vertex I
    sit at index mask(I), crossing i being bit n - 1 - i of the mask.
    The vertices are walked depth first, crossing 0 outermost and its
    0-smoothing first, with one union-find over the arcs: each step
    joins the two pairs of arcs a crossing's smoothing brings together,
    (a,b) and (c,d) at 0, (a,d) and (b,c) at 1, in a copy of the parents
    above it, so a prefix of smoothings is joined once for all the
    vertices below it.  A root is the smallest arc of its circle, and
    every parent is smaller than its child.
    """
    n = d.n
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
        for bit in (0, 1):
            joined = parent.copy()
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


def arrows(d: Diagram, labels: dict[int, int]) -> list[tuple[int, int]]:
    """The arrow of every crossing of `d` in the vertex whose circle
    labels (``circle_labels``) are `labels`, as (source, target) circles.

    The arrow leaves the smoothing arc carrying the outgoing under strand
    (arc c sits in the second pair for either bit) and points at the
    circle through the other smoothing arc, which holds arc a; both on
    one circle make a loop arrow.
    """
    return [(labels[c], labels[a]) for a, _, c, _ in d.crossings]


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
