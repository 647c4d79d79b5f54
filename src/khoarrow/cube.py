"""The hypercube of resolutions of a link diagram.

Each vertex is a full smoothing D(I): the crossings are replaced by one
of two crossingless local pictures selected by the bits of I.  For a
crossing (a, b, c, d) the 0-smoothing joins (a,b) and (c,d), the
1-smoothing joins (a,d) and (b,c).  Circles are connected components of
arcs under these joins; every crossing contributes one arrow between the
circles carrying its two smoothing arcs.  A vertex is its circle count k
and its arrows, the one model of a resolution.  ``resolutions`` is the
one routine that finds circles and forms arrows, in one walk of the
whole cube, which every consumer of the cube reads.
"""

from __future__ import annotations

from .diagram import Diagram

__all__ = ["resolutions", "check_planarity"]


def resolutions(d: Diagram) -> list[tuple[int, tuple]]:
    """(k, arrows) of D(I) for every vertex I of the cube: its circle
    count, and one (source, target) pair of circles per crossing.

    The arrow of crossing (a, b, c, d) leaves the circle of arc c, in the
    second smoothing pair for either bit, for the circle of arc a, in the
    first; both on one circle make a loop arrow.  So every circle through
    a crossing is an arrow end.  Circles are numbered by their smallest
    arc, and the free loops, which hold no arc, come after them.  Equal
    pairs are one object across the cube.

    The cube comes in lexicographic order: vertex I sits at index
    mask(I), crossing i being bit n - 1 - i of the mask.  The vertices
    are walked depth first, crossing 0 outermost and its 0-smoothing
    first, with one union-find over the arcs: each step joins the two
    pairs of arcs a crossing's smoothing brings together, (a,b) and (c,d)
    at 0, (a,d) and (b,c) at 1, in a copy of the parents above it, so a
    prefix of smoothings is joined once for all the vertices below it.
    A root is the smallest arc of its circle, and every parent is
    smaller than its child.  Each leaf's dict from arc to circle dies
    there.
    """
    n = d.n
    arcs, crossings, free = d.arcs, d.crossings, d.free_loops
    ends = [(c, a) for a, _, c, _ in crossings]
    # the one (s, t) object; a circle holding arcs numbers below len(arcs)
    pair = [[(s, t) for t in range(len(arcs))] for s in range(len(arcs))]
    out: list[tuple[int, tuple]] = []

    def walk(i, parent):
        if i == n:
            # a parent is smaller than its child, so it is numbered first
            labels: dict[int, int] = {}
            k = 0
            for a in arcs:
                up = parent[a]
                if up == a:
                    labels[a] = k
                    k += 1
                else:
                    labels[a] = labels[up]
            out.append((k + free,
                        tuple([pair[labels[c]][labels[a]] for c, a in ends])))
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
    # the closure refers to itself through its cell; unbinding it breaks
    # that cycle, so the walk and what it holds are freed here and not
    # left to the cyclic collector
    del walk
    return out


def check_planarity(d: Diagram) -> bool:
    """Whether every crossing change alters the circle count by exactly 1.

    This holds for every planar diagram and fails for "virtual" PD codes,
    e.g. those produced by a Reidemeister move applied at a geometrically
    incoherent site.  Exponential in the crossing number; intended for
    validating small curated diagrams.
    """
    ks = [k for k, _ in resolutions(d)]
    return all(abs(ks[mask | 1 << s] - k) == 1
               for mask, k in enumerate(ks) for s in range(d.n)
               if not mask >> s & 1)
