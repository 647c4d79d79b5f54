"""Arrow-operator lattices, checked against the even edge maps and a
graph model.

Every resolution D(I) carries a family of commuting "T-operators": one
merge-type operator x_s + x_t per arrow between distinct circles s and
t, and one loop-type operator 2 x_s per loop arrow at s.  Each is
multiplication by an element of the commutative ring
A^{(x)k} = Z[x_1..x_k]/(x_i^2), so a product of them (an arrow word) is
determined by its value at 1^{(x)k}: a list of 2^k integers indexed
like the basis of A^{(x)k} in ``chain.edge_map``, where circle c is bit
k - 1 - c of the index.  The operator lattice of D(I) is the integer
span of the values of all arrow words.  A resolution is given by its
circle count k and its arrows, one (source, target) pair of circles per
crossing (``cube.arrows``).

``check_commuting_square`` checks that the even edge map sends the value
of every word of D(I) to the value of the same word in D(J) along a
merge, and of the word with the new arrow prepended along a split.
``check_graph_span`` realizes the same lattice from the admissible
subgraphs of the arrow multigraph (edges evaluate to merge operators,
distinguished vertices to loop operators) and checks that both spans
agree.
"""

from __future__ import annotations

from .algebra import EVEN
from .chain import _edges, edge_map
from .cube import arrows as arrows_of, circle_labels
from .diagram import Diagram
from .jones import TooLarge
from .snf import hermite

__all__ = [
    "MAX_LATTICE_CIRCLES",
    "MAX_LATTICE_ARROWS",
    "value",
    "operator_lattice",
    "check_commuting_square",
    "check_graph_span",
]

MAX_LATTICE_CIRCLES = 8
MAX_LATTICE_ARROWS = 12


def _guard(k: int, arrows, what: str):
    if k > MAX_LATTICE_CIRCLES or len(arrows) > MAX_LATTICE_ARROWS:
        raise TooLarge(
            f"resolution with k={k}, {len(arrows)} arrows exceeds the "
            f"{what} guard ({MAX_LATTICE_CIRCLES} circles, "
            f"{MAX_LATTICE_ARROWS} arrows)")


def _times(vec: list, factor) -> list:
    """`vec` times a sum of (x-bit, coefficient) terms, in A^{(x)k}."""
    out = [0] * len(vec)
    for m, c in enumerate(vec):
        if c:
            for bit, f in factor:
                if not m & bit:            # x_s^2 = 0
                    out[m | bit] += f * c
    return out


def _arrow(k: int, arrow):
    """`arrow` (s, t) as terms: x_s + x_t, or 2 x_s for a loop at s."""
    s, t = arrow
    s, t = 1 << (k - 1 - s), 1 << (k - 1 - t)
    return ((s, 1), (t, 1)) if s != t else ((s, 2),)


def value(k: int, arrows, word) -> list:
    """The product of the arrow operators `word` indexes, at 1^{(x)k}."""
    vec = [1] + [0] * (2 ** k - 1)
    for i in word:
        vec = _times(vec, _arrow(k, arrows[i]))
    return vec


def _with_loops(k: int, vec: list, circles) -> list:
    """`vec` times 2 x_v for each circle v in `circles`."""
    for v in circles:
        vec = _times(vec, ((1 << (k - 1 - v), 2),))
    return vec


def _words(k: int, arrows) -> list:
    """(word, value) for every sorted arrow word whose value is nonzero.

    The operators commute, so a sorted word stands for every ordering
    of its letters; a word whose value vanishes has no nonzero
    extension, so the walk stops there.
    """
    _guard(k, arrows, "lattice")
    terms = [_arrow(k, a) for a in arrows]
    out = []
    layer = [((), value(k, arrows, ()))]
    while layer:
        out += layer
        longer = []
        for w, vec in layer:
            for i in range(w[-1] if w else 0, len(arrows)):
                vec2 = _times(vec, terms[i])
                if any(vec2):
                    longer.append((w + (i,), vec2))
        layer = longer
    return out


def operator_lattice(k: int, arrows) -> list:
    """Hermite basis of the span of the values of all arrow words of the
    resolution with `k` circles and `arrows`.

    Its length is the rank of the lattice.  A word of length m has a
    value of x-degree m, so words of different lengths have disjoint
    supports and every basis row is homogeneous; the first is 1.
    """
    return hermite(vec for _, vec in _words(k, arrows))


def check_commuting_square(d: Diagram) -> list:
    """Violations of the commuting square over every cube edge (must be []).

    For each edge I -> J at crossing i and every arrow word w of D(I)
    with a nonzero value, the even edge map applied to the value of w
    must equal the value in D(J) of w along a merge, or of w with i
    added along a split.  Each violation is (I bits, i, w).
    """
    n = d.n
    cube = circle_labels(d)
    # the value of every sorted word of each vertex that does not vanish;
    # a word missing from its vertex's table has value 0
    values = [dict(_words(k, arrows_of(d, labels))) for labels, k in cube]
    violations = []
    for mask, i, sig in _edges(d, cube):
        to = mask | 1 << (n - 1 - i)
        table, size = values[to], 2 ** cube[to][1]
        emap = edge_map(sig, EVEN)
        zero = [0] * size
        for w, vec in values[mask].items():
            image = [0] * size
            for m, c in enumerate(vec):
                for row, e in emap[m]:
                    image[row] += e * c
            target = tuple(sorted(w + (i,))) if sig[0] == "split" else w
            if image != table.get(target, zero):
                bits = tuple(mask >> (n - 1 - j) & 1 for j in range(n))
                violations.append((bits, i, w))
    return violations


# --- admissible subgraphs and the graph description of the lattice ----

def _admissible(k: int, arrows):
    """(edges, distinguished sets) for every edge set of the arrow
    multigraph that admits a subgraph, in ascending edge mask, each list
    in ascending vertex mask.

    Edges are arrow indices.  Every component of an admissible subgraph
    is a tree with at most one distinguished vertex, a single-cycle
    subgraph (cycle rank 1) with none, or a lone distinguished circle
    that carries a loop arrow; an edge set with a component of cycle
    rank 2 or more admits none.  Components depend only on the edge set,
    so they are found once per edge set, and the distinguished sets are
    the product of what each component allows.
    """
    _guard(k, arrows, "admissible-subgraph")
    loops = {s for s, t in arrows if s == t}
    for emask in range(2 ** len(arrows)):
        edges = tuple(i for i in range(len(arrows)) if emask >> i & 1)
        label = list(range(k))           # circle -> its component's label
        for i in edges:
            a, b = label[arrows[i][0]], label[arrows[i][1]]
            if a != b:
                label = [a if c == b else c for c in label]
        touched = {v for i in edges for v in arrows[i]}
        comps: dict = {}                 # label -> [vertices, edge count]
        for v in touched:
            comps.setdefault(label[v], [[], 0])[0].append(v)
        for i in edges:
            comps[label[arrows[i][0]]][1] += 1
        masks = [0]
        for members, n_edges in comps.values():
            rank = n_edges - len(members) + 1
            if rank >= 2:
                break
            if rank == 0:
                masks = [m | bit for m in masks
                         for bit in (0, *(1 << v for v in members))]
        else:
            for v in loops - touched:
                masks += [m | 1 << v for m in masks]
            yield edges, [tuple(v for v in range(k) if m >> v & 1)
                          for m in sorted(masks)]


def check_graph_span(k: int, arrows) -> dict:
    """Compare the admissible-subgraph span with the operator lattice of
    the resolution with `k` circles and `arrows`."""
    lattice = operator_lattice(k, arrows)
    values = []
    for edges, dists in _admissible(k, arrows):
        base = value(k, arrows, edges)   # the edge product, shared
        values += [_with_loops(k, base, dist) for dist in dists]
    span = hermite(values)
    return {
        "equal": span == lattice,
        "lattice_rank": len(lattice),
        "span_rank": len(span),
        "kernel_rank": len(values) - len(span),
        "subgraphs": len(values),
    }
