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
crossing: a vertex of ``cube.resolutions``.

``check_commuting_square`` checks that the even edge map sends the value
of every word of D(I) to the value of the same word in D(J) along a
merge, and of the word with the new arrow prepended along a split; it
builds one words table per distinct resolution of the cube and one map
per edge signature.  ``check_graph_span`` realizes the same lattice from
the admissible subgraphs of the arrow multigraph (edges evaluate to
merge operators, distinguished vertices to loop operators) and checks
that both spans agree.  One walk over the edge sets (``_admissible``)
finds each set's components and product from the set without its top
edge, and each subgraph's value is the value of one smaller subgraph
times one operator.  Lattices are Hermite forms of the distinct values.
"""

from __future__ import annotations

from .algebra import EVEN
from .chain import _edges, edge_map
from .cube import resolutions
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

# the word and subgraph walks are exponential in both: at the guard's
# edge, 8 circles on a path with 5 more seeded arrows (BENCH_lattice.json),
# check_graph_span walks 30,711 subgraphs in 0.9-1.6 s and 50 MB peak on
# one core of a shared 2-vCPU VM
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
    supports and every basis row is homogeneous; the first is 1.  Words
    with equal values span nothing more, so each value enters once.
    """
    return hermite(dict.fromkeys(tuple(vec) for _, vec in _words(k, arrows)))


def check_commuting_square(d: Diagram) -> list:
    """Violations of the commuting square over every cube edge (must be []).

    For each edge I -> J at crossing i and every arrow word w of D(I)
    with a nonzero value, the even edge map applied to the value of w
    must equal the value in D(J) of w along a merge, or of w with i
    added along a split.  Each violation is (I bits, i, w).
    """
    n = d.n
    cube = resolutions(d)
    # the value of every sorted word that does not vanish, one table per
    # distinct vertex (circle count and arrows) of the cube; a word
    # missing from its vertex's table has value 0
    tables = {vertex: dict(_words(*vertex)) for vertex in set(cube)}
    values = [tables[vertex] for vertex in cube]
    # edges with one signature share one map, as in a complex build
    maps: dict = {}
    violations = []
    for mask, i, to, sig in _edges(d, cube):
        table, size = values[to], 2 ** cube[to][0]
        if sig not in maps:
            maps[sig] = edge_map(sig, EVEN)
        emap = maps[sig]
        zero = [0] * size
        for w, vec in values[mask].items():
            image = [0] * size
            for m, c in enumerate(vec):
                if c:
                    for row, e in emap[m]:
                        image[row] += e * c
            target = tuple(sorted(w + (i,))) if sig[0] == "split" else w
            if image != table.get(target, zero):
                bits = tuple(mask >> (n - 1 - j) & 1 for j in range(n))
                violations.append((bits, i, w))
    return violations


# --- admissible subgraphs and the graph description of the lattice ----

def _admissible(k: int, arrows):
    """(edge mask, edge product, distinguished masks) for every edge set
    of the arrow multigraph that admits a subgraph, in ascending edge
    mask, the distinguished masks ascending.

    Arrow i is bit i of an edge mask and circle v bit v of a vertex
    mask; the edge product is the value at 1 of the product of the
    set's arrow operators.  Every component of an admissible subgraph is
    a tree with at most one distinguished vertex, a single-cycle
    subgraph (cycle rank 1) with none, or a lone distinguished circle
    that carries a loop arrow.  A component of cycle rank 2 or more
    rules out the edge set and every superset, so each admissible set
    is the set without its top edge, yielded before it, plus that edge:
    the walk keeps every admissible set's components as (vertex mask,
    edge count), merges the ones the new edge touches, and multiplies
    the set's product by the new arrow.
    """
    _guard(k, arrows, "admissible-subgraph")
    terms = [_arrow(k, a) for a in arrows]
    loops = 0                            # circles that carry a loop arrow
    for s, t in arrows:
        if s == t:
            loops |= 1 << s
    # edge mask -> (components, product) of an admissible set, else None
    sets: list = [None] * 2 ** len(arrows)
    sets[0] = (), [1] + [0] * (2 ** k - 1)
    for emask in range(2 ** len(arrows)):
        if emask:
            top = emask.bit_length() - 1
            parent = sets[emask ^ 1 << top]
            if parent is None:
                continue
            s, t = arrows[top]
            vmask, n_edges = 1 << s | 1 << t, 1
            comps = []
            for comp in parent[0]:
                if comp[0] & vmask:
                    vmask |= comp[0]
                    n_edges += comp[1]
                else:
                    comps.append(comp)
            if n_edges >= vmask.bit_count() + 1:     # cycle rank >= 2
                continue
            comps.append((vmask, n_edges))
            sets[emask] = comps, _times(parent[1], terms[top])
        comps, product = sets[emask]
        masks = [0]
        touched = 0
        for vmask, n_edges in comps:
            touched |= vmask
            if n_edges < vmask.bit_count():          # a tree
                masks = [m | bit for m in masks for bit in
                         (0, *(1 << v for v in range(k) if vmask >> v & 1))]
        free = loops & ~touched
        for v in range(k):
            if free >> v & 1:
                masks += [m | 1 << v for m in masks]
        yield emask, product, sorted(masks)


def _subgraph_values(k: int, arrows):
    """The value of every admissible subgraph, in the order of
    ``_admissible``: its edge product times 2 x_v for each distinguished
    circle v.  Each is the value of the subgraph without its top
    distinguished circle, yielded before it, times one loop operator.
    """
    for _, product, dists in _admissible(k, arrows):
        values = {}                      # distinguished mask -> value
        for dist in dists:
            if dist:
                top = dist.bit_length() - 1
                values[dist] = _with_loops(k, values[dist ^ 1 << top], (top,))
            else:
                values[dist] = product
            yield values[dist]


def check_graph_span(k: int, arrows) -> dict:
    """Compare the admissible-subgraph span with the operator lattice of
    the resolution with `k` circles and `arrows`.

    Only the distinct subgraph values enter the Hermite form, which is
    unique, so the span does not depend on which of them are repeated.
    """
    lattice = operator_lattice(k, arrows)
    rows: dict = {}                      # distinct values, in order
    subgraphs = 0
    for vec in _subgraph_values(k, arrows):
        rows[tuple(vec)] = None
        subgraphs += 1
    span = hermite(rows)
    return {
        "equal": span == lattice,
        "lattice_rank": len(lattice),
        "span_rank": len(span),
        "kernel_rank": subgraphs - len(span),
        "subgraphs": subgraphs,
    }
