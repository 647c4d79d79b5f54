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
span of the values of all arrow words.

``check_commuting_square`` checks that the even edge map sends the value
of every word of D(I) to the value of the same word in D(J) along a
merge, and of the word with the new arrow prepended along a split.  The
second half of the module realizes the same lattices from admissible
subgraphs of the arrow multigraph (edges evaluate to merge operators,
distinguished vertices to loop operators) and checks that both spans
agree, together with the two cycle relations satisfied by the graph
assignment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import EVEN
from .chain import _edge_signature, edge_map
from .cube import Resolution, resolve, vertices
from .diagram import Diagram
from .jones import TooLarge
from .snf import hermite

__all__ = [
    "AdmissibleSubgraph",
    "MAX_LATTICE_CIRCLES",
    "MAX_LATTICE_ARROWS",
    "value",
    "operator_lattice",
    "check_commuting_square",
    "enumerate_admissible",
    "psi",
    "check_graph_span",
    "find_cycles",
    "check_cycle_relations",
]

MAX_LATTICE_CIRCLES = 8
MAX_LATTICE_ARROWS = 12


def _guard(r: Resolution, what: str):
    if r.k > MAX_LATTICE_CIRCLES or len(r.arrows) > MAX_LATTICE_ARROWS:
        raise TooLarge(
            f"resolution with k={r.k}, {len(r.arrows)} arrows exceeds the "
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


def _arrow(r: Resolution, i: int):
    """Arrow i of `r` as terms: x_s + x_t, or 2 x_s for a loop at s."""
    a = r.arrows[i]
    s, t = 1 << (r.k - 1 - a.source), 1 << (r.k - 1 - a.target)
    return ((s, 1), (t, 1)) if s != t else ((s, 2),)


def value(r: Resolution, word, distinguished=()) -> list:
    """The product of the arrow operators of `word`, and of 2 x_v for each
    circle v in `distinguished`, evaluated at 1^{(x)k}."""
    vec = [1] + [0] * (2 ** r.k - 1)
    for i in word:
        vec = _times(vec, _arrow(r, i))
    return _with_loops(r, vec, distinguished)


def _with_loops(r: Resolution, vec: list, circles) -> list:
    """`vec` times 2 x_v for each circle v in `circles`."""
    for v in circles:
        vec = _times(vec, ((1 << (r.k - 1 - v), 2),))
    return vec


def _words(r: Resolution) -> list:
    """(word, value) for every sorted arrow word whose value is nonzero.

    The operators commute, so a sorted word stands for every ordering
    of its letters; a word whose value vanishes has no nonzero
    extension, so the walk stops there.
    """
    _guard(r, "lattice")
    out = []
    layer = [((), value(r, ()))]
    while layer:
        out += layer
        longer = []
        for w, vec in layer:
            for i in range(w[-1] if w else 0, len(r.arrows)):
                vec2 = _times(vec, _arrow(r, i))
                if any(vec2):
                    longer.append((w + (i,), vec2))
        layer = longer
    return out


def operator_lattice(r: Resolution) -> list:
    """Hermite basis of the span of the values of all arrow words of `r`.

    Its length is the rank of the lattice.  A word of length m has a
    value of x-degree m, so words of different lengths have disjoint
    supports and every basis row is homogeneous; the first is 1.
    """
    return hermite(vec for _, vec in _words(r))


def check_commuting_square(d: Diagram) -> list:
    """Violations of the commuting square over every cube edge (must be []).

    For each edge I -> J at crossing i and every arrow word w of D(I)
    with a nonzero value, the even edge map applied to the value of w
    must equal the value in D(J) of w along a merge, or of w with i
    added along a split.  Each violation is (I bits, i, w).
    """
    res = {bits: resolve(d, bits) for bits in vertices(d.n)}
    # the value of every sorted word of each vertex that does not vanish;
    # a word missing from its vertex's table has value 0
    values = {bits: dict(_words(r)) for bits, r in res.items()}
    violations = []
    for bits, rI in res.items():
        for i in range(d.n):
            if bits[i]:
                continue
            to = bits[:i] + (1,) + bits[i + 1:]
            rJ, table = res[to], values[to]
            emap = edge_map(_edge_signature(rI, rJ, i), EVEN)
            split = rI.arrows[i].source == rI.arrows[i].target
            zero = [0] * 2 ** rJ.k
            for w, vec in values[bits].items():
                image = [0] * 2 ** rJ.k
                for m, c in enumerate(vec):
                    for row, e in emap[m]:
                        image[row] += e * c
                target = tuple(sorted(w + (i,))) if split else w
                if image != table.get(target, zero):
                    violations.append((bits, i, w))
    return violations


# --- admissible subgraphs and the graph description of the lattice ----

@dataclass(frozen=True)
class AdmissibleSubgraph:
    """Sub-multigraph of the arrow graph with distinguished vertices.

    edges are arrow indices; every connected component is either a tree
    with at most one distinguished vertex, a single-cycle subgraph with
    none, or (when the circle carries a loop arrow) a lone distinguished
    vertex.
    """

    edges: tuple
    distinguished: tuple


def _admissible(r: Resolution):
    """(edges, distinguished sets) for every edge set that admits a
    subgraph, in ascending edge mask, each list in ascending vertex mask.

    Components depend only on the edge set, so they are found once per
    edge set, and the distinguished sets are the product of what each
    component allows (see ``enumerate_admissible``).
    """
    _guard(r, "admissible-subgraph")
    k, arrows = r.k, r.arrows
    ends = [(a.source, a.target) for a in arrows]
    loops = {s for s, t in ends if s == t}
    for emask in range(2 ** len(arrows)):
        edges = tuple(i for i in range(len(arrows)) if emask >> i & 1)
        label = list(range(k))           # circle -> its component's label
        for i in edges:
            a, b = label[ends[i][0]], label[ends[i][1]]
            if a != b:
                label = [a if c == b else c for c in label]
        touched = {v for i in edges for v in ends[i]}
        comps: dict = {}                 # label -> [vertices, edge count]
        for v in touched:
            comps.setdefault(label[v], [[], 0])[0].append(v)
        for i in edges:
            comps[label[ends[i][0]]][1] += 1
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


def enumerate_admissible(r: Resolution) -> list[AdmissibleSubgraph]:
    """All admissible subgraphs of the arrow multigraph of D(I), in
    ascending edge mask, then ascending distinguished-vertex mask.

    Every component of a subgraph is a tree with at most one
    distinguished vertex, a single-cycle subgraph (cycle rank 1) with
    none, or a lone distinguished circle that carries a loop arrow; an
    edge set with a component of cycle rank 2 or more admits none.
    """
    return [AdmissibleSubgraph(edges, dist)
            for edges, dists in _admissible(r) for dist in dists]


def psi(g: AdmissibleSubgraph, r: Resolution) -> list:
    """Evaluate a subgraph: merge operator per edge, loop per vertex."""
    return value(r, g.edges, g.distinguished)


def check_graph_span(r: Resolution) -> dict:
    """Compare the admissible-subgraph span with the operator lattice."""
    lattice = operator_lattice(r)
    values = []
    for edges, dists in _admissible(r):
        base = value(r, edges)       # psi, with the edge product shared
        values += [_with_loops(r, base, dist) for dist in dists]
    span = hermite(values)
    return {
        "equal": span == lattice,
        "lattice_rank": len(lattice),
        "span_rank": len(span),
        "kernel_rank": len(values) - len(span),
        "subgraphs": len(values),
    }


def find_cycles(r: Resolution, max_len: int = 6) -> list:
    """Simple cycles in the arrow multigraph as (edge list, vertex list).

    Vertex list v_0..v_m has v_m = v_0; parallel arrows give 2-cycles.
    Loop arrows are excluded (they are cycles of length 1 handled by the
    loop operator directly).
    """
    arrows = [(i, a.source, a.target) for i, a in enumerate(r.arrows)
              if a.source != a.target]
    cycles = []
    seen = set()

    def extend(path_edges, path_verts):
        last = path_verts[-1]
        for i, s, t in arrows:
            if i in path_edges:
                continue
            nxt = t if s == last else (s if t == last else None)
            if nxt is None:
                continue
            if nxt == path_verts[0] and len(path_edges) >= 1:
                key = frozenset(path_edges + [i])
                if key not in seen:
                    seen.add(key)
                    cycles.append((path_edges + [i], path_verts + [nxt]))
                continue
            if nxt in path_verts or len(path_edges) + 1 >= max_len:
                continue
            extend(path_edges + [i], path_verts + [nxt])

    for i, s, t in arrows:
        extend([i], [s, t])
    return cycles


def check_cycle_relations(r: Resolution, cycle) -> dict:
    """The two kernel relations of the graph assignment on one cycle.

    For an even cycle, the alternating edge sums agree; for any cycle,
    the full edge product equals the product with one edge dropped and a
    loop operator at a cycle vertex inserted instead.
    """
    edges, verts = cycle
    out = {}
    if len(edges) % 2 == 0:
        sums = [[sum(c) for c in zip(*(value(r, (i,)) for i in half))]
                for half in (edges[0::2], edges[1::2])]
        out["even_sum"] = sums[0] == sums[1]
    full = value(r, edges)
    out["product_loop"] = all(value(r, edges[:-1], (v,)) == full
                              for v in set(verts))
    return out
