"""Slow, plain reference versions of build steps, and test-only helpers.

``resolve`` finds circles with a union-find class, ``graded_edge_map``
multiplies out every coefficient of an edge map column by column,
``kauffman_bracket`` sums the state sum one vertex at a time,
``resolution_build`` assembles a whole complex from one ``Resolution``
per vertex with bit-tuple keys, ``restricted_reduced`` restricts that
whole unreduced complex to the top half of every vertex block, and
``orient`` orients a PD code by constraint propagation and then traces
its components.  The package does all six faster, and holds a complex
only as the stream of its q-slices (``chain.q_slices``); ``slices_of``
cuts a whole complex (``Complex``) into that form, so the tests compare
the package's results with these.  ``check_all`` and ``generator_counts`` read a stream of
slices for the checks and for the Euler characteristic.  Then comes the
graph model of the operator lattices that only the tests read:
``enumerate_admissible``, ``psi``, ``find_cycles`` and
``check_cycle_relations``, evaluated with the package's
``lattice.value`` and ``lattice._with_loops``.  The last part holds the
lattice checks with no work shared between subgraphs or vertices:
``admissible`` relabels every circle for each edge set,
``check_graph_span`` evaluates every subgraph from scratch and puts
every value into one Hermite form, like ``operator_lattice``, and
``check_commuting_square`` builds a words table per cube vertex and a
map per cube edge.
"""

from dataclasses import dataclass
from itertools import groupby, product
from typing import NamedTuple

from khoarrow.algebra import EVEN
from khoarrow.chain import (NotAComplex, Unsolvable, _compose, _edges,
                            _proportion, _signature, check_slice, edge_map)
from khoarrow.cube import resolutions
from khoarrow.diagram import NonPlanarInconsistency
from khoarrow.jones import LaurentPoly
from khoarrow.lattice import (_admissible, _guard, _with_loops, _words,
                              value)
from khoarrow.snf import hermite


@dataclass(frozen=True)
class Resolution:
    """The smoothing D(I) of a diagram at the vertex `index`."""

    index: tuple
    circles: tuple     # sorted arc labels, by smallest arc; free loops empty
    arrows: tuple      # (source, target) circles, one pair per crossing

    @property
    def k(self):
        return len(self.circles)


def vertices(n):
    """The 2^n vertices of the n-cube as bit tuples, in lexicographic order."""
    return product((0, 1), repeat=n)


def khovanov_sign(bits, i):
    """(-1)^(number of 1-bits strictly before coordinate i); i is 0-based."""
    bits = tuple(bits)
    if bits[i] != 0:
        raise ValueError(f"coordinate {i} of {bits} is already 1")
    return -1 if sum(bits[:i]) % 2 else 1


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
    for c, bit in zip(d.crossings, bits):
        p_ab, p_cd = _smoothing_pairs(c, bit)
        arrows.append((index_of[p_cd[0]], index_of[p_ab[0]]))
    return Resolution(bits, tuple(circles), tuple(arrows))


def edge_signature(rI, rJ, i):
    """``chain._signature`` of the cube edge rI -> rJ at crossing i, read
    from the arrows of the two resolutions, which join the circles of
    arcs c and a.  No direction is read."""
    bits = rI.index
    assert not bits[i] and rJ.index == _flip(bits, i, 1), (bits, rJ.index, i)
    mask = int("".join(map(str, bits)) or "0", 2)
    return _signature(i, len(bits), mask, rI.k, rJ.k, rI.arrows[i],
                      rJ.arrows[i])


def _graded(one, ex, n, xs):
    """one^(n - xs) * ex^xs for +-1 `one` and `ex`: the coefficient of
    passing n factors, xs of them x, that cost `one` per 1 and `ex` per x."""
    return (one if (n - xs) & 1 else 1) * (ex if xs & 1 else 1)


def graded_edge_map(sig, p):
    """``chain.edge_map`` with every coefficient a product of ``_graded``
    terms, counted column by column from the factors each one passes."""
    kind, kI, first, second = sig
    # swap[b] = (cost of passing a 1, cost of passing an x) for a moving b
    swap = ((p.x, p.z), (p.z, p.y))
    out = []
    if kind == "merge":
        ps, pt = first, second
        sa, sb = kI - 1 - ps, kI - 1 - pt
        between = (1 << sa) - (1 << (sb + 1))
        low = (1 << sb) - 1
        for idx in range(2 ** kI):
            a, b = idx >> sa & 1, idx >> sb & 1
            if a and b:
                out.append(())
                continue
            coeff = (_graded(p.x, p.z, ps, (idx >> (sa + 1)).bit_count())
                     * _graded(*swap[b], pt - ps - 1,
                               (idx & between).bit_count()))
            if a:
                coeff *= p.x * p.z
            row = (idx >> (sb + 1) << sb) | (idx & low) | (b << (sa - 1))
            out.append(((row, coeff),))
        return out
    pu, d_other = first, second
    su, t = kI - 1 - pu, kI - d_other
    x_min, x_other = 1 << (su + 1), 1 << t
    between = (1 << su) - (1 << t)
    low = (1 << t) - 1
    for idx in range(2 ** kI):
        twist = _graded(p.z, p.y, pu, (idx >> (su + 1)).bit_count())
        passed = (idx & between).bit_count()
        moved_x = twist * _graded(*swap[1], d_other - pu - 1, passed)
        base = idx & ~(1 << su)
        base = (base >> t << (t + 1)) | (base & low)
        if idx >> su & 1:
            out.append(((base | x_min | x_other, moved_x),))
        else:
            moved_1 = twist * _graded(*swap[0], d_other - pu - 1, passed)
            out.append(((base | x_other, p.y * p.z * moved_x),
                        (base | x_min, moved_1)))
    return out


def kauffman_bracket(d):
    """``jones.kauffman_bracket`` as the plain state sum: one term
    (-q)^|I| (q + q^-1)^k(I) per vertex I, k(I) from ``resolve``."""
    total = LaurentPoly()
    for bits in vertices(d.n):
        w = sum(bits)
        term = (LaurentPoly({1: 1, -1: 1}) ** resolve(d, bits).k).shift(w)
        total = total + (term * -1 if w % 2 else term)
    return total


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


class Complex(NamedTuple):
    """A whole bigraded complex: groups[h] lists the quantum degree of
    each generator of degree h, and boundaries[h] holds one
    ``{row: entry}`` column of d_h per generator of degree h, rows
    numbered in degree h + 1."""

    groups: dict
    boundaries: dict


def slices_of(groups, boundaries):
    """The q-slices of the whole complex (groups, boundaries), in the
    form and order ``chain.q_slices`` yields them: (q, counts, cols),
    ascending in q, counts[h] the number of generators of quantum degree
    q in degree h, and cols[h] their columns of d_h, in their order in
    degree h, for each degree h that has a boundary, with every row
    translated to its slice id (the position of its generator among all
    of the slice's generators, in their order in the whole complex,
    degree by degree).  A row that is no generator of degree h + 1 and
    that q raises NotAComplex, as the package's writer does."""
    for h, cols in boundaries.items():
        assert len(cols) == len(groups.get(h, [])), h
    slices = {}
    for h in sorted(groups):
        qs = groups[h].__getitem__
        # a stable sort keeps the order of each q's generators
        for q, idx in groupby(sorted(range(len(groups[h])), key=qs), key=qs):
            slices.setdefault(q, {})[h] = list(idx)
    for q in sorted(slices):
        members = slices[q]
        ids, first = {}, 0
        for h, idx in members.items():
            ids[h] = {i: first + pos for pos, i in enumerate(idx)}
            first += len(idx)
        cols = {}
        for h, idx in members.items():
            if h not in boundaries:
                continue
            cols[h] = []
            for i in idx:
                col = {}
                for r, a in boundaries[h][i].items():
                    if r not in ids.get(h + 1, {}):
                        raise NotAComplex(
                            f"d_{h}: row {r} of a column of q = {q} is no "
                            f"generator of degree {h + 1} and that q")
                    col[ids[h + 1][r]] = a
                cols[h].append(col)
        yield q, {h: len(idx) for h, idx in members.items()}, cols


def listed(slices):
    """`slices` as a list, every column as its (row, entry) items, so
    that the order rows were written in counts too."""
    return [(q, counts, {h: [list(col.items()) for col in hcols]
                         for h, hcols in cols.items()})
            for q, counts, cols in slices]


def check_all(slices):
    """``chain.check_slice`` on every slice of `slices`."""
    for q, counts, cols in slices:
        check_slice(q, counts, cols)


def generator_counts(slices):
    """(h, q, count) for the generators of each degree h of each q-slice,
    the triples ``jones.euler_characteristic`` sums."""
    for q, counts, _ in slices:
        for h, count in counts.items():
            yield h, q, count


def resolution_build(d, p=EVEN, reduced=False):
    """The whole complex of ``chain.q_slices(d, p, reduced)``, assembled
    from one ``resolve`` per vertex and one ``edge_signature`` per edge,
    with maps, signs and block offsets keyed by bit tuples."""
    n = d.n
    res = {bits: resolve(d, bits) for bits in vertices(n)}
    shared, maps = {}, {}
    for bits, r in res.items():
        for i in range(n):
            if not bits[i]:
                sig = edge_signature(r, res[_flip(bits, i, 1)], i)
                if sig not in shared:
                    shared[sig] = edge_map(sig, p)
                maps[(bits, i)] = shared[sig]
    signs = _solve_signs(maps, n)

    shift = d.n_plus - 2 * d.n_minus + reduced
    first = {bits: 2 ** (r.k - 1) if reduced else 0 for bits, r in res.items()}
    groups, offsets = {}, {}
    layout = cube_layout(d)
    for h, layer in layout.items():
        groups[h] = []
        for bits in layer:
            offsets[bits] = len(groups[h]) - first[bits]
            q0 = res[bits].k + sum(bits) + shift
            groups[h] += [q0 - 2 * bin(idx).count("1")
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
    return Complex(groups, boundaries)


def restricted_reduced(d, p=EVEN):
    """The reduced complex as the restriction of the whole unreduced
    ``resolution_build(d, p)`` to the generators with x on the base
    circle, the top half of every vertex block, with q + 1.  A boundary
    that leaves them raises KeyError."""
    full = resolution_build(d, p)
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

    groups = {h: [full.groups[h][j] + 1 for j in kept]
              for h, kept in keep.items()}
    boundaries = {}
    for h, cols in full.boundaries.items():
        row_of = {g: j for j, g in enumerate(keep[h + 1])}
        boundaries[h] = []
        for g in keep[h]:
            boundaries[h].append({row_of[r]: v for r, v in cols[g].items()})
    return Complex(groups, boundaries)


# --- diagram orientation by constraint propagation ----------------------

def orient(crossings):
    """(over_in, signs, components) of a PD code whose labels each occur
    twice, as ``Diagram`` once solved them: propagate head/tail roles
    over every arc until nothing changes, seed the lowest unset crossing
    with over-slot 1 and propagate again, then follow each strand from
    its entry to its exit.  Raises NonPlanarInconsistency where no
    orientation gives every arc one head and one tail."""
    ends = {}
    for ci, c in enumerate(crossings):
        for slot, a in enumerate(c):
            ends.setdefault(a, []).append((ci, slot))
    over_in = [None] * len(crossings)

    def role(ci, slot):
        """True = head (incoming), False = tail, None = not yet known."""
        if slot == 0:
            return True
        if slot == 2:
            return False
        if over_in[ci] is None:
            return None
        return slot == over_in[ci]

    def set_over(ci, slot_in):
        if over_in[ci] is None:
            over_in[ci] = slot_in
            return True
        if over_in[ci] != slot_in:
            raise NonPlanarInconsistency(
                f"orientation conflict at crossing {ci}")
        return False

    def propagate():
        changed = True
        while changed:
            changed = False
            for a, ((c1, s1), (c2, s2)) in ends.items():
                r1, r2 = role(c1, s1), role(c2, s2)
                if r1 is not None and r2 is not None:
                    if r1 == r2:
                        raise NonPlanarInconsistency(
                            f"arc {a} has two heads or two tails")
                elif r2 is not None:
                    # the other end takes the opposite role
                    changed |= set_over(c1, s1 if not r2 else 4 - s1)
                elif r1 is not None:
                    changed |= set_over(c2, s2 if not r1 else 4 - s2)

    propagate()
    # components passing only over other strands leave free choices
    for ci in range(len(crossings)):
        if over_in[ci] is None:
            over_in[ci] = 1
            propagate()

    succ = {c[s_in]: c[s_out] for c, o in zip(crossings, over_in)
            for s_in, s_out in ((0, 2), (o, 4 - o))}
    comps = []
    remaining = set(succ)
    while remaining:
        start = min(remaining)
        loop = [start]
        cur = succ[start]
        while cur != start:
            loop.append(cur)
            cur = succ[cur]
        remaining.difference_update(loop)
        comps.append(tuple(loop))
    signs = tuple(-1 if o == 1 else 1 for o in over_in)
    return tuple(over_in), signs, tuple(comps)


# --- the graph model of the operator lattices ---------------------------

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


def enumerate_admissible(k, arrows):
    """All admissible subgraphs of the arrow multigraph of the resolution
    with `k` circles and `arrows`, in ascending edge mask, then ascending
    distinguished-vertex mask (``lattice._admissible``)."""
    return [AdmissibleSubgraph(_members(emask, len(arrows)),
                               _members(dist, k))
            for emask, _, dists in _admissible(k, arrows) for dist in dists]


def _members(mask, size):
    return tuple(i for i in range(size) if mask >> i & 1)


def psi(g, k, arrows):
    """Evaluate a subgraph: merge operator per edge, loop per vertex."""
    return _with_loops(k, value(k, arrows, g.edges), g.distinguished)


def find_cycles(arrows, max_len=6):
    """Simple cycles in the arrow multigraph as (edge list, vertex list).

    Vertex list v_0..v_m has v_m = v_0; parallel arrows give 2-cycles.
    Loop arrows are excluded (they are cycles of length 1 handled by the
    loop operator directly).
    """
    ends = [(i, s, t) for i, (s, t) in enumerate(arrows) if s != t]
    cycles = []
    seen = set()

    def extend(path_edges, path_verts):
        last = path_verts[-1]
        for i, s, t in ends:
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

    for i, s, t in ends:
        extend([i], [s, t])
    return cycles


def check_cycle_relations(k, arrows, cycle):
    """The two kernel relations of the graph assignment on one cycle.

    For an even cycle, the alternating edge sums agree; for any cycle,
    the full edge product equals the product with one edge dropped and a
    loop operator at a cycle vertex inserted instead.
    """
    edges, verts = cycle
    out = {}
    if len(edges) % 2 == 0:
        sums = [[sum(c) for c in zip(*(value(k, arrows, (i,)) for i in half))]
                for half in (edges[0::2], edges[1::2])]
        out["even_sum"] = sums[0] == sums[1]
    full = value(k, arrows, edges)
    out["product_loop"] = all(
        _with_loops(k, value(k, arrows, edges[:-1]), (v,)) == full
        for v in set(verts))
    return out


# --- the lattice checks, one edge set and one vertex at a time ----------

def admissible(k, arrows):
    """``lattice._admissible`` as (edges, distinguished sets), each edge
    set's components found afresh by relabelling every circle."""
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


def operator_lattice(k, arrows):
    """``lattice.operator_lattice``: the Hermite form of every word value."""
    return hermite(vec for _, vec in _words(k, arrows))


def check_graph_span(k, arrows):
    """``lattice.check_graph_span``, evaluating every subgraph from
    scratch and putting every value, repeats included, into one Hermite
    form."""
    lattice = operator_lattice(k, arrows)
    values = []
    for edges, dists in admissible(k, arrows):
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


def check_commuting_square(d):
    """``lattice.check_commuting_square`` with one words table per cube
    vertex and one edge map per cube edge."""
    n = d.n
    cube = resolutions(d)
    values = [dict(_words(*vertex)) for vertex in cube]
    violations = []
    for mask, i, to, sig in _edges(d, cube):
        table, size = values[to], 2 ** cube[to][0]
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
