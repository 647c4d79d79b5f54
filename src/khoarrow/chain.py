"""Assembly of the unreduced and reduced chain complexes from the
resolution cube.

A build reads every vertex, its circle count and arrows, from one walk
of the cube (``cube.resolutions``), and the local picture of every edge
from the arrows of its crossing at its two ends (``_edges``): vertex I
is the bit mask with crossing i at bit n - 1 - i, and maps and signs sit
in flat lists indexed by mask * n + i for the edge at crossing i.

Edge maps are built from the parameterized (co)multiplication acting at
the stable position of the merged/split circle, with tensor factors
shuffled by the parameterized swap and a graded reach-over coefficient
for every factor left of the saddle.  Each is a sparse monomial map:
every basis tensor goes to at most two basis tensors, read off its bits
and the circle positions.  A map depends only on the local picture of
its edge (circle count, the two positions, merge or split), so one
build makes each distinct map once and shares it between its edges.
Edge signs are then propagated from a spanning tree of the cube, each
non-tree edge from one face it closes, so that every 2-face
anticommutes; the few edges no face fixes become GF(2) unknowns, solved
by XOR elimination against the remaining faces; each composite of two
map objects is made, and each face compared, once per sign solve.
That work is done once per build (``_Assembly``).  Every differential
preserves q, so the complex is the direct sum of its q-slices, and a
complex is only ever held as that stream: one assembly writes the
columns of one slice at a time (``q_slices``), numbering its generators
by slice id alone, their position in the slice degree by degree, with
rows as those ids, either every generator (the unreduced complex) or
only the top half of every vertex block, x on the base circle (the
marked-point reduced complex); the signs are solved over the full maps
either way.  ``check_slice`` is the one soundness check of a slice.

Gradings: homological degree h = |I| - n_minus, and quantum degree
(#1 - #x) + |I| + n_plus - 2 n_minus, the standard convention (the CLI
can print the paper's, which negates q).
"""

from __future__ import annotations

from .algebra import RingParams
from .cube import resolutions
from .diagram import Diagram, NonPlanarInconsistency

__all__ = [
    "FaceNotProportional",
    "Unsolvable",
    "NotASubcomplex",
    "NotAComplex",
    "check_slice",
    "edge_map",
    "solve_signs",
    "q_slices",
]


class FaceNotProportional(RuntimeError):
    pass


class Unsolvable(RuntimeError):
    pass


class NotASubcomplex(RuntimeError):
    pass


class NotAComplex(ValueError):
    pass


def check_slice(q: int, counts: dict, cols: dict) -> list:
    """The one soundness check of a q-slice (counts, cols), as
    ``q_slices`` yields it: counts[h] is the number of generators of
    quantum degree q in degree h, and cols[h] their columns of d_h, with
    rows as slice ids (a generator's position among all of the slice's
    generators, degree by degree in the order of `counts`).

    Raises NotAComplex, naming the first defect and its degree, unless
    cols[h] holds counts[h] columns (checked before any column is read),
    every row of a column in degree h is the id of one of the slice's
    generators of degree h + 1 (a compare against that degree's id
    range), and every composite d_{h+1} d_h vanishes, exactly over Z.
    Returns the column of every id, a list in id order: the dicts of
    `cols` themselves, and a new empty dict for each generator of a
    degree with no columns.
    """
    for h, hcols in cols.items():
        if len(hcols) != counts.get(h, 0):
            raise NotAComplex(f"d_{h} has {len(hcols)} columns for "
                              f"{counts.get(h, 0)} generators")
    ranges: dict[int, tuple[int, int]] = {}
    by_id: list[dict[int, int]] = []   # the column of each id
    for h, count in counts.items():
        ranges[h] = len(by_id), len(by_id) + count
        by_id += cols[h] if h in cols else [{} for _ in range(count)]
    for h, hcols in cols.items():
        lo, hi = ranges.get(h + 1, (0, 0))
        for col in hcols:
            acc: dict[int, int] = {}
            for mid, a in col.items():
                if not lo <= mid < hi:
                    raise NotAComplex(
                        f"d_{h}: row {mid} of a column of q = {q} is no "
                        f"generator of degree {h + 1} and that q")
                for r, b in by_id[mid].items():
                    acc[r] = acc.get(r, 0) + a * b
            if any(acc.values()):
                raise NotAComplex(f"d_{h + 1} d_{h} is not zero")
    return by_id


def _signature(i: int, n: int, mask: int, kI: int, kJ: int,
               arrow_I: tuple, arrow_J: tuple) -> tuple:
    """The local picture the edge map along cube edge (I, i) depends on,
    read from arrow i at both ends: arrow_I = (cI, aI), the circles of
    crossing i's arcs c and a in D(I), of k(I) = kI circles, and
    arrow_J = (cJ, aJ) in D(J), J = I + e_i, of kJ.

    ("merge", k(I), s, t) when the crossing joins the circles s < t of c
    and a, and ("split", k(I), u, d_other) when c and a share circle u,
    which splits into the circles of c and a in J; circles are ordered
    by their smallest arc, so the daughter with u's minimal arc comes
    first and d_other is the larger of the two.  Raises
    NonPlanarInconsistency if a split does not add exactly one circle
    (a virtual diagram); `n` and `mask`, vertex I with crossing j at bit
    n - 1 - j, name the vertex in its message.
    """
    cI, aI = arrow_I
    if cI != aI:
        return ("merge", kI, cI, aI) if cI < aI else ("merge", kI, aI, cI)
    if kJ != kI + 1:
        # a crossing on one circle of a planar diagram splits it in two;
        # on a virtual one the surgery can leave a single circle
        bits = tuple(mask >> (n - 1 - j) & 1 for j in range(n))
        raise NonPlanarInconsistency(
            f"crossing {i} does not split circle {cI} of {bits}: "
            "the diagram is not planar")
    cJ, aJ = arrow_J
    return ("split", kI, cI, cJ if cJ > aJ else aJ)


def _edges(d: Diagram, cube: list):
    """(I, i, J, ``_signature``) for every cube edge I -> J = I + e_i of
    `d`, as masks, in ascending I, then ascending crossings; `cube` is
    ``resolutions(d)``, and vertex I sits at mask(I), crossing j at bit
    n - 1 - j.

    Crossing i's arrow joins the circles of its arcs c and a, so each
    signature reads arrow i of I and of J.  Raises
    NonPlanarInconsistency for a virtual diagram.
    """
    n = d.n
    bits = [(i, 1 << (n - 1 - i)) for i in range(n)]
    for I, (kI, at_I) in enumerate(cube):
        for i, bit in bits:
            if not I & bit:
                J = I | bit
                kJ, at_J = cube[J]
                yield I, i, J, _signature(i, n, I, kI, kJ, at_I[i], at_J[i])


def edge_map(sig: tuple, p: RingParams) -> list:
    """Unsigned chain map A^{(x)k(I)} -> A^{(x)k(J)} along a cube edge
    whose local picture is `sig` (``_signature``, which ``_edges`` reads
    for every edge of a cube).

    The map is monomial: entry idx is the image of basis tensor idx, a
    tuple of at most two (row, coeff) pairs with rows in increasing
    order.  The circles touched by the crossing are made adjacent (via
    the parameterized swap) at the position the merged or split circle
    occupies in the stable order of the target resolution; the
    (co)multiplication then acts there in position order.  A factor
    moved past another pays x, z or y when both are 1, one is x, or
    both are x.  Each saddle additionally reaches over every factor
    strictly to its left, paying the graded exchange coefficient per
    factor: (x, z) per (1, x) for a merge, (z, y) for a split.  The
    merge sends x(x)1 to xz x, and the split sends 1 to x1 + yz 1x.  At
    the even specialization all of these coefficients are 1 and the map
    is the plain Khovanov edge map; away from it they are exactly what
    makes every 2-face of the cube commute up to a single global unit.
    Passing m factors, xs of them x, at (one, ex) costs one^m (one ex)^xs,
    so every coefficient is a constant times (-1)^popcount(idx & M), M
    the factors passed where one ex = -1, both set once per map and image
    kind: one loop over the source indices writes each column with bit
    operations.
    """
    kind, kI, first, second = sig
    x, y, z = p.x, p.y, p.z
    xz, zy = x * z < 0, z * y < 0
    out = []
    if kind == "merge":
        # merge: the merged circle inherits the smaller stable position;
        # the factor at pt moves left past the factors between them
        ps, pt = first, second
        sa, sb = kI - 1 - ps, kI - 1 - pt        # bit shifts of the two
        a, b = 1 << sa, 1 << sb
        left, between, low = (1 << kI) - (a << 1), a - (b << 1), b - 1
        # (x, z) over the factors left of ps, and over those between as a
        # 1, where a = x pays x z more; (z, y) over those between as an x
        c0, m0 = x ** (pt - 1), (left | between | a) if xz else 0
        c1 = x ** ps * z ** (pt - ps - 1)
        m1 = (left if xz else 0) | (between if zy else 0)
        v0, v1 = (c0, -c0), (c1, -c1)         # by the parity under m0, m1
        for idx in range(1 << kI):
            row = (idx >> (sb + 1) << sb) | (idx & low)
            if not idx & b:
                out.append(((row, v0[(idx & m0).bit_count() & 1]),))
            elif idx & a:
                out.append(())                   # x * x = 0
            else:
                out.append(((row | a >> 1,
                             v1[(idx & m1).bit_count() & 1]),))
        return out
    # split: the daughter containing the minimal arc keeps the position,
    # and the other daughter moves right from the next one to its own
    pu, d_other = first, second
    su, t = kI - 1 - pu, kI - d_other   # bit shifts of u in I, d_other in J
    u, x_other = 1 << su, 1 << t
    x_min = u << 1
    left, between, low = (1 << kI) - x_min, u - x_other, x_other - 1
    # (z, y) over the factors left of pu, and over those between for the
    # moving x; (x, z) over those between for the moving 1
    cx, mx = z ** (d_other - 1), (left | between) if zy else 0
    c1 = z ** pu * x ** (d_other - pu - 1)
    m1 = (left if zy else 0) | (between if xz else 0)
    cy = y * z * cx
    vx, vy, v1 = (cx, -cx), (cy, -cy), (c1, -c1)
    for idx in range(1 << kI):
        base = (idx >> t << (t + 1)) | (idx & low)   # bit su lands on x_min
        if idx & u:
            # x -> x x
            out.append(((base | x_other, vx[(idx & mx).bit_count() & 1]),))
        else:
            # 1 -> x 1 + yz 1 x
            out.append(((base | x_other, vy[(idx & mx).bit_count() & 1]),
                        (base | x_min, v1[(idx & m1).bit_count() & 1])))
    return out


def _compose(second: list, first: list) -> list:
    """The sparse map `second` after `first`, in the format of the maps:
    one tuple of (row, coeff) pairs per column, rows increasing, zeros
    dropped.  Both maps must have that format."""
    out = []
    for images in first:
        if not images:
            out.append(())
        elif len(images) == 1:
            # most columns have one image: the composite is its image
            # under `second`, scaled
            (mid, a), = images
            col = second[mid]
            out.append(col if a == 1 else
                       tuple((r, v) for r, b in col if (v := a * b)))
        else:
            acc: dict[int, int] = {}
            for mid, a in images:
                for r, b in second[mid]:
                    acc[r] = acc.get(r, 0) + a * b
            out.append(tuple(sorted((r, v) for r, v in acc.items() if v)))
    return out


def _proportion(m1: list, m2: list, where: str) -> int:
    """The lambda = +-1 with m1 = lambda m2, or 0 when both vanish;
    lambda = -1 is read column by column, with no negated copy of m2."""
    z1, z2 = not any(m1), not any(m2)
    if z1 and z2:
        return 0
    if z1 != z2:
        raise FaceNotProportional(f"{where}: exactly one composite vanishes")
    if m1 == m2:
        return 1
    unequal = FaceNotProportional(f"{where}: composites not +-proportional")
    if len(m1) != len(m2):
        raise unequal
    for c1, c2 in zip(m1, m2):
        if len(c1) != len(c2):
            raise unequal
        for (r1, v1), (r2, v2) in zip(c1, c2):
            if r1 != r2 or v1 != -v2:
                raise unequal
    return -1


def solve_signs(maps: list, n: int) -> list:
    """Edge signs making every 2-face of the cube anticommute.

    Cube edges are numbered mask(I) * n + i, where crossing j is bit
    n - 1 - j of mask(I), so that ascending masks are the lexicographic
    order of the vertices.  Returns the list of signs by edge number: +-1
    on every edge, 0 on the numbers (I, i) with I_i = 1, which are no
    edge.  A sign is held as a bitmask over GF(2): bit 0 is a constant,
    the other bits are unknowns, and the sign is -1 when the mask meets
    an odd number of the set bits of the solution.  The edges (I, i) are
    walked in order of (i, |I|, I).  An edge with no 1-bit of I below i
    is in a spanning tree of the cube and gets +1.  Every other edge is
    fixed by the first face (I - e_j; j, i), j < i a 1-bit of I, whose
    composites do not vanish: its other three edges come earlier in the
    walk.  Faces whose two composites both vanish constrain nothing; an
    edge all of whose faces are such gets a fresh unknown on top of its
    Khovanov sign.  Every further face is an equation in the unknowns,
    eliminated by XOR as it arrives; free unknowns are zero.  At the
    even specialization the result is exactly the Khovanov sign rule.

    `maps` holds the unsigned edge map of every edge of the n-cube at
    its number; edges may share one map object.  Each distinct object
    gets a number, a composite (second after first) is keyed by the
    numbers of its maps and made once per call, and a face is keyed by
    its two composites and compared column by column once per call; a
    later face with that key reuses its lambda, and still adds its
    equation.  The keys are objects, not signatures, so a changed copy
    of a shared map is composed on its own.  Raises FaceNotProportional
    when a face's composites are not +-1 multiples of each other, and
    Unsolvable when the face equations are inconsistent.
    """
    objs = list({id(m): m for m in maps}.values())
    number = {id(m): k for k, m in enumerate(objs)}
    ids = list(map(number.__getitem__, map(id, maps)))
    size = len(objs)
    comps: dict[int, list] = {}        # second * size + first -> composite
    lams: dict[int, int] = {}          # via_j * size^2 + via_i -> lambda
    masks: list = [None] * (n << n)
    pivots: dict[int, int] = {}        # leading unknown -> reduced equation
    unknowns = 0
    order = sorted(range(1 << n), key=int.bit_count)
    for i in range(n):
        bit_i = 1 << (n - 1 - i)
        for vertex in order:
            if vertex & bit_i:
                continue
            # the four signs of a face multiply to -lambda, where (i after
            # j) = lambda (j after i), 0 when both composites vanish
            equations = []
            last_i = ids[vertex * n + i] * size
            for j in range(i):
                bit_j = 1 << (n - 1 - j)
                if not vertex & bit_j:
                    continue
                low = vertex ^ bit_j
                at_low, at_up = low * n, (low | bit_i) * n
                via_j = last_i + ids[at_low + j]
                via_i = ids[at_up + j] * size + ids[at_low + i]
                key = via_j * size * size + via_i
                lam = lams.get(key)
                if lam is None:
                    for c in (via_j, via_i):
                        if c not in comps:
                            comps[c] = _compose(objs[c // size],
                                                objs[c % size])
                    lam = lams[key] = _proportion(
                        comps[via_j], comps[via_i],
                        f"face {low:0{n}b} ({j},{i})")
                if lam:
                    equations.append(masks[at_low + j] ^ masks[at_low + i]
                                     ^ masks[at_up + j] ^ (lam > 0))
            # the 1-bits of I before i, the crossings j < i
            before = vertex >> (n - i)
            if equations:
                mask = equations[0]
            elif before:
                unknowns += 1
                mask = (1 << unknowns) | (before.bit_count() & 1)
            else:
                mask = 0
            masks[vertex * n + i] = mask
            for eq in equations[1:]:
                eq ^= mask
                while eq > 1 and eq.bit_length() - 1 in pivots:
                    eq ^= pivots[eq.bit_length() - 1]
                if eq == 1:
                    raise Unsolvable("sign constraints are inconsistent")
                if eq:
                    pivots[eq.bit_length() - 1] = eq

    solution = 1                       # bit 0, the constant, is set
    for lead in sorted(pivots):
        if (pivots[lead] & solution).bit_count() & 1:
            solution |= 1 << lead
    return [0 if mask is None else -1 if (mask & solution).bit_count() & 1
            else 1 for mask in masks]


class _Assembly:
    """The work a build of `d` at `p` does once, whatever q-slices it
    then writes: unreduced, or reduced to the top half of every vertex
    block (x on circle 0, the base circle) with q + 1.

    Each edge's signature is read from the arrows of its two vertices
    (``_edges``), and edges with one signature share one map
    object, so a build makes one ``edge_map`` call per distinct local
    picture (27 of 448 edges on T(2, 7)), each written from parity
    masks, and ``solve_signs``, numbering those objects, makes each
    distinct composite once (108) and compares each distinct face once
    (87 of 672).  Signs are solved over the full maps either way.
    The arrows die with the build's first stage; ``counts`` counts
    the generators of one q-slice, and ``slice`` numbers them and writes
    their columns, from what each vertex keeps: its kept block indices
    by q, each with its position in the block, and its outgoing edges,
    each made once per build.  Nothing is cached across builds.
    Raises NonPlanarInconsistency for a virtual diagram, and
    NotASubcomplex when `reduced` and an edge map sends a kept
    generator into the discarded half of its target block.
    """

    def __init__(self, d: Diagram, p: RingParams, reduced: bool):
        n = self.n = d.n
        self.n_minus = d.n_minus
        cube = resolutions(d)
        shared: dict[tuple, list] = {}
        maps: list = [None] * (n << n)
        for mask, i, J, sig in _edges(d, cube):
            emap = shared.get(sig)
            if emap is None:
                emap = shared[sig] = edge_map(sig, p)
                kI, kJ = sig[1], cube[J][0]
                # the kept half of a block is its indices 2^(k-1) .. 2^k - 1
                if reduced and any(row < 1 << (kJ - 1)
                                   for images in emap[1 << (kI - 1):]
                                   for row, _ in images):
                    raise NotASubcomplex(
                        f"boundary from degree {mask.bit_count() - d.n_minus}"
                        f" leaves the reduced generators")
            maps[mask * n + i] = emap
        signs = solve_signs(maps, n)

        # generator idx of a block sits at q = k - 2 |idx| + |I| + shift,
        # |idx| its number of x's, plus 1 in the reduced theory; that
        # theory keeps idx from 2^(k-1) on, x on circle 0
        self.shift = d.n_plus - 2 * d.n_minus + reduced
        ks = [k for k, _ in cube]
        # blocks[k][k - 2x]: {idx: position} over the kept indices of a
        # k-circle block with x x's, in the basis order of A^{(x)k}
        blocks: dict[int, dict[int, dict[int, int]]] = {k: {} for k in ks}
        for k, kept in blocks.items():
            for idx in range(1 << (k - 1) if reduced else 0, 1 << k):
                pos = kept.setdefault(k - 2 * idx.bit_count(), {})
                pos[idx] = len(pos)
        # the later the bit that flips, the earlier its target among the
        # slice's ids: listing the crossings backwards writes each
        # column's rows in increasing order, the order homology() breaks
        # pivot ties in
        backwards = [(i, 1 << (n - 1 - i)) for i in reversed(range(n))]
        # by_q[q][size]: (mask, kept positions, outgoing edges) of each
        # vertex with generators of quantum degree q in that degree, in
        # ascending sizes, then masks; an edge is (sign, target mask,
        # map), each mask the one int object of `masks`, not a new int
        # per edge
        self.by_q: dict[int, dict[int, list]] = {}
        masks = list(range(1 << n))
        for mask in sorted(masks, key=int.bit_count):
            size = mask.bit_count()
            out = [(signs[mask * n + i], masks[mask | bit],
                    maps[mask * n + i])
                   for i, bit in backwards if not mask & bit]
            for q0, pos in blocks[ks[mask]].items():
                self.by_q.setdefault(q0 + size + self.shift, {}).setdefault(
                    size, []).append((mask, pos, out))

    def counts(self, q: int) -> dict[int, int]:
        """The generators of quantum degree `q`: counts[h] is their
        number in degree h, for each degree h that has some, in
        ascending h.  A count of generators that writes no column reads
        them here."""
        return {size - self.n_minus: sum(len(pos) for _, pos, _ in vertices)
                for size, vertices in self.by_q[q].items()}   # ascending

    def slice(self, q: int) -> tuple[dict, dict]:
        """The generator counts of quantum degree `q` (``counts``) and
        their columns.

        Each generator's slice id is its position among all of the
        slice's generators: degree by degree, masks ascending, basis
        order within a block.  cols[h] holds the column of each
        generator of degree h in id order, as ``{row: entry}`` with rows
        as slice ids; the top degree has no columns.  Each vertex first
        gets its ids, one list per vertex, so that every entry of a row
        shares one id object; an entry's row is then the id list of its
        target indexed by the target index's position.  An entry whose
        target is not one of the slice's generators of degree h + 1 (a
        target vertex with nothing at this q, or an index of another
        x-count or of the discarded reduced half) raises NotAComplex,
        naming its index in the target block.
        """
        layers = self.by_q[q]
        # mask -> (ids, kept positions), empty for a vertex off the slice
        at = [((), {})] * (1 << self.n)
        start = 0
        for vertices in layers.values():
            for mask, pos, _ in vertices:
                at[mask] = list(range(start, start + len(pos))), pos
                start += len(pos)
        cols: dict[int, list[dict[int, int]]] = {}
        for size, vertices in layers.items():
            if size == self.n:
                continue
            h = size - self.n_minus
            try:
                # blocks of distinct edges never overlap
                cols[h] = [{ids[tpos[r]]: sign * v
                            for sign, t, emap in out
                            for ids, tpos in [at[t]]
                            for r, v in emap[c]}
                           for _, pos, out in vertices for c in pos]
            except KeyError as missing:
                raise NotAComplex(
                    f"d_{h}: index {missing.args[0]} of a target block of "
                    f"a column of q = {q} is no generator of degree {h + 1} "
                    f"and that q") from None
        return self.counts(q), cols


def q_slices(d: Diagram, p: RingParams, reduced: bool = False):
    """Yield (q, counts, cols) for every q-slice of the complex of `d`
    at `p`, ascending in q: counts[h] is the number of generators of
    quantum degree q in degree h, and cols[h] the column of each, as
    ``{row: entry}`` with rows as slice ids: a generator's position
    among all of the slice's generators, degree by degree in the order
    of `counts` (so the rows of cols[h] run over the counts[h + 1] ids
    of degree h + 1); the top degree has no columns.  A generator has
    no other index.

    Every differential preserves q, so the complex is the direct sum of
    these slices.  The edge maps and signs are made once, before the
    first slice; each slice is then written on its own
    (``_Assembly.slice``), writing each entry's row as its slice id
    directly, so a caller that drops a slice before asking for the next
    never holds the whole complex.  Raises NonPlanarInconsistency for a
    virtual diagram, before the first slice, and NotAComplex if an edge
    leaves the slice it starts in.

    With `reduced`, the slices are those of the reduced complex: the
    generators whose base circle carries ``x``, with q shifted up by
    one, so that the unknot sits at (0, 0).  The base circle of a
    resolution is the one through the base arc, the smallest arc label
    of `d` (the first free loop of a crossingless diagram).  Circles are
    ordered by their smallest arc, so the base circle is circle 0 and
    its ``x`` is the top bit of a block index: the kept generators are
    the top half of every vertex block, and only they are written.
    Multiplying by ``x`` on the base circle commutes with every edge map
    up to sign, so these generators span a subcomplex: Khovanov's
    marked-point reduced complex, and at the odd specialization the
    reduced odd complex of Ozsvath, Rasmussen and Szabo.  The edge signs
    are solved over the full edge maps, so the boundary is the
    restriction of the unreduced one, and (q + q^-1) times its Euler
    characteristic is the Jones polynomial.  For a knot the homology
    does not depend on the base arc; for a link it belongs to the
    component through the smallest arc label.  Raises NotASubcomplex,
    before the first slice, if an edge map sends a kept generator
    outside the kept ones.  The paper's basepoint-free construction of
    an even reduced theory is not reproduced here; the arrow-operator
    lattices it starts from are checked in ``lattice``.
    """
    assembly = _Assembly(d, p, reduced)
    for q in sorted(assembly.by_q):
        yield (q, *assembly.slice(q))
