"""Assembly of the unreduced and reduced chain complexes from the
resolution cube.

A build reads the circles of every vertex from one walk of the cube
(``cube.circle_labels``), and the local picture of every edge from
those labels (``_edges``): vertex I is the bit mask with crossing i at
bit n - 1 - i, and maps, signs and block offsets sit in flat lists
indexed by mask, or by mask * n + i for the edge at crossing i.

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
by XOR elimination against the remaining faces.  Faces built from the
same four map objects are composed and compared once per sign solve.
One assembly writes either every generator (the unreduced complex) or
only the top half of every vertex block, x on the base circle (the
reduced complex of ``reduced``); the signs are solved over the full
maps either way.

Gradings: homological degree h = |I| - n_minus, and quantum degree
(#1 - #x) + |I| + n_plus - 2 n_minus, the standard convention (the CLI
can print the paper's, which negates q).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import RingParams
from .cube import circle_labels
from .diagram import Diagram, NonPlanarInconsistency

__all__ = [
    "BigradedComplex",
    "FaceNotProportional",
    "Unsolvable",
    "NotASubcomplex",
    "NotAComplex",
    "edge_map",
    "solve_signs",
    "build_unreduced",
]


class FaceNotProportional(RuntimeError):
    pass


class Unsolvable(RuntimeError):
    pass


class NotASubcomplex(RuntimeError):
    pass


class NotAComplex(ValueError):
    pass


@dataclass
class BigradedComplex:
    """Chain groups per homological degree with sparse integer boundaries.

    groups[h] is the list of quantum degrees of the generators in degree
    h.  boundaries[h] maps degree h to degree h+1 as one ``{row: entry}``
    dict per generator of degree h: the nonzero entries of that column,
    keyed by the index of a generator of degree h+1, as Python ints.
    ``check`` is the one soundness check every homology table rests on:
    the shape fits the groups, the boundary preserves q, and d^2 = 0.
    """

    groups: dict[int, list[int]] = field(default_factory=dict)
    boundaries: dict[int, list[dict[int, int]]] = field(default_factory=dict)

    def degrees(self):
        return sorted(self.groups)

    def iter_bidegrees(self):
        for h, qs in self.groups.items():
            seen: dict[int, int] = {}
            for q in qs:
                seen[q] = seen.get(q, 0) + 1
            for q, count in seen.items():
                yield h, q, count

    def check(self) -> None:
        """Raise NotAComplex, naming the first defect and its degree,
        unless this is a bigraded complex: d_h has one column per
        generator of degree h, every row of a column is a generator of
        degree h + 1 (0 <= row < their number) of the column's q, and
        every composite d_{h+1} d_h vanishes, exactly over Z.

        The column counts are checked first, so that one walk of the
        columns can check each row and sum the composites.
        """
        for h, cols in self.boundaries.items():
            if len(cols) != len(self.groups.get(h, [])):
                raise NotAComplex(f"d_{h} has {len(cols)} columns for "
                                  f"{len(self.groups.get(h, []))} generators")
        for h, cols in self.boundaries.items():
            qs = self.groups.get(h + 1, [])
            size = len(qs)
            second = self.boundaries.get(h + 1) or [{}] * size
            for q, col in zip(self.groups.get(h, []), cols):
                acc: dict[int, int] = {}
                for mid, a in col.items():
                    if not 0 <= mid < size or qs[mid] != q:
                        raise NotAComplex(
                            f"d_{h}: row {mid} of a column of q = {q} is no "
                            f"generator of degree {h + 1} and that q")
                    for r, b in second[mid].items():
                        acc[r] = acc.get(r, 0) + a * b
                if any(acc.values()):
                    raise NotAComplex(f"d_{h + 1} d_{h} is not zero")


def _graded(one: int, ex: int, n: int, xs: int) -> int:
    """one^(n - xs) * ex^xs for +-1 `one` and `ex`: the coefficient of
    passing n factors, xs of them x, that cost `one` per 1 and `ex` per x."""
    return (one if (n - xs) & 1 else 1) * (ex if xs & 1 else 1)


def _signature(i: int, n: int, mask: int, kI: int, kJ: int,
               cI: int, aI: int, cJ: int, aJ: int) -> tuple:
    """The local picture the edge map along cube edge (I, i) depends on,
    read from the circles of crossing i's arcs c and a: cI, aI in D(I),
    of k(I) = kI circles, and cJ, aJ in D(J), J = I + e_i, of kJ.

    ("merge", k(I), s, t) when the crossing joins the circles s < t of c
    and a, and ("split", k(I), u, d_other) when c and a share circle u,
    which splits into the circles of c and a in J; circles are ordered
    by their smallest arc, so the daughter with u's minimal arc comes
    first and d_other is the larger of the two.  Raises
    NonPlanarInconsistency if a split does not add exactly one circle
    (a virtual diagram); `n` and `mask`, vertex I with crossing j at bit
    n - 1 - j, name the vertex in its message.
    """
    if cI != aI:
        return ("merge", kI, cI, aI) if cI < aI else ("merge", kI, aI, cI)
    if kJ != kI + 1:
        # a crossing on one circle of a planar diagram splits it in two;
        # on a virtual one the surgery can leave a single circle
        bits = tuple(mask >> (n - 1 - j) & 1 for j in range(n))
        raise NonPlanarInconsistency(
            f"crossing {i} does not split circle {cI} of {bits}: "
            "the diagram is not planar")
    return ("split", kI, cI, cJ if cJ > aJ else aJ)


def _edges(d: Diagram, cube: list):
    """(mask, i, ``_signature``) for every cube edge (I, i) of `d`, in
    ascending masks, then ascending crossings; `cube` is
    ``circle_labels(d)``, and vertex I sits at mask(I), crossing j at bit
    n - 1 - j.

    Crossing i's arrow joins the circles of its arcs c and a, so each
    signature reads those two arcs' labels in I and in J = I + e_i.
    Raises NonPlanarInconsistency for a virtual diagram.
    """
    n = d.n
    ends = [(1 << (n - 1 - i), c, a)
            for i, (a, _, c, _) in enumerate(d.crossings)]
    for mask, (at_I, kI) in enumerate(cube):
        for i, (bit, c, a) in enumerate(ends):
            if not mask & bit:
                at_J, kJ = cube[mask | bit]
                yield mask, i, _signature(i, n, mask, kI, kJ, at_I[c],
                                          at_I[a], at_J[c], at_J[a])


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
    """
    kind, kI, first, second = sig
    # swap[b] = (cost of passing a 1, cost of passing an x) for a moving b
    swap = ((p.x, p.z), (p.z, p.y))
    out = []
    if kind == "merge":
        # merge: the merged circle inherits the smaller stable position;
        # the factor at pt moves left past the factors between them
        ps, pt = first, second
        sa, sb = kI - 1 - ps, kI - 1 - pt        # bit shifts of the two
        between = (1 << sa) - (1 << (sb + 1))
        low = (1 << sb) - 1
        for idx in range(2 ** kI):
            a, b = idx >> sa & 1, idx >> sb & 1
            if a and b:
                out.append(())                   # x * x = 0
                continue
            coeff = (_graded(p.x, p.z, ps, (idx >> (sa + 1)).bit_count())
                     * _graded(*swap[b], pt - ps - 1,
                               (idx & between).bit_count()))
            if a:
                coeff *= p.x * p.z
            row = (idx >> (sb + 1) << sb) | (idx & low) | (b << (sa - 1))
            out.append(((row, coeff),))
        return out
    # split: the daughter containing the minimal arc keeps the position,
    # and the other daughter moves right from the next one to its own
    pu, d_other = first, second
    su, t = kI - 1 - pu, kI - d_other   # bit shifts of u in I, d_other in J
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
            # x -> x x
            out.append(((base | x_min | x_other, moved_x),))
        else:
            # 1 -> x 1 + yz 1 x
            moved_1 = twist * _graded(*swap[0], d_other - pu - 1, passed)
            out.append(((base | x_other, p.y * p.z * moved_x),
                        (base | x_min, moved_1)))
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
    """The lambda = +-1 with m1 = lambda m2, or 0 when both vanish."""
    z1, z2 = not any(m1), not any(m2)
    if z1 and z2:
        return 0
    if z1 != z2:
        raise FaceNotProportional(f"{where}: exactly one composite vanishes")
    if m1 == m2:
        return 1
    if m1 == [tuple((r, -v) for r, v in col) for col in m2]:
        return -1
    raise FaceNotProportional(f"{where}: composites not +-proportional")


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
    its number; edges may share one map object.  Each face whose four
    maps are new objects is composed and compared column by column; a
    face made of the same four objects as one seen earlier in this call
    reuses its lambda, and still adds its equation.  Raises
    FaceNotProportional when a face's composites are not +-1 multiples
    of each other, and Unsolvable when the face equations are
    inconsistent.
    """
    lams: dict[tuple, int] = {}        # ids of a face's four maps -> lambda

    def face(low, j, i):
        """The lambda = +-1 with (i after j) = lambda (j after i) on the
        face at vertex `low` spanned by j < i; 0 when both composites
        vanish.  Faces whose four maps are the same objects are checked
        once."""
        ij, j0 = maps[(low | 1 << (n - 1 - j)) * n + i], maps[low * n + j]
        ji, i0 = maps[(low | 1 << (n - 1 - i)) * n + j], maps[low * n + i]
        key = (id(ij), id(j0), id(ji), id(i0))
        if key not in lams:
            lams[key] = _proportion(_compose(ij, j0), _compose(ji, i0),
                                    f"face {low:0{n}b} ({j},{i})")
        return lams[key]

    masks: list = [None] * (n << n)
    pivots: dict[int, int] = {}        # leading unknown -> reduced equation
    unknowns = 0
    order = sorted(range(1 << n), key=int.bit_count)
    for i in range(n):
        bit_i = 1 << (n - 1 - i)
        for vertex in order:
            if vertex & bit_i:
                continue
            # the four signs of a face multiply to -lambda
            equations = []
            for j in range(i):
                bit_j = 1 << (n - 1 - j)
                if not vertex & bit_j:
                    continue
                low = vertex ^ bit_j
                lam = face(low, j, i)
                if lam:
                    equations.append(masks[low * n + j] ^ masks[low * n + i]
                                     ^ masks[(low | bit_i) * n + j]
                                     ^ (lam > 0))
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


def build_unreduced(d: Diagram, p: RingParams) -> BigradedComplex:
    """The unreduced complex of `d` at specialization `p`.

    Every generator of every vertex block is written.  Each distinct
    edge map is built once per call: every edge with the same
    ``_signature`` gets the same map object, so a build makes as
    many ``edge_map`` calls as there are distinct local pictures (27 of
    448 edges on T(2, 7)).  Nothing is cached across calls.  The reduced
    complex (``reduced.build_reduced``) comes from the same assembly.
    """
    return _build(d, p, reduced=False)


def _build(d: Diagram, p: RingParams, reduced: bool) -> BigradedComplex:
    """The complex of `d` at `p`: unreduced, or reduced to the top half
    of every vertex block (x on circle 0, the base circle) with q + 1.

    Each edge's signature is read from the circle labels of its two
    vertices (``_edges``).  Signs are solved over the full shared edge
    maps either way.  Raises NonPlanarInconsistency for a virtual
    diagram, and NotASubcomplex when `reduced` and an edge map sends a
    kept generator into the discarded half of its target block.
    """
    n = d.n
    cube = circle_labels(d)
    # edges with one signature share one map object, which also lets
    # solve_signs check each distinct face once
    shared: dict[tuple, list] = {}
    maps: list = [None] * (n << n)
    for mask, i, sig in _edges(d, cube):
        emap = shared.get(sig)
        if emap is None:
            emap = shared[sig] = edge_map(sig, p)
            kI, kJ = sig[1], cube[mask | 1 << (n - 1 - i)][1]
            # the kept half of a block is its indices 2^(k-1) .. 2^k - 1
            if reduced and any(row < 1 << (kJ - 1)
                               for images in emap[1 << (kI - 1):]
                               for row, _ in images):
                raise NotASubcomplex(
                    f"boundary from degree {mask.bit_count() - d.n_minus}"
                    f" leaves the reduced generators")
        maps[mask * n + i] = emap
    signs = solve_signs(maps, n)

    # generator idx of a block sits at q = k - 2 |idx| + |I| + shift, |idx|
    # its number of x's, plus 1 in the reduced theory; that theory keeps
    # idx from first[I] = 2^(k-1) on, x on circle 0
    shift = d.n_plus - 2 * d.n_minus + reduced
    first = [1 << (k - 1) if reduced else 0 for _, k in cube]
    # the chain group of degree h = |I| - n_minus lays out one block of
    # generators per vertex, in ascending masks (lexicographic order),
    # each block in the basis order of A^{(x)k(I)}
    by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        by_size[mask.bit_count()].append(mask)
    groups: dict[int, list[int]] = {}
    offsets = [0] * (1 << n)           # position of idx 0 of a block
    for size, layer in enumerate(by_size):
        qs: list[int] = []
        for mask in layer:
            k = cube[mask][1]
            q0 = k + size + shift
            offsets[mask] = len(qs) - first[mask]
            qs += [q0 - 2 * idx.bit_count()
                   for idx in range(first[mask], 1 << k)]
        groups[size - d.n_minus] = qs

    # one int object per row index, shared by every column that has it
    row_ids = list(range(max(map(len, groups.values()))))
    boundaries: dict[int, list[dict[int, int]]] = {}
    backwards = [(i, 1 << (n - 1 - i)) for i in reversed(range(n))]
    for size, layer in enumerate(by_size[:n]):
        cols: list[dict[int, int]] = []
        for mask in layer:
            # the later the bit that flips, the earlier its target in the
            # layout: walking the crossings backwards writes each column's
            # rows in increasing order, the order homology() picks pivots in
            out = [(signs[mask * n + i], offsets[mask | bit],
                    maps[mask * n + i])
                   for i, bit in backwards if not mask & bit]
            # blocks of distinct edges never overlap
            cols += [{row_ids[r0 + r]: sign * v
                      for sign, r0, emap in out for r, v in emap[c]}
                     for c in range(first[mask], 1 << cube[mask][1])]
        boundaries[size - d.n_minus] = cols
    return BigradedComplex(groups=groups, boundaries=boundaries)
