"""The reduced complex, and the arrow-operator lattices it is checked against.

``build_reduced`` gives Khovanov's marked-point reduced complex: the
subcomplex of the unreduced complex (even by default, or at any sign
specialization) whose generators carry ``x`` on the circle through the
base arc (the smallest arc label), with q shifted by one so that the
unknot sits at (0, 0).  Its Euler characteristic times (q + q^-1) is the
Jones polynomial.  For a knot the homology does not depend on the base
arc; for a link it belongs to the component through the smallest arc
label.  The paper's basepoint-free construction of an even reduced
theory is not reproduced here.

Every resolution D(I) also carries a family of commuting "T-operators":
one merge-type operator x_s + x_t per arrow between distinct circles and
one loop-type operator 2 x_s per loop arrow.  The integer span of all
their products is the operator lattice; ``check_commuting_square``
checks that passing operator words through a merge unchanged, and
prepending the new arrow along a split, agrees with the even edge map
on their values at 1^{(x)k}.

The second half of the module realizes the same lattices from admissible
subgraphs of the arrow multigraph (edges evaluate to merge operators,
distinguished vertices to loop operators) and checks that both spans
agree, together with the two cycle relations satisfied by the graph
assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .algebra import EVEN, RingParams
from .chain import BigradedComplex, build_unreduced, cube_layout, edge_map
from .cube import Resolution, resolve, vertices
from .diagram import Diagram
from .jones import TooLarge

__all__ = [
    "ArrowMonomial",
    "OperatorLattice",
    "AdmissibleSubgraph",
    "UnknownSymbol",
    "NotASubcomplex",
    "DimensionMismatch",
    "MAX_LATTICE_CIRCLES",
    "MAX_LATTICE_ARROWS",
    "ev",
    "operator_lattice",
    "build_reduced",
    "e1",
    "check_commuting_square",
    "enumerate_admissible",
    "psi",
    "check_graph_span",
    "find_cycles",
    "check_cycle_relations",
]

MAX_LATTICE_CIRCLES = 8
MAX_LATTICE_ARROWS = 12

# A monomial is a sorted tuple of crossing indices; the T-operators
# commute, so the multiset determines the product.
ArrowMonomial = tuple


class UnknownSymbol(KeyError):
    pass


class NotASubcomplex(RuntimeError):
    pass


class DimensionMismatch(ValueError):
    pass


def _arrow_operator(r: Resolution, i: int) -> np.ndarray:
    try:
        arr = r.arrows[i]
    except IndexError:
        raise UnknownSymbol(f"no arrow {i} in resolution {r.index}")
    if arr.source != arr.target:
        return algebra.t_merge(r.k, arr.source + 1, arr.target + 1)
    return algebra.t_split(r.k, arr.source + 1)


def ev(r: Resolution, w) -> np.ndarray:
    """Evaluate an arrow monomial as an endomorphism of A^{(x)k}."""
    out = np.eye(2 ** r.k, dtype=np.int64)
    for i in w:
        out = _arrow_operator(r, i) @ out
    return out


def _hermite_rows(rows):
    """Canonical row Hermite form with transform: U @ rows = H.

    `rows` is a list of equal-length 1-D integer sequences; returns
    (H, pivots, U) with H the nonzero rows, positive pivots, entries
    above each pivot reduced into [0, pivot).
    """
    A = [np.array(r, dtype=object) for r in rows]
    m = len(A)
    U = [np.array([int(i == j) for j in range(m)], dtype=object)
         for i in range(m)]
    ncols = len(A[0]) if m else 0
    r = 0
    pivots = []
    for col in range(ncols):
        if r == m:
            break
        live = [i for i in range(r, m) if A[i][col] != 0]
        if not live:
            continue
        while True:
            piv = min(live, key=lambda i: abs(A[i][col]))
            A[r], A[piv] = A[piv], A[r]
            U[r], U[piv] = U[piv], U[r]
            done = True
            for i in range(r + 1, m):
                if A[i][col]:
                    q = A[i][col] // A[r][col]
                    A[i] = A[i] - q * A[r]
                    U[i] = U[i] - q * U[r]
                    if A[i][col]:
                        done = False
            if done:
                break
            live = [i for i in range(r, m) if A[i][col] != 0]
        if A[r][col] < 0:
            A[r] = -A[r]
            U[r] = -U[r]
        for i in range(r):
            q = A[i][col] // A[r][col]
            if q:
                A[i] = A[i] - q * A[r]
                U[i] = U[i] - q * U[r]
        pivots.append(col)
        r += 1
    return A[:r], pivots, U[:r]


@dataclass(frozen=True)
class _Stratum:
    """Homogeneous piece of an operator lattice: words of length m."""

    m: int
    monomials: tuple          # ArrowMonomial list (spanning set)
    basis: tuple              # Hermite rows (object ndarrays, flattened)
    pivots: tuple
    exprs: tuple              # per basis row: {monomial: int} combination


@dataclass(frozen=True)
class OperatorLattice:
    """Integer lattice spanned by all evaluated arrow monomials of D(I).

    The T-operators are homogeneous (each raises x-degree by one), so
    the lattice splits into strata by word length; each stratum carries
    a canonical Hermite basis together with an expression of every
    basis operator as an integer combination of monomials.
    """

    index: tuple
    k: int
    strata: tuple = field(default_factory=tuple)

    @property
    def rank(self) -> int:
        return sum(len(s.basis) for s in self.strata)

    def basis_matrices(self):
        n = 2 ** self.k
        out = []
        for s in self.strata:
            for row in s.basis:
                out.append(np.array(row, dtype=object).reshape(n, n))
        return out


def operator_lattice(r: Resolution) -> OperatorLattice:
    """Close the span of arrow-monomial evaluations, stratum by stratum."""
    if r.k > MAX_LATTICE_CIRCLES or len(r.arrows) > MAX_LATTICE_ARROWS:
        raise TooLarge(
            f"resolution with k={r.k}, {len(r.arrows)} arrows exceeds "
            f"lattice guard ({MAX_LATTICE_CIRCLES} circles, "
            f"{MAX_LATTICE_ARROWS} arrows)")
    n_arrows = len(r.arrows)
    gens = [_arrow_operator(r, i) for i in range(n_arrows)]
    dim = 2 ** r.k
    strata = []
    current = [((), np.eye(dim, dtype=np.int64))]
    m = 0
    while current:
        rows = [mat.reshape(-1) for _, mat in current]
        H, pivots, U = _hermite_rows(rows)
        exprs = []
        for urow in U[:len(H)]:
            combo = {current[j][0]: int(c)
                     for j, c in enumerate(urow) if c}
            exprs.append(combo)
        strata.append(_Stratum(m, tuple(w for w, _ in current),
                               tuple(H), tuple(pivots), tuple(exprs)))
        nxt = []
        seen = set()
        for w, mat in current:
            start = w[-1] if w else 0
            for i in range(start, n_arrows):
                w2 = w + (i,)
                if w2 in seen:
                    continue
                seen.add(w2)
                mat2 = gens[i] @ mat
                if np.any(mat2):
                    nxt.append((w2, mat2))
        current = nxt
        m += 1
    return OperatorLattice(r.index, r.k, tuple(strata))


def e1(op, k: int):
    """Apply an operator to 1^{(x)k} (the first basis tensor)."""
    op = np.asarray(op)
    if op.shape != (2 ** k, 2 ** k):
        raise DimensionMismatch(f"operator shape {op.shape} for k={k}")
    return op[:, 0]


def _reinterpret(w, merge: bool, i: int):
    """Image of a monomial under the edge differential at crossing i."""
    if merge:
        return w
    return tuple(sorted(w + (i,)))


def build_reduced(d: Diagram, p: RingParams = EVEN,
                  convention: str = "standard",
                  flip_arrows: bool = False) -> BigradedComplex:
    """The reduced Khovanov complex of `d`, a subcomplex of the one at `p`.

    The generators kept are those of ``build_unreduced(d, p)`` whose
    base circle carries ``x``; the base circle of a resolution is the one
    through the base arc, the smallest arc label of `d` (the first free
    loop of a crossingless diagram).  Multiplying by ``x`` on the base
    circle commutes with every edge map up to sign, so these generators
    span a subcomplex: Khovanov's marked-point reduced complex, and at
    the odd specialization the reduced odd complex of Ozsvath, Rasmussen
    and Szabo.  Its quantum degree is the unreduced one plus 1, so the
    unknot sits at (0, 0), and (q + q^-1) times its Euler characteristic
    is the Jones polynomial.

    For a knot the homology does not depend on the base arc; for a link
    it belongs to the component through the smallest arc label.  Raises
    NotASubcomplex if a boundary map sends a kept generator outside the
    kept ones.
    """
    if convention not in ("standard", "paper"):
        raise ValueError(f"unknown grading convention {convention!r}")
    full = build_unreduced(d, p, flip_arrows=flip_arrows)
    keep: dict[int, list[int]] = {}
    for h, layer in cube_layout(d).items():
        keep[h] = []
        offset = 0
        for bits in layer:
            r = resolve(d, bits, flip_arrows)
            base = r.circle_of(d.arcs[0]) if d.arcs else 0
            marked = 1 << (r.k - 1 - base)
            keep[h] += [offset + idx for idx in range(2 ** r.k)
                        if idx & marked]
            offset += 2 ** r.k

    sign = 1 if convention == "standard" else -1
    groups = {h: [sign * (full.groups[h][j] + 1) for j in kept]
              for h, kept in keep.items()}
    boundaries: dict[int, list[dict[int, int]]] = {}
    for h, cols in full.boundaries.items():
        row_of = {g: j for j, g in enumerate(keep[h + 1])}
        boundaries[h] = []
        for g in keep[h]:
            if any(r not in row_of for r in cols[g]):
                raise NotASubcomplex(
                    f"boundary from degree {h} leaves the reduced generators")
            boundaries[h].append({row_of[r]: v for r, v in cols[g].items()})
    return BigradedComplex(groups=groups, boundaries=boundaries)


def _dense(emap, k: int) -> np.ndarray:
    """A sparse edge map into A^{(x)k} as a dense object matrix."""
    out = np.zeros((2 ** k, len(emap)), dtype=object)
    for c, images in enumerate(emap):
        for r, v in images:
            out[r, c] = v
    return out


def check_commuting_square(d: Diagram, flip_arrows: bool = False) -> list:
    """Violations of e1-intertwining over every cube edge (must be []).

    For each edge I -> J and every lattice basis operator b of O_I, the
    value of the induced arrow differential on 1^{(x)k(J)} must equal
    the even-specialization Khovanov edge map applied to b(1^{(x)k(I)}).
    """
    n = d.n
    resolutions = {bits: resolve(d, bits, flip_arrows) for bits in vertices(n)}
    lattices = {bits: operator_lattice(r) for bits, r in resolutions.items()}
    violations = []
    for bits in vertices(n):
        for i in range(n):
            if bits[i]:
                continue
            to = bits[:i] + (1,) + bits[i + 1:]
            rI, rJ = resolutions[bits], resolutions[to]
            emap = _dense(edge_map(rI, rJ, i, EVEN), rJ.k)
            arr = rI.arrows[i]
            merge = arr.source != arr.target
            latI = lattices[bits]
            for s in latI.strata:
                for combo in s.exprs:
                    dimJ = 2 ** rJ.k
                    image = np.zeros((dimJ, dimJ), dtype=object)
                    basis_mat = np.zeros((2 ** rI.k,) * 2, dtype=object)
                    for w, c in combo.items():
                        image = image + c * ev(rJ, _reinterpret(w, merge, i)).astype(object)
                        basis_mat = basis_mat + c * ev(rI, w).astype(object)
                    lhs = e1(image, rJ.k)
                    rhs = emap @ e1(basis_mat, rI.k)
                    if any(a != b for a, b in zip(lhs, rhs)):
                        violations.append((bits, i, s.m, combo))
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


class _Components:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def add(self, v):
        self.parent.setdefault(v, v)

    def find(self, v):
        while self.parent[v] != v:
            self.parent[v] = self.parent[self.parent[v]]
            v = self.parent[v]
        return v

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _is_admissible(r: Resolution, edges, distinguished, loops) -> bool:
    comp = _Components()
    for v in distinguished:
        comp.add(v)
    for i in edges:
        a = r.arrows[i]
        comp.add(a.source)
        comp.add(a.target)
        comp.union(a.source, a.target)
    if not comp.parent:
        return True
    n_edges: dict[int, int] = {}
    n_dist: dict[int, int] = {}
    members: dict[int, int] = {}
    for v in comp.parent:
        root = comp.find(v)
        members[root] = members.get(root, 0) + 1
        n_edges.setdefault(root, 0)
        n_dist.setdefault(root, 0)
    for i in edges:
        root = comp.find(r.arrows[i].source)
        n_edges[root] += 1
    for v in distinguished:
        n_dist[comp.find(v)] += 1
    for root, size in members.items():
        betti = n_edges[root] - size + 1
        dist = n_dist[root]
        if n_edges[root] == 0:
            # lone distinguished vertex: only with a loop arrow present
            if dist != 1 or next(v for v in comp.parent
                                 if comp.find(v) == root) not in loops:
                return False
        elif betti == 0 and dist <= 1:
            continue
        elif betti == 1 and dist == 0:
            continue
        else:
            return False
    return True


def enumerate_admissible(r: Resolution) -> list[AdmissibleSubgraph]:
    """All admissible subgraphs of the arrow multigraph of D(I)."""
    if r.k > MAX_LATTICE_CIRCLES or len(r.arrows) > MAX_LATTICE_ARROWS:
        raise TooLarge(
            f"k={r.k}, {len(r.arrows)} arrows exceeds admissible-subgraph "
            f"guard")
    loops = {a.source for a in r.arrows if a.source == a.target}
    n_arrows = len(r.arrows)
    out = []
    for emask in range(2 ** n_arrows):
        edges = tuple(i for i in range(n_arrows) if emask >> i & 1)
        for dmask in range(2 ** r.k):
            dist = tuple(v for v in range(r.k) if dmask >> v & 1)
            if _is_admissible(r, edges, dist, loops):
                out.append(AdmissibleSubgraph(edges, dist))
    return out


def psi(g: AdmissibleSubgraph, r: Resolution) -> np.ndarray:
    """Evaluate a subgraph: merge operator per edge, loop per vertex."""
    out = np.eye(2 ** r.k, dtype=np.int64)
    for i in g.edges:
        out = _arrow_operator(r, i) @ out
    for v in g.distinguished:
        out = algebra.t_split(r.k, v + 1) @ out
    return out


def check_graph_span(r: Resolution) -> dict:
    """Compare the admissible-subgraph span with the operator lattice."""
    lat = operator_lattice(r)
    subs = enumerate_admissible(r)
    rows = [psi(g, r).reshape(-1) for g in subs]
    H_span, _, _ = _hermite_rows(rows) if rows else ([], [], [])
    lat_rows = [np.array(b, dtype=object)
                for s in lat.strata for b in s.basis]
    H_lat, _, _ = _hermite_rows(lat_rows) if lat_rows else ([], [], [])
    equal = len(H_span) == len(H_lat) and all(
        all(a == b for a, b in zip(r1, r2))
        for r1, r2 in zip(H_span, H_lat))
    return {
        "equal": equal,
        "lattice_rank": len(H_lat),
        "span_rank": len(H_span),
        "kernel_rank": len(subs) - len(H_span),
        "subgraphs": len(subs),
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
    mats = [_arrow_operator(r, i) for i in edges]
    out = {}
    if len(edges) % 2 == 0:
        odd = sum(mats[0::2])
        even = sum(mats[1::2])
        out["even_sum"] = bool(np.array_equal(odd, even))
    full = np.eye(2 ** r.k, dtype=np.int64)
    for m in mats:
        full = m @ full
    ok = True
    for v in set(verts):
        partial = algebra.t_split(r.k, v + 1)
        for m in mats[:-1]:
            partial = m @ partial
        if not np.array_equal(full, partial):
            ok = False
    out["product_loop"] = ok
    return out
