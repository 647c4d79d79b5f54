"""Operator lattices and the reduced complex."""

from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from khoarrow import corpus, lattice
from khoarrow.algebra import EVEN, ODD, RingParams
from khoarrow.chain import build_unreduced
from khoarrow.cli import PRESETS
from khoarrow.cube import arrows, check_planarity, circle_labels
from khoarrow.diagram import Diagram, mirror, parse_pd
from khoarrow.homology import homology
from khoarrow.jones import LaurentPoly, TooLarge, euler_characteristic, jones
from khoarrow.lattice import (check_commuting_square, check_graph_span,
                              operator_lattice, value)
from khoarrow.reduced import build_reduced
from khoarrow.snf import snf_diagonal
from dense import t_merge, t_split
from knots import positive_braid_closure, random_signed_knots, torus
from reference import (AdmissibleSubgraph, UnionFind, check_cycle_relations,
                       enumerate_admissible, find_cycles, psi,
                       restricted_reduced)

KINK = parse_pd("X[1,2,2,1]")
HOPF = parse_pd("X[4,1,3,2] X[2,3,1,4]")


# ---------------------------------------------------------------- lattices

def _vertex(d, mask):
    """The circle count and the arrows of the vertex at `mask`."""
    labels, k = circle_labels(d)[mask]
    return k, arrows(d, labels)


def test_pinned_lattice_ranks():
    # crossingless unknot: only the identity
    assert len(operator_lattice(*_vertex(parse_pd(""), 0))) == 1
    # one circle with a loop arrow: {id, 2x}
    k, arr = _vertex(KINK, 0)
    assert k == 1 and arr[0][0] == arr[0][1]
    assert len(operator_lattice(k, arr)) == 2
    # two circles joined by one arrow: {id, x1+x2, 2 x1x2}
    k, arr = _vertex(KINK, 1)
    assert k == 2
    assert len(operator_lattice(k, arr)) == 3


def test_lattice_strata_are_homogeneous():
    basis = operator_lattice(*_vertex(HOPF, 0))
    degrees = []
    for row in basis:
        support = {bin(m).count("1") for m, c in enumerate(row) if c}
        assert len(support) == 1, row
        degrees += support
    assert degrees == [0, 1, 2]
    assert basis[0] == [1, 0, 0, 0]


def _multiplication(vec):
    """The matrix of multiplication by `vec` on A^{(x)k}."""
    n = len(vec)
    mat = np.zeros((n, n), dtype=np.int64)
    for col in range(n):
        for m, c in enumerate(vec):
            if not col & m:
                mat[col | m, col] += c
    return mat


@pytest.mark.parametrize("name", corpus.names())
def test_values_are_faithful_to_dense_operators(name):
    # every T-operator is multiplication by its value at 1, so a word's
    # value determines its dense product of t_merge / t_split matrices
    d = corpus.get(name)
    for labels, k in circle_labels(d):
        arr = arrows(d, labels)
        ops = [t_merge(k, s + 1, t + 1) if s != t else t_split(k, s + 1)
               for s, t in arr]
        for m in range(4):
            for w in combinations_with_replacement(range(len(ops)), m):
                dense = np.eye(2 ** k, dtype=np.int64)
                for i in w:
                    dense = ops[i] @ dense
                vec = value(k, arr, w)
                assert dense[:, 0].tolist() == vec, (labels, w)
                assert np.array_equal(dense, _multiplication(vec)), (labels, w)


def test_lattice_guard():
    code = " ".join(f"X[{4*i+1},{4*i+2},{4*i+2},{4*i+1}]" for i in range(9))
    d = parse_pd(code)
    with pytest.raises(TooLarge):
        operator_lattice(*_vertex(d, 0))


# ------------------------------------------------------- reduced complexes

NAMES = ["unknot", "kink", "hopf", "trefoil", "figure8"]


@pytest.mark.parametrize("name", NAMES)
def test_reduced_complex_is_a_complex(name):
    build_reduced(corpus.get(name)).check()


@pytest.mark.parametrize("mirrored", [False, True])
@pytest.mark.parametrize("name", corpus.names())
def test_base_circle_is_circle_0(name, mirrored):
    # build_reduced keeps the top half of every block, x on circle 0
    d = mirror(corpus.get(name)) if mirrored else corpus.get(name)
    for labels, _ in circle_labels(d):
        assert (labels[d.arcs[0]] if d.arcs else 0) == 0, labels


def test_unknot_reduced_homology_is_pinned_at_origin():
    for name in ("unknot", "kink", "unknot_2"):
        assert homology(build_reduced(corpus.get(name))).group_rows() == [
            (0, 0, 1, ())]


# Expected tables are the standard reduced Khovanov tables (Khovanov,
# "Patterns in knot cohomology I", math/0201306).  The Hopf link, the
# trefoil and the figure-8 are alternating, so their reduced homology is
# thin (Manolescu-Ozsvath, arXiv:0708.3249): free, on the one diagonal
# q - 2h = -signature, with ranks the coefficients of J / (q + q^-1).
# Each table is also checked against the Jones polynomial.
CIRCLE = LaurentPoly({1: 1, -1: 1})


def _reduced_rows(d):
    table = homology(build_reduced(d))
    assert CIRCLE * euler_characteristic(table) == jones(d)
    return table.group_rows()


def test_hopf_reduced():
    assert _reduced_rows(corpus.get("hopf")) == [
        (-2, -5, 1, ()), (0, -1, 1, ())]


def test_trefoil_reduced():
    assert _reduced_rows(corpus.get("trefoil")) == [
        (-3, -8, 1, ()), (-2, -6, 1, ()), (0, -2, 1, ())]


def test_figure8_reduced():
    assert _reduced_rows(corpus.get("figure8")) == [
        (-2, -4, 1, ()), (-1, -2, 1, ()), (0, 0, 1, ()),
        (1, 2, 1, ()), (2, 4, 1, ())]


def test_reduced_invariance_within_equivalence_classes():
    for cls in corpus.EQUIVALENCE_CLASSES.values():
        tables = {homology(build_reduced(corpus.get(n))) for n in cls}
        assert len(tables) == 1


def test_positive_kink_shifts_by_two():
    # a positive kink must leave the reduced theory where the unknot's
    # is: one free class at (0, 0), with no shift in q
    assert _reduced_rows(parse_pd("X[1,1,2,2]")) == [(0, 0, 1, ())]


def _relabel(d, s):
    """`d` with every arc label l sent to (l - 1 + s) mod 2n + 1."""
    m = 2 * d.n
    return Diagram([[(a - 1 + s) % m + 1 for a in c] for c in d.crossings])


# corpus knots, and signed braid closures of at most 7 crossings, whose
# arcs are 1..2n in traversal order too
BASE_ARC_KNOTS = {n: corpus.get(n) for n in corpus.names()
                  if corpus.get(n).n and len(corpus.get(n).components) == 1}
BASE_ARC_KNOTS.update(
    (f"signed{i}", d) for i, d in enumerate(
        d for _, d in random_signed_knots(20) if d.n <= 7))


@pytest.mark.parametrize("name", BASE_ARC_KNOTS)
def test_reduced_table_does_not_depend_on_the_base_arc(name):
    # the smallest label, which picks the base arc, lands on every arc
    d = BASE_ARC_KNOTS[name]
    assert d.arcs == tuple(range(1, 2 * d.n + 1))
    for p in (EVEN, ODD):
        table = homology(build_reduced(d, p))
        for s in range(1, 2 * d.n):
            assert homology(build_reduced(_relabel(d, s), p)) == table, (p, s)


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("chirality", ["left", "right"])
def test_torus_knots_reduced(n, chirality):
    d = torus(n) if chirality == "left" else mirror(torus(n))
    sign = 1 if chirality == "left" else -1
    rows = _reduced_rows(d)
    # one free class in each of h = 0, -2, -3, ..., -n, and no torsion
    assert sorted(sign * h for h, _, _, _ in rows) == [-n, *range(-n + 1, -1), 0]
    assert all(b == 1 and t == () for _, _, b, t in rows)


ALL_PRESETS = [RingParams(*xyz) for xyz in product((1, -1), repeat=3)]


def _columns(c):
    """groups and boundaries of `c`, every column as its (row, entry)
    list, so that the order rows were written in counts too."""
    return c.groups, {h: [list(col.items()) for col in cols]
                      for h, cols in c.boundaries.items()}


@pytest.mark.parametrize("name", corpus.names())
def test_direct_reduced_build_equals_the_restriction(name):
    # the reduced build writes only the kept generators; restricting the
    # full unreduced complex to them must give the same complex
    d = corpus.get(name)
    for p in PRESETS:
        assert (_columns(build_reduced(d, p))
                == _columns(restricted_reduced(d, p))), p


@pytest.mark.parametrize("p", [EVEN, ODD], ids=["even", "odd"])
@pytest.mark.parametrize("name", ["T(2,9)", "T(3,4)"])
def test_direct_reduced_build_equals_the_restriction_on_larger_knots(name, p):
    d = torus(9) if name == "T(2,9)" else positive_braid_closure([0, 1] * 4)
    assert _columns(build_reduced(d, p)) == _columns(restricted_reduced(d, p))


@pytest.mark.parametrize("p", ALL_PRESETS)
def test_reduced_subcomplex_at_every_preset(p):
    for name in corpus.names():
        build_reduced(corpus.get(name), p).check()


def _doubled(table):
    """Entries of reduced(h, q - 1) (+) reduced(h, q + 1), over Z."""
    sums: dict = {}
    for (h, q), (betti, torsion) in table.entries.items():
        for hq in ((h, q - 1), (h, q + 1)):
            b, t = sums.get(hq, (0, ()))
            sums[hq] = (b + betti, t + torsion)
    return {hq: (b, tuple(f for f in snf_diagonal(
                [[a if r == c else 0 for c, a in enumerate(t)]
                 for r in range(len(t))]) if f > 1) if t else ())
            for hq, (b, t) in sums.items()}


@pytest.mark.parametrize("p", [p for p in ALL_PRESETS if p.x * p.y == -1])
def test_odd_unreduced_is_two_copies_of_reduced(p):
    # Ozsvath-Rasmussen-Szabo (arXiv:0710.4300): at x*y = -1 the
    # unreduced homology is the reduced one at q - 1 plus at q + 1, over Z
    diagrams = [corpus.get(n) for n in corpus.names()]
    diagrams += [torus(n) for n in (5, 7)] + [mirror(torus(n)) for n in (5, 7)]
    for d in diagrams:
        assert (_doubled(homology(build_reduced(d, p)))
                == homology(build_unreduced(d, p)).entries), d.crossings


def _mod2(table):
    """Z/2 dimension at each (h, q): b + t2(h) + t2(h + 1), where t2
    counts even invariant factors (universal coefficients; d raises h)."""
    dims: dict = {}
    for (h, q), (betti, torsion) in table.entries.items():
        t2 = sum(1 for f in torsion if f % 2 == 0)
        for hq, n in (((h, q), betti + t2), ((h - 1, q), t2)):
            if n:
                dims[hq] = dims.get(hq, 0) + n
    return dims


MOD2_DIAGRAMS = {name: corpus.get(name) for name in corpus.names()}
MOD2_DIAGRAMS.update({f"{side} T(2,{n})": d
                      for n in (5, 7)
                      for side, d in (("left", torus(n)),
                                      ("right", mirror(torus(n))))})
MOD2_DIAGRAMS["T(3,4)"] = positive_braid_closure([0, 1] * 4)


@pytest.mark.parametrize("name", MOD2_DIAGRAMS)
def test_even_and_odd_agree_mod_2(name):
    # Ozsvath-Rasmussen-Szabo (arXiv:0710.4300): even and odd unreduced
    # homology agree over Z/2
    d = MOD2_DIAGRAMS[name]
    assert (_mod2(homology(build_unreduced(d, EVEN)))
            == _mod2(homology(build_unreduced(d, ODD))))


@pytest.mark.parametrize("name", MOD2_DIAGRAMS)
def test_even_unreduced_is_two_copies_of_reduced_mod_2(name):
    # Shumakovitch (math/0405474): over Z/2, even unreduced homology is
    # reduced homology at q - 1 plus a copy at q + 1
    d = MOD2_DIAGRAMS[name]
    doubled: dict = {}
    for (h, q), n in _mod2(homology(build_reduced(d, EVEN))).items():
        for hq in ((h, q - 1), (h, q + 1)):
            doubled[hq] = doubled.get(hq, 0) + n
    assert _mod2(homology(build_unreduced(d, EVEN))) == doubled


def test_torus_3_4_odd_tables():
    # the first non-alternating knot in the tests, and the first with
    # odd torsion; pinned from this program once both mod-2 identities
    # above held on it
    d = MOD2_DIAGRAMS["T(3,4)"]
    odd = homology(build_unreduced(d, ODD))
    assert {hq: t for hq, (_, t) in odd.entries.items() if t} == {
        (4, 11): (2,), (4, 13): (2,), (5, 13): (3,), (5, 15): (3,)}
    assert [sum(b for b, _ in homology(build_reduced(d, p)).entries.values())
            for p in (ODD, EVEN)] == [3, 5]


def test_even_unreduced_is_not_two_copies_of_reduced():
    # the splitting needs x*y = -1: the even trefoil has a Z/2 that no
    # shifted pair of reduced (free) groups gives
    d = corpus.get("trefoil")
    assert (_doubled(homology(build_reduced(d, EVEN)))
            != homology(build_unreduced(d, EVEN)).entries)


@pytest.mark.parametrize("name", ["kink", "hopf", "trefoil"])
def test_commuting_squares(name):
    assert check_commuting_square(corpus.get(name)) == []


def test_commuting_square_catches_a_wrong_map(monkeypatch):
    # negate the map of one local picture: every edge with it, and only
    # those, then breaks the square for some word
    d = corpus.get("trefoil")
    wrong = ("merge", 2, 0, 1)
    right = lattice.edge_map

    def negated(sig, p):
        emap = right(sig, p)
        if sig != wrong:
            return emap
        return [tuple((r, -v) for r, v in images) for images in emap]

    monkeypatch.setattr(lattice, "edge_map", negated)
    found = check_commuting_square(d)
    assert found
    cube = circle_labels(d)
    n = d.n
    for bits, i, w in found:
        assert len(bits) == n and set(bits) <= {0, 1} and not bits[i]
        mask = int("".join(map(str, bits)), 2)
        (at_I, kI), (at_J, _) = cube[mask], cube[mask | 1 << (n - 1 - i)]
        a, _, c, _ = d.crossings[i]
        assert ("merge", kI, *sorted((at_I[c], at_I[a]))) == wrong
        assert isinstance(w, tuple) and all(0 <= j < n for j in w)


# ------------------------------------------------- graph model of lattices

def test_graph_span_equals_lattice():
    for name in ("kink", "hopf", "trefoil", "figure8"):
        d = corpus.get(name)
        for labels, k in circle_labels(d):
            rep = check_graph_span(k, arrows(d, labels))
            assert rep["equal"], (name, labels, rep)


def test_enumerate_admissible_small_cases():
    k, arr = _vertex(KINK, 0)     # one circle, one loop arrow
    subs = enumerate_admissible(k, arr)
    # empty graph, the lone distinguished vertex, and the loop edge itself
    assert len(subs) == 3
    assert sorted(psi(g, k, arr) for g in subs) == [[0, 2], [0, 2], [1, 0]]
    # loop edge and distinguished vertex evaluate identically (kernel)
    rep = check_graph_span(k, arr)
    assert rep["equal"] and rep["kernel_rank"] == 1


def _is_admissible(arrows, edges, distinguished, loops):
    """The admissibility rule, tested one (edges, distinguished) pair at
    a time: every component is a tree with at most one distinguished
    vertex, a single cycle with none, or a lone distinguished vertex on
    a circle with a loop arrow."""
    ends = [arrows[i] for i in edges]
    comp = UnionFind({v for e in ends for v in e} | set(distinguished))
    for s, t in ends:
        comp.union(s, t)
    counts: dict = {}                  # root -> [vertices, edges, distinguished]
    for v in comp.parent:
        counts.setdefault(comp.find(v), [0, 0, 0])[0] += 1
    for s, _ in ends:
        counts[comp.find(s)][1] += 1
    for v in distinguished:
        counts[comp.find(v)][2] += 1
    for root, (size, n_edges, n_dist) in counts.items():
        if not n_edges:
            if root not in loops:
                return False
        elif (n_edges - size + 1, n_dist) not in ((0, 0), (0, 1), (1, 0)):
            return False
    return True


def _admissible_oracle(k, arrows):
    """Every (edges, distinguished) pair that passes `_is_admissible`, in
    ascending edge mask, then ascending distinguished-vertex mask."""
    loops = {s for s, t in arrows if s == t}
    out = []
    for emask in range(2 ** len(arrows)):
        edges = tuple(i for i in range(len(arrows)) if emask >> i & 1)
        for dmask in range(2 ** k):
            dist = tuple(v for v in range(k) if dmask >> v & 1)
            if _is_admissible(arrows, edges, dist, loops):
                out.append(AdmissibleSubgraph(edges, dist))
    return out


@pytest.mark.parametrize("name", [n for n in corpus.names()
                                  if corpus.get(n).n <= 6])
def test_enumerate_admissible_equals_oracle(name):
    d = corpus.get(name)
    for labels, k in circle_labels(d):
        arr = arrows(d, labels)
        assert (enumerate_admissible(k, arr)
                == _admissible_oracle(k, arr)), labels


def _dists(subs, edges):
    return [g.distinguished for g in subs if g.edges == edges]


def test_enumerate_admissible_cycle_rank_two():
    # three parallel arrows: any two are a cycle, all three have rank 2
    ends = [(0, 1), (0, 1), (1, 0)]
    subs = enumerate_admissible(2, ends)
    assert subs == _admissible_oracle(2, ends)
    assert _dists(subs, (0, 1)) == [()]
    assert _dists(subs, (0, 1, 2)) == []


def test_enumerate_admissible_loop_inside_a_tree():
    # the loop arrow at circle 1 turns the path 0 - 1 - 2 into rank 1
    ends = [(0, 1), (1, 1), (1, 2)]
    subs = enumerate_admissible(3, ends)
    assert subs == _admissible_oracle(3, ends)
    assert _dists(subs, (0, 2)) == [(), (0,), (1,), (2,)]
    assert _dists(subs, (0, 1)) == _dists(subs, (0, 1, 2)) == [()]
    assert _dists(subs, ()) == [(), (1,)]


def test_enumerate_admissible_isolated_circles():
    # circle 2 carries a loop arrow and circle 3 none
    ends = [(0, 1), (2, 2)]
    subs = enumerate_admissible(4, ends)
    assert subs == _admissible_oracle(4, ends)
    assert _dists(subs, ()) == [(), (2,)]
    assert _dists(subs, (0,)) == [(), (0,), (1,), (2,), (0, 2), (1, 2)]
    assert _dists(subs, (1,)) == [()]


def test_cycle_relations():
    checked = 0
    for name in ("hopf", "trefoil", "figure8"):
        d = corpus.get(name)
        for labels, k in circle_labels(d):
            arr = arrows(d, labels)
            for cyc in find_cycles(arr):
                rep = check_cycle_relations(k, arr, cyc)
                assert all(rep.values()), (name, labels, cyc, rep)
                checked += 1
    assert checked >= 10


# ------------------------------------------------ signed braid closures


def test_signed_braid_closures_are_planar_and_match_jones():
    signs = set()
    for word, d in random_signed_knots(20):
        assert d.n == len(word) and d.n_plus and d.n_minus, word
        assert d.signs == tuple(1 if g > 0 else -1 for g in word), word
        signs.update(d.signs)
        assert check_planarity(d), word
        target = jones(d)
        for p in (EVEN, ODD):
            assert euler_characteristic(build_unreduced(d, p)) == target, word
        assert CIRCLE * euler_characteristic(build_reduced(d)) == target, word
    assert signs == {1, -1}
