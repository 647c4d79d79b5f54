"""Resolutions, their arrows, and the hypercube bookkeeping."""

import gc

import pytest

from khoarrow import EVEN, ODD, corpus, homology, q_slices
from khoarrow.cube import check_planarity, resolutions
from khoarrow.diagram import mirror, parse_pd
from knots import positive_braid_closure, torus
import reference
from reference import khovanov_sign, vertices

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
HOPF = parse_pd("X[4,1,3,2] X[2,3,1,4]")


def test_trefoil_circle_counts():
    # k of every vertex, by mask: crossing i is bit 2 - i
    ks = [k for k, _ in resolutions(TREFOIL)]
    assert ks[0b000] == 3
    assert ks[0b100] == ks[0b010] == ks[0b001] == 2
    assert ks[0b110] == ks[0b101] == ks[0b011] == 1
    assert ks[0b111] == 2


def test_resolution_structure():
    k, arr = resolutions(HOPF)[0b00]
    assert k == 2
    assert len(arr) == 2
    for s, t in arr:
        assert 0 <= s < k and 0 <= t < k
    # every circle holds an arc, and each arc sits at a crossing, so every
    # circle is an arrow end; circle 0 holds the smallest arc, 1, which
    # is arc c of crossing 1 (X[2,3,1,4]), the source of its arrow
    assert {v for arrow in arr for v in arrow} == set(range(k))
    assert min(HOPF.arcs) == HOPF.crossings[1][2] == 1
    assert arr[1][0] == 0


REFERENCE_DIAGRAMS = {name: corpus.get(name) for name in corpus.names()}
REFERENCE_DIAGRAMS.update({f"mirror {name}": mirror(corpus.get(name))
                           for name in corpus.names()})
REFERENCE_DIAGRAMS.update({f"T(2,{n})": torus(n) for n in range(3, 10)})
REFERENCE_DIAGRAMS.update({
    f"braid {word}": positive_braid_closure(word)
    for word in ((0, 1) * 4, (0, 1) * 5, (0, 1, 2) * 3, (0, 1) * 5 + (0, 0))})


@pytest.mark.parametrize("name", REFERENCE_DIAGRAMS)
def test_resolve_equals_union_find_reference(name):
    # the circle count and arrows of every vertex of the whole-cube walk
    # agree with the union-find of reference.resolve
    d = REFERENCE_DIAGRAMS[name]
    cube = resolutions(d)
    assert len(cube) == 2 ** d.n
    for vertex, bits in zip(cube, vertices(d.n)):
        r = reference.resolve(d, bits)
        assert vertex == (r.k, r.arrows), bits


def test_free_loops_become_empty_circles():
    # a free loop holds no arc but counts as a circle
    assert resolutions(parse_pd("")) == [(1, ())]


def test_khovanov_sign():
    assert khovanov_sign((0, 0, 0), 0) == 1
    assert khovanov_sign((1, 0, 0), 1) == -1
    assert khovanov_sign((1, 1, 0), 2) == 1
    with pytest.raises(ValueError):
        khovanov_sign((1, 0), 0)


def _edges(d):
    """(I mask, J mask, crossing) for every cube edge I -> J of `d`,
    crossing i being bit n - 1 - i of a mask."""
    n = d.n
    return [(m, m | 1 << (n - 1 - i), i) for m in range(2 ** n)
            for i in range(n) if not m >> (n - 1 - i) & 1]


def test_cube_edge_and_face_counts():
    n = TREFOIL.n
    edges = _edges(TREFOIL)
    assert len(edges) == n * 2 ** (n - 1)
    # an arrow joins two circles (a merge) or one circle to itself (a split)
    cube = resolutions(TREFOIL)
    ends = [cube[m][1][i] for m, _, i in edges]
    assert {s == t for s, t in ends} == {False, True}


def test_edge_kind_matches_circle_count_change():
    # arrow i of D(I) joins two circles exactly when the edge at i merges
    for d in (TREFOIL, HOPF):
        cube = resolutions(d)
        for frm, to, i in _edges(d):
            s, t = cube[frm][1][i]
            dk = cube[to][0] - cube[frm][0]
            assert dk == (-1 if s != t else 1)


def test_check_planarity():
    assert check_planarity(TREFOIL)
    assert check_planarity(HOPF)


def test_a_build_leaves_no_cyclic_garbage():
    # the recursive walk of resolutions refers to itself through its
    # closure cell: unless that cycle is broken, every build leaves the
    # walk and what it holds to the cyclic collector
    d = torus(7)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        resolutions(d)
        homology(q_slices(d, ODD))
        homology(q_slices(d, EVEN, reduced=True))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
