"""Resolutions, arrows, and the hypercube bookkeeping."""

import pytest

from khoarrow import corpus
from khoarrow.cube import (check_planarity, count_circles, khovanov_sign,
                           resolve, vertices)
from khoarrow.diagram import mirror, parse_pd
from knots import positive_braid_closure, torus
import reference

TREFOIL = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
HOPF = parse_pd("X[4,1,3,2] X[2,3,1,4]")


def test_trefoil_circle_counts():
    ks = {bits: resolve(TREFOIL, bits).k
          for bits in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                       (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)]}
    assert ks[(0, 0, 0)] == 3
    assert ks[(1, 0, 0)] == ks[(0, 1, 0)] == ks[(0, 0, 1)] == 2
    assert ks[(1, 1, 0)] == ks[(1, 0, 1)] == ks[(0, 1, 1)] == 1
    assert ks[(1, 1, 1)] == 2


def test_count_circles_matches_resolve():
    for m in range(8):
        bits = tuple((m >> (2 - j)) & 1 for j in range(3))
        assert count_circles(TREFOIL, bits) == resolve(TREFOIL, bits).k


def test_resolution_structure():
    r = resolve(HOPF, (0, 0))
    assert r.k == 2
    assert len(r.arrows) == 2
    for arr in r.arrows:
        assert 0 <= arr.source < r.k and 0 <= arr.target < r.k
    # every arc belongs to exactly one circle
    arcs = [a for circ in r.circles for a in circ]
    assert sorted(arcs) == list(HOPF.arcs)
    assert r.circle_of(r.circles[0][0]) == 0
    with pytest.raises(KeyError):
        r.circle_of(999)


REFERENCE_DIAGRAMS = {name: corpus.get(name) for name in corpus.names()}
REFERENCE_DIAGRAMS.update({f"mirror {name}": mirror(corpus.get(name))
                           for name in corpus.names()})
REFERENCE_DIAGRAMS.update({f"T(2,{n})": torus(n) for n in range(3, 10)})
REFERENCE_DIAGRAMS.update({
    f"braid {word}": positive_braid_closure(word)
    for word in ((0, 1) * 4, (0, 1) * 5, (0, 1, 2) * 3, (0, 1) * 5 + (0, 0))})


@pytest.mark.parametrize("name", REFERENCE_DIAGRAMS)
def test_resolve_equals_union_find_reference(name):
    d = REFERENCE_DIAGRAMS[name]
    unknown = max(d.arcs, default=0) + 1
    for bits in vertices(d.n):
        r = resolve(d, bits)
        assert r == reference.resolve(d, bits), bits
        assert count_circles(d, bits) == r.k, bits
        assert all(r.circle_of(a) == c
                   for c, circ in enumerate(r.circles) for a in circ), bits
        with pytest.raises(KeyError):
            r.circle_of(unknown)


def test_free_loops_become_empty_circles():
    d = parse_pd("")
    r = resolve(d, ())
    assert r.circles == ((),)
    assert r.k == 1


def test_resolve_validates_bits():
    with pytest.raises(ValueError):
        resolve(HOPF, (0,))
    with pytest.raises(ValueError):
        resolve(HOPF, (0, 2))


@pytest.mark.parametrize("bits", [(0,), (2, 0, 0), (0, 0, 0, 1)])
def test_count_circles_validates_bits_like_resolve(bits):
    # too short, not a bit, too long: neither counts circles of such a vertex
    for fn in (resolve, count_circles):
        with pytest.raises(ValueError, match="bad resolution index"):
            fn(TREFOIL, bits)


def test_khovanov_sign():
    assert khovanov_sign((0, 0, 0), 0) == 1
    assert khovanov_sign((1, 0, 0), 1) == -1
    assert khovanov_sign((1, 1, 0), 2) == 1
    with pytest.raises(ValueError):
        khovanov_sign((1, 0), 0)


def _edges(d):
    """(I bits, J bits, crossing) for every cube edge I -> J of `d`."""
    return [(bits, bits[:i] + (1,) + bits[i + 1:], i)
            for bits in vertices(d.n) for i in range(d.n) if not bits[i]]


def test_cube_edge_and_face_counts():
    n = TREFOIL.n
    edges = _edges(TREFOIL)
    assert len(edges) == n * 2 ** (n - 1)
    # an arrow joins two circles (a merge) or one circle to itself (a split)
    arrows = [resolve(TREFOIL, bits).arrows[i] for bits, _, i in edges]
    assert {a.source == a.target for a in arrows} == {False, True}


def test_edge_kind_matches_circle_count_change():
    # arrow i of D(I) joins two circles exactly when the edge at i merges
    for d in (TREFOIL, HOPF):
        for frm, to, i in _edges(d):
            arr = resolve(d, frm).arrows[i]
            dk = count_circles(d, to) - count_circles(d, frm)
            assert dk == (-1 if arr.source != arr.target else 1)


def test_check_planarity():
    assert check_planarity(TREFOIL)
    assert check_planarity(HOPF)
