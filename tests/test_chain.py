"""The unreduced bigraded complex: d^2, gradings, Euler characteristic,
edge maps against a dense oracle, and the sign solve."""

from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest

import dense
import reference
from khoarrow import chain, cli, corpus
from khoarrow.algebra import EVEN, ODD, RingParams
from khoarrow.chain import (BigradedComplex, FaceNotProportional,
                            NotAComplex, build_unreduced, edge_map,
                            solve_signs)
from khoarrow.diagram import NonPlanarInconsistency, mirror, parse_gauss
from khoarrow.homology import homology
from khoarrow.jones import euler_characteristic, jones
from khoarrow.reduced import build_reduced
from knots import positive_braid_closure, random_signed_knots, torus
from reference import edge_signature, khovanov_sign, resolve, vertices

PRESETS = [EVEN, ODD, RingParams(-1, 1, 1), RingParams(-1, -1, -1)]
ALL_PRESETS = [RingParams(*xyz) for xyz in product((1, -1), repeat=3)]
NAMES = ["unknot", "kink", "hopf", "trefoil", "figure8"]


# ----------------------------------------------- dense edge-map oracle

def _bubble(p, k, src, dst):
    """Move the factor at position `src` to `dst` (0-based) by adjacent swaps."""
    mat = np.eye(2 ** k, dtype=np.int64)
    if src < dst:
        for j in range(src, dst):
            mat = dense.adjacent_swap(p, k, j + 1) @ mat
    else:
        for j in range(src - 1, dst - 1, -1):
            mat = dense.adjacent_swap(p, k, j + 1) @ mat
    return mat


def _reach_twist(k, positions, t1, tx):
    """Diagonal matrix scaling each basis tensor by prod over `positions`
    of t1 (factor = 1) or tx (factor = x)."""
    diag = np.ones(2 ** k, dtype=np.int64)
    for idx in range(2 ** k):
        for j in positions:
            diag[idx] *= tx if (idx >> (k - 1 - j)) & 1 else t1
    return np.diag(diag)


def dense_edge_map(rI, rJ, i, p):
    """The edge map of `edge_map` as a 2^k(J) x 2^k(I) matrix, built from
    the dense structure maps of ``dense`` with Kronecker products."""
    kI = rI.k
    arr = rI.arrows[i]
    if arr[0] != arr[1]:
        ps, pt = sorted(arr)
        pre = _bubble(p, kI, pt, ps + 1)
        m_op = np.kron(
            np.kron(np.eye(2 ** ps, dtype=np.int64), dense.mul(p)),
            np.eye(2 ** (kI - ps - 2), dtype=np.int64))
        return m_op @ pre @ _reach_twist(kI, range(ps), p.x, p.z)
    pu = arr[0]
    d_op = np.kron(
        np.kron(np.eye(2 ** pu, dtype=np.int64), dense.comul(p)),
        np.eye(2 ** (kI - pu - 1), dtype=np.int64))
    circle_of = {a: c for c, circ in enumerate(rJ.circles) for a in circ}
    d_min = circle_of[rI.circles[pu][0]]
    daughters = {circle_of[a] for a in rI.circles[pu]}
    d_other = (daughters - {d_min}).pop()
    post = _bubble(p, kI + 1, pu + 1, d_other)
    return post @ d_op @ _reach_twist(kI, range(pu), p.z, p.y)


def _dense(sparse, rows):
    """A sparse edge map as a dense matrix with `rows` rows."""
    mat = np.zeros((rows, len(sparse)), dtype=np.int64)
    for c, images in enumerate(sparse):
        for r, v in images:
            mat[r, c] = v
    return mat


def _edges(d):
    """(resolution, target resolution, crossing) for every cube edge."""
    res = {bits: resolve(d, bits) for bits in vertices(d.n)}
    for bits in vertices(d.n):
        for i in range(d.n):
            if not bits[i]:
                yield res[bits], res[bits[:i] + (1,) + bits[i + 1:]], i


def _reversed_arrows(r):
    """`r` with every arrow pointing the other way."""
    return replace(r, arrows=tuple((t, s) for s, t in r.arrows))


def _edge(bits, i):
    """The number solve_signs gives cube edge (bits, i): mask * n + i,
    crossing j being bit n - 1 - j of the mask."""
    return int("".join(map(str, bits)) or "0", 2) * len(bits) + i


def _cube_faces(d):
    """All 2-faces (I, i, j) with i < j and I_i = I_j = 0."""
    return [(bits, i, j) for bits in vertices(d.n)
            for i, j in combinations(range(d.n), 2)
            if bits[i] == 0 and bits[j] == 0]


def _maps(d, p, reverse=False):
    """A fresh edge map for every cube edge of `d`, none shared, at its
    edge number; with `reverse`, made from resolutions whose every arrow
    points the other way."""
    maps = [None] * (d.n << d.n)
    for rI, rJ, i in _edges(d):
        if reverse:
            rI, rJ = _reversed_arrows(rI), _reversed_arrows(rJ)
        maps[_edge(rI.index, i)] = edge_map(edge_signature(rI, rJ, i), p)
    return maps


def _signs(d, p):
    """solve_signs on the edge maps of every cube edge of `d`."""
    return solve_signs(_maps(d, p), d.n)


def _built_maps(d, p):
    """The edge maps build_unreduced hands to solve_signs, shared ones
    still shared."""
    seen = []

    def spy(maps, n):
        seen.append(maps)
        return solve_signs(maps, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "solve_signs", spy)
        build_unreduced(d, p)
    return seen[0]


def _up(bits, i):
    return bits[:i] + (1,) + bits[i + 1:]


def _double_one_coefficient(maps, bits, j, i):
    """Replace the map of edge (bits, j) by a copy with one coefficient
    doubled, in a column whose image the next edge (bits + e_j, i) does
    not kill, so that the composite along j then i is no +-1 multiple
    of the one along i then j."""
    first, second = maps[_edge(bits, j)], maps[_edge(_up(bits, j), i)]
    for c, images in enumerate(first):
        for k, (r, v) in enumerate(images):
            if second[r]:
                col = images[:k] + ((r, 2 * v),) + images[k + 1:]
                maps[_edge(bits, j)] = first[:c] + [col] + first[c + 1:]
                return
    raise AssertionError(f"face {bits} ({j},{i}) has a vanishing composite")


@pytest.mark.parametrize("p", PRESETS)
@pytest.mark.parametrize("name", NAMES)
def test_d_squared_and_q_preserved(name, p):
    build_unreduced(corpus.get(name), p).check()


@pytest.mark.parametrize("name", NAMES)
def test_euler_characteristic_is_jones(name):
    d = corpus.get(name)
    for p in PRESETS:
        assert euler_characteristic(build_unreduced(d, p)) == jones(d)


def test_unknot_complex():
    c = build_unreduced(corpus.get("unknot"), EVEN)
    assert c.groups == {0: [1, -1]}
    assert c.boundaries == {}


def test_homological_range_and_group_sizes():
    d = corpus.get("trefoil")        # n- = 3, so h runs -3..0
    c = build_unreduced(d, EVEN)
    assert c.degrees() == [-3, -2, -1, 0]
    assert len(c.groups[-3]) == 2 ** 3
    assert len(c.groups[-2]) == 3 * 2 ** 2
    assert len(c.groups[0]) == 2 ** 2
    for h in (-3, -2, -1):
        assert len(c.boundaries[h]) == len(c.groups[h])
        assert all(0 <= r < len(c.groups[h + 1])
                   for col in c.boundaries[h] for r in col)


def test_edge_map_shapes_and_grading():
    d = corpus.get("hopf")
    r00 = resolve(d, (0, 0))
    r10 = resolve(d, (1, 0))
    m = edge_map(edge_signature(r00, r10, 0), EVEN)
    assert len(m) == 2 ** r00.k
    assert any(m)
    # one column per source tensor, each image at most two tensors of one
    # degree below: q = deg + |I| is preserved
    for idx, images in enumerate(m):
        assert len(images) <= 2
        for r, v in images:
            assert 0 <= r < 2 ** r10.k and v in (1, -1)
            assert (dense.basis_degree(r10.k, r)
                    == dense.basis_degree(r00.k, idx) + 1)


def test_even_kink_edge_is_plain_structure_map():
    # at the even preset an edge with no spectators is Khovanov's m or delta
    from dense import comul, mul
    from khoarrow.diagram import parse_pd
    d = parse_pd("X[1,2,2,1]")       # one kink
    r0, r1 = resolve(d, (0,)), resolve(d, (1,))
    m = _dense(edge_map(edge_signature(r0, r1, 0), EVEN), 2 ** r1.k)
    expected = mul(EVEN) if r0.k > r1.k else comul(EVEN)
    assert abs(m).tolist() == abs(expected).tolist()


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("name", corpus.names())
def test_sparse_edge_maps_equal_dense_oracle(name, reverse):
    # no edge map reads arrow direction: with every arrow of both
    # resolutions reversed, the map still equals the oracle's
    for rI, rJ, i in _edges(corpus.get(name)):
        fI, fJ = map(_reversed_arrows, (rI, rJ)) if reverse else (rI, rJ)
        for p in ALL_PRESETS:
            sparse = edge_map(edge_signature(fI, fJ, i), p)
            assert all([r for r, _ in images] == sorted(r for r, _ in images)
                       for images in sparse)
            assert np.array_equal(_dense(sparse, 2 ** rJ.k),
                                  dense_edge_map(rI, rJ, i, p)), (rI.index, i, p)


@pytest.mark.parametrize("d", [corpus.get(name) for name in corpus.names()]
                         + [torus(7)])
def test_even_signs_are_khovanov_signs(d):
    signs = _signs(d, EVEN)
    edges = [(bits, i) for bits in vertices(d.n) for i in range(d.n)
             if not bits[i]]
    # every other number is no edge and reads 0
    assert (sum(s != 0 for s in signs) == len(edges)
            == d.n * 2 ** max(d.n - 1, 0))
    assert all(signs[_edge(bits, i)] == khovanov_sign(bits, i)
               for bits, i in edges)


@pytest.mark.parametrize("p", ALL_PRESETS)
@pytest.mark.parametrize("name", ["figure8_r2", "figure8_r3"])
def test_signed_faces_anticommute(name, p):
    # some faces here have two vanishing composites and constrain nothing,
    # so some edges are fixed by no face; at x*y = -1, giving those edges
    # their Khovanov sign instead of solving for them leaves no solution
    d = corpus.get(name)
    res = {bits: resolve(d, bits) for bits in vertices(d.n)}
    signs = _signs(d, p)

    def signed(bits, i):
        to = bits[:i] + (1,) + bits[i + 1:]
        return signs[_edge(bits, i)] * dense_edge_map(res[bits], res[to], i, p)

    for bits, i, j in _cube_faces(d):
        bi = bits[:i] + (1,) + bits[i + 1:]
        bj = bits[:j] + (1,) + bits[j + 1:]
        total = (signed(bi, j) @ signed(bits, i)
                 + signed(bj, i) @ signed(bits, j))
        assert not total.any(), (bits, i, j)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("name", corpus.names())
def test_shared_edge_maps_are_exact(name, reverse):
    # the build reads no arrow: its maps are also those of resolutions
    # with every arrow reversed
    d = corpus.get(name)
    for p in ALL_PRESETS:
        shared = _built_maps(d, p)
        assert shared == _maps(d, p, reverse), p
        # one list object per edge: no two faces have the same four maps
        unshared = [m if m is None else list(m) for m in shared]
        assert solve_signs(shared, d.n) == solve_signs(unshared, d.n), p


@pytest.mark.parametrize("d, p, edges, distinct_maps, faces, distinct_faces", [
    (torus(7), EVEN, 448, 27, 672, 87),
    # 14 of its distinct faces have two vanishing composites, lambda = 0
    (positive_braid_closure([0, 1] * 4), ODD, 1024, 34, 1792, 194),
])
def test_build_makes_each_distinct_map_and_face_once(
        monkeypatch, d, p, edges, distinct_maps, faces, distinct_faces):
    calls = {"edge_map": 0, "_compose": 0}
    for name in calls:
        def counted(*args, _fn=getattr(chain, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(chain, name, counted)
    maps = [m for m in _built_maps(d, p) if m is not None]
    assert len(maps) == edges
    assert len({id(m) for m in maps}) == distinct_maps
    assert len(_cube_faces(d)) == faces
    # each distinct face is composed along both of its paths
    assert calls == {"edge_map": distinct_maps, "_compose": 2 * distinct_faces}


def _columns(c):
    """Every column of `c` as its (row, entry) items, in their order."""
    return {h: [list(col.items()) for col in cols]
            for h, cols in c.boundaries.items()}


def _assert_builds_equal(d, p, reduced):
    build = build_reduced if reduced else build_unreduced
    c = build(d, p)
    ref = reference.resolution_build(d, p, reduced)
    assert c.groups == ref.groups
    assert _columns(c) == _columns(ref)


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("name", corpus.names())
def test_mask_build_equals_resolution_build_on_the_corpus(name, reduced):
    for d in (corpus.get(name), mirror(corpus.get(name))):
        for p in cli.PRESETS:
            _assert_builds_equal(d, p, reduced)


@pytest.mark.parametrize("n", range(3, 10))
def test_mask_build_equals_resolution_build_on_torus_diagrams(n):
    for d in (torus(n), mirror(torus(n))):
        _assert_builds_equal(d, ODD, False)
        _assert_builds_equal(d, EVEN, True)


def test_mask_build_equals_resolution_build_on_signed_braids():
    for _, d in random_signed_knots(20):
        for p in (EVEN, ODD):
            _assert_builds_equal(d, p, False)
            _assert_builds_equal(d, p, True)


def test_builds_reject_a_virtual_code():
    # a crossing of this code leaves one circle where it should split one
    d = parse_gauss("O1-O2-U1-U2-")
    for build in (build_unreduced, build_reduced):
        with pytest.raises(NonPlanarInconsistency, match="not planar"):
            build(d, EVEN)


def test_corrupted_coefficient_is_not_proportional():
    d = corpus.get("trefoil")
    maps = _maps(d, EVEN)
    bits, j, i = _cube_faces(d)[0]
    _double_one_coefficient(maps, bits, j, i)
    with pytest.raises(FaceNotProportional, match="not \\+-proportional"):
        solve_signs(maps, d.n)


def test_emptied_image_leaves_one_composite_vanishing():
    # on this face only the all-1 tensor composes to nonzero along j
    # then i, so emptying its image kills that composite alone; the face
    # is the first one the sign solve checks with the emptied edge on it
    d = corpus.get("figure8_r2")
    maps = _maps(d, EVEN)
    bits, j, i = (0, 0, 0, 1, 0, 0), 0, 1
    first = maps[_edge(bits, j)]
    composite = chain._compose(maps[_edge(_up(bits, j), i)], first)
    assert composite[0] and not any(composite[1:])
    maps[_edge(bits, j)] = [()] + first[1:]
    with pytest.raises(FaceNotProportional,
                       match="exactly one composite vanishes"):
        solve_signs(maps, d.n)


def test_face_memo_does_not_hide_a_corrupted_copy_of_a_shared_map():
    d = corpus.get("trefoil")
    maps = _built_maps(d, EVEN)
    quads = {}
    for bits, j, i in _cube_faces(d):
        bj, bi = _up(bits, j), _up(bits, i)
        quad = (maps[_edge(bj, i)], maps[_edge(bits, j)],
                maps[_edge(bi, j)], maps[_edge(bits, i)])
        quads.setdefault(tuple(map(id, quad)), []).append((bits, j, i))
    # a face whose four maps repeat those of an earlier face
    faces = max(quads.values(), key=len)
    assert len(faces) > 1
    bits, j, i = faces[-1]
    original = maps[_edge(bits, j)]
    assert sum(m is original for m in maps) > 1
    _double_one_coefficient(maps, bits, j, i)
    with pytest.raises(FaceNotProportional):
        solve_signs(maps, d.n)


def test_bigraded_complex_checks_catch_errors():
    bad = BigradedComplex(
        groups={0: [0, 0], 1: [0, 0]},
        boundaries={0: [{0: 1}, {1: 1}], 1: [{0: 1}, {1: 1}]})
    # identity followed by identity is not a differential
    with pytest.raises(NotAComplex, match=r"d_1 d_0 is not zero"):
        bad.check()
    bad_q = BigradedComplex(
        groups={0: [0], 1: [5]},
        boundaries={0: [{0: 1}]})
    with pytest.raises(NotAComplex, match=r"d_0: row 0 .* q = 0"):
        bad_q.check()
    # a row past degree h + 1 is no generator: rejected, not an IndexError
    bad_row = BigradedComplex(
        groups={0: [1], 1: [1]},
        boundaries={0: [{5: 1}]})
    with pytest.raises(NotAComplex, match=r"d_0: row 5 "):
        bad_row.check()
    with pytest.raises(NotAComplex):
        homology(bad_row)
    # a negative row, which a list index would read from the end
    bad_neg = BigradedComplex(
        groups={0: [1], 1: [1]},
        boundaries={0: [{-1: 1}]})
    with pytest.raises(NotAComplex, match=r"d_0: row -1 "):
        bad_neg.check()
    # a column past the generators of degree h, likewise
    bad_col = BigradedComplex(
        groups={0: [1], 1: [1]},
        boundaries={0: [{0: 1}, {0: 1}]})
    with pytest.raises(NotAComplex, match=r"d_0 has 2 columns for 1"):
        bad_col.check()
    # d_1 d_0 = 0, but d_2 d_1 is not: the defect sits past degree 0
    bad_late = BigradedComplex(
        groups={0: [0], 1: [0, 0], 2: [0, 0], 3: [0]},
        boundaries={0: [{0: 1}], 1: [{}, {0: 1}], 2: [{0: 1}, {}]})
    with pytest.raises(NotAComplex, match=r"d_2 d_1 is not zero"):
        bad_late.check()


@pytest.mark.parametrize("boundaries", [
    {0: [{0: 1}, {1: 1}], 1: [{0: 1}]},          # d_1: one column for two
    {0: [{0: 1}, {2: 1}], 1: [{0: 1}, {0: 1}]},  # d_0: row 2 of two
])
def test_d_squared_rejects_boundaries_that_do_not_compose(boundaries):
    c = BigradedComplex(groups={0: [0, 0], 1: [0, 0], 2: [0]},
                        boundaries=boundaries)
    with pytest.raises(NotAComplex):
        c.check()


def test_d_squared_is_exact_beyond_int64():
    # d^2 = 2^64 would wrap to 0 in int64 arithmetic
    c = BigradedComplex(
        groups={0: [0], 1: [0], 2: [0]},
        boundaries={0: [{0: 2 ** 32}], 1: [{0: 2 ** 32}]})
    with pytest.raises(NotAComplex, match=r"d_1 d_0 is not zero"):
        c.check()
