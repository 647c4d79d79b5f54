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
from khoarrow.chain import (NotAComplex, check_slice, edge_map, q_slices,
                            solve_signs)
from khoarrow.diagram import NonPlanarInconsistency, mirror, parse_gauss
from khoarrow.homology import homology
from khoarrow.jones import euler_characteristic, jones
from knots import positive_braid_closure, random_signed_knots, torus
from reference import (check_all, edge_signature, generator_counts,
                       graded_edge_map, khovanov_sign, listed, resolve,
                       slices_of, vertices)

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
    """The edge maps a build hands to solve_signs, shared ones still
    shared."""
    seen = []

    def spy(maps, n):
        seen.append(maps)
        return solve_signs(maps, n)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(chain, "solve_signs", spy)
        next(q_slices(d, p))
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
    check_all(q_slices(corpus.get(name), p))


@pytest.mark.parametrize("name", NAMES)
def test_euler_characteristic_is_jones(name):
    d = corpus.get(name)
    for p in PRESETS:
        chi = euler_characteristic(generator_counts(q_slices(d, p)))
        assert chi == jones(d)


def test_unknot_complex():
    # one generator at each of q = -1 and q = 1; no boundary
    assert list(q_slices(corpus.get("unknot"), EVEN)) == [
        (-1, {0: 1}, {}), (1, {0: 1}, {})]
    # basis index 1, x, is at q = -1 and index 0, 1, at q = 1: each the
    # first position of the one vertex, mask 0, which has no edge
    assembly = chain._Assembly(corpus.get("unknot"), EVEN, False)
    assert assembly.by_q == {-1: {0: [(0, {1: 0}, [])]},
                             1: {0: [(0, {0: 0}, [])]}}


def test_homological_range_and_group_sizes():
    d = corpus.get("trefoil")        # n- = 3, so h runs -3..0
    slices = list(q_slices(d, EVEN))
    sizes = {}
    for _, counts, _ in slices:
        for h, count in counts.items():
            assert count > 0
            sizes[h] = sizes.get(h, 0) + count
    assert sorted(sizes) == [-3, -2, -1, 0]
    assert sizes[-3] == 2 ** 3
    assert sizes[-2] == 3 * 2 ** 2
    assert sizes[0] == 2 ** 2
    for _, counts, cols in slices:
        assert sorted(cols) == [h for h in sorted(counts) if h < 0]
        assert list(counts) == sorted(counts)
        # rows are slice ids: those of degree h + 1 follow every id of
        # the slice's lower degrees
        first, start = {}, 0
        for h, count in counts.items():
            first[h], start = start, start + count
        for h, hcols in cols.items():
            assert len(hcols) == counts[h]
            lo = first.get(h + 1, 0)
            hi = lo + counts.get(h + 1, 0)
            assert all(lo <= r < hi for col in hcols for r in col)


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


@pytest.mark.parametrize("k", range(1, 9))
def test_mask_edge_maps_equal_the_graded_reference(k):
    # every merge and split of k circles: rows, their order and every
    # coefficient, at all eight sign patterns
    sigs = [("merge", k, s, t) for s, t in combinations(range(k), 2)]
    sigs += [("split", k, u, d) for u in range(k) for d in range(u + 1, k + 1)]
    for sig in sigs:
        for p in ALL_PRESETS:
            assert edge_map(sig, p) == graded_edge_map(sig, p), (sig, p)


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


def _paths(maps, bits, j, i):
    """The ids of the (second, first) maps of the two paths round the
    face at `bits` spanned by j < i: along j then i, and along i then j."""
    return ((id(maps[_edge(_up(bits, j), i)]), id(maps[_edge(bits, j)])),
            (id(maps[_edge(_up(bits, i), j)]), id(maps[_edge(bits, i)])))


@pytest.mark.parametrize(
    "d, p, edges, distinct_maps, faces, distinct_faces, composites", [
        (torus(7), EVEN, 448, 27, 672, 87, 108),
        # 14 of its distinct faces have two vanishing composites
        (positive_braid_closure([0, 1] * 4), ODD, 1024, 34, 1792, 194, 187),
    ])
def test_build_makes_each_distinct_map_and_face_once(
        monkeypatch, d, p, edges, distinct_maps, faces, distinct_faces,
        composites):
    calls = {"edge_map": 0, "_compose": 0}
    for name in calls:
        def counted(*args, _fn=getattr(chain, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(chain, name, counted)
    full = _built_maps(d, p)
    maps = [m for m in full if m is not None]
    assert len(maps) == edges
    assert len({id(m) for m in maps}) == distinct_maps
    assert len(_cube_faces(d)) == faces
    paths = [_paths(full, *face) for face in _cube_faces(d)]
    assert len(set(paths)) == distinct_faces
    # a composite of two map objects is made once, also when faces with
    # other maps share it: fewer than the two paths of each distinct face
    assert len({path for pair in paths for path in pair}) == composites
    assert calls == {"edge_map": distinct_maps, "_compose": composites}


def _assert_builds_equal(d, p, reduced):
    # every slice's counts and every column, rows in their order
    ref = reference.resolution_build(d, p, reduced)
    assert listed(q_slices(d, p, reduced)) == listed(slices_of(*ref))


@pytest.mark.parametrize("reduced", [False, True])
@pytest.mark.parametrize("name", corpus.names())
def test_mask_build_equals_resolution_build_on_the_corpus(name, reduced):
    for d in (corpus.get(name), mirror(corpus.get(name))):
        for p in ALL_PRESETS:
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
    for reduced in (False, True):
        with pytest.raises(NonPlanarInconsistency, match="not planar"):
            next(q_slices(d, EVEN, reduced))


def test_corrupted_coefficient_is_not_proportional():
    d = corpus.get("trefoil")
    maps = _maps(d, EVEN)
    bits, j, i = _cube_faces(d)[0]
    _double_one_coefficient(maps, bits, j, i)
    with pytest.raises(NotAComplex, match="not \\+-proportional"):
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
    with pytest.raises(NotAComplex, match="exactly one composite vanishes"):
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
    with pytest.raises(NotAComplex, match="not \\+-proportional"):
        solve_signs(maps, d.n)


def test_doubled_coefficient_on_a_face_of_lambda_minus_one_is_caught():
    # the odd face 011000 (0, 3) has composites that are negatives of
    # each other, and it is the first face the sign solve checks with
    # the copy of edge (011000, 0) on it; the doubled coefficient makes
    # it neither +1 nor -1 times the other
    d = corpus.get("figure8_r2")
    maps = _built_maps(d, ODD)
    bits, j, i = (0, 1, 1, 0, 0, 0), 0, 3
    via_j, via_i = ([maps[_edge(_up(bits, a), b)], maps[_edge(bits, a)]]
                    for a, b in ((j, i), (i, j)))
    assert chain._proportion(chain._compose(*via_j), chain._compose(*via_i),
                             "") == -1
    _double_one_coefficient(maps, bits, j, i)
    with pytest.raises(NotAComplex,
                       match=r"^face 011000 \(0,3\): composites not "
                             r"\+-proportional$"):
        solve_signs(maps, d.n)


def test_composite_memo_does_not_hide_a_corrupted_copy_of_a_shared_map():
    # the last face, in the order the sign solve walks them, that shares
    # exactly one of its two composites with an earlier face: a changed
    # copy of the first map of that composite is a new object, so the
    # shared composite is made again from it
    d = corpus.get("figure8")
    maps = _built_maps(d, ODD)
    walk = sorted(_cube_faces(d), key=lambda face: (
        face[2], sum(face[0]) + 1, _up(face[0], face[1]), face[1]))
    composites, faces, found = set(), set(), None
    for bits, j, i in walk:
        paths = _paths(maps, bits, j, i)
        shared = [path in composites for path in paths]
        if shared.count(True) == 1 and paths not in faces:
            found = bits, j, i, shared.index(True)
        composites.update(paths)
        faces.add(paths)
    bits, j, i, along_i = found
    first = maps[_edge(bits, i if along_i else j)]
    assert sum(m is first for m in maps) > 1
    _double_one_coefficient(maps, bits, *((i, j) if along_i else (j, i)))
    with pytest.raises(NotAComplex, match="not \\+-proportional"):
        solve_signs(maps, d.n)


def test_bigraded_complex_checks_catch_errors():
    # slices written by hand, rows as slice ids: the ids of degree h + 1
    # follow those of every lower degree.  Identity followed by identity
    # is not a differential
    bad = [(0, {0: 2, 1: 2, 2: 2},
            {0: [{2: 1}, {3: 1}], 1: [{4: 1}, {5: 1}]})]
    with pytest.raises(NotAComplex, match=r"d_1 d_0 is not zero"):
        check_all(bad)
    # an edge into another q is caught where the rows are translated:
    # the reference cut, like the package's writer, raises
    bad_q = slices_of(
        groups={0: [0], 1: [5]},
        boundaries={0: [{0: 1}]})
    with pytest.raises(NotAComplex, match=r"d_0: row 0 .* q = 0"):
        check_all(bad_q)
    # a row past degree h + 1 is no generator: rejected, not an IndexError
    bad_row = [(1, {0: 1, 1: 1}, {0: [{5: 1}]})]
    with pytest.raises(NotAComplex, match=r"d_0: row 5 "):
        check_all(bad_row)
    with pytest.raises(NotAComplex):
        homology(bad_row)
    # a row inside the slice but of degree h itself, not h + 1
    bad_low = [(1, {0: 1, 1: 1}, {0: [{0: 1}]})]
    with pytest.raises(NotAComplex, match=r"d_0: row 0 .* degree 1 "):
        check_all(bad_low)
    # a negative row, which a list index would read from the end
    bad_neg = [(1, {0: 1, 1: 1}, {0: [{-1: 1}]})]
    with pytest.raises(NotAComplex, match=r"d_0: row -1 "):
        check_all(bad_neg)
    # a column past the generators of degree h, likewise
    bad_col = [(1, {0: 1, 1: 1}, {0: [{1: 1}, {1: 1}]})]
    with pytest.raises(NotAComplex, match=r"d_0 has 2 columns for 1"):
        check_all(bad_col)
    # d_1 d_0 = 0, but d_2 d_1 is not: the defect sits past degree 0
    bad_late = [(0, {0: 1, 1: 2, 2: 2, 3: 1},
                 {0: [{1: 1}], 1: [{}, {3: 1}], 2: [{5: 1}, {}]})]
    with pytest.raises(NotAComplex, match=r"d_2 d_1 is not zero"):
        check_all(bad_late)


def test_writer_rejects_an_edge_into_another_q():
    # the trefoil's slice q = -7 has basis index 3 of each vertex of
    # size 1 (degree -2), at position 0 of its block; moving the first
    # of them, mask 001, to the slice q = -5 leaves the edge into it
    # from mask 000, degree -3, with no target in this slice, and
    # writing the slice raises where it looks the target up
    assembly = chain._Assembly(corpus.get("trefoil"), EVEN, False)
    assert assembly.slice(-7)[0] == {-3: 3, -2: 3}
    assert [v[:2] for v in assembly.by_q[-7][1]] == [
        (0b001, {3: 0}), (0b010, {3: 0}), (0b100, {3: 0})]
    moved = assembly.by_q[-7][1].pop(0)
    assembly.by_q[-5][1].append(moved)
    with pytest.raises(NotAComplex, match=r"^d_-3: index 3 of a target "
                                          r"block of a column of q = -7 "
                                          r"is no generator of degree -2 "
                                          r"and that q$"):
        assembly.slice(-7)


def _one_image_moved(sig, p):
    """``edge_map`` with the first image of its first nonzero column sent
    to the index with its lowest bit flipped: one x more or fewer, in
    the same target block."""
    emap = edge_map(sig, p)
    c = next(c for c, images in enumerate(emap) if images)
    (r, v), *rest = emap[c]
    return emap[:c] + [((r ^ 1, v), *rest)] + emap[c + 1:]


def test_writer_rejects_an_index_of_another_x_count(monkeypatch, capsys):
    # the kink's one edge has no face, so the sign solve takes the moved
    # image as it is; its target vertex has generators at the column's
    # q, but not that index, and the writer raises where it looks it up
    monkeypatch.setattr(chain, "edge_map", _one_image_moved)
    # its column of 1 goes to 1 x and x 1; the first image, index 1,
    # moves to index 0
    with pytest.raises(NotAComplex, match=r"^d_-1: index 0 of a target "
                                          r"block of a column of q = -1 "
                                          r"is no generator of degree 0 "
                                          r"and that q$"):
        list(q_slices(corpus.get("kink"), EVEN))
    assert cli.main(["homology", "--pd", corpus.CORPUS["kink"]]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal consistency failure:")
    assert "of a target block" in captured.err


@pytest.mark.parametrize("boundaries", [
    {0: [{2: 1}, {3: 1}], 1: [{4: 1}]},          # d_1: one column for two
    {0: [{2: 1}, {4: 1}], 1: [{4: 1}, {4: 1}]},  # d_0: row 4, of degree 2
])
def test_d_squared_rejects_boundaries_that_do_not_compose(boundaries):
    # one q-slice, q = 0, of two, two and one generators: ids 0-1, 2-3, 4
    with pytest.raises(NotAComplex):
        check_slice(0, {0: 2, 1: 2, 2: 1}, boundaries)


def test_d_squared_is_exact_beyond_int64():
    # d^2 = 2^64 would wrap to 0 in int64 arithmetic
    c = slices_of(
        groups={0: [0], 1: [0], 2: [0]},
        boundaries={0: [{0: 2 ** 32}], 1: [{0: 2 ** 32}]})
    with pytest.raises(NotAComplex, match=r"d_1 d_0 is not zero"):
        check_all(c)
