"""The unreduced bigraded complex: d^2, gradings, Euler characteristic."""

import numpy as np
import pytest

from khoarrow import corpus
from khoarrow.algebra import EVEN, ODD, RingParams
from khoarrow.chain import BigradedComplex, build_unreduced, edge_map
from khoarrow.cube import resolve
from khoarrow.jones import euler_characteristic, jones

PRESETS = [EVEN, ODD, RingParams(-1, 1, 1), RingParams(-1, -1, -1)]
NAMES = ["unknot", "kink", "hopf", "trefoil", "figure8"]


@pytest.mark.parametrize("p", PRESETS)
@pytest.mark.parametrize("name", NAMES)
def test_d_squared_and_q_preserved(name, p):
    c = build_unreduced(corpus.get(name), p)
    assert c.check_d_squared()
    assert c.check_q_preserved()


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


def test_paper_convention_negates_q():
    d = corpus.get("hopf")
    std = build_unreduced(d, ODD, convention="standard")
    pap = build_unreduced(d, ODD, convention="paper")
    for h in std.groups:
        assert sorted(pap.groups[h]) == sorted(-q for q in std.groups[h])
    assert pap.check_d_squared() and pap.check_q_preserved()
    with pytest.raises(ValueError):
        build_unreduced(d, ODD, convention="upside-down")


@pytest.mark.parametrize("p", PRESETS)
def test_flip_arrows_gives_isomorphic_invariants(p):
    from khoarrow.homology import homology
    d = corpus.get("figure8")
    a = homology(build_unreduced(d, p))
    b = homology(build_unreduced(d, p, flip_arrows=True))
    assert a == b


def test_edge_map_shapes_and_grading():
    d = corpus.get("hopf")
    r00 = resolve(d, (0, 0))
    r10 = resolve(d, (1, 0))
    m = edge_map(r00, r10, 0, EVEN)
    assert m.shape == (2 ** r10.k, 2 ** r00.k)
    assert np.any(m)


def test_even_kink_edge_is_plain_structure_map():
    # at the even preset an edge with no spectators is Khovanov's m or delta
    from khoarrow.algebra import comul, mul
    from khoarrow.diagram import parse_pd
    d = parse_pd("X[1,2,2,1]")       # one kink
    r0, r1 = resolve(d, (0,)), resolve(d, (1,))
    m = edge_map(r0, r1, 0, EVEN)
    expected = mul(EVEN) if r0.k > r1.k else comul(EVEN)
    assert abs(m).tolist() == abs(expected).tolist()


def test_bigraded_complex_checks_catch_errors():
    bad = BigradedComplex(
        groups={0: [0, 0], 1: [0, 0]},
        boundaries={0: [{0: 1}, {1: 1}], 1: [{0: 1}, {1: 1}]})
    # identity followed by identity is not a differential
    assert not bad.check_d_squared()
    bad_q = BigradedComplex(
        groups={0: [0], 1: [5]},
        boundaries={0: [{0: 1}]})
    assert not bad_q.check_q_preserved()


@pytest.mark.parametrize("boundaries", [
    {0: [{0: 1}, {1: 1}], 1: [{0: 1}]},          # d_1: one column for two
    {0: [{0: 1}, {2: 1}], 1: [{0: 1}, {0: 1}]},  # d_0: row 2 of two
])
def test_d_squared_rejects_boundaries_that_do_not_compose(boundaries):
    c = BigradedComplex(groups={0: [0, 0], 1: [0, 0], 2: [0]},
                        boundaries=boundaries)
    with pytest.raises(ValueError):
        c.check_d_squared()


def test_d_squared_is_exact_beyond_int64():
    # d^2 = 2^64 would wrap to 0 in int64 arithmetic
    c = BigradedComplex(
        groups={0: [0], 1: [0], 2: [0]},
        boundaries={0: [{0: 2 ** 32}], 1: [{0: 2 ** 32}]})
    assert not c.check_d_squared()
