"""PD / Gauss parsing, orientation solving, and Reidemeister rewriting."""

import pytest

from khoarrow import corpus
from khoarrow.algebra import EVEN
from khoarrow.chain import build_unreduced
from khoarrow.cube import check_planarity
from khoarrow.diagram import (ArcCountMismatch, MalformedSyntax, MoveSpec,
                              PatternMismatch, SiteNotFound, apply_move,
                              mirror, parse_gauss, parse_pd, to_pd)
from khoarrow.homology import homology
from khoarrow.jones import jones

TREFOIL = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"


def test_parse_empty_is_unknot():
    d = parse_pd("")
    assert d.n == 0 and d.free_loops == 1


def test_parse_trefoil():
    d = parse_pd(TREFOIL)
    assert d.n == 3
    assert d.n_minus == 3 and d.n_plus == 0       # left-handed
    assert len(d.components) == 1
    assert len(d.components[0]) == 6


def test_parse_rejects_malformed():
    with pytest.raises(MalformedSyntax):
        parse_pd("X[1,2,3]")
    with pytest.raises(MalformedSyntax):
        parse_pd("garbage")
    with pytest.raises(ArcCountMismatch):
        parse_pd("X[1,2,2,3] X[3,4,4,5]")   # arcs 1 and 5 occur once


def test_gauss_code_trefoil_matches_pd():
    g = parse_gauss("O1-U2-O3-U1-O2-U3-")
    assert jones(g) == jones(parse_pd(TREFOIL))
    assert (g.n_plus, g.n_minus) == (0, 3)


def test_to_pd_roundtrip():
    d = parse_pd(TREFOIL)
    assert parse_pd(to_pd(d)) == d


def test_mirror_is_involution_and_inverts_jones():
    d = parse_pd(TREFOIL)
    m = mirror(d)
    assert mirror(m) == d
    assert (m.n_plus, m.n_minus) == (3, 0)
    assert jones(m) == jones(d).substitute_inverse()


def test_hopf_signs():
    d = parse_pd("X[4,1,3,2] X[2,3,1,4]")
    assert (d.n_plus, d.n_minus) == (0, 2)


def test_orientation_seeded_for_a_component_passing_only_over():
    # a 2-component unlink: the second component (arcs 3, 4) never enters
    # a crossing at slot 0, so propagation alone cannot orient it and the
    # solver seeds a crossing
    d = parse_pd("X[1,3,2,4] X[2,3,1,4]")
    assert d.over_in == (1, 3)
    assert d.signs == (-1, 1)
    assert d.components == ((1, 2), (3, 4))
    assert homology(build_unreduced(d, EVEN)).group_rows() == [
        (0, -2, 1, ()), (0, 0, 2, ()), (0, 2, 1, ())]


def test_r1_add_then_remove_roundtrip():
    d = parse_pd(TREFOIL)
    for chirality in (False, True):
        d2 = apply_move(d, MoveSpec("R1+", (1,), chirality))
        assert d2.n == 4 and jones(d2) == jones(d)
        back = apply_move(d2, MoveSpec("R1-", (3,)))
        assert jones(back) == jones(d) and back.n == 3


def test_r1_remove_rejects_non_kink():
    d = parse_pd(TREFOIL)
    with pytest.raises(PatternMismatch):
        apply_move(d, MoveSpec("R1-", (0,)))


def test_r2_add_then_remove_roundtrip():
    d = parse_pd(TREFOIL)
    d2 = apply_move(d, MoveSpec("R2+", (1, 4), False))
    assert d2.n == 5 and jones(d2) == jones(d)
    back = apply_move(d2, MoveSpec("R2-", (3, 4)))
    assert back.n == 3 and jones(back) == jones(d)


def test_r2_remove_rejects_non_bigon():
    d = parse_pd(TREFOIL)
    with pytest.raises(PatternMismatch):
        apply_move(d, MoveSpec("R2-", (0, 1)))


def test_r3_preserves_jones_and_planarity():
    fig8_r2 = corpus.get("figure8_r2")
    moved = apply_move(fig8_r2, MoveSpec("R3", (1, 2, 5), False))
    assert moved == corpus.get("figure8_r3")
    assert jones(moved) == jones(fig8_r2)
    assert check_planarity(moved)


def test_move_site_validation():
    d = parse_pd(TREFOIL)
    with pytest.raises(SiteNotFound):
        apply_move(d, MoveSpec("R1+", (99,)))
    with pytest.raises(SiteNotFound):
        apply_move(d, MoveSpec("R2+", (1,)))
    with pytest.raises(ValueError):
        MoveSpec("R4", (1,))


def test_corpus_diagrams_are_planar():
    for name in corpus.names():
        assert check_planarity(corpus.get(name)), name


def test_bad_r2_site_detectable_as_nonplanar():
    # arcs 1 and 3 of the trefoil do not co-bound a face; the rewiring
    # goes through but yields a virtual diagram the planarity check flags
    d = apply_move(parse_pd(TREFOIL), MoveSpec("R2+", (1, 3), False))
    assert not check_planarity(d)
    assert jones(d) == jones(parse_pd(TREFOIL))   # bracket can't tell
