"""PD / Gauss parsing, orientation solving, and Reidemeister rewriting."""

import itertools
import random

import pytest

from khoarrow import corpus
from khoarrow.algebra import EVEN, ODD
from khoarrow.chain import build_unreduced
from khoarrow.cube import check_planarity
from khoarrow.diagram import (ArcCountMismatch, Diagram, DiagramError,
                              MalformedSyntax, MoveSpec, PatternMismatch,
                              SiteNotFound, apply_move, mirror, parse_gauss,
                              parse_pd, to_pd)
from khoarrow.homology import homology
from khoarrow.jones import jones
from knots import random_signed_knots, torus
from reference import orient

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
    # a crossing at slot 0, so no walk from a slot 0 reaches it, and it is
    # walked from slot 1 of its lowest-index crossing
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


# -- every move at every site, over the corpus and its mirrors ----------


def _corpus_and_mirrors():
    for name in corpus.names():
        d = corpus.get(name)
        yield name, d
        yield name + " mirrored", mirror(d)


def _tables(d):
    return [homology(build_unreduced(d, p)).group_rows() for p in (EVEN, ODD)]


def test_r1_add_then_remove_is_exact_everywhere():
    count = 0
    for name, d in _corpus_and_mirrors():
        for arc in d.arcs:
            for chirality in (True, False):
                d2 = apply_move(d, MoveSpec("R1+", (arc,), chirality))
                assert apply_move(d2, MoveSpec("R1-", (d.n,))) == d, (
                    name, arc, chirality)
                count += 1
    assert count == 264


def test_r2_add_then_remove_is_exact_everywhere():
    count = 0
    for name, d in _corpus_and_mirrors():
        for a, b in itertools.permutations(d.arcs, 2):
            for chirality in (True, False):
                d2 = apply_move(d, MoveSpec("R2+", (a, b), chirality))
                back = apply_move(d2, MoveSpec("R2-", (d.n, d.n + 1)))
                assert back == d, (name, a, b, chirality)
                count += 1
    assert count == 2088


def _accepted_r3_sites(d):
    for site in itertools.product(d.arcs, repeat=3):
        try:
            yield site, apply_move(d, MoveSpec("R3", site))
        except DiagramError:
            pass


def test_r3_twice_is_exact_at_every_accepted_triangle():
    count = 0
    for name, d in _corpus_and_mirrors():
        for site, moved in _accepted_r3_sites(d):
            assert apply_move(moved, MoveSpec("R3", site)) == d, (name, site)
            count += 1
    assert count == 24


def test_every_rejected_move_raises_a_diagram_error():
    # out-of-range and repeated sites included; nothing but DiagramError
    # (or a Diagram) may come back
    for _, d in _corpus_and_mirrors():
        arcs = d.arcs + (d.fresh_label(),)
        idx = range(d.n + 1)
        sites = ([MoveSpec("R1+", (a,)) for a in arcs]
                 + [MoveSpec("R1-", (i,)) for i in idx]
                 + [MoveSpec("R2+", s, ch) for s in itertools.product(arcs, repeat=2)
                    for ch in (True, False)]
                 + [MoveSpec("R2-", s) for s in itertools.product(idx, repeat=2)]
                 + [MoveSpec("R3", s) for s in itertools.product(arcs, repeat=3)]
                 + [MoveSpec("R1+", ()), MoveSpec("R2-", (0,)),
                    MoveSpec("R3", (1, 2))])
        for m in sites:
            try:
                apply_move(d, m)
            except DiagramError:
                pass


def test_accepted_moves_stay_planar_and_keep_both_tables():
    count = 0
    for name, d in _corpus_and_mirrors():
        if not d.n:
            continue
        outcomes = [apply_move(d, MoveSpec("R1+", (d.arcs[0],), ch))
                    for ch in (True, False)]
        for m in ([MoveSpec("R1-", (i,)) for i in range(d.n)]
                  + [MoveSpec("R2-", s)
                     for s in itertools.permutations(range(d.n), 2)]):
            try:
                outcomes.append(apply_move(d, m))
            except DiagramError:
                pass
        outcomes += [moved for _, moved in _accepted_r3_sites(d)]
        tables = _tables(d)
        for moved in outcomes:
            assert check_planarity(moved), (name, moved)
            assert _tables(moved) == tables, (name, moved)
            count += 1
    assert count == 78


# -- the strand walk against the propagation solver ----------------------


def _codes(n):
    """Every arrangement of the labels 1..2n, each used twice, into n
    crossings."""
    labels = [a for a in range(1, 2 * n + 1) for _ in (0, 1)]
    for p in sorted(set(itertools.permutations(labels))):
        yield [p[i:i + 4] for i in range(0, 4 * n, 4)]


def _random_codes(n, count, seed):
    rng = random.Random(seed)
    labels = [a for a in range(1, 2 * n + 1) for _ in (0, 1)]
    for _ in range(count):
        rng.shuffle(labels)
        yield [labels[i:i + 4] for i in range(0, 4 * n, 4)]


def _outcome(solve, code):
    try:
        return solve(code)
    except DiagramError as e:
        return type(e)


def _walked(code):
    d = Diagram(code)
    return d.over_in, d.signs, d.components


def test_strand_walk_matches_the_propagation_solver():
    # every 1- and 2-crossing code, seeded random 3- to 6-crossing codes
    # (most of them rejected), and the diagrams the other tests use, links
    # included: the same over_in, signs and components, or the same error
    known = [d for _, d in _corpus_and_mirrors()]
    known += [k for n in range(3, 12) for k in (torus(n), mirror(torus(n)))]
    known += [d for _, d in random_signed_knots(50)]
    codes = [*_codes(1), *_codes(2)]
    codes += [c for n in range(3, 7) for c in _random_codes(n, 2000, n)]
    codes += [d.crossings for d in known]
    accepted = 0
    for code in codes:
        got = _outcome(_walked, code)
        assert got == _outcome(orient, code), code
        accepted += isinstance(got, tuple)
    assert (len(codes), accepted) == (10614, 3422)
