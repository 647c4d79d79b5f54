"""Kauffman bracket / Jones polynomial oracle."""

import pytest

from khoarrow import corpus
from khoarrow.diagram import mirror, parse_pd
from khoarrow.jones import (LaurentPoly, TooLarge, euler_characteristic,
                            jones, kauffman_bracket)
from knots import random_signed_knots, torus
import reference


def L(coeffs):
    return LaurentPoly(coeffs)


def test_laurent_arithmetic():
    p = L({1: 1, -1: 1})
    assert p + p == L({1: 2, -1: 2})
    assert p - p == L({}) and not (p - p)
    assert p * p == L({2: 1, 0: 2, -2: 1})
    assert 3 * p == L({1: 3, -1: 3})
    assert p ** 0 == L({0: 1})
    assert p.shift(2) == L({3: 1, 1: 1})
    assert str(L({})) == "0"
    assert str(L({0: -2, 1: 1})) == "-2 + q"


def test_unknot_bracket():
    assert kauffman_bracket(parse_pd("")) == L({1: 1, -1: 1})
    assert jones(parse_pd("")) == L({1: 1, -1: 1})


def test_kink_normalization():
    # one negative kink: bracket differs, normalized jones is the unknot's
    d = parse_pd("X[1,2,2,1]")
    assert jones(d) == L({1: 1, -1: 1})


def test_hopf_jones():
    assert jones(corpus.get("hopf")) == L({-6: 1, -4: 1, -2: 1, 0: 1})


def test_trefoil_jones():
    # left-handed trefoil, unknot-value q+1/q convention
    assert jones(corpus.get("trefoil")) == L({-9: -1, -5: 1, -3: 1, -1: 1})


def test_figure8_jones():
    # (q + 1/q)(q^4 - q^2 + 1 - q^-2 + q^-4) telescopes to q^5 + q^-5
    assert jones(corpus.get("figure8")) == L({-5: 1, 5: 1})


def test_figure8_amphichiral():
    j = jones(corpus.get("figure8"))
    assert j == L({-e: c for e, c in j.coeffs.items()})
    assert jones(mirror(corpus.get("figure8"))) == j


def test_jones_is_a_move_invariant():
    for cls in corpus.EQUIVALENCE_CLASSES.values():
        vals = {jones(corpus.get(n)) for n in cls}
        assert len(vals) == 1


BRACKET_DIAGRAMS = {name: corpus.get(name) for name in corpus.names()}
BRACKET_DIAGRAMS.update({f"mirror {name}": mirror(corpus.get(name))
                         for name in corpus.names()})
BRACKET_DIAGRAMS.update({f"T(2,{n})": torus(n) for n in range(3, 14)})
BRACKET_DIAGRAMS.update({f"braid {word}": d
                         for word, d in random_signed_knots(20)})


@pytest.mark.parametrize("name", BRACKET_DIAGRAMS)
def test_bracket_census_equals_the_state_sum(name):
    # one term per distinct (|I|, k) pair sums to the per-vertex state sum
    d = BRACKET_DIAGRAMS[name]
    assert kauffman_bracket(d) == reference.kauffman_bracket(d)


def test_bracket_size_limit():
    code = " ".join(f"X[{4*i+1},{4*i+2},{4*i+2},{4*i+1}]"
                    for i in range(15))
    with pytest.raises(TooLarge):
        kauffman_bracket(parse_pd(code))


def test_euler_characteristic_protocol():
    # (h, q, count) triples, from any iterable
    triples = iter([(0, 1, 2), (1, 1, 1), (2, -3, 1)])
    assert euler_characteristic(triples) == L({1: 1, -3: 1})
