"""Kauffman-bracket state sum and the (unreduced) Jones polynomial.

Everything here is deliberately independent of the chain-complex code:
only the diagram parser and the circle counter are shared, so the Jones
polynomial serves as a ground-truth oracle for the homology pipeline.

The variable convention is the homology-normalized one: the bracket of a
crossingless unknot is q + q^-1, and the writhe normalization multiplies
by (-1)^(n_minus) q^(n_plus - 2 n_minus).
"""

from __future__ import annotations

from collections import Counter

from .cube import resolutions
from .diagram import Diagram

__all__ = ["LaurentPoly", "TooLarge", "kauffman_bracket", "jones",
           "euler_characteristic"]

MAX_BRACKET_CROSSINGS = 14


class TooLarge(ValueError):
    pass


class LaurentPoly:
    """Integer Laurent polynomial in one variable q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        cleaned = {}
        if coeffs:
            for e, c in dict(coeffs).items():
                if c:
                    cleaned[int(e)] = int(c)
        self.coeffs = cleaned

    def __add__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()})
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = LaurentPoly({0: 1})
        for _ in range(k):
            out = out * self
        return out

    def shift(self, e: int):
        return LaurentPoly({exp + e: c for exp, c in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                body = str(abs(c))
            else:
                var = "q" if e == 1 else f"q^{e}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    __repr__ = __str__


_CIRCLE = LaurentPoly({1: 1, -1: 1})   # q + q^-1


def kauffman_bracket(d: Diagram) -> LaurentPoly:
    """State sum over all resolutions: sum_I (-q)^|I| (q+q^-1)^k(I), as
    one term per distinct (|I|, k(I)) of the cube, times its count."""
    n = d.n
    if n > MAX_BRACKET_CROSSINGS:
        raise TooLarge(f"{n} crossings exceeds bracket limit {MAX_BRACKET_CROSSINGS}")
    census = Counter((mask.bit_count(), k)
                     for mask, (k, _) in enumerate(resolutions(d)))
    total = LaurentPoly()
    for (w, k), count in census.items():
        total = total + (_CIRCLE ** k).shift(w) * (-count if w % 2 else count)
    return total


def jones(d: Diagram) -> LaurentPoly:
    """Writhe-normalized bracket; the unknot maps to q + q^-1."""
    br = kauffman_bracket(d)
    out = br.shift(d.n_plus - 2 * d.n_minus)
    if d.n_minus % 2:
        out = out * -1
    return out


def euler_characteristic(triples) -> LaurentPoly:
    """Graded Euler characteristic sum (-1)^h count q^q over (h, q,
    count) triples: a homology table's ``iter_bidegrees()``, or the
    generator counts of a complex, ``(h, q, counts[h])`` for every
    degree h of the ``counts`` of each q-slice.  Those come from
    ``chain.q_slices``, which writes every column too, or, as the
    ``euler`` verify suite counts them, from ``chain._Assembly.counts``
    alone, which writes none.
    """
    out: dict[int, int] = {}
    for h, q, count in triples:
        out[q] = out.get(q, 0) + (-count if h % 2 else count)
    return LaurentPoly(out)
