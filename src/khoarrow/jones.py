"""Kauffman-bracket state sum and the (unreduced) Jones polynomial.

Everything here is deliberately independent of the chain-complex code:
only the diagram parser and the circle counter are shared, so the Jones
polynomial serves as a ground-truth oracle for the homology pipeline.

The variable convention is the homology-normalized one: the bracket of a
crossingless unknot is q + q^-1, and the writhe normalization multiplies
by (-1)^(n_minus) q^(n_plus - 2 n_minus).
"""

from __future__ import annotations

from .cube import circle_labels
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

    @classmethod
    def monomial(cls, exp: int, coef: int = 1):
        return cls({exp: coef})

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

    def substitute_inverse(self):
        """q -> q^-1."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

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
    """State sum over all resolutions: sum_I (-q)^|I| (q+q^-1)^k(I)."""
    n = d.n
    if n > MAX_BRACKET_CROSSINGS:
        raise TooLarge(f"{n} crossings exceeds bracket limit {MAX_BRACKET_CROSSINGS}")
    total = LaurentPoly()
    for mask, (_, k) in enumerate(circle_labels(d)):
        w = mask.bit_count()
        term = (_CIRCLE ** k).shift(w)
        if w % 2:
            term = term * -1
        total = total + term
    return total


def jones(d: Diagram) -> LaurentPoly:
    """Writhe-normalized bracket; the unknot maps to q + q^-1."""
    br = kauffman_bracket(d)
    out = br.shift(d.n_plus - 2 * d.n_minus)
    if d.n_minus % 2:
        out = out * -1
    return out


def euler_characteristic(obj) -> LaurentPoly:
    """Graded Euler characteristic sum (-1)^h q^q over generators.

    Accepts anything with an ``iter_bidegrees`` method yielding
    (h, q, count) triples (both chain complexes and homology tables).
    """
    out: dict[int, int] = {}
    for h, q, count in obj.iter_bidegrees():
        out[q] = out.get(q, 0) + (-count if h % 2 else count)
    return LaurentPoly(out)
