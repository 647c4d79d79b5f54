"""The reduced complex: Khovanov's marked-point reduced complex.

``build_reduced`` gives the subcomplex of the unreduced complex (even by
default, or at any sign specialization) whose generators carry ``x`` on
the circle through the base arc (the smallest arc label), with q shifted
by one so that the unknot sits at (0, 0).  Its Euler characteristic
times (q + q^-1) is the Jones polynomial.  For a knot the homology does
not depend on the base arc; for a link it belongs to the component
through the smallest arc label.  The paper's basepoint-free construction
of an even reduced theory is not reproduced here; the arrow-operator
lattices it starts from are checked in ``lattice``.
"""

from __future__ import annotations

from .algebra import EVEN, RingParams
from .chain import BigradedComplex, build_unreduced, cube_layout
from .diagram import Diagram

__all__ = ["NotASubcomplex", "build_reduced"]


class NotASubcomplex(RuntimeError):
    pass


def build_reduced(d: Diagram, p: RingParams = EVEN,
                  convention: str = "standard") -> BigradedComplex:
    """The reduced Khovanov complex of `d`, a subcomplex of the one at `p`.

    The generators kept are those of ``build_unreduced(d, p)`` whose
    base circle carries ``x``; the base circle of a resolution is the one
    through the base arc, the smallest arc label of `d` (the first free
    loop of a crossingless diagram).  Multiplying by ``x`` on the base
    circle commutes with every edge map up to sign, so these generators
    span a subcomplex: Khovanov's marked-point reduced complex, and at
    the odd specialization the reduced odd complex of Ozsvath, Rasmussen
    and Szabo.  Its quantum degree is the unreduced one plus 1, so the
    unknot sits at (0, 0), and (q + q^-1) times its Euler characteristic
    is the Jones polynomial.

    For a knot the homology does not depend on the base arc; for a link
    it belongs to the component through the smallest arc label.  Raises
    NotASubcomplex if a boundary map sends a kept generator outside the
    kept ones.
    """
    if convention not in ("standard", "paper"):
        raise ValueError(f"unknown grading convention {convention!r}")
    full = build_unreduced(d, p)
    shift = d.n_plus - 2 * d.n_minus
    keep: dict[int, list[int]] = {}
    for h, layer in cube_layout(d).items():
        keep[h] = []
        offset = 0
        for bits in layer:
            # a block's first generator, 1 on all k circles, sits at
            # q = k + |I| + shift; the base circle is circle 0, as circles
            # are ordered by their smallest arc, so its x is the top bit
            k = full.groups[h][offset] - sum(bits) - shift
            keep[h] += range(offset + 2 ** (k - 1), offset + 2 ** k)
            offset += 2 ** k

    sign = 1 if convention == "standard" else -1
    groups = {h: [sign * (full.groups[h][j] + 1) for j in kept]
              for h, kept in keep.items()}
    boundaries: dict[int, list[dict[int, int]]] = {}
    for h, cols in full.boundaries.items():
        row_of = {g: j for j, g in enumerate(keep[h + 1])}
        boundaries[h] = []
        for g in keep[h]:
            if any(r not in row_of for r in cols[g]):
                raise NotASubcomplex(
                    f"boundary from degree {h} leaves the reduced generators")
            boundaries[h].append({row_of[r]: v for r, v in cols[g].items()})
    return BigradedComplex(groups=groups, boundaries=boundaries)
