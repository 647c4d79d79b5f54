"""The reduced complex: Khovanov's marked-point reduced complex.

``build_reduced`` gives the subcomplex of the unreduced complex (even by
default, or at any sign specialization) whose generators carry ``x`` on
the circle through the base arc (the smallest arc label), with q shifted
by one so that the unknot sits at (0, 0).  It is assembled straight from
those generators, the top half of every vertex block, by the cube
assembly in ``chain`` that also builds the unreduced complex; the full
complex is never made.  Its Euler characteristic times (q + q^-1) is the
Jones polynomial.  For a knot the homology does not depend on the base
arc; for a link it belongs to the component through the smallest arc
label.  The paper's basepoint-free construction of an even reduced
theory is not reproduced here; the arrow-operator lattices it starts
from are checked in ``lattice``.
"""

from __future__ import annotations

from .algebra import EVEN, RingParams
from .chain import BigradedComplex, NotASubcomplex, _build
from .diagram import Diagram

__all__ = ["NotASubcomplex", "build_reduced"]


def build_reduced(d: Diagram, p: RingParams = EVEN) -> BigradedComplex:
    """The reduced Khovanov complex of `d`, a subcomplex of the one at `p`.

    The generators are those of ``build_unreduced(d, p)`` whose base
    circle carries ``x``; the base circle of a resolution is the one
    through the base arc, the smallest arc label of `d` (the first free
    loop of a crossingless diagram).  Circles are ordered by their
    smallest arc, so the base circle is circle 0 and its ``x`` is the top
    bit of a block index: the kept generators are the top half of every
    vertex block, and only they are written.  Multiplying by ``x`` on the
    base circle commutes with every edge map up to sign, so these
    generators span a subcomplex: Khovanov's marked-point reduced
    complex, and at the odd specialization the reduced odd complex of
    Ozsvath, Rasmussen and Szabo.  The edge signs are solved over the
    full edge maps, so the boundary is the restriction of the unreduced
    one.  Its quantum degree is the unreduced one plus 1, so the unknot
    sits at (0, 0), and (q + q^-1) times its Euler characteristic is the
    Jones polynomial.

    For a knot the homology does not depend on the base arc; for a link
    it belongs to the component through the smallest arc label.  Raises
    NotASubcomplex if an edge map sends a kept generator outside the
    kept ones.
    """
    return _build(d, p, reduced=True)
