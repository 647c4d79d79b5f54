"""Khovanov homology via the arrow algebra.

Unified even/odd unreduced Khovanov complexes over the specialization
ring (X, Y, Z) in {+-1}^3, and the reduced complex as the subcomplex of
the unreduced one marked by the base arc (the smallest arc label), with
exact integer homology.  A complex is the stream of its q-slices:
``homology(q_slices(d, p))`` is the unreduced table of `d` at `p`, and
``homology(q_slices(d, p, reduced=True))`` the reduced one.  The
paper's basepoint-free even reduced construction is not reproduced.
"""

from .algebra import EVEN, ODD, RingParams
from .chain import q_slices
from .diagram import Diagram, mirror, parse_gauss, parse_pd
from .homology import HomologyTable, NotAComplex, homology
from .jones import LaurentPoly, euler_characteristic, jones
from .lattice import operator_lattice
from .snf import smith_normal_form

__version__ = "0.1.0"

__all__ = [
    "EVEN",
    "ODD",
    "RingParams",
    "q_slices",
    "Diagram",
    "mirror",
    "parse_gauss",
    "parse_pd",
    "HomologyTable",
    "NotAComplex",
    "homology",
    "LaurentPoly",
    "euler_characteristic",
    "jones",
    "operator_lattice",
    "smith_normal_form",
    "__version__",
]
