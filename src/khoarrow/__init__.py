"""Khovanov homology via the arrow algebra.

Unified even/odd unreduced Khovanov complexes over the specialization
ring (X, Y, Z) in {+-1}^3, and the reduced complex as the subcomplex of
the unreduced one (even by default) marked by the base arc (the smallest
arc label), with exact integer homology.  The paper's basepoint-free even reduced construction
is not reproduced.
"""

from .algebra import EVEN, ODD, RingParams
from .chain import BigradedComplex, build_unreduced
from .diagram import Diagram, mirror, parse_gauss, parse_pd
from .homology import HomologyTable, NotAComplex, homology
from .jones import LaurentPoly, euler_characteristic, jones
from .lattice import operator_lattice
from .reduced import build_reduced
from .snf import smith_normal_form

__version__ = "0.1.0"

__all__ = [
    "EVEN",
    "ODD",
    "RingParams",
    "BigradedComplex",
    "build_unreduced",
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
    "build_reduced",
    "operator_lattice",
    "smith_normal_form",
    "__version__",
]
