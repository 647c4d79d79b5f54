"""The specializations of the rank-2 algebra A = Z<1, x>.

A sign specialization fixes the three coefficient parameters (x, y, z),
each +-1, that enter the multiplication, comultiplication and
factor-swap maps of A.  ``EVEN`` = (1, 1, 1) gives ordinary Khovanov
homology and ``ODD`` = (1, -1, 1) the odd theory of Ozsvath, Rasmussen
and Szabo.  The maps themselves act sparsely on basis tensors in
``chain.edge_map``; the arrow operators act through their values at 1
in ``lattice``.
"""

from __future__ import annotations

__all__ = ["RingParams", "EVEN", "ODD"]


class RingParams:
    """A +-1 specialization of the three coefficient parameters.

    Immutable; equal, and hashed alike, when x, y and z are equal.
    """

    __slots__ = ("x", "y", "z")

    def __init__(self, x: int = 1, y: int = 1, z: int = 1):
        for name, v in (("x", x), ("y", y), ("z", z)):
            if v not in (1, -1):
                raise ValueError(f"parameter {name} must be +1 or -1, got {v}")
            object.__setattr__(self, name, v)

    def __setattr__(self, name, value):
        raise AttributeError("RingParams is immutable")

    def __delattr__(self, name):
        raise AttributeError("RingParams is immutable")

    def __reduce__(self):               # copy and pickle through __init__
        return RingParams, (self.x, self.y, self.z)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.x, self.y, self.z) == (other.x, other.y, other.z)

    def __hash__(self):
        return hash((self.x, self.y, self.z))

    def __repr__(self):
        return f"RingParams(x={self.x!r}, y={self.y!r}, z={self.z!r})"


EVEN = RingParams(1, 1, 1)
ODD = RingParams(1, -1, 1)
