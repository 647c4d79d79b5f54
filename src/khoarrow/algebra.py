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

from dataclasses import dataclass

__all__ = ["RingParams", "EVEN", "ODD"]


@dataclass(frozen=True)
class RingParams:
    """A +-1 specialization of the three coefficient parameters."""

    x: int = 1
    y: int = 1
    z: int = 1

    def __post_init__(self):
        for name in ("x", "y", "z"):
            if getattr(self, name) not in (1, -1):
                raise ValueError(f"parameter {name} must be +1 or -1, got {getattr(self, name)}")


EVEN = RingParams(1, 1, 1)
ODD = RingParams(1, -1, 1)
