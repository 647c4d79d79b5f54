"""Curated test diagrams and Reidemeister-equivalence classes.

Every diagram here passes ``cube.check_planarity`` (each crossing change
alters the circle count by exactly 1), which is weaker than planarity.
A face count says more: the genus of the surface a code's faces close up
is 0 for every diagram here but two, ``figure8_r2`` (genus 1) and
``figure8_r3`` (genus 2), so those two are not planar diagrams.  The
moved presentations were generated by the test helper ``tests/moves.py``
at sites additionally checked to preserve the Kauffman bracket.  The
moved PD codes are frozen as strings so the corpus does not silently
drift if the rewriting changes.
"""

from __future__ import annotations

from .diagram import Diagram, parse_pd

__all__ = ["CORPUS", "EQUIVALENCE_CLASSES", "get", "names"]


# name -> PD code ("" is the crossingless unknot)
CORPUS: dict[str, str] = {
    # unknot presentations
    "unknot": "",
    "kink": "X[1,2,2,1]",                                # one negative kink
    "unknot_2": "X[1,4,2,1] X[2,3,3,4]",                 # cancelling R2 bigon
    # links and knots
    "hopf": "X[4,1,3,2] X[2,3,1,4]",                     # negative Hopf link
    "trefoil": "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]",       # left-handed trefoil
    "figure8": "X[4,2,5,1] X[8,6,1,5] X[6,3,7,4] X[2,7,3,8]",
    # moved presentations (frozen tests/moves.py outputs)
    # trefoil + R1 (negative kink on arc 1)
    "trefoil_r1": "X[7,4,2,5] X[3,6,4,1] X[5,2,6,3] X[1,8,8,7]",
    # trefoil + R2 (arcs 1 and 4 pushed across each other)
    "trefoil_r2": "X[9,7,2,5] X[3,6,4,1] X[5,2,6,3] X[1,4,10,8] X[10,7,9,8]",
    # figure8 + R2 (arcs 1 and 2)
    "figure8_r2": ("X[4,2,5,11] X[8,6,1,5] X[6,3,7,4] X[9,7,3,8] "
                   "X[1,2,12,10] X[12,9,11,10]"),
    # figure8 + R2 then R3 across the triangle (1, 2, 5)
    "figure8_r3": ("X[5,10,6,2] X[1,5,12,4] X[6,3,7,4] X[9,7,3,8] "
                   "X[8,11,1,2] X[12,9,11,10]"),
}

# groups of presentations of the same link, used by the invariance suite
EQUIVALENCE_CLASSES: dict[str, tuple[str, ...]] = {
    "unknot": ("unknot", "kink", "unknot_2"),
    "trefoil": ("trefoil", "trefoil_r1", "trefoil_r2"),
    "figure8": ("figure8", "figure8_r2", "figure8_r3"),
}


def names() -> list[str]:
    return list(CORPUS)


def get(name: str) -> Diagram:
    try:
        return parse_pd(CORPUS[name])
    except KeyError:
        raise KeyError(f"unknown corpus diagram {name!r}; "
                       f"choose from {', '.join(CORPUS)}") from None
