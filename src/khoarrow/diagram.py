"""Oriented link diagrams: PD / Gauss code parsing and mirrors.

A planar-diagram (PD) code lists one 4-tuple of arc labels per crossing,
read counterclockwise starting from the incoming under-strand, e.g.
``X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]`` for a left trefoil.  Arc labels are
non-negative integers (``parse_pd`` reads the ASCII digits 0-9 only, so
``0`` and leading zeros are accepted and other Unicode digits are not);
each label must occur exactly twice in total.

Slot rule: a strand that arrives at slot s of a crossing leaves at slot
(s + 2) % 4.  One walk along every strand (``Diagram._walk``) orients the
diagram from it: the under-strand arrives at slot 0, the over-strand at
``Diagram.over_in`` (1 or 3), and the walk traces the components.
Crossing signs then follow from the right-hand rule.  An arc's head is
the end at slot 0 or at its crossing's over-slot.
"""

from __future__ import annotations

import re
from itertools import product

__all__ = [
    "Diagram",
    "DiagramError",
    "MalformedSyntax",
    "ArcCountMismatch",
    "NonPlanarInconsistency",
    "UnbalancedCode",
    "parse_pd",
    "parse_gauss",
    "to_pd",
    "mirror",
]


class DiagramError(ValueError):
    """Base class for diagram construction failures."""


class MalformedSyntax(DiagramError):
    pass


class ArcCountMismatch(DiagramError):
    pass


class NonPlanarInconsistency(DiagramError):
    pass


class UnbalancedCode(DiagramError):
    pass


class Diagram:
    """Immutable oriented link diagram.

    Attributes
    ----------
    crossings : tuple of 4-tuples of arc labels, counterclockwise from
        the incoming under-strand.
    free_loops : number of crossingless unknot components.
    over_in : per crossing, the slot (1 or 3) holding the incoming
        over-strand arc, set by the one walk along every strand.
    signs : per crossing, +1 or -1.
    components : tuple of arc cycles in strand order, one per link
        component that has at least one crossing, each starting at its
        smallest arc, sorted by it.
    """

    __slots__ = ("crossings", "free_loops", "over_in", "signs", "components",
                 "arcs", "n_plus", "n_minus")

    def __init__(self, crossings, free_loops=0):
        crossings = tuple(tuple(int(a) for a in c) for c in crossings)
        for c in crossings:
            if len(c) != 4:
                raise MalformedSyntax(f"crossing tuple {c} does not have 4 entries")
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "free_loops", int(free_loops))
        # arc -> its two (crossing, slot) ends
        ends: dict[int, list[tuple[int, int]]] = {}
        for ci, c in enumerate(crossings):
            for slot, a in enumerate(c):
                ends.setdefault(a, []).append((ci, slot))
        for a, e in ends.items():
            if len(e) != 2:
                raise ArcCountMismatch(
                    f"arc label {a} occurs {len(e)} times, expected 2")
        object.__setattr__(self, "arcs", tuple(sorted(ends)))
        over_in, components = self._walk(ends)
        object.__setattr__(self, "over_in", over_in)
        signs = tuple(-1 if o == 1 else 1 for o in over_in)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "n_plus", sum(1 for s in signs if s > 0))
        object.__setattr__(self, "n_minus", sum(1 for s in signs if s < 0))
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("Diagram is immutable")

    @property
    def n(self) -> int:
        return len(self.crossings)

    def __eq__(self, other):
        return (isinstance(other, Diagram)
                and self.crossings == other.crossings
                and self.free_loops == other.free_loops)

    def __hash__(self):
        return hash((self.crossings, self.free_loops))

    def __repr__(self):
        return f"Diagram({to_pd(self)!r}, free_loops={self.free_loops})"

    # -- construction helpers ------------------------------------------

    def _walk(self, ends):
        """Orient every strand and trace the components in one pass.

        `ends` maps every arc to its two (crossing, slot) ends.  Returns
        the incoming over-slot of every crossing and the components.  A
        walk starts at every slot 0 it has not yet passed; a component
        that passes only over other strands is then walked from slot 1 of
        its lowest-index crossing.  Each crossing joins its slots in the
        fixed pairs 0-2 and 1-3, so a walk meets no arc or over-slot twice
        before its loop closes, and the one defect it can meet is a strand
        arriving at slot 2: no orientation gives every arc one head and
        one tail.
        """
        over_in: list[int | None] = [None] * len(self.crossings)
        seen: set[int] = set()
        loops = []
        for slot, ci in product((0, 1), range(len(self.crossings))):
            first = self.crossings[ci][slot]
            if first in seen:
                continue
            loop, arc = [], first
            while arc not in seen:
                if slot == 2:
                    raise NonPlanarInconsistency(
                        f"arc {arc} has two tails: it ends at slot 2 of "
                        f"crossing {ci}")
                if slot % 2:
                    over_in[ci] = slot
                seen.add(arc)
                loop.append(arc)
                # leave at the opposite slot and arrive at the arc's other end
                end = (ci, (slot + 2) % 4)
                arc = self.crossings[ci][end[1]]
                e0, e1 = ends[arc]
                ci, slot = e1 if e0 == end else e0
            i = loop.index(min(loop))
            loops.append(tuple(loop[i:] + loop[:i]))
        return tuple(over_in), tuple(sorted(loops))


# [0-9], not \d, which also matches every other Unicode digit (int()
# reads them)
_PD_TOKEN = re.compile(
    r"X\s*\[\s*([0-9]+)\s*,\s*([0-9]+)\s*,\s*([0-9]+)\s*,\s*([0-9]+)\s*\]")


def parse_pd(text: str) -> Diagram:
    """Parse a PD code. The empty string denotes a crossingless unknot."""
    stripped = text.strip()
    if not stripped:
        return Diagram((), free_loops=1)
    crossings = []
    pos = 0
    for m in _PD_TOKEN.finditer(stripped):
        if stripped[pos:m.start()].strip(" ,;\t\n"):
            raise MalformedSyntax(
                f"unrecognized PD text: {stripped[pos:m.start()]!r}")
        crossings.append(tuple(int(g) for g in m.groups()))
        pos = m.end()
    if stripped[pos:].strip(" ,;\t\n"):
        raise MalformedSyntax(f"unrecognized PD text: {stripped[pos:]!r}")
    if not crossings:
        raise MalformedSyntax(f"no crossings found in {text!r}")
    return Diagram(crossings)


def to_pd(d: Diagram) -> str:
    return " ".join("X[%d,%d,%d,%d]" % c for c in d.crossings)


_GAUSS_TOKEN = re.compile(r"([OU])\s*([0-9]+)\s*([+-])")


def parse_gauss(text: str) -> Diagram:
    """Parse a signed Gauss code like ``O1-U2-O3-U1-O2-U3-``.

    The code describes a single closed component; arcs are labeled
    1..2n in traversal order.
    """
    stripped = text.strip()
    if not stripped:
        return Diagram((), free_loops=1)
    passes = []
    pos = 0
    for m in _GAUSS_TOKEN.finditer(stripped):
        if stripped[pos:m.start()].strip(" ,\t\n"):
            raise MalformedSyntax(
                f"unrecognized Gauss text: {stripped[pos:m.start()]!r}")
        passes.append((m.group(1), int(m.group(2)), 1 if m.group(3) == "+" else -1))
        pos = m.end()
    if stripped[pos:].strip(" ,\t\n"):
        raise MalformedSyntax(f"unrecognized Gauss text: {stripped[pos:]!r}")
    if not passes:
        raise MalformedSyntax(f"no crossing passes found in {text!r}")

    visits: dict[int, dict[str, int]] = {}
    sign_of: dict[int, int] = {}
    for idx, (ou, label, sgn) in enumerate(passes):
        rec = visits.setdefault(label, {})
        if ou in rec:
            raise UnbalancedCode(
                f"crossing {label} visited {ou!r} more than once")
        rec[ou] = idx
        if label in sign_of and sign_of[label] != sgn:
            raise UnbalancedCode(f"crossing {label} has conflicting signs")
        sign_of[label] = sgn
    for label, rec in visits.items():
        if set(rec) != {"O", "U"}:
            raise UnbalancedCode(
                f"crossing {label} not visited exactly once over and once under")

    m = len(passes)
    # arc j enters pass j (1-based, cyclically: arc m enters pass 0)
    crossings = []
    for label in sorted(visits):
        u = visits[label]["U"]
        o = visits[label]["O"]
        a_in = u if u > 0 else m
        a_out = u + 1
        o_in = o if o > 0 else m
        o_out = o + 1
        if sign_of[label] < 0:
            crossings.append((a_in, o_in, a_out, o_out))
        else:
            crossings.append((a_in, o_out, a_out, o_in))
    return Diagram(crossings)


def mirror(d: Diagram) -> Diagram:
    """Swap over- and under-strands at every crossing.

    Rotating each tuple to start at its incoming over-slot makes that
    strand the under-strand.
    """
    return Diagram([c[o:] + c[:o] for c, o in zip(d.crossings, d.over_in)],
                   free_loops=d.free_loops)
