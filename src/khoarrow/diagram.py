"""Oriented link diagrams: PD / Gauss code parsing and Reidemeister moves.

A planar-diagram (PD) code lists one 4-tuple of arc labels per crossing,
read counterclockwise starting from the incoming under-strand, e.g.
``X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]`` for a left trefoil.  Arc labels are
non-negative integers (``parse_pd`` reads decimal digits, so ``0`` and
leading zeros are accepted); each label must occur exactly twice in total.

Slot rule: a strand that arrives at slot s of a crossing leaves at slot
(s + 2) % 4.  One walk along every strand (``Diagram._walk``) orients the
diagram from it: the under-strand arrives at slot 0, the over-strand at
``Diagram.over_in`` (1 or 3), and the walk records every arc's head
(``Diagram.head``) and the components.  Crossing signs then follow from
the right-hand rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product

__all__ = [
    "Diagram",
    "MoveSpec",
    "DiagramError",
    "MalformedSyntax",
    "ArcCountMismatch",
    "NonPlanarInconsistency",
    "UnbalancedCode",
    "SiteNotFound",
    "PatternMismatch",
    "parse_pd",
    "parse_gauss",
    "to_pd",
    "apply_move",
    "mirror",
]


class DiagramError(ValueError):
    """Base class for diagram construction and rewriting failures."""


class MalformedSyntax(DiagramError):
    pass


class ArcCountMismatch(DiagramError):
    pass


class NonPlanarInconsistency(DiagramError):
    pass


class UnbalancedCode(DiagramError):
    pass


class SiteNotFound(DiagramError):
    pass


class PatternMismatch(DiagramError):
    pass


@dataclass(frozen=True)
class MoveSpec:
    """A Reidemeister move request.

    kind: one of R1+, R1-, R2+, R2-, R3.
    site: arc / crossing identifiers locating the move:
      R1+ -> (arc,); R1- -> (crossing_index,);
      R2+ -> (arc_a, arc_b); R2- -> (crossing_i, crossing_j);
      R3  -> (arc_a, arc_b, arc_c) the three triangle arcs, with the
             first one belonging to the strand that passes the other two
             on the same side (under both or over both).
    chirality: selects between the two mirror variants where relevant
      (kink sign for R1+, which strand goes on top for R2+).
    """

    kind: str
    site: tuple = ()
    chirality: bool = True

    def __post_init__(self):
        if self.kind not in ("R1+", "R1-", "R2+", "R2-", "R3"):
            raise ValueError(f"unknown move kind {self.kind!r}")


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
                 "arcs", "n_plus", "n_minus", "_ends", "_heads")

    def __init__(self, crossings, free_loops=0):
        crossings = tuple(tuple(int(a) for a in c) for c in crossings)
        for c in crossings:
            if len(c) != 4:
                raise MalformedSyntax(f"crossing tuple {c} does not have 4 entries")
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "free_loops", int(free_loops))
        # arc -> its two (crossing, slot) ends, built once
        ends: dict[int, list[tuple[int, int]]] = {}
        for ci, c in enumerate(crossings):
            for slot, a in enumerate(c):
                ends.setdefault(a, []).append((ci, slot))
        for a, e in ends.items():
            if len(e) != 2:
                raise ArcCountMismatch(
                    f"arc label {a} occurs {len(e)} times, expected 2")
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(self, "arcs", tuple(sorted(ends)))
        over_in, heads, components = self._walk()
        object.__setattr__(self, "over_in", over_in)
        object.__setattr__(self, "_heads", heads)
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

    def _walk(self):
        """Orient every strand and trace the components in one pass.

        Returns the incoming over-slot of every crossing, the (crossing,
        slot) head of every arc, and the components.  A walk starts at
        every slot 0 it has not yet passed; a component that passes only
        over other strands is then walked from slot 1 of its lowest-index
        crossing.  Each crossing joins its slots in the fixed pairs 0-2
        and 1-3, so a walk meets no arc or over-slot twice before its
        loop closes, and the one defect it can meet is a strand arriving
        at slot 2: no orientation gives every arc one head and one tail.
        """
        over_in: list[int | None] = [None] * len(self.crossings)
        heads: dict[int, tuple[int, int]] = {}
        loops = []
        for slot, ci in product((0, 1), range(len(self.crossings))):
            first = self.crossings[ci][slot]
            if first in heads:
                continue
            loop, arc = [], first
            while arc not in heads:
                if slot == 2:
                    raise NonPlanarInconsistency(
                        f"arc {arc} has two tails: it ends at slot 2 of "
                        f"crossing {ci}")
                if slot % 2:
                    over_in[ci] = slot
                heads[arc] = (ci, slot)
                loop.append(arc)
                # leave at the opposite slot and arrive at the arc's other end
                end = (ci, (slot + 2) % 4)
                arc = self.crossings[ci][end[1]]
                e0, e1 = self._ends[arc]
                ci, slot = e1 if e0 == end else e0
            i = loop.index(min(loop))
            loops.append(tuple(loop[i:] + loop[:i]))
        return tuple(over_in), heads, tuple(sorted(loops))

    # -- queries --------------------------------------------------------

    def head(self, arc: int) -> tuple[int, int]:
        """The (crossing, slot) where `arc` arrives."""
        return self._heads[arc]

    def endpoints(self, arc: int) -> list[tuple[int, int]]:
        """The two (crossing, slot) positions of an arc."""
        return list(self._ends.get(arc, ()))

    def fresh_label(self) -> int:
        return max(self.arcs, default=0) + 1


_PD_TOKEN = re.compile(r"X\s*\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


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


_GAUSS_TOKEN = re.compile(r"([OU])\s*(\d+)\s*([+-])")


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


# -- Reidemeister moves -------------------------------------------------


def apply_move(d: Diagram, m: MoveSpec) -> Diagram:
    if m.kind == "R1+":
        return _r1_add(d, m)
    if m.kind == "R1-":
        return _r1_remove(d, m)
    if m.kind == "R2+":
        return _r2_add(d, m)
    if m.kind == "R2-":
        return _r2_remove(d, m)
    return _r3(d, m)


def _join(rows, x, y):
    """Give arcs x and y the smaller of their labels in every row.

    Run after a crossing is removed, this lets the strand that entered it
    on one arc and left on the other run straight through.
    """
    keep, drop = min(x, y), max(x, y)
    return [[keep if a == drop else a for a in row] for row in rows]


def _r1_add(d: Diagram, m: MoveSpec) -> Diagram:
    if len(m.site) != 1:
        raise SiteNotFound(f"R1+ needs one arc, got site {m.site}")
    arc = m.site[0]
    if arc not in d.arcs:
        raise SiteNotFound(f"arc {arc} not in diagram")
    a2 = d.fresh_label()
    loop = a2 + 1
    # the strand runs arc -> kink -> a2 on to the old head of arc
    crossings = [list(c) for c in d.crossings]
    ci, slot = d.head(arc)
    crossings[ci][slot] = a2
    if m.chirality:
        crossings.append((arc, a2, loop, loop))   # positive kink
    else:
        crossings.append((arc, loop, loop, a2))   # negative kink
    return Diagram(crossings, free_loops=d.free_loops)


def _r1_remove(d: Diagram, m: MoveSpec) -> Diagram:
    if len(m.site) != 1:
        raise SiteNotFound(f"R1- needs one crossing index, got site {m.site}")
    ci = m.site[0]
    if not 0 <= ci < d.n:
        raise SiteNotFound(f"crossing {ci} not in diagram")
    c = d.crossings[ci]
    doubled = [a for a in set(c) if c.count(a) == 2]
    if len(doubled) != 1:
        raise PatternMismatch(f"crossing {ci} is not a kink: {c}")
    a_in, a_out = (a for a in c if a != doubled[0])
    rest = [cc for i, cc in enumerate(d.crossings) if i != ci]
    # a_in == a_out: the kink sat on an otherwise crossingless loop
    return Diagram(_join(rest, a_in, a_out),
                   free_loops=d.free_loops + (a_in == a_out))


def _r2_add(d: Diagram, m: MoveSpec) -> Diagram:
    if len(m.site) != 2:
        raise SiteNotFound(f"R2+ needs two arcs, got site {m.site}")
    a, b = m.site
    if not m.chirality:
        a, b = b, a
    if a not in d.arcs or b not in d.arcs or a == b:
        raise SiteNotFound(f"arcs {m.site} not usable for R2+")
    nl = d.fresh_label()
    a2, mm, b2, pp = nl, nl + 1, nl + 2, nl + 3
    crossings = [list(c) for c in d.crossings]
    for arc, new in ((a, a2), (b, b2)):
        ci, slot = d.head(arc)
        crossings[ci][slot] = new
    # strand a: a -> c1(over) -> mm -> c2(over) -> a2
    # strand b: b -> c1(under) -> pp -> c2(under) -> b2
    c1 = (b, a, pp, mm)
    c2 = (pp, a2, b2, mm)
    return Diagram(crossings + [c1, c2], free_loops=d.free_loops)


def _r2_remove(d: Diagram, m: MoveSpec) -> Diagram:
    if len(m.site) != 2:
        raise SiteNotFound(f"R2- needs two crossing indices, got site {m.site}")
    i, j = m.site
    if not (0 <= i < d.n and 0 <= j < d.n) or i == j:
        raise SiteNotFound(f"crossings {m.site} not in diagram")
    ci, cj = d.crossings[i], d.crossings[j]
    shared = [a for a in set(ci) if a in cj]
    if len(shared) != 2:
        raise PatternMismatch(
            f"crossings {i} and {j} do not bound a bigon: share {shared}")
    # each strand through the bigon must use one shared arc as its middle
    mid_over = [a for a in shared if a in (ci[1], ci[3]) and a in (cj[1], cj[3])]
    mid_under = [a for a in shared if a in (ci[0], ci[2]) and a in (cj[0], cj[2])]
    if len(mid_over) != 1 or len(mid_under) != 1 or mid_over == mid_under:
        raise PatternMismatch(
            f"crossings {i} and {j} are not a cancelling R2 pair")
    if d.signs[i] == d.signs[j]:
        raise PatternMismatch("bigon crossings have equal signs")
    mo, mu = mid_over[0], mid_under[0]
    # outer arcs of each strand
    over_outer = [a for c in (ci, cj) for a in (c[1], c[3]) if a != mo]
    under_outer = [a for c in (ci, cj) for a in (c[0], c[2]) if a != mu]
    rest = [cc for k, cc in enumerate(d.crossings) if k not in (i, j)]
    # join the over-strand first; the under-strand's outer arcs ride along
    # as a last row, since the over-strand may continue into them
    *rest, under_outer = _join(rest + [under_outer], *over_outer)
    free = (d.free_loops + (over_outer[0] == over_outer[1])
            + (under_outer[0] == under_outer[1]))
    return Diagram(_join(rest, *under_outer), free_loops=free)


def _r3(d: Diagram, m: MoveSpec) -> Diagram:
    """Slide a strand across the opposite crossing of a triangle.

    site = (alpha, beta, gamma): the three arcs bounding the triangle.
    ``alpha`` must pass the other two strands on the same level (both
    times under, or both times over).
    """
    if len(m.site) != 3:
        raise SiteNotFound(f"R3 needs three arcs, got site {m.site}")
    alpha, beta, gamma = m.site
    for arc in m.site:
        if arc not in d.arcs:
            raise SiteNotFound(f"arc {arc} not in diagram")
    ends = {arc: d.endpoints(arc) for arc in m.site}

    def common_crossing(x, y):
        cx = {ci for ci, _ in ends[x]}
        cy = {ci for ci, _ in ends[y]}
        both = cx & cy
        if len(both) != 1:
            raise PatternMismatch(
                f"arcs {x} and {y} do not meet at exactly one crossing")
        return both.pop()

    c_ab = common_crossing(alpha, beta)
    c_ag = common_crossing(alpha, gamma)
    c_bg = common_crossing(beta, gamma)
    if len({c_ab, c_ag, c_bg}) != 3:
        raise PatternMismatch("triangle arcs do not span three crossings")

    def level(arc, ci):
        slots = [slot for cj, slot in ends[arc] if cj == ci]
        if len(slots) != 1:
            raise PatternMismatch(f"arc {arc} meets crossing {ci} twice")
        return "under" if slots[0] in (0, 2) else "over"

    if level(alpha, c_ab) != level(alpha, c_ag):
        raise PatternMismatch(
            "middle strand does not pass both crossings on the same level")
    for x, y, ci in ((alpha, beta, c_ab), (alpha, gamma, c_ag),
                     (beta, gamma, c_bg)):
        if level(x, ci) == level(y, ci):
            raise PatternMismatch(
                f"arcs {x} and {y} lie on the same strand at crossing {ci}")

    crossings = [list(c) for c in d.crossings]

    def reroute(mid):
        """Swap the outer arcs of the strand through `mid`."""
        # mid leaves crossing t and arrives at crossing h:
        # the strand runs s_in -> t -> mid -> h -> s_out
        h, h_slot = head = d.head(mid)
        t, t_slot = next(e for e in ends[mid] if e != head)
        in_slot, out_slot = (t_slot + 2) % 4, (h_slot + 2) % 4
        s_in, s_out = d.crossings[t][in_slot], d.crossings[h][out_slot]
        # after the move: s_in -> h -> mid -> t -> s_out
        crossings[t][in_slot] = mid
        crossings[t][t_slot] = s_out
        crossings[h][h_slot] = s_in
        crossings[h][out_slot] = mid

    for mid in (alpha, beta, gamma):
        reroute(mid)
    return Diagram(crossings, free_loops=d.free_loops)
