"""Oriented link diagrams: PD / Gauss code parsing and Reidemeister moves.

A planar-diagram (PD) code lists one 4-tuple of arc labels per crossing,
read counterclockwise starting from the incoming under-strand, e.g.
``X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]`` for a left trefoil.  Arc labels may
be any positive integers; each label must occur exactly twice in total.

Slot rule: the under-strand enters at slot 0 and leaves at slot 2; the
over-strand enters at slot ``o`` (1 or 3, ``Diagram.over_in``) and
leaves at ``4 - o``.  ``Diagram.strands`` holds this rule and
``Diagram.head`` reads it; orientation, components, ``mirror`` and the
Reidemeister moves go through them.  ``o`` is solved by constraint
propagation so that every arc has exactly one head and one tail, and
crossing signs then follow from the right-hand rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
        over-strand arc.
    signs : per crossing, +1 or -1.
    components : tuple of arc cycles, one per link component that has
        at least one crossing.
    """

    __slots__ = ("crossings", "free_loops", "over_in", "signs", "components",
                 "arcs", "n_plus", "n_minus", "_ends")

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
        over_in = self._solve_orientation()
        object.__setattr__(self, "over_in", over_in)
        signs = tuple(-1 if o == 1 else 1 for o in over_in)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "n_plus", sum(1 for s in signs if s > 0))
        object.__setattr__(self, "n_minus", sum(1 for s in signs if s < 0))
        object.__setattr__(self, "components", self._trace_components())

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

    def _solve_orientation(self):
        """Pick the incoming over-slot (1 or 3) for every crossing.

        Propagates head/tail constraints: slot 0 is always a head (arc
        arrives), slot 2 a tail; the over-slots of a crossing are one
        head and one tail depending on its orientation variable.
        """
        over_in: list[int | None] = [None] * len(self.crossings)

        def role(ci, slot):
            """True = head (incoming), False = tail, None = not yet known."""
            if slot == 0:
                return True
            if slot == 2:
                return False
            if over_in[ci] is None:
                return None
            return slot == over_in[ci]

        def set_over(ci, slot_in):
            if over_in[ci] is None:
                over_in[ci] = slot_in
                return True
            if over_in[ci] != slot_in:
                raise NonPlanarInconsistency(
                    f"orientation conflict at crossing {ci}")
            return False

        def propagate():
            changed = True
            while changed:
                changed = False
                for a, ((c1, s1), (c2, s2)) in self._ends.items():
                    r1, r2 = role(c1, s1), role(c2, s2)
                    if r1 is not None and r2 is not None:
                        if r1 == r2:
                            raise NonPlanarInconsistency(
                                f"arc {a} has two heads or two tails")
                    elif r2 is not None:
                        # the other end takes the opposite role
                        changed |= set_over(c1, s1 if not r2 else 4 - s1)
                    elif r1 is not None:
                        changed |= set_over(c2, s2 if not r1 else 4 - s2)

        propagate()
        # components passing only over other strands leave free choices
        for ci in range(len(self.crossings)):
            if over_in[ci] is None:
                over_in[ci] = 1
                propagate()
        return tuple(over_in)  # type: ignore[return-value]

    def _trace_components(self):
        """Decompose arcs into closed loops via the successor relation.

        Orientation gives every arc one head and one tail, so following
        each strand from its entry to its exit is a permutation of arcs.
        """
        succ = {c[s_in]: c[s_out] for ci, c in enumerate(self.crossings)
                for s_in, s_out in self.strands(ci).items()}
        comps = []
        remaining = set(succ)
        while remaining:
            start = min(remaining)
            loop = [start]
            cur = succ[start]
            while cur != start:
                loop.append(cur)
                cur = succ[cur]
            remaining.difference_update(loop)
            comps.append(tuple(loop))
        return tuple(comps)

    # -- queries --------------------------------------------------------

    def strands(self, ci: int) -> dict[int, int]:
        """Entry slot -> exit slot of the two strands through crossing ci."""
        o = self.over_in[ci]
        return {0: 2, o: 4 - o}

    def head(self, arc: int) -> tuple[int, int]:
        """The (crossing, slot) where `arc` arrives."""
        end, other = self._ends[arc]
        return end if end[1] in self.strands(end[0]) else other

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
        in_slot = next(s for s, x in d.strands(t).items() if x == t_slot)
        out_slot = d.strands(h)[h_slot]
        s_in, s_out = d.crossings[t][in_slot], d.crossings[h][out_slot]
        # after the move: s_in -> h -> mid -> t -> s_out
        crossings[t][in_slot] = mid
        crossings[t][t_slot] = s_out
        crossings[h][h_slot] = s_in
        crossings[h][out_slot] = mid

    for mid in (alpha, beta, gamma):
        reroute(mid)
    return Diagram(crossings, free_loops=d.free_loops)
