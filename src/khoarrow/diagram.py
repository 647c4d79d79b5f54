"""Oriented link diagrams: PD / Gauss code parsing and Reidemeister moves.

A planar-diagram (PD) code lists one 4-tuple of arc labels per crossing,
read counterclockwise starting from the incoming under-strand, e.g.
``X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]`` for a left trefoil.  Arc labels may
be any positive integers; each label must occur exactly twice in total.

Orientation is recovered structurally: under-strand slots are fixed
(slot 0 in, slot 2 out), and for each crossing the incoming over-slot is
solved by constraint propagation so that every arc has exactly one head
and one tail.  Crossing signs then follow from the right-hand rule.
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
                 "arcs", "n_plus", "n_minus")

    def __init__(self, crossings, free_loops=0):
        crossings = tuple(tuple(int(a) for a in c) for c in crossings)
        for c in crossings:
            if len(c) != 4:
                raise MalformedSyntax(f"crossing tuple {c} does not have 4 entries")
        object.__setattr__(self, "crossings", crossings)
        object.__setattr__(self, "free_loops", int(free_loops))
        self._validate_arcs()
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

    def _validate_arcs(self):
        seen: dict[int, list[tuple[int, int]]] = {}
        for ci, c in enumerate(self.crossings):
            for slot, a in enumerate(c):
                seen.setdefault(a, []).append((ci, slot))
        for a, ends in seen.items():
            if len(ends) != 2:
                raise ArcCountMismatch(
                    f"arc label {a} occurs {len(ends)} times, expected 2")
        object.__setattr__(self, "arcs", tuple(sorted(seen)))

    def _solve_orientation(self):
        """Pick the incoming over-slot (1 or 3) for every crossing.

        Propagates head/tail constraints: slot 0 is always a head (arc
        arrives), slot 2 a tail; the over-slots of a crossing are one
        head and one tail depending on its orientation variable.
        """
        endpoints: dict[int, list[tuple[int, int]]] = {}
        for ci, c in enumerate(self.crossings):
            for slot, a in enumerate(c):
                endpoints.setdefault(a, []).append((ci, slot))

        # role[ci][slot] True = head (incoming), False = tail
        over_in: list[int | None] = [None] * len(self.crossings)

        def role(ci, slot):
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
                for a, ends in endpoints.items():
                    (c1, s1), (c2, s2) = ends
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
        """Decompose arcs into closed loops via the successor relation."""
        # head endpoint of each arc -> successor arc (leaving that crossing)
        succ = {}
        for ci, c in enumerate(self.crossings):
            o = self.over_in[ci]
            succ_pairs = [(c[0], c[2]), (c[o], c[4 - o])]
            for a_in, a_out in succ_pairs:
                if a_in in succ:
                    raise NonPlanarInconsistency(
                        f"arc {a_in} has two successors")
                succ[a_in] = a_out
        comps = []
        remaining = set(succ)
        while remaining:
            start = min(remaining)
            loop = [start]
            remaining.discard(start)
            cur = succ[start]
            while cur != start:
                if cur not in remaining:
                    raise NonPlanarInconsistency(
                        f"arc loop through {start} fails to close")
                loop.append(cur)
                remaining.discard(cur)
                cur = succ[cur]
            comps.append(tuple(loop))
        return tuple(comps)

    # -- queries --------------------------------------------------------

    def endpoints(self, arc: int) -> list[tuple[int, int]]:
        """The two (crossing, slot) positions of an arc."""
        out = []
        for ci, c in enumerate(self.crossings):
            for slot, a in enumerate(c):
                if a == arc:
                    out.append((ci, slot))
        return out

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
    """Swap over- and under-strands at every crossing."""
    out = []
    for c, o in zip(d.crossings, d.over_in):
        if o == 1:
            out.append((c[1], c[2], c[3], c[0]))
        else:
            out.append((c[3], c[0], c[1], c[2]))
    return Diagram(out, free_loops=d.free_loops)


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


def _split_arc(crossings, arc, new_label, endpoints):
    """Replace the head occurrence of `arc` by `new_label`.

    Returns modified crossing list; the tail keeps the old label, so the
    strand runs ...-> arc -> (inserted piece) -> new_label -> ...
    """
    out = [list(c) for c in crossings]
    head_ci, head_slot = endpoints
    out[head_ci][head_slot] = new_label
    return out


def _head_endpoint(d: Diagram, arc: int):
    for ci, slot in d.endpoints(arc):
        if slot == 0 or slot == d.over_in[ci]:
            return ci, slot
    return None


def _r1_add(d: Diagram, m: MoveSpec) -> Diagram:
    if len(m.site) != 1:
        raise SiteNotFound(f"R1+ needs one arc, got site {m.site}")
    arc = m.site[0]
    if arc not in d.arcs:
        raise SiteNotFound(f"arc {arc} not in diagram")
    a2 = d.fresh_label()
    loop = a2 + 1
    head = _head_endpoint(d, arc)
    if head is None:
        raise SiteNotFound(f"arc {arc} has no head endpoint")
    crossings = _split_arc(d.crossings, arc, a2, head)
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
    loop = doubled[0]
    others = [a for a in c if a != loop]
    a_in, a_out = others
    crossings = [list(cc) for i, cc in enumerate(d.crossings) if i != ci]
    if a_in == a_out:
        # kink on an otherwise crossingless loop
        return Diagram([tuple(cc) for cc in crossings],
                       free_loops=d.free_loops + 1)
    keep, drop = (a_in, a_out) if a_in < a_out else (a_out, a_in)
    for cc in crossings:
        for slot in range(4):
            if cc[slot] == drop:
                cc[slot] = keep
    return Diagram([tuple(cc) for cc in crossings], free_loops=d.free_loops)


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
    head_a = _head_endpoint(d, a)
    crossings = _split_arc(d.crossings, a, a2, head_a)
    # b's endpoints are untouched by splitting a
    head_b = _head_endpoint(d, b)
    crossings = _split_arc(crossings, b, b2, head_b)
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
    crossings = [list(cc) for k, cc in enumerate(d.crossings) if k not in (i, j)]
    free = d.free_loops
    relabel: dict[int, int] = {}
    for outer in (over_outer, under_outer):
        x, y = (relabel.get(a, a) for a in outer)
        if x == y:
            free += 1
            continue
        keep, drop = (x, y) if x < y else (y, x)
        relabel[drop] = keep
        for old, new in list(relabel.items()):
            if new == drop:
                relabel[old] = keep
        for cc in crossings:
            for slot in range(4):
                if cc[slot] == drop:
                    cc[slot] = keep
    return Diagram([tuple(cc) for cc in crossings], free_loops=free)


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

    def is_head(ci, slot):
        return slot == 0 or slot == d.over_in[ci]

    def reroute(mid):
        """Swap the outer arcs of the strand through `mid`."""
        (e1_ci, e1_slot), (e2_ci, e2_slot) = ends[mid]
        if is_head(e1_ci, e1_slot):
            (e1_ci, e1_slot), (e2_ci, e2_slot) = (e2_ci, e2_slot), (e1_ci, e1_slot)
        # mid leaves crossing e1 and arrives at crossing e2:
        # strand runs s_in -> e1 -> mid -> e2 -> s_out
        strand_in_slot = _partner_in_slot(d, e1_ci, e1_slot)
        strand_out_slot = _partner_out_slot(d, e2_ci, e2_slot)
        s_in = d.crossings[e1_ci][strand_in_slot]
        s_out = d.crossings[e2_ci][strand_out_slot]
        # after the move: s_in -> e2 -> mid -> e1 -> s_out
        crossings[e1_ci][strand_in_slot] = mid
        crossings[e1_ci][e1_slot] = s_out
        crossings[e2_ci][e2_slot] = s_in
        crossings[e2_ci][strand_out_slot] = mid

    for mid in (alpha, beta, gamma):
        reroute(mid)
    return Diagram([tuple(c) for c in crossings], free_loops=d.free_loops)


def _partner_in_slot(d: Diagram, ci: int, out_slot: int) -> int:
    """The incoming slot of the same strand that exits at `out_slot`."""
    if out_slot == 2:
        return 0
    o = d.over_in[ci]
    if out_slot == 4 - o:
        return o
    raise PatternMismatch(f"slot {out_slot} at crossing {ci} is not an exit")


def _partner_out_slot(d: Diagram, ci: int, in_slot: int) -> int:
    if in_slot == 0:
        return 2
    o = d.over_in[ci]
    if in_slot == o:
        return 4 - o
    raise PatternMismatch(f"slot {in_slot} at crossing {ci} is not an entry")
