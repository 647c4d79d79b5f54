"""Reidemeister moves on PD codes, for the invariance tests.

``apply_move(d, MoveSpec(kind, site, chirality))`` rewrites a diagram by
one move and returns the new ``Diagram``; a site that does not exist
raises ``SiteNotFound`` and one that has the wrong shape raises
``PatternMismatch``, both ``DiagramError``s.  The moves rewire PD codes
only: they do not check that a site bounds a face, so a move can change
the genus of the surface a code lives on (an R2+ at two arcs that share
no face gives a non-planar code).  The frozen moved presentations in
``khoarrow.corpus`` came from here.
"""

from __future__ import annotations

from dataclasses import dataclass

from khoarrow.diagram import Diagram, DiagramError


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


def endpoints(d: Diagram, arc: int) -> list[tuple[int, int]]:
    """The two (crossing, slot) positions of an arc."""
    return [(ci, slot) for ci, c in enumerate(d.crossings)
            for slot, a in enumerate(c) if a == arc]


def head(d: Diagram, arc: int) -> tuple[int, int]:
    """The (crossing, slot) where `arc` arrives: its end at slot 0 or at
    the crossing's incoming over-slot."""
    return next((ci, slot) for ci, slot in endpoints(d, arc)
                if slot in (0, d.over_in[ci]))


def fresh_label(d: Diagram) -> int:
    return max(d.arcs, default=0) + 1


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
    a2 = fresh_label(d)
    loop = a2 + 1
    # the strand runs arc -> kink -> a2 on to the old head of arc
    crossings = [list(c) for c in d.crossings]
    ci, slot = head(d, arc)
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
    nl = fresh_label(d)
    a2, mm, b2, pp = nl, nl + 1, nl + 2, nl + 3
    crossings = [list(c) for c in d.crossings]
    for arc, new in ((a, a2), (b, b2)):
        ci, slot = head(d, arc)
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
    ends = {arc: endpoints(d, arc) for arc in m.site}

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
        h, h_slot = arrival = head(d, mid)
        t, t_slot = next(e for e in ends[mid] if e != arrival)
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
