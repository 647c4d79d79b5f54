"""Exact integer homology of bigraded complexes.

The boundaries of a ``BigradedComplex`` are sparse columns, one
``{row: entry}`` dict of Python integers per generator.  One check
(``BigradedComplex.check``) shows that their shape fits the groups,
that they preserve q and that d^2 = 0 exactly.  The complex is then the
direct sum of its q-slices, and each slice is reduced on its own and
dropped before the next.  Every +-1 entry of a slice is cancelled by
Gaussian elimination (Bar-Natan, *Fast Khovanov homology computations*,
math/0606318): an invertible entry a = d(c -> r) splits off the
contractible summand c -> r, and every other pair gets
d(c' -> r') -= d(c -> r') a^-1 d(c' -> r).  This is a homotopy
equivalence, so torsion survives intact.  The few generators left split
into small blocks per degree h, and each block's homology is read off
from the Smith normal forms of its boundaries in and out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .chain import NotAComplex
from .snf import snf_diagonal

__all__ = ["HomologyTable", "NotAComplex", "homology"]


@dataclass(frozen=True)
class HomologyTable:
    """Betti numbers and torsion invariant factors per bidegree (h, q).

    entries maps (h, q) -> (betti, torsion) with torsion a tuple of
    successive invariant factors >= 2.  Bidegrees with trivial homology
    are omitted.
    """

    entries: dict = field(default_factory=dict)

    def betti(self, h: int, q: int) -> int:
        return self.entries.get((h, q), (0, ()))[0]

    def torsion(self, h: int, q: int) -> tuple:
        return self.entries.get((h, q), (0, ()))[1]

    def bidegrees(self):
        return sorted(self.entries)

    def iter_bidegrees(self):
        for (h, q), (betti, _) in sorted(self.entries.items()):
            if betti:
                yield h, q, betti

    def group_rows(self):
        """Sorted (h, q, betti, torsion) rows for display/serialization."""
        return [(h, q, b, t) for (h, q), (b, t) in sorted(self.entries.items())]

    def __eq__(self, other):
        if not isinstance(other, HomologyTable):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(tuple(sorted(
            (hq, b, tuple(t)) for hq, (b, t) in self.entries.items())))


def _graph(c, gens):
    """The degree h of each id of the q-slice of `c` on `gens` (h -> its
    generator indices, in the order the ids take), and the boundary both
    ways: out[g] maps each target of g to its coefficient, inc[g] each
    source.  Needs ``c.check()`` to have passed: no row then leaves the
    slice."""
    degree: list[int] = []
    ids: dict[int, dict[int, int]] = {}
    for h, idx in gens.items():
        ids[h] = dict(zip(idx, range(len(degree), len(degree) + len(idx))))
        degree += [h] * len(idx)
    out: dict[int, dict[int, int]] = {g: {} for g in range(len(degree))}
    inc: dict[int, dict[int, int]] = {g: {} for g in range(len(degree))}
    for h, cols in c.boundaries.items():
        for i in gens.get(h, ()):
            src = ids[h][i]
            for r, a in cols[i].items():
                dst = ids[h + 1][r]
                out[src][dst] = inc[dst][src] = a
    return degree, out, inc


def _cancel(src, dst, out, inc):
    """Split off the summand src -> dst, whose coefficient is a unit."""
    targets = out.pop(src)
    sources = inc.pop(dst)
    a = targets.pop(dst)
    del sources[src]
    for g in targets:
        del inc[g][src]
    for g in sources:
        del out[g][dst]
    for g in inc.pop(src):
        del out[g][src]
    for g in out.pop(dst):
        del inc[g][dst]
    for s, b in sources.items():
        row = out[s]
        for t, e in targets.items():
            v = row.get(t, 0) - e * a * b
            if v:
                row[t] = inc[t][s] = v
            else:
                row.pop(t, None)
                inc[t].pop(s, None)


def _cancel_units(out, inc):
    """Cancel +-1 entries, in generator order, until none is left."""
    progress = True
    while progress:
        progress = False
        for src in list(out):
            dst = next((t for t, a in out.get(src, {}).items()
                        if a in (1, -1)), None)
            if dst is not None:
                _cancel(src, dst, out, inc)
                progress = True


def _snf_of_block(out, cols, rows):
    """Rank and torsion of the boundary from `cols` to `rows`."""
    block = [[out[c].get(r, 0) for c in cols] for r in rows]
    if not any(any(row) for row in block):
        return 0, ()
    diag = snf_diagonal(block)
    return len(diag), tuple(d for d in diag if d > 1)


def _slice_homology(c, q, gens, entries):
    """Add the homology of the q-slice of `c` on `gens` to `entries`."""
    degree, out, inc = _graph(c, gens)
    _cancel_units(out, inc)
    residue: dict[int, list[int]] = {}
    for g in out:
        residue.setdefault(degree[g], []).append(g)
    # rank and torsion of the boundary leaving each degree
    leaving = {h: _snf_of_block(out, ids, residue[h + 1])
               for h, ids in residue.items() if h + 1 in residue}
    for h, ids in residue.items():
        rank_out, _ = leaving.get(h, (0, ()))
        rank_in, torsion = leaving.get(h - 1, (0, ()))
        betti = len(ids) - rank_out - rank_in
        if betti < 0:
            raise NotAComplex(
                f"negative rank at (h={h}, q={q}): not a complex")
        if betti or torsion:
            entries[(h, q)] = (betti, torsion)


def homology(c) -> HomologyTable:
    """Integer homology of a BigradedComplex, exact over Z, per q-slice."""
    c.check()
    slices: dict[int, dict[int, list[int]]] = {}
    for h in c.degrees():
        for i, q in enumerate(c.groups[h]):
            slices.setdefault(q, {}).setdefault(h, []).append(i)
    entries: dict = {}
    for q in sorted(slices):
        _slice_homology(c, q, slices.pop(q), entries)
    return HomologyTable(entries)
