"""Exact integer homology of bigraded complexes.

The boundaries of a ``BigradedComplex`` are sparse columns, one
``{row: entry}`` dict of Python integers per generator, and d^2 = 0 is
checked exactly on them.  Every +-1 entry of the complex is then
cancelled by Gaussian elimination (Bar-Natan, *Fast Khovanov
homology computations*, math/0606318): an invertible entry a = d(c -> r)
splits off the contractible summand c -> r, and every other pair gets
d(c' -> r') -= d(c -> r') a^-1 d(c' -> r).  This is a homotopy
equivalence, so torsion survives intact.  The boundary maps preserve
the quantum grading, so the few generators left split into small blocks
per bidegree, and each block's homology is read off from the Smith
normal forms of its incoming and outgoing boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .snf import snf_diagonal

__all__ = ["HomologyTable", "NotAComplex", "homology"]


class NotAComplex(ValueError):
    pass


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


def _graph(c):
    """Generators as ids with their (h, q), and the boundary both ways.

    out[g] maps each target of g to its coefficient and inc[g] each
    source.  Raises NotAComplex for an entry that changes the quantum
    degree or names no generator of degree h + 1.
    """
    grading: list[tuple[int, int]] = []
    first: dict[int, int] = {}
    for h in c.degrees():
        first[h] = len(grading)
        grading += [(h, q) for q in c.groups[h]]
    out: dict[int, dict[int, int]] = {g: {} for g in range(len(grading))}
    inc: dict[int, dict[int, int]] = {g: {} for g in range(len(grading))}
    for h in c.degrees():
        qs_next = c.groups.get(h + 1, [])
        size = len(qs_next)
        for col_idx, col in enumerate(c.boundaries.get(h, ())):
            src, q = first[h] + col_idx, c.groups[h][col_idx]
            for row_idx, a in col.items():
                if row_idx >= size or qs_next[row_idx] != q:
                    raise NotAComplex(
                        f"d_{h} entry ({row_idx}, {col_idx}) does not map "
                        f"into degree (h={h + 1}, q={q})")
                dst = first[h + 1] + row_idx
                out[src][dst] = a
                inc[dst][src] = a
    return grading, out, inc


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


def homology(c) -> HomologyTable:
    """Integer homology of a BigradedComplex, exact over Z."""
    if not c.check_d_squared():
        raise NotAComplex("boundary maps do not square to zero")
    grading, out, inc = _graph(c)
    _cancel_units(out, inc)
    residue: dict[tuple[int, int], list[int]] = {}
    for g in out:
        residue.setdefault(grading[g], []).append(g)
    # rank and torsion of the boundary leaving each bidegree
    leaving = {(h, q): _snf_of_block(out, gens, residue[(h + 1, q)])
               for (h, q), gens in residue.items() if (h + 1, q) in residue}
    entries: dict = {}
    for (h, q), gens in residue.items():
        rank_out, _ = leaving.get((h, q), (0, ()))
        rank_in, torsion = leaving.get((h - 1, q), (0, ()))
        betti = len(gens) - rank_out - rank_in
        if betti < 0:
            raise NotAComplex(
                f"negative rank at (h={h}, q={q}): not a complex")
        if betti or torsion:
            entries[(h, q)] = (betti, torsion)
    return HomologyTable(entries)
