"""Confluence of the induced rewriting system.

Two routes to the same verdict.  The direct route classifies the
essential forks: every triple (x, y, z) with x*y = a and y*z = b forks
the word x y z into a z and x b.  A fork is the plain tuple
(x, y, z, a, b), and its class is one of the label strings

    "B"   when (a, z) is defined -- the two sides rejoin in one step,
    "A1"  when (a, z) is undefined but a = x and b = z -- both sides
          are already the same irreducible pair of letters,
    "A0"  otherwise -- two distinct irreducible results.

The system is confluent exactly when no fork is A0; an A0 fork never
involves the identity anywhere.  The forks of one defined pair (x, y)
are the right partners z of y, the set bits of ``m.right[y]``, and the
B ones are those that are right partners of a as well.  So the A forks
of (x, y) are the set bits of ``right[y] & ~right[a]``, in ascending z:
on a group there are none at all.  An A fork is A1 exactly when a = x
and y*z = z, so the A0 forks of (x, y) are the bits of one int, that
mask less ``fixed[y]`` (the z with y*z = z) when a = x, and the mask
itself otherwise.  The verdict's one fact is those masks, one row
(x, y, a, mask) per defined pair with a nonzero mask; no loop runs
over their bits, and the witnesses are read off them only when asked.
The catenary test reads the same masks: a table is catenary exactly
when no A fork has a non-identity middle y.

The oracle route checks every critical pair of the rule set for a
common reduct.  The pairs come from the standard superposition
construction: the staggered overlap of two left sides, x y against
y z on the word x y z, and the erasing rule inside a left side that
contains the identity letter.  A terminating system is confluent
exactly when all critical pairs converge, so both routes must agree.
An inclusion pair has two equal sides: erasing e from e y leaves y,
and contracting it gives e*y = y (likewise x e), so only the overlaps
need a walk.  On a table where the chain law holds, an overlap pair
with a*z defined contracts in one step to one letter on both sides, so
only the other pairs are compared; on any other table every overlap
pair is.  Both sides of an overlap pair are two-letter words,
and a word of at most two letters has exactly one normal form on every
table, valid or not: its lstd.  So a pair converges exactly when the
lstd of its two sides agree.

On a valid table (the chain law holds) the system is confluent exactly
when no fork is A0, and a terminating confluent system gives each word
exactly one normal form; lstd(w) is one, so it is the one.  normal_forms
answers such tables from that law.  On every other table, including an
invalid one with no A0 fork, where a B fork need not rejoin, normal form
sets come from rewriting's sweep down the length layers.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .monoid import PartialMonoid, chain_law_holds
from .rewriting import _lstd, _sweep
from .words import Word, check_word


def set_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def essential_critical_pairs(
        m: PartialMonoid) -> Iterator[tuple[int, int, int, int, int, str]]:
    """Every fork with its label, as (x, y, z, a, b, label), in (x, y, z)
    index order.  Its critical pair is ((a, z), (x, b))."""
    rows = m.rows
    partners = [tuple(set_bits(mask)) for mask in m.right]
    for x, y, a in m.products:
        row_a, row_y = rows[a], rows[y]
        for z in partners[y]:
            b = row_y[z]
            if row_a[z] is not None:
                yield x, y, z, a, b, "B"
            elif a == x and b == z:
                yield x, y, z, a, b, "A1"
            else:
                yield x, y, z, a, b, "A0"


class ConfluenceVerdict(NamedTuple):
    """The A0 forks of ``monoid`` as mask rows, in (x, y) order: one
    (x, y, a, mask) per defined pair (x, y) with a = x*y that has any,
    bit z of mask set for each A0 fork (x, y, z)."""

    monoid: PartialMonoid
    a0_rows: tuple[tuple[int, int, int, int], ...]

    @property
    def confluent(self) -> bool:
        return not self.a0_rows

    @property
    def a0_witnesses(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """Every A0 fork (x, y, z, a, b), in (x, y, z) order."""
        rows = self.monoid.rows
        return tuple([(x, y, z, a, rows[y][z]) for x, y, a, mask in self.a0_rows
                      for z in set_bits(mask)])


def is_confluent(m: PartialMonoid) -> ConfluenceVerdict:
    """m's A0 mask rows as a verdict, which refers to m and is not kept,
    so m holds no cycle."""
    return ConfluenceVerdict(m, _a0_rows(m))


def _a0_rows(m: PartialMonoid) -> tuple[tuple[int, int, int, int], ...]:
    """One A0 mask per defined pair, with no walk over its bits.

    ``fixed[y]``, the mask of the z with y*z = z, is computed once, and
    only for a y with some A fork at a pair (x, y) with x*y = x.  The
    rows are computed once per table and kept in ``m._a0_rows``.
    """
    if m._a0_rows is None:
        rows, right = m.rows, m.right
        fixed: dict[int, int] = {}
        a0 = []
        for x, y, a in m.products:
            mask = right[y] & ~right[a]
            if mask:
                if a == x:
                    f = fixed.get(y)
                    if f is None:
                        f = fixed[y] = sum(1 << z for z, c in enumerate(rows[y]) if c == z)
                    mask &= ~f
                if mask:
                    a0.append((x, y, a, mask))
        m._a0_rows = tuple(a0)
    return m._a0_rows


def normal_forms(m: PartialMonoid, w: Word) -> frozenset[Word]:
    """Every irreducible word reachable from w.

    When m is valid and has no A0 fork this is {lstd(w)}, the unique
    normal form.  Otherwise the reachable words are swept, and more than
    rewriting.MAX_REACHABLE_WORDS of them raise ValueError.
    """
    check_word(m, w)
    if chain_law_holds(m) and not _a0_rows(m):
        return frozenset({_lstd(m, w)})
    return _sweep(m, w)


def is_catenary(m: PartialMonoid) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Does definedness chain through non-identity middles?

    Catenary: whenever x*y and y*z are defined with y not the identity,
    (x*y)*z is defined too.  Returns (True, None) or (False, witness),
    the witness being the first such fork in (x, y, z) order: the lowest
    bit of the first nonzero A-fork mask, over non-identity y.
    """
    right, identity = m.right, m.identity
    for x, y, a in m.products:
        if y != identity:
            stuck = right[y] & ~right[a]
            if stuck:
                return False, (x, y, (stuck & -stuck).bit_length() - 1)
    return True, None


def newman_check(m: PartialMonoid) -> bool:
    """Confluence via local confluence: every critical pair converges.

    Walks the overlap pairs (a z, x b) of the forks in (x, y, z) order
    and stops at the first pair whose sides share no normal form.  The
    inclusion pairs have equal sides and need no check.  When the table's
    chain-law verdict holds, a pair with a*z defined contracts in one
    step to one letter on both sides, so only the bits of
    ``right[y] & ~right[a]`` are walked; otherwise every bit of
    ``right[y]`` is.  Both sides are two-letter words with one normal
    form each, their lstd, on any table; the A0 verdict this check
    confirms is never read.
    """
    rows, right = m.rows, m.right
    valid = chain_law_holds(m)
    for x, y, a in m.products:
        zs = right[y] & ~right[a] if valid else right[y]
        if not zs:
            continue
        row_y = rows[y]
        for z in set_bits(zs):
            if _lstd(m, (a, z)) != _lstd(m, (x, row_y[z])):
                return False
    return True
