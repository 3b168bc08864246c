"""Confluence of the induced rewriting system.

Two routes to the same verdict.  The direct route classifies the
essential forks: every triple (x, y, z) with x*y = a and y*z = b forks
the word x y z into a z and x b, and the fork is

    B   when (a, z) is defined -- the two sides rejoin in one step,
    A1  when (a, z) is undefined but a = x and b = z -- both sides are
        already the same irreducible pair of letters,
    A0  otherwise -- two distinct irreducible results.

The system is confluent exactly when no fork is A0; an A0 fork never
involves the identity anywhere.  The forks of one defined pair (x, y)
are the right partners z of y, the set bits of ``m.right[y]``, and the
B ones are those that are right partners of a as well.  So the A forks
of (x, y) are the set bits of ``right[y] & ~right[a]``, in ascending z,
and the verdict walks only those: on a group there are none at all.

The oracle route checks every critical pair of the rule set for a
common reduct.  The pairs come from the standard superposition
construction: the staggered overlap of two left sides, x y against
y z on the word x y z, and the erasing rule inside a left side that
contains the identity letter.  A terminating system is confluent
exactly when all critical pairs converge, so both routes must agree.
An inclusion pair has two equal sides: erasing e from e y leaves y,
and contracting it gives e*y = y (likewise x e), so only the overlaps
need a walk.  An overlap pair whose two sides contract in one step to
the same letter converges too; for one (x, y), comparing the row of
(x*y)*z over every z with the row of x*(y*z), as validate does, finds
all of them at once when the rows agree, and only the other pairs need
their normal forms.  Rows differ only on an invalid table, and then
every overlap pair of (x, y) gets them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .monoid import PartialMonoid, set_bits, totalized
from .rewriting import normal_forms
from .words import Word


class PairClass(enum.Enum):
    A0 = "A0"
    A1 = "A1"
    B = "B"


class EssentialTriple(NamedTuple):
    x: int
    y: int
    z: int
    a: int  # x*y
    b: int  # y*z
    kind: PairClass

    @property
    def pair(self) -> tuple[Word, Word]:
        return ((self.a, self.z), (self.x, self.b))


def _classified(m: PartialMonoid) -> Iterator[tuple[int, int, int, int, int, PairClass]]:
    """Every fork as (x, y, z, a, b, kind), in (x, y, z) index order."""
    rows = m.rows
    partners = [tuple(set_bits(mask)) for mask in m.right]
    # locals, because an enum attribute lookup costs more than the test
    B, A1, A0 = PairClass.B, PairClass.A1, PairClass.A0
    for x, y, a in m.products:
        row_a, row_y = rows[a], rows[y]
        for z in partners[y]:
            b = row_y[z]
            if row_a[z] is not None:
                yield x, y, z, a, b, B
            elif a == x and b == z:
                yield x, y, z, a, b, A1
            else:
                yield x, y, z, a, b, A0


def essential_critical_pairs(m: PartialMonoid) -> list[EssentialTriple]:
    """Classify every fork, in (x, y, z) index order.  Assumes m validates."""
    return list(map(EssentialTriple._make, _classified(m)))


@dataclass(frozen=True)
class ConfluenceVerdict:
    a0_witnesses: tuple[EssentialTriple, ...]

    @property
    def confluent(self) -> bool:
        return not self.a0_witnesses


def is_confluent(m: PartialMonoid) -> ConfluenceVerdict:
    """Walk the A forks of each defined pair; only the A0 ones become witnesses."""
    rows, right = m.rows, m.right
    A0 = PairClass.A0
    a0 = []
    for x, y, a in m.products:
        open_forks = right[y] & ~right[a]
        if open_forks:
            row_y = rows[y]
            for z in set_bits(open_forks):
                b = row_y[z]
                if a != x or b != z:
                    a0.append(EssentialTriple(x, y, z, a, b, A0))
    return ConfluenceVerdict(tuple(a0))


def newman_check(m: PartialMonoid) -> bool:
    """Confluence via local confluence: every critical pair converges.

    Walks the overlap pairs (a z, x b) of the forks in (x, y, z) order
    and stops at the first pair whose sides share no normal form.  The
    inclusion pairs have equal sides and need no check, and neither
    does a pair whose sides contract in one step to the same letter.
    When the rows of (x*y)*z and x*(y*z) agree over every z, those are
    exactly the pairs with a*z defined, so only the bits of
    ``right[y] & ~right[a]`` are left; otherwise every bit of
    ``right[y]`` is walked, and each extra pair converges anyway.
    Each word's normal forms are computed once, when a pair first needs
    them.
    """
    rows, right = m.rows, m.right
    T, times = totalized(m)
    forms: dict[Word, frozenset[Word]] = {}

    def nf(w: Word) -> frozenset[Word]:
        f = forms.get(w)
        if f is None:
            f = forms[w] = normal_forms(m, w)
        return f

    for x, y, a in m.products:
        zs = right[y] & ~right[a] if T[a] == times[y](T[x]) else right[y]
        if not zs:
            continue
        row_y = rows[y]
        for z in set_bits(zs):
            if not nf((a, z)) & nf((x, row_y[z])):
                return False
    return True
