"""The induced product on irreducible words.

Concatenate, then take the left standard normal form.  On a confluent
system this product is associative and turns the irreducible words into
a monoid isomorphic to the quotient of all words by convertibility; on
a non-confluent system associativity already fails on one-letter words
drawn from any A0 fork.  Either way each bracketing of u, v, w stays
convertible to the plain concatenation, so associativity always holds
modulo convertibility.

Bracketing law: for irreducible v and w with v + w irreducible,
lstd(v + w) = v + w, so both bracketings of u, v, w are lstd(u + v + w)
and the triple cannot be a counterexample, on any table.  Two
irreducible words concatenate to an irreducible word exactly when one
is empty or their boundary letters do not compose.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .monoid import PartialMonoid
from .rewriting import convertible_bounded, lstd
from .words import Word, enumerate_irreducible, is_irreducible


def star(m: PartialMonoid, u: Word, v: Word) -> Word:
    """u * v = lstd(u + v), for irreducible u and v."""
    if not is_irreducible(m, u):
        raise ValueError("left factor is not irreducible")
    if not is_irreducible(m, v):
        raise ValueError("right factor is not irreducible")
    return lstd(m, u + v)


@dataclass(frozen=True)
class AssocCounterexample:
    u: Word
    v: Word
    w: Word
    left: Word   # (u * v) * w
    right: Word  # u * (v * w)


@dataclass
class AssocReport:
    counterexamples: tuple[AssocCounterexample, ...]

    @property
    def associative(self) -> bool:
        return not self.counterexamples

    @property
    def counterexample(self) -> Optional[AssocCounterexample]:
        return self.counterexamples[0] if self.counterexamples else None


def _open_pairs(m: PartialMonoid, irr: list[Word]) -> list[tuple[Word, Word, Word]]:
    """(v, w, lstd(v + w)) for the pairs whose boundary letters compose.

    By the bracketing law only triples with such a (v, w) can fail.
    Pairs come in product order, so looping u outside keeps the triples
    in enumeration order.
    """
    rows = m.rows
    return [(v, w, lstd(m, v + w)) for v, w in itertools.product(irr, repeat=2)
            if v and w and rows[v[-1]][w[0]] is not None]


def associativity_search(m: PartialMonoid, max_len: int,
                         find_all: bool = False) -> AssocReport:
    """Test both bracketings on every irreducible triple up to max_len.

    Triples run in enumeration order (shortest first, then lex), so the
    first counterexample is deterministic.  With find_all every failing
    triple is collected instead of stopping at the first.

    Every word here is irreducible, so star is lstd without its checks;
    lstd(lstd(s) + t) = lstd(s + t) makes (u*v)*w just lstd(u + v + w).
    By the bracketing law only the (v, w) whose boundary letters compose
    can fail, so just those pairs are visited, each lstd(v + w) computed
    once.
    """
    irr = enumerate_irreducible(m, max_len)
    pairs = _open_pairs(m, irr)
    found = []
    for u in irr:
        for v, w, vw in pairs:
            left = lstd(m, u + v + w)
            right = lstd(m, u + vw)
            if left != right:
                found.append(AssocCounterexample(u, v, w, left, right))
                if not find_all:
                    return AssocReport(tuple(found))
    return AssocReport(tuple(found))


def assoc_modulo_congruence(m: PartialMonoid, max_len: int
                            ) -> dict[tuple[Word, Word, Word], bool]:
    """Check each triple's bracketings for convertibility, not equality.

    The search is capped at the combined letter count of the triple;
    the conversion through the plain concatenation fits under that cap,
    so on a valid monoid every entry should come back True.  False
    records a search that found nothing within the bound.  A triple the
    bracketing law settles has equal bracketings and is recorded True,
    as the search would return for equal words.
    """
    irr = enumerate_irreducible(m, max_len)
    pairs = _open_pairs(m, irr)
    congruence = dict.fromkeys(itertools.product(irr, repeat=3), True)
    for u in irr:
        for v, w, vw in pairs:
            left = lstd(m, u + v + w)
            right = lstd(m, u + vw)
            congruence[(u, v, w)] = convertible_bounded(
                m, left, right, len(u) + len(v) + len(w)) is not None
    return congruence

