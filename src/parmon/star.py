"""The induced product on irreducible words.

Concatenate, then take the left standard normal form.  On a confluent
system this product is associative and turns the irreducible words into
a monoid isomorphic to the quotient of all words by convertibility; on
a non-confluent system associativity already fails on one-letter words
drawn from any A0 fork.  Either way each bracketing of u, v, w stays
convertible to the plain concatenation, so associativity always holds
modulo convertibility.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .confluence import is_confluent
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
    max_len: int
    associative: bool
    counterexamples: tuple[AssocCounterexample, ...]
    congruence_check: dict[tuple[Word, Word, Word], bool]

    @property
    def counterexample(self) -> Optional[AssocCounterexample]:
        return self.counterexamples[0] if self.counterexamples else None


def associativity_search(m: PartialMonoid, max_len: int,
                         find_all: bool = False,
                         check_congruence: bool = False) -> AssocReport:
    """Test both bracketings on every irreducible triple up to max_len.

    Triples run in enumeration order (shortest first, then lex), so the
    first counterexample is deterministic.  With find_all every failing
    triple is collected instead of stopping at the first.

    Every word here is irreducible, so star is lstd without its checks;
    lstd(lstd(s) + t) = lstd(s + t) makes (u*v)*w just lstd(u + v + w).
    """
    irr = enumerate_irreducible(m, max_len)
    found = []
    congruence: dict[tuple[Word, Word, Word], bool] = {}
    for u, v, w in itertools.product(irr, repeat=3):
        left = lstd(m, u + v + w)
        right = lstd(m, u + lstd(m, v + w))
        if check_congruence:
            path = convertible_bounded(m, left, right,
                                       len(u) + len(v) + len(w))
            congruence[(u, v, w)] = path is not None
        if left != right:
            found.append(AssocCounterexample(u, v, w, left, right))
            if not find_all:
                break
    return AssocReport(max_len, not found, tuple(found), congruence)


def assoc_modulo_congruence(m: PartialMonoid, max_len: int
                            ) -> dict[tuple[Word, Word, Word], bool]:
    """Check each triple's bracketings for convertibility, not equality.

    The search is capped at the combined letter count of the triple;
    the conversion through the plain concatenation fits under that cap,
    so on a valid monoid every entry should come back True.  False
    records a search that found nothing within the bound.
    """
    report = associativity_search(m, max_len, find_all=True,
                                  check_congruence=True)
    return report.congruence_check


def associativity_iff_confluence(m: PartialMonoid, max_len: int) -> bool:
    """Does the associativity verdict at this bound match confluence?

    One direction is exact: a non-confluent system has a one-letter
    counterexample, found at any max_len >= 1.  The other is sampled up
    to the bound.
    """
    return associativity_search(m, max_len).associative == is_confluent(m).confluent


def quotient_representatives(m: PartialMonoid, max_len: int
                             ) -> dict[Word, tuple[Word, ...]]:
    """Group all words up to max_len by their left standard normal form.

    Only meaningful when the system is confluent, so non-confluent input
    is refused.  Each class is keyed by its one irreducible member, and
    membership is rechecked by an explicit conversion search.
    """
    verdict = is_confluent(m)
    if not verdict.confluent:
        raise ValueError("monoid is not confluent; classes would collide")
    classes: dict[Word, list[Word]] = {}
    for length in range(max_len + 1):
        for w in itertools.product(range(len(m.elements)), repeat=length):
            classes.setdefault(lstd(m, w), []).append(w)
    for rep, members in classes.items():
        irreducible_members = [w for w in members if is_irreducible(m, w)]
        if irreducible_members != [rep]:
            raise RuntimeError(f"class of {rep} has irreducible members "
                               f"{irreducible_members}")
        for w in members:
            if convertible_bounded(m, w, rep) is None:
                raise RuntimeError(f"no conversion found from {w} to {rep}")
    return {rep: tuple(members) for rep, members in classes.items()}
