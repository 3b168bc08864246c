"""The induced product on irreducible words.

Concatenate, then take the left standard normal form.  On a confluent
system this product is associative and turns the irreducible words into
a monoid isomorphic to the quotient of all words by convertibility; on
a non-confluent system associativity already fails on one-letter words
drawn from any A0 fork.  Either way each bracketing of u, v, w is a
reduct of the plain concatenation, so associativity always holds
modulo convertibility; assoc_modulo_congruence checks that on the
counterexamples alone, since every other triple has equal bracketings.

Bracketing law: for irreducible v and w with v + w irreducible,
lstd(v + w) = v + w, so both bracketings of u, v, w are lstd(u + v + w)
and the triple cannot be a counterexample, on any table.  Two
irreducible words concatenate to an irreducible word exactly when one
is empty or their boundary letters do not compose.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .magma import Leaf, Node, _chain, _convertible
from .monoid import PartialMonoid
from .rewriting import _lstd
from .words import Word, enumerate_irreducible, is_irreducible


def star(m: PartialMonoid, u: Word, v: Word) -> Word:
    """u * v = lstd(u + v), for irreducible u and v."""
    if not is_irreducible(m, u):
        raise ValueError("left factor is not irreducible")
    if not is_irreducible(m, v):
        raise ValueError("right factor is not irreducible")
    return _lstd(m, u + v)


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


MAX_COMPOSING_PAIRS = 1_000_000  # most (v, w) pairs associativity_search holds


def associativity_search(m: PartialMonoid, max_len: int,
                         find_all: bool = False) -> AssocReport:
    """Test both bracketings on every irreducible triple up to max_len.

    Triples run in enumeration order (shortest first, then lex), so the
    first counterexample is deterministic.  With find_all every failing
    triple is collected instead of stopping at the first.

    Every word here is an irreducible word the search built itself, so
    star is the stack pass of lstd without any of its checks, the range
    check included; lstd(lstd(s) + t) = lstd(s + t) makes (u*v)*w just
    lstd(u + v + w).
    By the bracketing law only the (v, w) whose boundary letters compose
    can fail, so just those pairs are visited, each lstd(v + w) computed
    once; past MAX_COMPOSING_PAIRS of them, counted first, it raises ValueError.
    """
    irr = enumerate_irreducible(m, max_len)
    rows = m.rows
    if len(irr) ** 2 > MAX_COMPOSING_PAIRS:  # else the pairs are fewer anyway
        last, first = Counter(v[-1] for v in irr if v), Counter(w[0] for w in irr if w)
        if sum(last[x] * first[y] for x, y, _ in m.products) > MAX_COMPOSING_PAIRS:
            raise ValueError(f"more than {MAX_COMPOSING_PAIRS} composing pairs; lower max_len")
    # product order on the pairs, with u outside, is enumeration order
    pairs = [(v, w, _lstd(m, v + w)) for v, w in itertools.product(irr, repeat=2)
             if v and w and rows[v[-1]][w[0]] is not None]
    found = []
    for u in irr:
        for v, w, vw in pairs:
            left = _lstd(m, u + v + w)
            right = _lstd(m, u + vw)
            if left != right:
                found.append(AssocCounterexample(u, v, w, left, right))
                if not find_all:
                    return AssocReport(tuple(found))
    return AssocReport(tuple(found))


def assoc_modulo_congruence(m: PartialMonoid, max_len: int
                            ) -> dict[tuple[Word, Word, Word], bool]:
    """Check the counterexample triples' bracketings for convertibility.

    The keys are the counterexamples of associativity_search(m, max_len,
    find_all=True), in its order; every other irreducible triple has
    equal bracketings and needs no check.  Each value certifies, with
    parmon.magma's chains of ((u v) w) and (u (v w)), a conversion
    through u + v + w; that holds on every table.
    """
    report = associativity_search(m, max_len, find_all=True)
    return {(c.u, c.v, c.w): _convertible(
                m, _chain(m, Node(Node(Leaf(c.u), Leaf(c.v)), Leaf(c.w))),
                _chain(m, Node(Leaf(c.u), Node(Leaf(c.v), Leaf(c.w)))))
            for c in report.counterexamples}
