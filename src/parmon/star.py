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
is empty or their boundary letters do not compose.  Nor can u = eps
fail: both sides are then lstd(v + w), since lstd's output is
irreducible and so its own lstd, on any table.

One-letter law: on a valid table take non-identity x, y, z with
b = y*z defined.  If x*y is undefined, both bracketings of
((x), (y), (z)) are lstd(x b).  If a = x*y is defined and a*z too,
the chain law gives x*b = a*z.  Otherwise (x, y, z) is an A fork, where
a and b are never the identity, and the sides are (a, z) and (x, b):
they differ exactly when the fork is A0.  So at max_len 1 the
counterexamples are is_confluent's A0 mask bits, in the same (x, y, z)
order.  On an invalid table the chain law fails, and the search runs
its loop instead.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .confluence import is_confluent, set_bits
from .magma import Leaf, Node, _chain, _convertible
from .monoid import PartialMonoid, chain_law_holds
from .rewriting import _lstd
from .words import Word, enumerate_irreducible, is_irreducible


def star(m: PartialMonoid, u: Word, v: Word) -> Word:
    """u * v = lstd(u + v), for irreducible u and v."""
    if not is_irreducible(m, u):
        raise ValueError("left factor is not irreducible")
    if not is_irreducible(m, v):
        raise ValueError("right factor is not irreducible")
    return _lstd(m, u + v)


class AssocCounterexample(NamedTuple):
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
MAX_TRIPLES = 2_000_000  # most triples associativity_search checks


def associativity_search(m: PartialMonoid, max_len: int,
                         find_all: bool = False) -> AssocReport:
    """Test both bracketings on every irreducible triple up to max_len.

    Triples run in enumeration order (shortest first, then lex), so the
    first counterexample is deterministic.  With find_all every failing
    triple is collected instead of stopping at the first.

    At max_len 1 on a valid table the counterexamples are read off the
    A0 masks, by the one-letter law.  Otherwise the triples are tested:
    every word here is an irreducible word the search built itself, so
    star is the stack pass of lstd without any of its checks, the range
    check included; lstd(lstd(s) + t) = lstd(s + t) makes (u*v)*w just
    lstd(u + v + w).  u = eps is skipped, and by the bracketing law only
    the (v, w) whose boundary letters compose can fail, so just those
    pairs are visited, each lstd(v + w) computed on first use.  It
    raises ValueError past MAX_COMPOSING_PAIRS of them, counted first,
    and before the first u whose pass would take the checked triples
    past MAX_TRIPLES.
    """
    rows = m.rows
    if max_len == 1 and chain_law_holds(m):
        # one A0 fork (x, y, z) each, sharing one word per letter
        letter = [(c,) for c in range(len(rows))]
        a0 = (AssocCounterexample(letter[x], letter[y], letter[z], (a, z), (x, rows[y][z]))
              for x, y, a, mask in is_confluent(m).a0_rows for z in set_bits(mask))
        return AssocReport(tuple(a0 if find_all else itertools.islice(a0, 1)))
    words = enumerate_irreducible(m, max_len)[1:]
    count = len(words) ** 2  # bounds the composing pairs; counted when a cap may bind
    if count > MAX_COMPOSING_PAIRS or len(words) * count > MAX_TRIPLES:
        last, first = Counter(v[-1] for v in words), Counter(w[0] for w in words)
        count = sum(last[x] * first[y] for x, y, _ in m.products)
        if count > MAX_COMPOSING_PAIRS:
            raise ValueError(f"more than {MAX_COMPOSING_PAIRS} composing pairs; lower max_len")
    passes = MAX_TRIPLES // count if count else len(words)
    pairs: list[tuple[Word, Word, Word]] = []

    def first_pass():
        # product order on the pairs, with u outside, is enumeration order
        for v, w in itertools.product(words, repeat=2):
            if rows[v[-1]][w[0]] is not None:
                pairs.append((v, w, _lstd(m, v + w)))
                yield pairs[-1]

    found = []
    for k, u in enumerate(words):
        if k == passes:
            raise ValueError(f"more than {MAX_TRIPLES} triples; lower max_len")
        for v, w, vw in (pairs if k else first_pass()):
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
