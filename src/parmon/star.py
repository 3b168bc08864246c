"""The induced product on irreducible words.

Concatenate, then take the left standard normal form.  Each bracketing
of u, v, w is a reduct of u + v + w, so associativity always holds
modulo convertibility; assoc_modulo_congruence checks that on the
counterexamples alone, since every other triple has equal bracketings,
as rotation invariance of ((u v) w), whose closure is its two bracketings.

Bracketing law, on any table: if v + w is irreducible (v or w is empty,
or their boundary letters do not compose), both bracketings of u, v, w
are lstd(u + v + w); if u = eps, both are lstd(v + w), since lstd's
output is its own lstd.

A0 law: on a valid table, a triple (u, v, w) of nonempty irreducible
words fails exactly when v is one letter y and (u[-1], y, w[0]) is an
A0 fork (x, y, z), with a = x*y and b = y*z; its sides are then
u[:-1] + (a,) + w and u + (b,) + w[1:].  So the product is associative
exactly when the system is confluent; the README's mathematics notes
prove the law from the chain law and lstd's stack pass.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterator, NamedTuple, Optional

from .confluence import is_confluent, set_bits
from .magma import Leaf, Node, verify_rotation_invariance
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


class AssocReport(NamedTuple):
    counterexamples: tuple[AssocCounterexample, ...]

    @property
    def associative(self) -> bool:
        return not self.counterexamples

    @property
    def counterexample(self) -> Optional[AssocCounterexample]:
        return self.counterexamples[0] if self.counterexamples else None


MAX_COUNTEREXAMPLES = 1_000_000  # most counterexamples the A0 law yields
MAX_COMPOSING_PAIRS = 1_000_000  # most (v, w) pairs _triple_search holds
MAX_TRIPLES = 2_000_000  # most triples _triple_search checks


def associativity_search(m: PartialMonoid, max_len: int, find_all: bool = False) -> AssocReport:
    """Every counterexample _counterexamples(m, max_len, find_all) yields, in one report."""
    return AssocReport(tuple(_counterexamples(m, max_len, find_all)))


def _counterexamples(m: PartialMonoid, max_len: int, find_all: bool
                     ) -> Iterator[AssocCounterexample]:
    """Test both bracketings on every irreducible triple up to max_len.

    Triples run in enumeration order (shortest first, then lex); the
    first failing one is yielded, or every one with find_all.  On a
    valid table the A0 law reads them off is_confluent's A0 mask rows,
    with no word reduced and none longer than one letter enumerated
    unless find_all meets an A0 fork.  Their count, from the tallies of
    the words' last and first letters, is held to MAX_COUNTEREXAMPLES
    before the first is yielded.  On an invalid table it runs _triple_search.
    """
    if not chain_law_holds(m):
        found = _triple_search(m, max_len)
    else:
        rows, a0_rows = m.rows, is_confluent(m).a0_rows
        if not find_all:  # the first A0 fork's one-letter triple
            a0_rows, max_len = a0_rows[:1], min(max_len, 1)
        words = enumerate_irreducible(m, max_len)[1:] if a0_rows else []
        last, starters = Counter(u[-1] for u in words), Counter()
        for z, c in Counter(w[0] for w in words).items():
            starters[c] |= 1 << z  # the mask of the letters that start c words each
        if sum(last[x] * c * (mask & zs).bit_count() for x, _, _, mask in a0_rows
               for c, zs in starters.items()) > MAX_COUNTEREXAMPLES:
            raise ValueError(f"more than {MAX_COUNTEREXAMPLES} counterexamples; lower max_len")
        starting: list[list[Word]] = [[] for _ in rows]
        for w in words:
            starting[w[0]].append(w)
        forks = {x: list(g) for x, g in itertools.groupby(a0_rows, key=lambda r: r[0])}
        # layers are grouped by first letter, so sorting by length keeps enumeration order
        found = (AssocCounterexample(u, (y,), w, u[:-1] + (a,) + w, u + (rows[y][w[0]],) + w[1:])
                 for u in words for _, y, a, mask in forks.get(u[-1], ())
                 for w in sorted([t for z in set_bits(mask) for t in starting[z]], key=len))
    yield from found if find_all else itertools.islice(found, 1)


def _triple_search(m: PartialMonoid, max_len: int) -> Iterator[AssocCounterexample]:
    """Yield _counterexamples' triples by testing them, on any table.

    u = eps is skipped, and by the bracketing law only the (v, w) whose
    boundary letters compose are visited, each lstd(v + w) on first use;
    (u*v)*w is lstd(u + v + w), unchecked, as every word is built here.
    Raises ValueError past MAX_COMPOSING_PAIRS pairs, counted before the
    first yield, and before the first u whose pass would take the checked
    triples past MAX_TRIPLES.  It never reads the A0 masks.
    """
    rows = m.rows
    words = enumerate_irreducible(m, max_len)[1:]
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

    for k, u in enumerate(words):
        if k == passes:
            raise ValueError(f"more than {MAX_TRIPLES} triples; lower max_len")
        for v, w, vw in (pairs if k else first_pass()):
            left, right = _lstd(m, u + v + w), _lstd(m, u + vw)
            if left != right:
                yield AssocCounterexample(u, v, w, left, right)


def assoc_modulo_congruence(m: PartialMonoid, max_len: int
                            ) -> dict[tuple[Word, Word, Word], bool]:
    """Check the counterexample triples' bracketings for convertibility.

    The keys are the triples of _counterexamples(m, max_len,
    find_all=True), in its order; every other irreducible triple has
    equal bracketings and needs no check.  Each value is
    verify_rotation_invariance of ((u v) w): its rotation closure is
    ((u v) w) and (u (v w)), so the two bracketings are certified to
    convert through u + v + w.  The certificate's steps are plain
    reductions on every table, so it holds on invalid tables too.
    """
    return {(u, v, w): verify_rotation_invariance(m, Node(Node(Leaf(u), Leaf(v)), Leaf(w)))
            for u, v, w, _, _ in _counterexamples(m, max_len, find_all=True)}
