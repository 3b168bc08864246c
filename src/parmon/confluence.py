"""Confluence of the induced rewriting system.

Two routes to the same verdict.  The direct route classifies the
essential forks: every triple (x, y, z) with x*y = a and y*z = b forks
the word x y z into a z and x b, and the fork is

    B   when (a, z) is defined -- the two sides rejoin in one step,
    A1  when (a, z) is undefined but a = x and b = z -- both sides are
        already the same irreducible pair of letters,
    A0  otherwise -- two distinct irreducible results.

The system is confluent exactly when no fork is A0; an A0 fork never
involves the identity anywhere.

The oracle route builds every critical pair of the rule set by the
standard superposition construction (staggered overlaps of two left
sides, and containment of one left side in another) and checks each
pair for a common reduct.  A terminating system is confluent exactly
when all critical pairs converge, so both routes must agree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .monoid import PartialMonoid, forks
from .rewriting import normal_forms
from .words import Word


class PairClass(enum.Enum):
    A0 = "A0"
    A1 = "A1"
    B = "B"


@dataclass(frozen=True)
class EssentialTriple:
    x: int
    y: int
    z: int
    a: int  # x*y
    b: int  # y*z
    kind: PairClass

    @property
    def pair(self) -> tuple[Word, Word]:
        return ((self.a, self.z), (self.x, self.b))


def essential_critical_pairs(m: PartialMonoid) -> list[EssentialTriple]:
    """Classify every fork, in (x, y, z) index order.  Assumes m validates."""
    out = []
    for x, y, z, a, b in forks(m):
        if m.rows[a][z] is not None:
            kind = PairClass.B
        elif a == x and b == z:
            kind = PairClass.A1
        else:
            kind = PairClass.A0
        out.append(EssentialTriple(x, y, z, a, b, kind))
    return out


@dataclass(frozen=True)
class ConfluenceVerdict:
    confluent: bool
    a0_witnesses: tuple[EssentialTriple, ...]
    method: str


def is_confluent(m: PartialMonoid) -> ConfluenceVerdict:
    a0 = tuple(t for t in essential_critical_pairs(m) if t.kind is PairClass.A0)
    return ConfluenceVerdict(not a0, a0, "essential")


# ------------------------------------------------------------------ generic pairs

@dataclass(frozen=True)
class GenericCriticalPair:
    """A fork of one word by two rule applications.

    source is the superposition word; applying rule1 at pos1 gives
    pair[0], rule2 at pos2 gives pair[1].  kind is "overlap" for
    staggered left sides and "inclusion" for one left side inside the
    other.  Self-superposition of a rule at its own position is not a
    fork and is excluded.
    """

    kind: str
    rule1: tuple[Word, Word]
    pos1: int
    rule2: tuple[Word, Word]
    pos2: int
    source: Word
    pair: tuple[Word, Word]


def apply_rule(rule: tuple[Word, Word], w: Word, pos: int) -> Word:
    lhs, rhs = rule
    if w[pos:pos + len(lhs)] != lhs:
        raise ValueError("rule does not match at position")
    return w[:pos] + rhs + w[pos + len(lhs):]


def generic_critical_pairs(m: PartialMonoid) -> list[GenericCriticalPair]:
    """All critical pairs of the rule set, in deterministic order."""
    e = m.identity
    erase: tuple[Word, Word] = ((e,), ())
    out = []
    # overlaps: lhs (x, y) at 0 against lhs (y, z) at 1 on the word x y z
    for x, y, z, a, b in forks(m):
        r1: tuple[Word, Word] = ((x, y), (a,))
        r2: tuple[Word, Word] = ((y, z), (b,))
        out.append(GenericCriticalPair(
            "overlap", r1, 0, r2, 1, (x, y, z), ((a, z), (x, b))))
    # inclusions: the erasing rule inside a product left side
    for x, y, z in m.products:
        outer: tuple[Word, Word] = ((x, y), (z,))
        for p, letter in enumerate((x, y)):
            if letter == e:
                source: Word = (x, y)
                out.append(GenericCriticalPair(
                    "inclusion", outer, 0, erase, p, source,
                    ((z,), source[:p] + source[p + 1:])))
    return out


def newman_check(m: PartialMonoid) -> bool:
    """Confluence via local confluence: every critical pair converges.

    A pair converges when its sides share a normal form; each distinct
    word's normal forms are computed once.
    """
    pairs = [cp.pair for cp in generic_critical_pairs(m)]
    forms = {w: normal_forms(m, w) for w in {w for pair in pairs for w in pair}}
    return all(forms[u] & forms[v] for u, v in pairs)
