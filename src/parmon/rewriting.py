"""String rewriting induced by a partial product, and the left standard strategy.

Two rule shapes: a two-letter factor whose product is defined contracts
to the product letter, and an identity letter erases.  Every step
shortens the word by one, so reduction terminates and the reachable-word
graph is a finite DAG, layered by word length.

The left standard strategy is the deterministic schedule: erase identity
letters first (leftmost first), then repeatedly contract the leftmost
defined adjacent pair.  When that pair multiplies to the identity the
freshly produced letter is erased in the same move; the chain law forces
the prefix left of such a pair to be empty.  The strategy reaches a
unique normal form, written lstd, and each of its moves is one or two
plain reduction steps, so lstd(w) is always one of w's normal forms.
One stack pass computes it, and records its plain steps when given a
list, which lstd_trace and the conversions of parmon.magma replay.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .monoid import CARRIER_CAP, PartialMonoid
from .words import Word, check_word


def _steps(m: PartialMonoid, w: Word) -> Iterator[tuple[int, Word]]:
    """Single reduction steps of a checked word, as (position, result)."""
    identity, rows = m.identity, m.rows
    for i, c in enumerate(w):
        if c == identity:
            yield i, w[:i] + w[i + 1:]
    for i in range(len(w) - 1):
        z = rows[w[i]][w[i + 1]]
        if z is not None:
            yield i, w[:i] + (z,) + w[i + 2:]


MAX_REACHABLE_WORDS = 1_000_000  # most words the normal form sweep will visit


def _sweep(m: PartialMonoid, w: Word) -> frozenset[Word]:
    """The normal forms of a checked word, by sweeping its reachable words.

    Identity letters of w are erased first: any step at one of them,
    erasing it or contracting it with a neighbour, gives the word
    without it, so the normal forms are those of w without them.  From
    there the words are swept one length layer at a time, so each word
    is expanded once.  The count of reachable words is checked against
    MAX_REACHABLE_WORDS as a layer grows, so an overflowing layer is
    never built in full.
    """
    cap = MAX_REACHABLE_WORDS
    forms = set()
    layer = {tuple(c for c in w if c != m.identity)}
    room = cap - 1  # words still allowed after the first
    while layer:
        nxt: set[Word] = set()
        for u in layer:
            succ = [r for _, r in _steps(m, u)]
            if succ:
                nxt.update(succ)
                if len(nxt) > room:
                    raise ValueError(f"more than {cap} reachable words; "
                                     "shorten the word")
            else:
                forms.add(u)
        room -= len(nxt)
        layer = nxt
    return frozenset(forms)


def lstd(m: PartialMonoid, w: Word) -> Word:
    """The left standard normal form."""
    check_word(m, w)
    return _lstd(m, w)


# the row an empty stack offers every letter: no products
_NO_PRODUCTS: tuple[None, ...] = (None,) * CARRIER_CAP


def _lstd(m: PartialMonoid, w: Word,
          moves: Optional[list[tuple[int, Optional[int]]]] = None) -> Word:
    """lstd of a word already known to be in range.

    Single left-to-right pass: keep the already-irreducible prefix on a
    stack; an incoming letter merges with the stack top while products
    are defined, and a merge to the identity drops both letters.  This
    is exactly the left standard schedule, without its rescans.  An
    identity letter is erased before any lookup.  The pass holds the
    row of the stack top in a local, and an empty stack reads the
    shared all-None row _NO_PRODUCTS, so only a contraction, which
    pops, asks whether the stack is empty.

    Given a list, the pass appends to moves each plain step (i, z) it
    makes: the letters at i and i + 1 contract to z, or the letter at i
    erases when z is None.  The word is the stack, the incoming letter
    and the unread rest, so a contraction with the stack top sits at
    len(stack) - 1 and an incoming identity letter is erased at
    len(stack): an annihilating pair is two steps.
    """
    identity, rows = m.identity, m.rows
    stack: list[int] = []
    top = _NO_PRODUCTS  # the row of the stack top
    for cur in w:
        while cur != identity:
            z = top[cur]
            if z is None:
                stack.append(cur)
                top = rows[cur]
                break
            stack.pop()
            top = rows[stack[-1]] if stack else _NO_PRODUCTS
            cur = z
            if moves is not None:
                moves.append((len(stack), z))
        else:
            if moves is not None:
                moves.append((len(stack), None))
    return tuple(stack)


def _apply(w: Word, i: int, z: Optional[int]) -> Word:
    """The word that the step (i, z) recorded by _lstd makes of w."""
    return w[:i] + w[i + 1:] if z is None else w[:i] + (z,) + w[i + 2:]


def lstd_trace(m: PartialMonoid, w: Word) -> Iterator[tuple[Word, int, Optional[int]]]:
    """The left standard moves of w, yielded lazily as (source, i, z).

    z is None: the identity letter at i erases.  z is the identity: the
    pair at i annihilates, both letters going in one move.  Otherwise
    the pair at i contracts to z.  Identity erasures come first,
    leftmost first, then the recorded moves of the stack pass; the word
    after the last move is lstd(w).  The letters are checked here, at
    the call, not at the first move.
    """
    check_word(m, w)
    return _trace(m, w)


def _trace(m: PartialMonoid, w: Word) -> Iterator[tuple[Word, int, Optional[int]]]:
    # the k-th identity letter, at i in w, erases at i - k
    ones = [i for i, c in enumerate(w) if c == m.identity]
    recorded = [(i - k, None) for k, i in enumerate(ones)]
    _lstd(m, tuple(c for c in w if c != m.identity), recorded)
    moves = iter(recorded)
    for i, z in moves:
        yield w, i, z
        w = _apply(w, i, z)
        if z == m.identity:  # the pair annihilates: its erasure is this move too
            w = _apply(w, *next(moves))


# ------------------------------------------------------------------ convertibility

def convertible_bounded(m: PartialMonoid, u: Word, v: Word,
                        max_len: Optional[int] = None) -> Optional[list[Word]]:
    """A shortest conversion u <-> ... <-> v through words of bounded length.

    Breadth-first search from u over single steps either way, never
    visiting a word longer than max_len (default len(u) + len(v)).  A
    reverse step, taken only from a word shorter than max_len, inserts
    the identity letter anywhere or replaces a letter by any defined pair
    producing it, so every step can be undone and the answer does not
    depend on the order of u and v.  Returns a shortest path as a word
    list, or None when no conversion exists within the bound: not found,
    not refuted, since a longer detour could still connect the words.
    A max_len below len(u) or len(v) raises ValueError.
    """
    check_word(m, u)
    check_word(m, v)
    if max_len is None:
        max_len = len(u) + len(v)
    if max_len < max(len(u), len(v)):
        raise ValueError(f"max_len {max_len} is below the length of a word to convert")
    factors: dict[int, list[Word]] = {}
    for x, y, z in m.products:
        factors.setdefault(z, []).append((x, y))
    parents: dict[Word, Optional[Word]] = {u: None}
    queue = [u]
    for w in queue:  # the queue grows behind the loop, one length of path at a time
        if v in parents:
            break
        nbs = [r for _, r in _steps(m, w)]
        if len(w) < max_len:
            nbs += [w[:i] + (m.identity,) + w[i:] for i in range(len(w) + 1)]
            nbs += [w[:i] + xy + w[i + 1:]
                    for i, c in enumerate(w) for xy in factors.get(c, ())]
        for nb in nbs:
            if nb not in parents:
                parents[nb] = w
                queue.append(nb)
    if v not in parents:
        return None
    path = [v]
    while (w := parents[path[-1]]) is not None:
        path.append(w)
    return path[::-1]
