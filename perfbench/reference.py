"""Known answers computed from the definitions, independent of parmon's code.

Tables are read only through ``PartialMonoid.mul``, ``.identity`` and
``.size``; nothing here imports parmon's rewriting or confluence code.
"""

from __future__ import annotations


def lstd(m, w) -> tuple:
    """Left standard normal form straight from its definition.

    Erase every identity letter, then contract the leftmost adjacent
    pair whose product is defined, rescanning from the left after each
    move; a product equal to the identity erases the pair.
    """
    e = m.identity
    word = [c for c in w if c != e]
    while True:
        for i in range(len(word) - 1):
            z = m.mul(word[i], word[i + 1])
            if z is not None:
                word[i:i + 2] = [] if z == e else [z]
                break
        else:
            return tuple(word)


def is_irreducible(m, w) -> bool:
    if m.identity in w:
        return False
    return all(m.mul(a, b) is None for a, b in zip(w, w[1:]))


def is_confluent(m) -> bool:
    """No A0 fork.

    A fork is a triple x y z with x*y = a and y*z = b both defined.  It
    is A0 when a*z is undefined and the one-step results (a, z) and
    (x, b) differ; the rewriting is confluent exactly when no fork is A0.
    """
    n = m.size
    for x in range(n):
        for y in range(n):
            a = m.mul(x, y)
            if a is None:
                continue
            for z in range(n):
                b = m.mul(y, z)
                if b is not None and m.mul(a, z) is None and (a, z) != (x, b):
                    return False
    return True


def fork_count(m) -> int:
    """Number of forks: for each middle letter y, left partners times right partners."""
    n = m.size
    return sum(sum(m.mul(x, y) is not None for x in range(n))
               * sum(m.mul(y, z) is not None for z in range(n))
               for y in range(n))


def critical_pair_count(m) -> int:
    """Critical pairs of the rule set: one overlap per fork, plus the
    erasing rule inside each of the 2n product left sides that hold the
    identity letter at one position."""
    return fork_count(m) + 2 * m.size


def defined_pairs_away_from_identity(m) -> int:
    e = m.identity
    return sum(1 for x, y, _ in m.products if e not in (x, y))
