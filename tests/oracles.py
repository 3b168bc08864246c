"""Independent brute-force reimplementations used to pin expected values.

Everything here works straight off the product table with dumb loops and
no shared code paths with the package internals, so a bug would have to
appear twice, in two different shapes, to slip through.  The exceptions,
brute_assoc_triples, brute_assoc_congruence and star_fold, fold
with the public star product, the definition that the shortcuts of
associativity_search, assoc_modulo_congruence and evaluate must match.
The tree oracles rotate and rank nested trees by recursion on the tree,
where parmon.magma works on flat shapes.
"""

import functools
import itertools
from dataclasses import dataclass

from parmon import Leaf, Node, convertible_bounded, enumerate_irreducible, star


def table_of(m):
    return {(x, y): z for x, y, z in m.products}


def brute_chain_violations(m):
    """Triples where the two product chains disagree on definedness or value."""
    t = table_of(m)
    n = len(m.elements)
    bad = set()
    for x, y, z in itertools.product(range(n), repeat=3):
        left = t.get((t[(x, y)], z)) if (x, y) in t else None
        right = t.get((x, t[(y, z)])) if (y, z) in t else None
        left_def = (x, y) in t and (t[(x, y)], z) in t
        right_def = (y, z) in t and (x, t[(y, z)]) in t
        if left_def != right_def or (left_def and left != right):
            bad.add((x, y, z))
    return bad


def brute_chain_scan(m):
    """Every chain-law violation as (x, y, z, left, right), in (x, y, z) order.

    left is (x*y)*z and right is x*(y*z), None where that chain is
    undefined; a triple violates the law when the two differ.
    """
    t = table_of(m)
    n = len(m.elements)
    out = []
    for x, y, z in itertools.product(range(n), repeat=3):
        left = t.get((t[(x, y)], z)) if (x, y) in t else None
        right = t.get((x, t[(y, z)])) if (y, z) in t else None
        if left != right:
            out.append((x, y, z, left, right))
    return out


def brute_irreducible(m, max_len):
    """Filter every word up to max_len by the two reducibility conditions."""
    t = table_of(m)
    out = []
    for length in range(max_len + 1):
        for w in itertools.product(range(len(m.elements)), repeat=length):
            if m.identity in w:
                continue
            if any((w[i], w[i + 1]) in t for i in range(len(w) - 1)):
                continue
            out.append(w)
    return out


def brute_one_step(m, w):
    return _one_step(table_of(m), m.identity, w)


def _one_step(t, e, w):
    """brute_one_step over a product dict t and the identity e."""
    out = set()
    for i in range(len(w)):
        if w[i] == e:
            out.add(w[:i] + w[i + 1:])
    for i in range(len(w) - 1):
        if (w[i], w[i + 1]) in t:
            out.add(w[:i] + (t[(w[i], w[i + 1])],) + w[i + 2:])
    return out


_forms_of = [None, None, None]  # the last table, its product dict, its memo


def brute_normal_forms(m, w):
    """Every irreducible word reachable from w by brute_one_step's steps.

    A depth-first search, memoized on each word it reaches.  The product
    dict and the memo are built once per table and kept while the calls
    stay on that table, so its words share them.
    """
    if _forms_of[0] is not m:
        _forms_of[:] = [m, table_of(m), {}]
    _, t, memo = _forms_of

    def forms(u):
        out = memo.get(u)
        if out is None:
            succ = _one_step(t, m.identity, u)
            out = memo[u] = (frozenset().union(*map(forms, succ)) if succ
                             else frozenset({u}))
        return out

    return forms(w)


def brute_assoc_triples(m, max_len):
    """Every irreducible triple up to max_len whose bracketings differ, lazily.

    Both bracketings are folded with the checked star product, each
    product of two words computed once; triples in brute_irreducible
    order, entries (u, v, w, (u*v)*w, u*(v*w)).
    """
    mul = functools.lru_cache(maxsize=None)(lambda a, b: star(m, a, b))
    irr = brute_irreducible(m, max_len)
    for u, v, w in itertools.product(irr, repeat=3):
        left = mul(mul(u, v), w)
        right = mul(u, mul(v, w))
        if left != right:
            yield u, v, w, left, right


def brute_assoc_counterexamples(m, max_len):
    """brute_assoc_triples(m, max_len) as a list."""
    return list(brute_assoc_triples(m, max_len))


def brute_assoc_congruence(m, max_len):
    """Are the two bracketings of each irreducible triple convertible?

    Every triple of enumerate_irreducible(m, max_len), in product order,
    folded both ways with the checked star product and searched with
    convertible_bounded, capped at the triple's letter count.
    """
    mul = functools.lru_cache(maxsize=None)(lambda a, b: star(m, a, b))
    irr = enumerate_irreducible(m, max_len)
    out = {}
    for u, v, w in itertools.product(irr, repeat=3):
        left = mul(mul(u, v), w)
        right = mul(u, mul(v, w))
        out[(u, v, w)] = convertible_bounded(
            m, left, right, len(u) + len(v) + len(w)) is not None
    return out


def star_fold(m, t):
    """t's leaf labels multiplied with the checked star, following its bracketing."""
    if isinstance(t, Leaf):
        return t.label
    return star(m, star_fold(m, t.left), star_fold(m, t.right))


def _rotated(t):
    """The trees one rotation (t1 t2) t3 -> t1 (t2 t3) from t, by recursion on t."""
    if isinstance(t, Node):
        if isinstance(t.left, Node):
            yield Node(t.left.left, Node(t.left.right, t.right))
        yield from (Node(l, t.right) for l in _rotated(t.left))
        yield from (Node(t.left, r) for r in _rotated(t.right))


def brute_rotations(t):
    return set(_rotated(t))


def brute_rotation_closure(t):
    """Every tree reachable from t by tree-level rotations, t included."""
    seen, todo = {t}, [t]
    while todo:
        for r in _rotated(todo.pop()):
            if r not in seen:
                seen.add(r)
                todo.append(r)
    return seen


def brute_rank(t):
    """rank(leaf) = 0, rank(t1 t2) = rank(t1) + rank(t2) + leaves(t1) - 1."""
    if isinstance(t, Leaf):
        return 0
    return brute_rank(t.left) + brute_rank(t.right) + _leaf_count(t.left) - 1


def _leaf_count(t):
    return 1 if isinstance(t, Leaf) else _leaf_count(t.left) + _leaf_count(t.right)


def brute_classify(m):
    """Fork classification by raw table lookups, in (x, y, z) order."""
    t = table_of(m)
    n = len(m.elements)
    out = []
    for x, y, z in itertools.product(range(n), repeat=3):
        if (x, y) not in t or (y, z) not in t:
            continue
        a, b = t[(x, y)], t[(y, z)]
        if (a, z) in t:
            kind = "B"
        elif a == x and b == z:
            kind = "A1"
        else:
            kind = "A0"
        out.append((x, y, z, a, b, kind))
    return out


def brute_indecomposables(m):
    """The non-identity elements that are no product x*y of two
    non-identity elements."""
    t = table_of(m)
    e = m.identity
    products = {t[(x, y)] for x, y in t if e not in (x, y)}
    return {g for g in range(len(m.elements)) if g != e and g not in products}


def brute_closure(m, gens):
    """Everything the totalized table builds from gens, the identity and
    the zero (index n), by squaring the set until it stops growing."""
    t = totalize(m)
    covered = {t.zero, m.identity, *gens}
    while True:
        grown = covered | {t.table[a][b] for a in covered for b in covered}
        if grown == covered:
            return covered
        covered = grown


def brute_catenary(m):
    """First (x, y, z) in index order breaking catenarity, or None.

    A witness has y not the identity, x*y and y*z defined, and (x*y)*z
    undefined.
    """
    t = table_of(m)
    n = len(m.elements)
    for x, y, z in itertools.product(range(n), repeat=3):
        if y == m.identity or (x, y) not in t or (y, z) not in t:
            continue
        if (t[(x, y)], z) not in t:
            return (x, y, z)
    return None


def brute_reachable(m, w):
    """Every word reachable from w by reductions, w included."""
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for u in frontier:
            for r in brute_one_step(m, u):
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


# ------------------------------------------------------------------ the left standard schedule

def _schedule_step(t, e, w):
    """One schedule move on w, or None when w is irreducible."""
    if e in w:
        i = w.index(e)
        return w[:i] + w[i + 1:]
    for i in range(len(w) - 1):
        if (w[i], w[i + 1]) in t:
            z = t[(w[i], w[i + 1])]
            return w[:i] + w[i + 2:] if z == e else w[:i] + (z,) + w[i + 2:]
    return None


def iterated_left_standard(m, w):
    """The left standard schedule spelled out one move at a time.

    The leftmost identity letter erases first; otherwise the leftmost
    defined pair contracts, and a pair whose product is the identity
    vanishes in the same move.  The reference lstd is compared against.
    """
    return left_standard_schedule(m, w)[-1]


def left_standard_schedule(m, w):
    """Every word of the left standard schedule from w: w first, lstd last.

    The reference lstd_trace's source words are compared against.
    """
    t = table_of(m)
    words = [w]
    while (nxt := _schedule_step(t, m.identity, words[-1])) is not None:
        words.append(nxt)
    return words


def left_standard_successors(m, w):
    """The one-step left standard relation, identity erasure at any position.

    On words with identity letters: every single erasure.  Otherwise
    the schedule's one move, or nothing on an irreducible word.
    """
    if m.identity in w:
        return {w[:i] + w[i + 1:] for i, c in enumerate(w) if c == m.identity}
    nxt = _schedule_step(table_of(m), m.identity, w)
    return set() if nxt is None else {nxt}


# ------------------------------------------------------------------ critical pairs

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
    rule1: tuple
    pos1: int
    rule2: tuple
    pos2: int
    source: tuple
    pair: tuple


def apply_rule(rule, w, pos):
    lhs, rhs = rule
    if w[pos:pos + len(lhs)] != lhs:
        raise ValueError("rule does not match at position")
    return w[:pos] + rhs + w[pos + len(lhs):]


def generic_critical_pairs(m):
    """Every critical pair of the rule set, the reference for newman_check.

    Overlaps first, lhs (x, y) at 0 against lhs (y, z) at 1 on the word
    x y z, in (x, y, z) order; then the erasing rule inside each product
    left side that holds the identity letter, in (x, y) order.
    """
    t = table_of(m)
    n = len(m.elements)
    e = m.identity
    out = []
    for x, y, z in itertools.product(range(n), repeat=3):
        if (x, y) in t and (y, z) in t:
            a, b = t[(x, y)], t[(y, z)]
            out.append(GenericCriticalPair(
                "overlap", ((x, y), (a,)), 0, ((y, z), (b,)), 1,
                (x, y, z), ((a, z), (x, b))))
    for (x, y), c in sorted(t.items()):
        source = (x, y)
        for p, letter in enumerate(source):
            if letter == e:
                out.append(GenericCriticalPair(
                    "inclusion", (source, (c,)), 0, ((e,), ()), p,
                    source, ((c,), source[:p] + source[p + 1:])))
    return out


# ------------------------------------------------------------------ totalization

@dataclass(frozen=True)
class TotalMonoid:
    """The partial monoid with an absorbing zero adjoined.

    Undefined products go to the zero; the zero swallows everything.
    The element list is the source carrier plus the zero, zero last.
    """

    elements: tuple
    identity: int
    zero: int
    table: tuple

    def mul(self, x, y):
        return self.table[x][y]


def totalize(m):
    n = len(m.elements)
    zero_name = next(c for c in ("0", "zero", "_zero", "o_zero")
                     if c not in m.elements)
    rows = [[n] * (n + 1) for _ in range(n + 1)]
    for x, y, z in m.products:
        rows[x][y] = z
    return TotalMonoid(m.elements + (zero_name,), m.identity, n,
                       tuple(tuple(r) for r in rows))


def total_associativity_witnesses(t):
    """Triples where the totalized product fails to associate.

    Zero-involving triples never fail (the zero absorbs), so witnesses
    always lie in the original carrier and are comparable one-for-one
    with the chain-law scan.
    """
    n = len(t.elements)
    out = []
    for x in range(n):
        row_x = t.table[x]
        for y in range(n):
            xy = row_x[y]
            for z in range(n):
                if t.table[xy][z] != row_x[t.table[y][z]]:
                    out.append((x, y, z))
    return out
