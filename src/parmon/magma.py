"""Binary trees over irreducible words, rotations, and evaluation.

A tree is a leaf labelled by an irreducible word or a pairing of two
trees.  The rotation rule rewrites any subtree (t1 t2) t3 to
t1 (t2 t3).  Rotation preserves the left-to-right leaf sequence and
strictly decreases the rank

    rank(leaf) = 0
    rank(t1 t2) = rank(t1) + rank(t2) + leaves(t1) - 1

so rewriting terminates, and the rank-zero trees are exactly the right
combs.  A tree's evaluation, its leaf labels multiplied with star in
its bracketing, is the last word of _chain's plain reduction from the
leaf concatenation; so rotating keeps it in one convertibility class
even when star is not associative, as two chains show, with no search.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Union

from .monoid import EMPTY_WORD_TOKEN, PartialMonoid
from .rewriting import _apply, _lstd_moves, _steps
from .words import Word, format_word, is_irreducible


class Leaf(NamedTuple):
    label: Word


class Node(NamedTuple):
    left: "Tree"
    right: "Tree"


Tree = Union[Leaf, Node]


def leaves(t: Tree) -> int:
    """Number of leaves."""
    if isinstance(t, Leaf):
        return 1
    return leaves(t.left) + leaves(t.right)


def leaf_labels(t: Tree) -> list[Word]:
    if isinstance(t, Leaf):
        return [t.label]
    return leaf_labels(t.left) + leaf_labels(t.right)


def rank(t: Tree) -> int:
    """Termination measure for rotation; zero exactly on right combs."""
    if isinstance(t, Leaf):
        return 0
    return rank(t.left) + rank(t.right) + leaves(t.left) - 1


def rotations(t: Tree) -> set[Tree]:
    """All trees one rotation away; trees are tuples, hashed by tuple's own code."""
    return set(_rotated(t))


def _rotated(t: Tree) -> Iterator[Tree]:
    if isinstance(t, Node):
        if isinstance(t.left, Node):
            yield Node(t.left.left, Node(t.left.right, t.right))
        yield from (Node(l, t.right) for l in _rotated(t.left))
        yield from (Node(t.left, r) for r in _rotated(t.right))


def rotation_closure(t: Tree) -> set[Tree]:
    """Every tree reachable by rotations, t included."""
    seen = {t}
    frontier = [t]
    while frontier:
        nxt = []
        for s in frontier:
            for r in rotations(s):
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def right_comb(t: Tree) -> Tree:
    """The unique rotation normal form: same leaves, fully right-nested."""
    labels = leaf_labels(t)
    comb: Tree = Leaf(labels[-1])
    for label in reversed(labels[:-1]):
        comb = Node(Leaf(label), comb)
    return comb


def evaluate(m: PartialMonoid, t: Tree) -> Word:
    """Multiply the leaf labels with star in t's bracketing: t's chain's last word."""
    return _checked_chain(m, t)[-1]


def _checked_chain(m: PartialMonoid, t: Tree) -> list[Word]:
    """_chain(m, t), once t's leaf labels are checked to be irreducible."""
    for label in leaf_labels(t):
        if not is_irreducible(m, label):
            raise ValueError(f"leaf label {format_word(m, label)} is not irreducible")
    return _chain(m, t)


def _chain(m: PartialMonoid, t: Tree) -> list[Word]:
    """The words of a plain reduction from t's leaf concatenation to t's evaluation.

    t's leaf labels are irreducible, so star at a node is lstd without its
    checks.  Reduction is compatible with concatenation: the halves'
    chains, each lifted into the whole word, end at their evaluations
    side by side, and lstd's recorded steps finish it.
    """
    if isinstance(t, Leaf):
        return [t.label]
    left, right = _chain(m, t.left), _chain(m, t.right)
    chain = [u + right[0] for u in left] + [left[-1] + u for u in right[1:]]
    for i, z in _lstd_moves(m, chain[-1]):
        chain.append(_apply(chain[-1], i, z))
    return chain


def _convertible(m: PartialMonoid, down: list[Word], up: list[Word]) -> bool:
    """Certify that the last words of two chains, two evaluations, convert.

    Unless the last words are equal, both chains must start at one word
    and move by plain steps: up one, down the other.
    """
    if down[-1] == up[-1]:
        return True
    return down[0] == up[0] and all(
        q in {r for _, r in _steps(m, p)}
        for chain in (down, up) for p, q in zip(chain, chain[1:]))


def verify_rotation_invariance(m: PartialMonoid, t: Tree) -> bool:
    """Are the evaluations of all rotations of t interconvertible?

    Rotations keep the leaf sequence, so the labels are checked, and t's
    chain built, once; each closure tree's chain is certified against
    t's by _convertible, not searched.
    """
    base = _checked_chain(m, t)
    return all(_convertible(m, base, _chain(m, s)) for s in rotation_closure(t))


# ------------------------------------------------------------------ text form

def format_tree(m: PartialMonoid, t: Tree) -> str:
    if isinstance(t, Leaf):
        return format_word(m, t.label)
    return f"({format_tree(m, t.left)} {format_tree(m, t.right)})"


MAX_TREE_DEPTH = 200  # deepest bracket nesting parse_tree accepts


def parse_tree(m: PartialMonoid, text: str) -> Tree:
    """Fully bracketed form: a leaf name, or ( tree tree ).

    The tree functions recurse along the bracketing, and on the right
    comb, which is one level deep per leaf.  So nesting deeper than
    MAX_TREE_DEPTH, or more than MAX_TREE_DEPTH + 1 leaves, raises
    ValueError before anything is parsed.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    depth = count = 0
    for tok in tokens:
        if tok == "(":
            depth += 1
            if depth > MAX_TREE_DEPTH:
                raise ValueError(f"tree nested deeper than {MAX_TREE_DEPTH} brackets")
        elif tok == ")":
            depth -= 1
        else:
            count += 1
            if count > MAX_TREE_DEPTH + 1:
                raise ValueError(f"tree has more than {MAX_TREE_DEPTH + 1} leaves")
    pos = 0

    def parse() -> Tree:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of tree")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            left = parse()
            right = parse()
            if pos >= len(tokens) or tokens[pos] != ")":
                raise ValueError("expected ')' in tree")
            pos += 1
            return Node(left, right)
        if tok == ")":
            raise ValueError("unexpected ')' in tree")
        if tok == EMPTY_WORD_TOKEN:
            return Leaf(())
        return Leaf((m.index(tok),))

    t = parse()
    if pos != len(tokens):
        raise ValueError(f"trailing input after tree: {' '.join(tokens[pos:])!r}")
    return t
