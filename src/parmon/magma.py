"""Binary trees over irreducible words, rotations, and evaluation.

A tree is a leaf labelled by an irreducible word or a pairing of two
trees.  The rotation rule rewrites any subtree (t1 t2) t3 to
t1 (t2 t3).  Rotation keeps the left-to-right leaf sequence, so it is
computed on a tree's shape: the preorder tuple of each internal node's
left-leaf count, n - 1 entries for n leaves.  An entry k >= 2 at
position p is a node whose left child is internal, with entry
k1 = s[p + 1]; rotating there moves t1's k1 - 1 entries up one place
and gives the new node (t2 t3) the entry k - k1, one slice:

    s[:p] + (k1,) + s[p + 2:p + 1 + k1] + (k - k1,) + s[p + 1 + k1:]

Rotation strictly decreases the rank

    rank(t) = sum(shape) - len(shape),

the sum over internal nodes of left-leaf count minus one (so
rank(t1 t2) = rank(t1) + rank(t2) + leaves(t1) - 1): a rotation
replaces k, k1 by k1, k - k1, so the sum drops by k1 >= 1.  Rewriting
terminates, and the rank-zero trees, whose shapes are all ones, are
exactly the right combs.

A tree's evaluation, its leaf labels multiplied with star in its
bracketing, comes with _chain's plain reduction to it from the leaf
concatenation, _lstd's steps at each node moved to its first letter.
Rotation keeps that start, so a closure's evaluations convert through
it with no search, each witness's chain replayed to the evaluation the
chart reports.

The rotation closure of t is the Tamari interval above t (Huang and
Tamari, 1972, on bracket vectors).  Every leaf l >= 1 starts the right
child of exactly one node; let R_t(l) be that node's last leaf.  Then s
is in the closure of t exactly when R_s(l) >= R_t(l) for every l >= 1:
a rotation (t1 t2) t3 -> t1 (t2 t3) raises R at t2's first leaf from
t2's last leaf to t3's and keeps every other R.  A node of s over
leaves i..j whose left child ends at leaf k splits before leaf k + 1,
and R_s(k + 1) = j; since each l >= 1 is split before by one node, the
law is one local test per node, j >= reach[k + 1] with reach = R_t.  So
the closure's bracketings of i..j are, over each allowed split, the
pairs of bracketings of the two halves, and a node's evaluation is
_lstd of its children's values concatenated.  _evaluations fills a
chart over leaf intervals with each cell's distinct evaluations, one
witness shape each, and never lists the closure.  The interval i..j has
an allowed bracketing exactly when reach[l] <= j for every l in
i + 1..j, since each such l must be split before by a node inside it;
every other cell is skipped.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Union

from .monoid import EMPTY_WORD_TOKEN, PartialMonoid
from .rewriting import _apply, _lstd, _steps
from .words import Word, format_word, is_irreducible


class Leaf(NamedTuple):
    label: Word


class Node(NamedTuple):
    left: "Tree"
    right: "Tree"


Tree = Union[Leaf, Node]
Shape = tuple[int, ...]


def leaf_labels(t: Tree) -> list[Word]:
    return [leaf.label for leaf in _shape(t)[1]]


def _shape(t: Tree) -> tuple[Shape, list[Leaf]]:
    """t's shape and its leaves in order, from one walk returning leaf counts."""
    shape: list[int] = []
    found: list[Leaf] = []

    def walk(t: Tree) -> int:
        if isinstance(t, Leaf):
            found.append(t)
            return 1
        i = len(shape)
        shape.append(0)
        shape[i] = k = walk(t.left)
        return k + walk(t.right)

    walk(t)
    return tuple(shape), found


def _tree(shape: Shape, found: list[Leaf]) -> Tree:
    """The tree of a shape over the given leaves, which it reuses."""
    entries, rest = iter(shape), iter(found)

    def build(n: int) -> Tree:
        if n == 1:
            return next(rest)
        k = next(entries)
        return Node(build(k), build(n - k))

    return build(len(found))


def _shape_rotations(s: Shape) -> Iterator[Shape]:
    """The shapes one rotation from s: one slice per entry k >= 2."""
    for p, k in enumerate(s):
        if k > 1:
            k1 = s[p + 1]
            yield s[:p] + (k1,) + s[p + 2:p + 1 + k1] + (k - k1,) + s[p + 1 + k1:]


def rank(t: Tree) -> int:
    """Termination measure for rotation; zero exactly on right combs."""
    shape, _ = _shape(t)
    return sum(shape) - len(shape)


def rotations(t: Tree) -> set[Tree]:
    """All trees one rotation away, over t's own Leaf objects."""
    shape, found = _shape(t)
    return {_tree(r, found) for r in _shape_rotations(shape)}


def rotation_closure(t: Tree) -> set[Tree]:
    """Every tree reachable by rotations, t included."""
    seen, todo = {t}, [t]
    while todo:
        new = rotations(todo.pop()) - seen
        seen |= new
        todo += new
    return seen


def right_comb(t: Tree) -> Tree:
    """The unique rotation normal form: t's own Leaf objects, fully right-nested."""
    shape, found = _shape(t)
    return _tree((1,) * len(shape), found)


def evaluate(m: PartialMonoid, t: Tree) -> Word:
    """Multiply the leaf labels with star in t's bracketing."""
    shape, labels = _checked_shape(m, t)
    return _chain(m, shape, labels)[0]


def _checked_shape(m: PartialMonoid, t: Tree) -> tuple[Shape, list[Word]]:
    """t's shape and leaf labels, once the labels are checked to be irreducible."""
    shape, found = _shape(t)
    labels = [leaf.label for leaf in found]
    for label in dict.fromkeys(labels):
        if not is_irreducible(m, label):
            raise ValueError(f"leaf label {format_word(m, label)} is not irreducible")
    return shape, labels


def _chain(m: PartialMonoid, shape: Shape, labels: list[Word]
           ) -> tuple[Word, list[tuple[int, Optional[int]]]]:
    """The evaluation, and the plain steps from the leaf concatenation to it.

    The labels are irreducible, so star at a node is _lstd without its
    checks.  Reduction is compatible with concatenation: a node's left
    half reduces to u from its first letter at, its right half to v from
    at + len(u), and _lstd's steps on u + v, moved to at, finish it.
    """
    entries, rest = iter(shape), iter(labels)
    steps: list[tuple[int, Optional[int]]] = []

    def chain(n: int, at: int) -> Word:
        if n == 1:
            return next(rest)
        k = next(entries)
        u = chain(k, at)
        v = chain(n - k, at + len(u))
        moves: list[tuple[int, Optional[int]]] = []
        value = _lstd(m, u + v, moves)
        steps.extend((at + i, z) for i, z in moves)
        return value

    return chain(len(labels), 0), steps


def _convertible(m: PartialMonoid, start: Word,
                 chains: list[tuple[Word, list[tuple[int, Optional[int]]]]]) -> bool:
    """Certify that the chains' evaluations all convert through start.

    Each chain's steps are replayed once from start: every one must be
    a plain step, and the last word must be the evaluation it comes with.
    """
    for value, steps in chains:
        w = start
        for i, z in steps:
            w, before = _apply(w, i, z), w
            if (i, w) not in _steps(m, before):
                return False
        if w != value:
            return False
    return True


MAX_EVALUATIONS = 100_000  # most star evaluations _evaluations tries across its chart


def _evaluations(m: PartialMonoid, shape: Shape, labels: list[Word]) -> dict[Word, Shape]:
    """Each distinct evaluation of the rotation closure of shape, with a witness.

    The witness is one closure shape that folds to the evaluation.  Cell
    (i, j) of the chart maps each evaluation of the allowed bracketings
    of leaves i..j to one of them.  With reach[k] the last leaf of the
    node of shape that splits before leaf k, a split of i..j before leaf
    k is allowed when j >= reach[k].  Cell (i, j) exists exactly when
    i..j has an allowed bracketing, and then a split before leaf e + 1
    is allowed exactly when cell (i, e) exists, so the splits tried are
    the keys e of cells[i], the row of cells starting at leaf i.

    Each pair of a left and a right value at a split is one star
    evaluation.  Before a split's pairs are tried they are counted, and
    more than MAX_EVALUATIONS across the chart raise ValueError.  Every
    cell has a split and every split a pair, so the count bounds the
    chart's time and every cell's entries.
    """
    n = len(labels)
    reach = [0] * n
    entries, todo = iter(shape), [(0, n)]
    while todo:
        i, count = todo.pop()
        if count > 1:
            k = next(entries)
            reach[i + k] = i + count - 1
            todo += (i + k, count - k), (i, k)
    cells: list[dict[int, dict[Word, Shape]]] = [{} for _ in range(n)]
    tried = 0
    for j in range(n):
        cells[j][j] = {labels[j]: ()}
        for i in range(j - 1, -1, -1):
            if reach[i + 1] > j:
                break
            cell: dict[Word, Shape] = {}
            for e, left in cells[i].items():
                right = cells[e + 1][j]
                tried += len(left) * len(right)
                if tried > MAX_EVALUATIONS:
                    raise ValueError(
                        f"more than {MAX_EVALUATIONS} star evaluations "
                        "in the rotation closure; use fewer leaves")
                for u, left_shape in left.items():
                    for v, right_shape in right.items():
                        value = _lstd(m, u + v)
                        if value not in cell:
                            cell[value] = (e + 1 - i,) + left_shape + right_shape
            cells[i][j] = cell
    return cells[0][n - 1]


def verify_rotation_invariance(m: PartialMonoid, t: Tree) -> bool:
    """Are the evaluations of all rotations of t interconvertible?

    Rotations keep the leaf sequence, so the labels are checked once.
    _evaluations gives each distinct evaluation of the closure, t's own
    among them, with one witness shape.  When there is more than one,
    each witness's chain is certified through the leaf concatenation by
    one _convertible call, not searched, and must end at the evaluation
    the chart reports, so a wrong chart value fails the certificate.
    """
    shape, labels = _checked_shape(m, t)
    witness = _evaluations(m, shape, labels)
    return len(witness) == 1 or _convertible(
        m, sum(labels, ()), [(v, _chain(m, s, labels)[1]) for v, s in witness.items()])


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
