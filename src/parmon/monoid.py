"""Finite partial monoids: tables, validation, generators.

A partial monoid is a finite carrier with a distinguished identity and a
partially defined product.  The identity multiplies with everything and
acts neutrally.  The product obeys a two-sided chain law: for any triple
(x, y, z), the chain (x*y)*z is fully defined exactly when x*(y*z) is,
and then both chains agree.

Elements are interned to dense integer indices at construction; every
other module speaks indices.  Structures are immutable once built.

File format (UTF-8, line based)::

    # comment line
    elements: 1 x y z
    identity: 1
    x y = x

Exactly one ``elements:`` line and one ``identity:`` line.  A pair with
no product line is undefined.  Products involving the identity are
forced and filled in automatically; writing them out is allowed but
they must agree.  The token ``eps`` is reserved for the empty word and
cannot name an element.
"""

from __future__ import annotations

import itertools
import re
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")

EMPTY_WORD_TOKEN = "eps"

CARRIER_CAP = 256  # largest carrier parmon accepts


class ParseError(ValueError):
    """Raised for malformed monoid files; carries the 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PartialMonoid:
    """Immutable finite partial monoid over interned element indices.

    ``rows`` is the compiled table: ``rows[x][y]`` is x*y, or None where
    the product is undefined.  ``right[y]`` is the bit mask of y's right
    partners: bit z is set exactly where y*z is defined.  ``products`` is
    the canonical sorted tuple of (x, y, x*y) triples read off ``rows``,
    identity rows included.
    Construction checks structural invariants only; :func:`chain_violations`
    and :func:`chain_law_holds` decide the chain law, and ``_valid`` keeps
    their answer.  ``_a0_rows`` keeps the A0 mask rows of
    :func:`parmon.confluence.is_confluent`; each is None until first
    asked, and equality and hashing ignore both.
    """

    __slots__ = ("elements", "identity", "products", "rows", "right", "_index",
                 "_valid", "_a0_rows")

    def __init__(self, elements: Iterable[str], identity: int,
                 products: Mapping[tuple[int, int], int]):
        elements = tuple(elements)
        if not elements:
            raise ValueError("a partial monoid needs at least the identity element")
        _check_cap(len(elements))
        seen = set()
        for name in elements:
            if not isinstance(name, str) or not _NAME_RE.match(name):
                raise ValueError(f"bad element name {name!r}: use letters, digits, underscore")
            if name == EMPTY_WORD_TOKEN:
                raise ValueError(f"{EMPTY_WORD_TOKEN!r} is reserved for the empty word")
            if name in seen:
                raise ValueError(f"duplicate element name {name!r}")
            seen.add(name)
        n = len(elements)
        if not 0 <= identity < n:
            raise ValueError(f"identity index {identity} out of range")

        rows: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
        for (x, y), z in products.items():
            for e in (x, y, z):
                if not 0 <= e < n:
                    raise ValueError(f"product entry index {e} out of range")
            rows[x][y] = z
        # identity rows are forced, fill them in and reject contradictions
        for x in range(n):
            for a, b in ((x, identity), (identity, x)):
                if rows[a][b] not in (None, x):
                    raise ValueError(
                        f"product {elements[a]} {elements[b]} = "
                        f"{elements[rows[a][b]]} contradicts the identity law")
                rows[a][b] = x

        self.elements = elements
        self.identity = identity
        self.rows = tuple(tuple(row) for row in rows)
        self.right = tuple(sum(1 << z for z, c in enumerate(row) if c is not None)
                           for row in rows)
        self.products = tuple((x, y, z) for x, row in enumerate(rows)
                              for y, z in enumerate(row) if z is not None)
        self._index = {name: i for i, name in enumerate(elements)}
        self._valid: Optional[bool] = None
        self._a0_rows: Optional[tuple[tuple[int, int, int, int], ...]] = None

    # -------------------------------------------------- basic queries

    @property
    def size(self) -> int:
        return len(self.elements)

    def mul(self, x: int, y: int) -> Optional[int]:
        """x*y if defined, else None."""
        n = len(self.rows)
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"unknown element index in product ({x}, {y})")
        return self.rows[x][y]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown element name {name!r}")

    def non_identity(self) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.elements)) if i != self.identity)

    # -------------------------------------------------- value semantics

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartialMonoid):
            return NotImplemented
        return (self.elements == other.elements
                and self.identity == other.identity
                and self.products == other.products)

    def __hash__(self) -> int:
        return hash((self.elements, self.identity, self.products))

    def __repr__(self) -> str:
        return (f"PartialMonoid({len(self.elements)} elements, "
                f"identity={self.elements[self.identity]!r}, "
                f"{len(self.products)} products)")


# ------------------------------------------------------------------ parsing

def parse_monoid(text: str) -> PartialMonoid:
    """Parse the line-based monoid file format."""
    elements_line: Optional[tuple[int, list[str]]] = None
    identity_line: Optional[tuple[int, str]] = None
    product_lines: list[tuple[int, str, str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] == "elements:":
            if elements_line is not None:
                raise ParseError("duplicate elements: line", lineno)
            if len(tokens) == 1:
                raise ParseError("elements: line lists no elements", lineno)
            elements_line = (lineno, tokens[1:])
        elif tokens[0] == "identity:":
            if identity_line is not None:
                raise ParseError("duplicate identity: line", lineno)
            if len(tokens) != 2:
                raise ParseError("identity: line needs exactly one name", lineno)
            identity_line = (lineno, tokens[1])
        elif len(tokens) == 4 and tokens[2] == "=":
            product_lines.append((lineno, tokens[0], tokens[1], tokens[3]))
        else:
            raise ParseError(f"cannot parse {line!r}", lineno)

    if elements_line is None:
        raise ParseError("missing elements: line")
    if identity_line is None:
        raise ParseError("missing identity: line")

    eline, names = elements_line
    index = {name: i for i, name in enumerate(names)}

    iline, iname = identity_line
    if iname not in index:
        raise ParseError(f"unknown identity element {iname!r}", iline)
    identity = index[iname]

    products: dict[tuple[int, int], int] = {}
    for lineno, xs, ys, zs in product_lines:
        for t in (xs, ys, zs):
            if t not in index:
                raise ParseError(f"unknown element name {t!r}", lineno)
        key = (index[xs], index[ys])
        if key in products:
            raise ParseError(f"duplicate product line for {xs} {ys}", lineno)
        z = index[zs]
        if identity in key:
            forced = key[1] if key[0] == identity else key[0]
            if z != forced:
                raise ParseError(
                    f"{xs} {ys} = {zs} contradicts the identity law", lineno)
        products[key] = z

    try:
        return PartialMonoid(names, identity, products)
    except ValueError as exc:
        # every index and every forced product is checked above, so only
        # the carrier cap or an element name can fail here
        raise ParseError(str(exc), eline)


def serialize_monoid(m: PartialMonoid) -> str:
    """Canonical file form; parse_monoid(serialize_monoid(m)) == m."""
    lines = ["elements: " + " ".join(m.elements),
             "identity: " + m.elements[m.identity]]
    for x, y, z in m.products:
        if m.identity in (x, y):
            continue  # forced rows are left implicit
        lines.append(f"{m.elements[x]} {m.elements[y]} = {m.elements[z]}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------------ validation

class ValidationReport(NamedTuple):
    violations: tuple[tuple, ...]  # as chain_violations yields them

    @property
    def valid(self) -> bool:
        return not self.violations


def validate(m: PartialMonoid) -> ValidationReport:
    """Check the chain law; list every violating triple in (x, y, z) order."""
    return ValidationReport(tuple(chain_violations(m)))


def chain_violations(m: PartialMonoid) -> Iterator[tuple]:
    """Every violating triple of the chain law, in (x, y, z) order, lazily.

    A violation is the plain tuple (x, y, z, left, right): left is
    (x*y)*z and right is x*(y*z), None where that chain is undefined.
    The two differ, so at most one of them is None.

    The chain law is associativity of the totalization T: adjoin an
    absorbing zero n and send every undefined product to it.  Light's
    associativity test decides that over a generating set of T.  Call y
    good when (x*y)*z = x*(y*z) for all x and z; a product of good
    elements is good, by a proof that never uses associativity, so T is
    associative exactly when every generator is good.  For one (x, y)
    the two sides over all z are whole rows of T, compared at once:
    ``times[y](T[x])`` is the row of x*(y*z), and ``T[T[x][y]]`` the
    row of (x*y)*z.  The first step stores that verdict in ``m._valid``,
    before anything is yielded.

    When some generator is not good, the same row comparison runs over
    every (x, y), and only the rows that differ are walked in z to yield
    the violations.
    """
    n = len(m.rows)
    T = [tuple(n if z is None else z for z in row) + (n,) for row in m.rows]
    T.append((n,) * (n + 1))
    times = [itemgetter(*row) for row in T]

    m._valid = all(T[T[x][y]] == times[y](T[x]) for y in _generators(m, T)
                   for x in range(n))
    if m._valid:
        return

    chain = (*range(n), None)  # chain[c] is c, or None for the zero
    for x in range(n):
        row_x = T[x]
        for y in range(n):
            lefts = T[row_x[y]]
            rights = times[y](row_x)
            if lefts == rights:
                continue
            for z in range(n):
                left, right = lefts[z], rights[z]
                if left != right:
                    yield x, y, z, chain[left], chain[right]


def chain_law_holds(m: PartialMonoid) -> bool:
    """Does m satisfy the chain law?  Light's test runs once per table."""
    if m._valid is None:
        next(chain_violations(m), None)
    return m._valid


def _generators(m: PartialMonoid, T: list[tuple[int, ...]]) -> list[int]:
    """A greedy generating set of m's totalization T (zero last).

    The zero and the identity are good in any table, so they start out
    covered.  An indecomposable element, one that is no product x*y of
    two non-identity elements, lies in every generating set, so a stable
    sort puts those first among the candidates, and each new generator
    is the first uncovered candidate.  The covered set is closed under
    left and right products with the generators after each one, so it
    stays the subsemigroup they generate, plus the zero and the identity.
    """
    e = m.identity
    decomposable = {z for x, y, z in m.products if x != e != y}
    covered = bytearray(len(T))
    covered[-1] = covered[e] = 1
    members = [e, len(T) - 1]
    gens: list[int] = []
    for g in sorted(range(len(T)), key=decomposable.__contains__):
        if covered[g]:
            continue
        gens.append(g)
        row_g = T[g]
        todo = [g]
        for s in members:
            todo += (T[s][g], row_g[s])
        while todo:
            s = todo.pop()
            if covered[s]:
                continue
            covered[s] = 1
            members.append(s)
            row_s = T[s]
            for a in gens:
                todo += (row_s[a], T[a][s])
    return gens


# ------------------------------------------------------------------ generators

def _check_cap(size: int) -> None:
    if size > CARRIER_CAP:
        raise ValueError(f"carrier size {size} exceeds cap {CARRIER_CAP}")


def gen_disjoint_union_monoid(n: int, cap: int = 4) -> PartialMonoid:
    """Subsets of an n-element set; union, defined only when disjoint.

    Identity is the empty set.  Carrier size 2**n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > cap:
        raise ValueError(f"n = {n} exceeds the generator cap {cap}")
    _check_cap(2 ** n)
    masks = sorted(range(2 ** n), key=lambda s: (bin(s).count("1"), s))
    names = ["e" if s == 0 else "s" + "".join(str(i) for i in range(n) if s >> i & 1)
             for s in masks]
    pos = {s: i for i, s in enumerate(masks)}
    products = {}
    for a in masks:
        for b in masks:
            if a & b == 0:
                products[(pos[a], pos[b])] = pos[a | b]
    return PartialMonoid(names, pos[0], products)


def gen_no_common_letters_monoid(letters: Iterable[str]) -> PartialMonoid:
    """Distinct-letter words under concatenation.

    The carrier is every word using each letter at most once (the empty
    word is the identity, named "1"); u*v is the concatenation when u
    and v share no letter, undefined otherwise.
    """
    letters = tuple(letters)
    if len(set(letters)) != len(letters):
        raise ValueError("duplicate letters")
    if len(letters) > 4:
        raise ValueError("at most 4 letters")
    for c in letters:
        if len(c) != 1 or not c.isalpha():
            raise ValueError(f"letters must be single alphabetic characters, got {c!r}")

    words = [""]
    for r in range(1, len(letters) + 1):
        words.extend("".join(p) for p in
                     sorted(itertools.permutations(letters, r)))
    names = ["1" if w == "" else w for w in words]
    pos = {w: i for i, w in enumerate(words)}
    products = {}
    for u in words:
        su = set(u)
        for v in words:
            if su.isdisjoint(v):
                products[(pos[u], pos[v])] = pos[u + v]
    return PartialMonoid(names, pos[""], products)


# ------------------------------------------------------------------ random families

def _shuffled(rng, canonical_names: list[str], identity: int,
              products: dict[tuple[int, int], int]) -> PartialMonoid:
    """Permute element order so nothing can rely on identity-first layouts."""
    n = len(canonical_names)
    perm = list(range(n))
    rng.shuffle(perm)  # perm[i] = new index of canonical element i
    names = [""] * n
    for i, p in enumerate(perm):
        names[p] = canonical_names[i]
    moved = {(perm[x], perm[y]): perm[z] for (x, y), z in products.items()}
    return PartialMonoid(names, perm[identity], moved)


def _random_null(rng, max_size: int) -> PartialMonoid:
    k = rng.randint(0, min(5, max_size - 1))
    return _shuffled(rng, ["1"] + [f"q{i}" for i in range(1, k + 1)], 0, {})


def _random_cyclic(rng, max_size: int) -> PartialMonoid:
    n = rng.randint(1, max_size)
    products = {(i, j): (i + j) % n for i in range(n) for j in range(n)}
    return _shuffled(rng, [f"g{i}" for i in range(n)], 0, products)


def _random_truncated_words(rng, max_size: int) -> PartialMonoid:
    # words over k letters up to length cap, concatenation when it fits
    options = [(1, L) for L in range(1, max_size)]
    if max_size >= 7:
        options.append((2, 2))
    k, cap = rng.choice(options)
    alphabet = "ab"[:k]
    words = [""]
    for L in range(1, cap + 1):
        words.extend("".join(p) for p in itertools.product(alphabet, repeat=L))
    pos = {w: i for i, w in enumerate(words)}
    products = {(pos[u], pos[v]): pos[u + v]
                for u in words for v in words if len(u) + len(v) <= cap}
    names = ["1" if w == "" else w for w in words]
    return PartialMonoid(names, 0, products)


def _random_modular(rng, max_size: int) -> PartialMonoid:
    # nonzero residues mod n, product defined when it stays nonzero
    n = rng.choice([n for n in (4, 6, 8, 9) if n - 1 <= max_size])
    products = {}
    for i in range(1, n):
        for j in range(1, n):
            p = i * j % n
            if p != 0:
                products[(i - 1, j - 1)] = p - 1
    return _shuffled(rng, [f"m{i}" for i in range(1, n)], 0, products)


def _random_subsets(rng, max_size: int) -> PartialMonoid:
    n = rng.randint(0, 3 if max_size >= 8 else 2)
    return gen_disjoint_union_monoid(n)


def _random_distinct_letters(rng, max_size: int) -> PartialMonoid:
    k = 2 if max_size >= 5 else 1
    letters = rng.sample("abcdefgh", k)
    return gen_no_common_letters_monoid(letters)


def _random_sparse(rng, max_size: int) -> PartialMonoid:
    """Rejection-sample a small sparse table until it validates."""
    for _ in range(30):
        n = rng.randint(2, min(5, max_size))
        products = {}
        for _ in range(rng.randint(1, 4)):
            x = rng.randrange(1, n)
            y = rng.randrange(1, n)
            products[(x, y)] = rng.randrange(n)
        m = _shuffled(rng, ["1"] + [f"p{i}" for i in range(1, n)], 0, products)
        if chain_law_holds(m):
            return m
    return _random_null(rng, max_size)


# each family with the smallest max_size it fits under
_FAMILIES = ((_random_null, 1), (_random_cyclic, 1), (_random_truncated_words, 2),
             (_random_modular, 3), (_random_subsets, 4),
             (_random_distinct_letters, 2), (_random_sparse, 2))


def random_monoid(rng, max_size: int = 8) -> PartialMonoid:
    """A random valid partial monoid with carrier at most max_size.

    Draws from a mix of families: no products at all, cyclic groups,
    length-capped free words, nonzero residues, disjoint subset unions,
    distinct-letter words, and rejection-sampled sparse tables.
    """
    if max_size < 1:
        raise ValueError("max_size must be positive")
    _check_cap(max_size)
    family = rng.choice([f for f, smallest in _FAMILIES if smallest <= max_size])
    return family(rng, max_size)
