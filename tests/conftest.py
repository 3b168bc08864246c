import random

import pytest

import parmon as P

EX2_TEXT = """\
elements: 1 x y z
identity: 1
x y = x
y y = y
y z = z
"""

GROUP2_TEXT = """\
elements: 1 g
identity: 1
g g = 1
"""

TRIVIAL_TEXT = """\
elements: 1
identity: 1
"""


@pytest.fixture(scope="session")
def ex2():
    return P.parse_monoid(EX2_TEXT)


@pytest.fixture(scope="session")
def letters3():
    return P.gen_no_common_letters_monoid("abc")


@pytest.fixture(scope="session")
def group2():
    return P.parse_monoid(GROUP2_TEXT)


@pytest.fixture(scope="session")
def trivial():
    return P.parse_monoid(TRIVIAL_TEXT)


@pytest.fixture(scope="session")
def du2():
    return P.gen_disjoint_union_monoid(2)


def cyclic_group(n):
    """The cyclic group of order n, g0 the identity."""
    return P.PartialMonoid([f"g{i}" for i in range(n)], 0,
                           {(i, j): (i + j) % n for i in range(n) for j in range(n)})


@pytest.fixture(scope="session")
def cyc8():
    return cyclic_group(8)


@pytest.fixture(scope="session")
def sample_tables():
    """Seeded random_monoid tables, then one mutant of each.

    random_monoid shuffles element order, so the identity is seldom
    index 0.  Each mutant changes or drops one product away from the
    identity; most of them break the chain law.
    """
    rng = random.Random(7)
    tables = [P.random_monoid(rng) for _ in range(40)]
    mutants = []
    for m in tables:
        free = [(x, y, z) for x, y, z in m.products if m.identity not in (x, y)]
        if not free:
            continue
        x, y, z = rng.choice(free)
        products = {(a, b): c for a, b, c in m.products}
        if rng.random() < 0.5:
            del products[(x, y)]
        else:
            products[(x, y)] = (z + 1) % m.size
        mutants.append(P.PartialMonoid(m.elements, m.identity, products))
    return tables + mutants


def all_shapes(labels):
    """Every bracketing of the given leaf labels."""
    if len(labels) == 1:
        return [P.Leaf(labels[0])]
    out = []
    for i in range(1, len(labels)):
        for l in all_shapes(labels[:i]):
            for r in all_shapes(labels[i:]):
                out.append(P.Node(l, r))
    return out


def wrd(m, text):
    return P.parse_word(m, text)


def fmt(m, w):
    return P.format_word(m, w)


def relabeled(m, seed):
    """The same table with its elements stored in a seeded random order."""
    perm = list(range(m.size))
    random.Random(seed).shuffle(perm)
    names = [""] * m.size
    for i, p in enumerate(perm):
        names[p] = m.elements[i]
    return P.PartialMonoid(names, perm[m.identity],
                           {(perm[x], perm[y]): perm[z] for x, y, z in m.products})


def one_product_edits(m, pairs):
    """Every table that differs from m in the product of exactly one pair."""
    products = {(x, y): z for x, y, z in m.products}
    for x, y in pairs:
        for z in (None, *range(m.size)):
            if products.get((x, y)) == z:
                continue
            edited = dict(products)
            if z is None:
                del edited[(x, y)]
            else:
                edited[(x, y)] = z
            yield P.PartialMonoid(m.elements, m.identity, edited)
