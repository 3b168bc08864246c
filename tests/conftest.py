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


def wrd(m, text):
    return P.parse_word(m, text)


def fmt(m, w):
    return P.format_word(m, w)
