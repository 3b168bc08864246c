"""Every table on three elements, and every valid one on four, against the
brute-force oracles."""

import importlib
import itertools
from contextlib import nullcontext
from unittest import mock

import parmon as P
from oracles import (brute_assoc_counterexamples, brute_catenary,
                     brute_chain_violations, brute_classify, brute_normal_forms,
                     generic_critical_pairs)
from parmon.monoid import chain_law_holds
from parmon.star import _triple_search

star_module = importlib.import_module("parmon.star")


def stored_as(tables, names, perm):
    """Each table again with its elements stored as names: old index i
    is stored at perm[i]."""
    return [P.PartialMonoid(names, perm[m.identity],
                            {(perm[x], perm[y]): perm[z] for x, y, z in m.products})
            for m in tables]


def three_element_tables():
    """All 256 tables on 1 p q with the identity at index 0, valid or not,
    then each again with its elements stored as p q 1.

    Each of the four cells away from the identity is undefined or one of
    the three elements.
    """
    cells = list(itertools.product((1, 2), repeat=2))
    tables = []
    for values in itertools.product((None, 0, 1, 2), repeat=len(cells)):
        products = {xy: z for xy, z in zip(cells, values) if z is not None}
        tables.append(P.PartialMonoid(["1", "p", "q"], 0, products))
    return tables + stored_as(tables, ["p", "q", "1"], (2, 0, 1))


UNSET = -1


def four_element_tables():
    """Every valid table on 1 p q r with the identity at index 0, then each
    again with its elements stored as p r 1 q.

    Backtracks over the nine cells away from the identity, each undefined
    or one of the four elements, in index order, and prunes as soon as a
    triple has both chains decided and they differ; validate is never
    called.
    """
    rest = (1, 2, 3)
    t = [[0, 1, 2, 3]] + [[x] + [UNSET] * 3 for x in rest]
    cells = list(itertools.product(rest, repeat=2))

    def chain(p, q):
        """p*q, None where undefined, UNSET where not yet decided."""
        return None if p is None or q is None else t[p][q]

    def consistent():
        for x, y, z in itertools.product(rest, repeat=3):
            a, b = t[x][y], t[y][z]
            if UNSET in (a, b):
                continue
            left, right = chain(a, z), chain(x, b)
            if UNSET not in (left, right) and left != right:
                return False
        return True

    tables = []

    def fill(k):
        if k == len(cells):
            products = {(x, y): t[x][y] for x, y in cells if t[x][y] is not None}
            tables.append(P.PartialMonoid(["1", "p", "q", "r"], 0, products))
            return
        x, y = cells[k]
        for z in (None, 0, 1, 2, 3):
            t[x][y] = z
            if consistent():
                fill(k + 1)
        t[x][y] = UNSET

    fill(0)
    return tables + stored_as(tables, ["p", "r", "1", "q"], (2, 0, 3, 1))


def check_against_oracles(m):
    """Every verdict on m against its oracle; (valid, confluent)."""
    violations = P.validate(m).violations
    assert {v[:3] for v in violations} == brute_chain_violations(m)
    assert chain_law_holds(m) == (not violations)
    a0 = [f[:5] for f in brute_classify(m) if f[5] == "A0"]
    assert list(P.is_confluent(m).a0_witnesses) == a0
    witness = brute_catenary(m)
    assert P.is_catenary(m) == (witness is None, witness)
    converges = all(brute_normal_forms(m, u) & brute_normal_forms(m, v)
                    for u, v in (cp.pair for cp in generic_critical_pairs(m)))
    assert P.newman_check(m) == converges
    # the search against star folds at lengths 1-2 and the triple loop at
    # length 3; on a valid table it reads the A0 law and reduces no word
    expected = [brute_assoc_counterexamples(m, 1), brute_assoc_counterexamples(m, 2),
                list(_triple_search(m, 3))]
    with mock.patch.object(star_module, "_lstd", None) if not violations else nullcontext():
        for max_len, want in enumerate(expected, 1):
            report = P.associativity_search(m, max_len, find_all=True)
            assert list(report.counterexamples) == want
    return not violations, not violations and not a0


def test_three_element_census():
    tables = three_element_tables()
    assert len(set(tables)) == 512
    counts = {0: [0, 0], 2: [0, 0]}  # valid, confluent, by identity index
    # the second copy asks for the chain-law verdict before validate has run
    for m, fresh in zip(tables, three_element_tables()):
        assert chain_law_holds(fresh) == (not brute_chain_violations(fresh))
        valid, confluent = check_against_oracles(m)
        counts[m.identity][0] += valid
        counts[m.identity][1] += confluent
    assert counts == {0: [25, 23], 2: [25, 23]}


def test_four_element_census():
    tables = four_element_tables()
    assert len(set(tables)) == len(tables) == 2 * 533
    counts = {0: [0, 0], 2: [0, 0]}  # valid, confluent, by identity index
    for m in tables:
        valid, confluent = check_against_oracles(m)
        counts[m.identity][0] += valid
        counts[m.identity][1] += confluent
    assert counts == {0: [533, 443], 2: [533, 443]}
