"""Every table on three elements, against the brute-force oracles."""

import itertools

import parmon as P
from oracles import (brute_assoc_counterexamples, brute_catenary,
                     brute_chain_violations, brute_classify, brute_normal_forms,
                     generic_critical_pairs)


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
    perm = (2, 0, 1)  # old index i is stored at perm[i]
    tables += [P.PartialMonoid(["p", "q", "1"], perm[m.identity],
                               {(perm[x], perm[y]): perm[z] for x, y, z in m.products})
               for m in tables]
    return tables


def test_three_element_census():
    tables = three_element_tables()
    assert len(set(tables)) == 512
    counts = {0: [0, 0], 2: [0, 0]}  # valid, confluent, by identity index
    for m in tables:
        violations = P.validate(m).violations
        assert {v[:3] for v in violations} == brute_chain_violations(m)
        a0 = [f[:5] for f in brute_classify(m) if f[5] == "A0"]
        assert list(P.is_confluent(m).a0_witnesses) == a0
        witness = brute_catenary(m)
        assert P.is_catenary(m) == (witness is None, witness)
        converges = all(brute_normal_forms(m, u) & brute_normal_forms(m, v)
                        for u, v in (cp.pair for cp in generic_critical_pairs(m)))
        assert P.newman_check(m) == converges
        report = P.associativity_search(m, 2, find_all=True)
        assert list(report.counterexamples) == brute_assoc_counterexamples(m, 2)
        counts[m.identity][0] += not violations
        counts[m.identity][1] += not violations and not a0
    assert counts == {0: [25, 23], 2: [25, 23]}
