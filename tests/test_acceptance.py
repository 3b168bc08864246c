"""Acceptance gate: the headline guarantees, one test per criterion.

Run with -s to see one verdict line per criterion.  The pool of random
monoids is seeded, so every run checks the same 100 structures.
"""

import itertools
import random
import time

import pytest

import parmon as P
from conftest import all_shapes
from oracles import brute_assoc_congruence, brute_assoc_triples
from parmon.rewriting import _sweep

_T0 = time.monotonic()

POOL_SEED = 20260823
POOL_SIZE = 100


@pytest.fixture(scope="module")
def pool():
    rng = random.Random(POOL_SEED)
    monoids = [P.random_monoid(rng, max_size=8) for _ in range(POOL_SIZE)]
    assert len(monoids) == POOL_SIZE
    return monoids


def words_over(letters, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(letters, repeat=length)


def test_criterion_1_fixture_verdicts(ex2, letters3):
    assert P.validate(letters3).valid
    verdict = P.is_confluent(letters3)
    assert not verdict.confluent
    first = verdict.a0_witnesses[0]
    a, b, ab, ba = (letters3.index(n) for n in ("a", "b", "ab", "ba"))
    x, y, z, xy, yz = first
    assert (x, y, z) == (a, b, a)
    assert ((xy, z), (x, yz)) == ((ab, a), (a, ba))

    assert P.validate(ex2).valid
    verdict2 = P.is_confluent(ex2)
    assert verdict2.confluent
    assert verdict2.a0_witnesses == ()
    print("criterion 1: PASS  fixture verdicts exact "
          "(letters3 not confluent, first A0 (a,b,a) -> ab·a vs a·ba; "
          "ex2 confluent with zero A0)")


def test_criterion_2_oracle_agreement(ex2, letters3, pool):
    checked = 0
    for m in [ex2, letters3] + pool:
        assert P.newman_check(m) == P.is_confluent(m).confluent
        checked += 1
    assert checked == POOL_SIZE + 2
    print(f"criterion 2: PASS  essential and critical-pair verdicts agree "
          f"on both fixtures and {POOL_SIZE} random monoids")


def test_criterion_3_normal_form_multiplicity(ex2, letters3):
    w = tuple(letters3.index(n) for n in "aba")
    forms = P.normal_forms(letters3, w)
    assert len(forms) == 2
    ab, a, ba = (letters3.index(n) for n in ("ab", "a", "ba"))
    assert forms == frozenset({(ab, a), (a, ba)})
    assert P.lstd(letters3, w) == (ab, a)

    letters = ex2.non_identity()  # x, y, z
    count = 0
    for u in words_over(letters, 6):
        # normal_forms answers ex2 from this law, so the sweep checks it
        forms = _sweep(ex2, u)
        assert len(forms) == 1
        assert P.normal_forms(ex2, u) == forms
        count += 1
    assert count == sum(3 ** k for k in range(7))
    print("criterion 3: PASS  a b a has exactly 2 normal forms with lstd "
          "picking ab·a; all 1093 ex2 words up to length 6 have exactly 1")


def test_criterion_4_left_standard_laws(ex2, letters3):
    # right-module law, full length <= 4 square on ex2
    ex2_words = list(words_over(range(ex2.size), 4))
    for u in ex2_words:
        for v in ex2_words:
            assert P.lstd(ex2, P.lstd(ex2, u) + v) == P.lstd(ex2, u + v)
    # letters3 has 69905 words of length <= 4; the full square is out of
    # reach, so exhaust all pairs with combined length <= 4 instead
    pairs = 0
    for s in range(5):
        for k in range(s + 1):
            for u in itertools.product(range(letters3.size), repeat=k):
                for v in itertools.product(range(letters3.size), repeat=s - k):
                    assert (P.lstd(letters3, P.lstd(letters3, u) + v)
                            == P.lstd(letters3, u + v))
                    pairs += 1
    assert pairs == sum((s + 1) * letters3.size ** s for s in range(5))
    # membership: lstd lands inside the normal form set
    for u in words_over(range(ex2.size), 6):
        assert P.lstd(ex2, u) in _sweep(ex2, u)
    for u in words_over(range(letters3.size), 4):
        assert P.lstd(letters3, u) in P.normal_forms(letters3, u)
    print(f"criterion 4: PASS  right-module law on {len(ex2_words) ** 2} "
          f"ex2 pairs and {pairs} letters3 pairs; lstd always a normal form")


def test_criterion_5_associativity_iff_confluence(ex2, letters3, group2,
                                                  du2, pool):
    # the search against the first triple whose star folds differ, at
    # lengths 1-2, and that oracle's verdict against confluence; the
    # search itself reads the A0 masks, so it is never compared with
    # is_confluent
    for m in (ex2, letters3, group2, du2, *pool):
        for max_len in (1, 2):
            first = next(brute_assoc_triples(m, max_len), None)
            report = P.associativity_search(m, max_len)
            assert list(report.counterexamples) == ([first] if first else [])
            assert (first is None) == P.is_confluent(m).confluent
    report = P.associativity_search(letters3, 2)
    c = report.counterexample
    a, b, ab, ba = (letters3.index(n) for n in ("a", "b", "ab", "ba"))
    assert (c.u, c.v, c.w) == ((a,), (b,), (a,))
    assert c.left == (ab, a) and c.right == (a, ba)
    print(f"criterion 5: PASS  star associativity matches the star-fold "
          f"oracle, and that oracle matches confluence, on 4 fixtures and "
          f"{POOL_SIZE} random monoids; first letters3 counterexample is "
          f"exactly ([a],[b],[a])")


def test_criterion_6_associativity_modulo_congruence(ex2, letters3):
    total = 0
    for m in (ex2, letters3):
        results = P.assoc_modulo_congruence(m, 1)
        assert all(results.values())  # zero unknowns
        for (u, v, w), ok in brute_assoc_congruence(m, 1).items():
            if (u, v, w) in results:
                assert results[(u, v, w)] == ok
            else:  # left out only when the bracketings are equal
                assert (P.star(m, P.star(m, u, v), w)
                        == P.star(m, u, P.star(m, v, w)))
            total += 1
    print(f"criterion 6: PASS  both bracketings convertible within "
          f"|u|+|v|+|w| for all {total} one-letter triples, zero unknowns")


def test_criterion_7_magma_laws(ex2, letters3):
    x = (ex2.index("x"),)
    # rank strictly decreases on every rotation, all shapes with <= 5 leaves
    shapes = 0
    for n in range(1, 6):
        for t in all_shapes([x] * n):
            shapes += 1
            for r in P.rotations(t):
                assert P.rank(r) < P.rank(t)
            assert P.rank(P.right_comb(t)) == 0
    assert shapes == 1 + 1 + 2 + 5 + 14

    # pentagon: every rotation path from (((x y) z) w) ends at the comb
    t = P.parse_tree(ex2, "(((x y) z) x)")
    closure = P.rotation_closure(t)
    assert len(closure) == 5
    comb = P.right_comb(t)
    for s in closure:
        succ = P.rotations(s)
        assert succ or s == comb  # only the comb is terminal

    # rotation invariance of evaluation, single-letter leaf labels
    checked = 0
    for n in range(1, 5):
        for seq in itertools.product(ex2.non_identity(), repeat=n):
            for s in all_shapes([(c,) for c in seq]):
                assert P.verify_rotation_invariance(ex2, s)
                checked += 1
    abc = tuple(letters3.index(n) for n in "abc")
    for n in range(1, 5):
        for seq in itertools.product(abc, repeat=n):
            for s in all_shapes([(c,) for c in seq]):
                assert P.verify_rotation_invariance(letters3, s)
                checked += 1
    # the full 15-letter alphabet stays exhaustive up to 3 leaves
    for n in range(1, 4):
        for seq in itertools.product(letters3.non_identity(), repeat=n):
            for s in all_shapes([(c,) for c in seq]):
                assert P.verify_rotation_invariance(letters3, s)
                checked += 1
    print(f"criterion 7: PASS  rank descent and comb normal forms on all "
          f"shapes to 5 leaves; pentagon closure of size 5; evaluation "
          f"rotation-invariant on {checked} labeled trees")


def test_criterion_8_catenary_implication(ex2, letters3, pool):
    assert P.is_catenary(ex2) == (False, (1, 2, 3))
    ok, witness = P.is_catenary(letters3)
    assert not ok and witness is not None

    catenary_seen = confluent_catenary = 0
    for m in pool:
        ok, _ = P.is_catenary(m)
        if ok:
            catenary_seen += 1
            assert P.is_confluent(m).confluent
            confluent_catenary += 1
        total = all(m.mul(i, j) is not None
                    for i in range(m.size) for j in range(m.size))
        if total:
            assert ok  # total monoids are always catenary
    assert catenary_seen == confluent_catenary > 0

    for n in range(1, 7):  # explicit total monoids: cyclic groups
        cyc = P.PartialMonoid([f"g{i}" for i in range(n)], 0,
                              {(i, j): (i + j) % n
                               for i in range(n) for j in range(n)})
        assert P.is_catenary(cyc) == (True, None)
        assert P.is_confluent(cyc).confluent
    print(f"criterion 8: PASS  both fixtures non-catenary; all "
          f"{catenary_seen} catenary pool monoids confluent; total monoids "
          f"catenary and confluent")


def test_criterion_9_runtime_envelope():
    elapsed = time.monotonic() - _T0
    assert elapsed < 60.0
    print(f"criterion 9: PASS  criteria 1-8 finished in {elapsed:.1f}s "
          f"(budget 60s)")
