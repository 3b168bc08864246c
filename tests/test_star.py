"""The star product on irreducible words and its associativity behavior."""

import importlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import parmon as P
from conftest import relabeled, wrd
from oracles import brute_assoc_congruence, brute_assoc_counterexamples
from parmon.star import _triple_search


def test_star_examples(ex2, letters3):
    x, y = (wrd(ex2, n) for n in ("x", "y"))
    assert P.star(ex2, x, y) == x  # x * y = x collapses the pair
    ab, a = (wrd(letters3, n) for n in ("ab", "a"))
    assert P.star(letters3, ab, a) == ab + a  # no product, plain concatenation


def test_star_identity_element_absorbed(ex2):
    # the empty word is the star identity
    for w in P.enumerate_irreducible(ex2, 3):
        assert P.star(ex2, P.EMPTY, w) == w
        assert P.star(ex2, w, P.EMPTY) == w


def test_star_closure_and_length(ex2, letters3, group2):
    # letters3 has thousands of irreducible words at bound 3; stop at 2
    for m, L in ((ex2, 3), (letters3, 2), (group2, 3)):
        irr = P.enumerate_irreducible(m, L)
        for u, v in itertools.product(irr, repeat=2):
            w = P.star(m, u, v)
            assert P.is_irreducible(m, w)
            assert len(w) <= len(u) + len(v)


def test_star_rejects_reducible_factors(ex2):
    yz = wrd(ex2, "y z")
    ok = wrd(ex2, "x")
    assert not P.is_irreducible(ex2, yz)
    with pytest.raises(ValueError, match="left factor"):
        P.star(ex2, yz, ok)
    with pytest.raises(ValueError, match="right factor"):
        P.star(ex2, ok, yz)
    with pytest.raises(ValueError, match="left factor"):
        P.star(ex2, (ex2.identity,), ok)


def test_star_annihilation(group2):
    g = wrd(group2, "g")
    assert P.star(group2, g, g) == P.EMPTY


# ------------------------------------------------------------------ associativity

def test_ex2_associative_up_to_3(ex2):
    report = P.associativity_search(ex2, 3)
    assert report.associative
    assert report.counterexamples == ()
    assert report.counterexample is None
    # a named tuple: fixed fields in order, immutable
    assert P.AssocReport._fields == ("counterexamples",)
    with pytest.raises(AttributeError):
        report.counterexamples = ()
    assert repr(report).startswith("AssocReport(counterexamples=")


def test_letters3_first_counterexample(letters3):
    for L in (1, 2):
        report = P.associativity_search(letters3, L)
        assert not report.associative
        c = report.counterexample
        assert c.u == wrd(letters3, "a")
        assert c.v == wrd(letters3, "b")
        assert c.w == wrd(letters3, "a")
        assert c.left == wrd(letters3, "ab a")
        assert c.right == wrd(letters3, "a ba")
        assert c.left != c.right


def test_letters3_find_all_counts_48(letters3):
    # one counterexample per A0 fork at the one-letter level
    report = P.associativity_search(letters3, 1, find_all=True)
    assert len(report.counterexamples) == 48
    a0 = {t[:3] for t in P.is_confluent(letters3).a0_witnesses}
    found = {(c.u[0], c.v[0], c.w[0]) for c in report.counterexamples}
    assert found == a0
    for c in report.counterexamples:
        assert c.left != c.right


def test_group2_associative(group2):
    assert P.associativity_search(group2, 4).associative


def test_search_matches_star_folds(ex2, letters3, sample_tables):
    # the search and the triple loop against both bracketings folded with
    # star; words of length 2 wherever that stays under 10^4 triples
    cases = [(ex2, 3), (letters3, 1)]
    for t in sample_tables:
        cases.append((t, 2 if len(P.enumerate_irreducible(t, 2)) <= 21 else 1))
    for m, L in cases:
        expected = brute_assoc_counterexamples(m, L)
        for find_all, want in ((True, expected), (False, expected[:1])):
            triples = _triple_search(m, L)
            for found in (P.associativity_search(m, L, find_all=find_all).counterexamples,
                          triples if find_all else itertools.islice(triples, 1)):
                assert [(c.u, c.v, c.w, c.left, c.right) for c in found] == want


def test_search_at_length_zero_is_empty(letters3, du2):
    # no letters, so no triples: the one-letter layer starts at length 1
    for m in (letters3, du2):
        assert P.associativity_search(m, 0, find_all=True).counterexamples == ()


def _identity_off_zero(m, seed):
    """A seeded relabeling of m with its identity not at index 0."""
    while True:
        t = relabeled(m, seed)
        if t.identity != 0:
            return t
        seed += 1000


def test_one_letter_layer_matches_brute_force(monkeypatch):
    # at lengths 1-3 a valid table's counterexamples come from its A0
    # masks, with no reduction at all.  The oracle folds every triple with
    # star, at length 1 and wherever that stays under 5,000 triples; past
    # that the triple loop is the reference, on up to 50 words
    rng = random.Random(7)
    tables = [P.gen_disjoint_union_monoid(k, cap=k) for k in range(1, 6)]
    tables += [P.gen_no_common_letters_monoid("abc"[:k]) for k in range(1, 4)]
    tables += [P.random_monoid(rng, n) for n in range(2, 17) for _ in range(3)]
    tables += [_identity_off_zero(m, i) for i, m in enumerate(tables) if m.size > 1]
    cases = []
    for m in tables:
        for L in (1, 2, 3):
            words = len(P.enumerate_irreducible(m, L))
            if L == 1 or words <= 17:
                cases.append((m, L, brute_assoc_counterexamples(m, L)))
            elif words <= 50:
                cases.append((m, L, list(_triple_search(m, L))))
    assert sum(L == 3 for _, L, _ in cases) > len(tables) * 3 // 4
    star_module = importlib.import_module("parmon.star")
    monkeypatch.setattr(star_module, "_lstd", None)
    for m, L, want in cases:
        for find_all in (True, False):
            report = P.associativity_search(m, L, find_all=find_all)
            assert list(report.counterexamples) == (want if find_all else want[:1])


def test_search_reduces_composing_pairs_on_first_use(letters3, monkeypatch):
    # in the triple loop at length 3 the first counterexample (a, b, a)
    # ends the first pass after the pairs ((a), w), for every w that a composes with, and
    # ((b), (a)): each visited pair is reduced once and its triple's two
    # sides once each, and the other 598,513 composing pairs never are
    star_module = importlib.import_module("parmon.star")
    calls = 0

    def counted(m, w):
        nonlocal calls
        calls += 1
        return P.lstd(m, w)
    monkeypatch.setattr(star_module, "_lstd", counted)
    c = next(_triple_search(letters3, 3))
    a, b = wrd(letters3, "a"), wrd(letters3, "b")
    assert (c.u, c.v, c.w) == (a, b, a)
    words = P.enumerate_irreducible(letters3, 3)[1:]
    assert words[:2] == [a, b]
    visited = sum(letters3.rows[a[0]][w[0]] is not None for w in words) + 1
    assert visited == 761
    assert calls == 3 * visited


def test_triple_budget_is_exact(ex2, letters3, monkeypatch):
    # the triple loop on ex2 at length 3: 22 nonempty words u against 96
    # composing pairs, all checked, since ex2 is associative
    star_module = importlib.import_module("parmon.star")
    monkeypatch.setattr(star_module, "MAX_TRIPLES", 22 * 96)
    assert list(_triple_search(ex2, 3)) == []
    monkeypatch.setattr(star_module, "MAX_TRIPLES", 22 * 96 - 1)
    with pytest.raises(ValueError, match=f"more than {22 * 96 - 1} triples"):
        list(_triple_search(ex2, 3))
    # a search that ends in its first pass answers within a budget of
    # one pass: letters3 has 3,024 composing pairs at length 2
    monkeypatch.setattr(star_module, "MAX_TRIPLES", 3024)
    assert next(_triple_search(letters3, 2)).u == wrd(letters3, "a")
    monkeypatch.setattr(star_module, "MAX_TRIPLES", 3023)
    with pytest.raises(ValueError, match="more than 3023 triples"):
        next(_triple_search(letters3, 2))


def test_composing_pair_cap_is_exact(letters3, monkeypatch):
    # the tallies count exactly the pairs the triple loop would hold
    irr = P.enumerate_irreducible(letters3, 2)
    pairs = sum(1 for v, w in itertools.product(irr, repeat=2)
                if v and w and letters3.rows[v[-1]][w[0]] is not None)
    star_module = importlib.import_module("parmon.star")
    monkeypatch.setattr(star_module, "MAX_COMPOSING_PAIRS", pairs)
    assert next(_triple_search(letters3, 2), None) is not None
    monkeypatch.setattr(star_module, "MAX_COMPOSING_PAIRS", pairs - 1)
    with pytest.raises(ValueError, match=f"more than {pairs - 1} composing pairs"):
        next(_triple_search(letters3, 2))


def test_counterexample_budget_is_exact(letters3, monkeypatch):
    # the tallies count exactly the 8,748 counterexamples at length 2,
    # before any is built
    star_module = importlib.import_module("parmon.star")
    monkeypatch.setattr(star_module, "MAX_COUNTEREXAMPLES", 8748)
    assert len(P.associativity_search(letters3, 2, find_all=True).counterexamples) == 8748
    monkeypatch.setattr(star_module, "MAX_COUNTEREXAMPLES", 8747)
    with pytest.raises(ValueError, match="more than 8747 counterexamples; lower max_len"):
        P.associativity_search(letters3, 2, find_all=True)


def test_law_enumerates_no_word_on_confluent_tables(ex2, group2, letters3, monkeypatch):
    # a confluent valid table answers at any length with no word
    # enumerated; without find_all a table with an A0 fork enumerates
    # no word longer than one letter
    star_module = importlib.import_module("parmon.star")

    def unreachable(m, max_len):
        raise AssertionError("enumerate_irreducible called")
    monkeypatch.setattr(star_module, "enumerate_irreducible", unreachable)
    for m in (ex2, group2):
        for find_all in (True, False):
            assert P.associativity_search(m, 5, find_all=find_all).associative
    lengths = []

    def recorded(m, max_len):
        lengths.append(max_len)
        return P.enumerate_irreducible(m, max_len)
    monkeypatch.setattr(star_module, "enumerate_irreducible", recorded)
    c = P.associativity_search(letters3, 9).counterexample
    assert (c.u, c.v, c.w) == tuple(wrd(letters3, n) for n in ("a", "b", "a"))
    assert lengths == [1]


def test_counterexamples_verify(letters3):
    report = P.associativity_search(letters3, 1, find_all=True)
    for c in report.counterexamples:
        assert P.star(letters3, P.star(letters3, c.u, c.v), c.w) == c.left
        assert P.star(letters3, c.u, P.star(letters3, c.v, c.w)) == c.right


# ------------------------------------------------------------------ congruence

def test_assoc_modulo_congruence_ex2(ex2):
    # confluent: no counterexample, so nothing to search
    assert P.associativity_search(ex2, 2, find_all=True).associative
    assert P.assoc_modulo_congruence(ex2, 2) == {}


def test_assoc_modulo_congruence_letters3(letters3, monkeypatch):
    # bracketings differ as words but always convert through u v w; each
    # key (u, v, w) is checked once, as rotation invariance of ((u v) w)
    star_module = importlib.import_module("parmon.star")
    verify, trees = star_module.verify_rotation_invariance, []

    def recorded(m, t):
        trees.append(t)
        return verify(m, t)

    monkeypatch.setattr(star_module, "verify_rotation_invariance", recorded)
    results = P.assoc_modulo_congruence(letters3, 1)
    assert len(results) == 48
    assert all(results.values())
    assert trees == [P.Node(P.Node(P.Leaf(u), P.Leaf(v)), P.Leaf(w)) for u, v, w in results]


def test_assoc_modulo_congruence_letters3_length2(letters3):
    results = P.assoc_modulo_congruence(letters3, 2)
    assert len(results) == 8748
    assert all(results.values())


def test_congruence_check_covers_every_triple(ex2, letters3):
    # the keys are the search's counterexamples, in its order
    for m, L in ((ex2, 2), (letters3, 1)):
        results = P.assoc_modulo_congruence(m, L)
        report = P.associativity_search(m, L, find_all=True)
        assert list(results) == [(c.u, c.v, c.w) for c in report.counterexamples]
        assert all(results.values())


def test_congruence_matches_brute_force(ex2, letters3, du2, sample_tables):
    # every triple is covered: the keys are exactly the triples whose
    # folded bracketings differ, in order, each with the oracle's value,
    # and the triples left out have equal bracketings; on the tables
    # that break the chain law too, where the certificate still holds
    cases = [(ex2, 2), (letters3, 1), (du2, 1)]
    cases += [(m, 1) for m in sample_tables]
    for m, L in cases:
        got = P.assoc_modulo_congruence(m, L)
        expected = brute_assoc_congruence(m, L)
        differ = [(u, v, w) for u, v, w, _, _ in brute_assoc_counterexamples(m, L)]
        assert list(got) == differ
        assert got == {t: expected[t] for t in differ}
        assert all(ok for t, ok in expected.items() if t not in got)


# ------------------------------------------------------------------ the equivalence

def test_associativity_iff_confluence_fixtures(ex2, letters3, group2, trivial, du2):
    # the triple loop never reads the A0 masks, so it checks the theorem
    for m in (ex2, letters3, group2, trivial, du2):
        confluent = P.is_confluent(m).confluent
        assert P.associativity_search(m, 2).associative == confluent
        assert (next(_triple_search(m, 2), None) is None) == confluent


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_associativity_iff_confluence_random(seed):
    m = P.random_monoid(random.Random(seed))
    confluent = P.is_confluent(m).confluent
    assert P.associativity_search(m, 2).associative == confluent
    assert (next(_triple_search(m, 2), None) is None) == confluent


def test_nonconfluent_fails_already_on_letters(letters3, du2):
    # the A0 fork letters refute associativity at bound 1
    for m in (letters3, du2):
        assert not P.is_confluent(m).confluent
        assert not P.associativity_search(m, 1).associative


# ------------------------------------------------------------------ quotient

def test_lstd_picks_one_irreducible_word_per_class(ex2, group2):
    # confluent: lstd maps every word to an irreducible fixed point, the
    # distinct images are exactly the irreducible words, and star on the
    # images is the product of the classes
    for m in (ex2, group2):
        assert P.is_confluent(m).confluent
        words = [w for length in range(4)
                 for w in itertools.product(range(m.size), repeat=length)]
        for w in words:
            r = P.lstd(m, w)
            assert P.is_irreducible(m, r)
            assert P.lstd(m, r) == r
        assert {P.lstd(m, w) for w in words} == set(P.enumerate_irreducible(m, 3))
        short = [w for w in words if len(w) <= 2]
        for w1, w2 in itertools.product(short, repeat=2):
            assert P.lstd(m, w1 + w2) == P.star(m, P.lstd(m, w1), P.lstd(m, w2))
