"""Essential fork classification and the generic critical-pair oracle."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import parmon as P
from conftest import one_product_edits, relabeled
from oracles import (apply_rule, brute_catenary, brute_chain_violations,
                     brute_classify, brute_normal_forms, generic_critical_pairs)
from parmon.rewriting import _sweep


def classes(triples):
    out = {"A0": 0, "A1": 0, "B": 0}
    for t in triples:
        out[t[5]] += 1
    return out


def pair(fork):
    """The critical pair ((a, z), (x, b)) of a fork (x, y, z, a, b, ...)."""
    x, _, z, a, b = fork[:5]
    return ((a, z), (x, b))


# ------------------------------------------------------------------ essential

def test_essential_pairs_match_brute(ex2, letters3, group2, trivial, du2,
                                    sample_tables):
    # the samples reach shuffled element orders and invalid tables
    assert any(m.identity != 0 for m in sample_tables)
    assert any(not P.validate(m).valid for m in sample_tables)
    for m in (ex2, letters3, group2, trivial, du2, *sample_tables):
        assert list(P.essential_critical_pairs(m)) == brute_classify(m)


def test_essential_counts_ex2(ex2):
    triples = list(P.essential_critical_pairs(ex2))
    assert len(triples) == 29
    assert classes(triples) == {"A0": 0, "A1": 7, "B": 22}


def test_essential_counts_letters3(letters3):
    triples = list(P.essential_critical_pairs(letters3))
    assert len(triples) == 361
    assert classes(triples)["A0"] == 48


def test_ex2_named_triples(ex2):
    x, y, z = ex2.index("x"), ex2.index("y"), ex2.index("z")
    kinds = {t[:3]: t[5] for t in P.essential_critical_pairs(ex2)}
    assert kinds[(x, y, y)] == "B"
    assert kinds[(y, y, y)] == "B"
    assert kinds[(y, y, z)] == "B"
    assert kinds[(x, y, z)] == "A1"


def test_identity_middle_gives_a1(ex2, letters3):
    # (x, 1, z) with x*z undefined: both sides are already the word x z
    for m in (ex2, letters3):
        e = m.identity
        for t in P.essential_critical_pairs(m):
            x, y, z = t[:3]
            if y == e and m.mul(x, z) is None and e not in (x, z):
                assert t[5] == "A1"
                assert pair(t)[0] == pair(t)[1] == (x, z)


def test_first_a0_witness_letters3(letters3):
    a, b, ab, ba = (letters3.index(n) for n in ("a", "b", "ab", "ba"))
    a0 = [t for t in P.essential_critical_pairs(letters3) if t[5] == "A0"]
    first = a0[0]
    assert first[:3] == (a, b, a)
    assert first[3:5] == (ab, ba)
    assert pair(first) == ((ab, a), (a, ba))


def test_a1_pairs_are_syntactically_equal(ex2, letters3, group2):
    for m in (ex2, letters3, group2):
        for t in P.essential_critical_pairs(m):
            if t[5] == "A1":
                assert pair(t)[0] == pair(t)[1]
            elif t[5] == "A0":
                # a != x or b != z forces the sides apart letterwise
                assert pair(t)[0] != pair(t)[1]


def test_b_pairs_converge_in_one_more_step(ex2, letters3, group2):
    # chain law: (x*y)*z = x*(y*z), so both sides contract to one letter
    for m in (ex2, letters3, group2):
        for x, y, z, a, b, kind in P.essential_critical_pairs(m):
            if kind == "B":
                left = m.mul(a, z)
                right = m.mul(x, b)
                assert left is not None and left == right


def test_a0_witnesses_avoid_identity(letters3):
    e = letters3.identity
    a0 = [t for t in P.essential_critical_pairs(letters3) if t[5] == "A0"]
    assert a0
    for t in a0:
        assert e not in t[:5]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_a0_witnesses_avoid_identity_random(seed):
    m = P.random_monoid(random.Random(seed))
    e = m.identity
    for t in P.essential_critical_pairs(m):
        if t[5] == "A0":
            assert e not in t[:5]


def test_trivial_monoid_single_b_row(trivial):
    # the one fork (1,1,1) rejoins immediately; nothing else exists
    triples = list(P.essential_critical_pairs(trivial))
    assert len(triples) == 1
    t = triples[0]
    assert t[:5] == (0, 0, 0, 0, 0)
    assert t[5] == "B"


# ------------------------------------------------------------------ verdicts

def test_confluence_verdicts(ex2, letters3, group2, trivial, du2):
    assert P.is_confluent(ex2).confluent
    assert P.is_confluent(group2).confluent
    assert P.is_confluent(trivial).confluent
    assert not P.is_confluent(letters3).confluent
    assert not P.is_confluent(du2).confluent


def test_verdict_fields(ex2, letters3):
    v = P.is_confluent(ex2)
    assert v.a0_witnesses == ()
    assert v.confluent == (not v.a0_witnesses)
    v3 = P.is_confluent(letters3)
    assert len(v3.a0_witnesses) == 48
    assert all(len(t) == 5 for t in v3.a0_witnesses)
    assert v3.confluent == (not v3.a0_witnesses)
    # a named tuple: fixed fields in order, immutable
    assert P.ConfluenceVerdict._fields == ("monoid", "a0_rows")
    with pytest.raises(AttributeError):
        v3.a0_rows = ()
    assert repr(v).startswith("ConfluenceVerdict(monoid=")


def test_a0_witnesses_are_the_a0_essential_pairs(ex2, letters3, du2,
                                                 sample_tables):
    # one mask row per defined pair with an A0 fork, in (x, y) order,
    # whose bits are that pair's A0 forks; the witnesses keep (x, y, z)
    # order, also on du7 and on invalid one-product edits
    du3 = relabeled(P.gen_disjoint_union_monoid(3), 2)
    rest = du3.non_identity()
    edits = [e for e in one_product_edits(du3, [(x, y) for x in rest for y in rest])
             if not P.validate(e).valid]
    for m in (ex2, letters3, du2, P.gen_disjoint_union_monoid(7, cap=7),
              *sample_tables, *edits[::7]):
        expected = [t[:5] for t in P.essential_critical_pairs(m)
                    if t[5] == "A0"]
        rows = {}
        for x, y, z, a, _ in expected:
            rows.setdefault((x, y, a), []).append(z)
        verdict = P.is_confluent(m)
        assert [(x, y, a, [z for z in range(m.size) if mask >> z & 1])
                for x, y, a, mask in verdict.a0_rows] == [
                    (*k, zs) for k, zs in rows.items()]
        assert list(verdict.a0_witnesses) == expected
        assert verdict.confluent == (not expected)


def test_a0_fork_words_have_multiple_normal_forms(letters3, du2):
    for m in (letters3, du2):
        for t in P.is_confluent(m).a0_witnesses:
            assert len(P.normal_forms(m, t[:3])) >= 2


def test_confluent_words_have_one_normal_form(ex2, group2, trivial):
    # normal_forms answers these tables from this law, so the sweep checks it
    for m in (ex2, group2, trivial):
        assert P.is_confluent(m).confluent
        n = len(m.elements)
        for length in range(7):
            for w in itertools.product(range(n), repeat=length):
                forms = _sweep(m, w)
                assert len(forms) == 1
                assert P.normal_forms(m, w) == forms


# ------------------------------------------------------------------ generic pairs

def test_generic_pairs_trivial_monoid(trivial):
    pairs = generic_critical_pairs(trivial)
    assert pairs  # identity rules superpose with themselves
    for cp in pairs:
        nf = P.normal_forms(trivial, cp.pair[0]) & P.normal_forms(trivial, cp.pair[1])
        assert nf  # every pair trivially converges
    assert P.newman_check(trivial)


def test_generic_overlap_example(ex2):
    x, y = ex2.index("x"), ex2.index("y")
    overlaps = [cp for cp in generic_critical_pairs(ex2)
                if cp.kind == "overlap" and cp.source == (x, y, y)]
    assert len(overlaps) == 1
    cp = overlaps[0]
    assert cp.rule1 == ((x, y), (x,))
    assert cp.rule2 == ((y, y), (y,))
    assert cp.pair == ((x, y), (x, y))


def test_generic_inclusion_example(ex2):
    e, x = ex2.identity, ex2.index("x")
    incl = [cp for cp in generic_critical_pairs(ex2)
            if cp.kind == "inclusion" and cp.source == (x, e)]
    assert len(incl) == 1
    cp = incl[0]
    assert cp.rule1 == ((x, e), (x,))
    assert cp.rule2 == ((e,), ())
    assert cp.pair == ((x,), (x,))


def test_inclusion_pairs_are_trivial(ex2, letters3, group2):
    # erasing inside an identity-involving left side lands on the same word
    for m in (ex2, letters3, group2):
        for cp in generic_critical_pairs(m):
            if cp.kind == "inclusion":
                assert cp.pair[0] == cp.pair[1]


def test_inclusion_pairs_need_no_check(ex2, letters3, sample_tables):
    # the identity rows are forced on any table, valid or not, so
    # newman_check walks only the overlaps
    for m in (ex2, letters3, *sample_tables):
        inclusions = [cp.pair for cp in generic_critical_pairs(m)
                      if cp.kind == "inclusion"]
        assert len(inclusions) == 2 * m.size
        assert all(u == v for u, v in inclusions)


def test_apply_rule_reconstructs_pairs(ex2, letters3):
    for m in (ex2, letters3):
        for cp in generic_critical_pairs(m):
            assert apply_rule(cp.rule1, cp.source, cp.pos1) == cp.pair[0]
            assert apply_rule(cp.rule2, cp.source, cp.pos2) == cp.pair[1]


def test_apply_rule_checks_match():
    with pytest.raises(ValueError, match="does not match"):
        apply_rule(((1, 2), (3,)), (1, 1, 2), 0)
    assert apply_rule(((1, 2), (3,)), (1, 1, 2), 1) == (1, 3)


def test_overlaps_mirror_essential_triples(ex2, letters3, sample_tables):
    # same forks in the same (x, y, z) order
    for m in (ex2, letters3, *sample_tables):
        overlaps = [(cp.source, cp.pair)
                    for cp in generic_critical_pairs(m)
                    if cp.kind == "overlap"]
        essential = [(t[:3], pair(t))
                     for t in P.essential_critical_pairs(m)]
        assert overlaps == essential


def test_converges(letters3, ex2):
    # a pair converges exactly when its two sides share a normal form
    a, b, ab, ba = (letters3.index(n) for n in ("a", "b", "ab", "ba"))
    assert not P.normal_forms(letters3, (ab, a)) & P.normal_forms(letters3, (a, ba))
    x, y = ex2.index("x"), ex2.index("y")
    assert P.normal_forms(ex2, (x, y)) & P.normal_forms(ex2, (x,))


def test_newman_agrees_with_essential(ex2, letters3, group2, trivial, du2):
    for m in (ex2, letters3, group2, trivial, du2):
        assert P.newman_check(m) == P.is_confluent(m).confluent


def test_newman_matches_generic_pairs(ex2, letters3, du2, sample_tables):
    answers = set()
    for m in (ex2, letters3, du2, *sample_tables):
        expected = all(P.normal_forms(m, u) & P.normal_forms(m, v)
                       for u, v in (cp.pair for cp in generic_critical_pairs(m)))
        assert P.newman_check(m) == expected
        answers.add(expected)
    assert answers == {True, False}


def test_two_letter_words_have_one_normal_form(ex2, letters3, group2, cyc8, du2,
                                              sample_tables):
    # the lemma newman_check stands on: eps and a non-identity letter are
    # irreducible, the identity letter erases, p q is irreducible when p*q
    # is undefined and otherwise every step leads to the letter p*q, so
    # every word of at most two letters has one normal form, valid or not
    tables = (ex2, letters3, group2, cyc8, du2, *sample_tables)
    assert any(not P.validate(m).valid for m in tables)
    for m in tables:
        for length in range(3):
            for w in itertools.product(range(m.size), repeat=length):
                assert brute_normal_forms(m, w) == {P.lstd(m, w)}


def _normal_forms_wanted(m):
    """The words newman_check should reduce to their lstd, in order.

    An overlap pair whose sides contract in one step to the same letter
    converges without them, unless the table breaks the chain law: then
    every overlap pair needs them.  Both sides of each remaining pair go
    in, in pair order, up to and including the first pair that does not
    converge, and no further.
    """
    broken = bool(brute_chain_violations(m))
    wanted = []
    for cp in generic_critical_pairs(m):
        if cp.kind != "overlap":
            continue
        u, v = cp.pair
        if (not broken and m.mul(*u) is not None
                and m.mul(*u) == m.mul(*v)):
            continue
        wanted += [u, v]
        if not P.normal_forms(m, u) & P.normal_forms(m, v):
            break
    return wanted


def _newman_calls(m, monkeypatch):
    calls = []

    def recording(m, w):
        calls.append(w)
        return P.lstd(m, w)

    with monkeypatch.context() as patch:
        patch.setattr("parmon.confluence._lstd", recording)
        verdict = P.newman_check(m)
    return verdict, calls


def test_newman_stops_at_first_failing_pair(letters3, monkeypatch):
    # the pairs that are not one-step joinable, in pair order, up to the
    # first pair that does not converge and no further
    needed = _normal_forms_wanted(letters3)
    overlaps = [cp.pair for cp in generic_critical_pairs(letters3)
                if cp.kind == "overlap"]
    assert 0 < len(needed) < len({w for pair in overlaps for w in pair})
    assert _newman_calls(letters3, monkeypatch) == (False, needed)


def test_newman_one_step_pretest_skips_normal_forms(group2, cyc8, monkeypatch):
    # in a group every fork is B: each pair contracts in one step to the
    # same letter, so no normal forms are needed at all
    for m in (group2, cyc8):
        assert _newman_calls(m, monkeypatch) == (True, [])


def test_newman_normal_forms_calls_on_samples(ex2, sample_tables, monkeypatch):
    # on an invalid table every overlap pair is walked, in pair order
    for m in (ex2, *sample_tables):
        _, calls = _newman_calls(m, monkeypatch)
        assert calls == _normal_forms_wanted(m)


def test_newman_never_reads_the_unique_forms_verdict(ex2, letters3, group2, cyc8,
                                                    sample_tables, monkeypatch):
    # the oracle compares the lstd of each pair's sides: it gives the
    # same answers when neither normal_forms path can be taken
    tables = (ex2, letters3, group2, cyc8, *sample_tables)
    expected = [P.newman_check(m) for m in tables]
    assert set(expected) == {True, False}

    def refuse(m):
        raise AssertionError("newman_check read the unique-forms verdict")

    def no_sweep(m, w):
        raise AssertionError("newman_check swept normal forms")

    monkeypatch.setattr("parmon.confluence._a0_rows", refuse)
    monkeypatch.setattr("parmon.confluence._sweep", no_sweep)
    assert [P.newman_check(m) for m in tables] == expected


def test_mask_walks_match_the_oracles(sample_tables):
    # every verdict read off the right-partner masks, against the brute
    # force references, on invalid mutants and on larger random tables
    rng = random.Random(12)
    tables = [*sample_tables, *(P.random_monoid(rng, 12) for _ in range(300))]
    verdicts = set()
    for m in tables:
        a0 = [f[:5] for f in brute_classify(m) if f[5] == "A0"]
        assert list(P.is_confluent(m).a0_witnesses) == a0
        witness = brute_catenary(m)
        assert P.is_catenary(m) == (witness is None, witness)
        converges = all(P.normal_forms(m, u) & P.normal_forms(m, v)
                        for u, v in (cp.pair for cp in generic_critical_pairs(m)))
        assert P.newman_check(m) == converges
        verdicts.add((not a0, witness is None, converges))
    assert {v[0] for v in verdicts} == {v[1] for v in verdicts} == {True, False}
    assert {v[2] for v in verdicts} == {True, False}


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_newman_agrees_with_essential_random(seed):
    m = P.random_monoid(random.Random(seed))
    assert P.newman_check(m) == P.is_confluent(m).confluent


def test_total_two_element_monoid_confluent():
    m = P.PartialMonoid(["1", "t"], 0, {(1, 1): 1})
    assert P.validate(m).valid
    assert P.is_catenary(m) == (True, None)
    assert P.newman_check(m)
    assert P.is_confluent(m).confluent
