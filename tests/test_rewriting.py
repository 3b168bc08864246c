"""Reduction steps, normal forms, the left standard strategy, convertibility."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import parmon as P
from conftest import wrd
from oracles import (brute_normal_forms, brute_one_step, brute_reachable,
                     iterated_left_standard, left_standard_successors)


def all_words(m, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(len(m.elements)), repeat=length)


def is_conversion_path(m, path, u, v):
    """Adjacent words must differ by one reduction, one way or the other."""
    if path[0] != u or path[-1] != v:
        return False
    for p, q in zip(path, path[1:]):
        down = {r for _, r in P.one_step_reductions(m, p)}
        up = {r for _, r in P.one_step_reductions(m, q)}
        if q not in down and p not in up:
            return False
    return True


# ------------------------------------------------------------------ one-step

def test_one_step_examples(ex2, letters3):
    y, z = ex2.index("y"), ex2.index("z")
    assert P.one_step_reductions(ex2, (y, y, z)) == {(0, (y, z)), (1, (y, z))}
    a, b, ab, ba = (letters3.index(n) for n in ("a", "b", "ab", "ba"))
    assert P.one_step_reductions(letters3, (a, b, a)) == {(0, (ab, a)),
                                                         (1, (a, ba))}
    assert P.one_step_reductions(ex2, ()) == set()
    assert P.one_step_reductions(ex2, (ex2.identity,)) == {(0, ())}


def test_one_step_matches_brute(ex2, letters3, group2):
    for m in (ex2, letters3, group2):
        for w in all_words(m, 4):
            got = {r for _, r in P.one_step_reductions(m, w)}
            assert got == brute_one_step(m, w)


def test_every_step_shortens_by_one(ex2, letters3, group2, du2):
    for m in (ex2, letters3, group2, du2):
        for w in all_words(m, 4):
            for _, r in P.one_step_reductions(m, w):
                assert len(r) == len(w) - 1


def test_irreducible_iff_no_steps(ex2, letters3):
    for m in (ex2, letters3):
        for w in all_words(m, 4):
            assert (not P.one_step_reductions(m, w)) == P.is_irreducible(m, w)


# ------------------------------------------------------------------ normal forms

def test_normal_forms_match_brute(ex2, letters3, group2, du2):
    for m, L in ((ex2, 5), (letters3, 4), (group2, 5), (du2, 4)):
        for w in all_words(m, L):
            assert set(P.normal_forms(m, w)) == brute_normal_forms(m, w)


def test_normal_forms_examples(ex2, letters3):
    y, z = ex2.index("y"), ex2.index("z")
    assert P.normal_forms(ex2, (y, y, z)) == frozenset({(z,)})
    a, b, ab, ba = (letters3.index(n) for n in ("a", "b", "ab", "ba"))
    forks = P.normal_forms(letters3, (a, b, a))
    assert forks == frozenset({(ab, a), (a, ba)})
    assert len(forks) == 2


def test_normal_forms_are_irreducible_and_reachable(ex2, letters3):
    for m in (ex2, letters3):
        for w in all_words(m, 4):
            nfs = P.normal_forms(m, w)
            reach = brute_reachable(m, w)
            assert nfs == {u for u in reach if P.is_irreducible(m, u)}


def test_confluent_fixture_has_singleton_normal_forms(ex2):
    for w in all_words(ex2, 5):
        assert len(P.normal_forms(ex2, w)) == 1


def test_normal_forms_of_a_long_word(ex2):
    # one layer per letter removed, no recursion: 600 letters is fine
    y = ex2.index("y")
    assert P.normal_forms(ex2, (y,) * 600) == {(y,)}


def test_normal_forms_word_cap(letters3, monkeypatch):
    # (a b)^k reaches a Fibonacci number of words; the cap counts them, w included
    w = wrd(letters3, " ".join(["a", "b"] * 4))
    reachable = len(brute_reachable(letters3, w))
    assert reachable == 34
    forms = P.normal_forms(letters3, w)
    monkeypatch.setattr(P.rewriting, "MAX_REACHABLE_WORDS", reachable)
    assert P.normal_forms(letters3, w) == forms
    monkeypatch.setattr(P.rewriting, "MAX_REACHABLE_WORDS", reachable - 1)
    with pytest.raises(ValueError, match=f"more than {reachable - 1} reachable words"):
        P.normal_forms(letters3, w)
    # (a b)^10 reaches 10,946 words
    monkeypatch.setattr(P.rewriting, "MAX_REACHABLE_WORDS", 1000)
    with pytest.raises(ValueError, match="more than 1000 reachable words; shorten the word"):
        P.normal_forms(letters3, wrd(letters3, " ".join(["a", "b"] * 10)))


def test_normal_forms_erase_identity_letters_first(ex2):
    # every order of erasing the forty identity letters reaches y
    w = wrd(ex2, " ".join(["1", "y"] * 40))
    assert P.normal_forms(ex2, w) == {wrd(ex2, "y")}


# ------------------------------------------------------------------ bad letters

WORD_FUNCTIONS = {
    "lstd": P.lstd,
    "is_irreducible": P.is_irreducible,
    "one_step_reductions": P.one_step_reductions,
    "normal_forms": P.normal_forms,
    "lstd_trace": P.lstd_trace,
    "convertible_bounded": lambda m, w: P.convertible_bounded(m, w, w),
    "star left": lambda m, w: P.star(m, w, ()),
    "star right": lambda m, w: P.star(m, (), w),
    "evaluate": lambda m, w: P.evaluate(m, P.Leaf(w)),
    "format_word": P.format_word,
}


@pytest.mark.parametrize("name", sorted(WORD_FUNCTIONS))
def test_out_of_range_letters_raise(ex2, name):
    # a negative letter must not wrap onto the last row of the table
    fn = WORD_FUNCTIONS[name]
    n, x, e = ex2.size, ex2.index("x"), ex2.identity
    for w in ((-1,), (n,), (x, -1), (-1, x), (x, n), (n, x), (e, -1), (e, n)):
        with pytest.raises(ValueError, match="unknown element index"):
            fn(ex2, w)


# ------------------------------------------------------------------ decomposition

def test_decomposition_finds_leftmost_pair(ex2, letters3, group2):
    # a reducible identity-free word's first trace move contracts its
    # leftmost defined pair, right after its longest irreducible prefix
    x, y, z = ex2.index("x"), ex2.index("y"), ex2.index("z")
    first = P.lstd_trace(ex2, (x, x, y, z)).steps[0]
    assert (first.rule, first.position, first.result) == ("x y -> x", 1, (x, x, z))
    for m in (ex2, letters3, group2):
        for w in all_words(m, 5):
            if m.identity in w or P.is_irreducible(m, w):
                continue
            s = P.lstd_trace(m, w).steps[0]
            i = s.position
            assert s.source == w
            assert m.mul(w[i], w[i + 1]) is not None
            assert P.is_irreducible(m, w[:i + 1])
            assert s.rule.startswith(f"{m.name(w[i])} {m.name(w[i + 1])} -> ")


def test_annihilating_pair_forces_empty_prefix(group2, ex2):
    # chain law: anything left of an annihilating pair would compose with
    # it, so on a valid table an x y -> eps move sits at position 0
    seen = 0
    for m in (group2, ex2):
        for w in all_words(m, 5):
            for s in P.lstd_trace(m, w).steps:
                if s.rule.endswith("-> eps") and len(s.rule.split()) == 4:
                    assert s.position == 0
                    seen += 1
    assert seen > 0


# ------------------------------------------------------------------ the schedule

def test_left_standard_step_phases(ex2):
    e, x, y, z = ex2.identity, ex2.index("x"), ex2.index("y"), ex2.index("z")
    # identity erasure first, leftmost identity first
    t = P.lstd_trace(ex2, (x, e, y, e))
    assert [(s.rule, s.position, s.result) for s in t.steps] == [
        ("1 -> eps", 1, (x, y, e)), ("1 -> eps", 2, (x, y)), ("x y -> x", 0, (x,))]
    # then the leftmost contraction
    assert P.lstd_trace(ex2, (x, y, y, z)).steps[0].result == (x, y, z)


def test_left_standard_step_annihilation(group2):
    g = group2.index("g")
    # g g contracts to the identity which erases in the same move
    for w, result in (((g, g), ()), ((g, g, g), (g,))):
        t = P.lstd_trace(group2, w)
        assert [(s.rule, s.position, s.result) for s in t.steps] == [
            ("g g -> eps", 0, result)]


def test_successors_are_a_subset_of_two_step_reduction(ex2, letters3, group2):
    # every schedule move is one plain step, or two for an annihilation:
    # the reference relation's moves, and each move lstd_trace records
    for m in (ex2, letters3, group2):
        for w in all_words(m, 4):
            one = {r for _, r in P.one_step_reductions(m, w)}
            two = one | {r2 for u in one
                         for _, r2 in P.one_step_reductions(m, u)}
            for s in left_standard_successors(m, w):
                assert s in two
            # the trace's later moves are the first moves of shorter words
            for s in P.lstd_trace(m, w).steps[:1]:
                annihilation = s.rule.endswith("-> eps") and len(s.rule.split()) == 4
                assert s.result in (two if annihilation else one)


def test_recorded_moves_are_plain_steps(ex2, letters3, group2, sample_tables):
    # each move of the recorded stack pass is one plain step at its
    # position, an annihilating pair two of them, and the replay ends at
    # lstd; on every table, the chain law is never used
    cases = [(ex2, 5), (letters3, 4), (group2, 6)]
    cases += [(m, 4 if m.size <= 5 else 3) for m in sample_tables]
    for m, L in cases:
        for w in all_words(m, L):
            word = w
            for i, z in P.rewriting._lstd_moves(m, w):
                nxt = P.rewriting._apply(word, i, z)
                assert (i, nxt) in P.one_step_reductions(m, word)
                word = nxt
            assert word == P.lstd(m, w)


def test_lstd_equals_iterated_schedule(ex2, letters3, group2, du2):
    for m, L in ((ex2, 5), (letters3, 4), (group2, 6), (du2, 4)):
        for w in all_words(m, L):
            assert P.lstd(m, w) == iterated_left_standard(m, w)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_lstd_equals_iterated_schedule_random(seed):
    rng = random.Random(seed)
    m = P.random_monoid(rng, max_size=6)
    n = len(m.elements)
    for _ in range(20):
        w = tuple(rng.randrange(n) for _ in range(rng.randint(0, 5)))
        assert P.lstd(m, w) == iterated_left_standard(m, w)
        assert P.lstd(m, w) in P.normal_forms(m, w)


def test_lstd_is_a_normal_form(ex2, letters3):
    for m, L in ((ex2, 5), (letters3, 4)):
        for w in all_words(m, L):
            nf = P.lstd(m, w)
            assert P.is_irreducible(m, nf)
            assert nf in P.normal_forms(m, w)


def test_lstd_examples(ex2, letters3):
    e, x, y, z = ex2.identity, ex2.index("x"), ex2.index("y"), ex2.index("z")
    assert P.lstd(ex2, (x, y, z)) == (x, z)
    assert P.lstd(ex2, (y, y, z)) == (z,)
    assert P.lstd(ex2, (e, e)) == ()
    a, b, c = (letters3.index(n) for n in "abc")
    e3, abc = letters3.identity, letters3.index("abc")
    assert P.lstd(letters3, (a, e3, b, c)) == (abc,)
    # the schedule resolves the a b a fork to the left
    ab = letters3.index("ab")
    assert P.lstd(letters3, (a, b, a)) == (ab, a)


def test_lstd_fixes_irreducibles(ex2, letters3):
    for m in (ex2, letters3):
        for w in P.enumerate_irreducible(m, 3):
            assert P.lstd(m, w) == w


def test_lstd_idempotent(ex2, letters3, group2):
    for m in (ex2, letters3, group2):
        for w in all_words(m, 4):
            assert P.lstd(m, P.lstd(m, w)) == P.lstd(m, w)


def test_lstd_right_module_law(ex2, letters3, group2):
    # normalizing a prefix first never changes the final normal form
    for m in (ex2, letters3, group2):
        for u in all_words(m, 3):
            for v in all_words(m, 2):
                assert P.lstd(m, P.lstd(m, u) + v) == P.lstd(m, u + v)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_lstd_right_module_law_random(seed):
    rng = random.Random(seed)
    m = P.random_monoid(rng, max_size=6)
    n = len(m.elements)
    for _ in range(15):
        u = tuple(rng.randrange(n) for _ in range(rng.randint(0, 4)))
        v = tuple(rng.randrange(n) for _ in range(rng.randint(0, 3)))
        assert P.lstd(m, P.lstd(m, u) + v) == P.lstd(m, u + v)


def test_reduction_is_right_congruent(ex2, letters3):
    # u -> u' lifts to u v -> u' v at the same position
    for m in (ex2, letters3):
        for u in all_words(m, 3):
            for pos, r in P.one_step_reductions(m, u):
                for v in all_words(m, 2):
                    assert (pos, r + v) in P.one_step_reductions(m, u + v)


def test_schedule_closure_reaches_exactly_lstd(ex2, letters3, group2):
    # the successor relation from w terminates at the single word lstd(w)
    for m, L in ((ex2, 5), (letters3, 4), (group2, 5)):
        for w in all_words(m, L):
            seen, frontier = {w}, [w]
            terminal = set()
            while frontier:
                nxt = []
                for u in frontier:
                    succ = left_standard_successors(m, u)
                    if not succ:
                        terminal.add(u)
                    for s in succ:
                        if s not in seen:
                            seen.add(s)
                            nxt.append(s)
                frontier = nxt
            assert terminal == {P.lstd(m, w)}


# ------------------------------------------------------------------ traces

def test_lstd_trace_structure(ex2):
    e, x, y, z = ex2.identity, ex2.index("x"), ex2.index("y"), ex2.index("z")
    t = P.lstd_trace(ex2, (x, e, y, z))
    assert t.start == (x, e, y, z)
    assert t.result == P.lstd(ex2, (x, e, y, z)) == (x, z)
    # steps chain source -> result
    assert t.steps[0].source == t.start
    for a, b in zip(t.steps, t.steps[1:]):
        assert a.result == b.source
    # erasure happens before any contraction
    assert [s.rule for s in t.steps] == ["1 -> eps", "x y -> x"]
    assert [s.position for s in t.steps] == [1, 0]


def test_lstd_trace_rules_and_positions(ex2, letters3, group2):
    for m in (ex2, letters3, group2):
        for w in all_words(m, 4):
            t = P.lstd_trace(m, w)
            assert t.start == w
            assert t.result == P.lstd(m, w)
            # each step drops one letter, or two on an annihilation
            shrink = len(w) - len(t.result)
            assert shrink / 2 <= len(t.steps) <= shrink
            for s in t.steps:
                assert s.result in {r for _, r in
                                    P.one_step_reductions(m, s.source)} \
                    or len(s.source) - len(s.result) == 2  # annihilation


def test_lstd_trace_annihilation_rule_text(group2):
    g = group2.index("g")
    t = P.lstd_trace(group2, (g, g))
    assert [s.rule for s in t.steps] == ["g g -> eps"]
    assert t.result == ()


def test_empty_trace(ex2):
    t = P.lstd_trace(ex2, wrd(ex2, "z y"))
    assert t.steps == ()
    assert t.result == wrd(ex2, "z y")


# ------------------------------------------------------------------ convertibility

def test_convertible_trivial_cases(ex2):
    x = ex2.index("x")
    assert P.convertible_bounded(ex2, (x,), (x,)) == [(x,)]
    path = P.convertible_bounded(ex2, (ex2.identity,), ())
    assert path == [(ex2.identity,), ()]


def test_convertible_fork_words(letters3):
    a, b, ab, ba = (letters3.index(n) for n in ("a", "b", "ab", "ba"))
    path = P.convertible_bounded(letters3, (ab, a), (a, ba))
    assert path is not None
    assert is_conversion_path(letters3, path, (ab, a), (a, ba))
    assert (a, b, a) in path  # the conversion climbs through the fork word
    # a tighter cap cuts the only route off
    assert P.convertible_bounded(letters3, (ab, a), (a, ba), max_len=2) is None


def test_convertible_distinct_letters_unknown(letters3):
    a, b = letters3.index("a"), letters3.index("b")
    assert P.convertible_bounded(letters3, (a,), (b,)) is None


def test_convertible_paths_are_valid_and_bounded(ex2, group2):
    for m in (ex2, group2):
        for u in all_words(m, 3):
            for v in all_words(m, 2):
                cap = len(u) + len(v)
                path = P.convertible_bounded(m, u, v)
                if path is None:
                    continue
                assert is_conversion_path(m, path, u, v)
                assert all(len(w) <= max(cap, len(u), len(v)) for w in path)


def test_convertible_iff_same_normal_form_when_confluent(ex2):
    # on a confluent system words convert exactly when lstd agrees,
    # and the default cap is enough to find the path
    for u in all_words(ex2, 3):
        for v in all_words(ex2, 3):
            same = P.lstd(ex2, u) == P.lstd(ex2, v)
            found = P.convertible_bounded(ex2, u, v) is not None
            assert found == same


def test_convertible_symmetric(letters3):
    a, b, ab, ba = (letters3.index(n) for n in ("a", "b", "ab", "ba"))
    fwd = P.convertible_bounded(letters3, (ab, a), (a, ba))
    bwd = P.convertible_bounded(letters3, (a, ba), (ab, a))
    assert fwd is not None and bwd is not None
    assert fwd[0] == (ab, a) and fwd[-1] == (a, ba)
    assert bwd[0] == (a, ba) and bwd[-1] == (ab, a)
