"""Reduction steps, normal forms, the left standard strategy, convertibility."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import parmon as P
from conftest import relabeled, wrd
from oracles import (brute_normal_forms, brute_one_step, brute_reachable,
                     iterated_left_standard, left_standard_schedule,
                     left_standard_successors)
from parmon import cli
from parmon.rewriting import _steps, _sweep


def all_words(m, max_len):
    for length in range(max_len + 1):
        yield from itertools.product(range(len(m.elements)), repeat=length)


def is_conversion_path(m, path, u, v):
    """Adjacent words must differ by one reduction, one way or the other."""
    if path[0] != u or path[-1] != v:
        return False
    for p, q in zip(path, path[1:]):
        if q not in brute_one_step(m, p) and p not in brute_one_step(m, q):
            return False
    return True


def after(m, move):
    """The word a move (source, i, z) of lstd_trace makes of its source."""
    source, i, z = move
    if z is None:
        return source[:i] + source[i + 1:]
    if z == m.identity:
        return source[:i] + source[i + 2:]
    return source[:i] + (z,) + source[i + 2:]


def steps(m, w):
    """The single reduction steps of w, as a set of (position, result)."""
    return set(_steps(m, w))


# ------------------------------------------------------------------ one-step

def test_one_step_examples(ex2, letters3):
    y, z = ex2.index("y"), ex2.index("z")
    assert steps(ex2, (y, y, z)) == {(0, (y, z)), (1, (y, z))}
    a, b, ab, ba = (letters3.index(n) for n in ("a", "b", "ab", "ba"))
    assert steps(letters3, (a, b, a)) == {(0, (ab, a)), (1, (a, ba))}
    assert steps(ex2, ()) == set()
    assert steps(ex2, (ex2.identity,)) == {(0, ())}


def test_one_step_matches_brute(ex2, letters3, group2):
    for m in (ex2, letters3, group2):
        for w in all_words(m, 4):
            got = {r for _, r in _steps(m, w)}
            assert got == brute_one_step(m, w)


def test_every_step_shortens_by_one(ex2, letters3, group2, du2):
    for m in (ex2, letters3, group2, du2):
        for w in all_words(m, 4):
            for _, r in _steps(m, w):
                assert len(r) == len(w) - 1


def test_irreducible_iff_no_steps(ex2, letters3):
    for m in (ex2, letters3):
        for w in all_words(m, 4):
            assert (not steps(m, w)) == P.is_irreducible(m, w)


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
    # normal_forms answers ex2 from this law, so the brute force checks it
    for w in all_words(ex2, 5):
        forms = brute_normal_forms(ex2, w)
        assert len(forms) == 1
        assert P.normal_forms(ex2, w) == forms


def test_normal_forms_of_a_long_word(ex2):
    y = ex2.index("y")
    assert P.normal_forms(ex2, (y,) * 600) == {(y,)}


def test_normal_forms_of_a_long_word_are_swept():
    # one layer per letter removed, no recursion: 600 letters is fine;
    # ex2 with one more letter u, y u = z: the A0 fork (x, y, u) gives
    # x·u and x·z
    m = P.parse_monoid("elements: 1 x y z u\nidentity: 1\n"
                       "x y = x\ny y = y\ny z = z\ny u = z\n")
    assert P.validate(m).valid and not P.is_confluent(m).confluent
    x, y, z, u = (m.index(n) for n in "xyzu")
    assert P.normal_forms(m, (x, *(y,) * 600, u)) == {(x, u), (x, z)}


def _relabeled_off_zero(m, seed):
    """m relabeled by the first seed from seed on that moves the identity
    off index 0."""
    while True:
        r = relabeled(m, seed)
        if r.identity != 0:
            return r
        seed += 1


def _normal_forms_match_brute(m, max_len):
    """Check normal_forms against the brute force; the count of words checked."""
    checked = 0
    for w in all_words(m, max_len):
        assert P.normal_forms(m, w) == brute_normal_forms(m, w)
        checked += 1
    return checked


def _swept_words(monkeypatch):
    """A list that collects each word normal_forms hands to _sweep."""
    swept = []

    def spy(m, w):
        swept.append(w)
        return _sweep(m, w)

    monkeypatch.setattr(P.confluence, "_sweep", spy)
    return swept


def test_unique_forms_match_brute_on_confluent_fixtures(ex2, group2, cyc8, monkeypatch):
    # normal_forms must answer these from {lstd(w)} alone, never sweeping
    swept = _swept_words(monkeypatch)
    for m in (ex2, group2, P.gen_disjoint_union_monoid(1),
              P.gen_no_common_letters_monoid("a"), cyc8):
        _normal_forms_match_brute(m, 5)
        assert swept == []
        assert P.monoid.chain_law_holds(m) and P.confluence._a0_rows(m) == ()


def test_normal_forms_match_brute_on_random_tables(monkeypatch):
    # each table takes one path for every word: {lstd(w)} or the sweep
    swept = _swept_words(monkeypatch)
    rng = random.Random(22)
    taken = set()
    for seed in range(40):
        m = P.random_monoid(rng, 5)
        tables = [m] if m.size == 1 else [m, _relabeled_off_zero(m, seed)]
        for t in tables:
            swept.clear()
            checked = _normal_forms_match_brute(t, 5)
            assert len(swept) in (0, checked)
            assert (swept == []) == (P.monoid.chain_law_holds(t) and not P.confluence._a0_rows(t))
            taken.add(swept == [])
    assert taken == {True, False}


def test_invalid_tables_are_swept(sample_tables, monkeypatch):
    # on an invalid table a B fork need not rejoin, so "no A0 fork"
    # proves nothing there; the sweep alone takes seconds on the
    # 8-element mutants at length 5, so they stop at 4
    swept = _swept_words(monkeypatch)
    invalid = [m for m in sample_tables if not P.validate(m).valid]
    assert any(P.is_confluent(m).confluent for m in invalid)
    for m in invalid:
        swept.clear()
        checked = _normal_forms_match_brute(m, 5 if m.size <= 7 else 4)
        assert len(swept) == checked > 0
        assert (P.monoid.chain_law_holds(m) and not P.confluence._a0_rows(m)) is False


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
    first = next(P.lstd_trace(ex2, (x, x, y, z)))
    assert first == ((x, x, y, z), 1, x)
    assert after(ex2, first) == (x, x, z)
    for m in (ex2, letters3, group2):
        for w in all_words(m, 5):
            if m.identity in w or P.is_irreducible(m, w):
                continue
            source, i, z = next(P.lstd_trace(m, w))
            assert source == w
            assert z is not None and m.mul(w[i], w[i + 1]) == z
            assert P.is_irreducible(m, w[:i + 1])


def test_annihilating_pair_forces_empty_prefix(group2, ex2):
    # chain law: anything left of an annihilating pair would compose with
    # it, so on a valid table an x y -> eps move sits at position 0
    seen = 0
    for m in (group2, ex2):
        for w in all_words(m, 5):
            for _, i, z in P.lstd_trace(m, w):
                if z == m.identity:
                    assert i == 0
                    seen += 1
    assert seen > 0


# ------------------------------------------------------------------ the schedule

def test_left_standard_step_phases(ex2):
    e, x, y, z = ex2.identity, ex2.index("x"), ex2.index("y"), ex2.index("z")
    # identity erasure first, leftmost identity first
    assert list(P.lstd_trace(ex2, (x, e, y, e))) == [
        ((x, e, y, e), 1, None), ((x, y, e), 2, None), ((x, y), 0, x)]
    # then the leftmost contraction
    assert after(ex2, next(P.lstd_trace(ex2, (x, y, y, z)))) == (x, y, z)


def test_left_standard_step_annihilation(group2):
    g, e = group2.index("g"), group2.identity
    # g g contracts to the identity which erases in the same move
    for w, result in (((g, g), ()), ((g, g, g), (g,))):
        moves = list(P.lstd_trace(group2, w))
        assert moves == [(w, 0, e)]
        assert after(group2, moves[0]) == result == P.lstd(group2, w)


def test_successors_are_a_subset_of_two_step_reduction(ex2, letters3, group2):
    # every schedule move is one plain step, or two for an annihilation:
    # the reference relation's moves, and each move lstd_trace records
    for m in (ex2, letters3, group2):
        for w in all_words(m, 4):
            one = brute_one_step(m, w)
            two = one | {r2 for u in one for r2 in brute_one_step(m, u)}
            for s in left_standard_successors(m, w):
                assert s in two
            # the trace's later moves are the first moves of shorter words
            for move in itertools.islice(P.lstd_trace(m, w), 1):
                annihilation = move[2] == m.identity
                assert after(m, move) in (two if annihilation else one)


def test_recorded_moves_are_plain_steps(ex2, letters3, group2, sample_tables):
    # each move of the recorded stack pass is one plain step at its
    # position, an annihilating pair two of them, and the replay ends at
    # lstd; on every table, the chain law is never used
    cases = [(ex2, 5), (letters3, 4), (group2, 6)]
    cases += [(m, 4 if m.size <= 5 else 3) for m in sample_tables]
    for m, L in cases:
        for w in all_words(m, L):
            moves = []
            got = P.rewriting._lstd(m, w, moves)
            assert got == P.rewriting._lstd(m, w)
            word = w
            for i, z in moves:
                nxt = P.rewriting._apply(word, i, z)
                assert (i, nxt) in steps(m, word)
                word = nxt
            assert word == got == P.lstd(m, w)


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
        assert P.lstd(m, w) in _sweep(m, w)


def test_lstd_is_a_normal_form(ex2, letters3):
    for m, L in ((ex2, 5), (letters3, 4)):
        for w in all_words(m, L):
            nf = P.lstd(m, w)
            assert P.is_irreducible(m, nf)
            assert nf in _sweep(m, w)


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
            for pos, r in _steps(m, u):
                for v in all_words(m, 2):
                    assert (pos, r + v) in steps(m, u + v)


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
    # the rule text of these moves, "1 -> eps" and "x y -> x", is the
    # CLI's: tests/test_cli.py::test_normalize_trace pins it
    e, x, y, z = ex2.identity, ex2.index("x"), ex2.index("y"), ex2.index("z")
    moves = list(P.lstd_trace(ex2, (x, e, y, z)))
    assert moves[0][0] == (x, e, y, z)
    # moves chain source -> source, and the last one reaches lstd
    for a, b in zip(moves, moves[1:]):
        assert after(ex2, a) == b[0]
    assert after(ex2, moves[-1]) == P.lstd(ex2, (x, e, y, z)) == (x, z)
    # erasure happens before any contraction
    assert [(i, z) for _, i, z in moves] == [(1, None), (0, x)]


def test_lstd_trace_rules_and_positions(ex2, letters3, group2):
    for m in (ex2, letters3, group2):
        for w in all_words(m, 4):
            moves = list(P.lstd_trace(m, w))
            word = w
            for move in moves:
                source, i, z = move
                assert source == word
                nxt = after(m, move)
                if z is None:
                    assert source[i] == m.identity
                else:
                    assert m.mul(source[i], source[i + 1]) == z
                if z == m.identity:  # annihilation: two plain steps
                    assert nxt in {r2 for r in brute_one_step(m, source)
                                   for r2 in brute_one_step(m, r)}
                else:
                    assert nxt in brute_one_step(m, source)
                word = nxt
            assert word == P.lstd(m, w)
            # each move drops one letter, or two on an annihilation
            shrink = len(w) - len(word)
            assert shrink / 2 <= len(moves) <= shrink


def test_lstd_trace_annihilation_rule_text(group2, tmp_path, capsys):
    # the move is an index tuple; the CLI names its rule
    g = group2.index("g")
    assert list(P.lstd_trace(group2, (g, g))) == [((g, g), 0, group2.identity)]
    path = tmp_path / "group2.monoid"
    path.write_text(P.serialize_monoid(group2), encoding="utf-8")
    assert cli.main(["normalize", str(path), "g", "g", "--trace"]) == 0
    assert capsys.readouterr().out == "g·g  --[g g -> eps @ 0]-->\neps\n"


def test_empty_trace(ex2):
    assert list(P.lstd_trace(ex2, wrd(ex2, "z y"))) == []


def test_lstd_trace_follows_the_schedule(ex2, letters3, group2, sample_tables):
    # the sources, then lstd, are the reference schedule's words, and
    # replaying each move gives the next source; seeded words with
    # identity letters and annihilating pairs
    rng = random.Random(18)
    tables = [ex2, letters3, group2, P.gen_disjoint_union_monoid(3)]
    tables += sample_tables
    annihilations = 0
    for m in tables:
        for _ in range(60):
            w = tuple(rng.randrange(m.size) for _ in range(rng.randint(0, 12)))
            moves = list(P.lstd_trace(m, w))
            assert [s for s, _, _ in moves] + [P.lstd(m, w)] == left_standard_schedule(m, w)
            for a, b in zip(moves, moves[1:]):
                assert after(m, a) == b[0]
            if moves:
                assert after(m, moves[-1]) == P.lstd(m, w)
            annihilations += sum(z == m.identity for _, _, z in moves)
    assert annihilations > 0


def test_lstd_trace_is_lazy(letters3):
    # the first moves of a 100,000-letter word come without the rest;
    # tracing it in full copies the word once per move, billions of letters
    w = wrd(letters3, "1 a b c") * 25_000
    start = time.perf_counter()
    first = list(itertools.islice(P.lstd_trace(letters3, w), 3))
    assert time.perf_counter() - start < 1.0
    assert [(i, z) for _, i, z in first] == [(0, None), (3, None), (6, None)]
    assert first[0][0] == w


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
