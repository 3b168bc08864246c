"""Words, irreducibility, enumeration, text forms."""

import pytest
from hypothesis import given, settings, strategies as st

import parmon as P
from conftest import wrd, fmt
from oracles import brute_irreducible


def test_is_irreducible_examples(ex2):
    assert P.is_irreducible(ex2, P.EMPTY)
    assert P.is_irreducible(ex2, wrd(ex2, "x"))
    assert P.is_irreducible(ex2, wrd(ex2, "z y"))
    assert not P.is_irreducible(ex2, wrd(ex2, "y z"))      # product defined
    assert not P.is_irreducible(ex2, wrd(ex2, "x 1"))      # identity letter
    assert not P.is_irreducible(ex2, wrd(ex2, "z y z x"))  # inner y z


def test_enumerate_irreducible_ex2_frozen_list(ex2):
    got = [fmt(ex2, w) for w in P.enumerate_irreducible(ex2, 2)]
    assert got == ["eps", "x", "y", "z",
                   "x·x", "x·z", "y·x", "z·x", "z·y", "z·z"]


def test_enumerate_matches_brute_filter(ex2, letters3, group2, du2):
    for m, L in ((ex2, 4), (letters3, 3), (group2, 4), (du2, 3)):
        assert sorted(P.enumerate_irreducible(m, L)) == sorted(brute_irreducible(m, L))


def test_enumerate_order_is_shortest_then_lex(ex2):
    words = P.enumerate_irreducible(ex2, 3)
    assert words == sorted(words, key=lambda w: (len(w), w))
    assert words[0] == P.EMPTY


def test_enumerate_prefix_closure(ex2, letters3):
    # every prefix of an irreducible word is irreducible
    for m in (ex2, letters3):
        pool = set(P.enumerate_irreducible(m, 3))
        for w in pool:
            for i in range(len(w) + 1):
                assert w[:i] in pool


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=6))
def test_factors_of_irreducible_are_irreducible(ex2, k):
    words = P.enumerate_irreducible(ex2, 4)
    w = words[k % len(words)]
    for i in range(len(w)):
        for j in range(i, len(w) + 1):
            assert P.is_irreducible(ex2, w[i:j])


def test_total_monoid_has_only_trivial_irreducibles():
    # every pair composes, so nothing of length 2 survives
    n = 4
    m = P.PartialMonoid([f"g{i}" for i in range(n)], 0,
                        {(i, j): (i + j) % n for i in range(n) for j in range(n)})
    words = P.enumerate_irreducible(m, 5)
    assert words == [P.EMPTY, (1,), (2,), (3,)]


def test_invertible_letters_cap_length(group2):
    # g*g defined, so no word repeats g: lengths stop at 1
    assert P.enumerate_irreducible(group2, 10) == [P.EMPTY, (1,)]


def test_enumerate_respects_max_words_cap(letters3, monkeypatch):
    # the cap counts the letters of the words held, not the words
    monkeypatch.setattr("parmon.words.MAX_IRREDUCIBLE_LETTERS", 100)
    with pytest.raises(ValueError,
                       match="more than 100 letters of irreducible words"):
        P.enumerate_irreducible(letters3, 4)
    # letters3 has 15 one-letter words, and eps holds no letter
    monkeypatch.setattr("parmon.words.MAX_IRREDUCIBLE_LETTERS", 15)
    assert len(P.enumerate_irreducible(letters3, 1)) == 16
    monkeypatch.setattr("parmon.words.MAX_IRREDUCIBLE_LETTERS", 14)
    with pytest.raises(ValueError, match="more than 14 letters"):
        P.enumerate_irreducible(letters3, 1)


def test_enumerate_caps_letters_of_long_words():
    # one irreducible word per length: k words hold k (k + 1) / 2 letters
    m = P.parse_monoid("elements: 1 q\nidentity: 1\n")
    assert len(P.enumerate_irreducible(m, 1413)) == 1414  # 998,991 letters
    with pytest.raises(ValueError, match="more than 1000000 letters"):
        P.enumerate_irreducible(m, 1414)  # 1,000,405 letters


def test_parse_word(ex2):
    assert wrd(ex2, "x y z") == (1, 2, 3)
    assert wrd(ex2, "  x   y ") == (1, 2)
    assert wrd(ex2, "eps") == P.EMPTY
    with pytest.raises(ValueError, match="empty word text"):
        wrd(ex2, "   ")
    with pytest.raises(ValueError, match="stand alone"):
        wrd(ex2, "x eps")
    with pytest.raises(ValueError, match="unknown element name"):
        wrd(ex2, "x q")


def test_format_word(ex2):
    assert fmt(ex2, P.EMPTY) == "eps"
    assert fmt(ex2, (1,)) == "x"
    assert fmt(ex2, (1, 2, 3)) == "x·y·z"


def test_parse_format_round_trip(ex2):
    for w in P.enumerate_irreducible(ex2, 3):
        assert wrd(ex2, fmt(ex2, w).replace("·", " ")) == w
