"""Words over a carrier and the irreducible fragment.

A word is a tuple of element indices.  It is irreducible when it
mentions no identity letter and no adjacent pair has a defined product.
Irreducible words are closed under prefixes (in fact under arbitrary
factors), which lets them be enumerated by one-letter extension.
"""

from __future__ import annotations

from .monoid import CARRIER_CAP, EMPTY_WORD_TOKEN, PartialMonoid

Word = tuple[int, ...]

EMPTY: Word = ()

_LETTERS = bytes(range(CARRIER_CAP))  # every letter index a carrier can have


def check_word(m: PartialMonoid, w: Word) -> None:
    """Raise ValueError unless w is a sequence of letters indexing elements of m.

    One C-level pass: bytes(w) rejects any letter outside 0..255 and
    any letter that is not an integer, and deleting the bytes 0..n-1
    leaves exactly the letters >= n.  That is exact because no carrier
    has more than CARRIER_CAP = 256 elements.  len(w) is read first, as
    bytes() would take an int for a size and use up an iterator.
    """
    try:
        len(w)
        ok = not bytes(w).translate(None, _LETTERS[:len(m.rows)])
    except (TypeError, ValueError):  # no length, a letter outside 0..255, or not an integer
        ok = False
    if not ok:
        raise ValueError(f"unknown element index in word {w}")


def is_irreducible(m: PartialMonoid, w: Word) -> bool:
    check_word(m, w)
    if m.identity in w:
        return False
    rows = m.rows
    return all(rows[x][y] is None for x, y in zip(w, w[1:]))


MAX_IRREDUCIBLE_LETTERS = 1_000_000  # most letters enumerate_irreducible holds


def enumerate_irreducible(m: PartialMonoid, max_len: int) -> list[Word]:
    """All irreducible words up to max_len, shortest first then lex.

    Grows layer by layer: a word of length k+1 is irreducible exactly
    when its length-k prefix is and the appended letter neither is the
    identity nor composes with the last letter.  The letters of the
    words held are checked against MAX_IRREDUCIBLE_LETTERS as a layer
    grows, so an overflowing layer is never built in full.
    """
    cap = MAX_IRREDUCIBLE_LETTERS
    out: list[Word] = [EMPTY]
    layer: list[Word] = [EMPTY]
    held = 0  # letters of the words in out
    letters = m.non_identity()
    # follow[x]: the letters that may come right after x
    follow = [tuple(c for c in letters if row[c] is None) for row in m.rows]
    for k in range(1, max_len + 1):
        nxt: list[Word] = []
        for w in layer:
            nxt.extend(w + (c,) for c in (follow[w[-1]] if w else letters))
            if held + k * len(nxt) > cap:
                raise ValueError(f"more than {cap} letters of irreducible words; lower max_len")
        held += k * len(nxt)
        out.extend(nxt)
        if not nxt:
            break
        layer = nxt
    return out


def parse_word(m: PartialMonoid, text: str) -> Word:
    """Space-separated element names; the token 'eps' alone is the empty word."""
    tokens = text.split()
    if tokens == [EMPTY_WORD_TOKEN]:
        return EMPTY
    if not tokens:
        raise ValueError(f"empty word text; write {EMPTY_WORD_TOKEN!r}")
    if EMPTY_WORD_TOKEN in tokens:
        raise ValueError(f"{EMPTY_WORD_TOKEN!r} must stand alone")
    return tuple(m.index(t) for t in tokens)


def format_word(m: PartialMonoid, w: Word) -> str:
    check_word(m, w)
    return "·".join([m.elements[c] for c in w]) if w else EMPTY_WORD_TOKEN
