"""Words over a carrier and the irreducible fragment.

A word is a tuple of element indices.  It is irreducible when it
mentions no identity letter and no adjacent pair has a defined product.
Irreducible words are closed under prefixes (in fact under arbitrary
factors), which lets them be enumerated by one-letter extension.
"""

from __future__ import annotations

from .monoid import EMPTY_WORD_TOKEN, PartialMonoid

Word = tuple[int, ...]

EMPTY: Word = ()


def is_irreducible(m: PartialMonoid, w: Word) -> bool:
    if m.identity in w:
        return False
    return all(m.mul(w[i], w[i + 1]) is None for i in range(len(w) - 1))


def enumerate_irreducible(m: PartialMonoid, max_len: int,
                          max_words: int = 1_000_000) -> list[Word]:
    """All irreducible words up to max_len, shortest first then lex.

    Grows layer by layer: a word of length k+1 is irreducible exactly
    when its length-k prefix is and the appended letter neither is the
    identity nor composes with the last letter.
    """
    out: list[Word] = [EMPTY]
    layer: list[Word] = [EMPTY]
    letters = m.non_identity()
    for _ in range(max_len):
        nxt: list[Word] = []
        for w in layer:
            last = w[-1] if w else None
            for c in letters:
                if last is not None and m.mul(last, c) is not None:
                    continue
                nxt.append(w + (c,))
        if len(out) + len(nxt) > max_words:
            raise ValueError(f"more than {max_words} irreducible words; "
                             "raise max_words or lower max_len")
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
    if not w:
        return EMPTY_WORD_TOKEN
    return "·".join(m.name(c) for c in w)
