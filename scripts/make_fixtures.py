#!/usr/bin/env python3
"""Regenerate the monoid files under fixtures/ in canonical form.

Safe to rerun: output is deterministic, and each file is rewritten only
when its content changed.
"""

import argparse
from pathlib import Path

import parmon as P

EX2_HEADER = "# four elements, three products away from the identity\n"
EX2_TEXT = """\
elements: 1 x y z
identity: 1
x y = x
y y = y
y z = z
"""

LETTERS3_HEADER = "# distinct-letter words over a, b, c under concatenation\n"


def fixture_texts() -> dict[str, str]:
    ex2 = P.parse_monoid(EX2_TEXT)
    letters3 = P.gen_no_common_letters_monoid("abc")
    return {
        "ex2.monoid": EX2_HEADER + P.serialize_monoid(ex2),
        "letters3.monoid": LETTERS3_HEADER + P.serialize_monoid(letters3),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verify files are current instead of writing")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent / "fixtures")
    args = parser.parse_args()

    if not args.check:
        args.out.mkdir(parents=True, exist_ok=True)
    stale = []
    for name, text in fixture_texts().items():
        path = args.out / name
        current = path.read_text() if path.exists() else None
        # round-trip sanity before writing anything
        assert P.parse_monoid(text) == P.parse_monoid(P.serialize_monoid(
            P.parse_monoid(text)))
        if current == text:
            print(f"up to date  {path}")
            continue
        if args.check:
            stale.append(path)
            print(f"STALE       {path}")
        else:
            path.write_text(text)
            print(f"wrote       {path}")
    return 1 if stale else 0


if __name__ == "__main__":
    raise SystemExit(main())
