"""Command line front end.

Exit codes: 0 for success or an affirmative verdict, 1 for invalid
input (any ValueError a command raises counts as such), 2 for usage
errors, 3 for a negative verdict.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import sys
from pathlib import Path

from . import magma
from .confluence import (essential_critical_pairs, is_catenary, is_confluent,
                         newman_check, normal_forms, set_bits)
from .monoid import (EMPTY_WORD_TOKEN, PartialMonoid, ParseError, chain_law_holds,
                     chain_violations, parse_monoid, random_monoid)
from .rewriting import lstd, lstd_trace
from .star import _counterexamples, _triple_search, star
from .words import Word, format_word, parse_word

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_NEGATIVE = 3


def _load(path: str) -> PartialMonoid:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    try:
        return parse_monoid(text)
    except ParseError as exc:
        raise ValueError(f"{path}: {exc}")


def _load_valid(path: str) -> PartialMonoid:
    m = _load(path)
    for first in chain_violations(m):
        raise ValueError(f"{path}: not a valid partial monoid; first violation "
                         f"{_violation_text(m.elements, first)[-1]}")
    return m


def _violation_text(names, violation) -> tuple[str, ...]:
    """x, y and z by name, then the code and the message of a violation."""
    x, y, z, left, right = violation
    nx, ny, nz = names[x], names[y], names[z]
    xy_z, x_yz = f"({nx} {ny}) {nz}", f"{nx} ({ny} {nz})"
    if right is None:
        return nx, ny, nz, "left-only", f"{xy_z} is defined but {x_yz} is not"
    if left is None:
        return nx, ny, nz, "right-only", f"{x_yz} is defined but {xy_z} is not"
    return (nx, ny, nz, "unequal",
            f"{xy_z} = {names[left]} but {x_yz} = {names[right]}")


def _names(m: PartialMonoid, w: Word) -> list[str]:
    """Letter names of a word the library produced, so every index is in range."""
    return [m.elements[c] for c in w]


# ------------------------------------------------------------------ commands

# PartialMonoid admits only element names that match [A-Za-z0-9_]+, so a
# name, or a message made of names, spaces, parentheses and "=", needs no
# escaping: the JSON writers quote it inline in json.dumps's layout.

def _emit(args, record: dict, text: str) -> None:
    """Print a command's one answer: the record as JSON, or the text."""
    print(json.dumps(record) if args.json else text)


def cmd_validate(m, args) -> int:
    """One line, or one JSON array element, per violation as the scan yields it."""
    violations = chain_violations(m)
    first = next(violations, None)
    valid = first is None
    as_json, write = args.json, sys.stdout.write
    write(f'{{"valid": {json.dumps(valid)}, "violations": [' if as_json
          else "valid\n" if valid else "invalid\n")
    sep = ""
    for v in () if valid else itertools.chain((first,), violations):
        x, y, z, code, message = _violation_text(m.elements, v)
        write(f'{sep}{{"x": "{x}", "y": "{y}", "z": "{z}", '
              f'"code": "{code}", "message": "{message}"}}' if as_json
              else f"  {x} {y} {z} [{code}]: {message}\n")
        sep = ", "
    if as_json:
        write("]}\n")
    return EXIT_OK if valid else EXIT_INVALID


def cmd_confluence(m, args) -> int:
    """Every A0 witness as one formatted string, read off the verdict's
    mask rows in (x, y, z) order and written in one piece."""
    verdict = is_confluent(m)
    agree = None
    if args.oracle:
        agree = newman_check(m) == verdict.confluent
    names, rows = m.elements, m.rows
    write = sys.stdout.write
    if args.json:
        # the layout is json.dumps's for the dict
        # {"x", "y", "z", "a", "b", "pair": [[a, z], [x, b]]}
        write(f'{{"confluent": {json.dumps(verdict.confluent)}, '
              '"method": "essential", "a0_witnesses": [')
        write(", ".join([
            f'{{"x": "{names[x]}", "y": "{names[y]}", "z": "{names[z]}", '
            f'"a": "{names[a]}", "b": "{names[b]}", '
            f'"pair": [["{names[a]}", "{names[z]}"], ["{names[x]}", "{names[b]}"]]}}'
            for x, y, a, mask in verdict.a0_rows
            for z in set_bits(mask) for b in (rows[y][z],)]))
        if agree is None:
            write("]}\n")
        else:
            write(f'], "oracle_agrees": {json.dumps(agree)}}}\n')
    else:
        lines = ["confluent" if verdict.confluent else "not confluent"]
        lines += [f"  A0 ({names[x]}, {names[y]}, {names[z]}): "
                  f"{format_word(m, (a, z))} vs {format_word(m, (x, rows[y][z]))}"
                  for x, y, a, mask in verdict.a0_rows for z in set_bits(mask)]
        if agree is not None:
            lines.append("oracle agrees" if agree else "oracle DISAGREES")
        write("\n".join(lines) + "\n")
    if agree is False:
        return EXIT_NEGATIVE
    return EXIT_OK if verdict.confluent else EXIT_NEGATIVE


def cmd_normalize(m, args) -> int:
    w = parse_word(m, " ".join(args.word))
    if args.all:
        forms = sorted(normal_forms(m, w), key=lambda f: (len(f), f))
        _emit(args, {"input": _names(m, w), "normal_forms": [_names(m, f) for f in forms]},
              "\n".join([format_word(m, f) for f in forms]))
        return EXIT_OK
    if args.trace:
        # one line per move as lstd_trace yields it: the identity letter
        # at i erases (z is None), or the pair at i contracts to z
        names = m.elements
        write = sys.stdout.write
        for source, i, z in lstd_trace(m, w):
            lhs = names[source[i]] if z is None else f"{names[source[i]]} {names[source[i + 1]]}"
            rule = f"{lhs} -> {EMPTY_WORD_TOKEN if z in (None, m.identity) else names[z]}"
            if args.json:
                letters = '", "'.join([names[c] for c in source])
                write(f'{{"word": ["{letters}"], "rule": "{rule}", "position": {i}}}\n')
            else:
                write(f"{format_word(m, source)}  --[{rule} @ {i}]-->\n")
    result = lstd(m, w)
    _emit(args, {"word": _names(m, result)} if args.trace
          else {"input": _names(m, w), "normal_form": _names(m, result)},
          format_word(m, result))
    return EXIT_OK


def cmd_critical_pairs(m, args) -> int:
    """One line, or one JSON array element, per fork as the walk yields it."""
    names = m.elements
    counts = {"A0": 0, "A1": 0, "B": 0}
    as_json, write = args.json, sys.stdout.write
    write('{"triples": [' if as_json else "x y z a b class\n")
    sep = ""
    for x, y, z, a, b, kind in essential_critical_pairs(m):
        counts[kind] += 1
        write(f'{sep}{{"x": "{names[x]}", "y": "{names[y]}", "z": "{names[z]}", '
              f'"a": "{names[a]}", "b": "{names[b]}", "class": "{kind}"}}' if as_json
              else f"{names[x]} {names[y]} {names[z]} {names[a]} {names[b]} {kind}\n")
        sep = ", "
    write(f'], "counts": {json.dumps(counts)}}}\n' if as_json
          else "counts: " + " ".join(f"{k}={n}" for k, n in counts.items()) + "\n")
    return EXIT_OK


def cmd_star(m, args) -> int:
    u = parse_word(m, args.u)
    v = parse_word(m, args.v)
    product = star(m, u, v)
    _emit(args, {"u": _names(m, u), "v": _names(m, v), "product": _names(m, product)},
          format_word(m, product))
    return EXIT_OK


def cmd_assoc_test(m, args) -> int:
    """One line, or one JSON array element, per counterexample as the
    search yields it, from names read once per table."""
    found = _counterexamples(m, args.max_len, args.all)
    first = next(found, None)
    associative = first is None
    confluent = is_confluent(m).confluent
    match = associative == confluent
    names = m.elements
    as_json, write = args.json, sys.stdout.write

    def word(w: Word) -> str:
        if as_json:
            return "[" + ", ".join(['"' + names[c] + '"' for c in w]) + "]"
        return format_word(m, w)
    # the JSON layout is json.dumps's for the dict {"max_len",
    # "associative", "confluent", "match",
    # "counterexamples": [{"u", "v", "w", "left", "right"}, ...]}
    write(f'{{"max_len": {args.max_len}, "associative": {json.dumps(associative)}, '
          f'"confluent": {json.dumps(confluent)}, "match": {json.dumps(match)}, '
          '"counterexamples": [' if as_json
          else f"associative up to length {args.max_len}: {'yes' if associative else 'no'}\n")
    sep = ""
    for row in () if associative else itertools.chain((first,), found):
        u, v, w, left, right = map(word, row)
        write(f'{sep}{{"u": {u}, "v": {v}, "w": {w}, "left": {left}, "right": {right}}}'
              if as_json else f"  ({u}, {v}, {w}): {left} != {right}\n")
        sep = ", "
    write("]}\n" if as_json else f"confluent: {'yes' if confluent else 'no'}\n"
          f"verdicts match: {'yes' if match else 'no'}\n")
    return EXIT_OK if associative else EXIT_NEGATIVE


def cmd_simulate(m, args) -> int:
    w = parse_word(m, " ".join(args.word))
    segments = _names(m, lstd(m, w))
    _emit(args, {"input": _names(m, w), "segments": segments,
                 "errors": max(0, len(segments) - 1)},
          " ! ".join(segments) if segments else EMPTY_WORD_TOKEN)
    return EXIT_OK


def cmd_magma_demo(m, args) -> int:
    t = magma.parse_tree(m, " ".join(args.tree))
    comb = magma.format_tree(m, magma.right_comb(t))
    shape, labels = magma._checked_shape(m, t)
    down, up = (magma._chain(m, s, labels) for s in (shape, (1,) * len(shape)))
    evaluation, comb_eval = down[0], up[0]
    convertible = magma._convertible(m, sum(labels, ()), [down, up])
    tree, rank = magma.format_tree(m, t), magma.rank(t)
    successors = sorted(magma.format_tree(m, s) for s in magma.rotations(t))
    _emit(args, {"tree": tree, "leaves": len(labels), "rank": rank, "rotations": successors,
                 "right_comb": comb, "evaluation": _names(m, evaluation),
                 "comb_evaluation": _names(m, comb_eval), "convertible": convertible},
          "\n".join([f"tree: {tree}", f"leaves: {len(labels)}  rank: {rank}",
                     *[f"  rotation: {s}" for s in successors],
                     f"right comb: {comb}", f"evaluation: {format_word(m, evaluation)}",
                     f"comb evaluation: {format_word(m, comb_eval)}",
                     f"convertible: {'yes' if convertible else 'unknown'}"]))
    return EXIT_OK


def cmd_random_check(_, args) -> int:
    rng = random.Random(args.seed)
    failures = []
    catenary_seen = 0
    for i in range(args.count):
        m = random_monoid(rng, args.max_carrier)
        if not chain_law_holds(m):
            failures.append((i, m, "generator produced an invalid monoid"))
            continue
        verdict = is_confluent(m)
        if newman_check(m) != verdict.confluent:
            failures.append((i, m, "critical pair oracle disagrees"))
        catenary, _ = is_catenary(m)
        if catenary:
            catenary_seen += 1
            if not verdict.confluent:
                failures.append((i, m, "catenary but not confluent"))
        elif len(m.products) == m.size ** 2:
            failures.append((i, m, "total but not catenary"))
        if (next(_triple_search(m, 2), None) is None) != verdict.confluent:
            failures.append((i, m, "associativity does not match confluence"))
    _emit(args, {"count": args.count, "seed": args.seed, "catenary": catenary_seen,
                 "failures": [{"index": i, "monoid": repr(m), "reason": r}
                              for i, m, r in failures]},
          "\n".join([f"checked {args.count} random monoids "
                     f"(seed {args.seed}, {catenary_seen} catenary)",
                     *([f"  FAIL #{i} {m}: {r}" for i, m, r in failures]
                       or ["all verdicts agree"])]))
    return EXIT_OK if not failures else EXIT_NEGATIVE


# ------------------------------------------------------------------ wiring

def _int_at_least(low: int):
    """argparse type: an integer no smaller than low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parmon",
        description="Finite partial monoids: rewriting, confluence, normal forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, load=_load_valid):
        """A subcommand reading the table load returns, or none if load is None."""
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="machine readable output")
        if load is not None:
            p.add_argument("file")
        p.set_defaults(func=func, load=load)
        return p

    add("validate", cmd_validate, "check the chain law on a monoid file", _load)

    p = add("confluence", cmd_confluence, "decide confluence")
    p.add_argument("--oracle", action="store_true",
                   help="cross check with the critical pair oracle")

    p = add("normalize", cmd_normalize, "reduce a word")
    p.add_argument("word", nargs="+", help="element names, or eps")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--all", action="store_true", help="list every normal form")
    mode.add_argument("--trace", action="store_true", help="show each step")

    add("critical-pairs", cmd_critical_pairs, "table of essential forks")

    p = add("star", cmd_star, "product of two irreducible words")
    p.add_argument("u")
    p.add_argument("v")

    p = add("assoc-test", cmd_assoc_test,
            "search for associativity counterexamples")
    p.add_argument("--max-len", type=_int_at_least(1), default=2)
    p.add_argument("--all", action="store_true",
                   help="collect every counterexample")

    p = add("simulate", cmd_simulate,
            "error view: normal form letters separated by !")
    p.add_argument("word", nargs="+")

    p = add("magma-demo", cmd_magma_demo, "tree rotations and evaluation")
    p.add_argument("tree", nargs="+", help="fully bracketed tree")

    p = add("random-check", cmd_random_check,
            "verdict agreement on random monoids", None)
    p.add_argument("--count", type=_int_at_least(0), default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-carrier", type=_int_at_least(1), default=8)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        m = args.load(args.file) if args.load else None
        code = args.func(m, args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except BrokenPipeError:
        # the reader closed early; point stdout at devnull so the
        # interpreter's final flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
