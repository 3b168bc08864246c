"""End-to-end command line behavior: text, json, exit codes."""

import ast
import contextlib
import graphlib
import importlib
import io
import json
import os
import random
import shlex
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import parmon
from conftest import GROUP2_TEXT, cyclic_group
from parmon import cli
from parmon.monoid import chain_violations

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
EX2 = str(FIXTURES / "ex2.monoid")
LETTERS3 = str(FIXTURES / "letters3.monoid")

BROKEN = """\
elements: 1 x y a
identity: 1
x y = a
a a = a
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out.splitlines()[0]), err


# ------------------------------------------------------------------ validate

def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", EX2)
    assert code == 0
    assert out == "valid\n"


def test_validate_ok_json(capsys):
    code, data, _ = run_json(capsys, "validate", EX2)
    assert code == 0
    assert data == {"valid": True, "violations": []}


def test_validate_broken_table(capsys, tmp_path):
    f = tmp_path / "broken.monoid"
    f.write_text(BROKEN)
    code, out, _ = run(capsys, "validate", str(f))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "invalid"
    assert any("x y a [left-only]" in l for l in lines[1:])
    code, data, _ = run_json(capsys, "validate", str(f))
    assert code == 1
    assert not data["valid"]
    assert {"x": "x", "y": "y", "z": "a"}.items() <= data["violations"][0].items()


def test_validate_parse_error(capsys, tmp_path):
    f = tmp_path / "bad.monoid"
    f.write_text("elements: 1 x\nnot a line\n")
    code, out, err = run(capsys, "validate", str(f))
    assert code == 1
    assert out == ""
    assert "error:" in err and "line 2" in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.monoid")
    assert code == 1
    assert "cannot read" in err


def test_undecodable_file_names_the_path(capsys, tmp_path):
    f = tmp_path / "bad.monoid"
    f.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "confluence", str(f))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: cannot read {f}: ")


def test_byte_order_mark_is_ignored(capsys, tmp_path):
    f = tmp_path / "bom.monoid"
    f.write_bytes(b"\xef\xbb\xbf" + Path(EX2).read_bytes())
    for argv in (["validate"], ["confluence", "--json"]):
        assert run(capsys, *argv, str(f)) == run(capsys, *argv, EX2)


# ------------------------------------------------------------------ confluence

def test_confluence_ex2(capsys):
    code, out, _ = run(capsys, "confluence", EX2)
    assert code == 0
    assert out == "confluent\n"


def test_confluence_letters3(capsys):
    code, out, _ = run(capsys, "confluence", LETTERS3)
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "not confluent"
    assert "  A0 (a, b, a): ab·a vs a·ba" in lines
    assert len(lines) == 1 + 48


def test_confluence_oracle(capsys):
    code, out, _ = run(capsys, "confluence", EX2, "--oracle")
    assert code == 0
    assert out.splitlines()[-1] == "oracle agrees"
    code, out, _ = run(capsys, "confluence", LETTERS3, "--oracle")
    assert code == 3
    assert out.splitlines()[-1] == "oracle agrees"


def test_confluence_json(capsys):
    code, data, _ = run_json(capsys, "confluence", LETTERS3, "--oracle")
    assert code == 3
    assert data["confluent"] is False
    assert data["method"] == "essential"
    assert data["oracle_agrees"] is True
    assert len(data["a0_witnesses"]) == 48
    first = data["a0_witnesses"][0]
    assert first == {"x": "a", "y": "b", "z": "a", "a": "ab", "b": "ba",
                     "pair": [["ab", "a"], ["a", "ba"]]}


def _fully_violating(n):
    """Identity g0, and gi gj = g(i mod (n-1) + 1) for i, j >= 1: every
    non-identity triple breaks the chain law."""
    names = [f"g{i}" for i in range(n)]
    lines = ["elements: " + " ".join(names), "identity: g0"]
    lines += [f"g{i} g{j} = g{i % (n - 1) + 1}"
              for i in range(1, n) for j in range(1, n)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("argv", [
    ["confluence"], ["normalize", "eps"], ["critical-pairs"], ["star", "eps", "eps"],
    ["assoc-test"], ["simulate", "eps"], ["magma-demo", "eps"],
], ids=lambda argv: argv[0])
def test_commands_reject_invalid(capsys, tmp_path, argv):
    # every command but validate and random-check reads a valid table;
    # the second table has about 2 M violations; the error needs the first
    for name, text in (("broken", BROKEN), ("violating", _fully_violating(128))):
        f = tmp_path / f"{name}.monoid"
        f.write_text(text)
        code, out, err = run(capsys, argv[0], str(f), *argv[1:])
        assert (code, out) == (1, "")
        m = parmon.parse_monoid(text)
        *_, message = cli._violation_text(m.elements, next(chain_violations(m)))
        assert err == (f"error: {f}: not a valid partial monoid; "
                       f"first violation {message}\n")


def _validate_in_one_piece(m, as_json):
    """validate's output rendered in one piece from the violation tuples;
    as_json gives the dict list {"x", "y", "z", "code", "message"}."""
    names = m.elements
    report = parmon.validate(m)
    rows = [cli._violation_text(names, v) for v in report.violations]
    if as_json:
        return json.dumps({
            "valid": report.valid,
            "violations": [{"x": x, "y": y, "z": z, "code": code,
                            "message": message}
                           for x, y, z, code, message in rows],
        }) + "\n"
    lines = ["valid" if report.valid else "invalid"]
    lines += [f"  {x} {y} {z} [{code}]: {message}"
              for x, y, z, code, message in rows]
    return "\n".join(lines) + "\n"


def _invalid_edits(seed, count):
    """count seeded random tables, each with one non-identity product
    changed or removed so that the table fails validation."""
    rng = random.Random(seed)
    edits = []
    while len(edits) < count:
        m = parmon.random_monoid(rng, 8)
        rest = m.non_identity()
        if not rest:
            continue
        products = {(x, y): z for x, y, z in m.products}
        key = (rng.choice(rest), rng.choice(rest))
        z = rng.choice([None, *range(m.size)])
        if z is None:
            products.pop(key, None)
        else:
            products[key] = z
        e = parmon.PartialMonoid(m.elements, m.identity, products)
        if not parmon.validate(e).valid:
            edits.append(e)
    return edits


def test_validate_stream_equals_one_piece(capsys, tmp_path):
    tables = [BROKEN, _fully_violating(8)]
    tables += [parmon.serialize_monoid(e) for e in _invalid_edits(3, 12)]
    codes = set()
    for i, text in enumerate(tables):
        f = tmp_path / f"t{i}.monoid"
        f.write_text(text, encoding="utf-8")
        m = parmon.parse_monoid(text)
        for as_json in (False, True):
            flags = ["--json"] if as_json else []
            code, out, err = run(capsys, "validate", str(f), *flags)
            assert (code, err) == (cli.EXIT_INVALID, "")
            assert out == _validate_in_one_piece(m, as_json)
        codes |= {cli._violation_text(m.elements, v)[3]
                  for v in chain_violations(m)}
    assert codes == {"left-only", "right-only", "unequal"}


# ------------------------------------------------------------------ normalize

def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", EX2, "x", "1", "y", "z")
    assert code == 0
    assert out == "x·z\n"
    code, out, _ = run(capsys, "normalize", LETTERS3, "a", "1", "b", "c")
    assert out == "abc\n"
    code, out, _ = run(capsys, "normalize", EX2, "eps")
    assert out == "eps\n"


def test_normalize_json(capsys):
    code, data, _ = run_json(capsys, "normalize", EX2, "x", "1", "y", "z")
    assert data == {"input": ["x", "1", "y", "z"], "normal_form": ["x", "z"]}


def test_normalize_all(capsys):
    code, out, _ = run(capsys, "normalize", LETTERS3, "a", "b", "a", "--all")
    assert code == 0
    assert out.splitlines() == ["a·ba", "ab·a"]
    code, data, _ = run_json(capsys, "normalize", LETTERS3, "a", "b", "a", "--all")
    assert data == {"input": ["a", "b", "a"],
                    "normal_forms": [["a", "ba"], ["ab", "a"]]}


def test_normalize_all_over_the_word_cap(capsys, monkeypatch):
    # (a b)^20 passes the default cap of a million words only after seconds
    monkeypatch.setattr(parmon.rewriting, "MAX_REACHABLE_WORDS", 1000)
    code, out, err = run(capsys, "normalize", LETTERS3, *["a", "b"] * 20, "--all")
    assert code == 1
    assert out == ""
    assert err == "error: more than 1000 reachable words; shorten the word\n"


def test_normalize_all_on_a_confluent_table(capsys, tmp_path):
    # the sweep would pass the reachable-word cap after seconds; on a
    # valid table with no A0 fork the one normal form is lstd's
    f = tmp_path / "cyc8.monoid"
    f.write_text(parmon.serialize_monoid(cyclic_group(8)))
    word = [f"g{i % 7 + 1}" for i in range(22)]
    start = time.perf_counter()
    code, out, _ = run(capsys, "normalize", str(f), *word, "--all")
    assert (code, out) == (0, "g5\n")
    assert run(capsys, "normalize", str(f), *word) == (0, out, "")
    code, data, _ = run_json(capsys, "normalize", str(f), *word, "--all")
    assert (code, data) == (0, {"input": word, "normal_forms": [["g5"]]})
    assert time.perf_counter() - start < 2


def test_one_light_test_per_command(capsys, monkeypatch):
    # the load check keeps the chain-law verdict on the table, and the
    # paths behind --all, --max-len 1 and --oracle read it
    calls = []
    generators = parmon.monoid._generators

    def counting(m, T):
        calls.append(m)
        return generators(m, T)

    monkeypatch.setattr(parmon.monoid, "_generators", counting)
    for argv in (("normalize", EX2, "x", "y", "z", "--all"),
                 ("assoc-test", LETTERS3, "--max-len", "1"),
                 ("confluence", LETTERS3, "--oracle")):
        run(capsys, *argv)
        assert len(calls) == 1, argv
        calls.clear()


def test_normalize_all_and_trace_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["normalize", EX2, "x", "y", "--all", "--trace"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_normalize_trace(capsys):
    code, out, _ = run(capsys, "normalize", EX2, "x", "1", "y", "z", "--trace")
    assert code == 0
    assert out.splitlines() == [
        "x·1·y·z  --[1 -> eps @ 1]-->",
        "x·y·z  --[x y -> x @ 0]-->",
        "x·z",
    ]


def test_normalize_trace_json(capsys):
    code, out, _ = run(capsys, "normalize", EX2, "y", "y", "z",
                       "--trace", "--json")
    records = [json.loads(l) for l in out.splitlines()]
    assert records == [
        {"word": ["y", "y", "z"], "rule": "y y -> y", "position": 0},
        {"word": ["y", "z"], "rule": "y z -> z", "position": 0},
        {"word": ["z"]},
    ]


def test_normalize_unknown_letter(capsys):
    code, _, err = run(capsys, "normalize", EX2, "x", "q")
    assert code == 1
    assert "unknown element name" in err


# ------------------------------------------------------------------ critical pairs

def test_critical_pairs_ex2(capsys):
    code, out, _ = run(capsys, "critical-pairs", EX2)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x y z a b class"
    assert lines[-1] == "counts: A0=0 A1=7 B=22"
    assert len(lines) == 2 + 29
    assert "x y z x z A1" in lines


def test_critical_pairs_letters3_json(capsys):
    code, data, _ = run_json(capsys, "critical-pairs", LETTERS3)
    assert code == 0
    assert data["counts"] == {"A0": 48, "A1": 207, "B": 106}
    assert len(data["triples"]) == 361
    assert {"x": "a", "y": "b", "z": "a", "a": "ab", "b": "ba",
            "class": "A0"} in data["triples"]



def _critical_pairs_in_one_piece(m, as_json):
    """The critical-pairs output rendered from the whole fork list at once."""
    triples = list(parmon.essential_critical_pairs(m))
    counts = {"A0": 0, "A1": 0, "B": 0}
    for t in triples:
        counts[t[5]] += 1
    names = m.elements
    if as_json:
        return json.dumps({
            "triples": [
                {"x": names[x], "y": names[y], "z": names[z],
                 "a": names[a], "b": names[b], "class": kind}
                for x, y, z, a, b, kind in triples],
            "counts": counts,
        }) + "\n"
    lines = ["x y z a b class"]
    lines += [f"{names[x]} {names[y]} {names[z]} "
              f"{names[a]} {names[b]} {kind}"
              for x, y, z, a, b, kind in triples]
    lines.append(f"counts: A0={counts['A0']} A1={counts['A1']} B={counts['B']}")
    return "\n".join(lines) + "\n"


def _table_files(tmp_path):
    """Both fixtures, du4 and a seeded table with every fork class,
    the last with two A0 witnesses."""
    seeded = parmon.random_monoid(random.Random(5), 12)
    kinds = {t[5] for t in parmon.essential_critical_pairs(seeded)}
    assert kinds == {"A0", "A1", "B"}
    assert len(parmon.is_confluent(seeded).a0_witnesses) >= 2
    files = [EX2, LETTERS3]
    for name, m in (("du4", parmon.gen_disjoint_union_monoid(4)),
                    ("seeded", seeded)):
        path = tmp_path / f"{name}.monoid"
        path.write_text(parmon.serialize_monoid(m), encoding="utf-8")
        files.append(str(path))
    return [(f, parmon.parse_monoid(Path(f).read_text(encoding="utf-8")))
            for f in files]


def test_critical_pairs_stream_equals_one_piece(capsys, tmp_path):
    for file, m in _table_files(tmp_path):
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, "critical-pairs", file, *flags)
            assert (code, err) == (0, "")
            assert out == _critical_pairs_in_one_piece(m, bool(flags))


def _confluence_in_one_piece(m, agree):
    """confluence --json rendered as one dict, with each pair
    ((a, z), (x, b)) built from the witness; agree is None without
    --oracle."""
    verdict = parmon.is_confluent(m)
    names = m.elements
    out = {
        "confluent": verdict.confluent,
        "method": "essential",
        "a0_witnesses": [
            {"x": names[x], "y": names[y], "z": names[z],
             "a": names[a], "b": names[b],
             "pair": [[names[c] for c in w] for w in ((a, z), (x, b))]}
            for x, y, z, a, b in verdict.a0_witnesses],
    }
    if agree is not None:
        out["oracle_agrees"] = agree
    return json.dumps(out) + "\n"


def test_confluence_stream_equals_one_piece(capsys, tmp_path):
    for file, m in _table_files(tmp_path):
        confluent = parmon.is_confluent(m).confluent
        expected_code = cli.EXIT_OK if confluent else cli.EXIT_NEGATIVE
        for oracle in (False, True):
            flags = ["--oracle"] if oracle else []
            code, out, err = run(capsys, "confluence", file, "--json", *flags)
            assert (code, err) == (expected_code, "")
            agree = parmon.newman_check(m) == confluent if oracle else None
            assert out == _confluence_in_one_piece(m, agree)


# ------------------------------------------------------------------ golden output

GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("fixture", ["ex2", "letters3"])
@pytest.mark.parametrize("argv, slug", [
    (["confluence", "--oracle"], "confluence-oracle"),
    (["confluence", "--oracle", "--json"], "confluence-oracle-json"),
    (["critical-pairs", "--json"], "critical-pairs-json"),
    (["assoc-test", "--max-len", "2"], "assoc-test"),
    (["assoc-test", "--max-len", "2", "--json"], "assoc-test-json"),
    (["assoc-test", "--max-len", "1", "--all", "--json"], "assoc-test-all-json"),
    (["confluence", "--json"], "confluence-json"),
    (["critical-pairs"], "critical-pairs"),
])
def test_golden_output(capsys, fixture, argv, slug):
    # witness lists and their order, byte for byte
    path = str(FIXTURES / f"{fixture}.monoid")
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    expected = (GOLDEN / f"{fixture}.{slug}.txt").read_text(encoding="utf-8")
    assert out == expected
    assert err == ""
    negative = fixture == "letters3" and argv[0] in ("confluence", "assoc-test")
    assert code == (cli.EXIT_NEGATIVE if negative else cli.EXIT_OK)


@pytest.mark.parametrize("table", ["broken", "violating6"])
@pytest.mark.parametrize("flags, slug", [([], "validate"),
                                         (["--json"], "validate-json")])
def test_golden_validate_invalid(capsys, tmp_path, table, flags, slug):
    # BROKEN has a left-only and a right-only violation; the fully
    # violating table on six elements has 125 unequal ones
    text = BROKEN if table == "broken" else _fully_violating(6)
    path = tmp_path / f"{table}.monoid"
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path), *flags)
    expected = (GOLDEN / f"{table}.{slug}.txt").read_text(encoding="utf-8")
    assert (code, out, err) == (cli.EXIT_INVALID, expected, "")


@pytest.mark.parametrize("flags, slug", [([], "normalize-trace"),
                                         (["--json"], "normalize-trace-json")])
def test_golden_trace_annihilating_pairs(capsys, tmp_path, flags, slug):
    # g g = 1: an identity erasure, then two "g g -> eps" moves
    path = tmp_path / "group2.monoid"
    path.write_text(GROUP2_TEXT, encoding="utf-8")
    code, out, err = run(capsys, "normalize", str(path), "g", "1", "g", "g",
                         "g", "--trace", *flags)
    expected = (GOLDEN / f"group2.{slug}.txt").read_text(encoding="utf-8")
    assert (code, out, err) == (cli.EXIT_OK, expected, "")


IDENTITY_WORDS = {"ex2": "1 x 1 y y 1 z 1", "letters3": "1 a b 1 c a 1 b a 1"}
TREE12 = "((b (b b)) ((((a ((b b) c)) (c b)) (c a)) c))"


@pytest.mark.parametrize("fixture, argv, slug", [
    (fixture, ["normalize", *IDENTITY_WORDS[fixture].split(), "--trace", *json],
     "normalize-trace" + slug)
    for fixture in ("ex2", "letters3")
    for json, slug in (([], ""), (["--json"], "-json"))
] + [
    ("letters3", ["magma-demo", TREE12, *json], "magma-demo" + slug)
    for json, slug in (([], ""), (["--json"], "-json"))
] + [
    ("letters3", ["star", "ab", "a", "--json"], "star-json"),
    ("letters3", ["simulate", "a", "b", "a", "--json"], "simulate-json"),
    ("ex2", ["normalize", "x", "1", "y", "z", "--json"], "normalize-json"),
    ("letters3", ["normalize", "a", "b", "a", "--all", "--json"], "normalize-all-json"),
])
def test_golden_trace_and_magma_demo(capsys, fixture, argv, slug):
    # identity letters in several positions; a 12-leaf tree whose
    # evaluation differs from its right comb's; the record commands'
    # JSON, key order and spacing included
    path = str(FIXTURES / f"{fixture}.monoid")
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    expected = (GOLDEN / f"{fixture}.{slug}.txt").read_text(encoding="utf-8")
    assert (code, out, err) == (cli.EXIT_OK, expected, "")


# ------------------------------------------------------------------ star

def test_star(capsys):
    code, out, _ = run(capsys, "star", EX2, "x", "y")
    assert code == 0
    assert out == "x\n"
    code, out, _ = run(capsys, "star", LETTERS3, "ab", "a")
    assert out == "ab·a\n"
    code, out, _ = run(capsys, "star", EX2, "eps", "eps")
    assert out == "eps\n"


def test_star_json(capsys):
    code, data, _ = run_json(capsys, "star", LETTERS3, "ab", "a")
    assert data == {"u": ["ab"], "v": ["a"], "product": ["ab", "a"]}


def test_star_rejects_reducible(capsys):
    code, _, err = run(capsys, "star", EX2, "y z", "x")
    assert code == 1
    assert "not irreducible" in err


# ------------------------------------------------------------------ assoc-test

def test_assoc_ex2(capsys):
    code, out, _ = run(capsys, "assoc-test", EX2)
    assert code == 0
    assert out.splitlines() == [
        "associative up to length 2: yes",
        "confluent: yes",
        "verdicts match: yes",
    ]


def test_assoc_letters3(capsys):
    code, out, _ = run(capsys, "assoc-test", LETTERS3, "--max-len", "1")
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "associative up to length 1: no"
    assert lines[1] == "  (a, b, a): ab·a != a·ba"
    assert lines[-2] == "confluent: no"
    assert lines[-1] == "verdicts match: yes"


def test_assoc_letters3_all_json(capsys):
    code, data, _ = run_json(capsys, "assoc-test", LETTERS3,
                             "--max-len", "1", "--all")
    assert code == 3
    assert data["associative"] is False
    assert data["confluent"] is False
    assert data["match"] is True
    assert len(data["counterexamples"]) == 48
    assert data["counterexamples"][0] == {
        "u": ["a"], "v": ["b"], "w": ["a"],
        "left": ["ab", "a"], "right": ["a", "ba"]}


def test_assoc_letters3_length2_all_json(capsys):
    # the full length-2 sweep: 671,328 of its 11.1 M triples checked
    code, data, _ = run_json(capsys, "assoc-test", LETTERS3,
                             "--max-len", "2", "--all")
    assert code == cli.EXIT_NEGATIVE
    assert data["associative"] is False
    assert data["match"] is True
    assert len(data["counterexamples"]) == 8748
    assert data["counterexamples"][0] == {
        "u": ["a"], "v": ["b"], "w": ["a"],
        "left": ["ab", "a"], "right": ["a", "ba"]}


def test_assoc_all_builds_no_report(capsys, monkeypatch):
    # assoc-test --all on a table with an A0 fork writes the search's
    # stream as it comes, and never collects it into an AssocReport
    def no_report(counterexamples):
        raise AssertionError("AssocReport built")
    monkeypatch.setattr(importlib.import_module("parmon.star"), "AssocReport", no_report)
    code, out, _ = run(capsys, "assoc-test", LETTERS3, "--max-len", "1", "--all")
    assert code == cli.EXIT_NEGATIVE
    lines = out.splitlines()
    assert len(lines) == 1 + 48 + 2
    assert lines[1] == "  (a, b, a): ab·a != a·ba"
    code, data, _ = run_json(capsys, "assoc-test", LETTERS3, "--max-len", "1", "--all")
    assert (code, len(data["counterexamples"])) == (cli.EXIT_NEGATIVE, 48)


def test_assoc_all_writes_each_counterexample_as_it_is_found(monkeypatch):
    # when the search is exhausted, the first line and every counterexample
    # are already written; only the closing lines follow
    def watched(m, max_len, find_all):
        yield from search(m, max_len, find_all)
        written.append(out.getvalue())
    search = cli._counterexamples
    monkeypatch.setattr(cli, "_counterexamples", watched)
    for extra, tail in (((), "confluent: no\nverdicts match: yes\n"), (("--json",), "]}\n")):
        written, out = [], io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["assoc-test", LETTERS3, "--max-len", "1", "--all", *extra])
        assert code == cli.EXIT_NEGATIVE
        assert written[0] + tail == out.getvalue()
        assert written[0].count('"left"' if extra else " != ") == 48


# ------------------------------------------------------------------ simulate

def test_assoc_too_many_words_is_an_error_line(capsys):
    # the enumeration's ValueError becomes an error: line, not a traceback;
    # --all on a table with an A0 fork enumerates every word, and at
    # length 5 the words outgrow the letter cap
    for max_len in ("5", "9"):
        code, out, err = run(capsys, "assoc-test", LETTERS3, "--max-len", max_len, "--all")
        assert code == cli.EXIT_INVALID
        assert out == ""
        assert err == ("error: more than 1000000 letters of irreducible words; "
                       "lower max_len\n")


def test_assoc_one_letter_table_hits_the_letter_cap(capsys, tmp_path):
    # the one-letter table has one irreducible word per length, but no
    # A0 fork, so it answers at length 8,000 without enumerating any
    path = tmp_path / "one-letter.monoid"
    path.write_text("elements: 1 q\nidentity: 1\n", encoding="utf-8")
    for extra in ((), ("--all",)):
        code, out, _ = run(capsys, "assoc-test", str(path), "--max-len", "8000", *extra)
        assert (code, out.splitlines()[0]) == (cli.EXIT_OK, "associative up to length 8000: yes")
    # a table with the A0 fork (q, q, q) enumerates its words under --all:
    # each layer is about 1.6 times the last, so the cap ends the
    # enumeration at length 21 rather than at 8,000
    path = tmp_path / "fork.monoid"
    path.write_text("elements: 1 p q r\nidentity: 1\np p = 1\np q = q\np r = r\n"
                    "q p = q\nq q = r\nr p = r\n", encoding="utf-8")
    code, out, err = run(capsys, "assoc-test", str(path), "--max-len", "8000", "--all")
    assert (code, out) == (cli.EXIT_INVALID, "")
    assert err == ("error: more than 1000000 letters of irreducible words; "
                   "lower max_len\n")
    code, out, _ = run(capsys, "assoc-test", str(path), "--max-len", "8000")
    assert code == cli.EXIT_NEGATIVE
    assert out.splitlines()[1] == "  (q, q, q): r·q != q·r"


def test_assoc_too_many_composing_pairs_is_an_error_line(capsys):
    # the triple loop runs in random-check: at carriers up to 96 its
    # pairs outgrow the cap, and the line ends the run
    code, out, err = run(capsys, "random-check", "--count", "20", "--seed", "0",
                         "--max-carrier", "96")
    assert code == cli.EXIT_INVALID
    assert out == ""
    assert err == "error: more than 1000000 composing pairs; lower max_len\n"
    # assoc-test reads the A0 law, so letters3's 43,387 words at length 4
    # are never paired: without --all it enumerates none of them
    for max_len in ("4", "9"):
        code, out, _ = run(capsys, "assoc-test", LETTERS3, "--max-len", max_len)
        assert code == cli.EXIT_NEGATIVE
        assert out.splitlines()[1] == "  (a, b, a): ab·a != a·ba"


def test_assoc_triple_budget_is_an_error_line(capsys):
    # 3,111 nonempty words give 1,732,800 counterexamples at length 3,
    # counted from the letter tallies before any is built
    start = time.perf_counter()
    code, out, err = run(capsys, "assoc-test", LETTERS3, "--max-len", "3", "--all")
    assert time.perf_counter() - start < 2
    assert (code, out) == (cli.EXIT_INVALID, "")
    assert err == "error: more than 1000000 counterexamples; lower max_len\n"
    # without --all the first counterexample is the first A0 fork's
    code, out, _ = run(capsys, "assoc-test", LETTERS3, "--max-len", "3")
    assert code == cli.EXIT_NEGATIVE
    assert out.splitlines()[1] == "  (a, b, a): ab·a != a·ba"


def test_assoc_test_runs_one_mask_pass(capsys, monkeypatch):
    # the search and the confluent line both read is_confluent's A0
    # rows; the table keeps them, so only the first call builds them
    # (a call builds them when it finds none kept or returns new ones)
    calls = []
    check = parmon.confluence.is_confluent

    def spy(m):
        kept = m._a0_rows
        verdict = check(m)
        calls.append(kept is None or verdict.a0_rows is not kept)
        return verdict

    for module in ("parmon.confluence", "parmon.star", "parmon.cli"):
        monkeypatch.setattr(sys.modules[module], "is_confluent", spy)
    for argv in ([EX2], [LETTERS3, "--max-len", "2"],
                 [LETTERS3, "--max-len", "1", "--all", "--json"]):
        calls.clear()
        run(capsys, "assoc-test", *argv)
        assert calls == [True, False]


def test_simulate(capsys):
    code, out, _ = run(capsys, "simulate", LETTERS3, "a", "b", "a")
    assert code == 0
    assert out == "ab ! a\n"
    code, out, _ = run(capsys, "simulate", EX2, "y", "y", "z")
    assert out == "z\n"


def test_simulate_empty(capsys, tmp_path):
    f = tmp_path / "group2.monoid"
    f.write_text("elements: 1 g\nidentity: 1\ng g = 1\n")
    code, out, _ = run(capsys, "simulate", str(f), "g", "g")
    assert out == "eps\n"


def test_simulate_json(capsys):
    code, data, _ = run_json(capsys, "simulate", LETTERS3, "a", "b", "a")
    assert data == {"input": ["a", "b", "a"], "segments": ["ab", "a"],
                    "errors": 1}


# ------------------------------------------------------------------ magma-demo

def test_magma_demo(capsys):
    code, out, _ = run(capsys, "magma-demo", LETTERS3, "(((a b) c) a)")
    assert code == 0
    assert out.splitlines() == [
        "tree: (((a b) c) a)",
        "leaves: 4  rank: 3",
        "  rotation: ((a (b c)) a)",
        "  rotation: ((a b) (c a))",
        "right comb: (a (b (c a)))",
        "evaluation: abc·a",
        "comb evaluation: a·bca",
        "convertible: yes",
    ]


def test_magma_demo_json(capsys):
    code, data, _ = run_json(capsys, "magma-demo", LETTERS3, "(((a b) c) a)")
    assert data["leaves"] == 4
    assert data["rank"] == 3
    assert data["rotations"] == ["((a (b c)) a)", "((a b) (c a))"]
    assert data["evaluation"] == ["abc", "a"]
    assert data["comb_evaluation"] == ["a", "bca"]
    assert data["convertible"] is True


def test_magma_demo_bad_tree(capsys):
    code, _, err = run(capsys, "magma-demo", EX2, "((x y)")
    assert code == 1
    assert "unexpected end" in err


def test_magma_demo_reducible_leaf_is_named(capsys):
    code, out, err = run(capsys, "magma-demo", EX2, "(1 x)")
    assert code == 1
    assert out == ""
    assert err == "error: leaf label 1 is not irreducible\n"
    assert "(0,)" not in err


def test_magma_demo_deep_tree(capsys):
    # past the bound: an error line, not a RecursionError traceback
    deep = "(" * 1500 + "a" + " a)" * 1500
    code, out, err = run(capsys, "magma-demo", LETTERS3, deep)
    assert code == 1
    assert out == ""
    assert err == f"error: tree nested deeper than {parmon.magma.MAX_TREE_DEPTH} brackets\n"
    # a right comb at the bound still runs
    depth = parmon.magma.MAX_TREE_DEPTH
    code, data, err = run_json(capsys, "magma-demo", LETTERS3,
                               "(a " * depth + "a" + ")" * depth)
    assert code == 0
    assert err == ""
    assert data["leaves"] == depth + 1
    assert data["evaluation"] == ["a"] * (depth + 1)


def test_magma_demo_wide_tree(capsys):
    # a balanced tree passes the depth bound, but its right comb is one
    # level deep per leaf: 1,024 leaves must end in an error line too
    wide = "a"
    for _ in range(10):
        wide = f"({wide} {wide})"
    code, out, err = run(capsys, "magma-demo", LETTERS3, wide)
    assert code == 1
    assert out == ""
    assert err == f"error: tree has more than {parmon.magma.MAX_TREE_DEPTH + 1} leaves\n"


# a random 40-leaf tree, random.Random(1) splitting uniformly and drawing
# leaves from a b c; a bounded conversion search did not finish on it
SEED1_TREE40 = (
    "(((a b) (((a a) (a b)) ((c b) b))) ((((b (a (c (b c)))) (b (c a))) "
    "(((((b (c a)) b) ((b c) (a c))) ((c (c c)) (c c))) (b (c b)))) "
    "((((b (c b)) b) c) (b c))))")


def test_magma_demo_large_trees(capsys):
    # the conversion is read off the reductions, so large trees answer
    # at once: the 40-leaf tree and the left and right combs at the leaf bound
    labels = "a" + "".join("abcba"[(i + 1) % 5]
                           for i in range(parmon.magma.MAX_TREE_DEPTH))
    left_comb, right_comb = labels[0], labels[-1]
    for c in labels[1:]:
        left_comb = f"({left_comb} {c})"
    for c in reversed(labels[:-1]):
        right_comb = f"({c} {right_comb})"
    for tree in (SEED1_TREE40, left_comb, right_comb):
        code, out, err = run(capsys, "magma-demo", LETTERS3, tree)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[-1] == "convertible: yes"
        evaluation, comb = lines[-3], lines[-2]
        # only the right comb is its own comb
        assert (evaluation.split(": ")[1] == comb.split(": ")[1]) == (tree == right_comb)


# ------------------------------------------------------------------ random-check

def test_random_check(capsys):
    code, out, _ = run(capsys, "random-check", "--count", "10", "--seed", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("checked 10 random monoids (seed 4")
    assert lines[-1] == "all verdicts agree"


def test_random_check_json(capsys):
    code, data, _ = run_json(capsys, "random-check", "--count", "8", "--seed", "1")
    assert code == 0
    assert data["count"] == 8
    assert data["seed"] == 1
    assert data["failures"] == []


def test_random_check_runs_the_triple_loop(capsys, monkeypatch):
    # random-check reads each table's stored chain-law verdict, never
    # validate, and checks associativity with the triple loop, which
    # reads no A0 mask, once per table
    def no_validate(m):
        raise AssertionError("validate called")
    monkeypatch.setattr(parmon.monoid, "validate", no_validate)
    calls = []

    def counted(m, max_len):
        calls.append(max_len)
        return search(m, max_len)
    search = cli._triple_search
    monkeypatch.setattr(cli, "_triple_search", counted)
    code, out, _ = run(capsys, "random-check", "--count", "300", "--seed", "3",
                       "--max-carrier", "16")
    assert code == cli.EXIT_OK
    assert out.splitlines()[-1] == "all verdicts agree"
    assert calls == [2] * 300


RANDOM_CHECK_FAILURES = [
    (0, "PartialMonoid(5 elements, identity='1', 10 products)"),
    (1, "PartialMonoid(5 elements, identity='1', 11 products)"),
    (2, "PartialMonoid(5 elements, identity='1', 15 products)"),
]


def test_random_check_reports_failures(capsys, monkeypatch):
    # an oracle that always disagrees fails every table, in text and JSON
    monkeypatch.setattr(cli, "newman_check", lambda m: not parmon.is_confluent(m).confluent)
    argv = ["random-check", "--count", "3", "--seed", "0"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (cli.EXIT_NEGATIVE, "")
    assert out == "checked 3 random monoids (seed 0, 1 catenary)\n" + "".join(
        f"  FAIL #{i} {m}: critical pair oracle disagrees\n"
        for i, m in RANDOM_CHECK_FAILURES)
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (cli.EXIT_NEGATIVE, "")
    failures = ", ".join(
        f'{{"index": {i}, "monoid": "{m}", "reason": "critical pair oracle disagrees"}}'
        for i, m in RANDOM_CHECK_FAILURES)
    assert out == ('{"count": 3, "seed": 0, "catenary": 1, '
                   f'"failures": [{failures}]}}\n')


def test_random_check_carrier_over_cap(capsys):
    code, out, err = run(capsys, "random-check", "--max-carrier", "300")
    assert code == cli.EXIT_INVALID
    assert out == ""
    assert err == "error: carrier size 300 exceeds cap 256\n"


def test_parsed_carrier_cap(capsys, tmp_path):
    # a file is held to the same 256-element cap as the generators, on
    # its elements: line, before any product line is read
    for size, expected in ((257, cli.EXIT_INVALID), (256, cli.EXIT_OK)):
        path = tmp_path / f"null{size}.monoid"
        names = " ".join(f"e{i}" for i in range(size))
        path.write_text(f"# no products\nelements: {names}\nidentity: e0\n")
        code, out, err = run(capsys, "validate", str(path))
        assert code == expected
        if size > 256:
            assert (out, err) == ("", f"error: {path}: line 2: carrier size "
                                      f"{size} exceeds cap 256\n")
        else:
            assert (out, err) == ("valid\n", "")


# ------------------------------------------------------------------ usage

def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate"])  # missing file argument
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (["assoc-test", EX2, "--max-len", "-3"], "--max-len: must be at least 1"),
    (["assoc-test", LETTERS3, "--max-len", "0"], "--max-len: must be at least 1, got 0"),
    (["random-check", "--count", "-2"], "--count: must be at least 0"),
    (["random-check", "--max-carrier", "0"], "--max-carrier: must be at least 1"),
], ids=["max-len", "max-len-0", "count", "max-carrier"])
def test_out_of_range_arguments(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def _entry_point_command():
    """The ``parmon`` command and environment to run it in a child process.

    An installed console script is run as is. From a source checkout the
    script is absent, so check that pyproject.toml declares it as
    ``parmon.cli:main`` and run ``python -m parmon`` against the package
    this test imported.
    """
    exe = shutil.which("parmon")
    if exe is not None:
        return [exe], None
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["parmon"] == "parmon.cli:main"
    return [sys.executable, "-m", "parmon"], _source_env()


def _source_env():
    """This environment with the package this test imported on PYTHONPATH."""
    src = str(Path(parmon.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_installed_entry_point():
    cmd, env = _entry_point_command()
    proc = subprocess.run(cmd + ["confluence", EX2],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "confluent\n"
    proc = subprocess.run(cmd + ["confluence", LETTERS3],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == cli.EXIT_NEGATIVE


def test_import_loads_no_heavy_modules():
    # every parmon process pays for what importing parmon loads, and
    # dataclasses brings in inspect, ast, dis and tokenize with it.  -S
    # keeps site hooks from loading these modules or hiding them.
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = ("import sys, parmon, parmon.cli; "
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, env=_source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


def test_package_imports_form_a_module_level_dag():
    # each module's relative imports run when it loads, never inside a
    # function, and no chain of them leads back to where it started
    graph = {}
    for path in sorted((ROOT / "src" / "parmon").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        deps = graph[path.stem] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                assert node in tree.body, f"{path.name}:{node.lineno} imports below module level"
                deps.update([node.module] if node.module else (a.name for a in node.names))
    assert set().union(*graph.values()) <= set(graph)
    list(graphlib.TopologicalSorter(graph).static_order())  # CycleError on a cycle


def test_package_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10
    for path in sorted((ROOT / "src" / "parmon").glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_closed_pipe_ends_quietly(tmp_path):
    # as under `| head -1`: exit 1 and an empty stderr, not a
    # BrokenPipeError traceback.  Each output, over 100 kB, outgrows the
    # pipe buffer, so the child is still writing when the pipe closes.
    path = tmp_path / "letters4.monoid"
    path.write_text(parmon.serialize_monoid(
        parmon.gen_no_common_letters_monoid("abcd")))
    word = ["a", "b", "c"] * 200  # 400 trace lines of up to 1.8 kB
    cases = [(["critical-pairs", str(path)], "x y z a b class\n"),
             (["normalize", LETTERS3, *word, "--trace"],
              "·".join(word) + "  --[a b -> ab @ 0]-->\n")]
    cmd, env = _entry_point_command()
    for argv, first in cases:
        with subprocess.Popen(cmd + argv,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, env=env) as proc:
            assert proc.stdout.readline() == first
            proc.stdout.close()
            err = proc.stderr.read()
            proc.wait(timeout=60)
        assert proc.returncode == cli.EXIT_INVALID, argv[0]
        assert err == "", argv[0]


# ------------------------------------------------------------------ README

def test_readme_session(capsys, monkeypatch):
    # each `$ parmon` line of the README's command line block, run from
    # the repository root, against the stdout lines shown under it; a
    # shown line "..." or "  ..." elides output: the lines above it must
    # open stdout and the lines below it must close it
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```\n", 2)[1]
    session = []
    for line in block.splitlines():
        if line.startswith("$ parmon "):
            session.append((shlex.split(line[len("$ parmon "):]), []))
        elif line:
            session[-1][1].append(line)
    assert len(session) == 11
    monkeypatch.chdir(ROOT)
    for argv, shown in session:
        _, out, err = run(capsys, *argv)
        assert err == "", argv
        lines = out.splitlines()
        cut = [i for i, line in enumerate(shown)
               if line == "..." or line.startswith("  ...")]
        if not cut:
            assert lines == shown, argv
            continue
        head, tail = shown[:cut[0]], shown[cut[0] + 1:]
        assert len(lines) >= len(head) + len(tail), argv
        assert lines[:len(head)] == head, argv
        assert lines[len(lines) - len(tail):] == tail, argv


# ------------------------------------------------------------------ no traceback

MADE_UP = ("nope", "eps", "(", ")", "((", "x)", "=", "#")


@st.composite
def table_texts(draw):
    """A valid table of at most 5 elements, then up to 3 mutations.

    A mutation drops a line, rewrites a product's result or inserts a
    broken line, so the text ranges over valid tables, tables that break
    the chain law and files that do not parse.
    """
    m = parmon.random_monoid(random.Random(draw(st.integers(0, 2**16))), 5)
    names = list(m.elements)
    lines = parmon.serialize_monoid(m).splitlines()
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        op = draw(st.sampled_from(["drop", "mutate", "insert"]))
        i = draw(st.integers(0, len(lines)))
        if op == "drop" and i < len(lines):
            del lines[i]
        elif op == "mutate" and i < len(lines) and "=" in lines[i]:
            left = lines[i].split("=")[0]
            lines[i] = left + "= " + draw(st.sampled_from(names + ["nope"]))
        else:
            broken = draw(st.sampled_from([
                "elements:", "identity:", "identity: nope", "x y =", "= x",
                f"{names[0]} {names[-1]} = {names[0]} {names[0]}",
                "elements: eps", "x y z", "# comment", ""]))
            lines.insert(i, broken)
    return names, "\n".join(lines) + "\n"


@st.composite
def cli_calls(draw, path):
    """argv for one command over the table at path, from a bounded grammar."""
    names, text = draw(table_texts())
    name = st.sampled_from(names)
    token = st.one_of(name, name, name, st.sampled_from(MADE_UP))
    word = st.lists(token, min_size=1, max_size=6)
    tree = st.recursive(name, lambda t: st.builds("({} {})".format, t, t),
                        max_leaves=6)
    cmd = draw(st.sampled_from([
        "validate", "confluence", "normalize", "critical-pairs", "star",
        "assoc-test", "simulate", "magma-demo", "random-check", "bogus"]))
    argv = [cmd]
    if cmd != "random-check":
        argv.append(draw(st.sampled_from([path] * 7 + [path + ".missing"])))
    if cmd == "confluence" and draw(st.booleans()):
        argv.append("--oracle")
    elif cmd == "magma-demo":
        text_tree = draw(tree)
        cut = draw(st.integers(0, len(text_tree)))
        stray = draw(st.sampled_from(["", "", "(", ")", "nope"]))
        argv.append(text_tree[:cut] + stray + text_tree[cut:])
    elif cmd in ("normalize", "simulate"):
        argv += draw(word)
        if cmd == "normalize":
            argv += draw(st.sampled_from([[], ["--all"], ["--trace"]]))
    elif cmd == "star":
        argv += [" ".join(draw(word)), " ".join(draw(word))]
    elif cmd == "assoc-test":
        argv += draw(st.sampled_from([[], ["--max-len", "0"], ["--max-len", "1"],
                                      ["--max-len", "2"], ["--max-len", "-1"]]))
        if draw(st.booleans()):
            argv.append("--all")
    elif cmd == "random-check":
        argv += ["--count", str(draw(st.integers(0, 3))),
                 "--seed", str(draw(st.integers(-5, 2**16))),
                 "--max-carrier", str(draw(st.integers(1, 5)))]
    if draw(st.booleans()):
        argv.append("--json")
    return text, argv


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_never_prints_a_traceback(tmp_path_factory, data):
    path = str(tmp_path_factory.getbasetemp() / "fuzz.monoid")
    text, argv = data.draw(cli_calls(path))
    Path(path).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse, on a usage error
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, text)
    assert "Traceback" not in err.getvalue(), (argv, text)
