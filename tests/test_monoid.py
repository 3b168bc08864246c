"""Tables, parsing, validation, totalization, probes, generators."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import parmon as P
from conftest import EX2_TEXT, cyclic_group, one_product_edits, relabeled
from oracles import (brute_catenary, brute_chain_scan, brute_chain_violations,
                     brute_closure, brute_indecomposables, table_of,
                     total_associativity_witnesses, totalize)
from parmon.monoid import _generators, chain_law_holds

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# ------------------------------------------------------------------ construction

def test_construction_interns_names(ex2):
    assert ex2.elements == ("1", "x", "y", "z")
    assert ex2.identity == 0
    assert ex2.size == 4
    assert ex2.index("y") == 2
    assert ex2.elements[3] == "z"


def test_construction_rejects_bad_names():
    with pytest.raises(ValueError, match="bad element name"):
        P.PartialMonoid(["1", "a-b"], 0, {})
    with pytest.raises(ValueError, match="reserved"):
        P.PartialMonoid(["1", "eps"], 0, {})
    with pytest.raises(ValueError, match="duplicate"):
        P.PartialMonoid(["1", "x", "x"], 0, {})
    with pytest.raises(ValueError, match="at least the identity"):
        P.PartialMonoid([], 0, {})


def test_construction_rejects_bad_indices():
    with pytest.raises(ValueError, match="identity index"):
        P.PartialMonoid(["1"], 5, {})
    with pytest.raises(ValueError, match="out of range"):
        P.PartialMonoid(["1", "x"], 0, {(1, 1): 7})


def test_identity_rows_are_completed():
    m = P.PartialMonoid(["1", "x"], 0, {})
    assert m.mul(0, 1) == 1
    assert m.mul(1, 0) == 1
    assert m.mul(0, 0) == 0
    # writing a forced row out explicitly is fine when it agrees
    m2 = P.PartialMonoid(["1", "x"], 0, {(0, 1): 1})
    assert m == m2
    with pytest.raises(ValueError, match="identity law"):
        P.PartialMonoid(["1", "x"], 0, {(0, 1): 0})


def test_mul_defined(ex2):
    x, y, z = ex2.index("x"), ex2.index("y"), ex2.index("z")
    assert ex2.mul(x, y) == x
    assert ex2.mul(y, y) == y
    assert ex2.mul(y, z) == z
    assert ex2.mul(x, z) is None
    assert ex2.mul(y, z) is not None and ex2.mul(z, y) is None
    with pytest.raises(ValueError, match="unknown element index"):
        ex2.mul(0, 9)


def test_value_semantics(ex2):
    twin = P.parse_monoid(EX2_TEXT)
    assert twin == ex2
    assert hash(twin) == hash(ex2)
    other = P.parse_monoid(EX2_TEXT + "z z = z\n")
    assert other != ex2
    assert ex2 != "not a monoid"
    assert "4 elements" in repr(ex2)


def test_non_identity(ex2, trivial):
    assert ex2.non_identity() == (1, 2, 3)
    assert trivial.non_identity() == ()


# ------------------------------------------------------------------ parsing

def test_parse_ignores_comments_and_blanks():
    m = P.parse_monoid("# header\n\n  elements: 1 x\n# mid\nidentity: 1\n\n")
    assert m.elements == ("1", "x")


def test_parse_is_order_independent():
    a = P.parse_monoid("elements: 1 g\nidentity: 1\ng g = 1\n")
    b = P.parse_monoid("g g = 1\nidentity: 1\nelements: 1 g\n")
    assert a == b


@pytest.mark.parametrize("text,line,msg", [
    ("identity: 1\n", None, "missing elements"),
    ("elements: 1 x\n", None, "missing identity"),
    ("elements: 1\nelements: 1\nidentity: 1\n", 2, "duplicate elements"),
    ("elements: 1\nidentity: 1\nidentity: 1\n", 3, "duplicate identity"),
    ("elements:\nidentity: 1\n", 1, "lists no elements"),
    ("elements: 1\nidentity: 1 2\n", 2, "exactly one name"),
    ("elements: 1 x x\nidentity: 1\n", 1, "duplicate element name"),
    ("elements: 1 eps\nidentity: 1\n", 1, "reserved for the empty word"),
    ("elements: 1 a-b\nidentity: 1\n", 1, "bad element name"),
    ("elements: 1\nidentity: q\n", 2, "unknown identity"),
    ("elements: 1 x\nidentity: 1\nx q = x\n", 3, "unknown element name"),
    ("elements: 1 x\nidentity: 1\nx x = x\nx x = 1\n", 4, "duplicate product"),
    ("elements: 1 x\nidentity: 1\nx 1 = 1\n", 3, "identity law"),
    ("elements: 1 x\nidentity: 1\nwhat is this\n", 3, "cannot parse"),
])
def test_parse_errors_carry_line_numbers(text, line, msg):
    with pytest.raises(P.ParseError, match=msg) as exc:
        P.parse_monoid(text)
    assert exc.value.line == line
    if line is not None:
        assert f"line {line}:" in str(exc.value)


def test_parse_error_is_a_value_error():
    assert issubclass(P.ParseError, ValueError)


def test_serialize_round_trip(ex2, letters3, group2, trivial, du2):
    for m in (ex2, letters3, group2, trivial, du2):
        assert P.parse_monoid(P.serialize_monoid(m)) == m


def test_serialize_omits_forced_rows(ex2):
    text = P.serialize_monoid(ex2)
    assert text.splitlines() == [
        "elements: 1 x y z",
        "identity: 1",
        "x y = x",
        "y y = y",
        "y z = z",
    ]


def test_fixture_files_are_canonical(ex2, letters3):
    # each file is one comment line, then exactly its table's canonical text
    tables = {"ex2.monoid": ex2, "letters3.monoid": letters3}
    assert sorted(p.name for p in FIXTURES.iterdir()) == sorted(tables)
    for name, m in tables.items():
        comment, text = (FIXTURES / name).read_text(encoding="utf-8").split("\n", 1)
        assert comment.startswith("# ")
        assert text == P.serialize_monoid(m)


# ------------------------------------------------------------------ validation

def test_fixtures_validate(ex2, letters3, group2, trivial, du2):
    for m in (ex2, letters3, group2, trivial, du2):
        report = P.validate(m)
        assert report.valid
        assert report.violations == ()


def test_validate_matches_brute_oracle_on_fixtures(ex2, letters3, group2, du2):
    for m in (ex2, letters3, group2, du2):
        assert brute_chain_violations(m) == set()


def test_broken_table_left_only_witness():
    # x*y = a and a*a = a chains on the left, but y*a is undefined
    m = P.parse_monoid("elements: 1 x y a\nidentity: 1\nx y = a\na a = a\n")
    report = P.validate(m)
    assert not report.valid
    x, y, a = m.index("x"), m.index("y"), m.index("a")
    # (x y) a = a a = a but y a is undefined; a x is undefined but a (x y) = a
    assert set(report.violations) == {(x, y, a, a, None), (a, x, y, None, a)}
    assert brute_chain_violations(m) == {v[:3] for v in report.violations}


def test_broken_table_right_only_witness():
    # the sibling table breaks too, one triple earlier in scan order
    m = P.parse_monoid("elements: 1 x y a\nidentity: 1\nx y = a\ny a = a\n")
    report = P.validate(m)
    assert not report.valid
    flagged = {v[:3]: v[3:] for v in report.violations}
    y = m.index("y")
    assert all(left is None for left, _ in flagged.values())
    assert (y, m.index("x"), y) in flagged
    assert brute_chain_violations(m) == set(flagged)


def test_broken_table_unequal_witness():
    m = P.parse_monoid(
        "elements: 1 p q\nidentity: 1\n"
        "p p = q\np q = p\nq p = q\nq q = q\n")
    report = P.validate(m)
    assert any(None not in v[3:] for v in report.violations)
    assert brute_chain_violations(m) == {v[:3] for v in report.violations}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_validate_agrees_with_brute_oracle_on_random_tables(data):
    # arbitrary tables, mostly invalid; both scans must flag identically
    n = data.draw(st.integers(min_value=1, max_value=4))
    pairs = [(x, y) for x in range(1, n) for y in range(1, n)]
    products = {}
    for x, y in pairs:
        z = data.draw(st.integers(min_value=-1, max_value=n - 1))
        if z >= 0:
            products[(x, y)] = z
    m = P.PartialMonoid([f"e{i}" if i else "1" for i in range(n)], 0, products)
    report = P.validate(m)
    assert {v[:3] for v in report.violations} == brute_chain_violations(m)
    assert list(report.violations) == brute_chain_scan(m)


def test_validate_lists_violations_in_scan_order(du2, sample_tables):
    # the ordered list, both chains included, and the totalized product's
    # witnesses
    fixtures = [P.parse_monoid((FIXTURES / f"{name}.monoid").read_text())
                for name in ("ex2", "letters3")]
    tables = fixtures + [du2] + sample_tables
    assert any(not P.validate(m).valid for m in tables)
    for m in tables:
        report = P.validate(m)
        assert list(report.violations) == brute_chain_scan(m)
        assert ({v[:3] for v in report.violations}
                == set(total_associativity_witnesses(totalize(m))))


def _light_generators(m):
    # the totalized table: undefined products go to an absorbing zero n
    n = m.size
    T = [tuple(n if z is None else z for z in row) + (n,) for row in m.rows]
    return _generators(m, T + [(n,) * (n + 1)])


def test_generators_generate_and_hold_every_indecomposable(ex2, letters3, du2,
                                                          sample_tables):
    # Light's test is sound only if the generators build the whole
    # totalized table; an indecomposable is in every generating set
    tables = [ex2, letters3, du2, cyclic_group(6), *sample_tables,
              *(relabeled(P.gen_disjoint_union_monoid(k), k) for k in (3, 4)),
              relabeled(letters3, 3)]
    for m in tables:
        gens = _light_generators(m)
        assert brute_closure(m, gens) == set(range(m.size + 1))
        assert brute_indecomposables(m) <= set(gens)


def test_generators_are_the_indecomposables_when_they_generate():
    # the seeded relabelings put decomposable elements first, which the
    # lowest-uncovered seeding alone took as generators
    tables = [(P.gen_disjoint_union_monoid(k, cap=k), 10 + k) for k in range(3, 7)]
    tables += [(P.gen_no_common_letters_monoid("abcd"[:k]), 20 + k) for k in range(2, 5)]
    for m, seed in tables:
        m = relabeled(m, seed)
        assert len(_light_generators(m)) == len(brute_indecomposables(m))
    assert len(_light_generators(relabeled(P.gen_disjoint_union_monoid(7, cap=7), 1))) == 7
    # a group has no indecomposables; its generators come from the scan
    cyc = relabeled(cyclic_group(12), 5)
    assert brute_indecomposables(cyc) == set()
    assert brute_closure(cyc, _light_generators(cyc)) == set(range(13))


def test_validate_verdict_on_every_one_product_edit(ex2, letters3):
    # a generating set that covers too much would call a broken table
    # valid; on the relabeled tables and the group an edit can make or
    # unmake an indecomposable, and the generators then leave index order
    du3 = P.gen_disjoint_union_monoid(3)
    seen, reordered = set(), 0
    for m, every_pair in ((ex2, True), (letters3, False), (du3, True),
                          (relabeled(du3, 4), True), (relabeled(letters3, 8), False),
                          (relabeled(cyclic_group(4), 6), True)):
        rest = m.non_identity()
        if every_pair:
            pairs = [(x, y) for x in rest for y in rest]
        else:
            pairs = [(x, y) for x, y, _ in m.products if m.identity not in (x, y)]
        for e in one_product_edits(m, pairs):
            violations = brute_chain_violations(e)
            assert {v[:3] for v in P.validate(e).violations} == violations
            gens = _light_generators(e)
            reordered += gens != sorted(gens)
            seen.add(not violations)
    assert seen == {True, False}
    assert reordered


def test_light_test_runs_once_per_table(monkeypatch):
    # the first pass keeps its verdict on the table, valid or not, and
    # every later ask reads it
    calls = []

    def counting(m, T):
        calls.append(m)
        return _generators(m, T)

    monkeypatch.setattr("parmon.monoid._generators", counting)
    broken = "elements: 1 x y a\nidentity: 1\nx y = a\na a = a\n"
    for text, valid in ((EX2_TEXT, True), (broken, False)):
        m = P.parse_monoid(text)
        assert (chain_law_holds(m), chain_law_holds(m)) == (valid, valid)
        assert calls == [m]
        calls.clear()
        m = P.parse_monoid(text)
        assert P.validate(m).valid == valid
        P.newman_check(m)
        assert calls == [m]
        calls.clear()


def test_validation_report_valid_property():
    assert P.ValidationReport(()).valid
    report = P.ValidationReport(((0, 0, 0, 0, None),))
    assert not report.valid
    # a named tuple: fixed fields in order, immutable
    assert P.ValidationReport._fields == ("violations",)
    with pytest.raises(AttributeError):
        report.violations = ()
    assert repr(report).startswith("ValidationReport(violations=")


# ------------------------------------------------------------------ totalization

def test_totalize_adds_absorbing_zero(ex2):
    t = totalize(ex2)
    assert t.elements == ("1", "x", "y", "z", "0")
    assert t.zero == 4
    assert t.identity == ex2.identity
    n = len(t.elements)
    for i in range(n):
        assert t.mul(i, t.zero) == t.zero
        assert t.mul(t.zero, i) == t.zero
    # defined products carry over, undefined ones hit the zero
    x, y = ex2.index("x"), ex2.index("y")
    assert t.mul(x, y) == x
    assert t.mul(ex2.index("z"), y) == t.zero


def test_totalize_picks_fresh_zero_name():
    m = P.parse_monoid("elements: 1 0 zero\nidentity: 1\n")
    t = totalize(m)
    assert t.elements[-1] == "_zero"
    assert len(set(t.elements)) == len(t.elements)


def test_total_associativity_oracle_on_valid_monoids(ex2, letters3, group2):
    for m in (ex2, letters3, group2):
        assert total_associativity_witnesses(totalize(m)) == []


def test_total_associativity_oracle_flags_same_triples():
    m = P.parse_monoid("elements: 1 x y a\nidentity: 1\nx y = a\na a = a\n")
    witnesses = set(total_associativity_witnesses(totalize(m)))
    assert witnesses == brute_chain_violations(m)
    assert witnesses == {v[:3] for v in P.validate(m).violations}


# ------------------------------------------------------------------ probes

def test_right_masks_are_the_defined_entries(ex2, letters3, trivial,
                                             sample_tables):
    for m in (ex2, letters3, trivial, *sample_tables):
        assert len(m.right) == m.size
        for y, row in enumerate(m.rows):
            assert m.right[y] >> m.size == 0
            assert ({z for z in range(m.size) if m.right[y] >> z & 1}
                    == {z for z, c in enumerate(row) if c is not None})


def test_catenary_fixtures(ex2, letters3, group2, trivial):
    ok, witness = P.is_catenary(ex2)
    assert not ok
    x, y, z = witness
    # the witness really breaks catenation: x*y, y*z defined, (x*y)*z not
    assert y != ex2.identity
    assert ex2.mul(x, y) is not None and ex2.mul(y, z) is not None
    assert ex2.mul(ex2.mul(x, y), z) is None
    assert witness == (ex2.index("x"), ex2.index("y"), ex2.index("z"))

    ok, witness = P.is_catenary(letters3)
    assert not ok
    a, b, a2 = witness
    assert (letters3.elements[a], letters3.elements[b], letters3.elements[a2]) == ("a", "b", "a")

    assert P.is_catenary(group2) == (True, None)
    assert P.is_catenary(trivial) == (True, None)


def test_catenary_matches_brute(ex2, letters3, group2, trivial, du2,
                                sample_tables):
    for m in (ex2, letters3, group2, trivial, du2, *sample_tables):
        witness = brute_catenary(m)
        assert P.is_catenary(m) == (witness is None, witness)


def test_total_monoids_are_catenary():
    rng = random.Random(11)
    n = 5
    products = {(i, j): (i + j) % n for i in range(n) for j in range(n)}
    m = P.PartialMonoid([f"g{i}" for i in range(n)], 0, products)
    assert P.is_catenary(m) == (True, None)


def test_catenary_implies_confluent_on_samples():
    rng = random.Random(23)
    seen_catenary = 0
    for _ in range(60):
        m = P.random_monoid(rng)
        ok, _ = P.is_catenary(m)
        if ok:
            seen_catenary += 1
            assert P.is_confluent(m).confluent
    assert seen_catenary > 0


# ------------------------------------------------------------------ generators

def test_disjoint_union_monoid_small():
    m = P.gen_disjoint_union_monoid(2)
    assert m.elements == ("e", "s0", "s1", "s01")
    e, s0, s1, s01 = range(4)
    assert m.identity == e
    assert m.mul(s0, s1) == s01
    assert m.mul(s1, s0) == s01
    assert m.mul(s0, s0) is None
    assert m.mul(s0, s01) is None
    assert P.validate(m).valid


def test_disjoint_union_monoid_edges():
    assert P.gen_disjoint_union_monoid(0).size == 1
    with pytest.raises(ValueError, match="nonnegative"):
        P.gen_disjoint_union_monoid(-1)
    with pytest.raises(ValueError, match="generator cap"):
        P.gen_disjoint_union_monoid(5)


def test_no_common_letters_monoid_shape(letters3):
    assert letters3.size == 16
    assert letters3.elements == (
        "1", "a", "b", "c", "ab", "ac", "ba", "bc", "ca", "cb",
        "abc", "acb", "bac", "bca", "cab", "cba")
    assert letters3.identity == 0
    ab, c, a = letters3.index("ab"), letters3.index("c"), letters3.index("a")
    assert letters3.elements[letters3.mul(ab, c)] == "abc"
    assert letters3.mul(ab, a) is None
    assert len(letters3.products) == 49
    assert sum(1 for x, y, _ in letters3.products
               if letters3.identity not in (x, y)) == 18
    assert P.validate(letters3).valid


def test_no_common_letters_monoid_edges():
    with pytest.raises(ValueError, match="duplicate"):
        P.gen_no_common_letters_monoid("aa")
    with pytest.raises(ValueError, match="at most 4"):
        P.gen_no_common_letters_monoid("abcde")
    with pytest.raises(ValueError, match="single alphabetic"):
        P.gen_no_common_letters_monoid(["ab"])
    one = P.gen_no_common_letters_monoid("q")
    assert one.elements == ("1", "q")
    assert one.mul(1, 1) is None


def test_carrier_cap_env_override(monkeypatch):
    # the cap is a constant 256 that no environment variable moves
    monkeypatch.setenv("PARMON_MAX_CARRIER", "1000")
    with pytest.raises(ValueError, match="carrier size 512 exceeds cap 256"):
        P.gen_disjoint_union_monoid(9, cap=9)
    assert P.gen_disjoint_union_monoid(8, cap=8).size == 256
    with pytest.raises(ValueError, match="carrier size 257 exceeds cap 256"):
        P.PartialMonoid([f"e{i}" for i in range(257)], 0, {})


# ------------------------------------------------------------------ random monoids

def test_random_monoid_always_validates():
    rng = random.Random(7)
    for _ in range(200):
        m = P.random_monoid(rng)
        assert m.size <= 8
        assert P.validate(m).valid
        assert brute_chain_violations(m) == set()


def test_random_monoid_is_deterministic_per_seed():
    a = [P.random_monoid(random.Random(99)) for _ in range(10)]
    b = [P.random_monoid(random.Random(99)) for _ in range(10)]
    # same seed, same construction; fresh Random each call isolates draws
    first = [P.random_monoid(random.Random(99))]
    assert first[0] == a[0] == b[0]


def test_random_monoid_varies_identity_position():
    rng = random.Random(3)
    positions = {P.random_monoid(rng).identity for _ in range(80)}
    assert len(positions) > 1


def test_random_monoid_hits_nontrivial_tables():
    rng = random.Random(5)
    sizes = set()
    with_products = 0
    for _ in range(100):
        m = P.random_monoid(rng)
        sizes.add(m.size)
        if any(m.identity not in (x, y) for x, y, _ in m.products):
            with_products += 1
    assert len(sizes) >= 4
    assert with_products >= 30


def test_random_monoid_rejects_bad_max_size():
    with pytest.raises(ValueError, match="positive"):
        P.random_monoid(random.Random(0), max_size=0)


def test_random_monoid_honours_carrier_cap():
    # the cyclic family alone could otherwise draw up to max_size elements
    for seed in range(20):
        with pytest.raises(ValueError, match="carrier size 400 exceeds cap 256"):
            P.random_monoid(random.Random(seed), 400)
    rng = random.Random(0)
    assert all(P.random_monoid(rng, 256).size <= 256 for _ in range(20))


def test_random_monoid_small_max_size():
    # families that cannot fit are skipped; none overshoots the bound
    for max_size in (1, 2, 3):
        rng = random.Random(max_size)
        for _ in range(100):
            m = P.random_monoid(rng, max_size)
            assert m.size <= max_size
            assert P.validate(m).valid


def test_table_of_matches_products(ex2):
    t = table_of(ex2)
    assert all(ex2.mul(x, y) == z for (x, y), z in t.items())
    assert len(t) == len(ex2.products)
