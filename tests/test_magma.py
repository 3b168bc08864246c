"""Binary trees, rotation, right combs, and evaluation through star."""

import itertools
import time

import pytest
from hypothesis import given, settings, strategies as st

import parmon as P
from conftest import all_shapes, wrd
from oracles import (brute_one_step, brute_rank, brute_rotation_closure,
                     brute_rotations, star_fold)


def leaf_trees(m, letters, n):
    """All shapes over all length-n letter sequences."""
    for seq in itertools.product(letters, repeat=n):
        yield from all_shapes([(c,) for c in seq])


def trees_up_to(labels, n):
    """Every tree of 1 to n leaves, each leaf labelled by one of labels."""
    for k in range(1, n + 1):
        for seq in itertools.product(labels, repeat=k):
            yield from all_shapes(list(seq))


@pytest.fixture(scope="module")
def pentagon(letters3):
    return P.parse_tree(letters3, "(((a b) c) a)")


# ------------------------------------------------------------------ structure

def test_leaves_and_labels(ex2):
    x, y = wrd(ex2, "x"), wrd(ex2, "y")
    t = P.Node(P.Leaf(x), P.Node(P.Leaf(y), P.Leaf(x)))
    assert len(P.leaf_labels(t)) == 3
    assert P.leaf_labels(t) == [x, y, x]
    assert len(P.leaf_labels(P.Leaf(x))) == 1


def test_rank_examples(ex2, letters3, pentagon):
    x = wrd(ex2, "x")
    leaf = P.Leaf(x)
    assert P.rank(leaf) == 0
    assert P.rank(P.Node(leaf, leaf)) == 0
    left2 = P.Node(P.Node(leaf, leaf), leaf)
    assert P.rank(left2) == 1
    assert P.rank(P.Node(leaf, P.Node(leaf, leaf))) == 0
    assert P.rank(pentagon) == 3


def test_rank_zero_exactly_on_right_combs(ex2):
    x = wrd(ex2, "x")
    for n in range(1, 6):
        for t in all_shapes([x] * n):
            assert (P.rank(t) == 0) == (t == P.right_comb(t))


def test_right_comb_shape(ex2):
    x, y, z = (wrd(ex2, n) for n in "xyz")
    t = P.Node(P.Node(P.Leaf(x), P.Leaf(y)), P.Leaf(z))
    comb = P.right_comb(t)
    assert comb == P.Node(P.Leaf(x), P.Node(P.Leaf(y), P.Leaf(z)))
    assert P.leaf_labels(comb) == P.leaf_labels(t)
    assert P.right_comb(comb) == comb


# ------------------------------------------------------------------ rotation

def test_rotations_of_pentagon(letters3, pentagon):
    got = P.rotations(pentagon)
    expected = {P.parse_tree(letters3, "((a b) (c a))"),
                P.parse_tree(letters3, "((a (b c)) a)")}
    assert got == expected


def test_rotations_of_leaf_and_comb(ex2):
    x = wrd(ex2, "x")
    assert P.rotations(P.Leaf(x)) == set()
    comb = P.right_comb(P.Node(P.Leaf(x), P.Node(P.Leaf(x), P.Leaf(x))))
    assert P.rotations(comb) == set()


def test_rotation_strictly_drops_rank(ex2):
    x = wrd(ex2, "x")
    for n in range(2, 6):
        for t in all_shapes([x] * n):
            for r in P.rotations(t):
                assert P.rank(r) < P.rank(t)
                assert P.leaf_labels(r) == P.leaf_labels(t)


def test_rotation_closure_pentagon(letters3, pentagon):
    closure = P.rotation_closure(pentagon)
    assert len(closure) == 5
    assert pentagon in closure
    labels = [(letters3.index(c),) for c in "abca"]
    assert closure == set(all_shapes(labels))


def test_closure_has_unique_normal_form(ex2):
    # rotation terminates at exactly one rank-zero tree, the right comb
    x, y = wrd(ex2, "x"), wrd(ex2, "y")
    for n in range(1, 6):
        for t in all_shapes([x, y] * ((n + 1) // 2))[:40]:
            closure = P.rotation_closure(t)
            zero = {s for s in closure if P.rank(s) == 0}
            assert zero == {P.right_comb(t)}
            assert len(closure) >= P.rank(t) + 1


@st.composite
def ex2_trees(draw):
    letters = [(1,), (2,), (3,), ()]  # x, y, z in ex2, and the empty word
    leaf = st.sampled_from(letters).map(P.Leaf)
    return draw(st.recursive(leaf, lambda ch: st.builds(P.Node, ch, ch),
                             max_leaves=7))


@settings(max_examples=60, deadline=None)
@given(t=ex2_trees())
def test_rotation_closure_properties_random(t):
    closure = P.rotation_closure(t)
    assert closure == brute_rotation_closure(t)
    assert P.rotations(t) == brute_rotations(t)
    combs = {s for s in closure if P.rank(s) == 0}
    assert combs == {P.right_comb(t)}
    for s in closure:
        assert P.rank(s) == brute_rank(s)
        assert P.leaf_labels(s) == P.leaf_labels(t)


def test_shapes_match_the_tree_oracles():
    # every shape of up to 7 leaves, the leaves told apart by their
    # labels, one of them the empty word
    checked = 0
    for n in range(1, 8):
        labels = [(c,) for c in range(n)]
        labels[n // 2] = ()
        for t in all_shapes(labels):
            shape, found = P.magma._shape(t)
            assert len(shape) == n - 1 and P.magma._tree(shape, found) == t
            assert P.rank(t) == brute_rank(t) == sum(shape) - len(shape)
            assert P.rotations(t) == brute_rotations(t)
            assert P.rotation_closure(t) == brute_rotation_closure(t)
            checked += 1
    assert checked == 1 + 1 + 2 + 5 + 14 + 42 + 132


def test_decoded_trees_reuse_the_leaves(pentagon):
    _, found = P.magma._shape(pentagon)
    for s in [*P.rotation_closure(pentagon), *P.rotations(pentagon), P.right_comb(pentagon)]:
        assert all(a is b for a, b in zip(P.magma._shape(s)[1], found))
    one = P.Leaf(found[0].label)
    assert P.right_comb(one) is one


# ------------------------------------------------------------------ evaluation

def test_evaluate_examples(ex2):
    x, z = wrd(ex2, "x"), wrd(ex2, "z")
    t = P.parse_tree(ex2, "((x y) z)")
    assert P.evaluate(ex2, t) == x + z
    assert P.evaluate(ex2, P.right_comb(t)) == x + z
    assert P.evaluate(ex2, P.Leaf(z)) == z


def test_evaluate_pentagon_bracketings_differ(letters3, pentagon):
    left = P.evaluate(letters3, pentagon)
    comb = P.evaluate(letters3, P.right_comb(pentagon))
    assert left == wrd(letters3, "abc a")
    assert comb == wrd(letters3, "a bca")
    assert left != comb  # non-confluent: bracketings disagree as words


def test_evaluate_rejects_reducible_leaf(ex2):
    bad = P.Leaf(wrd(ex2, "y z"))
    with pytest.raises(ValueError, match="not irreducible"):
        P.evaluate(ex2, bad)
    with pytest.raises(ValueError, match="not irreducible"):
        P.evaluate(ex2, P.Node(P.Leaf(wrd(ex2, "x")), bad))


def test_evaluate_empty_leaf(ex2):
    t = P.parse_tree(ex2, "(eps x)")
    assert P.evaluate(ex2, t) == wrd(ex2, "x")


# ------------------------------------------------------------------ invariance

def test_rotation_invariance_confluent(ex2):
    for t in leaf_trees(ex2, ex2.non_identity(), 3):
        assert P.verify_rotation_invariance(ex2, t)


def test_rotation_invariance_pentagon(letters3, pentagon):
    # evaluations differ as words yet stay interconvertible
    assert P.verify_rotation_invariance(letters3, pentagon)


def test_rotation_invariance_letter_triples(letters3):
    a, b, c = (letters3.index(n) for n in "abc")
    for t in leaf_trees(letters3, (a, b, c), 3):
        assert P.verify_rotation_invariance(letters3, t)


def test_rotation_invariance_long_labels(letters3):
    ab_a = wrd(letters3, "ab a")
    t = P.Node(P.Leaf(ab_a), P.Node(P.Leaf(ab_a), P.Leaf(ab_a)))
    assert P.verify_rotation_invariance(letters3, t)


def test_rotation_invariance_rejects_bad_leaf_labels(ex2):
    # the labels are checked once, on the given tree, not skipped
    e, x, y, z = (ex2.index(n) for n in ("1", "x", "y", "z"))
    for bad in (P.Leaf((x, y)), P.Leaf((e,)), P.Leaf((z, e))):
        for t in (bad, P.Node(bad, P.Leaf((z,))),
                  P.Node(P.Node(P.Leaf((z,)), P.Leaf((x,))), bad)):
            with pytest.raises(ValueError, match="not irreducible"):
                P.verify_rotation_invariance(ex2, t)
    with pytest.raises(ValueError, match="unknown element index"):
        P.verify_rotation_invariance(ex2, P.Node(P.Leaf((x,)), P.Leaf((4,))))


# ------------------------------------------------------------------ evaluation chart

def subtree_folds(m):
    """star_fold over m, each distinct subtree folded once and kept."""
    memo = {}

    def fold(t):
        if t not in memo:
            memo[t] = (t.label if isinstance(t, P.Leaf)
                       else P.star(m, fold(t.left), fold(t.right)))
        return memo[t]

    return fold


def test_chart_matches_the_closure_oracle(ex2, letters3, sample_tables):
    # every shape of 1 to 8 leaves, the leaves labelled in turn by a
    # table's letters with one empty-word leaf: the root cell holds the
    # closure's evaluations, each with a witness in the closure folding
    # to it.  Rotation never reads a label, so each shape's closure is
    # found once, and the closure's trees share their subtrees' folds.
    invalid = next(m for m in sample_tables if not P.validate(m).valid)
    differ = 0
    for n in range(1, 9):
        labelled = []
        for m in (letters3, ex2, invalid):
            letters = m.non_identity()
            labels = [(letters[i % len(letters)],) for i in range(n)]
            labels[n // 2] = ()
            labelled.append((m, labels, [P.Leaf(label) for label in labels],
                             subtree_folds(m)))
        for t in all_shapes([(i,) for i in range(n)]):
            shape = P.magma._shape(t)[0]
            closure = {P.magma._shape(s)[0] for s in brute_rotation_closure(t)}
            for m, labels, found, fold in labelled:
                cell = P.magma._evaluations(m, shape, labels)
                assert set(cell) == {fold(P.magma._tree(s, found)) for s in closure}
                for value, s in cell.items():
                    assert s in closure and fold(P.magma._tree(s, found)) == value
                differ += len(cell) > 1
    assert differ > 0


def test_chart_evaluation_cap(letters3, monkeypatch):
    # the left comb a b c a b c a b c tries 318 star evaluations across its chart
    t = P.parse_tree(letters3, "((((((((a b) c) a) b) c) a) b) c)")
    monkeypatch.setattr(P.magma, "MAX_EVALUATIONS", 317)
    with pytest.raises(ValueError, match="more than 317 star evaluations"):
        P.verify_rotation_invariance(letters3, t)
    monkeypatch.setattr(P.magma, "MAX_EVALUATIONS", 318)
    assert P.verify_rotation_invariance(letters3, t)
    # each evaluation the cap counts is one _lstd call
    calls = []
    lstd = P.magma._lstd

    def counted(m, *args):
        calls.append(args)
        return lstd(m, *args)

    monkeypatch.setattr(P.magma, "_lstd", counted)
    P.magma._evaluations(letters3, *P.magma._checked_shape(letters3, t))
    assert len(calls) == 318


def left_comb(m, names):
    t = P.Leaf(wrd(m, names[0]))
    for name in names[1:]:
        t = P.Node(t, P.Leaf(wrd(m, name)))
    return t


def test_long_left_comb_verifies_quickly(letters3, monkeypatch):
    # its closure has 1,767,263,190 trees, none of them listed, but its
    # chart tries 48,256 star evaluations; every closure walk takes
    # rotation steps, and the chart takes none
    def refuse(shape):
        raise AssertionError("a rotation step was taken")

    monkeypatch.setattr(P.magma, "_shape_rotations", refuse)
    t = left_comb(letters3, ("abc" * 7)[:20])
    start = time.perf_counter()
    assert P.verify_rotation_invariance(letters3, t)
    assert time.perf_counter() - start < 1


def test_cap_counts_the_evaluations_tried(letters3):
    # a b b ... b has one evaluation in each cell, but its 201 leaves
    # give 1,353,400 pairs to try: the cap stops it, and soon
    t = left_comb(letters3, "a" + "b" * 200)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="star evaluations"):
        P.verify_rotation_invariance(letters3, t)
    assert time.perf_counter() - start < 2


# ------------------------------------------------------------------ certificates

def tree_chain(m, t):
    """t's chain, (evaluation, steps), built over its shape and leaf labels."""
    shape, found = P.magma._shape(t)
    return P.magma._chain(m, shape, [leaf.label for leaf in found])


def replay(start, steps):
    """The words that the steps make of start, start first."""
    words = [start]
    for i, z in steps:
        words.append(P.rewriting._apply(words[-1], i, z))
    return words


def assert_chain(m, t):
    """t's chain steps from its leaf concatenation down to its evaluation."""
    value, steps = tree_chain(m, t)
    start = sum(P.leaf_labels(t), ())
    assert value == star_fold(m, t)
    assert len(steps) == len(start) - len(value)
    words = replay(start, steps)
    assert words[-1] == value
    for p, q in zip(words, words[1:]):
        assert q in brute_one_step(m, p)


@pytest.fixture(scope="module")
def certificate_cases(ex2, letters3, group2, sample_tables):
    """(table, trees): up to 5 leaves over the fixtures, up to 3 or 4 over
    each sample table, mutants included."""
    abc = [(letters3.index(n),) for n in "abc"]
    cases = [(ex2, trees_up_to([(c,) for c in ex2.non_identity()], 5)),
             (letters3, trees_up_to(abc, 5)),
             (group2, trees_up_to([(group2.index("g"),), ()], 5))]
    cases += [(m, trees_up_to([(c,) for c in m.non_identity()], 4 if m.size <= 4 else 3))
              for m in sample_tables]
    return [(m, list(trees)) for m, trees in cases]


def test_evaluate_matches_star_fold(certificate_cases):
    for m, trees in certificate_cases:
        for t in trees:
            assert P.evaluate(m, t) == star_fold(m, t)


def test_chains_reduce_the_leaf_concatenation(certificate_cases):
    # on invalid tables too: the argument never uses the chain law
    for m, trees in certificate_cases:
        for t in trees:
            assert_chain(m, t)


def test_certificates_agree_with_the_search(certificate_cases):
    # a tree against its right comb: wherever the bounded search links
    # the two evaluations, the certificate check passes, and both always
    # do, since the conversion through the leaf concatenation fits the cap
    differ = 0
    for m, trees in certificate_cases:
        for t in trees:
            down, up = tree_chain(m, t), tree_chain(m, P.right_comb(t))
            u, v = down[0], up[0]
            cap = sum(len(label) for label in P.leaf_labels(t))
            assert P.convertible_bounded(m, u, v, cap) is not None
            assert P.magma._convertible(m, sum(P.leaf_labels(t), ()), [down, up])
            differ += u != v
    assert differ > 0


def test_one_certificate_per_distinct_evaluation(certificate_cases, monkeypatch):
    # one _convertible call from the leaf concatenation certifies one
    # chain per distinct evaluation in the closure, the tree's own among
    # them, each exactly once (trees of up to 4 leaves); a tree with one
    # evaluation needs no call
    calls = []
    check = P.magma._convertible

    def spy(m, start, chains):
        calls.append((start, [value for value, _ in chains]))
        return check(m, start, chains)

    monkeypatch.setattr(P.magma, "_convertible", spy)
    differ = 0
    for m, trees in certificate_cases:
        for t in trees:
            if len(P.leaf_labels(t)) > 4:
                continue
            calls.clear()
            assert P.verify_rotation_invariance(m, t)
            values = {star_fold(m, s) for s in brute_rotation_closure(t)}
            if len(values) == 1:
                assert calls == []
                continue
            [(start, got)] = calls
            assert start == sum(P.leaf_labels(t), ())
            assert sorted(got) == sorted(values)
            differ += len(values) - 1
    assert differ > 0


def test_each_chain_is_checked_once(letters3, monkeypatch):
    # _steps runs once per step of each chain built, on the word that
    # step starts from: no chain is replayed twice
    t = left_comb(letters3, "abcabc")
    start = sum(P.leaf_labels(t), ())
    built, stepped = [], []
    chain, steps = P.magma._chain, P.magma._steps

    def chain_spy(m, shape, labels):
        built.append(chain(m, shape, labels))
        return built[-1]

    def steps_spy(m, w):
        stepped.append(w)
        return steps(m, w)

    monkeypatch.setattr(P.magma, "_chain", chain_spy)
    monkeypatch.setattr(P.magma, "_steps", steps_spy)
    assert P.verify_rotation_invariance(letters3, t)
    assert len(built) >= 3  # one chain per distinct evaluation, three at least
    assert len({value for value, _ in built}) == len(built)
    assert len(stepped) == sum(len(s) for _, s in built)
    assert sorted(stepped) == sorted(p for _, s in built for p in replay(start, s)[:-1])


def test_certificates_refuse_broken_chains(letters3, pentagon):
    start = sum(P.leaf_labels(pentagon), ())
    down = tree_chain(letters3, pentagon)
    up = tree_chain(letters3, P.right_comb(pentagon))
    (u, steps), (v, _) = down, up

    def certifies(*chains, start=start):
        return P.magma._convertible(letters3, start, list(chains))

    assert u != v and certifies(down, up)
    # a chain with a step dropped, moved one position or contracting to
    # another letter, chains from another start, or a chain ending at a
    # word other than its evaluation certifies nothing, and raises nothing
    assert len(steps) > 1
    for k, (i, z) in enumerate(steps):
        other = next(c for c in letters3.non_identity() if c != z)
        assert not certifies((u, steps[:k] + steps[k + 1:]), up)
        for broken in ((i - 1, z), (i + 1, z), (i, other)):
            assert not certifies((u, steps[:k] + [broken] + steps[k + 1:]), up)
    for wrong in (start[1:], start[:-1], start + start[:1], start[::-1]):
        assert not certifies(down, up, start=wrong)
    for wrong in (v, u + v, u[1:]):
        assert not certifies((wrong, steps), up)
    assert not certifies(down, (u, up[1]))


def test_certificates_check_the_chart_evaluations(letters3, monkeypatch):
    # a chart that reports a wrong evaluation fails the certificate: each
    # witness's chain must end at the evaluation the chart gives for it
    t = P.parse_tree(letters3, "((a b) a)")
    ab_a, wrong = wrd(letters3, "ab a"), wrd(letters3, "abc")
    evaluations = P.magma._evaluations

    def wrong_chart(m, shape, labels):
        found = evaluations(m, shape, labels)
        assert sorted(found) == sorted([ab_a, wrd(m, "a ba")])
        return {wrong if v == ab_a else v: s for v, s in found.items()}

    assert P.verify_rotation_invariance(letters3, t)
    monkeypatch.setattr(P.magma, "_evaluations", wrong_chart)
    assert not P.verify_rotation_invariance(letters3, t)


# ------------------------------------------------------------------ text form

def test_format_tree(ex2, letters3, pentagon):
    t = P.parse_tree(ex2, "((x y) z)")
    assert P.format_tree(ex2, t) == "((x y) z)"
    assert P.format_tree(letters3, pentagon) == "(((a b) c) a)"
    assert P.format_tree(ex2, P.Leaf(())) == "eps"
    assert P.format_tree(letters3, P.Leaf(wrd(letters3, "ab a"))) == "ab·a"


def test_parse_tree_round_trip(ex2):
    for text in ("x", "(x y)", "((x y) z)", "(x (y z))", "((x x) (y z))"):
        t = P.parse_tree(ex2, text)
        assert P.format_tree(ex2, t) == text


def test_parse_tree_errors(ex2):
    with pytest.raises(ValueError, match="unexpected end"):
        P.parse_tree(ex2, "(x")
    with pytest.raises(ValueError, match="expected '\\)'"):
        P.parse_tree(ex2, "(x y z)")
    with pytest.raises(ValueError, match="unexpected '\\)'"):
        P.parse_tree(ex2, ")")
    with pytest.raises(ValueError, match="trailing input"):
        P.parse_tree(ex2, "(x y) z")
    with pytest.raises(ValueError, match="unknown element name"):
        P.parse_tree(ex2, "(x q)")
    with pytest.raises(ValueError, match="unexpected end"):
        P.parse_tree(ex2, "")


def test_parse_tree_depth_bound(ex2):
    depth = P.magma.MAX_TREE_DEPTH
    text = "(" * depth + "x" + " x)" * depth
    t = P.parse_tree(ex2, text)
    assert P.format_tree(ex2, t) == text
    assert len(P.leaf_labels(t)) == depth + 1
    assert P.evaluate(ex2, t) == wrd(ex2, " ".join(["x"] * (depth + 1)))
    # one bracket more is refused before any parsing, unbalanced or not
    for deeper in ("(" * (depth + 1) + "x" + " x)" * (depth + 1), "(" * (depth + 1)):
        with pytest.raises(ValueError, match=f"deeper than {depth} brackets"):
            P.parse_tree(ex2, deeper)


def test_parse_tree_leaf_bound(ex2):
    # the right comb of a tree is one level deep per leaf, so the leaf
    # count is bounded too, even when the bracketing is shallow
    depth = P.magma.MAX_TREE_DEPTH
    t = P.parse_tree(ex2, "(x " * depth + "x" + ")" * depth)
    assert len(P.leaf_labels(P.right_comb(t))) == depth + 1
    balanced = "x"
    while balanced.count("x") <= depth + 1:
        balanced = f"({balanced} {balanced})"
    for wide in (balanced, "x " * (depth + 2)):
        with pytest.raises(ValueError, match=f"more than {depth + 1} leaves"):
            P.parse_tree(ex2, wide)


def test_trees_are_hashable_values(ex2):
    x = wrd(ex2, "x")
    assert P.Leaf(x) == P.Leaf(x)
    assert len({P.Node(P.Leaf(x), P.Leaf(x)), P.Node(P.Leaf(x), P.Leaf(x))}) == 1
    # a leaf is never a node, whatever the labels
    assert P.Leaf(x) != P.Node(P.Leaf(x), P.Leaf(x))
    assert P.Leaf(x + x) != P.Node(P.Leaf(x), P.Leaf(x))
    assert len({P.Leaf(x), P.Node(P.Leaf(x), P.Leaf(x))}) == 2
