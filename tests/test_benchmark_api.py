"""The library surface the benchmark in perfbench/ reads.

perfbench/ changes only together with the benchmark itself, so a library
change that drops or renames a name or attribute it uses shows here,
on two small fixtures, rather than as a failed benchmark run, and
one tiny pass of each workload checks its known answers.
"""

import ast
import importlib
import types
from pathlib import Path

import parmon as P
from conftest import wrd

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"


def test_benchmark_imports_resolve(ex2, letters3):
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "parmon"
             for alias in node.names]
    assert "associativity_search" in names
    importlib.import_module("parmon.cli")  # the one submodule it imports
    found = {n: getattr(P, n, None) for n in names}
    assert [n for n, obj in found.items() if obj is None] == []
    # a function dropped from the exports leaves its submodule's name behind
    assert [n for n, obj in found.items()
            if isinstance(obj, types.ModuleType)] == ["cli"]
    # the attributes the workloads and their reference answers read
    for m, size, first in ((ex2, 4, None), (letters3, 16, ("a", "b", "a", "ab", "ba"))):
        assert m.size == size
        assert P.validate(m).valid
        report = P.associativity_search(m, 1)
        assert report.associative == (first is None)
        witnesses = list(P.is_confluent(m).a0_witnesses)
        if first is None:
            assert (report.counterexamples, report.counterexample, witnesses) == ((), None, [])
        else:
            a, b, _, ab, ba = (wrd(m, n) for n in first)
            assert report.counterexample.u == a
            assert tuple(report.counterexample) == (a, b, a, ab + a, a + ba)
            assert witnesses[0] == tuple(w[0] for w in (a, b, a, ab, ba))
            assert len(witnesses) == 48
            assert len(P.associativity_search(m, 1, find_all=True).counterexamples) == 48
            assert m.mul(a[0], b[0]) == ab[0] and m.mul(ab[0], ab[0]) is None
    assert ex2.mul(*wrd(ex2, "x y")) == wrd(ex2, "x")[0]
    assert P.is_catenary(ex2) == (False, tuple(wrd(ex2, "x y z")))
    assert P.is_catenary(letters3) == (False, tuple(wrd(letters3, "a b a")))
    du2 = P.gen_disjoint_union_monoid(2, cap=2)
    assert (du2.size, P.validate(du2).valid) == (4, True)
    assert len(P.is_confluent(du2).a0_witnesses) == 2


def test_benchmark_tiny_pass_is_correct(tmp_path, monkeypatch):
    # one in-process pass of each workload against its known answers, so
    # a change the import check cannot see, like a field becoming a
    # property, still shows; then one traced pass, whose probes are the
    # benchmark's only calls to convertible_bounded, rotation_closure,
    # evaluate, leaf_labels and star
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import NullTracer, Tracer
    from workloads import SCALES, WORKLOADS
    for name, workload in WORKLOADS.items():
        for tr in (NullTracer(), Tracer()):
            workdir = tmp_path / f"{name}-{type(tr).__name__}"
            workdir.mkdir()
            job = workload(3, SCALES["tiny"], tr, workdir)
            result = job.run(tr)
            assert result["attempted"] >= 1, name
            assert result["failed"] == 0, name
        counters, _ = job.counters(tr)
        if name == "star-algebra":
            assert counters["rewriting.convertible_bounded.found_ratio"] == 1.0
