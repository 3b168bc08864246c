#!/usr/bin/env python3
"""Walk through both bundled fixtures and show the package's main claims.

A narrated demo: validation, the fork classification, confluence either
way, left standard normal forms, the star product and where its
associativity breaks, and tree evaluation under rotation.
"""

from pathlib import Path

import parmon as P

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def banner(title: str) -> None:
    print()
    print(title)
    print("-" * len(title))


def word(m, text):
    return P.parse_word(m, text)


def show(m, w):
    return P.format_word(m, w)


def tour_monoid(name: str, m: P.PartialMonoid) -> None:
    banner(f"{name}: {m.size} elements, "
           f"{sum(1 for x, y, _ in m.products if m.identity not in (x, y))} "
           f"products away from the identity")

    report = P.validate(m)
    print(f"chain law: {'holds' if report.valid else 'fails'}")

    catenary, witness = P.is_catenary(m)
    if catenary:
        print("catenary: yes (definedness chains through non-identity middles)")
    else:
        x, y, z = (m.name(i) for i in witness)
        print(f"catenary: no, witness ({x}, {y}, {z})")

    triples = P.essential_critical_pairs(m)
    counts = {"A0": 0, "A1": 0, "B": 0}
    for t in triples:
        counts[t.kind.value] += 1
    print(f"essential forks: {len(triples)} "
          f"(A0={counts['A0']} A1={counts['A1']} B={counts['B']})")

    verdict = P.is_confluent(m)
    oracle = P.newman_check(m)
    print(f"confluent: {'yes' if verdict.confluent else 'no'}; "
          f"critical-pair oracle says {'yes' if oracle else 'no'}")
    if verdict.a0_witnesses:
        t = verdict.a0_witnesses[0]
        u, v = t.pair
        print(f"  first A0 fork ({m.name(t.x)}, {m.name(t.y)}, {m.name(t.z)}) "
              f"splits into {show(m, u)} and {show(m, v)}")
        print(f"  normal forms of the fork word: "
              + ", ".join(sorted(show(m, f) for f in
                                 P.normal_forms(m, (t.x, t.y, t.z)))))


def main() -> int:
    ex2 = P.parse_monoid((FIXTURES / "ex2.monoid").read_text())
    letters3 = P.parse_monoid((FIXTURES / "letters3.monoid").read_text())

    tour_monoid("ex2", ex2)

    banner("left standard reduction on ex2")
    w = word(ex2, "x 1 y z")
    trace = P.lstd_trace(ex2, w)
    for step in trace.steps:
        print(f"  {show(ex2, step.source)}  --[{step.rule} @ {step.position}]-->")
    print(f"  {show(ex2, trace.result)}")

    tour_monoid("letters3", letters3)

    banner("star associativity on letters3")
    report = P.associativity_search(letters3, 1)
    c = report.counterexample
    print(f"first failing triple: ({show(letters3, c.u)}, {show(letters3, c.v)}, "
          f"{show(letters3, c.w)})")
    print(f"  (u*v)*w = {show(letters3, c.left)}")
    print(f"  u*(v*w) = {show(letters3, c.right)}")
    path = P.convertible_bounded(letters3, c.left, c.right)
    print("  still interconvertible: "
          + "  <->  ".join(show(letters3, s) for s in path))

    banner("tree evaluation under rotation (letters3)")
    t = P.parse_tree(letters3, "(((a b) c) a)")
    print(f"tree {P.format_tree(letters3, t)} has rank {P.rank(t)}; "
          f"its rotation closure has {len(P.rotation_closure(t))} members")
    for s in sorted(P.rotation_closure(t),
                    key=lambda s: (P.rank(s), P.format_tree(letters3, s)),
                    reverse=True):
        print(f"  rank {P.rank(s)}  {P.format_tree(letters3, s):22}  "
              f"evaluates to {show(letters3, P.evaluate(letters3, s))}")
    print(f"all evaluations interconvertible: "
          f"{P.verify_rotation_invariance(letters3, t)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
