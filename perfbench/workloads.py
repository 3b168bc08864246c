"""The four workloads: inputs from a seed, one timed pass, known-answer checks.

Every workload times two parts of its pass, ``part_a_s`` and
``part_b_s``, so that a change which speeds one part and slows the
other shows on one of them:

    carrier-scan  a: time to verdict on the sparse tables (du6, letters4, du7)
                  b: time to verdict on the dense cyclic group
    word-stream   a: lstd on every word       b: normal_forms on every word
    star-algebra  a: associativity searches   b: conversion searches
    random-pool   a: random-check's sequence on the tables that are not
                     confluent, where the searches stop at a first failure
                  b: the same on the confluent tables, searched in full

Each workload's constructor makes the inputs from the seed; ``run``
does one pass and returns part_a_s, part_b_s, attempted, failed and
``named``, the workload's own metrics (letters per second and the like)
computed from the same pass.  After a traced pass ``counters`` returns
the per-layer work counts, and the per-layer metrics the workload cannot
measure with the reason.  The package receives only generated inputs;
the known answers come from ``reference`` or from the mathematics (see
README.md).
"""

from __future__ import annotations

import io
import itertools
import json
import random
import statistics
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

from parmon import (Leaf, Node, PartialMonoid, assoc_modulo_congruence,
                    associativity_search, cli, convertible_bounded,
                    enumerate_irreducible, evaluate, gen_disjoint_union_monoid,
                    gen_no_common_letters_monoid, is_catenary, is_confluent,
                    leaf_labels, lstd, newman_check, normal_forms,
                    parse_monoid, random_monoid, rotation_closure,
                    serialize_monoid, star, validate,
                    verify_rotation_invariance)

import reference
from clock import Clock

EX2_TEXT = """\
elements: 1 x y z
identity: 1
x y = x
y y = y
y z = z
"""

# Sizes of one pass.  "tiny" keeps every code path and known answer and
# runs in about a second; the smoke test uses it.  Carrier tables are
# named as _table builds them; the cyclic groups are the confluent ones.
# The dense group is checked twice, in two seeded element orders, because
# one verdict of about a second, timed between two calibrations, spreads
# more between runs than the bound allows.
SCALES = {
    "full": {
        "carriers": ("du6", "letters4", "du7", "cyc48", "cyc48"),
        "short_words": 6000, "long_words": 375, "nf_words": 5000,
        "assoc": (("letters4", 1, 1020), ("ex2", 3, 0)),
        "tree_labelings": 48,
        "pool": 240,
    },
    "tiny": {
        "carriers": ("du3", "letters2", "du4", "cyc8", "cyc8"),
        "short_words": 40, "long_words": 4, "nf_words": 40,
        "assoc": (("letters3", 1, 48), ("ex2", 2, 0)),
        "tree_labelings": 1,
        "pool": 100,
    },
}

SHORT_LEN, LONG_LEN, NF_LEN = 64, 1024, 8
TREE_LEAVES = 6
CONGRUENCE_LEN = 1  # assoc_modulo_congruence(letters3, 1): 4,096 conversion searches
REFERENCE_SAMPLE = (24, 2)  # short and long words per table checked against the reference

# Work per clock chunk (see clock.py): about a tenth of a second each.
CHUNK_LETTERS, CHUNK_NF_WORDS, CHUNK_TREES, CHUNK_TABLES = 200_000, 1000, 252, 12


def _chunks(items: list, size: int) -> list:
    return [items[i:i + size] for i in range(0, len(items), size)]


def _result(clock: Clock, attempted: int, failed: int, named: dict) -> dict:
    return {"part_a_s": clock.ref["a"], "part_b_s": clock.ref["b"],
            "wall_a_s": clock.wall["a"], "wall_b_s": clock.wall["b"],
            "attempted": attempted, "failed": failed, "named": named}


def _table(tr, name: str) -> PartialMonoid:
    """ex2, letters<k> (distinct-letter words over k letters),
    du<k> (disjoint unions of subsets of k points) or cyc<n>."""
    if name == "ex2":
        return tr.wrap("monoid.parse_monoid", parse_monoid)(EX2_TEXT)
    if name.startswith("letters"):
        return tr.wrap("monoid.gen_no_common_letters_monoid",
                       gen_no_common_letters_monoid)("abcd"[:int(name[7:])])
    if name.startswith("du"):
        k = int(name[2:])
        return tr.wrap("monoid.gen_disjoint_union_monoid",
                       gen_disjoint_union_monoid)(k, cap=k)
    n = int(name[3:])
    products = {(i, j): (i + j) % n for i in range(n) for j in range(n)}
    return tr.wrap("monoid.PartialMonoid", PartialMonoid)(
        [f"g{i}" for i in range(n)], 0, products)


def _relabel(tr, m: PartialMonoid, rng: random.Random) -> PartialMonoid:
    """The same table with its elements stored in a seeded random order."""
    perm = list(range(m.size))
    rng.shuffle(perm)
    names = [""] * m.size
    for i, p in enumerate(perm):
        names[p] = m.elements[i]
    products = {(perm[x], perm[y]): perm[z] for x, y, z in m.products}
    return tr.wrap("monoid.PartialMonoid", PartialMonoid)(
        names, perm[m.identity], products)


def _renamed_text(text: str) -> str:
    """Serialized table with every element name suffixed.

    Index order and products stay the same, so every layer does the same
    work, but the table hashes differently and misses parmon's caches.
    """
    out = []
    for line in text.splitlines():
        tokens = line.split()
        out.append(" ".join(t if t in ("elements:", "identity:", "=") else t + "_p"
                            for t in tokens))
    return "\n".join(out) + "\n"


def _cache_info(fn):
    """lru_cache statistics, or None when the function has no such cache."""
    info = getattr(fn, "cache_info", None)
    return info() if info is not None else None


def _cache_counters(counters: dict, absent: dict) -> None:
    for fn, prefix, keys in ((lstd, "rewriting.lstd", ("hits", "misses", "size")),
                             (normal_forms, "rewriting.normal_forms", ("size",))):
        info = _cache_info(fn)
        for key in keys:
            name = f"{prefix}.cache_{key}"
            if info is None:
                absent[name] = "the function no longer has cache_info()"
            else:
                counters[name] = info.currsize if key == "size" else getattr(info, key)


# ------------------------------------------------------------------ carrier-scan

class CarrierScan:
    """cli confluence --oracle --json on big serialized tables."""

    LAYERS = ("monoid.parse_monoid", "monoid.validate",
              "confluence.is_confluent", "confluence.newman_check")

    def __init__(self, seed: int, scale: dict, tr, workdir: Path):
        rng = random.Random(f"carrier-scan:{seed}")
        serialize = tr.wrap("monoid.serialize_monoid", serialize_monoid)
        self.tables = []  # (label, path, confluent, renamed text, size)
        for i, name in enumerate(scale["carriers"]):
            label = f"{i}-{name}"
            m = _relabel(tr, _table(tr, name), rng)
            text = serialize(m)
            path = workdir / f"{label}.monoid"
            path.write_text(text, encoding="utf-8")
            renamed = _renamed_text(text) if tr.on else None
            self.tables.append((label, str(path), name.startswith("cyc"), renamed, m.size))
        self.forks = {}

    def run(self, tr) -> dict:
        main = tr.wrap("cli.main", cli.main)
        clock = Clock()
        outputs = {}
        for label, path, confluent, renamed, _ in self.tables:
            tr.item = label
            buf = io.StringIO()
            t = perf_counter()
            try:
                with redirect_stdout(buf):
                    rc = main(["confluence", path, "--oracle", "--json"])
                outputs[label] = (rc, buf.getvalue())
            except Exception as exc:  # counted as a failed operation
                outputs[label] = (None, repr(exc))
            clock.add("b" if confluent else "a", perf_counter() - t)
            clock.checkpoint()
            if tr.on:
                self._probe(tr, label, renamed)
        failed = sum(not self._correct(outputs[label], confluent)
                     for label, _, confluent, _, _ in self.tables)
        dense = sum(t[2] for t in self.tables)
        return _result(clock, len(self.tables), failed,
                       {"verdict_s.sparse": clock.ref["a"],
                        "verdict_s.dense": clock.ref["b"] / dense})

    @staticmethod
    def _correct(output, confluent: bool) -> bool:
        """Exit code, verdict and oracle agreement match the known answer."""
        rc, text = output
        if rc != (0 if confluent else 3):
            return False
        try:
            verdict = json.loads(text)
        except ValueError:
            return False
        return verdict.get("confluent") is confluent and verdict.get("oracle_agrees") is True

    def _probe(self, tr, label, renamed) -> None:
        """The layers cli.main runs, called directly on a cache-cold copy."""
        with tr.probing():
            m = tr.wrap("monoid.parse_monoid", parse_monoid)(renamed)
            tr.wrap("monoid.validate", validate)(m)
            verdict = tr.wrap("confluence.is_confluent", is_confluent)(m)
            tr.wrap("confluence.newman_check", newman_check)(m)
        self.forks[label] = (reference.fork_count(m), len(verdict.a0_witnesses),
                             reference.critical_pair_count(m))

    def counters(self, tr) -> tuple[dict, dict]:
        cli_s = tr.seconds_by_item("cli.main", probe=False)
        layer_s = Counter()
        for name in self.LAYERS:
            layer_s.update(tr.seconds_by_item(name, probe=True))
        counters = {
            "cli.main.self_s": sum(cli_s[k] - layer_s[k] for k in cli_s),
            "monoid.validate.triples": sum(t[4] ** 3 for t in self.tables),
            "confluence.forks": sum(f[0] for f in self.forks.values()),
            "confluence.forks.A0": sum(f[1] for f in self.forks.values()),
            "confluence.critical_pairs": sum(f[2] for f in self.forks.values()),
        }
        absent = {}
        _cache_counters(counters, absent)
        return counters, absent


# ------------------------------------------------------------------ word-stream

class WordStream:
    """lstd and normal_forms on distinct seeded random words."""

    def __init__(self, seed: int, scale: dict, tr, workdir: Path):
        rng = random.Random(f"word-stream:{seed}")
        tables = {name: _table(tr, name) for name in ("ex2", "letters3", "letters4")}
        self.lstd_words = []  # (table, word)
        self.sample = []      # indices into lstd_words checked against the reference
        for m in tables.values():
            for length, count, checked in ((SHORT_LEN, scale["short_words"], REFERENCE_SAMPLE[0]),
                                           (LONG_LEN, scale["long_words"], REFERENCE_SAMPLE[1])):
                start = len(self.lstd_words)
                self.lstd_words += [(m, w) for w in _distinct_words(rng, m.size, length, count)]
                self.sample += rng.sample(range(start, len(self.lstd_words)), min(checked, count))
        self.nf_words = []
        for name in ("ex2", "letters3"):
            m = tables[name]
            self.nf_words += [(m, w) for w in
                              _distinct_words(rng, m.size, NF_LEN, scale["nf_words"])]
        self.letters = sum(len(w) for _, w in self.lstd_words)
        self.lstd_chunks, chunk, letters = [], [], 0
        for m, w in self.lstd_words:
            chunk.append((m, w))
            letters += len(w)
            if letters >= CHUNK_LETTERS:
                self.lstd_chunks.append(chunk)
                chunk, letters = [], 0
        if chunk:
            self.lstd_chunks.append(chunk)
        self.nf_chunks = _chunks(self.nf_words, CHUNK_NF_WORDS)

    def run(self, tr) -> dict:
        lstd_ = tr.wrap("rewriting.lstd", lstd)
        nf_ = tr.wrap("rewriting.normal_forms", normal_forms)
        clock = Clock()
        failed = 0
        results = []
        for chunk in self.lstd_chunks:
            t = perf_counter()
            for m, w in chunk:
                tr.item = len(results)
                try:
                    results.append(lstd_(m, w))
                except Exception:  # counted as a failed operation
                    results.append(None)
            clock.add("a", perf_counter() - t)
            clock.checkpoint()
        info = _cache_info(lstd)
        if info is not None and info.hits:
            failed += 1  # every word is distinct, so a hit means a wrong cache key
        forms = []
        for chunk in self.nf_chunks:
            t = perf_counter()
            for m, w in chunk:
                tr.item = len(forms)
                try:
                    forms.append(nf_(m, w))
                except Exception:  # counted as a failed operation
                    forms.append(frozenset())
            clock.add("b", perf_counter() - t)
            clock.checkpoint()
        self.forms = sum(len(f) for f in forms)
        failed += results.count(None)

        for i in self.sample:
            m, w = self.lstd_words[i]
            failed += results[i] is not None and results[i] != reference.lstd(m, w)
        for (m, w), f in zip(self.nf_words, forms):
            failed += not (reference.lstd(m, w) in f
                           and all(reference.is_irreducible(m, v) for v in f))
        return _result(clock, len(self.lstd_words) + len(self.nf_words), failed,
                       {"lstd_letters_per_s": self.letters / clock.ref["a"],
                        "nf_words_per_s": len(self.nf_words) / clock.ref["b"]})

    def counters(self, tr) -> tuple[dict, dict]:
        counters = {"rewriting.lstd.letters": self.letters,
                    "rewriting.normal_forms.forms": self.forms}
        absent = {}
        _cache_counters(counters, absent)
        return counters, absent


def _distinct_words(rng: random.Random, size: int, length: int, count: int) -> list:
    """count distinct uniform random words, the identity letter included."""
    seen, out = set(), []
    letters = range(size)
    while len(out) < count:
        w = tuple(rng.choices(letters, k=length))
        if w not in seen:
            seen.add(w)
            out.append(w)
    return out


# ------------------------------------------------------------------ star-algebra

def _shapes(leaves: int) -> list:
    """Every binary bracketing of the given number of leaves (None = leaf)."""
    if leaves == 1:
        return [None]
    return [(a, b) for k in range(1, leaves)
            for a in _shapes(k) for b in _shapes(leaves - k)]


class StarAlgebra:
    """Long associativity and conversion searches on a few small tables."""

    def __init__(self, seed: int, scale: dict, tr, workdir: Path):
        rng = random.Random(f"star-algebra:{seed}")
        names = {name for name, _, _ in scale["assoc"]} | {"letters3"}
        self.tables = {name: _table(tr, name) for name in sorted(names)}
        self.searches = scale["assoc"]
        l3 = self.tables["letters3"]
        letters = [l3.elements.index(c) for c in "abc"]

        def build(shape):
            if shape is None:
                return Leaf((rng.choice(letters),))
            return Node(build(shape[0]), build(shape[1]))
        self.trees = [build(s) for _ in range(scale["tree_labelings"])
                      for s in _shapes(TREE_LEAVES)]

    def run(self, tr) -> dict:
        search = tr.wrap("star.associativity_search", associativity_search)
        congruence = tr.wrap("star.assoc_modulo_congruence", assoc_modulo_congruence)
        invariant = tr.wrap("magma.verify_rotation_invariance", verify_rotation_invariance)
        l3 = self.tables["letters3"]
        clock = Clock()
        reports = []
        for name, max_len, _ in self.searches:
            tr.item = name
            t = perf_counter()
            try:
                reports.append(search(self.tables[name], max_len, find_all=True))
            except Exception:  # counted as a failed operation
                reports.append(None)
            clock.add("a", perf_counter() - t)
            clock.checkpoint()
        tr.item = "letters3"
        t = perf_counter()
        try:
            found = congruence(l3, CONGRUENCE_LEN)
        except Exception:  # counted as a failed operation
            found = None
        clock.add("b", perf_counter() - t)
        clock.checkpoint()
        rotations = []
        for chunk in _chunks(self.trees, CHUNK_TREES):
            t = perf_counter()
            for tree in chunk:
                tr.item = len(rotations)
                try:
                    rotations.append(invariant(l3, tree))
                except Exception:  # counted as a failed operation
                    rotations.append(False)
            clock.add("b", perf_counter() - t)
            clock.checkpoint()

        failed = sum(report is None or len(report.counterexamples) != expected
                     for (_, _, expected), report in zip(self.searches, reports))
        failed += found is None or not all(found.values())
        failed += rotations.count(False)
        self.counterexamples = sum(len(r.counterexamples) for r in reports if r)
        self._probe(tr)
        return _result(clock, len(self.searches) + 1 + len(self.trees), failed,
                       {"triples_per_s": self.triples / clock.ref["a"],
                        "conversions_per_s": self.calls / clock.ref["b"]})

    def _probe(self, tr) -> None:
        """Size the pass's work, and when tracing, time each inner layer.

        The searches' word lists and the trees' rotation closures give
        the triples and conversions the pass did.  A traced pass also
        re-runs the conversion searches call by call.
        """
        enum = tr.wrap("words.enumerate_irreducible", enumerate_irreducible)
        closure = tr.wrap("magma.rotation_closure", rotation_closure)
        star_ = tr.wrap("star.star", star)
        convert = tr.wrap("rewriting.convertible_bounded", convertible_bounded)
        evaluate_ = tr.wrap("magma.evaluate", evaluate)
        labels = tr.wrap("magma.leaf_labels", leaf_labels)
        l3 = self.tables["letters3"]
        self.words = self.triples = self.paths = 0
        with tr.probing():
            for name, max_len, _ in self.searches:
                tr.item = name
                n = len(enum(self.tables[name], max_len))
                self.words += n
                self.triples += n ** 3
            tr.item = "letters3"
            irr = enum(l3, CONGRUENCE_LEN)
            self.words += len(irr)
            if not tr.on:
                # Rotation moves leaves without looking at labels, so a
                # closure's size depends only on the tree's shape; the
                # trees cycle through every shape once per labelling.
                shapes = len(_shapes(TREE_LEAVES))
                per_labelling = sum(len(closure(t)) for t in self.trees[:shapes])
                self.trees_seen = per_labelling * len(self.trees) // shapes
                self.calls = len(irr) ** 3 + self.trees_seen
                return
            closures = []
            for i, tree in enumerate(self.trees):
                tr.item = i
                closures.append(closure(tree))
            self.trees_seen = sum(map(len, closures))
            self.calls = len(irr) ** 3 + self.trees_seen
            tr.item = "letters3"
            for u, v, w in itertools.product(irr, repeat=3):
                left = star_(l3, star_(l3, u, v), w)
                right = star_(l3, u, star_(l3, v, w))
                self.paths += convert(l3, left, right, len(u) + len(v) + len(w)) is not None
            for i, (tree, others) in enumerate(zip(self.trees, closures)):
                tr.item = i
                cap = sum(len(label) for label in labels(tree))
                base = evaluate_(l3, tree)
                for other in others:
                    self.paths += convert(l3, base, evaluate_(l3, other), cap) is not None

    def counters(self, tr) -> tuple[dict, dict]:
        counters = {
            "words.enumerate_irreducible.words": self.words,
            "star.associativity_search.triples": self.triples,
            "star.associativity_search.counterexamples": self.counterexamples,
            "rewriting.convertible_bounded.calls": self.calls,
            "rewriting.convertible_bounded.found_ratio": self.paths / self.calls,
            "magma.rotation_closure.trees": self.trees_seen,
        }
        absent = {"rewriting.lstd.s": "lstd runs only inside star; "
                                      "in-package spans are not recorded yet"}
        _cache_counters(counters, absent)
        return counters, absent


# ------------------------------------------------------------------ random-pool

def _signature(m: PartialMonoid) -> tuple:
    """(confluent, carrier size, irreducible words up to length 2).

    The last entry fixes the triples a full associativity search at
    max_len 2 scans, which dominates the time spent on a table.
    """
    n = m.size
    irreducible = 1 + (n - 1) + (n - 1) ** 2 - reference.defined_pairs_away_from_identity(m)
    return reference.is_confluent(m), n, irreducible


def _pool_quota(size: int, draw) -> Counter:
    """Signatures of a fixed reference draw, common ones only.

    A few heavy tables dominate a pool's time, so an unstratified pool's
    time depends on the seed far more than on the program.  Every pool
    therefore holds the same number of tables of each common signature;
    signatures seen fewer than three times per pool are left out.
    """
    rng = random.Random("random-pool:reference")
    seen = Counter(_signature(draw(rng, 8)) for _ in range(2 * size))
    return Counter({sig: round(count / 2) for sig, count in seen.items() if count >= 6})


class RandomPool:
    """random-check's sequence on many tiny random tables."""

    MAX_DRAWS = 200_000

    def __init__(self, seed: int, scale: dict, tr, workdir: Path):
        rng = random.Random(f"random-pool:{seed}")
        draw = tr.wrap("monoid.random_monoid", random_monoid)
        need = _pool_quota(scale["pool"], draw)
        self.tables = []  # (table, confluent)
        for _ in range(self.MAX_DRAWS):
            if not +need:
                break
            m = draw(rng, 8)
            sig = _signature(m)
            if need[sig] > 0:
                need[sig] -= 1
                self.tables.append((m, sig[0]))
        else:
            raise RuntimeError("random_monoid did not fill the pool's quota")

    def run(self, tr) -> dict:
        calls = [tr.wrap(name, fn) for name, fn in (
            ("monoid.validate", validate), ("confluence.is_confluent", is_confluent),
            ("confluence.newman_check", newman_check), ("monoid.is_catenary", is_catenary),
            ("star.associativity_search", associativity_search))]
        validate_, confluent_, newman_, catenary_, search_ = calls
        clock = Clock()
        outcomes, latencies = [], []
        for chunk in _chunks(self.tables, CHUNK_TABLES):
            for m, confluent in chunk:
                tr.item = len(outcomes)
                t = perf_counter()
                try:
                    with tr.span("pool.table"):
                        valid = validate_(m).valid
                        verdict = confluent_(m)
                        newman = newman_(m)
                        catenary, _ = catenary_(m)
                        report = search_(m, 2)
                    outcomes.append((valid, verdict, newman, catenary, report))
                except Exception:  # counted as a failed operation
                    outcomes.append(None)
                latencies.append(perf_counter() - t)
                clock.add("b" if confluent else "a", latencies[-1])
            clock.checkpoint()
        failed = sum(not self._agrees(o, expected)
                     for o, (_, expected) in zip(outcomes, self.tables))
        self.outcomes = outcomes
        named = {}
        if len(latencies) >= 20:  # p95 needs at least one sample beyond it
            # latencies are wall times; scale them like the parts
            scale = (clock.ref["a"] + clock.ref["b"]) / (clock.wall["a"] + clock.wall["b"])
            cuts = statistics.quantiles(latencies, n=20)
            named = {"tables_per_s": len(latencies) / (clock.ref["a"] + clock.ref["b"]),
                     "verdict_p50_ms": statistics.median(latencies) * scale * 1e3,
                     "verdict_p95_ms": cuts[-1] * scale * 1e3}
        if tr.on:
            self._probe(tr)
        return _result(clock, len(self.tables), failed, named)

    @staticmethod
    def _agrees(outcome, expected: bool) -> bool:
        """random-check's agreement checks, plus the reference verdict."""
        if outcome is None:
            return False
        valid, verdict, newman, catenary, report = outcome
        return (valid and newman == verdict.confluent == expected
                and (verdict.confluent or not catenary)
                and report.associative == verdict.confluent)

    def _probe(self, tr) -> None:
        enum = tr.wrap("words.enumerate_irreducible", enumerate_irreducible)
        self.words = self.scanned = 0
        with tr.probing():
            for i, (m, _) in enumerate(self.tables):
                tr.item = i
                irr = enum(m, 2)
                self.words += len(irr)
                ce = self.outcomes[i][4].counterexample if self.outcomes[i] else None
                if ce is None:
                    self.scanned += len(irr) ** 3
                else:
                    pos = {w: k for k, w in enumerate(irr)}
                    self.scanned += (pos[ce.u] * len(irr) + pos[ce.v]) * len(irr) + pos[ce.w] + 1

    def counters(self, tr) -> tuple[dict, dict]:
        forks = [reference.fork_count(m) for m, _ in self.tables]
        counters = {
            "monoid.validate.triples": sum(m.size ** 3 for m, _ in self.tables),
            "confluence.forks": sum(forks),
            "confluence.forks.A0": sum(len(o[1].a0_witnesses) for o in self.outcomes if o),
            "confluence.critical_pairs": sum(reference.critical_pair_count(m)
                                             for m, _ in self.tables),
            "words.enumerate_irreducible.words": self.words,
            "star.associativity_search.triples": self.scanned,
            "star.associativity_search.counterexamples":
                sum(len(o[4].counterexamples) for o in self.outcomes if o),
        }
        absent = {"rewriting.lstd.s": "lstd runs only inside star; "
                                      "in-package spans are not recorded yet"}
        _cache_counters(counters, absent)
        return counters, absent


WORKLOADS = {
    "carrier-scan": CarrierScan,
    "word-stream": WordStream,
    "star-algebra": StarAlgebra,
    "random-pool": RandomPool,
}
