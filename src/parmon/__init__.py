"""Finite partial monoids, their rewriting systems, and normal form algebra."""

from .confluence import (ConfluenceVerdict, essential_critical_pairs,
                         is_catenary, is_confluent, newman_check, normal_forms)
from .magma import (Leaf, Node, Tree, evaluate, format_tree, leaf_labels,
                    parse_tree, rank, right_comb, rotation_closure, rotations,
                    verify_rotation_invariance)
from .monoid import (ParseError, PartialMonoid, ValidationReport,
                     gen_disjoint_union_monoid, gen_no_common_letters_monoid,
                     parse_monoid, random_monoid, serialize_monoid, validate)
from .rewriting import convertible_bounded, lstd, lstd_trace
from .star import (AssocCounterexample, AssocReport, assoc_modulo_congruence,
                   associativity_search, star)
from .words import (EMPTY, Word, enumerate_irreducible, format_word,
                    is_irreducible, parse_word)

__version__ = "0.1.0"
