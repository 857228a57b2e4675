"""Relation automata and automatic structures of affine digit semigroups."""

from .automata import (
    Automaton,
    PairLetter,
    accepts,
    append_letter,
    char_poly,
    complement,
    count_series,
    determinize,
    dominant_eigenvalue,
    equivalent,
    from_json,
    from_transitions,
    intersect,
    is_codeterministic,
    lex_pair_automaton,
    minimize,
    perron_enclosure,
    product,
    project,
    to_dot,
    to_json,
    transpose,
    trim,
)
from .numfield import (
    BetaContext,
    FieldElem,
    context_from_config,
    fe_add,
    fe_neg,
    fe_sub,
    mahler_measure,
    make_context,
)
from .reducer import ReducerTable
from .relations import (
    Blocked,
    CapExceeded,
    RelAutomaton,
    build_relation_automaton,
    is_free,
    kenyon_criterion,
    mahler_nonfree_check,
    quick_free_sufficient,
    verify_power_identity,
    verify_relation,
)
from .structure import (
    GrowthReport,
    build_multiplier,
    build_reduced_automaton,
    count_elements_bruteforce,
    growth,
)

__version__ = "0.1.0"
