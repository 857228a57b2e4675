import copy
import hashlib
import json
import random
from itertools import product as iproduct

import pytest

from betauto import automata as au
from betauto.automata import PairLetter
from betauto.numfield import NumFieldError, fe_neg, make_context
from betauto.relations import (
    Blocked,
    CapExceeded,
    build_relation_automaton,
    is_free,
    kenyon_criterion,
    mahler_nonfree_check,
    quick_free_sufficient,
    verify_power_identity,
    verify_relation,
)

from conftest import (
    BINARY_PISOT,
    SALEM_RHS,
    SALEM_TERMS,
    buildable_fixture_names,
    load_context,
    random_algebraic_configs,
    random_nonfree_contexts,
)


def pair_word(u, v):
    return [PairLetter(a, b) for a, b in zip(u, v)]


# --- the base-3 {0,1,3} example ----------------------------------------------


def test_intro_relation_automaton_shape():
    rel = build_relation_automaton(load_context("intro"))
    a = rel.automaton
    assert a.n_states == 3
    idx = {lbl: i for i, lbl in enumerate(a.labels)}
    assert set(idx) == {"0", "1", "-1"}
    P = PairLetter
    expected = {
        (idx["0"], P("0", "0"), idx["0"]), (idx["0"], P("1", "1"), idx["0"]),
        (idx["0"], P("3", "3"), idx["0"]), (idx["0"], P("1", "0"), idx["1"]),
        (idx["0"], P("0", "1"), idx["-1"]),
        (idx["1"], P("0", "3"), idx["0"]), (idx["1"], P("1", "3"), idx["1"]),
        (idx["-1"], P("3", "0"), idx["0"]), (idx["-1"], P("3", "1"), idx["-1"]),
    }
    assert set(a.transitions) == expected
    assert a.initials == a.finals == {idx["0"]}


def test_intro_accepts_relation_word():
    rel = build_relation_automaton(load_context("intro"))
    assert au.accepts(rel.automaton, pair_word("110", "033"))
    assert au.accepts(rel.automaton, pair_word("10", "03"))
    assert not au.accepts(rel.automaton, pair_word("10", "13"))
    assert not is_free(rel)


def test_intro_minimality():
    rel = build_relation_automaton(load_context("intro"))
    t = au.trim(rel.automaton)
    assert t.deterministic and au.is_codeterministic(t)
    m = au.minimize(t)
    assert m.n_states == t.n_states and au.equivalent(m, t)


def test_intro_component_swap_symmetry():
    # swapping the pair components equals relabelling states by x -> -x
    rel = build_relation_automaton(load_context("intro"))
    a = rel.automaton
    neg = {}
    for i, e in enumerate(rel.state_elems):
        for j, f in enumerate(rel.state_elems):
            if fe_neg(e) == f:
                neg[i] = j
    assert len(neg) == a.n_states
    swapped = {(p, PairLetter(x.right, x.left), q) for (p, x, q) in a.transitions}
    relabeled = {(neg[p], x, neg[q]) for (p, x, q) in a.transitions}
    assert swapped == relabeled


def test_inverted_base_same_language():
    # base 3 and base 1/3 give the same relation automaton
    direct = build_relation_automaton(make_context([-3, 1], [0, 1, 3]))
    inverted = build_relation_automaton(make_context([-1, 3], [0, 1, 3]))
    assert au.equivalent(direct.automaton, inverted.automaton)


# --- direct verification -----------------------------------------------------


def test_verify_relation():
    ctx = load_context("intro")
    assert verify_relation(ctx, "10", "03")
    assert verify_relation(ctx, "110", "033")
    assert verify_relation(ctx, "103", "033")  # middle form of the same map
    assert not verify_relation(ctx, "0", "1")
    assert verify_relation(ctx, [1, 0], [0, 2])  # digit indices: words 10, 03
    with pytest.raises(ValueError):
        verify_relation(ctx, "10", "0")
    with pytest.raises(ValueError):
        verify_relation(ctx, "12", "03")
    # a bool is not a digit position
    with pytest.raises(ValueError):
        verify_relation(ctx, [True], [1])


def test_relation_language_matches_verify():
    for name in ["intro", "pisot_x2-x-1", "transc_1_over_X2"]:
        ctx = load_context(name)
        rel = build_relation_automaton(ctx)
        names = ctx.digit_names
        for n in range(4):
            for u in iproduct(names, repeat=n):
                for v in iproduct(names, repeat=n):
                    assert au.accepts(rel.automaton, pair_word(u, v)) == \
                        verify_relation(ctx, u, v)


# --- freeness criteria -------------------------------------------------------


def test_kenyon_criterion():
    assert kenyon_criterion(1, 2)        # 1+2 divisible by 3: free
    assert not kenyon_criterion(1, 3)
    assert kenyon_criterion(1, 5)
    assert not kenyon_criterion(2, 5)
    with pytest.raises(ValueError):
        kenyon_criterion(2, 4)  # not coprime
    with pytest.raises(ValueError):
        kenyon_criterion(3, 2)  # not ordered


def test_kenyon_free_cases_have_trivial_automaton():
    rel = build_relation_automaton(load_context("kenyon_1_5"))
    assert is_free(rel) and rel.n_states == 1


def test_quick_free_sufficient():
    # conjugate 3.9387 > 2 separates all nonzero differences; the context is
    # blocked (unit-circle pair) but the quick test needs no construction
    ctx = load_context("free_x4-3x3-3x2-3x+1")
    assert ctx.blocked
    assert quick_free_sufficient(ctx)
    assert not quick_free_sufficient(load_context("intro"))
    assert not quick_free_sufficient(load_context("transc_1_over_X"))
    # transcendental free case: all digit differences have the top degree
    free_t = make_context("transcendental", [[0], [0, 1], [0, 2]])
    assert quick_free_sufficient(free_t)


def _quick_free_contexts():
    for name in buildable_fixture_names() + ["salem"]:
        yield name, load_context(name)
    for seed in range(5, 9):
        for minpoly, digits in random_algebraic_configs(seed, 30):
            try:
                yield (minpoly, digits), make_context(minpoly, digits)
            except NumFieldError:
                continue


def test_quick_free_is_the_first_layer_prune():
    # the certificate holds exactly when the exploration prunes every
    # successor of 0 but 0 itself, i.e. explores the single state 0
    for key, ctx in _quick_free_contexts():
        try:
            rel = build_relation_automaton(ctx, max_states=2, force=True)
            one_state = rel.stats["states_explored"] == 1
        except CapExceeded:
            one_state = False
        assert quick_free_sufficient(ctx) == one_state, key


@pytest.mark.parametrize("name", BINARY_PISOT)
def test_mahler_nonfree(name):
    ctx = load_context(name)
    assert mahler_nonfree_check(ctx)
    rel = build_relation_automaton(ctx)
    assert not is_free(rel)


def test_mahler_needs_two_digits():
    with pytest.raises(ValueError):
        mahler_nonfree_check(load_context("intro"))


# --- blocked contexts and caps -----------------------------------------------


def test_salem_blocked():
    ctx = load_context("salem")
    assert ctx.blocked
    with pytest.raises(Blocked):
        build_relation_automaton(ctx)


def test_salem_forced_caps_out():
    ctx = load_context("salem")
    with pytest.raises(CapExceeded) as e:
        build_relation_automaton(ctx, max_states=3000, force=True)
    # pins the BFS order and the per-letter prune count
    assert e.value.stats == {"states": 3000, "depth": 73, "pruned": 5455}


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _fixture_relations() -> list:
    out = []
    for name in buildable_fixture_names():
        rel = build_relation_automaton(load_context(name), force=True)
        a = rel.automaton
        out.append([name, sorted((p, x.left, x.right, q) for p, x, q in a.transitions),
                    list(a.labels), rel.stats])
    return out


def _random_outcomes() -> list:
    out = []
    for seed in range(5, 9):
        for minpoly, digits in random_algebraic_configs(seed, 30):
            try:
                ctx = make_context(minpoly, digits)
            except NumFieldError:
                out.append("error")
                continue
            try:
                out.append(build_relation_automaton(ctx, max_states=3000, force=True).stats)
            except CapExceeded as e:
                out.append(["capped", e.stats])
    return out


def test_prune_decisions_pinned():
    # every prune decision shows in the automata and their stats and, at a
    # cap, in the pruned count, which also depends on the order of the letters
    fixtures = _fixture_relations()
    assert len(fixtures) == 62
    assert _sha256(fixtures) == FIXTURE_RELATIONS_SHA256

    salem = load_context("salem")
    for cap, stats in [(1000, {"states": 1000, "depth": 44, "pruned": 1813}),
                       (10000, {"states": 10000, "depth": 129, "pruned": 18465})]:
        with pytest.raises(CapExceeded) as e:
            build_relation_automaton(salem, max_states=cap, force=True)
        assert e.value.stats == stats

    outcomes = _random_outcomes()
    assert sum(isinstance(o, list) for o in outcomes) == 13
    assert _sha256(outcomes) == RANDOM_STATS_SHA256


FIXTURE_RELATIONS_SHA256 = "aa455eaa39d2dca7aed0f4b4be867c9f5a579a7060d16d18693c4df78d9f9355"
RANDOM_STATS_SHA256 = "bd2085f2901c8e9ac936765e24c74dbe7276dd2afb980363ca324b6272e1a4a2"


def test_build_does_not_mutate_context():
    # the quartic Pisot build keeps undecided states, and reads its context only
    ctx = load_context("pisot_x4-x3-x2+x-1")
    before = copy.deepcopy((ctx.precision, ctx.embeddings, ctx.power_rows))
    rel = build_relation_automaton(ctx)
    assert rel.stats["undecided_keeps"] > 0
    assert (ctx.precision, ctx.embeddings, ctx.power_rows) == before


def test_state_cap():
    with pytest.raises(CapExceeded):
        build_relation_automaton(load_context("intro"), max_states=2)


def test_depth_cap():
    with pytest.raises(CapExceeded):
        build_relation_automaton(load_context("intro"), max_depth=0)


# --- exact power identity ----------------------------------------------------


def test_salem_identity():
    ctx = load_context("salem")
    assert verify_power_identity(ctx, SALEM_TERMS, SALEM_RHS)
    # the sign-flipped variant equals the negated right-hand side instead
    flipped = [(-s, k) for s, k in SALEM_TERMS]
    assert not verify_power_identity(ctx, flipped, SALEM_RHS)
    assert verify_power_identity(ctx, flipped, [-c for c in SALEM_RHS])


def test_power_identity_needs_direct_base():
    with pytest.raises(ValueError):
        verify_power_identity(make_context([-1, 3], [0, 1]), [(1, 0)], [1])


# --- transcendental construction ---------------------------------------------


def test_transcendental_relation_automaton():
    rel = build_relation_automaton(load_context("transc_1_over_X"))
    assert rel.n_states == 3
    assert not is_free(rel)


def test_random_pairs_against_oracle():
    ctx = load_context("pisot_x3-x2-x-1")
    rel = build_relation_automaton(ctx)
    rng = random.Random(7)
    names = ctx.digit_names
    for _ in range(300):
        n = rng.randint(5, 6)
        u = [rng.choice(names) for _ in range(n)]
        v = [rng.choice(names) for _ in range(n)]
        assert au.accepts(rel.automaton, pair_word(u, v)) == \
            verify_relation(ctx, u, v)


def test_random_contexts_against_exact_arithmetic():
    # verify_relation checks with FieldElem arithmetic, on the seeded contexts
    # and on those that are non-free by construction
    rels = []
    for minpoly, digits in random_algebraic_configs(5):
        try:
            ctx = make_context(minpoly, digits)
        except NumFieldError:
            continue
        if ctx.blocked:
            continue
        try:
            rels.append(build_relation_automaton(ctx, max_states=5000))
        except CapExceeded:
            continue
    nonfree = [rel for _, rel in random_nonfree_contexts()[0]]
    assert len(rels) >= 15 and sum(rel.n_states > 1 for rel in rels) >= 5
    assert len(nonfree) >= 10 and all(rel.n_states > 1 for rel in nonfree)
    for rel in rels + nonfree:
        assert all(type(c) is int for e in rel.state_elems for c in e.coeffs)
        ctx = rel.context
        names = ctx.digit_names
        for n in range(4):
            for u in iproduct(names, repeat=n):
                for v in iproduct(names, repeat=n):
                    assert au.accepts(rel.automaton, pair_word(u, v)) == \
                        verify_relation(ctx, u, v), (ctx.minpoly, names, u, v)
