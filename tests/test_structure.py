import collections
import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest
from sympy import ZZ
from sympy.polys.factortools import dup_factor_list

from betauto import automata as au
from betauto import structure
from betauto.automata import Automaton, CapExceeded, PairLetter
from betauto.numfield import context_from_config, poly_trim
from betauto.relations import build_relation_automaton
from betauto.structure import (
    build_multiplier,
    build_reduced_automaton,
    count_elements_bruteforce,
    growth,
)
from betauto.reducer import ReducerTable

import conftest
from conftest import (
    KENYON_TABLE,
    TRANSC_TABLE,
    brzozowski,
    buildable_fixture_names,
    load_context,
    random_nonfree_contexts,
    random_relation_automata,
    reducible_words,
    reference_multiplier,
    same_dfa,
)


def reduced_words(reduced, n):
    return [w for k in range(n + 1) for w in iproduct(reduced.alphabet, repeat=k)
            if au.accepts(reduced, w)]


# --- the base-3 {0,1,3} example ----------------------------------------------


def test_intro_growth():
    rel = build_relation_automaton(load_context("intro"))
    red = build_reduced_automaton(rel)
    g = growth(red, N=6, candidate_pi=[1, -3, 1])
    assert g.counts == [1, 3, 8, 21, 55, 144, 377]
    assert g.char_poly == (1, -3, 1)
    lam = (3 + math.sqrt(5)) / 2
    assert float(g.lam_lo) - 1e-6 <= lam <= float(g.lam_hi) + 1e-6
    assert float(g.lam_hi) - float(g.lam_lo) < 1e-6
    assert g.pi_check["ok"]


def test_intro_counts_are_odd_fibonacci():
    # c_n = f_{2n+2} for the Fibonacci sequence f_1 = f_2 = 1
    rel = build_relation_automaton(load_context("intro"))
    red = build_reduced_automaton(rel)
    f = [0, 1]
    while len(f) < 32:
        f.append(f[-1] + f[-2])
    assert au.count_series(red, 12) == [f[2 * n + 2] for n in range(13)]


def test_intro_factor_avoidance():
    rel = build_relation_automaton(load_context("intro"))
    lex = build_reduced_automaton(rel, "lex")
    rev = build_reduced_automaton(rel, "revlex")

    def has_factor(w, f):
        return any(tuple(w[i:i + len(f)]) == f for i in range(len(w)))

    lex_words = reduced_words(lex, 5)
    rev_words = reduced_words(rev, 5)
    assert all(not has_factor(w, ("1", "0")) for w in lex_words)
    assert all(not has_factor(w, ("0", "3")) for w in rev_words)
    # both orders pick one representative per element
    assert au.count_series(lex, 8) == au.count_series(rev, 8)


def test_bad_order():
    rel = build_relation_automaton(load_context("intro"))
    with pytest.raises(ValueError):
        build_reduced_automaton(rel, "colex")


@pytest.mark.parametrize("order", ["lex", "revlex"])
def test_reduced_automaton_within_a_thousand_subsets(order):
    # the unpruned subset construction of these reducible words makes 5,984
    # subsets; the simulation-pruned one makes 300
    rel = build_relation_automaton(load_context("pisot_x3-x-1"), force=True)
    red = build_reduced_automaton(rel, order, max_states=1000)
    assert red.n_states == 138
    assert same_dfa(red, au.complement(brzozowski(reducible_words(rel, order))))


def test_reduced_chain_trims_once(monkeypatch):
    # the reducible words are trimmed and determinized once, inside complement
    calls = []
    trim = au.trim
    monkeypatch.setattr(au, "trim", lambda a: calls.append(a) or trim(a))
    for name in ["intro", "kenyon_3_8", "pisot_x3-x-1", "kenyon_1_2"]:
        rel = build_relation_automaton(load_context(name))
        for order in ("lex", "revlex"):
            calls.clear()
            build_reduced_automaton(rel, order)
            assert len(calls) == 1, (name, order)
    # the cap still reaches the subset construction
    rel = build_relation_automaton(load_context("pisot_x3-x-1"), force=True)
    with pytest.raises(CapExceeded):
        build_reduced_automaton(rel, "lex", max_states=100)


# --- reduced counts vs brute force ---------------------------------------------


@pytest.mark.parametrize("name", ["intro", "pisot_x2-x-1", "transc_1_over_X2",
                                  "kenyon_2_5"])
def test_counts_match_bruteforce(name):
    ctx = load_context(name)
    rel = build_relation_automaton(ctx)
    red = build_reduced_automaton(rel)
    assert au.count_series(red, 6) == count_elements_bruteforce(ctx, 6)


def test_random_contexts_counts_match_bruteforce():
    cases = list(random_relation_automata())
    nonfree = random_nonfree_contexts()[0]
    assert len(cases) >= 10 and len(nonfree) >= 10
    for config, rel in cases + nonfree:
        red = build_reduced_automaton(rel)
        assert au.count_series(red, 5) == \
            count_elements_bruteforce(rel.context, 5), config


def test_bruteforce_cap():
    with pytest.raises(ValueError):
        count_elements_bruteforce(load_context("intro"), 9)


# --- multipliers ----------------------------------------------------------------


def test_multiplier_language():
    ctx = load_context("intro")
    rel = build_relation_automaton(ctx)
    reduced = build_reduced_automaton(rel)
    multipliers = {g: build_multiplier(rel, reduced, g) for g in ctx.digit_names}
    table = ReducerTable(rel, reduced)
    # every (u.g, reduce(u.g)) pair with u reduced is accepted
    for u in reduced_words(reduced, 3):
        for g in ctx.digit_names:
            appended = list(u) + [g]
            v = table.reduce(appended)
            word = [PairLetter(a, b) for a, b in zip(appended, v)]
            assert au.accepts(multipliers[g], word)
    # and everything accepted has the right shape
    for g in ctx.digit_names:
        m = multipliers[g]
        for n in range(1, 4):
            for w in iproduct(m.alphabet, repeat=n):
                if not au.accepts(m, w):
                    continue
                x = [p.left for p in w]
                v = [p.right for p in w]
                assert x[-1] == g
                assert au.accepts(reduced, x[:-1])
                assert au.accepts(reduced, v)
                assert table.equivalent(x, v)


def assert_matches_product_construction(rel, red):
    # the pruned triple search against the product-then-intersect construction
    for g in rel.context.digit_names:
        new = build_multiplier(rel, red, g)
        old = brzozowski(au.intersect(au.product(au.append_letter(red, g), red),
                                      rel.automaton))
        assert same_dfa(new, old), g
        assert new.alphabet == old.alphabet, g


def assert_matches_reference_path(rel, red):
    # the table search against the search automaton minimized by ``minimize``:
    # the same bytes, labels included
    for g in rel.context.digit_names:
        new, ref = build_multiplier(rel, red, g), reference_multiplier(rel, red, g)
        assert json.dumps(au.to_json(new), indent=2, sort_keys=True) == \
            json.dumps(au.to_json(ref), indent=2, sort_keys=True), g
        assert au.to_dot(new, f"mult_{g}") == au.to_dot(ref, f"mult_{g}"), g


@pytest.mark.parametrize("name", ["intro", "kenyon_3_8", "kenyon_6_7",
                                  "pisot_x3-x-1", "transc_1_over_X2+X+1",
                                  "free_x4-3x3-3x2-3x+1"])
def test_multiplier_matches_product_construction(name):
    rel = build_relation_automaton(load_context(name), force=True)
    assert_matches_product_construction(rel, build_reduced_automaton(rel))


@pytest.mark.parametrize("name", conftest.buildable_fixture_names())
def test_multiplier_matches_reference_path(name):
    rel = build_relation_automaton(load_context(name), force=True)
    for order in ("lex", "revlex"):
        assert_matches_reference_path(rel, build_reduced_automaton(rel, order))


def test_random_multipliers_match_product_construction():
    built = 0
    for config, rel in random_relation_automata():
        built += 1
        for order in ("lex", "revlex"):
            red = build_reduced_automaton(rel, order)
            assert_matches_reference_path(rel, red)
            assert_matches_product_construction(rel, red)
    assert built >= 10


def test_random_nonfree_multipliers_match_product_construction():
    cases, _ = random_nonfree_contexts()
    checked = skipped = 0
    for c, rel in cases:
        for order in ("lex", "revlex"):
            red = build_reduced_automaton(rel, order)
            assert_matches_reference_path(rel, red)
            # the Brzozowski reference takes seconds past about 50 reduced states
            if red.n_states > 50:
                skipped += 1
                continue
            checked += 1
            assert_matches_product_construction(rel, red)
    conftest.REPORT.append(
        f"multipliers on random non-free contexts: {checked + skipped} (context, order) "
        f"runs against the reference path, {checked} against the product construction "
        f"({skipped} over 50 reduced states skipped)")
    assert checked >= 20


def test_multiplier_runs_one_live_search(monkeypatch):
    # one backward search per structure: every multiplier and the reducer
    # read the tables kept on the reduced automaton
    calls = []
    search = au._pair_search
    monkeypatch.setattr(au, "_pair_search",
                        lambda a, rel: calls.append((a, rel)) or search(a, rel))
    for name in ["kenyon_3_8", "pisot_x3-x-1"]:
        ctx = load_context(name)
        rel = build_relation_automaton(ctx)
        for order in ("lex", "revlex"):
            red = build_reduced_automaton(rel, order)
            calls.clear()
            for g in ctx.digit_names:
                build_multiplier(rel, red, g)
            ReducerTable(rel, red).reduce(ctx.digit_names * 4)
            assert calls == [(red, rel.automaton)], (name, order)


# SHA-256 of json.dumps(to_json(m), indent=2, sort_keys=True) and of to_dot(m),
# then of the same two with every state label blanked.  The label-blind pair
# was recorded with Brzozowski minimization and the nondeterministic triple
# search: no later change to the search or to the minimizer may move it.  The
# exact pair pins the labels of the current code (each state of a minimized
# multiplier takes the label of the first search state of its class).
PINNED_MULTIPLIERS = {
    ("kenyon_3_8", "0"): (
        "b15f165bd9ba356e68290a691cff916c014224e5bfabaf1877230a8b894fb9bf",
        "3f1354592d2f4e4b1444b70d09d0c94ff54b86912068ab80738e810cc2e87448",
        "6744223af92c2b14395fefc8b856d96867b7b336ce12e2acf31142f7cb214785",
        "5b84ab4b46e0c8c96ff5de4e446c8326d07db10d2b1e9553dcc88eb547646ae4"),
    ("kenyon_3_8", "3"): (
        "6f05abd464f3d901aeb1c8cf03f5074247b149b5e4fa55ab06dbc84c03b372ef",
        "b3318e39207cee757b91f98db7edae6dd3f59f12a4c15009f7a85d5cc5423280",
        "533851e998f04bfa9ef164fa38164dfa4444ede8792529a7666b3efbabec8f05",
        "231fa4dcb3c1ef0e3da83dbe0b23498bef217e409aa04a297a32672e0e7ff8b6"),
    ("kenyon_3_8", "8"): (
        "38dbaec4c94ddaa60e495361fe7dead9e82e6f52d5bae5c02c99c41a70fb60fd",
        "b4f2f5c2f0ff6fa312c998945a1ba79214a650ffe626ff42e40b7dd1e36c1004",
        "fb713a9215b9cbef7df89b15c73a8a8d59da353314266b257fabf087df7a53e1",
        "5f327beb276e726d9947701810afe632111a9f7d2dd12ce39cf37df6e499c9f9"),
    ("pisot_x3-x-1", "0"): (
        "3fcdc5d26bf58778eb0886afadbb52f7b95b8048f81a682860bd04a05380b9da",
        "6e16a3dc5787121ac354e44cfdd9692c59336dcb7af1f9d1e586c446b591a7cd",
        "655704999a26cf8d2db7eeba461f69284e9c44a8f3e7017250ed426dc95dc218",
        "7317606fe80824a95e409aee790686f28b6109753868216cceb2022e812b8d1f"),
    ("pisot_x3-x-1", "1"): (
        "99fef4d3c17371387044f2b5d3b8324bfeb37e7b509fc8a9cf72aa08553db61c",
        "e7e73eddf58883e7453ae4867e0988fd6d5e0fb315288adede650f9e7a948618",
        "6cc7b90cebf60f400f459f2a40b70ab27bb3435b9a80e8015ccf74417dfaa3c0",
        "269d1a69f77b72905c6fa6b6386b251c69e8975cb03d6506b916620037eb44b7"),
}


def artefact_digests(m):
    blank = Automaton(m.alphabet, m.n_states, m.transitions, m.initials, m.finals,
                      [""] * m.n_states)
    return tuple(hashlib.sha256(text.encode()).hexdigest() for a in (m, blank)
                 for text in (json.dumps(au.to_json(a), indent=2, sort_keys=True),
                              au.to_dot(a)))


@pytest.mark.parametrize("name", ["kenyon_3_8", "pisot_x3-x-1"])
def test_multiplier_artefacts_pinned(name):
    ctx = load_context(name)
    rel = build_relation_automaton(ctx)
    red = build_reduced_automaton(rel, "lex")
    for g in ctx.digit_names:
        digests = artefact_digests(build_multiplier(rel, red, g))
        assert digests[2:] == PINNED_MULTIPLIERS[name, g][2:], g
        assert digests[:2] == PINNED_MULTIPLIERS[name, g][:2], g


def test_multiplier_unknown_digit():
    rel = build_relation_automaton(load_context("intro"))
    red = build_reduced_automaton(rel)
    with pytest.raises(ValueError):
        build_multiplier(rel, red, "7")


def test_multiplier_rejects_a_relation_automaton_of_other_digits():
    rel = build_relation_automaton(load_context("intro"))
    kenyon = build_reduced_automaton(build_relation_automaton(load_context("kenyon_3_8")))
    with pytest.raises(ValueError, match="relation letters"):
        build_multiplier(rel, kenyon, "3")


def test_multiplier_rejects_a_nondeterministic_reduced_automaton():
    rel = build_relation_automaton(load_context("intro"))
    red = build_reduced_automaton(rel)
    (p, x, q) = min(red.transitions)
    split = Automaton(red.alphabet, red.n_states, red.transitions | {(p, x, 1 - q)},
                      red.initials, red.finals)
    with pytest.raises(ValueError, match="not deterministic"):
        build_multiplier(rel, split, "0")


def test_multiplier_search_is_capped_per_relation_state():
    rel = build_relation_automaton(load_context("pisot_x3-x-1"))
    red = build_reduced_automaton(rel)
    for g in rel.context.digit_names:
        with pytest.raises(CapExceeded, match=f"multiplier search for digit {g} ") as e:
            build_multiplier(rel, red, g, max_states=1)
        assert e.value.stats == {"construction": "multiplier", "digit": g,
                                 "search_states": rel.n_states}
        # the CLI's smoke run: 4,714 search states at most, under the cap
        assert au.to_json(build_multiplier(rel, red, g, max_states=1000)) == \
            au.to_json(build_multiplier(rel, red, g))


# --- growth report ---------------------------------------------------------------


def test_growth_report_json():
    rel = build_relation_automaton(load_context("intro"))
    red = build_reduced_automaton(rel)
    doc = growth(red, N=4, candidate_pi=[1, -3, 1]).to_json()
    assert doc["counts"] == ["1", "3", "8", "21", "55"]
    assert doc["char_poly"] == [1, -3, 1]
    assert doc["lambda"]["lo"] <= doc["lambda"]["hi"]
    assert json.loads(json.dumps(doc)) == doc
    assert doc["pi_check"]["ok"]


def test_growth_rejects_wrong_candidate():
    rel = build_relation_automaton(load_context("intro"))
    red = build_reduced_automaton(rel)
    g = growth(red, N=2, candidate_pi=[-1, 1])  # x - 1
    assert not g.pi_check["divides"]
    assert not g.pi_check["ok"]
    # divides but the growth rate is not a root
    g2 = growth(red, N=2, candidate_pi=[1, -3, 1, 0, 0])
    assert g2.pi_check["divides"] and g2.pi_check["ok"]


def test_growth_candidate_zero_at_an_open_end(monkeypatch):
    # cp = (x - 2)(x^2 - 5x + 5): a state with two loops before the block
    # [[3, 1], [1, 2]], whose Perron root (5 + sqrt 5)/2 lies in (2, 4); the
    # root 2 of cp sits on the open end of that enclosure
    sigma = ("a", "b", "c", "d")
    edges = [(0, "a", 0), (0, "b", 0), (0, "c", 1),
             (1, "a", 1), (1, "b", 1), (1, "c", 1), (1, "d", 2),
             (2, "a", 2), (2, "b", 2), (2, "c", 1)]
    red = Automaton(sigma, 3, edges, [0], [2])
    monkeypatch.setattr(structure, "perron_enclosure",
                        lambda cp: (Fraction(2), Fraction(4)))
    g = growth(red, N=2, candidate_pi=[-2, 1])  # x - 2
    assert g.char_poly == (-10, 15, -7, 1)
    assert g.pi_check["divides"]
    assert not g.pi_check["sign_change"] and not g.pi_check["ok"]
    g2 = growth(red, N=2, candidate_pi=[5, -5, 1])
    assert g2.pi_check["ok"]


def _reference_pi_check(cp, lo, hi, candidate):
    """The candidate check over Q: Euclidean division of ``cp`` by the
    candidate and its values at the enclosure's ends, all in ``Fraction``s."""
    cand = [Fraction(c) for c in poly_trim(candidate)]
    a, quotient = [Fraction(c) for c in poly_trim(cp)], []
    while len(a) >= len(cand):
        f = a[-1] / cand[-1]
        quotient.append(f)
        k = len(a) - len(cand)
        for i, c in enumerate(cand):
            a[i + k] -= f * c
        a = list(poly_trim(a))
    divides = not a and all(f.denominator == 1 for f in quotient)

    def at(x):
        v = Fraction(0)
        for c in reversed(cand):
            v = v * x + c
        return v

    va, vb = at(lo), at(hi)
    sign_change = va * vb < 0 or (lo == hi and va == 0)
    return {"candidate": [int(c) for c in cand], "divides": divides,
            "sign_change": sign_change, "ok": divides and sign_change}


def _certificate_candidates(cp, lo, hi, rng):
    """Candidates for ``cp``: its irreducible factors and seeded products of
    them, their negations and non-unit multiples, the linear polynomials
    vanishing at the enclosure's ends, and random polynomials, some with
    trailing zeros."""
    _, factors = dup_factor_list([ZZ(c) for c in reversed(cp)], ZZ)
    factors = [[int(c) for c in reversed(f)] for f, _ in factors]
    products = list(factors)
    for _ in range(3):
        f = [1]
        for g in rng.sample(factors, rng.randint(1, len(factors))):
            f = au._poly_mul(f, g)
        products.append(f)
    products.append(list(cp))
    out = []
    for f in products:
        out += [f, [-c for c in f], [rng.choice((2, -2, 3, -5)) * c for c in f],
                au._poly_mul(f, [rng.randint(-3, 3), 1])]
    out += [[-x.numerator, x.denominator] for x in (lo, hi)]
    for _ in range(12):
        f = [rng.randint(-6, 6) for _ in range(rng.randint(1, 7))]
        f.append(rng.choice((1, -1, 1, -1, 2, -3)))
        out.append(f + [0] * rng.choice((0, 0, 0, 2)))
    return out


def test_candidate_certificate_matches_a_fraction_reference(monkeypatch):
    # growth's integer certificate against the division and evaluation over Q,
    # on the char-polys and enclosures of the buildable fixtures in both
    # orders and of base 3 with digits {0, p, 17}, fed to growth through its
    # char_poly and perron_enclosure names
    contexts = [load_context(name) for name in buildable_fixture_names()]
    contexts += [context_from_config({"beta": {"minpoly": [-3, 1]}, "digits": [0, p, 17]})
                 for p in (2, 6, 14)]
    cases = set()
    for ctx in contexts:
        rel = build_relation_automaton(ctx, force=True)
        for order in ("lex", "revlex"):
            cp = au.char_poly(au.trim(build_reduced_automaton(rel, order)))
            cases.add((cp, au.perron_enclosure(cp)))
    one = Automaton(("a",), 1, [], [0], [0])
    rng = random.Random(20261020)
    seen = collections.Counter()
    for cp, (lo, hi) in sorted(cases):
        monkeypatch.setattr(structure, "char_poly", lambda t, max_words: cp)
        monkeypatch.setattr(structure, "perron_enclosure", lambda _: (lo, hi))
        for cand in _certificate_candidates(cp, lo, hi, rng):
            got = growth(one, N=0, candidate_pi=cand).pi_check
            want = _reference_pi_check(cp, lo, hi, cand)
            assert got == want, (cp, lo, hi, cand)
            seen.update(k for k in ("divides", "sign_change", "ok") if want[k])
            seen["candidates"] += 1
            seen["exact"] += lo == hi and want["ok"]
        with pytest.raises(ZeroDivisionError):
            growth(one, N=0, candidate_pi=[0, 0])
    assert seen["candidates"] >= 2000, seen
    assert min(seen["divides"], seen["sign_change"], seen["ok"]) >= 400, seen
    assert seen["candidates"] - seen["ok"] >= 1000 and seen["exact"] >= 20, seen


def test_growth_empty_reduced():
    empty = Automaton(("a",), 1, [], [0], [])
    g = growth(empty, N=3)
    assert g.counts == [0, 0, 0, 0]
    assert (g.lam_lo, g.lam_hi) == (0, 0)


# --- published growth tables -----------------------------------------------------


@pytest.mark.parametrize("pq", sorted(KENYON_TABLE))
def test_kenyon_table_row(pq):
    p, q = pq
    lam_ref, pi = KENYON_TABLE[pq]
    rel = build_relation_automaton(load_context(f"kenyon_{p}_{q}"))
    red = build_reduced_automaton(rel)
    g = growth(red, N=3, candidate_pi=pi)
    mid = (float(g.lam_lo) + float(g.lam_hi)) / 2
    assert abs(mid - lam_ref) < 1e-3
    assert g.pi_check["ok"]


@pytest.mark.parametrize("name", sorted(TRANSC_TABLE))
def test_transcendental_table_row(name):
    lam_ref, pi = TRANSC_TABLE[name]
    rel = build_relation_automaton(load_context(f"transc_{name}"))
    red = build_reduced_automaton(rel)
    g = growth(red, N=3, candidate_pi=pi)
    mid = (float(g.lam_lo) + float(g.lam_hi)) / 2
    assert abs(mid - lam_ref) < 1e-3
    assert g.pi_check["ok"]


def test_transcendental_1_over_X_isomorphic_to_intro():
    # same semigroup whether the base is 1/3 or a transcendental number
    intro = build_relation_automaton(load_context("intro"))
    transc = build_relation_automaton(load_context("transc_1_over_X"))
    rename = {transc.context.digit_names[2]: "3"}
    relettered = Automaton(
        tuple(PairLetter(rename.get(x.left, x.left), rename.get(x.right, x.right))
              for x in transc.automaton.alphabet),
        transc.automaton.n_states,
        [(p, PairLetter(rename.get(x.left, x.left), rename.get(x.right, x.right)), q)
         for (p, x, q) in transc.automaton.transitions],
        transc.automaton.initials, transc.automaton.finals)
    assert au.equivalent(relettered, intro.automaton)
