import hashlib
import json
import random
from dataclasses import replace
from enum import IntEnum
from itertools import product as iproduct

import pytest

from betauto import automata as au
from betauto import reducer
from betauto.automata import PairLetter
from betauto.numfield import fe_add
from betauto.relations import build_relation_automaton, verify_relation
from betauto.structure import build_reduced_automaton
from betauto.reducer import ReducerTable

import conftest
from conftest import (
    coreachable_pairs,
    load_context,
    random_nonfree_contexts,
    random_relation_automata,
)


def make_table(name, order="lex"):
    ctx = load_context(name)
    rel = build_relation_automaton(ctx)
    reduced = build_reduced_automaton(rel, order)
    return ctx, rel, reduced, ReducerTable(rel, reduced)


def test_intro_examples():
    ctx, rel, reduced, t = make_table("intro")
    assert t.reduce("10") == ("0", "3")
    assert t.reduce("03") == ("0", "3")
    assert t.reduce("110") == ("0", "3", "3")
    assert t.reduce("") == ()
    assert ReducerTable(rel, reduced).reduce("10") == ("0", "3")


def test_words_equivalent():
    ctx, rel, reduced, t = make_table("intro")
    assert t.equivalent("110", "033")
    assert not t.equivalent("0", "1")
    assert not t.equivalent("10", "0")  # different lengths
    assert ReducerTable(rel, reduced).equivalent("103", "033")


def test_unknown_digit():
    _, _, _, t = make_table("intro")
    with pytest.raises(ValueError):
        t.reduce("12")
    # integer digits are positions in the digit list, never wrapped
    with pytest.raises(ValueError):
        t.reduce([-1, 0])
    with pytest.raises(ValueError):
        t.reduce([3])
    with pytest.raises(ValueError):
        t.equivalent([True], [1])


@pytest.mark.parametrize("name", ["intro", "pisot_x2-x-1", "transc_1_over_X",
                                  "kenyon_3_8"])
def test_reduce_properties(name):
    ctx, rel, reduced, t = make_table(name)
    rng = random.Random(11)
    names = ctx.digit_names
    for _ in range(150):
        w = [rng.choice(names) for _ in range(rng.randint(0, 8))]
        r = t.reduce(w)
        assert len(r) == len(w)
        assert au.accepts(reduced, r)
        assert t.equivalent(w, r)
        assert t.reduce(r) == r  # idempotent


def assert_order_least(ctx, rel, order):
    reduced = build_reduced_automaton(rel, order)
    t = ReducerTable(rel, reduced)
    names = list(ctx.digit_names)
    ranked = names if order == "lex" else list(reversed(names))
    rank = {g: i for i, g in enumerate(ranked)}
    for n in range(5):
        # group words by the exact map they represent
        classes = {}
        for w in iproduct(names, repeat=n):
            val = ctx.zero()
            for g in w:
                val = fe_add(ctx.mul_base(val), ctx.digits[names.index(g)])
            classes.setdefault(val.coeffs, []).append(w)
        for words in classes.values():
            least = min(words, key=lambda w: [rank[g] for g in w])
            # the representative is the order-least word of its class...
            assert t.reduce(list(least)) == least
            for w in words:
                assert t.reduce(list(w)) == least
            # ...and it is the only reduced word in the class
            assert [w for w in words if au.accepts(reduced, w)] == [least]


ORDER_LEAST_FIXTURES = ["intro", "pisot_x3-x-1", "kenyon_3_8",
                        "transc_1_over_X2+X+1", "free_x4-3x3-3x2-3x+1"]


@pytest.mark.parametrize("order", ["lex", "revlex"])
def test_reduce_is_order_least_equivalent(order):
    for name in ORDER_LEAST_FIXTURES:
        ctx = load_context(name)
        assert_order_least(ctx, build_relation_automaton(ctx, force=True), order)
    built = 0
    for _, rel in random_relation_automata():
        built += 1
        assert_order_least(rel.context, rel, order)
    assert built >= 10


def test_reducer_on_random_nonfree_contexts():
    cases, skipped = random_nonfree_contexts()
    conftest.REPORT.append(
        f"reducer on random non-free contexts: {len(cases)} checked, "
        f"{skipped['blocked']} blocked and {skipped['capped']} over 50 relation "
        f"states skipped")
    assert len(cases) >= 10
    for c, rel in cases:
        ctx = rel.context
        names = ctx.digit_names
        # beta^d = c_{d-1} beta^(d-1) + ... + c_0 is the relation 1 0^d = 0 c
        u = ["1"] + ["0"] * len(c)
        v = ["0"] + [str(ci) for ci in c]
        assert au.accepts(rel.automaton, [PairLetter(a, b) for a, b in zip(u, v)]), c
        assert verify_relation(ctx, u, v), c
        for order in ("lex", "revlex"):
            assert_order_least(ctx, rel, order)
        reduced = build_reduced_automaton(rel, "lex")
        t = ReducerTable(rel, reduced)
        assert t.reduce(v) == t.reduce(u)
        rng = random.Random(31)
        for _ in range(60):
            w = [rng.choice(names) for _ in range(rng.randint(0, 12))]
            r = t.reduce(w)
            assert len(r) == len(w) and t.reduce(r) == r, c
            x = list(r) if rng.random() < 0.5 else [rng.choice(names) for _ in w]
            assert t.equivalent(w, x) == verify_relation(ctx, w, x), c


def test_cache_reuse(monkeypatch):
    live_passes = []
    pair_tables = reducer.pair_tables
    monkeypatch.setattr(reducer, "pair_tables",
                        lambda *args: live_passes.append(1) or pair_tables(*args))
    _, _, _, t = make_table("intro")

    def interned():
        """(subsets interned, subset steps computed)"""
        return len(t._sets), sum(j >= 0 for row in t._next for j in row)

    # neither the table nor an equivalence test builds the live set
    assert t.equivalent("110", "033")
    assert t.reduce("") == ()
    assert t._live is None and not live_passes
    assert interned() == (1, 0)
    # the first reduction builds it once; a warm one interns no new subset
    assert t.reduce("1111") == t.reduce("1111")
    assert len(live_passes) == 1
    seen = interned()
    t.reduce("1111")
    assert interned() == seen
    t.reduce("0311")
    assert interned()[1] > seen[1]
    seen = interned()
    t.reduce("0311")
    assert interned() == seen
    assert len(live_passes) == 1
    # ids and subsets correspond one to one
    assert all(t._sid[subset] == i for i, subset in enumerate(t._sets))
    assert len(t._sid) == len(t._sets) == len(t._next)


def test_cached_subsets_hold_live_pairs_only():
    cases = [(name, build_relation_automaton(load_context(name)))
             for name in ["pisot_x3-x-1", "kenyon_3_8"]]
    cases += random_relation_automata()
    assert len(cases) >= 12
    for case, rel in cases:
        reduced = build_reduced_automaton(rel, "lex")
        t = ReducerTable(rel, reduced)
        names = rel.context.digit_names
        rng = random.Random(13)
        for _ in range(40):
            w = [rng.choice(names) for _ in range(rng.randint(1, 30))]
            assert t.equivalent(w, t.reduce(w))
        live = coreachable_pairs(reduced, rel.automaton)
        # every subset a step produced (the start subset need not be live)
        stepped = {j for row in t._next for j in row if j >= 0}
        assert stepped, case
        for j in stepped:
            assert t._sets[j] <= live, case


def old_digit_rule(names, g):
    """The per-letter rule, written out: a non-bool int is a position, any
    other letter is looked up by its str()."""
    if isinstance(g, int) and not isinstance(g, bool):
        if 0 <= g < len(names):
            return g
        raise ValueError(g)
    if str(g) in names:
        return names.index(str(g))
    raise ValueError(g)


class Named:
    """A letter that is no str but whose str() is a digit name."""

    def __init__(self, name):
        self.name = name

    def __str__(self):
        return self.name


class Alias(str):
    """A str whose value and str() differ."""

    def __str__(self):
        return "8"


class Position(IntEnum):
    FIRST = 0
    LAST = 2
    PAST = 3


def test_decoder_follows_the_digit_rule():
    ctx, _, _, t = make_table("kenyon_3_8")
    names = ctx.digit_names
    assert names == ("0", "3", "8")  # names are not the positions
    words = [
        "038", "830", "", "3", "1", "12",
        ["0", "3", "8"], ("8", "3"), [0, 1, 2], (2, 2, 0), ["3", 2, "0"],
        [True], [False, "0"], [1.0], ["0", 2.0], [Position.LAST, "3"],
        [Position.FIRST], [Position.PAST], [3], [-1], [8], ["0", 10 ** 30],
        ["5"], ["3", "1"], [Named("8"), "0"], [Named("9")], [Alias("3")],
        [Alias("0"), 1], [None], [b"3"],
    ]
    for word in words:
        try:
            expect = [old_digit_rule(names, g) for g in word]
        except ValueError:
            expect = None
        for spelled in (word, iter(word)):
            if expect is None:
                with pytest.raises(ValueError):
                    t._letters(spelled)
            else:
                assert t._letters(spelled) == expect, word
        if expect is None:
            with pytest.raises(ValueError):
                t.reduce(word)
            with pytest.raises(ValueError):
                t.equivalent(word, word)
            with pytest.raises(ValueError):
                verify_relation(ctx, word, word)
        else:
            assert t.reduce(word) == t.reduce(expect)
            assert t.equivalent(word, expect)
            assert verify_relation(ctx, word, expect)
    # what a dict lookup alone would get wrong
    assert t._letters([Alias("3")]) == [2]
    with pytest.raises(ValueError):
        t._letters([True])
    with pytest.raises(ValueError):
        t._letters([1.0])


def test_table_rejects_mismatched_automata():
    _, rel, reduced, _ = make_table("intro")
    _, _, kenyon_reduced, _ = make_table("kenyon_3_8")
    with pytest.raises(ValueError, match="reduced alphabet"):
        ReducerTable(rel, kenyon_reduced)
    swapped = au.Automaton(tuple(reversed(reduced.alphabet)), reduced.n_states,
                           reduced.transitions, reduced.initials, reduced.finals)
    with pytest.raises(ValueError, match="reduced alphabet"):
        ReducerTable(rel, swapped)

    a = rel.automaton
    stray = au.Automaton(a.alphabet + (PairLetter("0", "7"),), a.n_states,
                         a.transitions | {(0, PairLetter("0", "7"), 0)},
                         a.initials, a.finals)
    with pytest.raises(ValueError, match="relation letter"):
        ReducerTable(replace(rel, automaton=stray), reduced)
    two_starts = au.Automaton(a.alphabet, a.n_states, a.transitions,
                              set(range(a.n_states)), a.finals)
    with pytest.raises(ValueError, match="relation automaton is not deterministic"):
        ReducerTable(replace(rel, automaton=two_starts), reduced)
    (p, x, q) = min(reduced.transitions)
    split = au.Automaton(reduced.alphabet, reduced.n_states,
                         reduced.transitions | {(p, x, 1 - q)},
                         reduced.initials, reduced.finals)
    with pytest.raises(ValueError, match="reduced automaton is not deterministic"):
        ReducerTable(rel, split)


# SHA-256 of the JSON list, per seeded 100-letter word w, of [reduce(w),
# equivalent(w, reduce(w)), equivalent(w, w with a 5-letter window reduced),
# equivalent(w, that word with one letter changed), equivalent(w, w[:-1])],
# recorded with the dict-based reducer: the dense tables must not move a bit
PINNED_REDUCTIONS = {
    ("kenyon_3_8", "lex"):
        "74672a75bb48ac7c8fd57de942fc68bd8cae0df9af7da03129a22e36c5dc535c",
    ("kenyon_3_8", "revlex"):
        "19fccad966d93e938ec70a005addc525215f4bdf9159c269fa8008f6c12b8d02",
    ("pisot_x3-x-1", "lex"):
        "3c57c265bf807026360960375a2f7bd0d631189b9b9d7525728e9a3b129e6249",
    ("pisot_x3-x-1", "revlex"):
        "5e0d2fd5882c39e443ee4f1ac8c12b9500c4daa8f65bab085ead767885b12a54",
}


@pytest.mark.parametrize("name, order", sorted(PINNED_REDUCTIONS))
def test_reductions_pinned(name, order):
    ctx, _, _, t = make_table(name, order)
    names = ctx.digit_names
    rng = random.Random(2024)
    out = []
    for _ in range(200):
        w = [rng.choice(names) for _ in range(100)]
        r = t.reduce(w)
        j = rng.randrange(95)
        spliced = w[:j] + list(t.reduce(w[j:j + 5])) + w[j + 5:]
        changed = list(spliced)
        i = rng.randrange(100)
        changed[i] = rng.choice([g for g in names if g != changed[i]])
        out.append(["".join(r), t.equivalent(w, r), t.equivalent(w, spliced),
                    t.equivalent(w, changed), t.equivalent(w, w[:-1])])
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()
    assert digest == PINNED_REDUCTIONS[name, order]
