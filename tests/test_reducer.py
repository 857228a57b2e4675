import random
from itertools import product as iproduct

import pytest

from betauto import automata as au
from betauto.relations import build_relation_automaton, verify_relation
from betauto.structure import build_reduced_automaton
from betauto.reducer import ReducerTable

from conftest import load_context


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


@pytest.mark.parametrize("order", ["lex", "revlex"])
def test_reduce_is_order_least_equivalent(order):
    ctx, rel, reduced, t = make_table("intro", order)
    names = list(ctx.digit_names)
    ranked = names if order == "lex" else list(reversed(names))
    rank = {g: i for i, g in enumerate(ranked)}
    for n in range(5):
        # group words by the exact map they represent
        classes = {}
        for w in iproduct(names, repeat=n):
            val = ctx.zero()
            for g in w:
                from betauto.numfield import fe_add
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


def test_cache_reuse():
    _, _, _, t = make_table("intro")
    assert t.reduce("1111") == t.reduce("1111")
    n_cached = len(t._cache)
    t.reduce("1111")
    assert len(t._cache) == n_cached
