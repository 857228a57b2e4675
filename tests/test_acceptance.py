"""End-to-end acceptance checks.

Each test prints a single ``[PASS]``/``[FAIL]`` line (bypassing pytest's
capture) and enforces a wall-clock budget.
"""

import itertools
import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from betauto import automata as au
from betauto.automata import PairLetter, from_transitions
from betauto.numfield import fe_add
from betauto.reducer import ReducerTable
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
from betauto.structure import build_reduced_automaton, growth

from conftest import (
    BINARY_PISOT,
    KENYON_PAIRS,
    KENYON_TABLE,
    SALEM_RHS,
    SALEM_TERMS,
    TRANSC_TABLE,
    buildable_fixture_names,
    load_context,
    random_automaton,
)


# one line per criterion; echoed after the run by pytest_terminal_summary
RESULTS = []


def _report(line):
    RESULTS.append(line)
    print(line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(num, desc, limit):
    t0 = time.monotonic()
    try:
        yield
    except Exception:
        _report(f"[FAIL] criterion {num}: {desc}")
        raise
    elapsed = time.monotonic() - t0
    if elapsed > limit:
        _report(f"[FAIL] criterion {num}: {desc} "
                f"(time {elapsed:.1f}s > {limit}s)")
        pytest.fail(f"criterion {num} exceeded time budget: "
                    f"{elapsed:.1f}s > {limit}s")
    _report(f"[PASS] criterion {num}: {desc} ({elapsed:.2f}s, budget {limit:g}s)")


def _lam_mid(report):
    return float((report.lam_lo + report.lam_hi) / 2)


def _avoids_factor(dfa, factor):
    """The language of ``dfa`` contains no word with ``factor`` as a factor."""
    n = len(factor)
    trans = set()
    for a in dfa.alphabet:
        trans.add((0, a, 0))  # NFA: guess where the factor starts
        trans.add((n, a, n))
    for s in range(n):
        trans.add((s, factor[s], s + 1))
    contains = from_transitions(dfa.alphabet, n + 1, trans, {0}, {n})
    return not au.trim(au.intersect(dfa, contains)).finals


def _value_key(ctx, word):
    v = ctx.zero()
    idx = {name: i for i, name in enumerate(ctx.digit_names)}
    for g in word:
        v = fe_add(ctx.mul_base(v), ctx.digits[idx[g]])
    return v.coeffs


def test_criterion_1_intro():
    with criterion(1, "base-3 digits {0,1,3} worked example", limit=1.0):
        ctx = load_context("intro")
        rel = build_relation_automaton(ctx)
        assert au.accepts(rel.automaton, [PairLetter("1", "0"),
                                          PairLetter("1", "3"),
                                          PairLetter("0", "3")])
        reduced = build_reduced_automaton(rel, "lex")
        report = growth(reduced, N=6, candidate_pi=[1, -3, 1])
        assert report.counts == [1, 3, 8, 21, 55, 144, 377]
        assert abs(_lam_mid(report) - (3 + math.sqrt(5)) / 2) < 1e-6
        assert report.pi_check["ok"]
        assert _avoids_factor(reduced, ("1", "0"))
        revlex = build_reduced_automaton(rel, "revlex")
        assert _avoids_factor(revlex, ("0", "3"))


def test_criterion_2_kenyon_sweep():
    with criterion(2, "base-3 digits {0,p,q} freeness sweep and growth table",
                   limit=30.0):
        for p, q in KENYON_PAIRS:
            rel = build_relation_automaton(load_context(f"kenyon_{p}_{q}"))
            assert is_free(rel) == ((p + q) % 3 == 0) == kenyon_criterion(p, q)
        for (p, q), (lam_ref, pi) in KENYON_TABLE.items():
            rel = build_relation_automaton(load_context(f"kenyon_{p}_{q}"))
            reduced = build_reduced_automaton(rel, "lex")
            report = growth(reduced, N=0, candidate_pi=pi)
            assert abs(_lam_mid(report) - lam_ref) < 1e-3, (p, q)
            assert report.pi_check["ok"], (p, q)


def test_criterion_3_binary_pisot():
    with criterion(3, "binary digits over five Pisot bases: non-freeness and "
                      "relation language vs exact arithmetic", limit=60.0):
        rng = random.Random(20260826)
        for name in BINARY_PISOT:
            ctx = load_context(name)
            assert mahler_nonfree_check(ctx), name
            rel = build_relation_automaton(ctx)
            assert not is_free(rel), name
            names = ctx.digit_names
            for ln in range(5):
                for u in itertools.product(names, repeat=ln):
                    for v in itertools.product(names, repeat=ln):
                        got = au.accepts(rel.automaton,
                                         [PairLetter(a, b) for a, b in zip(u, v)])
                        assert got == verify_relation(ctx, u, v), (name, u, v)
            for _ in range(1000):
                ln = rng.randint(5, 6)
                u = [rng.choice(names) for _ in range(ln)]
                v = [rng.choice(names) for _ in range(ln)]
                got = au.accepts(rel.automaton,
                                 [PairLetter(a, b) for a, b in zip(u, v)])
                assert got == verify_relation(ctx, u, v), (name, u, v)


def test_criterion_4_transcendental():
    with criterion(4, "transcendental bases: growth table and 1/X isomorphism",
                   limit=60.0):
        for name, (lam_ref, pi) in TRANSC_TABLE.items():
            rel = build_relation_automaton(load_context(f"transc_{name}"))
            reduced = build_reduced_automaton(rel, "lex")
            report = growth(reduced, N=0, candidate_pi=pi)
            assert abs(_lam_mid(report) - lam_ref) < 1e-3, name
            assert report.pi_check["ok"], name
        intro = build_relation_automaton(load_context("intro"))
        transc = build_relation_automaton(load_context("transc_1_over_X"))
        rename = {transc.context.digit_names[2]: "3"}

        def rl(x):
            return PairLetter(rename.get(x.left, x.left),
                              rename.get(x.right, x.right))

        relettered = from_transitions(
            tuple(rl(x) for x in transc.automaton.alphabet),
            transc.automaton.n_states,
            [(a, rl(x), b) for (a, x, b) in transc.automaton.transitions],
            transc.automaton.initials, transc.automaton.finals)
        assert au.equivalent(relettered, intro.automaton)


def test_criterion_5_salem():
    with criterion(5, "Salem base: construction blocked, capped run stays "
                      "inconclusive, power identity verified exactly",
                   limit=30.0):
        ctx = load_context("salem")
        assert ctx.blocked
        with pytest.raises(Blocked):
            build_relation_automaton(ctx)
        with pytest.raises(CapExceeded) as exc:
            build_relation_automaton(ctx, max_states=100_000, force=True)
        stats = exc.value.stats
        assert stats["states"] == 100_000
        # a capped run reports progress only; it never claims (non-)freeness
        assert "free" not in stats
        assert verify_power_identity(ctx, SALEM_TERMS, SALEM_RHS)


def test_criterion_6_quick_freeness():
    with criterion(6, "freeness certificate without building the automaton",
                   limit=5.0):
        ctx = load_context("free_x4-3x3-3x2-3x+1")
        assert quick_free_sufficient(ctx)


def test_criterion_7_property_suites():
    with criterion(7, "randomized automata invariants and per-fixture "
                      "reducer/minimality/uniqueness suites", limit=120.0):
        rng = random.Random(7)
        for _ in range(200):
            a = random_automaton(rng)
            words = [w for ln in range(4)
                     for w in itertools.product(a.alphabet, repeat=ln)]
            lang = {w for w in words if au.accepts(a, w)}
            d = au.determinize(a)
            m = au.minimize(a)
            c = au.complement(a)
            assert d.deterministic
            assert {w for w in words if au.accepts(d, w)} == lang
            assert {w for w in words if au.accepts(m, w)} == lang
            assert {w for w in words if au.accepts(c, w)} == set(words) - lang
            assert au.equivalent(m, au.minimize(m))
            assert au.count_series(a, 3)[3] == sum(1 for w in lang if len(w) == 3)

        for name in buildable_fixture_names():
            ctx = load_context(name)
            rel = build_relation_automaton(ctx, force=True)
            t = au.trim(rel.automaton)
            assert t.deterministic and au.is_codeterministic(t), name
            assert au.equivalent(t, au.minimize(t)), name

            # the reduced automaton is already minimal and canonical; the
            # lex one stays in ``reduced`` for the suites below
            for order in ("revlex", "lex"):
                reduced = build_reduced_automaton(rel, order)
                m = au.minimize(reduced)
                assert (reduced.n_states, reduced.initials, reduced.finals,
                        reduced.transitions) == \
                    (m.n_states, m.initials, m.finals, m.transitions), (name, order)
            table = ReducerTable(rel, reduced)
            names = ctx.digit_names
            for _ in range(20):
                w = [rng.choice(names) for _ in range(rng.randint(0, 6))]
                r = table.reduce(w)
                assert len(r) == len(w), name
                assert au.accepts(reduced, r), name
                assert table.equivalent(w, r), name
                assert table.reduce(r) == r, name

            # reduced words biject with semigroup elements at every length
            max_len = 5 if len(names) <= 2 else 4
            for ln in range(max_len + 1):
                classes = {}
                for w in itertools.product(names, repeat=ln):
                    classes.setdefault(_value_key(ctx, w), []).append(w)
                n_reduced = 0
                for members in classes.values():
                    in_reduced = [w for w in members if au.accepts(reduced, w)]
                    assert len(in_reduced) == 1, (name, ln, members)
                    n_reduced += 1
                assert n_reduced == au.count_series(reduced, ln)[ln], (name, ln)
