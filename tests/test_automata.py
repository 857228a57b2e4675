import json
import math
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest
from sympy import QQ, ZZ, Poly, Rational, Symbol
from sympy.polys.matrices import DomainMatrix
from sympy.polys.densetools import dup_eval
from sympy.polys.rootisolation import (
    dup_inner_isolate_real_roots,
    dup_inner_refine_real_root,
    dup_root_lower_bound,
    dup_step_refine_real_root,
)
from sympy.polys.sqfreetools import dup_sqf_part

from betauto import automata as au
from betauto.automata import Automaton, PairLetter
from betauto import relations
from betauto.numfield import context_from_config, poly_trim
from betauto.relations import build_relation_automaton
from betauto import structure
from betauto.structure import build_multiplier, build_reduced_automaton

from conftest import (
    brzozowski,
    buildable_fixture_names,
    coreachable_pairs,
    load_context,
    random_automaton,
    random_nonfree_contexts,
    random_relation_automata,
    reducible_words,
    reference_largest_positive_root,
    reference_minimal,
    same_dfa,
)


SIGMA = ("a", "b")


def lang(a, n=5):
    """Accepted words of length <= n, by a walk over ``a.transitions``: an
    oracle that shares no transition table with the constructions."""
    layer = {((), p) for p in a.initials}
    words = set()
    for _ in range(n + 1):
        words |= {w for w, p in layer if p in a.finals}
        layer = {(w + (x,), q) for w, p in layer
                 for (p0, x, q) in a.transitions if p0 == p}
    return words


def dfa(transitions, finals, n, alphabet=SIGMA):
    return Automaton(alphabet, n, transitions, [0], finals)


# --- basic constructions -----------------------------------------------------


def test_accepts_and_determinize():
    # words ending in 'ab'
    nfa = Automaton(SIGMA, 3,
                    [(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, "b", 2)],
                    [0], [2])
    assert au.accepts(nfa, "aab")
    assert not au.accepts(nfa, "aba")
    d = au.determinize(nfa)
    assert d.deterministic
    assert lang(d) == lang(nfa)


def test_subset_construction_cap():
    # words whose 4th letter from the end is 'a': 2^4 reachable subsets
    nfa = Automaton(SIGMA, 5,
                    [(0, "a", 0), (0, "b", 0), (0, "a", 1)]
                    + [(i, x, i + 1) for i in range(1, 4) for x in SIGMA],
                    [0], [4])
    assert au.determinize(nfa, max_states=16).n_states == 16
    for build in (au.determinize, au.minimize):
        with pytest.raises(au.CapExceeded) as e:
            build(nfa, max_states=15)
        assert e.value.stats == {"construction": "determinize", "subsets": 15,
                                 "input_states": 5}
        assert "determinize" in str(e.value)
    assert relations.CapExceeded is au.CapExceeded


def test_minimize_canonical_equality():
    # two different automata for the same language minimize identically
    a1 = dfa([(0, "a", 1), (1, "a", 0), (0, "b", 0), (1, "b", 1)], [1], 2)
    a2 = Automaton(SIGMA, 4,
                   [(0, "a", 1), (1, "a", 2), (2, "a", 3), (3, "a", 2),
                    (0, "b", 0), (1, "b", 1), (2, "b", 2), (3, "b", 3)],
                   [0], [1, 3])
    m1, m2 = au.minimize(a1), au.minimize(a2)
    assert m1.n_states == m2.n_states == 2
    assert m1.transitions == m2.transitions and m1.finals == m2.finals
    assert au.equivalent(a1, a2)
    assert not au.equivalent(a1, au.complement(a1))


def test_equivalent_ignores_alphabet_order():
    # the canonical numbering follows the alphabet order: 'a' first numbers
    # the final state 1, 'b' first numbers it 2
    tr = [(0, "a", 1), (0, "b", 2), (2, "b", 1)]
    ab = Automaton(("a", "b"), 3, tr, [0], [1])
    ba = Automaton(("b", "a"), 3, tr, [0], [1])
    assert au.equivalent(ab, ba) and au.equivalent(ba, ab)
    assert not au.equivalent(ab, Automaton(("b", "a"), 3, tr[:2], [0], [1]))


def test_minimize_matches_brzozowski():
    rng = random.Random(20261018)
    cases = [random_automaton(rng, max_states=6) for _ in range(300)]
    assert any(not lang(a) for a in cases)
    assert any(len(a.initials) > 1 for a in cases)
    rels = [build_relation_automaton(load_context(name), force=True)
            for name in ("intro", "kenyon_3_8", "pisot_x3-x-1")]
    rels += [rel for _, rel in random_relation_automata()]
    rels += [rel for _, rel in random_nonfree_contexts()[0]]
    assert len(rels) >= 23
    cases += [reducible_words(rel, order) for rel in rels for order in ("lex", "revlex")]
    for a in cases:
        m, ref = au.minimize(a), brzozowski(a)
        assert same_dfa(m, ref), a
        assert m.alphabet == a.alphabet and len(m.labels) == m.n_states


def _structures(rels):
    """Build the reduced automaton and every multiplier of each relation
    automaton, in lex and revlex order."""
    for rel in rels:
        for order in ("lex", "revlex"):
            reduced = build_reduced_automaton(rel, order)
            for g in rel.context.digit_names:
                build_multiplier(rel, reduced, g)


def _base3_relations(ps):
    for p in ps:
        ctx = context_from_config({"beta": {"minpoly": [-3, 1]}, "digits": [0, p, 17]})
        yield build_relation_automaton(ctx, force=True)


def _lifted_table(rng, n_classes, n, alphabet):
    """A trimmed DFA of n states over a random DFA of n_classes states: state
    i lies over class i % n_classes, and each edge goes to a random state
    over the target class, so the states over one class are equivalent."""
    base = [[rng.randrange(n_classes) if rng.random() < 0.7 else -1 for _ in alphabet]
            for _ in range(n_classes)]
    finals = [c for c in range(n_classes) if rng.random() < 0.3] or [0]
    over = [list(range(c, n, n_classes)) for c in range(n_classes)]
    transitions = [(i, x, rng.choice(over[t]))
                   for i in range(n) for x, t in zip(alphabet, base[i % n_classes]) if t >= 0]
    return Automaton(alphabet, n, transitions, [rng.randrange(n)],
                     [i for i in range(n) if i % n_classes in finals])


def _random_tables():
    rng = random.Random(20261019)
    cases = []
    for _ in range(150):
        alphabet = "abc"[:rng.randint(1, 3)]
        n = rng.randint(1, 30)
        transitions = [(p, x, rng.randrange(n)) for p in range(n) for x in alphabet
                       if rng.random() < 0.6]
        finals = [s for s in range(n) if rng.random() < 0.3]
        cases.append(Automaton(alphabet, n, transitions, [rng.randrange(n)], finals))
        m = rng.randint(1, 8)
        cases.append(_lifted_table(rng, m, m * rng.randint(1, 6), alphabet))
    return cases


def _edge_tables():
    n = 40
    # the chain: state i's shortest accepted word is a^(n - 1 - i)
    chain = Automaton("ab", n, [(i, "a", i + 1) for i in range(n - 1)]
                      + [(i, "b", i) for i in range(0, n - 1, 3)], [0], [n - 1])
    one = Automaton("a", 1, [], [0], [0])
    loop = Automaton("ab", 1, [(0, "a", 0), (0, "b", 0)], [0], [0])
    rng = random.Random(7)
    # trimmed, since ``_minimal`` needs unreachable states to come last
    all_final = au.trim(Automaton("ab", 20, [(p, x, rng.randrange(20)) for p in range(20)
                                             for x in "ab" if rng.random() < 0.5],
                                  [0], range(20)))
    # every state reads a and b; the classes are the residues mod 3
    same_letters = Automaton("ab", 12, [(i, "a", (i + 1) % 12) for i in range(12)]
                             + [(i, "b", (i + 3) % 12) for i in range(12)], [0], [0, 3, 6, 9])
    # 4 and 5 are dead; 1 and 3 merge once they are gone, and the unreachable
    # 6 joins their class but, coming last, does not name it
    dead = Automaton("ab", 7, [(0, "a", 1), (1, "a", 2), (0, "b", 3), (3, "a", 2),
                               (1, "b", 4), (3, "b", 5), (5, "a", 4), (6, "a", 2)],
                     [0], [2])
    # the final state 2 is unreachable, so the initial state is dead
    dead_init = Automaton("ab", 3, [(0, "a", 1), (1, "a", 0), (2, "b", 0)], [0], [2])
    # the cycle 2 -> 3 -> 4 -> 2 is reachable but never reaches the final 1
    dead_cycle = Automaton("ab", 5, [(0, "a", 1), (1, "a", 1), (1, "b", 2), (0, "b", 2),
                                     (2, "a", 3), (3, "b", 4), (4, "a", 2)], [0], [1])
    return [chain, one, loop, all_final, same_letters, dead, dead_init, dead_cycle]


@pytest.mark.parametrize("case", [
    "fixtures", "kenyon_large", "random_nonfree", "random_tables", "edge_tables"])
def test_minimal_matches_reference(monkeypatch, case):
    """Every table that ``_minimal`` receives gives the same transitions,
    finals and labels as plain Moore refinement."""
    sizes = []
    real = au._minimal

    def checked(alphabet, d, final, init, label):
        got = real(alphabet, d, final, init, label)
        want = reference_minimal(alphabet, d, final, init, label)
        assert same_dfa(got, want) and got.labels == want.labels
        sizes.append((len(d), got.n_states))
        return got

    monkeypatch.setattr(au, "_minimal", checked)
    monkeypatch.setattr(structure, "_minimal", checked)
    if case == "fixtures":
        _structures(build_relation_automaton(load_context(name), force=True)
                    for name in buildable_fixture_names())
        assert max(sizes) >= (4714, 1202)  # a pisot_x3-x-1 multiplier search
    elif case == "kenyon_large":
        _structures(_base3_relations((2, 8, 9, 12, 15)))
        assert len(sizes) == 5 * 2 * 4
    elif case == "random_nonfree":
        _structures(rel for _, rel in random_nonfree_contexts()[0])
        assert len(sizes) >= 12 * 2 * 3
    elif case == "random_tables":
        for a in _random_tables():
            au.minimize(a)
    else:
        # the raw tables, dead states included
        for a in _edge_tables():
            (init,) = a.initials
            au._minimal(a.alphabet, a.ddelta(), [s in a.finals for s in range(a.n_states)],
                        init, a.labels.__getitem__)
        assert (40, 40) in sizes  # the chain keeps every state
        assert (7, 3) in sizes and (3, 0) in sizes and (5, 2) in sizes
    assert any(n > m for n, m in sizes)  # some states merge


def naive_simulation(a):
    """The pairs (p, q) with q simulating p: from the pairs that respect
    finality, drop a pair while some step of p has no matching step of q."""
    steps = {}
    for (p, x, q) in a.transitions:
        steps.setdefault((p, x), set()).add(q)
    sim = {(p, q) for p in range(a.n_states) for q in range(a.n_states)
           if q in a.finals or p not in a.finals}
    dropped = True
    while dropped:
        dropped = False
        for p, q in list(sim):
            if any(not any((p2, q2) in sim for q2 in steps.get((q, x), ()))
                   for x in a.alphabet for p2 in steps.get((p, x), ())):
                sim.discard((p, q))
                dropped = True
    return sim


def test_simulation_is_maximal_and_sound():
    rng = random.Random(20261019)
    related = 0
    for _ in range(300):
        a = random_automaton(rng, max_states=6)
        up = au._simulation(a)
        got = {(p, q) for p in range(a.n_states) for q in range(a.n_states)
               if up[p] >> q & 1}
        assert got == naive_simulation(a), a
        langs = [lang(Automaton(a.alphabet, a.n_states, a.transitions, [p], a.finals), 6)
                 for p in range(a.n_states)]
        for p, q in got:
            assert langs[p] <= langs[q], (a, p, q)
            related += p != q
    assert related >= 300


def test_determinize_keeps_maximal_states():
    # 1 and 2 read the same words, and 0 reads fewer: subsets keep only 1
    nfa = Automaton(SIGMA, 4, [(1, "a", 3), (2, "a", 3), (0, "a", 3), (3, "b", 3),
                               (1, "b", 1), (2, "b", 2)],
                    [0, 1, 2], [3], ["p", "q", "r", "f"])
    d = au.determinize(nfa)
    assert d.labels == ("{q}", "{f}")
    assert lang(d, 6) == lang(nfa, 6)


def test_minimize_empty_language():
    a = dfa([(0, "a", 0)], [], 1)
    assert au.minimize(a).n_states == 0
    assert au.equivalent(a, Automaton(SIGMA, 1, [], [0], []))


def test_complement_completes():
    a = dfa([(0, "a", 1)], [1], 2)
    c = au.complement(a)
    assert au.accepts(c, [])
    assert not au.accepts(c, "a")
    assert au.accepts(c, "ab")
    assert au.accepts(c, "b")


def test_complement_of_the_empty_and_the_full_language():
    for a in (Automaton(SIGMA, 0, [], [], []), dfa([(0, "a", 0), (0, "b", 1)], [], 2)):
        c = au.complement(a)
        assert (c.n_states, c.initials, c.finals, c.labels) == (1, {0}, {0}, ("all",))
        assert c.transitions == {(0, "a", 0), (0, "b", 0)}
    full = dfa([(0, "a", 1), (0, "b", 0), (1, "a", 1), (1, "b", 0)], [0, 1], 2)
    assert au.complement(full).n_states == 0


def test_complement_trims_an_untrimmed_dfa():
    # accepts "a" only, and state 2 is dead: it must neither survive nor
    # name the class of the words that do not start with "a"
    a = dfa([(0, "a", 1), (0, "b", 2), (2, "a", 2), (2, "b", 2)], [1], 3)
    c = au.complement(a)
    assert lang(c) == lang(dfa([(0, "a", 0), (0, "b", 0)], [0], 1)) - {("a",)}
    assert (c.n_states, c.labels) == (3, ("0", "1", "sink"))


def test_intersect_alphabet_mismatch():
    a = dfa([], [0], 1)
    b = dfa([], [0], 1, alphabet=("x", "y"))
    with pytest.raises(au.AlphabetMismatch):
        au.intersect(a, b)


def test_product_language():
    a = dfa([(0, "a", 1)], [1], 2)  # exactly "a"
    b = dfa([(0, "b", 1)], [1], 2)  # exactly "b"
    p = au.product(a, b)
    assert au.accepts(p, [PairLetter("a", "b")])
    assert not au.accepts(p, [PairLetter("a", "a")])
    assert not au.accepts(p, [])


def test_append_letter():
    a = dfa([(0, "a", 1)], [1], 2)
    ap = au.append_letter(a, "b")
    assert lang(ap) == {("a", "b")}
    with pytest.raises(au.AlphabetMismatch):
        au.append_letter(a, "z")


def test_project_pair_letters():
    # pair word (a,c)(b,c): side 1 reads 'ab', side 2 reads 'cc'
    pairs = (PairLetter("a", "c"), PairLetter("b", "c"))
    a = Automaton(pairs, 3, [(0, pairs[0], 1), (1, pairs[1], 2)], [0], [2])
    p1 = au.project(a, 1)
    p2 = au.project(a, 2)
    assert p1.alphabet == ("a", "b") and p2.alphabet == ("c",)
    assert lang(p1) == {("a", "b")}
    assert lang(p2) == {("c", "c")}
    assert au.project(a, 2, alphabet=("c", "d")).alphabet == ("c", "d")
    with pytest.raises(ValueError):
        au.project(a, 3)
    with pytest.raises(au.AlphabetMismatch):
        au.project(dfa([(0, "a", 1)], [1], 2), 1)


def test_lex_pair_automaton():
    lx = au.lex_pair_automaton(["0", "1"])
    P = PairLetter
    assert au.accepts(lx, [P("0", "1")])
    assert au.accepts(lx, [P("0", "0"), P("0", "1"), P("1", "0")])
    assert not au.accepts(lx, [P("0", "0")])
    assert not au.accepts(lx, [P("1", "0")])
    # reversed alphabet order flips the relation
    rx = au.lex_pair_automaton(["1", "0"])
    assert au.accepts(rx, [P("1", "0")])
    assert not au.accepts(rx, [P("0", "1")])


def test_transpose_and_codeterminism():
    a = dfa([(0, "a", 1), (0, "b", 1)], [1], 2)
    assert lang(au.transpose(a)) == {tuple(reversed(w)) for w in lang(a)}
    assert au.is_codeterministic(a)  # distinct letters into one state is fine
    # two sources reach state 2 on the same letter
    b = au.Automaton(("a",), 3, [(0, "a", 2), (1, "a", 2)], {0, 1}, {2})
    assert not au.is_codeterministic(b)
    assert au.is_codeterministic(dfa([(0, "a", 1)], [1], 2))


# --- counting and spectral data ----------------------------------------------


def test_count_series_fibonacci():
    # no two consecutive 'b': counts follow the Fibonacci recurrence
    a = dfa([(0, "a", 0), (0, "b", 1), (1, "a", 0)], [0, 1], 2)
    cs = au.count_series(a, 10)
    for n in range(2, 11):
        assert cs[n] == cs[n - 1] + cs[n - 2]
    assert au.char_poly(a) == (-1, -1, 1)
    lo, hi = au.dominant_eigenvalue(a)
    phi = Fraction(1618033988749895, 10**15)
    assert abs(Fraction((lo + hi), 2) - phi) < Fraction(1, 10**9)
    assert hi - lo <= Fraction(2, 10**10)


def test_dominant_eigenvalue_reducible():
    # adjacency [[2,1],[0,1]]: power iteration residuals stall here, the
    # exact char-poly route must still return 2
    a = Automaton(("a", "b", "c"), 2,
                  [(0, "a", 0), (0, "b", 0), (0, "c", 1), (1, "a", 1)],
                  [0], [1])
    lo, hi = au.dominant_eigenvalue(a)
    assert lo <= 2 <= hi and hi - lo <= Fraction(1, 10**9)


def test_dominant_eigenvalue_empty():
    a = dfa([], [], 1)
    assert au.dominant_eigenvalue(a) == (0, 0)


def test_char_poly_empty():
    assert au.char_poly(Automaton(SIGMA, 0, [], [], [])) == (1,)


# --- growth kernels against sympy oracles --------------------------------------


def _oracle_char_poly(a):
    n = a.n_states
    dm = DomainMatrix([[ZZ(v) for v in row] for row in au.adjacency(a)], (n, n), ZZ)
    return tuple(int(c) for c in reversed(dm.charpoly()))


def _oracle_enclosure(cp, tol):
    # largest-upper-end interval of every real root of the squarefree part
    x = Symbol("x")
    p = Poly(list(reversed(cp)), x, domain="QQ")
    p = p.quo(p.gcd(p.diff(x)))
    eps = Fraction(tol) / 4
    ivs = p.intervals(eps=Rational(eps.numerator, eps.denominator))
    if not ivs:
        return (0, 0)
    (lo, hi), _ = max(ivs, key=lambda iv: iv[0][1])
    return (Fraction(int(lo.p), int(lo.q)), Fraction(int(hi.p), int(hi.q)))


def _count_automaton(n, edges):
    """Automaton whose adjacency matrix counts the (p, q) pairs in ``edges``:
    a repeated pair becomes parallel edges on distinct letters."""
    transitions, seen = [], {}
    for (p, q) in edges:
        k = seen[(p, q)] = seen.get((p, q), -1) + 1
        transitions.append((p, k, q))
    letters = range(max(seen.values(), default=0) + 1)
    return Automaton(letters, n, transitions, [0], list(range(n)))


def _count_automata():
    rng = random.Random(20261018)
    cases = []
    for _ in range(40):  # parallel edges and all-zero rows
        n = rng.randint(1, 12)
        sinks = {s for s in range(n) if rng.random() < 0.2}
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 3 * n))]
        cases.append(_count_automaton(n, [e for e in edges if e[0] not in sinks]))
    for _ in range(10):  # nilpotent: strictly upper triangular
        n = rng.randint(2, 10)
        edges = [(p, q) for p in range(n) for q in range(p + 1, n) if rng.random() < 0.5]
        cases.append(_count_automaton(n, edges))
    for _ in range(20):  # block triangular: columns < cut vanish below row cut
        n = rng.randint(3, 12)
        cut = rng.randint(1, n - 2)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(3 * n)]
        cases.append(_count_automaton(n, [(p, q) for (p, q) in edges
                                          if p < cut or q >= cut]))
    for rho in (1, 3):  # rho * I: (x - rho)^n has the largest coefficients
        cases.append(_count_automaton(12, [(s, s) for s in range(12)] * rho))
    for runs in (1, 1, 2, 3, 3, 5, 8, 12):  # sparse, out-degree <= 3
        cases.append(_count_automaton(*_sparse_blocks(rng, rng.randint(20, 60), runs)))
    # singletons with self-loops beside a 2-cycle and a loopless singleton
    cases.append(_count_automaton(5, [(0, 0), (0, 0), (0, 1), (1, 2), (2, 1), (2, 3),
                                      (3, 3), (3, 4)]))
    for b, rho in ((2, 3), (5, 2), (7, 3), (4, 1)):
        # a b-cycle of rho parallel arcs: M^b = rho^b I, the slot bound
        cases.append(_count_automaton(b, [(s, (s + 1) % b) for s in range(b)] * rho))
    return cases


def _sparse_blocks(rng, n, runs):
    """n states cut into ``runs`` runs of consecutive states.  Each run of two
    or more states is a cycle, so the runs are the strongly connected blocks;
    the other arcs stay in their run or go to a later one, at most three
    arcs leave a state."""
    cuts = [0] + sorted(rng.sample(range(1, n), runs - 1)) + [n]
    edges = []
    for lo, hi in zip(cuts, cuts[1:]):
        for s in range(lo, hi):
            arcs = [(s, lo if s == hi - 1 else s + 1)] if hi - lo > 1 else []
            for _ in range(rng.randint(0, 3 - len(arcs))):
                arcs.append((s, rng.randrange(lo, hi if rng.random() < 0.6 else n)))
            edges += arcs
    return n, edges


def _blocks(m):
    """The strongly connected blocks of the count matrix m, by Warshall's
    transitive closure."""
    n = len(m)
    r = [{s} | {t for t in range(n) if m[s][t]} for s in range(n)]
    for k in range(n):
        for s in range(n):
            if k in r[s]:
                r[s] |= r[k]
    return {frozenset(t for t in r[s] if s in r[t]) for s in range(n)}


def _mat_pow(m, k):
    n = len(m)
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(k):
        p = [[sum(p[i][t] * m[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return p


def _fixture_reduced_automata():
    out = []
    for name in ["intro", "pisot_x3-x-1", "kenyon_3_8", "transc_1_over_X2+X+1"]:
        rel = build_relation_automaton(load_context(name))
        for order in ("lex", "revlex"):
            out.append(au.trim(build_reduced_automaton(rel, order)))
    return out


@pytest.fixture(scope="module")
def spectral_cases():
    return _count_automata() + _fixture_reduced_automata()


def test_count_automata_cover_edge_cases():
    cases = _count_automata()
    mats = [au.adjacency(a) for a in cases]
    assert any(x > 1 for m in mats for row in m for x in row)  # parallel edges
    assert any(not any(row) for m in mats for row in m)  # all-zero rows
    assert any(a.transitions and _oracle_char_poly(a) == (0,) * a.n_states + (1,)
               for a in cases)  # a nonzero nilpotent matrix
    # block triangular: columns < c vanish below row c
    assert any(all(m[i][j] == 0 for i in range(c, len(m)) for j in range(c))
               for m in mats for c in range(1, len(m) - 1))
    blocks = [_blocks(m) for m in mats]
    sparse = [bl for m, bl in zip(mats, blocks) if len(m) >= 20 and max(map(sum, m)) <= 3]
    assert any(len(bl) == 1 for bl in sparse)  # one block of 20 or more states
    assert any(sum(len(b) > 1 for b in bl) >= 3 for bl in sparse)  # several blocks
    assert any(m[s][s] and frozenset({s}) in bl
               for m, bl in zip(mats, blocks) for s in range(len(m)))  # a looped singleton
    # rho parallel b-cycles: an entry of M^b is rho^b, the packed slot's bound
    assert {(len(m), sum(m[0])) for m in mats
            if len(m) > 1 and len(set(map(sum, m))) == 1
            and _mat_pow(m, len(m)) == [[sum(m[0]) ** len(m) * (i == j) for j in range(len(m))]
                                        for i in range(len(m))]} >= {(2, 3), (5, 2), (7, 3)}


def _base3_reduced(ps):
    """Trimmed lex reduced automata of beta = 3 with digits {0, p, 17}."""
    for rel in _base3_relations(ps):
        yield au.trim(build_reduced_automaton(rel, "lex"))


def test_char_poly_matches_berkowitz(spectral_cases):
    # the benchmark's five contexts and {0, 6, 17}, one block of 146 states
    large = list(_base3_reduced((2, 8, 9, 12, 15, 6)))
    assert max(a.n_states for a in large) == 146
    for a in spectral_cases + large:
        assert au.char_poly(a) == _oracle_char_poly(a), au.adjacency(a)


def test_components_match_reachability():
    # each component is the set of nodes that reach and are reached from
    # one of its nodes; a long cycle needs no recursion
    rng = random.Random(11)
    graphs = [[[rng.randrange(n) for _ in range(rng.randint(0, 3))] for _ in range(n)]
              for n in [rng.randint(0, 14) for _ in range(500)]]
    graphs.append([[i + 1] for i in range(9999)] + [[0]])
    for succ in graphs:
        pred = [[] for _ in succ]
        for p, qs in enumerate(succ):
            for q in qs:
                pred[q].append(p)
        got = au._components(succ)
        assert sorted(q for block in got for q in block) == list(range(len(succ)))
        for block in got:
            assert set(block) == au.reach(block[:1], succ) & au.reach(block[:1], pred)
    assert max(map(len, got)) == 10000


def test_char_poly_raises_on_an_inexact_newton_identity(monkeypatch):
    # a 2-cycle whose first trace reads 1, not 0: 2 c_2 = -(p_2 + c_1 p_1)
    # is then odd
    monkeypatch.setattr(au, "rshift", lambda x, s: x >> s or 1)
    with pytest.raises(ArithmeticError, match="Newton identity 2 is not exact"):
        au.char_poly(_count_automaton(2, [(0, 1), (1, 0)]))


@pytest.fixture(params=[1e-10, 1e-13, 1e-16])
def tol(request, monkeypatch):
    """The enclosure width as a float: at 1e-10 ``perron_enclosure``'s own,
    narrower ones set on the private width its refinement reads, so that the
    refinement runs deeper."""
    if request.param != 1e-10:
        monkeypatch.setattr(au, "_ENCLOSURE_WIDTH", Fraction(request.param) / 4)
    return request.param


def test_perron_enclosure_matches_all_root_isolation(spectral_cases, tol):
    for a in spectral_cases:
        cp = _oracle_char_poly(a)
        assert au.perron_enclosure(cp) == _oracle_enclosure(cp, tol), cp


def _polys_with_zero_root(seed, count):
    """Seeded integer polynomials, constant term first, with a factor x^k
    (k = 0..6) times a product of small factors, some repeated, times a
    content of either sign."""
    rng = random.Random(seed)
    for _ in range(count):
        f = [rng.choice([1, 2, -1, -3])]
        for _ in range(rng.randint(0, 4)):
            g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 3)]
            for _ in range(rng.choice([1, 1, 2, 3])):
                f = [sum(f[j] * g[i - j] for j in range(len(f)) if 0 <= i - j < len(g))
                     for i in range(len(f) + len(g) - 1)]
        yield (0,) * rng.randint(0, 6) + tuple(f)


def test_enclosure_drops_the_zero_root_before_the_squarefree_part(
        refinement_char_polys, monkeypatch):
    # perron_enclosure drops the root 0 before the squarefree part: f must be
    # the squarefree part of the whole polynomial with the root 0 dropped after
    seen = []
    monkeypatch.setattr(au, "_largest_positive_root",
                        lambda f: seen.append(list(f)) or None)
    cps = list(refinement_char_polys) + [(0,), (0, 0, 0), ()]
    cps += [au.char_poly(a) for a in _base3_reduced((3, 6, 14))]
    cps += list(_polys_with_zero_root(20261020, 300))
    assert sum(1 for cp in cps if cp and not cp[0]) >= 300
    for cp in cps:
        seen.clear()
        assert au.perron_enclosure(cp) == (0, 0)
        g = [ZZ(c) for c in reversed(poly_trim(cp))]
        assert seen == [au._drop_zero_root(dup_sqf_part(g, ZZ))], cp


def _close_root_char_poly(n):
    """(x - 2)(x^n - 2x^(n-1) - 1), constant term first: its Perron root lies
    about 2^(1-n) above the root 2, so refinement takes many small steps."""
    q = [-1] + [0] * (n - 2) + [-2, 1]
    return tuple(x - 2 * y for x, y in zip([0] + q, q + [0]))


@pytest.fixture(scope="module")
def refinement_char_polys(spectral_cases):
    """The spectral cases, the lex and revlex reduced automata of the
    buildable fixtures and of the benchmark's base-3 digits {0, p, 17}
    contexts, and the close-root family for n = 10..16."""
    cps = [_oracle_char_poly(a) for a in spectral_cases]
    contexts = [load_context(name) for name in buildable_fixture_names()]
    contexts += [context_from_config({"beta": {"minpoly": [-3, 1]}, "digits": [0, p, 17]})
                 for p in (2, 8, 9, 12, 15)]
    for ctx in contexts:
        rel = build_relation_automaton(ctx, force=True)
        for order in ("lex", "revlex"):
            cps.append(au.char_poly(au.trim(build_reduced_automaton(rel, order))))
    cps += [_close_root_char_poly(n) for n in range(10, 17)]
    return cps


def test_close_root_family_has_close_roots():
    for n in range(10, 17):
        lo, hi = au.perron_enclosure(_close_root_char_poly(n))
        assert 2 < lo and hi - 2 < Fraction(2, 2 ** n)


def test_refinement_matches_sympy(refinement_char_polys, tol, monkeypatch):
    # every refinement perron_enclosure runs must end on sympy's polynomial
    # and Moebius map, which fix the enclosure bytes
    refine = au._refine_root
    runs = []

    def checked(f, m, eps):
        got = refine(f, m, eps)
        g, want = dup_inner_refine_real_root(
            f, m, ZZ, eps=QQ(eps.numerator, eps.denominator), mobius=True)
        assert got == (list(g), tuple(map(int, want))), (f, m)
        runs.append((m, eps))
        return got

    monkeypatch.setattr(au, "_refine_root", checked)
    for cp in refinement_char_polys:
        au.perron_enclosure(cp)
    assert len(runs) >= 200 and {eps for _, eps in runs} == {Fraction(tol) / 4}


def test_refinement_steps_match_sympy(refinement_char_polys, monkeypatch):
    # step by step too: a step that differs can still end on the same map.
    # The split-point products put exact roots where the shift by one lands,
    # the step's exit on f(1) = 0.  Its other exact exit, f(A) = 0 after the
    # LMQ shift by A, needs a bound A equal to a root, which LMQ never gives:
    # its shares of the positive terms cover the negative ones with room.
    step = au._refine_step
    steps, at_one = [], []

    def checked(f, *m):
        got = step(f, *m)
        g, want = dup_step_refine_real_root(f, m, ZZ)
        assert got == (list(g), *map(int, want)), (f, m)
        steps.append(m)
        if got[1] == got[2] and got[3] == got[4]:  # an exact root
            bound = dup_root_lower_bound(f, ZZ)
            shift = int(bound) if bound is not None and bound >= 1 else 0
            at_one.append(dup_eval(f, shift + 1, ZZ) == 0)
        return got

    monkeypatch.setattr(au, "_refine_step", checked)
    split_points = [tuple(reversed(f)) for f in _split_point_polys(20261026, 200)]
    for cp in list(refinement_char_polys) + split_points:
        au.perron_enclosure(cp)
    assert len(steps) >= 8000, len(steps)
    assert sum(at_one) >= 20, at_one


def _lmq_polys(seed, count):
    """Seeded integer polynomials, leading coefficient first, for the LMQ
    bound: every fifth one has only positive coefficients (no bound), every
    fifth a single negative one, every fifth a negative leading coefficient,
    and the rest random signs.  Coefficients are small, above 2**1024, or
    2**j +- 1 with j <= 2000, and some are 0, the constant term too."""
    rng = random.Random(seed)

    def coeff():
        kind = rng.random()
        if kind < 0.4:
            return rng.randint(1, 40)
        if kind < 0.6:
            return rng.getrandbits(rng.randint(1025, 1200)) | 1 << 1024
        return (1 << rng.randint(1, 2000)) + rng.choice((-1, 1))

    for i in range(count):
        n = rng.randint(1, 12)
        f = [coeff() for _ in range(n + 1)]
        if i % 5 == 1:
            k = rng.randint(0, n)
            f[k] = -f[k]
        elif i % 5 > 1:
            f = [rng.choice((-1, 1)) * c for c in f]
            if i % 5 == 2:
                f[0] = -abs(f[0])
        for _ in range(rng.randint(0, n // 2)):
            f[rng.randint(1, n)] = 0
        yield f


def test_lmq_exponent_matches_sympy(monkeypatch):
    # sympy's bound is 2**k or below 1; its logs are int(math.log(c, 2)),
    # which c.bit_length() - 1 is not: for 2**60 - 1 they give 60 and 59
    polys = list(_lmq_polys(20261027, 1200))

    def exponent(f):
        bound = dup_root_lower_bound(f, ZZ)
        a = int(bound) if bound is not None else 0
        return a.bit_length() - 1

    want = list(map(exponent, polys))
    assert list(map(au._lmq_exponent, polys)) == want
    assert sum(k >= 0 for k in want) >= 200 and sum(k < 0 for k in want) >= 200
    assert sum(all(c >= 0 for c in f) for f in polys) >= 200
    assert sum(f[0] < 0 for f in polys) >= 200
    assert sum(sum(c < 0 for c in f) == 1 for f in polys) >= 200
    assert sum(0 in f for f in polys) >= 200 and sum(f[-1] == 0 for f in polys) >= 20
    assert sum(max(map(abs, f)) > 1 << 1024 for f in polys) >= 200
    assert int(math.log(2 ** 60 - 1, 2)) == 60 != (2 ** 60 - 1).bit_length() - 1
    monkeypatch.setattr(type(ZZ), "log", lambda self, a, b: int(a).bit_length() - 1)
    assert list(map(exponent, polys)) != want


def _random_squarefree_polys(seed, count):
    """Seeded squarefree integer polynomials, leading coefficient first,
    without the root 0: products of rational linear factors (exact roots),
    and dense or sparse ones (zero coefficients) of mixed sizes."""
    rng = random.Random(seed)
    while count:
        deg = rng.randint(1, 10)
        if rng.random() < 0.3:
            f = [1]
            for _ in range(deg):
                lin = [rng.randint(1, 8), -rng.randint(-20, 40)]
                f = [a * lin[0] + b * lin[1] for a, b in zip(f + [0], [0] + f)]
        else:
            bound = rng.choice([2, 10, 1000, 10 ** 12])
            f = [rng.randint(1, bound)] + [rng.randint(-bound, bound) for _ in range(deg)]
            for _ in range(rng.randint(0, deg) if rng.random() < 0.3 else 0):
                f[rng.randint(1, deg)] = 0
        f = dup_sqf_part(f, ZZ)
        while f and not f[-1]:
            f = f[:-1]
        if len(f) > 1:
            count -= 1
            yield f


def test_refinement_matches_sympy_on_every_positive_root():
    rng = random.Random(7)
    refined = 0
    for f in _random_squarefree_polys(20261019, 400):
        for g, m in dup_inner_isolate_real_roots(f, ZZ):
            eps = Fraction(rng.choice([1e-1, 3e-7, 1e-10, 1e-16])) / 4
            want_f, want_m = dup_inner_refine_real_root(
                g, m, ZZ, eps=QQ(eps.numerator, eps.denominator), mobius=True)
            assert au._refine_root(g, m, eps) == (list(want_f), tuple(want_m)), (f, m)
            refined += 1
    assert refined >= 600, refined


def _squarefree_part(cp):
    """The polynomial whose positive roots ``perron_enclosure`` isolates:
    the squarefree part of ``cp`` (constant term first) less its root 0,
    leading coefficient first."""
    return dup_sqf_part(au._drop_zero_root([ZZ(c) for c in reversed(poly_trim(cp))]), ZZ)


def _split_point_polys(seed, count):
    """Seeded products of distinct rational linear factors q x - p (leading
    coefficient first) whose roots sit where the isolation's shifts land:
    powers of 2, the sums of powers of 2 that the shifts by one reach, and
    their reciprocals, times x^2 - 2 in every other product."""
    rng = random.Random(seed)
    roots = [Fraction(p, q) for p in (1, 2, 3, 4, 5, 6, 8, 9, 16, 17, 33)
             for q in (1, 2, 3, 4)]
    for i in range(count):
        f = [1, 0, -2] if i % 2 else [1]
        for r in rng.sample(roots, rng.randint(1, 6)):
            lin = [r.denominator, -r.numerator]
            f = [a * lin[0] + b * lin[1] for a, b in zip(f + [0], [0] + f)]
        yield dup_sqf_part(f, ZZ)


def test_largest_positive_root_matches_sympy(refinement_char_polys):
    # the best-first search stops early, yet isolates the largest root by
    # sympy's steps: the same polynomial and Moebius map
    polys = [_squarefree_part(cp) for cp in refinement_char_polys]
    polys += [_squarefree_part(_close_root_char_poly(n)) for n in range(14, 21)]
    for _, rel in random_nonfree_contexts()[0]:
        for order in ("lex", "revlex"):
            reduced = au.trim(build_reduced_automaton(rel, order))
            polys.append(_squarefree_part(au.char_poly(reduced)))
    polys += _random_squarefree_polys(20261024, 400)
    polys += _split_point_polys(20261025, 200)
    exact = 0
    for f in polys:
        got = au._largest_positive_root(f)
        if got is not None:
            got = (list(got[0]), tuple(got[1]))
        want = reference_largest_positive_root(f)
        assert got == want, f
        exact += want is not None and want[1][0] == want[1][1]
    assert len(polys) >= 850 and exact >= 200, (len(polys), exact)


# --- serialization -----------------------------------------------------------


def test_json_roundtrip_plain_and_pairs():
    a = dfa([(0, "a", 1), (1, "b", 0)], [1], 2)
    r = au.from_json(json.loads(json.dumps(au.to_json(a))))
    assert au.equivalent(a, r)
    lx = au.lex_pair_automaton(["0", "1"])
    r2 = au.from_json(json.loads(json.dumps(au.to_json(lx))))
    assert au.equivalent(lx, r2)
    assert isinstance(r2.alphabet[0], PairLetter)


def test_from_json_malformed():
    with pytest.raises(ValueError):
        au.from_json({"alphabet": ["a"]})
    with pytest.raises(ValueError):
        au.from_json({"alphabet": ["a"], "states": [{"label": "0"}],
                      "initials": [0], "finals": [], "transitions": [[0, 5, 0]]})


def test_to_dot():
    a = dfa([(0, "a", 1), (0, "b", 1)], [1], 2)
    dot = au.to_dot(a, "T")
    assert dot.startswith("digraph T {")
    assert "doublecircle" in dot and "style=bold" in dot
    assert '"a ; b"' in dot  # grouped edge labels


@pytest.mark.parametrize("name, header", [
    ("_T9", "digraph _T9 {"),
    ("mult_-1", 'digraph "mult_-1" {'),
    ("9T", 'digraph "9T" {'),
    ('a"b\\c', 'digraph "a\\"b\\\\c" {'),
])
def test_to_dot_quotes_a_name_that_is_no_identifier(name, header):
    assert au.to_dot(dfa([], [0], 1), name).startswith(header + "\n")


def test_invalid_construction():
    with pytest.raises(ValueError):
        Automaton(SIGMA, 1, [(0, "a", 5)], [0], [])
    with pytest.raises(ValueError):
        Automaton(SIGMA, 1, [], [3], [])
    with pytest.raises(ValueError, match="not in the alphabet"):
        Automaton(("a",), 1, [(0, "b", 0)], [0], [0])
    with pytest.raises(ValueError, match="repeated letter"):
        Automaton(("a", "a"), 1, [(0, "a", 0)], [0], [0])


# --- randomized invariants ---------------------------------------------------


def test_random_language_invariants():
    rng = random.Random(20240817)
    full = {w for k in range(6) for w in iproduct(SIGMA, repeat=k)}
    for _ in range(60):
        a = random_automaton(rng)
        b = random_automaton(rng)
        La, Lb = lang(a), lang(b)
        assert lang(au.determinize(a)) == La
        assert lang(au.trim(a)) == La
        m = au.minimize(a)
        assert lang(m) == La
        m2 = au.minimize(m)
        assert (m2.n_states, m2.transitions, m2.finals) == \
            (m.n_states, m.transitions, m.finals)
        c = au.complement(a)
        assert lang(c) == full - La
        # every complement is minimal and canonical, labels included
        mc = au.minimize(c)
        assert (c.n_states, c.initials, c.finals, c.transitions, c.labels) == \
            (mc.n_states, mc.initials, mc.finals, mc.transitions, mc.labels)
        assert same_dfa(c, au.complement(m))
        assert lang(au.intersect(a, b)) == La & Lb
        # intersect maps letter indices between the two alphabets
        b_rev = Automaton(tuple(reversed(b.alphabet)), b.n_states, b.transitions,
                          b.initials, b.finals)
        assert lang(au.intersect(a, b_rev)) == La & Lb
        assert {w for w in full if au.accepts(a, w)} == La
        cs = au.count_series(a, 4)
        for k in range(5):
            assert cs[k] == sum(1 for w in La if len(w) == k)


LIVE_PAIR_FIXTURES = ["intro", "kenyon_3_8", "pisot_x3-x-1", "transc_1_over_X2+X+1"]


def test_live_pairs_matches_fixpoint():
    cases = [(name, build_relation_automaton(load_context(name), force=True))
             for name in LIVE_PAIR_FIXTURES]
    cases += random_relation_automata()
    assert len(cases) >= 14
    for case, rel in cases:
        for order in ("lex", "revlex"):
            reduced = build_reduced_automaton(rel, order)
            live = au.pair_tables(reduced, rel.automaton)[0]
            assert len(live) == rel.automaton.n_states * reduced.n_states, case
            assert {i for i, bit in enumerate(live) if bit} == \
                coreachable_pairs(reduced, rel.automaton), (case, order)

    kenyon_reduced = build_reduced_automaton(cases[1][1], "lex")
    with pytest.raises(ValueError, match="relation letters"):
        au.pair_tables(kenyon_reduced, cases[0][1].automaton)
