import json
import math
import random
from operator import itemgetter
from pathlib import Path

import mpmath as mp
from mpmath.libmp import NoConvergence, from_int
from sympy import ZZ, Poly, Symbol
from sympy.polys.rootisolation import dup_inner_isolate_real_roots

from betauto.automata import (
    Automaton,
    _mobius_interval,
    intersect,
    lex_pair_automaton,
    minimize,
    pair_tables,
    project,
    transpose,
    trim,
)
from betauto.numfield import (
    NotSquarefree,
    NumFieldError,
    _disk_radius,
    context_from_config,
    make_context,
)
from betauto.relations import CapExceeded, build_relation_automaton

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "betauto" / "fixtures"


def fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.json"


def load_config(name: str) -> dict:
    return json.loads(fixture_path(name).read_text())


def load_context(name: str):
    return context_from_config(load_config(name))


BINARY_PISOT = [
    "pisot_x2-x-1",
    "pisot_x3-x2-x-1",
    "pisot_x3-x-1",
    "pisot_x4-x3-x2-x-1",
    "pisot_x4-x3-x2+x-1",
]

KENYON_PAIRS = [
    (p, q) for q in range(2, 12) for p in range(1, q) if math.gcd(p, q) == 1
]

TRANSC_NAMES = [
    "1_over_X", "1_over_X+1", "1_over_X2-X", "1_over_X2-X+1", "1_over_X2",
    "1_over_X2+1", "1_over_X2+X", "1_over_X2+X+1", "X-1_over_X2",
    "X-1_over_X2+X-1", "1_over_X3-X2-X", "1_over_X3-X2", "1_over_X3-X2+1",
    "1_over_X3-X2+X",
]


def buildable_fixture_names():
    """Every bundled config whose relation automaton closes under the default
    caps (the Salem config is excluded: it is blocked and caps out)."""
    names = ["intro"]
    names += [f"kenyon_{p}_{q}" for p, q in KENYON_PAIRS]
    names += BINARY_PISOT
    names += [f"transc_{n}" for n in TRANSC_NAMES]
    names.append("free_x4-3x3-3x2-3x+1")  # blocked but closes immediately
    return names


def random_algebraic_configs(seed: int, count: int = 20):
    """Seeded (minpoly, digits) pairs: irreducible monic bases of degree 2..4
    with digits {0} plus one or two small nonzero integers."""
    rng = random.Random(seed)
    x = Symbol("x")
    for _ in range(count):
        while True:
            minpoly = [rng.randint(-3, 3) for _ in range(rng.randint(2, 4))] + [1]
            if Poly(minpoly[::-1], x).is_irreducible:
                break
        digits = [0] + rng.sample([c for c in range(-3, 4) if c], rng.randint(1, 2))
        yield minpoly, digits


def random_relation_automata():
    """The seeded contexts of the relation cross-check in test_relations whose
    relation automaton closes within 50 states; the tighter state cap keeps
    the reduced automata small (x^4-x^3-3x^2-x+2 with digits {0,-1,1} has 55
    relation states but 6034 reduced states)."""
    for minpoly, digits in random_algebraic_configs(5):
        try:
            ctx = make_context(minpoly, digits)
        except NumFieldError:
            continue
        if ctx.blocked:
            continue
        try:
            yield (minpoly, digits), build_relation_automaton(ctx, max_states=50)
        except CapExceeded:
            continue


def random_nonfree_contexts(seed: int = 29, count: int = 60):
    """Seeded contexts that are non-free by construction.

    Draws a random irreducible monic base beta^d = c_{d-1} beta^(d-1) + ...
    + c_0 (degree 2..4, |c_i| <= 3) and takes the digits {0, 1} and the c_i.
    Then 1 0^d and 0 c_{d-1} ... c_0 define the same map.  Returns the list
    of ((c_{d-1}, ..., c_0), relation automaton) for the distinct contexts
    that are not blocked and close within 50 relation states, and the number
    of distinct contexts skipped, by reason."""
    rng = random.Random(seed)
    x = Symbol("x")
    cases, seen, skipped = [], set(), {"blocked": 0, "capped": 0}
    for _ in range(count):
        while True:
            d = rng.randint(2, 4)
            c = [rng.randint(-3, 3) for _ in range(d)]  # c[i] is c_i
            minpoly = [-ci for ci in c] + [1]
            if Poly(minpoly[::-1], x).is_irreducible:
                break
        digits = [0, 1] + [ci for ci in dict.fromkeys(reversed(c)) if ci not in (0, 1)]
        if (tuple(minpoly), tuple(digits)) in seen:
            continue
        seen.add((tuple(minpoly), tuple(digits)))
        ctx = make_context(minpoly, digits)
        if ctx.blocked:
            skipped["blocked"] += 1
            continue
        try:
            cases.append((tuple(reversed(c)), build_relation_automaton(ctx, max_states=50)))
        except CapExceeded:
            skipped["capped"] += 1
    return cases, skipped


# extra lines for the terminal summary, e.g. how many random contexts a test skipped
REPORT = []


def random_automaton(rng: random.Random, max_states: int = 5, alphabet=("a", "b")) -> Automaton:
    n = rng.randint(1, max_states)
    transitions = set()
    for _ in range(rng.randint(0, 3 * n)):
        transitions.add((rng.randrange(n), rng.choice(alphabet), rng.randrange(n)))
    initials = {s for s in range(n) if rng.random() < 0.4} or {0}
    finals = {s for s in range(n) if rng.random() < 0.4}
    return Automaton(alphabet, n, transitions, initials, finals)


def subset_construction(a: Automaton) -> Automaton:
    """Plain subset construction, with no pruning: the reachable nonempty
    subsets of states in breadth-first order from the initial subset,
    letters in alphabet order.  It reads ``a.transitions`` only, so it
    shares no code with ``automata.determinize``."""
    succ = {}
    for (p, x, q) in a.transitions:
        succ.setdefault((p, x), set()).add(q)
    start = frozenset(a.initials)
    if not start:
        return Automaton(a.alphabet, 0, [], [], [])
    order = {start: 0}
    subsets = [start]
    transitions = []
    for i, s in enumerate(subsets):
        for x in a.alphabet:
            t = frozenset().union(*(succ.get((p, x), ()) for p in s))
            if t:
                if t not in order:
                    order[t] = len(subsets)
                    subsets.append(t)
                transitions.append((i, x, order[t]))
    finals = [i for i, s in enumerate(subsets) if s & a.finals]
    return Automaton(a.alphabet, len(subsets), transitions, [0], finals)


def brzozowski(a: Automaton) -> Automaton:
    """Reference minimizer: Brzozowski's double reversal.  Determinizing the
    reversal of an accessible automaton gives the minimal DFA of the reversed
    language, and the last subset construction numbers its states in BFS
    order from the initial state in alphabet order, the canonical numbering
    of ``automata.minimize``."""
    return subset_construction(transpose(subset_construction(transpose(trim(a)))))


def reference_minimal(alphabet, d, final, init: int, label) -> Automaton:
    """``automata._minimal`` by plain fixpoints and plain Moore refinement.
    The states reachable from ``init`` and the states that reach a final
    state grow by sweeps over the whole table until a sweep adds none; the
    states outside either set are dropped, an edge into one becomes -1, and
    a dead initial state gives no states.  Then missing edges go to a sink
    at index n, which ``-1`` also reaches by list indexing, the seed is
    final/non-final, and every round re-signs every state from the previous
    round's classes through k-wide tuples.  A class is named by its first
    state, and the classes are numbered by breadth-first search from the
    initial class, letters in alphabet order.  ``_minimal`` keeps the
    unreachable states instead, which is sound only when they come after
    the reachable ones; dropping them here checks that on every table the
    tests hand over."""
    fwd, bwd = {init}, {p for p in range(len(d)) if final[p]}
    grown = True
    while grown:
        grown = False
        for p, row in enumerate(d):
            for q in row:
                if q >= 0 and p in fwd and q not in fwd:
                    fwd.add(q)
                    grown = True
                if q >= 0 and q in bwd and p not in bwd:
                    bwd.add(p)
                    grown = True
    keep = sorted(fwd & bwd)
    if init not in keep:
        return Automaton(alphabet, 0, [], [], [])
    idx = {p: i for i, p in enumerate(keep)}
    d = [[idx.get(q, -1) for q in d[p]] for p in keep]
    final = [final[p] for p in keep]
    init = idx[init]
    n = len(d)
    succ = [itemgetter(*col, -1) for col in zip(*d)]
    cls = list(final) + [False]
    count = len(set(cls))
    while True:
        ids = {}
        cls = list(map(ids.setdefault, zip(cls, *[f(cls) for f in succ]), range(n + 1)))
        if len(ids) == count:
            break
        count = len(ids)
    # every trimmed state accepts some word, so none shares the sink's class,
    # and every class is reached from the initial one
    reps = [cls[init]]
    order = {reps[0]: 0}
    transitions = []
    for i, c in enumerate(reps):
        for x, q in zip(alphabet, d[c]):
            if q >= 0:
                t = cls[q]
                j = order.get(t)
                if j is None:
                    j = order[t] = len(reps)
                    reps.append(t)
                transitions.append((i, x, j))
    return Automaton(alphabet, len(reps), transitions, [0],
                     [i for i, c in enumerate(reps) if final[c]],
                     [label(keep[c]) for c in reps])


def reducible_words(rel, order):
    """The NFA of the reducible words that ``build_reduced_automaton``
    minimizes."""
    names = rel.context.digit_names
    ranked = names if order == "lex" else names[::-1]
    smaller = intersect(lex_pair_automaton(ranked), rel.automaton)
    return project(smaller, side=2, alphabet=tuple(names))


def same_dfa(m, ref) -> bool:
    """Identical canonical DFAs, labels aside."""
    return (m.n_states, m.initials, m.finals, m.transitions) == \
        (ref.n_states, ref.initials, ref.finals, ref.transitions)


def coreachable_pairs(a, rel):
    """Pair indices r * a.n_states + p from which some word of pair letters
    leads ``rel`` and ``a`` (reading the right component of each letter) into
    a final pair: a plain fixpoint over the transition sets."""
    live = {(r, p) for r in rel.finals for p in a.finals}
    grown = True
    while grown:
        grown = False
        for r, letter, r2 in rel.transitions:
            for p, c, p2 in a.transitions:
                if c == letter[1] and (r2, p2) in live and (r, p) not in live:
                    live.add((r, p))
                    grown = True
    return {r * a.n_states + p for r, p in live}


def reference_multiplier(rel, reduced, g) -> Automaton:
    """The multiplier of ``structure.build_multiplier`` by its former path:
    the same breadth-first search over (u or -1, plus-flag, v, r) states
    builds an ``Automaton`` of every search state, each labelled, which
    ``automata.minimize`` trims, refines and renumbers."""
    sigma = reduced.alphabet
    if g not in sigma:
        raise ValueError(f"unknown digit {g!r}")
    live_vr = pair_tables(reduced, rel.automaton)[0]
    alphabet = rel.automaton.alphabet
    k = len(sigma)
    gi = sigma.index(g)
    rel_finals = rel.automaton.finals
    red_finals = reduced.finals
    n_red = reduced.n_states
    next_red = reduced.ddelta()
    rel_out = [[(*divmod(xy, k), r2) for xy, r2 in enumerate(row) if r2 >= 0]
               for row in rel.automaton.ddelta()]
    queue = [(u, False, u, r) for u in reduced.initials for r in rel.automaton.initials]
    order = {s: i for i, s in enumerate(queue)}
    transitions = []
    for src, (u, _, v, r) in enumerate(queue):
        if u < 0:
            continue
        nu, nv = next_red[u], next_red[v]
        u_final = u in red_finals
        for (x, y, r2) in rel_out[r]:
            v2 = nv[y]
            if v2 < 0 or not live_vr[r2 * n_red + v2]:
                continue
            u2 = nu[x]
            plus = x == gi and u_final and r2 in rel_finals
            if u2 < 0 and not plus:
                continue
            t = (u2, plus, v2, r2)
            j = order.get(t)
            if j is None:
                j = order[t] = len(queue)
                queue.append(t)
            transitions.append((src, alphabet[x * k + y], j))
    rel_labels = rel.automaton.labels
    finals = [i for i, (u, plus, v, r) in enumerate(queue)
              if plus and v in red_finals and r in rel_finals]
    labels = [f"{'' if u < 0 else u}{'+' if plus else ''},{v}|{rel_labels[r]}"
              for (u, plus, v, r) in queue]
    return minimize(Automaton(alphabet, len(queue), transitions, [0] if queue else [],
                              finals, labels))


def random_palindromic_polys(seed: int, count: int = 100):
    """Seeded irreducible monic palindromic integer polynomials (constant
    first) of even degree 2..8, the only degrees in which a palindromic
    polynomial can be irreducible and have a root on the unit circle."""
    rng = random.Random(seed)
    x = Symbol("x")
    for _ in range(count):
        while True:
            m = rng.randint(1, 4)
            half = [1] + [rng.randint(-4, 4) for _ in range(m)]
            poly = half + half[-2::-1]
            if Poly(poly[::-1], x).is_irreducible:
                break
        yield poly


def reference_root_disks(coeffs, dps: int):
    """``numfield._root_disks`` by its former path: ``mp.polyroots`` from
    mpmath's own starting points, with no seeds, the coefficients converted
    exactly and the same disks around the roots it returns."""
    d = len(coeffs) - 1
    with mp.workdps(dps):
        lead_first = [mp.make_mpf(from_int(int(c))) for c in reversed(coeffs)]
        try:
            roots = mp.polyroots(lead_first, maxsteps=200, extraprec=4 * dps)
        except NoConvergence:
            return None
        out = []
        for z in roots:
            pz = mp.polyval(lead_first, z)
            dpz = mp.polyval([c * (d - i) for i, c in enumerate(lead_first[:-1])], z)
            if dpz == 0:
                raise NotSquarefree("repeated root encountered in root isolation")
            cen = complex(z)
            rad = d * abs(pz / dpz) * 1.001 + mp.mpf(10) ** (5 - dps) + abs(z - cen)
            out.append((cen, max(math.nextafter(float(rad), math.inf),
                                 _disk_radius(coeffs, z, cen))))
    return out


def reference_largest_positive_root(f):
    """``automata._largest_positive_root`` by its former path: sympy isolates
    every positive root of the squarefree ``f`` (leading coefficient first)
    and the one whose interval has the largest upper end, then the largest
    lower end, is kept, as (g, m) with integer lists; ``None`` when there is
    no positive root."""
    roots = dup_inner_isolate_real_roots(f, ZZ)
    if not roots:
        return None
    g, m = max(roots, key=lambda r: _mobius_interval(r[1])[::-1])
    return list(g), tuple(map(int, m))


# growth table: (p, q) -> (printed lambda, minimal polynomial, constant first)
KENYON_TABLE = {
    (1, 3): (2.6180, [1, -3, 1]),
    (1, 4): (2.6180, [1, -3, 1]),
    (2, 5): (2.8019, [1, 3, -4, 1]),
    (1, 6): (2.7321, [-2, -2, 1]),
    (1, 7): (2.7383, [-1, 3, 1, 0, -3, 1]),
    (3, 7): (2.8794, [1, 0, -3, 1]),
    (3, 8): (2.8136, [2, -3, -2, 1]),
    (1, 9): (2.6180, [1, -3, 1]),
    (2, 9): (2.7233, [-1, 0, 3, 1, 0, -3, 1]),
    (4, 9): (2.8794, [1, 0, -3, 1]),
    (1, 10): (2.6180, [1, -3, 1]),
    (3, 10): (2.7699, [3, 6, 9, 1, -4, -2, 1]),
    (2, 11): (2.7421, [-1, 1, 1, 3, -4, 1]),
    (3, 11): (2.8073, [-1, 3, -1, -9, 0, 0, 7, 1, -4, 1]),
    (5, 11): (2.9242, [-1, 3, -13, 20, -49, 15, -32, 32, -7, 6, -5, 1]),
}

# fixture suffix -> (printed lambda, minimal polynomial, constant first)
TRANSC_TABLE = {
    "1_over_X": (2.6180, [1, -3, 1]),
    "1_over_X+1": (2.6180, [1, -3, 1]),
    "1_over_X2-X": (2.8794, [1, 0, -3, 1]),
    "1_over_X2-X+1": (2.7971, [1, -1, -2, -2, 1]),
    "1_over_X2": (2.6180, [1, -3, 1]),
    "1_over_X2+1": (2.6180, [1, -3, 1]),
    "1_over_X2+X": (2.8794, [1, 0, -3, 1]),
    "1_over_X2+X+1": (2.7693, [-1, 1, -3, 1]),
    "X-1_over_X2": (2.7971, [1, -1, -2, -2, 1]),
    "X-1_over_X2+X-1": (2.8794, [1, 0, -3, 1]),
    "1_over_X3-X2-X": (2.9615, [1, 0, 0, -3, 1]),
    "1_over_X3-X2": (2.8584, [-1, 0, 1, 3, 0, 0, -3, 1]),
    "1_over_X3-X2+1": (2.8396, [1, 0, -3, -3, 4, 1, 3, 0, 0, -3, 1]),
    "1_over_X3-X2+X": (2.8444, [-2, 1, 8, -6, 0, 6, -16, 0, 7, -2, 7, -2, -3, 1]),
}

# the 28-step identity: sum of sign * base^(-k) equals 2b^3 - 5b^2 + b + 2
SALEM_TERMS = [
    (-1, 2), (-1, 3), (-1, 5), (-1, 6), (1, 7), (-1, 8), (-1, 12), (-1, 13),
    (-1, 14), (-1, 15), (1, 16), (1, 17), (1, 18), (-1, 19), (-1, 20),
    (1, 21), (-1, 23), (-1, 25), (-1, 26), (-1, 27), (1, 28),
]
SALEM_RHS = [2, 1, -5, 2]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the one-line acceptance verdicts and the ``REPORT`` lines where
    capture cannot hide them."""
    try:
        from test_acceptance import RESULTS
    except ImportError:
        RESULTS = []
    for title, lines in (("acceptance criteria", RESULTS), ("random contexts", REPORT)):
        if lines:
            terminalreporter.section(title)
            for line in lines:
                terminalreporter.write_line(line)
