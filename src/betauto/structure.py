"""Automatic structure: reduced words, multiplier automata, growth.

A word is *reduced* when no equivalent word of the same length precedes it
in the chosen order.  Reduced words biject with semigroup elements, so the
counting series of the reduced automaton is the growth series of the
semigroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .automata import (
    Automaton,
    char_poly,
    complement,
    count_series,
    intersect,
    lex_pair_automaton,
    live_pairs,
    minimize,
    perron_enclosure,
    project,
    trim,
)
from .numfield import BetaContext, FieldElem, fe_add, poly_divmod, poly_trim
from .relations import RelAutomaton


def build_reduced_automaton(rel: RelAutomaton, order: str = "lex",
                            max_states: int = 1_000_000) -> Automaton:
    """Minimal DFA of the reduced words.

    ``order`` ranks digits by their position in the digit list (``lex``) or
    by the reverse position (``revlex``).  A word is removed when some
    order-smaller word of the same length defines the same map, i.e. when it
    is the second component of an accepted pair of (smaller, equivalent).
    The subset construction of the reducible words can grow exponentially;
    past ``max_states`` subsets it raises ``CapExceeded``.
    """
    names = list(rel.context.digit_names)
    if order == "lex":
        ranked = names
    elif order == "revlex":
        ranked = list(reversed(names))
    else:
        raise ValueError(f"unknown order {order!r} (expected 'lex' or 'revlex')")
    smaller = intersect(lex_pair_automaton(ranked), rel.automaton)
    reducible = project(smaller, side=2, alphabet=tuple(names))
    return complement(minimize(reducible, max_states))


def build_multiplier(rel: RelAutomaton, reduced: Automaton, g) -> Automaton:
    """Minimal automaton of the pairs (u, v) of reduced words with
    v equivalent to u followed by the digit ``g``.

    The language is that of
    ``intersect(product(append_letter(reduced, g), reduced), rel.automaton)``,
    whose u-component is ``reduced`` plus the state ``+``, entered on ``g``
    from a final state, with no outgoing edges.  That is the only
    nondeterminism, so one breadth-first search over the states
    (u or -1, plus-flag, v, r) is the subset construction of the triple
    automaton: u is the ``reduced`` state, if any, and the flag says whether
    ``+`` is in the subset too.  A search state is final when its flag is
    set and v and r are final.  Letters are scanned in alphabet order and
    each state label is a function of the state, so the output does not
    depend on the string-hash seed.

    A step keeps the pair (v, r) only when it can still reach
    (final, final); ``live_pairs`` computes that set in one backward search.
    ``+`` is kept when r is final, and a step that keeps neither u nor ``+``
    is dropped.  These filters only remove triples from which no final
    triple is reachable, so the language is unchanged, and ``minimize``
    trims the rest.  No filter on the u side is needed: the relation
    automaton's only final state is 0, every diagonal letter loops on 0,
    and ``reduced`` is trimmed.  So on a plus step (r2 = 0) the u-state
    reaches a final state along diagonal letters and then ``+`` on (g, g);
    on any other step a u that cannot reach (``+``, final) never sets the
    flag, its triple is dead, and dead triples lead only to dead triples.
    The trimmed search DFA, and so the minimal one with its labels, is the
    same as with a u-side filter."""
    sigma = reduced.alphabet
    if g not in sigma:
        raise ValueError(f"unknown digit {g!r}")
    # (v, r) pairs that reach F_red x F_rel, at r * n_red + v; this also
    # checks that the relation letters are the pairs of ``sigma``
    live_vr = live_pairs(reduced, rel.automaton)
    alphabet = rel.automaton.alphabet
    k = len(sigma)
    gi = sigma.index(g)
    rel_finals = rel.automaton.finals
    red_finals = reduced.finals
    n_red = reduced.n_states
    next_red = reduced.ddelta()
    if len(reduced.initials) > 1 or len(rel.automaton.initials) > 1:
        raise ValueError("automaton is not deterministic")
    # rel_out[r] lists the edges (x, y, r2) leaving r, in alphabet order
    rel_out = [[(*divmod(xy, k), r2) for xy, r2 in enumerate(row) if r2 >= 0]
               for row in rel.automaton.ddelta()]

    queue = [(u, False, u, r) for u in reduced.initials for r in rel.automaton.initials]
    order = {s: i for i, s in enumerate(queue)}
    transitions = []
    for src, (u, _, v, r) in enumerate(queue):
        if u < 0:
            continue  # only + is left, and it has no outgoing edges
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


# ---------------------------------------------------------------------------
# growth


def _float_down(x: Fraction) -> float:
    f = float(x)
    return f if Fraction(f) <= x else math.nextafter(f, -math.inf)


def _float_up(x: Fraction) -> float:
    f = float(x)
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


def _poly_eval(coeffs, x: Fraction) -> Fraction:
    v = Fraction(0)
    for c in reversed(coeffs):
        v = v * x + c
    return v


@dataclass
class GrowthReport:
    counts: list  # big integers, lengths 0..N
    char_poly: tuple  # exact, constant term first
    lam_lo: Fraction
    lam_hi: Fraction
    pi_check: dict | None = None

    def to_json(self) -> dict:
        doc = {
            "counts": [str(c) for c in self.counts],
            "char_poly": [int(c) for c in self.char_poly],
            "lambda": {"lo": _float_down(self.lam_lo), "hi": _float_up(self.lam_hi)},
        }
        if self.pi_check is not None:
            doc["pi_check"] = self.pi_check
        return doc


def growth(reduced: Automaton, N: int = 20, candidate_pi=None) -> GrowthReport:
    """Growth data of the reduced automaton: exact counting series, exact
    characteristic polynomial of the trimmed adjacency matrix, and a
    certified enclosure of the growth rate (its largest real root).

    When ``candidate_pi`` is given (integer coefficients, constant first) the
    report records whether it divides the characteristic polynomial exactly
    and changes sign across the enclosure, which certifies the growth rate
    is a root of the candidate.  The enclosure isolates the growth rate among
    the roots of the characteristic polynomial, so of a divisor too.  A zero
    at an end of an open enclosure is another root: it counts only when the
    enclosure is exact (lo == hi)."""
    t = trim(reduced)
    counts = count_series(reduced, N)
    cp = char_poly(t)
    lo, hi = perron_enclosure(cp)
    report = GrowthReport(counts, cp, lo, hi)
    if candidate_pi is not None:
        cand = poly_trim([int(c) for c in candidate_pi])
        q, r = poly_divmod(cp, cand)
        divides = (r == () and all(x.denominator == 1 for x in q))
        a, b = _poly_eval(cand, lo), _poly_eval(cand, hi)
        sign_change = a * b < 0 or (lo == hi and a == 0)
        report.pi_check = {
            "candidate": [int(c) for c in cand],
            "divides": divides,
            "sign_change": sign_change,
            "ok": divides and sign_change,
        }
    return report


# ---------------------------------------------------------------------------
# brute-force oracle


def count_elements_bruteforce(ctx: BetaContext, n: int, cap: int = 7) -> list:
    """Number of distinct maps represented by digit words of each length
    0..n, by direct enumeration (exponential; small n only)."""
    if n > cap:
        raise ValueError(f"bruteforce length {n} exceeds cap {cap}")
    counts = [1]
    layer = {ctx.zero().coeffs}
    for _ in range(n):
        nxt = set()
        for coeffs in layer:
            v = FieldElem(ctx.digits[0].mode, coeffs)
            shifted = ctx.mul_base(v)
            for d in ctx.digits:
                nxt.add(fe_add(shifted, d).coeffs)
        layer = nxt
        counts.append(len(layer))
    return counts
