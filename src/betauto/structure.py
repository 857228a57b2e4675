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
    CapExceeded,
    _minimal,
    char_poly,
    complement,
    count_series,
    intersect,
    lex_pair_automaton,
    pair_tables,
    perron_enclosure,
    project,
    trim,
)
from .automata import minimize  # noqa: F401  (the benchmark tracer wraps structure.minimize)
from .numfield import BetaContext, FieldElem, fe_add, poly_divides, poly_sign_at, poly_trim
from .relations import RelAutomaton


def build_reduced_automaton(rel: RelAutomaton, order: str = "lex",
                            max_states: int = 1_000_000) -> Automaton:
    """Minimal DFA of the reduced words.

    ``order`` ranks digits by their position in the digit list (``lex``) or
    by the reverse position (``revlex``).  A word is removed when some
    order-smaller word of the same length defines the same map, i.e. when it
    is the second component of an accepted pair of (smaller, equivalent).
    ``complement`` trims and determinizes the reducible words once, then
    completes, swaps and minimizes that DFA, so one subset construction and
    one Moore refinement run.  The subset construction can grow
    exponentially; past ``max_states`` subsets it raises ``CapExceeded``.
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
    return complement(reducible, max_states)


def build_multiplier(rel: RelAutomaton, reduced: Automaton, g,
                     max_states: int = 1_000_000) -> Automaton:
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
    set and v and r are final.  Letters are scanned in alphabet order.

    The search fills one table row per state (the target per letter index,
    or -1) and hands the raw table and final flags to the minimizer core
    ``automata._minimal``, which keeps the search states that reach a final
    one, in search order, and drops the table before it refines.  Each
    class of the minimal automaton takes the label of its first search
    state, built for the representatives only, so the output does not
    depend on the string-hash seed.

    A step keeps the pair (v, r) only when it can still reach
    (final, final): the bitmap of such pairs and the relation edge lists do
    not depend on ``g``, so ``automata.pair_tables`` computes them once per
    structure and keeps them on ``reduced``.  ``+`` is kept when r is final,
    and a step that keeps neither u nor ``+`` is dropped.  These filters
    only remove triples from which no final triple is reachable, so the
    language is unchanged, and ``_minimal`` drops the rest.  No filter on the
    u side is needed: the relation automaton's only final state is 0, every
    diagonal letter loops on 0, and ``reduced`` is trimmed.  So on a plus
    step (r2 = 0) the u-state reaches a final state along diagonal letters
    and then ``+`` on (g, g); on any other step a u that cannot reach
    (``+``, final) never sets the flag, its triple is dead, and dead triples
    lead only to dead triples.  The trimmed search DFA, and so the minimal
    one with its labels, is the same as with a u-side filter.

    The search is capped like the reduced chain, per relation state: past
    ``max_states * rel.n_states`` search states it raises ``CapExceeded``."""
    sigma = reduced.alphabet
    if g not in sigma:
        raise ValueError(f"unknown digit {g!r}")
    # this also checks that the relation letters are the pairs of ``sigma``
    # and that both automata are deterministic
    live, rel_out = pair_tables(reduced, rel.automaton)
    alphabet = rel.automaton.alphabet
    gi = sigma.index(g)
    n_red = reduced.n_states
    next_red = reduced.ddelta()
    # a search state is the integer (2 (u + 1) + flag) * n_pairs + r * n_red + v
    n_pairs = rel.automaton.n_states * n_red
    # u_key[u][x]: the key offset of the u-state reached from u on letter x
    u_key = [[2 * (u2 + 1) * n_pairs for u2 in row] for row in next_red]
    red_final = [u in reduced.finals for u in range(n_red)]

    queue = [2 * (u + 1) * n_pairs + r * n_red + u
             for u in reduced.initials for r in rel.automaton.initials]
    final = bytearray(len(queue))  # final[s]: whether search state s is final
    cap = max_states * rel.n_states
    blank = [-1] * len(alphabet)
    no_u = 2 * n_pairs  # the keys below hold no u-state

    def search():
        """The search table: ``rows[s][i]`` is the target of search state s
        on letter i, or -1.  It appends the keys to ``queue`` and the flags
        to ``final``."""
        order = {s: i for i, s in enumerate(queue)}
        rows = []
        for key in queue:
            if key < no_u:
                rows.append(blank)  # only + is left, and it has no outgoing edges
                continue
            row = blank.copy()
            rows.append(row)
            q, pair = divmod(key, n_pairs)
            r, v = divmod(pair, n_red)
            u = (q >> 1) - 1
            nu, nv = u_key[u], next_red[v]
            u_final = red_final[u]
            for (x, y, i, r2n, r2_final) in rel_out[r]:
                v2 = nv[y]
                if v2 < 0 or not live[r2n + v2]:
                    continue
                t = nu[x] + r2n + v2
                plus = x == gi and u_final and r2_final
                if plus:
                    t += n_pairs
                elif t < no_u:
                    continue  # neither u nor +
                j = order.get(t)
                if j is None:
                    j = order[t] = len(queue)
                    if j >= cap:
                        raise CapExceeded(
                            f"state cap {max_states} exceeded by the multiplier search "
                            f"for digit {g} ({cap} search states, {max_states} per "
                            f"relation state)",
                            {"construction": "multiplier", "digit": g,
                             "search_states": j})
                    queue.append(t)
                    final.append(plus and red_final[v2])
                row[i] = j
        return rows

    rel_labels = rel.automaton.labels

    def label(s):
        q, pair = divmod(queue[s], n_pairs)
        u, r, v = (q >> 1) - 1, *divmod(pair, n_red)
        return f"{'' if u < 0 else u}{'+' if q & 1 else ''},{v}|{rel_labels[r]}"

    # no name holds the search table, so ``_minimal`` can release it
    return _minimal(alphabet, search(), final, 0, label)


# ---------------------------------------------------------------------------
# growth


def _float_down(x: Fraction) -> float:
    f = float(x)
    return f if Fraction(f) <= x else math.nextafter(f, -math.inf)


def _float_up(x: Fraction) -> float:
    f = float(x)
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


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


def growth(reduced: Automaton, N: int = 20, candidate_pi=None,
           max_words: int | None = None) -> GrowthReport:
    """Growth data of the reduced automaton: exact counting series, exact
    characteristic polynomial of the trimmed adjacency matrix, and a
    certified enclosure of the growth rate (its largest real root).

    ``max_words`` caps the packed rows of the largest strongly connected
    block in ``char_poly``, in 64-bit words: past it, ``CapExceeded`` is
    raised before any block is computed.  The CLI passes ``--max-states``
    times the relation states, the budget of each multiplier search.

    When ``candidate_pi`` is given (integer coefficients, constant first) the
    report records whether it divides the characteristic polynomial in Z[x]
    and changes sign across the enclosure, which certifies the growth rate
    is a root of the candidate.  Both checks stay in the integers: the
    characteristic polynomial is monic, so only a candidate with leading
    coefficient +-1 divides it, and the sign at an end p/q (q > 0) of the
    enclosure is that of q**n cand(p/q).  The enclosure isolates the growth
    rate among the roots of the characteristic polynomial, so of a divisor
    too.  A zero at an end of an open enclosure is another root: it counts
    only when the enclosure is exact (lo == hi).  A zero candidate raises
    ``ZeroDivisionError``."""
    t = trim(reduced)
    counts = count_series(reduced, N)
    cp = char_poly(t, max_words)
    lo, hi = perron_enclosure(cp)
    report = GrowthReport(counts, cp, lo, hi)
    if candidate_pi is not None:
        cand = poly_trim([int(c) for c in candidate_pi])
        divides = poly_divides(cand, cp)
        a, b = poly_sign_at(cand, lo), poly_sign_at(cand, hi)
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
