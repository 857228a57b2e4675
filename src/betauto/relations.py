"""Relation automaton of an affine numeration semigroup.

The semigroup is generated by the maps x -> beta*x + t over a finite digit
set.  Two equal-length digit words u, v represent the same map iff
sum_i (t_{u_i} - t_{v_i}) * beta^(n-i) = 0; the automaton built here
recognizes exactly the set of such pairs, read synchronously from the left.

States are the accumulated differences, exact integer vectors in Z[beta] or
Z[X]; the start and the unique final state are 0.  Reachability is explored
breadth-first, with certified pruning of states that can provably never
return to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from operator import add, mul, sub

from . import numfield as nf
from .automata import Automaton, CapExceeded, pair_alphabet, reach
from .numfield import (
    _SLOP,
    ALGEBRAIC,
    BetaContext,
    FieldElem,
    fe_add,
    fe_sub,
    mahler_measure,
    poly_deg,
    poly_trim,
)


class Blocked(RuntimeError):
    """The context has a certified unit-circle conjugate; termination of the
    exploration cannot be guaranteed (pass force=True to run under caps)."""


@dataclass
class RelAutomaton:
    """Relation automaton together with its exact state values."""

    automaton: Automaton
    context: BetaContext
    state_elems: list  # FieldElem per automaton state
    stats: dict = field(default_factory=dict)

    @property
    def n_states(self) -> int:
        return self.automaton.n_states


class _Pruner:
    """Decides whether a nonzero state of an algebraic context (an integer
    vector) can provably never return to 0: at some expanding conjugate its
    modulus exceeds the return bound ``BetaContext.prune_bound``.  A state
    whose enclosure straddles a bound is kept and counted in
    ``undecided_keeps``; the co-accessibility pass removes it if it is dead."""

    def __init__(self, ctx: BetaContext):
        self.undecided_keeps = 0
        self.bounds = [ctx.power_rows[i] + ctx.prune_bound(i)
                       for i in ctx.expanding_indices()]

    def prune(self, x: tuple) -> bool:
        undecided = False
        for centres, weights, blo, bhi in self.bounds:
            # the enclosure m -+ r of ``disk_modulus``, inlined: the call
            # would cost about a tenth of the exploration
            m = abs(sum(map(mul, x, centres)))
            r = sum(map(mul, map(abs, x), weights)) + _SLOP
            if m - r > bhi:
                return True
            if m + r > blo:
                undecided = True
        if undecided:
            self.undecided_keeps += 1
        return False


class _DegreePruner:
    """Transcendental counterpart of ``_Pruner``: prunes a nonzero state (an
    integer coefficient vector) that breaks a degree or coefficient cap.

    A state q co-reachable to 0 satisfies q = -sum_{j>=1} X^(-j) e_j with
    e_j in A - A, so deg q < deg_cap = max deg(A - A), and the coefficient of
    X^i is at most coeff_caps[i], the tail sum from i of the coefficient
    maxima of the differences."""

    undecided_keeps = 0

    def __init__(self, ctx: BetaContext):
        diffs = [d.coeffs for d in ctx.digit_diffs()]
        deg = max((poly_deg(d) for d in diffs), default=-1)
        maxc = [max(abs(d[i]) if i < len(d) else 0 for d in diffs) for i in range(deg + 1)]
        # constant digits (deg <= 0): only the zero state can return to 0
        self.deg_cap = max(deg, 0)
        self.coeff_caps = list(accumulate(reversed(maxc)))[::-1] if deg > 0 else []

    def prune(self, x: tuple) -> bool:
        # a nonzero coefficient at X^deg_cap or above: degree >= deg_cap
        return any(x[self.deg_cap:]) or any(abs(c) > s for c, s in zip(x, self.coeff_caps))


def _pruner(ctx: BetaContext):
    """The exploration's prune test for ``ctx``: ``_Pruner`` for an
    algebraic base, ``_DegreePruner`` for a formal one."""
    return _Pruner(ctx) if ctx.mode == ALGEBRAIC else _DegreePruner(ctx)


def build_relation_automaton(
    ctx: BetaContext,
    max_states: int = 1_000_000,
    max_depth: int = 10_000,
    force: bool = False,
) -> RelAutomaton:
    """Breadth-first construction of the relation automaton, trimmed: every
    kept state is reached from 0 and leads back to 0.

    Raises ``Blocked`` for a context with a certified unit-circle conjugate
    unless ``force`` is set, and ``CapExceeded`` when a cap is hit."""
    if ctx.blocked and not force:
        raise Blocked(
            "base has a certified conjugate on the unit circle; "
            "exploration may not terminate (use force to run under caps)")

    # States are integer vectors of a fixed width.  Multiplying by the base
    # is the companion shift of a monic polynomial with lower coefficients
    # ``low``: the working minimal polynomial, or X^width for a formal base
    # (no kept state has degree deg_cap = width - 1, so nothing overflows).
    pruner = _pruner(ctx)
    if ctx.mode == ALGEBRAIC:
        width, low = ctx.degree, ctx.minpoly[:-1]
    else:
        width = pruner.deg_cap + 1
        low = (0,) * width
    prune = pruner.prune

    # the index of each letter's digit-difference vector, in letter order;
    # letters sharing a difference share one successor computation per state,
    # and difference 0 is the zero vector of the first letter (g0, g0)
    letters = pair_alphabet(ctx.digit_names)
    diff_index = {}
    letter_diffs = []
    for g in ctx.digits:
        for h in ctx.digits:
            d = fe_sub(g, h).coeffs
            d += (0,) * (width - len(d))
            letter_diffs.append(diff_index.setdefault(d, len(diff_index)))
    diffs = list(diff_index)

    zero = (0,) * width
    states = [zero]
    index = {zero: 0}
    # flat successor table: succ[p * n_diffs + k] is the index of state p's
    # successor by difference k, -1 if pruned
    n_diffs = len(diffs)
    succ = []
    pruned = 0
    head = 0
    dq, layer_end = 0, 1  # BFS depth of states[head], end of that layer
    while head < len(states):
        if head == layer_end:
            dq, layer_end = dq + 1, len(states)
        if dq > max_depth:
            raise CapExceeded(
                f"depth cap {max_depth} exceeded",
                {"states": len(states), "depth": dq, "pruned": pruned})
        q = states[head]
        top = q[-1]
        shifted = (0,) + q[:-1]
        if top:
            shifted = tuple(map(sub, shifted, [top * m for m in low]))
        row = [None] * n_diffs
        for k in letter_diffs:
            j = row[k]
            if j is None:
                nxt = tuple(map(add, shifted, diffs[k])) if k else shifted
                j = index.get(nxt)
                if j is None:
                    if prune(nxt):
                        j = -1
                    else:
                        j = len(states)
                        if j >= max_states:
                            raise CapExceeded(
                                f"state cap {max_states} exceeded",
                                {"states": j, "depth": dq, "pruned": pruned})
                        index[nxt] = j
                        states.append(nxt)
                row[k] = j
            if j < 0:
                pruned += 1
        succ += row
        head += 1

    # co-accessibility pass: drop states with no path back to 0, then read
    # each kept state's successors per letter, with an edge into a dropped
    # state turned into -1
    bwd = [[] for _ in states]
    for i, j in enumerate(succ):
        if j >= 0:
            bwd[j].append(i // n_diffs)
    order = sorted(reach([0], bwd))
    remap = [-1] * (len(states) + 1)  # remap[-1] maps -1 to -1
    for i, s in enumerate(order):
        remap[s] = i
    rows = []
    for s in order:
        row = list(map(remap.__getitem__, succ[s * n_diffs:(s + 1) * n_diffs]))
        rows.append(list(map(row.__getitem__, letter_diffs)))
    trim_state = tuple if ctx.mode == ALGEBRAIC else poly_trim
    elems = [FieldElem(ctx.mode, trim_state(states[s])) for s in order]
    aut = Automaton(letters, rows, [0], [0], [str(e) for e in elems])

    stats = {
        "states_explored": len(states),
        "states": aut.n_states,
        "pruned": pruned,
        "dropped_coaccessibility": len(states) - len(order),
        "undecided_keeps": pruner.undecided_keeps,
        "max_depth_reached": dq,
    }
    return RelAutomaton(aut, ctx, elems, stats)


# ---------------------------------------------------------------------------
# freeness tests


def is_free(rel: RelAutomaton) -> bool:
    """The semigroup is free iff the only relations are the trivial u = u,
    i.e. the relation automaton is the single state 0.  It is trimmed (every
    state is reached from 0 and co-accessible), and with pairwise distinct
    digits a letter (a, b) loops on 0 only when a == b, so a single state
    holds only the diagonal loops."""
    return rel.n_states == 1


def quick_free_sufficient(ctx: BetaContext) -> bool:
    """Cheap sufficient criterion: the exploration's prune test rejects every
    nonzero digit difference, that is every successor of 0 but 0, so no
    nonzero state is kept and the semigroup is free.  ``False`` means unknown."""
    prune = _pruner(ctx).prune
    return all(d.is_zero() or prune(d.coeffs) for d in ctx.digit_diffs())


def mahler_nonfree_check(ctx: BetaContext) -> bool:
    """For a two-digit set: if the Mahler measure of the base is certified
    below 2, the semigroup has a relation (is not free).  ``False`` means
    the test is inconclusive, not that the semigroup is free."""
    if len(ctx.digits) != 2:
        raise ValueError("the Mahler measure criterion needs exactly two digits")
    _, hi = mahler_measure(ctx)
    return hi < 2.0


def kenyon_criterion(p: int, q: int) -> bool:
    """Freeness of the three-map system with slope 1/3 and translations
    0, p/q, 1: free iff p + q is divisible by 3.  Requires 0 < p < q coprime."""
    if not (0 < p < q) or math.gcd(p, q) != 1:
        raise ValueError("need 0 < p < q with gcd(p, q) = 1")
    return (p + q) % 3 == 0


# ---------------------------------------------------------------------------
# direct verification


def digit_index(names: tuple, g) -> int:
    """Position of the digit ``g`` in ``names``: a non-bool int is the
    position itself, anything else is looked up by its ``str()``."""
    if isinstance(g, int) and not isinstance(g, bool):
        if not 0 <= g < len(names):
            raise ValueError(f"digit index {g} out of range")
        return g
    try:
        return names.index(str(g))
    except ValueError:
        raise ValueError(f"unknown digit {g!r}") from None


def verify_relation(ctx: BetaContext, u, v) -> bool:
    """Exact check that the two equal-length digit words define the same map
    (digits given by index or by display name)."""
    u = [digit_index(ctx.digit_names, g) for g in u]
    v = [digit_index(ctx.digit_names, g) for g in v]
    if len(u) != len(v):
        raise ValueError("words must have equal length")
    val = ctx.zero()
    for gi, hi in zip(u, v):
        val = fe_add(ctx.mul_base(val), fe_sub(ctx.digits[gi], ctx.digits[hi]))
    return val.is_zero()


def verify_power_identity(ctx: BetaContext, terms, rhs_coeffs) -> bool:
    """Exact check of sum_k sign_k * beta^(-k) == R(beta) where ``terms`` is
    a list of (sign, k) with integer k and ``rhs_coeffs`` are the integer
    coefficients of R (constant first).  Both sides are multiplied by
    beta^max(0, max(k)), so no inverses are needed.  A sign other than 1 or
    -1 raises ``ValueError``."""
    if ctx.mode != ALGEBRAIC or ctx.inverted:
        raise ValueError("power identities need a direct algebraic base")
    if any(sign not in (1, -1) for sign, _ in terms):
        raise ValueError("a term's sign must be 1 or -1")
    kmax = max([0] + [k for _, k in terms])
    lhs = ctx.zero()
    for sign, k in terms:
        t = ctx.from_int_poly([0] * (kmax - k) + [1])
        lhs = fe_add(lhs, t if sign > 0 else nf.fe_neg(t))
    rhs = ctx.from_int_poly([0] * kmax + [int(c) for c in rhs_coeffs])
    return fe_sub(lhs, rhs).is_zero()
