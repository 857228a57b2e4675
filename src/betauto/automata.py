"""Finite-automaton algebra over arbitrary finite alphabets.

States are indices with optional display labels; letters are opaque hashable
tokens (pair letters are ``PairLetter`` named tuples).  All operations return
new automata; nothing is mutated after construction.  Counting uses exact
big integers, spectral data is certified via the exact characteristic
polynomial of the adjacency count matrix: the product over its strongly
connected blocks of the polynomials that Newton's identities give, in exact
integers, from the traces of the block's powers M^k, whose entries are at
most rho^k for the block's largest row sum rho.
"""

from __future__ import annotations

import heapq
import math
import re
from collections import deque
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, compress, count, repeat
from operator import add, and_, itemgetter, mul, ne, or_, rshift
from typing import Iterable, NamedTuple

from sympy import ZZ
from sympy.polys.sqfreetools import dup_sqf_part

from .numfield import poly_trim


class PairLetter(NamedTuple):
    """Letter of a pair alphabet: one letter of each component, no padding."""

    left: object
    right: object

    def __str__(self) -> str:
        return f"{self.left},{self.right}"


class AlphabetMismatch(ValueError):
    pass


class CapExceeded(RuntimeError):
    """A state, depth or subset cap was hit before a construction closed;
    ``stats`` holds its partial counts."""

    def __init__(self, message: str, stats: dict | None = None):
        super().__init__(message)
        self.stats = stats or {}


def pair_alphabet(left: tuple, right: tuple | None = None) -> tuple:
    """The pair letters (x, y), x in ``left`` and y in ``right`` (default
    ``left``): (left[i], right[j]) has index i * len(right) + j."""
    return tuple(PairLetter(x, y) for x in left for y in (left if right is None else right))


class Automaton:
    """(alphabet, states, transitions, initials, finals) with opaque letters."""

    def __init__(self, alphabet, n_states, transitions, initials, finals, labels=None):
        self.alphabet = tuple(alphabet)
        self.n_states = n_states
        self.transitions = frozenset(transitions)
        self.initials = frozenset(initials)
        self.finals = frozenset(finals)
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n_states))
        self._letter_index = {x: i for i, x in enumerate(self.alphabet)}
        if len(self._letter_index) != len(self.alphabet):
            raise ValueError("alphabet has a repeated letter")
        for (p, a, q) in self.transitions:
            if not (0 <= p < n_states and 0 <= q < n_states):
                raise ValueError("transition endpoint out of range")
            if a not in self._letter_index:
                raise ValueError(f"transition letter {a!r} is not in the alphabet")
        if not (self.initials <= set(range(n_states)) and self.finals <= set(range(n_states))):
            raise ValueError("initial/final state out of range")
        self._delta = self._ddelta = None
        self._pair_tables = {}  # relation automaton -> pair_tables(self, it)

    def delta(self) -> list:
        """Transition table, built once and shared (callers must not mutate
        it): ``delta()[p][i]`` is the set of targets of state p on
        ``alphabet[i]``, or None."""
        if self._delta is None:
            table = [[None] * len(self.alphabet) for _ in range(self.n_states)]
            for (p, x, q) in self.transitions:
                row, i = table[p], self._letter_index[x]
                if row[i] is None:
                    row[i] = {q}
                else:
                    row[i].add(q)
            self._delta = table
        return self._delta

    def ddelta(self) -> list:
        """Deterministic transition table, built once from the transitions and
        shared: ``ddelta()[p][i]`` is the target of state p on
        ``alphabet[i]``, or -1; ``ValueError`` when a state has two targets on
        one letter."""
        if self._ddelta is None:
            table = [[-1] * len(self.alphabet) for _ in range(self.n_states)]
            for (p, x, q) in self.transitions:
                row, i = table[p], self._letter_index[x]
                if row[i] >= 0:
                    raise ValueError("automaton is not deterministic")
                row[i] = q
            self._ddelta = table
        return self._ddelta

    @property
    def deterministic(self) -> bool:
        if len(self.initials) != 1:
            return False
        try:
            self.ddelta()
        except ValueError:
            return False
        return True

    def __repr__(self):
        return (f"Automaton({self.n_states} states, {len(self.alphabet)} letters, "
                f"{len(self.transitions)} transitions)")


# ---------------------------------------------------------------------------
# core constructions


def transpose(a: Automaton) -> Automaton:
    return Automaton(a.alphabet, a.n_states,
                     [(q, x, p) for (p, x, q) in a.transitions],
                     a.finals, a.initials, a.labels)


def reach(sources, adj) -> set:
    """The nodes reachable from ``sources`` in the plain graph ``adj`` (node
    -> its successor nodes), sources included."""
    seen = set(sources)
    stack = list(seen)
    while stack:
        for q in adj[stack.pop()]:
            if q not in seen:
                seen.add(q)
                stack.append(q)
    return seen


def trim(a: Automaton) -> Automaton:
    """Restrict to states on some path from an initial to a final state;
    ``a`` itself when every state is kept."""
    fwd = [[] for _ in range(a.n_states)]
    bwd = [[] for _ in range(a.n_states)]
    for (p, _, q) in a.transitions:
        fwd[p].append(q)
        bwd[q].append(p)
    keep = sorted(reach(a.initials, fwd) & reach(a.finals, bwd))
    if len(keep) == a.n_states:
        return a
    idx = {s: i for i, s in enumerate(keep)}
    return Automaton(
        a.alphabet, len(keep),
        [(idx[p], x, idx[q]) for (p, x, q) in a.transitions if p in idx and q in idx],
        [idx[s] for s in a.initials if s in idx],
        [idx[s] for s in a.finals if s in idx],
        [a.labels[s] for s in keep])


_BITS = bytes.maketrans(b"01", b"\0\1")


def _members(x: int):
    """The indices of the set bits of ``x``, in increasing order."""
    return compress(count(), bin(x)[:1:-1].encode().translate(_BITS))


def _mask(states) -> int:
    """The bitset of an iterable of state indices (None: the empty set)."""
    return sum(1 << q for q in states or ())


def _simulation(a: Automaton) -> list[int]:
    """Maximal direct simulation of ``a``, as one bitset per state: bit q of
    ``up[p]`` is set when q simulates p, i.e. q is final if p is and every
    step p -x-> p2 is matched by a step q -x-> q2 with q2 simulating p2.  It
    implies L(p) is a subset of L(q).

    The greatest fixpoint: ``up[p]`` starts as the states that are final if
    p is and read every letter p reads, and is intersected with
    ``pre[i][p2]``, the states with an i-step into ``up[p2]``, over the
    steps p -i-> p2 until no set shrinks.  A worklist holds the states to
    refine, first in backward breadth-first order from the finals, so that a
    state tends to be refined after its successors; a state whose set
    shrinks drops its ``pre`` sets, rebuilt when next read, and requeues
    its predecessors."""
    n = a.n_states
    d = a.delta()
    full = (1 << n) - 1
    fin = _mask(a.finals)
    # pred[i][q]: the states with a step into q on letter i
    pred = [[0] * n for _ in a.alphabet]
    into = [set() for _ in range(n)]
    for (p, x, q) in a.transitions:
        pred[a._letter_index[x]][q] |= 1 << p
        into[q].add(p)
    reads = [_mask(p for p in range(n) if d[p][i]) for i in range(len(a.alphabet))]
    out = [[(i, q) for i, cell in enumerate(row) if cell for q in cell] for row in d]
    up = []
    for p, row in enumerate(d):
        m = fin if p in a.finals else full
        for i, cell in enumerate(row):
            if cell:
                m &= reads[i]
        up.append(m)

    order = sorted(a.finals)
    seen = set(order)
    for q in order:
        order += sorted(into[q] - seen)
        seen.update(into[q])
    order += [p for p in range(n) if p not in seen]
    queue = deque(order)
    queued = bytearray(b"\1") * n
    pre = [[None] * n for _ in a.alphabet]
    while queue:
        p = queue.popleft()
        queued[p] = 0
        m = up[p]
        for i, p2 in out[p]:
            r = pre[i][p2]
            if r is None:
                r = pre[i][p2] = reduce(or_, map(pred[i].__getitem__, _members(up[p2])), 0)
            m &= r
        if m != up[p]:
            up[p] = m
            for col in pre:
                col[p] = None
            for r in into[p]:
                if not queued[r]:
                    queued[r] = 1
                    queue.append(r)
    return up


def determinize(a: Automaton, max_states: int = 1_000_000) -> Automaton:
    """Subset construction over pruned subsets; states are the reachable
    nonempty pruned subsets in BFS order.

    A subset accepts the union of its states' languages, so a state that
    another member simulates (``_simulation``) adds nothing: each subset
    keeps only its maximal states, and of mutually simulating states the one
    with the lowest index.  A state that simulates a final state is final,
    so the pruned construction accepts L(a), and ``minimize`` returns the
    same canonical DFA.  Subsets are bitsets over the states of ``a``.

    The simulation is one n-bit set per state, n^2/8 bytes (4 KB at
    n = 180); its refinement holds two more per state and letter.  On the
    180-state reducible-word automaton of ``pisot_x3-x-1`` it takes about
    10 ms and leaves 300 subsets, where the unpruned construction made 5,984
    in 110-160 ms (2-vCPU x86-64, CPython 3.11).  Raises ``CapExceeded``
    when it would make more than ``max_states`` pruned subsets."""
    if not a.initials:
        return Automaton(a.alphabet, 0, [], [], [])
    up = _simulation(a)
    # covered[q]: the states that q prunes from a subset holding both
    covered = [0] * a.n_states
    for p, m in enumerate(up):
        for q in _members(m & ~(1 << p)):
            if q < p or not up[q] >> p & 1:
                covered[q] |= 1 << p

    def prune(s):
        return s & ~reduce(or_, map(covered.__getitem__, _members(s)), 0)

    # cols[i][p]: the targets of p on letter i
    cols = [list(map(_mask, col)) for col in zip(*a.delta())]
    start = prune(_mask(a.initials))
    order = {start: 0}
    subsets = [start]
    transitions = []
    head = 0
    while head < len(subsets):
        s = list(_members(subsets[head]))
        for x, col in zip(a.alphabet, cols):
            t = reduce(or_, map(col.__getitem__, s), 0)
            if not t:
                continue
            t = prune(t)
            j = order.get(t)
            if j is None:
                j = len(order)
                if j >= max_states:
                    raise CapExceeded(
                        f"state cap {max_states} exceeded by the subset construction "
                        f"(determinize of a {a.n_states}-state automaton)",
                        {"construction": "determinize", "subsets": j,
                         "input_states": a.n_states})
                order[t] = j
                subsets.append(t)
            transitions.append((head, x, j))
        head += 1
    fin = _mask(a.finals)
    finals = [i for i, s in enumerate(subsets) if s & fin]
    labels = []
    for i, s in enumerate(subsets):
        s = list(_members(s))
        labels.append("{" + ",".join(sorted(a.labels[q] for q in s)) + "}"
                      if len(s) <= 6 else f"#{i}")
    return Automaton(a.alphabet, len(subsets), transitions, [0], finals, labels)


def _minimal(alphabet, d, final, init: int, label) -> Automaton:
    """Canonical minimal DFA of a deterministic table: ``d[p][i]`` is the
    target of state p on ``alphabet[i]`` or -1, ``final[p]`` says whether p
    is final, and ``init`` is the initial state.  Every state must be
    reachable from ``init`` or come after all states that are: such a state
    is never the least of a class that the result reaches, so it names none.

    First the states that reach a final state are kept in ascending order,
    and the rows are renumbered with an edge into a dropped state turned
    into -1; a dead ``init`` gives the automaton with no states.  The input
    table is read only until then.

    Then Moore refinement, seeded with each state's finality and the set of
    letters it has an edge on.  The seed is sound because every state left
    reaches a final state: a letter with an edge starts some accepted word,
    a letter without one starts none, so states with different letter sets
    are inequivalent.  The states are renumbered so that each seed block is a
    contiguous slice, in increasing original index, and a state's signature
    reads only its block's letters, through one ``itemgetter`` per (block,
    letter).  A round refines block by block in place, so later blocks
    already see the round's earlier splits, and the refinement stops when a
    round splits nothing.  A class is named by its first member, which is
    its least original state, and takes the label ``label(state)`` of that
    state, built for the class representatives only.  The classes are
    numbered by breadth-first search from the initial class, letters in
    alphabet order, so language-equal tables give identical automata, labels
    aside."""
    present = (-1).__lt__
    pred = [[] for _ in d]  # pred[q]: the sources of the edges into q
    for p, row in enumerate(d):
        for q in row:
            if q >= 0:
                pred[q].append(p)
    keep = sorted(reach(compress(count(), final), pred))
    del pred
    idx = [-1] * (len(d) + 1)  # idx[-1] maps -1 to -1
    for i, p in enumerate(keep):
        idx[p] = i
    init = idx[init]
    if init < 0:
        return Automaton(alphabet, 0, [], [], [])
    d = [list(map(idx.__getitem__, d[p])) for p in keep]
    final = [final[p] for p in keep]
    del idx
    seeds = {}  # (final, has an edge on letter 0, ...) -> states, ascending
    for p, row in enumerate(d):
        seeds.setdefault((final[p], *map(present, row)), []).append(p)
    perm = list(chain.from_iterable(seeds.values()))  # position -> state
    pos = [0] * len(d)  # state -> position
    for j, p in enumerate(perm):
        pos[p] = j
    cls = []  # cls[j]: the first position of the class at position j
    blocks = []  # (start, end, a getter of the successor positions per letter)
    for key, members in seeds.items():
        a = len(cls)
        cls += [a] * len(members)
        # a singleton, or a block without edges (only final states that
        # accept the empty word alone), never splits
        if len(members) > 1 and any(key[1:]):
            blocks.append((a, len(cls), [
                itemgetter(*map(pos.__getitem__, col))
                for col in compress(zip(*map(d.__getitem__, members)), key[1:])]))
    n_ids = len(blocks)
    while blocks:
        ids = {}  # classes of distinct blocks start at distinct positions
        for a, b, succ in blocks:
            cls[a:b] = map(ids.setdefault, zip(cls[a:b], *[f(cls) for f in succ]),
                           range(a, b))
        if len(ids) == n_ids:
            break
        n_ids = len(ids)
    rep = [perm[cls[j]] for j in pos]  # state -> least state of its class
    # every class is reached from the initial one
    reps = [rep[init]]
    order = {reps[0]: 0}
    transitions = []
    for i, c in enumerate(reps):
        for x, q in zip(alphabet, d[c]):
            if q >= 0:
                t = rep[q]
                j = order.get(t)
                if j is None:
                    j = order[t] = len(reps)
                    reps.append(t)
                transitions.append((i, x, j))
    return Automaton(alphabet, len(reps), transitions, [0],
                     [i for i, c in enumerate(reps) if final[c]],
                     [label(keep[c]) for c in reps])


def _dfa(a: Automaton, max_states: int = 1_000_000) -> Automaton:
    """``a`` trimmed, and determinized when the trimmed automaton is not
    deterministic: a trimmed DFA, since the subsets of a trimmed automaton
    are all co-accessible.  ``max_states`` caps the subset construction."""
    a = trim(a)
    if a.n_states and not a.deterministic:
        a = determinize(a, max_states)
    return a


def minimize(a: Automaton, max_states: int = 1_000_000) -> Automaton:
    """Canonical minimal partial DFA; language-equal inputs give identical
    results, labels aside.

    Trim, determinize when the result is not deterministic (``_dfa``), then
    hand the table to ``_minimal``: Moore refinement and the canonical
    numbering, each class taking the label of its first state.  Refinement
    is seeded with each state's finality and letter set, which the
    co-accessible states make sound, and runs block by block in place.
    ``_minimal`` drops dead states itself, so ``complement`` and
    ``structure.build_multiplier`` hand it their tables with the dead states
    in.
    ``max_states`` caps the subset construction.  On the 180-state
    reducible-word automaton of ``pisot_x3-x-1`` ``determinize`` makes 300
    simulation-pruned subsets (5,984 unpruned), and refinement folds them
    into 139 classes."""
    a = _dfa(a, max_states)
    # a DFA without states hands over the initial state 0, which is dead
    return _minimal(a.alphabet, a.ddelta(), [s in a.finals for s in range(a.n_states)],
                    min(a.initials, default=0), a.labels.__getitem__)


def complement(a: Automaton) -> Automaton:
    """Canonical minimal DFA of the words over ``a.alphabet`` that ``a``
    rejects.

    Trim ``a`` and determinize it when the trimmed automaton is
    nondeterministic (``_dfa``), complete its table with a state ``sink``,
    swap the finals and hand the table to ``_minimal``, which drops the
    states that turn dead, those that accepted every word.  ``sink`` comes
    last, so when no edge was missing it is unreachable and names no class.
    Each class takes the label of its first state: a label of the DFA, or
    ``sink``.  Trimming comes first, for a DFA
    too: a dead state turns final in the complement and would name its
    class, and the reducible-word DFA of a free context, whose states are
    all dead, would complement to one state named after its first dead
    state.  The complement of the empty language is the single state
    ``all``, and that of the full language has no states."""
    d = _dfa(a)
    sink = d.n_states
    if sink == 0:
        return Automaton(a.alphabet, 1, [(0, x, 0) for x in a.alphabet], [0], [0], ["all"])
    table = [[sink if q < 0 else q for q in row] for row in d.ddelta()]
    table.append([sink] * len(d.alphabet))
    return _minimal(d.alphabet, table, [s not in d.finals for s in range(sink + 1)],
                    min(d.initials), (d.labels + ("sink",)).__getitem__)


def intersect(a: Automaton, b: Automaton) -> Automaton:
    if set(a.alphabet) != set(b.alphabet):
        raise AlphabetMismatch("intersect needs a shared alphabet")
    da, db = a.delta(), b.delta()
    cols = [b._letter_index[x] for x in a.alphabet]  # letter i of a is cols[i] of b
    starts = [(p, q) for p in a.initials for q in b.initials]
    order = {s: i for i, s in enumerate(starts)}
    queue = list(starts)
    transitions = []
    head = 0
    while head < len(queue):
        (p, q) = s = queue[head]
        head += 1
        row_b = db[q]
        for x, cell_a, j in zip(a.alphabet, da[p], cols):
            cell_b = row_b[j]
            if not (cell_a and cell_b):
                continue
            for p2 in cell_a:
                for q2 in cell_b:
                    t = (p2, q2)
                    if t not in order:
                        order[t] = len(order)
                        queue.append(t)
                    transitions.append((order[s], x, order[t]))
    finals = [i for (p, q), i in order.items() if p in a.finals and q in b.finals]
    labels = [None] * len(order)
    for (p, q), i in order.items():
        labels[i] = f"{a.labels[p]}|{b.labels[q]}"
    return Automaton(a.alphabet, len(order), transitions,
                     [order[s] for s in starts], finals, labels)


def product(a: Automaton, b: Automaton) -> Automaton:
    """Synchronous product: language {(u_i, v_i)_i : u in L(a), v in L(b)}."""
    alphabet = pair_alphabet(a.alphabet, b.alphabet)
    k = len(b.alphabet)
    da, db = a.delta(), b.delta()
    starts = [(p, q) for p in a.initials for q in b.initials]
    order = {s: i for i, s in enumerate(starts)}
    queue = list(starts)
    transitions = []
    head = 0
    while head < len(queue):
        (p, q) = s = queue[head]
        head += 1
        for i, cell_a in enumerate(da[p]):
            for p2 in cell_a or ():
                for j, cell_b in enumerate(db[q]):
                    for q2 in cell_b or ():
                        t = (p2, q2)
                        if t not in order:
                            order[t] = len(order)
                            queue.append(t)
                        transitions.append((order[s], alphabet[i * k + j], order[t]))
    finals = [i for (p, q), i in order.items() if p in a.finals and q in b.finals]
    return Automaton(alphabet, len(order), transitions,
                     [order[s] for s in starts], finals)


def append_letter(a: Automaton, letter) -> Automaton:
    """Automaton for L(a) concatenated with the single letter."""
    if letter not in a.alphabet:
        raise AlphabetMismatch(f"letter {letter!r} not in alphabet")
    f = a.n_states
    transitions = list(a.transitions) + [(q, letter, f) for q in a.finals]
    return Automaton(a.alphabet, f + 1, transitions, a.initials, [f],
                     list(a.labels) + ["+"])


def pair_tables(a: Automaton, rel: Automaton) -> tuple[bytearray, list]:
    """The tables of the pair space of ``a`` and the deterministic relation
    automaton ``rel`` (letters: the pairs of ``a.alphabet``) that no search
    start changes.  They are computed once per relation automaton and kept
    on ``a``, like its transition tables, so every multiplier of a structure
    and its ``ReducerTable`` share them; callers must not mutate them.

    - ``live``: the bitmap over ``r * a.n_states + p`` of the pairs (p, r)
      from which some word of pair letters leads ``rel`` to a final state
      and leads ``a``, reading the right component of each letter, to a
      final state;
    - ``out[r]``: the edges of ``rel`` leaving r, in letter order, as
      (x, y, i, r2 * a.n_states, r2 final) for the letter of index i, the
      pair (``a.alphabet[x]``, ``a.alphabet[y]``)."""
    kept = a._pair_tables.get(rel)
    if kept is None:
        kept = a._pair_tables[rel] = _pair_search(a, rel)
    return kept


def _pair_search(a: Automaton, rel: Automaton) -> tuple[bytearray, list]:
    """The tables of ``pair_tables``; the live pairs by one backward search
    from the (final, final) pairs."""
    if rel.alphabet != pair_alphabet(a.alphabet):
        raise ValueError(
            f"relation letters {rel.alphabet!r} are not the pairs of {a.alphabet!r}")
    n, k = a.n_states, len(a.alphabet)
    out = [[(*divmod(i, k), i, r2 * n, r2 in rel.finals) for i, r2 in enumerate(row) if r2 >= 0]
           for row in rel.ddelta()]
    # rel_in[r2] holds (c, r) for the relation edges r -> r2 whose letter has
    # the letter of index c of ``a`` on the right
    rel_in = [set() for _ in range(rel.n_states)]
    for (r, xy, r2) in rel.transitions:
        rel_in[r2].add((a._letter_index[xy[1]], r))
    # pred[q][c] lists the states of ``a`` with an edge to q on letter c
    pred = [[[] for _ in a.alphabet] for _ in range(n)]
    for (p, x, q) in a.transitions:
        pred[q][a._letter_index[x]].append(p)
    live = bytearray(rel.n_states * n)
    stack = [r * n + p for r in rel.finals for p in a.finals]
    for s in stack:
        live[s] = 1
    while stack:
        r2, p2 = divmod(stack.pop(), n)
        row = pred[p2]
        for (c, r) in rel_in[r2]:
            for p in row[c]:
                s = r * n + p
                if not live[s]:
                    live[s] = 1
                    stack.append(s)
    return live, out


def project(a: Automaton, side: int, alphabet=None) -> Automaton:
    """Component projection of a pair-letter automaton: each letter (x, y)
    becomes x (side 1) or y (side 2)."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    transitions = set()
    for (p, x, q) in a.transitions:
        if not isinstance(x, tuple) or len(x) != 2:
            raise AlphabetMismatch("project needs a pair alphabet")
        transitions.add((p, x[side - 1], q))
    if alphabet is None:
        alphabet = tuple(sorted({c for (_, c, _) in transitions}, key=str))
    return Automaton(alphabet, a.n_states, transitions, a.initials, a.finals, a.labels)


def lex_pair_automaton(alphabet: Iterable) -> Automaton:
    """Pairs (u, v) of equal-length words with u strictly below v in the
    lexicographic order induced by the alphabet list order.  State ``=``
    reads equal letters, a first pair x < y leads to the final state ``<``,
    which reads every pair, and a first pair x > y has no edge: no word that
    starts with it is accepted."""
    sigma = tuple(alphabet)
    rank = {x: i for i, x in enumerate(sigma)}
    pairs = pair_alphabet(sigma)
    transitions = []
    for xy in pairs:
        rx, ry = rank[xy.left], rank[xy.right]
        if rx <= ry:
            transitions.append((0, xy, 0 if rx == ry else 1))
        transitions.append((1, xy, 1))
    return Automaton(pairs, 2, transitions, [0], [1], ["=", "<"])


# ---------------------------------------------------------------------------
# queries


def accepts(a: Automaton, word: Iterable) -> bool:
    d = a.delta()
    cur = set(a.initials)
    for x in word:
        i = a._letter_index.get(x)
        cur = set().union(*(d[p][i] or () for p in cur)) if i is not None else ()
        if not cur:
            return False
    return bool(cur & a.finals)


def adjacency(a: Automaton) -> list[list[int]]:
    m = [[0] * a.n_states for _ in range(a.n_states)]
    for (p, _, q) in a.transitions:
        m[p][q] += 1
    return m


def count_series(a: Automaton, n_max: int) -> list[int]:
    """Number of accepted words of each length 0..n_max (big integers).
    Determinizes first so that paths and words coincide, then steps the
    count vector along the transition table."""
    if not a.deterministic:
        a = determinize(a)
    succ = a.ddelta()
    v = [1 if s in a.initials else 0 for s in range(a.n_states)]
    out = [sum(v[s] for s in a.finals)]
    for _ in range(n_max):
        v2 = [0] * a.n_states
        for p, vp in enumerate(v):
            if vp:
                for q in succ[p]:
                    if q >= 0:
                        v2[q] += vp
        v = v2
        out.append(sum(v[s] for s in a.finals))
    return out


def char_poly(a: Automaton, max_words: int | None = None) -> tuple[int, ...]:
    """Exact characteristic polynomial det(xI - M) of the adjacency count
    matrix, constant term first, in integer arithmetic with no modulus.

    Ordered by its strongly connected blocks (``_components``), M is block
    triangular, so det(xI - M) is the product of the blocks' polynomials; a
    single state gives x - (its self-loop count).  For a block B of b
    states with largest row sum rho, every entry of B^k (k <= b) is at most
    rho^k <= rho^b, so each row of B^k packs into one int with slots of
    (rho**b).bit_length() bits, and a step adds the packed rows of a
    state's successors without carries between slots.  The power traces
    p_k = tr(B^k) give the coefficients by Newton's identities,
    k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1), each division exact.

    The b packed rows of b slots take b * b * width bits.  Past ``max_words``
    64-bit words for one block it raises ``CapExceeded``, before any block
    is computed."""
    succ = [[] for _ in range(a.n_states)]
    for (p, _, q) in a.transitions:
        succ[p].append(q)
    blocks, zeros = [], 0
    for block in _components(succ):
        if len(block) == 1 and block[0] not in succ[block[0]]:
            zeros += 1
            continue
        index = {q: i for i, q in enumerate(block)}
        blocks.append([[index[q] for q in succ[p] if q in index] for p in block])
    if max_words is not None:
        for rows in blocks:
            words = -(-len(rows) ** 2 * _slot_width(rows) // 64)
            if words > max_words:
                raise CapExceeded(
                    f"word cap {max_words} exceeded by char_poly: a strongly connected "
                    f"block of {len(rows)} states packs into {words} 64-bit words",
                    {"construction": "char_poly", "block_states": len(rows),
                     "words": words})
    return (0,) * zeros + tuple(reduce(_poly_mul, map(_block_char_poly, blocks), [1]))


def _components(succ) -> list[list[int]]:
    """The strongly connected components of the graph ``succ`` (node -> its
    successor nodes), by one iterative pass of Tarjan's algorithm.  While a
    node's component is open, ``low`` holds the least preorder rank it is
    known to reach among open nodes; once the component is out, ``n + 1``,
    which no comparison picks."""
    n = len(succ)
    low = [0] * n  # 0: not visited yet
    stack, out, rank = [], [], 0
    for root in range(n):
        if low[root]:
            continue
        rank += 1
        low[root] = rank
        work = [(root, rank, len(stack), iter(succ[root]))]
        stack.append(root)
        while work:
            v, num, at, edges = work[-1]
            for w in edges:
                if not low[w]:
                    rank += 1
                    low[w] = rank
                    work.append((w, rank, len(stack), iter(succ[w])))
                    stack.append(w)
                    break
                if low[w] < low[v]:
                    low[v] = low[w]
            else:
                work.pop()
                if low[v] == num:
                    block = stack[at:]
                    del stack[at:]
                    for w in block:
                        low[w] = n + 1
                    out.append(block)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return out


def _block_char_poly(rows) -> list:
    """Characteristic polynomial, constant term first, of the count matrix
    of a strongly connected block given by its successor lists (a successor
    repeats once per parallel edge).  Row i's diagonal slot, i slots up, is
    read from the nearer end of the packed row: masked, then shifted down,
    for i < (b - 1) // 2, and shifted down, then masked, for the rest."""
    b = len(rows)
    width = _slot_width(rows)
    mask = (1 << width) - 1
    shifts = range(0, b * width, width)
    power = [1 << s for s in shifts]  # row i of B^k, slot j holds B^k[i][j]
    h = (b - 1) // 2
    masks, high = [mask << s for s in shifts[:h]], shifts[h:]
    traces, c = [], [1]  # c: leading coefficient first
    for k in range(1, b + 1):
        power = [reduce(add, map(power.__getitem__, r)) for r in rows]
        traces.append(sum(map(rshift, map(and_, power, masks), shifts))
                      + sum(map(and_, map(rshift, power[h:], high), repeat(mask))))
        ck, rem = divmod(-sum(map(mul, c, reversed(traces))), k)
        if rem:
            raise ArithmeticError(f"Newton identity {k} is not exact")
        c.append(ck)
    c.reverse()
    return c


def _slot_width(rows) -> int:
    """Bits per slot of a block's packed rows: (rho**b).bit_length()."""
    return (max(map(len, rows)) ** len(rows)).bit_length()


def _poly_mul(f, g) -> list:
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x:
            for j, y in enumerate(g):
                out[i + j] += x * y
    return out


#: the enclosure is refined until it is narrower than this: the exact value
#: of the float 1e-10, quartered (not 1/(4 10**10); ``lambda``'s bytes
#: depend on it)
_ENCLOSURE_WIDTH = Fraction(1e-10) / 4


def perron_enclosure(cp) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of the largest real root of ``cp``, the
    characteristic polynomial (constant term first) of a nonnegative matrix,
    narrower than ``_ENCLOSURE_WIDTH``; (0, 0) when that root is 0 or there
    is none.  The ends are fractions p/q with q > 0.

    By Perron-Frobenius the largest real root of such a polynomial is its
    spectral radius, which is >= 0, so only the positive roots of the
    squarefree part (sympy's) are searched, and only the largest one is
    isolated (``_largest_positive_root``) and refined (``_refine_root``).
    Both are in-repo: they repeat the steps of sympy's
    ``dup_inner_isolate_real_roots`` and ``dup_inner_refine_real_root``
    (the LMQ lower bound, then the Moebius steps) on the same integers and
    end on the same polynomial and Moebius map, so the enclosure, and the
    ``lambda`` bytes written from it, are the ones sympy gives.  Their
    Taylor shifts and bound run their inner loops at C level."""
    # the root 0 goes before the squarefree part, which is primitive with a
    # positive leading coefficient, so f equals that part of cp less its x
    f = dup_sqf_part(_drop_zero_root([ZZ(c) for c in reversed(poly_trim(cp))]), ZZ)
    root = _largest_positive_root(f)
    if root is None:
        return (Fraction(0), Fraction(0))
    _, m = _refine_root(*root, _ENCLOSURE_WIDTH)
    return _mobius_interval(m)


def _mobius_interval(m) -> tuple[Fraction, Fraction]:
    """Interval between the images of 0 and infinity of the Moebius map
    x -> (a x + b) / (c x + d)."""
    a, b, c, d = (int(x) for x in m)
    return tuple(sorted((Fraction(a, c), Fraction(b, d))))


# Positive-root isolation and refinement by continued fractions (Vincent-
# Akritas-Strzebonski), step for step as sympy 1.14's
# ``dup_inner_isolate_real_roots`` and ``dup_inner_refine_real_root`` with
# ``mobius=True``: polynomials are integer lists, leading coefficient first,
# and every intermediate value equals sympy's.


def _largest_positive_root(f):
    """(g, m) of the largest positive root of the squarefree ``f``, the
    polynomial and Moebius map that sympy's ``dup_inner_isolate_real_roots``
    gives that root, or ``None`` when ``f`` has no positive root.

    sympy walks a tree of Moebius maps depth-first and isolates every
    positive root.  Here each node takes the same steps (``_split``), but
    the open nodes are expanded best-first by the upper end of their
    intervals, and the search stops once no open node can outrank the best
    root found: the one whose interval has the largest upper end, then the
    largest lower end, so that an exact root beats an open interval that
    ends at it.  A node's roots lie strictly inside its open interval, and
    two nodes' intervals are nested or disjoint, so an open node whose upper
    end is at most the best's holds no better root.  A root's (g, m) depends
    only on its path in the tree, so it is the one sympy returns."""
    k = _sign_variations(f)
    if k < 2:
        return _isolated(f, 1, 0, 0, 1) if k else None
    best, key = None, (-1, -1)
    heap, seq = [(-math.inf, 0, (1, 0, 0, 1), f, k)], count(1)
    while heap and -heap[0][0] > key[0]:
        _, _, m, f, k = heapq.heappop(heap)
        leaves, nodes = _split(f, *m, k)
        for g, mg in leaves:
            lo, hi = _mobius_interval(mg)
            if (hi, lo) > key:
                best, key = (g, mg), (hi, lo)
        for mn, g, kn in nodes:
            a, b, c, d = mn
            upper = max(Fraction(a, c), Fraction(b, d)) if c else math.inf
            heapq.heappush(heap, (-upper, next(seq), mn, g, kn))
    return best


def _split(f, a, b, c, d, k):
    """One pass of sympy's isolation loop over the node (a, b, c, d, f, k),
    k >= 2 the sign variations of f: the roots it isolates, as (g, m), and
    the nodes it leaves open, as (m, g, k).  Shift by the LMQ lower bound
    A; an exact root where a shift lands on 0; split at 1 into (1, inf) and
    (0, 1), whose counts are the sign variations of f(x + 1) and k less
    those and the root at 1, recounted on the reversed shift when above 1;
    a half with one variation holds one root, and one with none is left."""
    leaves, nodes = [], []
    e = _lmq_exponent(f)
    if e >= 0:
        f = _shift_pow2(f, e)
        b, d = (a << e) + b, (c << e) + d
        if not f[-1]:
            leaves.append((f, (b, b, d, d)))
            f = f[:-1]
        k = _sign_variations(f)
        if k < 2:
            if k:
                leaves.append(_isolated(f, a, b, c, d))
            return leaves, nodes
    f1 = _shift_one(f)
    b1, d1 = a + b, c + d
    if not f1[-1]:
        leaves.append((f1, (b1, b1, d1, d1)))
        f1 = f1[:-1]
        k -= 1
    k1 = _sign_variations(f1)
    k2, f2 = k - k1, None
    if k2 > 1:
        f2 = _reverse_shift(f)
        k2 = _sign_variations(f2)
    for g, m, kg in ((f1, (a, b1, c, d1), k1), (f2, (b, b1, d, d1), k2)):
        if kg:
            if g is None:
                g = _reverse_shift(f)
            if kg == 1:
                leaves.append(_isolated(g, *m))
            else:
                nodes.append((m, g, kg))
    return leaves, nodes


def _isolated(f, a, b, c, d):
    """sympy's ``dup_inner_refine_real_root`` without ``eps``: step until
    c != 0, so that a/c is finite."""
    while not c:
        f, a, b, c, d = _refine_step(f, a, b, c, d)
    return f, (a, b, c, d)


def _sign_variations(f) -> int:
    """Sign changes between the nonzero coefficients of f (Descartes)."""
    signs = list(map((0).__lt__, filter(None, f)))
    return sum(map(ne, signs, signs[1:]))


def _reverse_shift(f):
    """(x + 1)**n f(1 / (x + 1)) without a root at 0: sympy's
    ``dup_shift(dup_reverse(f), 1)`` and ``dup_rshift`` when its constant
    term is 0."""
    f = _shift_one(_drop_zero_root(f)[::-1])
    if not f[-1]:
        f.pop()
    return f


def _refine_root(f, m, eps: Fraction):
    """Step the Moebius map ``m`` = (a, b, c, d), whose image of (0, inf)
    holds one positive root of ``f`` transformed by ``m``, until the interval
    between a/c and b/d is narrower than ``eps``.  Returns the transformed
    polynomial and the map, as sympy does."""
    f, (a, b, c, d) = _isolated(f, *m)
    num, den = eps.numerator, eps.denominator
    # a step keeps c != 0 once it is; sympy steps while |a/c - b/d| >= eps,
    # here in integers; an exact root has width 0
    while abs(a * d - b * c) * den >= num * abs(c * d):
        f, a, b, c, d = _refine_step(f, a, b, c, d)
    return f, (a, b, c, d)


def _refine_step(f, a, b, c, d):
    """sympy's ``dup_step_refine_real_root``: shift the polynomial by the
    lower bound A of its positive roots, then keep the root in (1, inf) by
    a shift by one, or in (0, 1) by reversing first.  A root that lands on
    0 is exact and ends with a == b and c == d.  A refined f has one sign
    variation, so one positive root, and a shift by one adds none: f(x + 1)
    has one variation, sympy's test, exactly when f(0) = f[-1] and f(1) =
    sum(f) share a sign, and f(1) = 0 is the exact root at 1.  So the branch
    is decided first and only the kept shift is computed."""
    k = _lmq_exponent(f)
    if k >= 0:
        f = _shift_pow2(f, k)
        b, d = (a << k) + b, (c << k) + d
        if not f[-1]:
            return f, b, b, d, d
    b1, d1 = a + b, c + d
    at_one = sum(f)
    if not at_one:
        return _shift_one(f), b1, b1, d1, d1
    if (at_one > 0) == (f[-1] > 0):
        return _shift_one(f), a, b1, c, d1
    return _reverse_shift(f), b, b1, d, d1


def _shift_one(f):
    """f(x + 1), by ``dup_shift``'s additions: synthetic division by x - 1,
    a prefix sum whose last entry is the next coefficient, from the
    constant term up."""
    out = []
    for _ in range(len(f)):
        f = list(accumulate(f))
        out.append(f.pop())
    out.reverse()
    return out


def _shift_pow2(f, k):
    """f(x + 2**k) = F(x / 2**k) with F(y) = f(2**k (y + 1)): scale by
    left shifts, shift by one, and scale back by exact right shifts."""
    n = len(f) - 1
    f = _shift_one([c << k * (n - i) for i, c in enumerate(f)])
    return [c >> k * (n - i) for i, c in enumerate(f)]


def _drop_zero_root(f):
    """f without its trailing zero coefficients, that is divided by x**k
    for its root 0 of multiplicity k (sympy's ``dup_reverse`` drops them)."""
    while f and not f[-1]:
        f = f[:-1]
    return f


def _lmq_exponent(f) -> int:
    """k such that sympy's ``dup_root_lower_bound`` of the positive roots,
    cut to an integer, is A = 2**k; -1 when A = 0.

    That bound is 1 / 2**(max(P) + 1), with P the local-max-quadratic
    (Akritas, J. UCS 15(3), 2009) exponents of the upper bound of ``f``
    reversed, by the loops of sympy's ``dup_root_upper_bound``.  With ``f``
    signed so that its lowest nonzero coefficient is positive and indices
    counted from its leading coefficient: for each negative coefficient i,
    the least (t[j] + log|f_i| - log f_j) // (j - i) over the positive
    coefficients j after it, the first such j on a tie, whose t[j] (1 at
    first) then grows by one.  log is sympy's int(math.log(c, 2)), once per
    coefficient, which exceeds c.bit_length() - 1 for some c just below a
    power of 2, such as 2**60 - 1.  A = 0 once an exponent is >= 0."""
    g = _drop_zero_root(f)
    if g[-1] < 0:
        g = [-c for c in g]
    tl = [1 - int(math.log(c, 2)) if c > 0 else 0 for c in g]  # t[j] - log f_j
    pos = [j for j, c in enumerate(g) if c > 0]
    qs, s = [], 0  # pos[s:]: the positive coefficients after i
    for i, c in enumerate(g):
        if c >= 0:
            s += c > 0
            continue
        a = int(math.log(-c, 2))
        q = math.inf  # g[-1] > 0, so every negative has a positive after it
        for k in pos[s:]:
            x = (tl[k] + a) // (k - i)
            if x < q:
                q, j = x, k
        if q >= 0:
            return -1
        tl[j] += 1
        qs.append(q)
    return -1 - max(qs) if qs else -1


def dominant_eigenvalue(a: Automaton) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure of the Perron root of the trimmed
    automaton's adjacency matrix (largest real root of its characteristic
    polynomial); (0, 0) when that root is 0, as when it has no cycle."""
    return perron_enclosure(char_poly(trim(a)))


def is_codeterministic(a: Automaton) -> bool:
    return transpose(a).deterministic


def equivalent(a: Automaton, b: Automaton) -> bool:
    """Language equality via identity of canonical minimal forms.  The
    canonical numbering follows the alphabet order, so when both alphabets
    hold the same letters ``b`` is read in ``a``'s order."""
    if b.alphabet != a.alphabet and set(b.alphabet) == set(a.alphabet):
        b = Automaton(a.alphabet, b.n_states, b.transitions, b.initials, b.finals)
    ma, mb = minimize(a), minimize(b)
    return (ma.n_states == mb.n_states and ma.initials == mb.initials
            and ma.finals == mb.finals and ma.transitions == mb.transitions)


# ---------------------------------------------------------------------------
# serialization


def _letter_from_str(s: str):
    if "," in s:
        return PairLetter(*s.split(",", 1))
    return s


def to_json(a: Automaton) -> dict:
    return {
        "alphabet": [str(x) for x in a.alphabet],
        "states": [{"label": lbl} for lbl in a.labels],
        "initials": sorted(a.initials),
        "finals": sorted(a.finals),
        "transitions": sorted(
            [p, a._letter_index[x], q] for (p, x, q) in a.transitions),
    }


def from_json(doc: dict) -> Automaton:
    try:
        alphabet = tuple(_letter_from_str(s) for s in doc["alphabet"])
        labels = [s["label"] for s in doc["states"]]
        transitions = [(p, alphabet[i], q) for (p, i, q) in doc["transitions"]]
        return Automaton(alphabet, len(labels), transitions,
                         doc["initials"], doc["finals"], labels)
    except (KeyError, TypeError, IndexError) as e:
        raise ValueError(f"malformed automaton document: {e}") from e


_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def to_dot(a: Automaton, name: str = "A") -> str:
    """DOT output; initial states bold, final states doubled, one edge per
    state pair with its letters joined by " ; ".  The graph name is quoted
    unless it is a plain DOT identifier (``mult_-1`` is not)."""
    if not _DOT_ID.fullmatch(name):
        name = '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'
    lines = [f"digraph {name} {{", "  rankdir=LR;"]
    for s in range(a.n_states):
        shape = "doublecircle" if s in a.finals else "circle"
        style = ', style=bold' if s in a.initials else ""
        lines.append(f'  {s} [label="{a.labels[s]}", shape={shape}{style}];')
    letter = {x: str(x) for x in a.alphabet}
    grouped = {}
    for (p, q, x) in sorted((p, q, letter[x]) for (p, x, q) in a.transitions):
        grouped.setdefault((p, q), []).append(x)
    for (p, q), letters in grouped.items():
        lbl = " ; ".join(letters)
        lines.append(f'  {p} -> {q} [label="{lbl}"];')
    lines.append("}")
    return "\n".join(lines)
