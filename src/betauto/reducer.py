"""Word reduction: map any digit word to its reduced representative.

Runs the relation automaton as a letter-to-letter transducer restricted to
reduced outputs: a forward pass over subsets of (relation state, reduced
state) pairs, then a deterministic backward extraction of the output word.
Both automata are dense integer tables over digit indices, and a pair
(r, s) is the integer ``r * n_reduced + s``, so integer order is (r, s)
order.

The forward subsets hold live pairs only: pairs from which some input word
drives both automata into a (final, final) pair.  The extraction walks back
from a final pair through predecessors, which are all live, so dropping the
other pairs changes no output; it makes the subsets, and the number of
distinct (subset, letter) steps, several times smaller.  The live set is
``automata.live_pairs(reduced, rel.automaton, 2)``, the bitmap over pairs
that the multiplier search also uses, built on the first cache miss, so
building a table and ``equivalent`` never pay for it (10-15 ms on
``pisot_x3-x-1``, 179 x 138 pairs).

Per input letter, the forward pass costs one cached subset step: a lookup
of (subset, letter), and on a miss the union of the pairs' live successor
rows.  The extraction costs O(k * |pred|): it scans the predecessor pairs
of the current pair, by output letter and then in increasing order, and
takes the first that lies in the forward subset.  Successor and predecessor
rows are built lazily, once per (pair, input letter), so the set-up is
linear in the size of the two automata and reduction is linear in the word
length: about 1-2 us per letter cold and under 1 us warm on
``pisot_x3-x-1`` (2-vCPU x86-64, CPython 3.11).
"""

from __future__ import annotations

from itertools import chain

from .automata import Automaton, live_pairs, pair_alphabet, transpose
from .automata import accepts  # noqa: F401  (the benchmark tracer wraps reducer.accepts)
from .relations import RelAutomaton


class ReducerTable:
    """Precomputed transition data for reducing words of one structure."""

    def __init__(self, rel: RelAutomaton, reduced: Automaton):
        names = tuple(rel.context.digit_names)
        if reduced.alphabet != names:
            raise ValueError(
                f"reduced alphabet {reduced.alphabet!r} is not the digit names {names!r}")
        if rel.automaton.alphabet != pair_alphabet(names):
            raise ValueError(
                f"relation letters {rel.automaton.alphabet!r} are not the pairs of "
                f"the digit names {names!r}")
        for what, aut in (("relation", rel.automaton), ("reduced", reduced)):
            if not aut.deterministic:
                raise ValueError(
                    f"{what} automaton is not deterministic with a single initial state")
        self.rel = rel
        self.reduced = reduced
        self.names = names
        self._position = {g: i for i, g in enumerate(names)}
        k = self._k = len(names)
        n_red = self._n_red = reduced.n_states

        # successors (-1: no edge) and sorted predecessors by letter index;
        # the relation letter (names[a], names[b]) has index a * k + b
        self._rel_next = rel.automaton.ddelta()
        self._red_next = reduced.ddelta()
        self._rel_pred, self._red_pred = (
            [[sorted(cell or ()) for cell in row] for row in transpose(aut).delta()]
            for aut in (rel.automaton, reduced))

        (self.rel_init,) = rel.automaton.initials
        (self.red_init,) = reduced.initials
        self._start = frozenset({self.rel_init * n_red + self.red_init})
        self._final = frozenset(r * n_red + s for r in rel.automaton.finals
                                for s in reduced.finals)
        # per input letter, pair -> its successor pairs, and pair -> its
        # (predecessor pair, output letter) candidates in extraction order
        self._succ = [{} for _ in range(k)]
        self._pred = [{} for _ in range(k)]
        self._cache = {}  # (subset, input letter index) -> next subset
        self._live = None  # bytearray over pairs, built on the first cache miss

    def _index(self, g) -> int:
        if isinstance(g, int) and not isinstance(g, bool):
            if 0 <= g < self._k:
                return g
            name = g
        else:
            name = str(g)
            i = self._position.get(name)
            if i is not None:
                return i
        raise ValueError(f"unknown digit {name!r}")

    def _succ_row(self, pair: int, a: int) -> tuple:
        k, n_red, live = self._k, self._n_red, self._live
        r, s = divmod(pair, n_red)
        rn, sn = self._rel_next[r], self._red_next[s]
        return tuple(p for b in range(k)
                     if (r2 := rn[a * k + b]) >= 0 and (s2 := sn[b]) >= 0
                     and live[p := r2 * n_red + s2])

    def _pred_row(self, pair: int, a: int) -> tuple:
        k, n_red = self._k, self._n_red
        r, s = divmod(pair, n_red)
        rp, sp = self._rel_pred[r], self._red_pred[s]
        return tuple((r0 * n_red + s0, b) for b in range(k)
                     for r0 in rp[a * k + b] for s0 in sp[b])

    def _step(self, subset: frozenset, a: int) -> frozenset:
        """Successor subset on input letter ``a``; fills the cache."""
        if self._live is None:
            self._live = live_pairs(self.reduced, self.rel.automaton, 2)
        rows = self._succ[a]
        for pair in subset.difference(rows):
            rows[pair] = self._succ_row(pair, a)
        nxt = self._cache[subset, a] = frozenset(
            chain.from_iterable(map(rows.__getitem__, subset)))
        return nxt

    def reduce(self, word) -> tuple:
        """Reduced representative of the word, as a tuple of digit names."""
        letters = [self._index(g) for g in word]
        cache = self._cache
        sub = self._start
        subsets = [sub]
        for a in letters:
            nxt = cache.get((sub, a))
            if nxt is None:
                nxt = self._step(sub, a)
            subsets.append(nxt)
            sub = nxt

        finals = sub & self._final
        if not finals:
            raise ValueError("word has no reduced equivalent (inconsistent input)")
        # the first output letter with a predecessor pair in the subset, and
        # the least such pair
        pred = self._pred
        pair = min(finals)
        out = []
        for i in range(len(letters) - 1, -1, -1):
            a = letters[i]
            row = pred[a].get(pair)
            if row is None:
                row = pred[a][pair] = self._pred_row(pair, a)
            sub = subsets[i]
            for pair, b in row:
                if pair in sub:
                    break
            else:
                raise AssertionError("backward extraction lost the path")
            out.append(b)
        out.reverse()
        return tuple(map(self.names.__getitem__, out))

    def equivalent(self, u, v) -> bool:
        """Exact equality of the two represented maps.  Words of different
        lengths are never equivalent (the base is not a root of unity)."""
        u = [self._index(g) for g in u]
        v = [self._index(g) for g in v]
        if len(u) != len(v):
            return False
        rel_next, k = self._rel_next, self._k
        r = self.rel_init
        for a, b in zip(u, v):
            r = rel_next[r][a * k + b]
            if r < 0:
                return False
        return r in self.rel.automaton.finals
