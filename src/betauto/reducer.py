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
the bitmap over pairs that ``automata.pair_tables(reduced, rel.automaton)``
returns first, read when the table is built; the multipliers of the
structure read it too, and it is kept on ``reduced``.  ``pair_tables`` is
also the check that the two automata fit together.

Each forward subset is interned once and named by an integer id (the start
subset is 0): ``_sets`` maps an id to its subset, ``_sid`` a subset to its
id, and ``_next[i][a]`` is the id of the successor of subset i on input
letter a, or -1 until it is first needed; ``_step`` then takes the union of
the pairs' live successor rows and interns it.  So per input letter the
forward pass costs two list lookups.  The extraction's choice at a letter
is the first predecessor pair of the current pair, by output letter and
then in increasing order, that lies in the forward subset before the
letter.  It depends only on the forward step (subset id, input letter) and
the current pair, so ``_back[i][a]`` caches it per step, as a dict from a
pair to (predecessor pair, output digit name); a miss scans the
predecessor row once (``_back_step``).  A warm extraction then costs one
cached lookup per letter.  Successor and predecessor rows are built lazily,
once per (pair, input letter), so the set-up is linear in the size of the
two automata and reduction is linear in the word length.

Letters are decoded by one dict from each digit name and each position to
the position, applied with a C-level ``map``; a word holding any letter
that is neither a str nor an int, or a letter the dict lacks, goes through
``relations.digit_index`` letter by letter, the rule ``verify_relation``
applies too.  On ``pisot_x3-x-1`` a reduction costs about 0.51 us per letter
cold and 0.24 us warm, and an equivalence test 0.16 us per letter
(``perfbench`` ``reduce_stream``, medians of ten runs, 2-vCPU x86-64,
CPython 3.11).
"""

from __future__ import annotations

from itertools import chain

from .automata import Automaton, pair_tables, transpose
from .automata import accepts  # noqa: F401  (the benchmark tracer wraps reducer.accepts)
from .relations import RelAutomaton, digit_index

# letter types the decoder dict may see: any other type (bool, float, an int
# subclass, an object named by its str()) takes the per-letter rule, since it
# can hash and compare equal to a key it must not decode to
_PLAIN = frozenset({str, int})


class ReducerTable:
    """Precomputed transition data for reducing words of one structure."""

    def __init__(self, rel: RelAutomaton, reduced: Automaton):
        names = tuple(rel.context.digit_names)
        if reduced.alphabet != names:
            raise ValueError(
                f"reduced alphabet {reduced.alphabet!r} is not the digit names {names!r}")
        # the bitmap of live pairs r * n_red + s; ``pair_tables`` also refuses
        # relation letters or automata that do not fit a reducer
        self._live = pair_tables(reduced, rel.automaton)[0]
        self.rel = rel
        self.reduced = reduced
        self.names = names
        k = self._k = len(names)
        n_red = self._n_red = reduced.n_states
        # digit name -> position, and position -> itself
        self._decode = {g: i for i, g in enumerate(names)}
        self._decode.update((i, i) for i in range(k))

        # successors (-1: no edge) and sorted predecessors by letter index;
        # the relation letter (names[a], names[b]) has index a * k + b
        self._rel_next = rel.automaton.ddelta()
        self._red_next = reduced.ddelta()
        self._rel_pred = transpose(rel.automaton).delta()
        self._red_pred = transpose(reduced).delta()

        (self.rel_init,) = rel.automaton.initials
        (self.red_init,) = reduced.initials
        self._final = frozenset(r * n_red + s for r in rel.automaton.finals
                                for s in reduced.finals)
        # per input letter, pair -> its successor pairs, and pair -> its
        # (predecessor pair, output digit name) candidates in extraction order
        self._succ = [{} for _ in range(k)]
        self._pred = [{} for _ in range(k)]
        # interned forward subsets: id -> subset, subset -> id, and per id the
        # successor id by input letter (-1: not computed yet); id 0 is the start
        start = frozenset({self.rel_init * n_red + self.red_init})
        self._sets = [start]
        self._sid = {start: 0}
        self._next = [[-1] * k]
        # per forward step (id, input letter), the extraction's choice: a pair
        # of the successor subset -> (predecessor pair, output digit name)
        self._back = [[{} for _ in range(k)]]

    def _letters(self, word) -> list:
        """Letter indices of ``word``: one C-level dict lookup per letter when
        every letter is a str or an int, otherwise (or for a letter the dict
        lacks, which then raises) ``relations.digit_index`` per letter."""
        word = list(word)
        if _PLAIN.issuperset(map(type, word)):
            try:
                return list(map(self._decode.__getitem__, word))
            except KeyError:
                pass
        return [digit_index(self.names, g) for g in word]

    def _succ_row(self, pair: int, a: int) -> tuple:
        k, n_red, live = self._k, self._n_red, self._live
        r, s = divmod(pair, n_red)
        rn, sn = self._rel_next[r], self._red_next[s]
        return tuple(p for b in range(k)
                     if (r2 := rn[a * k + b]) >= 0 and (s2 := sn[b]) >= 0
                     and live[p := r2 * n_red + s2])

    def _pred_row(self, pair: int, a: int) -> tuple:
        k, n_red, names = self._k, self._n_red, self.names
        r, s = divmod(pair, n_red)
        rp, sp = self._rel_pred[r], self._red_pred[s]
        return tuple((r0 * n_red + s0, names[b]) for b in range(k)
                     for r0 in rp[a * k + b] for s0 in sp[b])

    def _step(self, sid: int, a: int) -> int:
        """Id of the successor of subset ``sid`` on input letter ``a``: the
        union of its pairs' live successor rows, interned on first sight."""
        subset = self._sets[sid]
        rows = self._succ[a]
        for pair in subset.difference(rows):
            rows[pair] = self._succ_row(pair, a)
        nxt = frozenset(chain.from_iterable(map(rows.__getitem__, subset)))
        j = self._sid.get(nxt)
        if j is None:
            j = self._sid[nxt] = len(self._sets)
            self._sets.append(nxt)
            self._next.append([-1] * self._k)
            self._back.append([{} for _ in range(self._k)])
        self._next[sid][a] = j
        return j

    def _back_step(self, sid: int, a: int, pair: int) -> tuple:
        """(predecessor pair, output digit name) of ``pair`` on the step of
        subset ``sid`` on input letter ``a``: the first of the pair's
        candidates, by output letter and then in increasing order, that lies
        in the subset.  Cached for the step."""
        rows = self._pred[a]
        row = rows.get(pair)
        if row is None:
            row = rows[pair] = self._pred_row(pair, a)
        subset = self._sets[sid]
        for hit in row:
            if hit[0] in subset:
                self._back[sid][a][pair] = hit
                return hit
        raise AssertionError("backward extraction lost the path")

    def reduce(self, word) -> tuple:
        """Reduced representative of the word, as a tuple of digit names."""
        letters = self._letters(word)
        next_id = self._next
        sid = 0
        sids = []
        for a in letters:
            j = next_id[sid][a]
            if j < 0:
                j = self._step(sid, a)
            sids.append(sid)
            sid = j

        finals = self._sets[sid] & self._final
        if not finals:
            raise ValueError("word has no reduced equivalent (inconsistent input)")
        # from the least final pair, each step back is one cached choice
        back = self._back
        pair = min(finals)
        out = []
        for sid, a in zip(reversed(sids), reversed(letters)):
            try:
                pair, name = back[sid][a][pair]
            except KeyError:
                pair, name = self._back_step(sid, a, pair)
            out.append(name)
        out.reverse()
        return tuple(out)

    def equivalent(self, u, v) -> bool:
        """Exact equality of the two represented maps.  Words of different
        lengths are never equivalent (the base is not a root of unity)."""
        u = self._letters(u)
        v = self._letters(v)
        if len(u) != len(v):
            return False
        rel_next, k = self._rel_next, self._k
        r = self.rel_init
        for a, b in zip(u, v):
            r = rel_next[r][a * k + b]
            if r < 0:
                return False
        return r in self.rel.automaton.finals
