"""Word reduction: map any digit word to its reduced representative.

Runs the relation automaton as a letter-to-letter transducer restricted to
reduced outputs: a forward pass over subsets of (relation state, reduced
state) pairs, then a deterministic backward extraction of the output word.
Per input letter the work is bounded by the (cached) subset transitions, so
reduction is linear in the word length.
"""

from __future__ import annotations

from .automata import Automaton, PairLetter, accepts
from .relations import RelAutomaton


class ReducerTable:
    """Precomputed transition data for reducing words of one structure."""

    def __init__(self, rel: RelAutomaton, reduced: Automaton):
        self.rel = rel
        self.reduced = reduced
        self.names = list(rel.context.digit_names)
        self.rel_delta = rel.automaton.ddelta()
        self.red_delta = reduced.ddelta()
        (self.rel_init,) = rel.automaton.initials
        (self.red_init,) = reduced.initials
        self._cache = {}  # (subset, input letter) -> next subset

    def _index(self, g) -> str:
        if isinstance(g, int) and not isinstance(g, bool):
            name = self.names[g] if 0 <= g < len(self.names) else g
        else:
            name = str(g)
        if name not in self.names:
            raise ValueError(f"unknown digit {name!r}")
        return name

    def _step(self, subset: frozenset, a: str) -> frozenset:
        key = (subset, a)
        nxt = self._cache.get(key)
        if nxt is None:
            out = set()
            for (r, s) in subset:
                for b in self.names:
                    r2 = self.rel_delta.get((r, PairLetter(a, b)))
                    if r2 is None:
                        continue
                    s2 = self.red_delta.get((s, b))
                    if s2 is not None:
                        out.add((r2, s2))
            nxt = frozenset(out)
            self._cache[key] = nxt
        return nxt

    def reduce(self, word) -> tuple:
        """Reduced representative of the word, as a tuple of digit names."""
        letters = [self._index(g) for g in word]
        subsets = [frozenset({(self.rel_init, self.red_init)})]
        for a in letters:
            subsets.append(self._step(subsets[-1], a))

        rel_finals = self.rel.automaton.finals
        red_finals = self.reduced.finals
        finals = sorted(
            (r, s) for (r, s) in subsets[-1]
            if r in rel_finals and s in red_finals)
        if not finals:
            raise ValueError("word has no reduced equivalent (inconsistent input)")
        cur = finals[0]
        out = []
        for i in range(len(letters) - 1, -1, -1):
            a = letters[i]
            best = None
            for bi, b in enumerate(self.names):
                pl = PairLetter(a, b)
                for prev in sorted(subsets[i]):
                    if (self.rel_delta.get((prev[0], pl)) == cur[0]
                            and self.red_delta.get((prev[1], b)) == cur[1]):
                        best = (bi, prev)
                        break
                if best is not None:
                    break
            assert best is not None, "backward extraction lost the path"
            out.append(self.names[best[0]])
            cur = best[1]
        out.reverse()
        return tuple(out)

    def equivalent(self, u, v) -> bool:
        """Exact equality of the two represented maps.  Words of different
        lengths are never equivalent (the base is not a root of unity)."""
        u = [self._index(g) for g in u]
        v = [self._index(g) for g in v]
        if len(u) != len(v):
            return False
        return accepts(self.rel.automaton,
                       [PairLetter(a, b) for a, b in zip(u, v)])

