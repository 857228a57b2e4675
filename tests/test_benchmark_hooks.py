"""The traced benchmark wraps betauto's entry points by attribute name; a
name it wraps that ``src/`` drops must fail here, not crash a traced run."""

import importlib.util
from pathlib import Path

from betauto import automata, cli, numfield, reducer, relations, structure

from conftest import load_config

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

OWNERS = (automata, cli, numfield, reducer, relations, structure,
          automata.Automaton, reducer.ReducerTable)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_install_and_restore():
    tracing = load_tracing()
    before = [dict(vars(owner)) for owner in OWNERS]
    try:
        restore = tracing.install(tracing.Recorder())
        patched = {(owner, attr) for owner, old in zip(OWNERS, before)
                   for attr, value in vars(owner).items() if old.get(attr) is not value}
        assert (reducer, "accepts") in patched
        assert (reducer.ReducerTable, "reduce") in patched
        assert (automata.Automaton, "ddelta") in patched
        restore()
        for owner, old in zip(OWNERS, before):
            assert vars(owner).keys() == old.keys(), owner
            for attr, value in old.items():
                assert vars(owner)[attr] is value, (owner, attr)
    finally:
        # undo whatever a failed install or restore left wrapped
        for owner, old in zip(OWNERS, before):
            for attr, value in old.items():
                if vars(owner).get(attr) is not value:
                    setattr(owner, attr, value)


def test_tracing_records_the_transition_tables():
    # the tracer wraps ``delta`` and ``ddelta`` as methods: were either a
    # property, its wrapped attribute would be a bound method, not a table,
    # and this run would fail
    tracing = load_tracing()
    rec = tracing.Recorder()
    restore = tracing.install(rec)
    try:
        rec.op = "intro"
        ctx = numfield.context_from_config(load_config("intro"))
        rel = relations.build_relation_automaton(ctx)
        reduced = structure.build_reduced_automaton(rel)
        structure.build_multiplier(rel, reduced, "1")
        reducer.ReducerTable(rel, reduced)
        rec.op = None
    finally:
        restore()
    names = {span[tracing.NAME] for span in rec.spans}
    assert {"automata.delta", "automata.ddelta", "automata.determinize"} <= names
