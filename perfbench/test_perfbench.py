"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def span(name, start, end, parent=-1, op="a", size=None):
    return [name, start, end, parent, op, size]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("op", 0, 100),
        span("cli.main", 5, 95, 0),
        span("automata.minimize", 10, 60, 1),
        span("automata.determinize", 20, 50, 2),
        span("automata.minimize", 70, 80, 1),
    ]
    st = {k: round(v * 1e9) for k, v in tracing.self_times(spans).items()}
    assert st == {"op": 10, "cli.main": 30, "automata.minimize": 30,
                  "automata.determinize": 30}
    assert sum(st.values()) == 100  # self times partition the root span
    assert round(tracing.total_times(spans)["automata.minimize"] * 1e9) == 60


def test_total_time_does_not_double_count_recursion():
    spans = [span("cli.main", 0, 100), span("cli.main", 10, 20, 0)]
    assert round(tracing.total_times(spans)["cli.main"] * 1e9) == 100


def test_recorder_nests_spans_only_inside_an_op():
    rec = tracing.Recorder()
    inner = rec.wrap("automata.trim", lambda: SimpleNamespace(n_states=7))
    outer = rec.wrap("structure.reduced", lambda: inner())
    outer()
    assert rec.spans == []
    rec.op = "op-1"
    root = rec.open("op")
    outer()
    rec.close(root)
    names = [(s[tracing.NAME], s[tracing.PARENT], s[tracing.OP], s[tracing.SIZE])
             for s in rec.spans]
    assert names == [("op", -1, "op-1", None), ("structure.reduced", 0, "op-1", 7),
                     ("automata.trim", 1, "op-1", 7)]
    assert tracing.layer_of("op") == "unattributed"
    assert tracing.layer_of("automata.trim") == "automata"


def test_wrapper_closes_span_and_reports_exception():
    rec = tracing.Recorder()
    seen = []

    def boom():
        raise KeyError("x")

    wrapped = rec.wrap("relations.build", boom, lambda r, res, exc: seen.append(exc))
    rec.op = "op-1"
    with pytest.raises(KeyError):
        wrapped()
    assert rec.spans[0][tracing.END] is not None
    assert isinstance(seen[0], KeyError)


def test_tail_percentile_needs_ten_samples_beyond():
    with pytest.raises(ValueError):
        tracing.tail_percentile(range(1, 50), 0.8)  # 49 samples: 9 beyond p80
    assert tracing.tail_percentile(range(1, 51), 0.8) == 40  # 10 beyond
    with pytest.raises(ValueError):
        tracing.tail_percentile(range(99), 0.9)
    assert tracing.tail_percentile(range(1, 101), 0.9) == 90


def _env(tmp_path, expected):
    args = SimpleNamespace(workload="fixture_sweep", seed=0, pass_index=0,
                           workdir=str(tmp_path), setup_only=False)
    return worker.Env(args, expected)


def _free_intro(env):
    cfg = str(worker.FIXTURES / "intro.json")
    worker.run_cli(env, "free:intro", "free", ["free", "--config", cfg, "--force"])
    worker.normalize(env.ops, [])
    return env.ops[-1]


def test_recorded_digest_passes_and_wrong_digest_is_a_failed_op(tmp_path):
    expected = worker.load_expected("fixture_sweep")
    assert "free:intro" in expected
    assert _free_intro(_env(tmp_path, expected))["ok"]

    wrong = json.loads(json.dumps(expected))
    wrong["free:intro"]["stdout"] = "0" * 64  # a deliberately wrong digest
    op = _free_intro(_env(tmp_path, wrong))
    assert not op["ok"] and "stdout digest differs" in op["why"]

    op = {**op, "kind": "structure"}
    rep = run.report_metrics("kenyon_large", {
        "passes": [{"ops": [op, {**op, "ok": True}], "peak_rss_mb": 1.0,
                    "probe_s": [1e-4]}],
        "setups": [(1.0, 1.0)], "wall": 1.0})
    assert rep["error_rate"][0] == 0.5


def test_wrong_artefact_digest_is_reported_by_name():
    observed = {"exit": 0, "stdout": "s", "files": {"growth.json": ["g", "g"]}}
    want = {"op": {"exit": 0, "stdout": "s", "files": {"growth.json": ["h", "h"]}}}
    assert worker.check_artefacts(want, "op", observed) == ("growth.json digest differs", 0)
    assert worker.check_artefacts(want, "other", observed) == ("no recorded digests", 0)
    assert worker.check_artefacts({"op": observed}, "op", observed) == ("", 0)
    # same bytes once state labels are blanked: counted, not failed
    relabelled = {"op": {"exit": 0, "stdout": "s", "files": {"growth.json": ["h", "g"]}}}
    assert worker.check_artefacts(relabelled, "op", observed) == ("", 1)


def test_label_blind_blanks_state_labels_only():
    dot_a = b'digraph m {\n  0 [label="{#0}", shape=circle];\n  0 -> 0 [label="0,1"];\n}'
    dot_b = b'digraph m {\n  0 [label="{#3}", shape=circle];\n  0 -> 0 [label="0,1"];\n}'
    dot_c = b'digraph m {\n  0 [label="{#0}", shape=circle];\n  0 -> 0 [label="1,1"];\n}'
    blind = worker.label_blind
    assert blind("m.dot", dot_a) == blind("m.dot", dot_b) != blind("m.dot", dot_c)
    js_a = json.dumps({"states": [{"label": "a"}], "transitions": [[0, 0, 0]]}).encode()
    js_b = json.dumps({"states": [{"label": "b"}], "transitions": [[0, 0, 0]]}).encode()
    js_c = json.dumps({"states": [{"label": "a"}], "transitions": [[0, 1, 0]]}).encode()
    assert blind("m.json", js_a) == blind("m.json", js_b) != blind("m.json", js_c)
    assert blind("growth.json", b'{"counts": []}') == b'{"counts": []}'


def test_install_wraps_and_restore_puts_originals_back(tmp_path):
    from betauto import automata, cli, structure

    before = (cli.main, structure.minimize, automata.minimize, automata.Automaton.delta)
    env = _env(tmp_path, worker.load_expected("fixture_sweep"))
    restore = tracing.install(env.rec)
    try:
        assert cli.main is not before[0] and structure.minimize is not before[1]
        cfg = str(worker.FIXTURES / "intro.json")
        out = tmp_path / "intro"
        worker.run_cli(env, "structure:intro", "structure",
                       ["structure", "--config", cfg, "--out", str(out)]
                       + worker.STRUCTURE_ARGS, out)
    finally:
        restore()
    assert (cli.main, structure.minimize, automata.minimize,
            automata.Automaton.delta) == before
    assert env.ops[-1]["ok"], env.ops[-1]["why"]
    spans = env.rec.spans
    names = {s[tracing.NAME] for s in spans}
    assert {"op", "cli.main", "cli.structure", "numfield.context", "relations.build",
            "structure.reduced", "structure.multiplier", "structure.growth",
            "automata.minimize", "automata.char_poly", "automata.to_json"} <= names
    # every span closed, and self times add up to the op span
    root = spans[0]
    total = sum(tracing.self_times(spans).values())
    assert abs(total - (root[tracing.END] - root[tracing.START]) / 1e9) < 1e-9
