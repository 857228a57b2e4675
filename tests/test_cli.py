import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import betauto
import betauto.numfield as nf
from betauto import automata as au
from betauto import cli
from betauto.cli import main

from conftest import fixture_path


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def cfg(name):
    return str(fixture_path(name))


def subprocess_env(**extra):
    """Environment in which ``python -m betauto.cli`` imports this checkout."""
    src = str(Path(betauto.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


# --- relations ----------------------------------------------------------------


def test_relations_intro(tmp_path, capsys):
    code, out, _ = run(capsys, "relations", "--config", cfg("intro"),
                       "--out", tmp_path)
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "ok"
    assert summary["state_count"] == 3
    assert summary["free"] is False
    doc = json.loads((tmp_path / "relations.json").read_text())
    assert len(doc["states"]) == 3
    assert (tmp_path / "relations.dot").read_text().startswith("digraph")


def test_relations_deterministic_output(tmp_path, capsys):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run(capsys, "relations", "--config", cfg("kenyon_2_5"), "--out", d1)
    run(capsys, "relations", "--config", cfg("kenyon_2_5"), "--out", d2)
    for f in ["relations.json", "relations.dot", "summary.json"]:
        assert (d1 / f).read_bytes() == (d2 / f).read_bytes()


def test_relations_free_case(tmp_path, capsys):
    code, _, _ = run(capsys, "relations", "--config", cfg("kenyon_1_5"),
                     "--out", tmp_path)
    assert code == 0
    assert json.loads((tmp_path / "summary.json").read_text())["free"] is True


def test_relations_salem_blocked(tmp_path, capsys):
    code, _, err = run(capsys, "relations", "--config", cfg("salem"),
                       "--out", tmp_path)
    assert code == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "blocked"
    assert not (tmp_path / "relations.json").exists()


def test_relations_salem_forced_capped(tmp_path, capsys):
    code, _, err = run(capsys, "relations", "--config", cfg("salem"),
                       "--out", tmp_path, "--force", "--max-states", "2000")
    assert code == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "capped"
    assert "does not certify" in summary["note"]


# --- structure ----------------------------------------------------------------


def test_structure_intro(tmp_path, capsys):
    code, _, _ = run(capsys, "structure", "--config", cfg("intro"),
                     "--out", tmp_path, "-N", "6", "--candidate-pi", "1,-3,1",
                     "--json")
    assert code == 0
    g = json.loads((tmp_path / "growth.json").read_text())
    assert g["counts"] == ["1", "3", "8", "21", "55", "144", "377"]
    assert g["char_poly"] == [1, -3, 1]
    assert g["pi_check"]["ok"] is True
    assert abs(g["lambda"]["lo"] - 2.618034) < 1e-5
    for f in ["reduced.json", "reduced.dot", "mult_0.json", "mult_1.json",
              "mult_3.json", "mult_0.dot"]:
        assert (tmp_path / f).exists()


@pytest.mark.parametrize("name", ["kenyon_3_8", "transc_1_over_X2+X+1"])
def test_structure_independent_of_hash_seed(tmp_path, name):
    outputs = []
    for seed in ("0", "2"):
        out = tmp_path / seed
        proc = subprocess.run(
            [sys.executable, "-m", "betauto.cli", "structure", "--config", cfg(name),
             "--out", str(out)], env=subprocess_env(PYTHONHASHSEED=seed),
            capture_output=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append((proc.stdout,
                        {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
    (out0, files0), (out1, files1) = outputs
    assert out0 == out1
    assert sorted(files0) == sorted(files1)
    assert any(f.startswith("mult_") for f in files0)
    for f in files0:
        assert files0[f] == files1[f], f


def test_structure_revlex(tmp_path, capsys):
    code, _, _ = run(capsys, "structure", "--config", cfg("intro"),
                     "--out", tmp_path, "--order", "revlex", "-N", "4")
    assert code == 0
    g = json.loads((tmp_path / "growth.json").read_text())
    assert g["counts"] == ["1", "3", "8", "21", "55"]


@pytest.mark.parametrize("candidate, code", [("1,-3,1", 0), ("1,-1,-1", 3)])
def test_structure_candidate_check_exit_code(tmp_path, capsys, candidate, code):
    got, _, _ = run(capsys, "structure", "--config", cfg("intro"),
                    "--out", tmp_path, "-N", "4", "--candidate-pi", candidate)
    assert got == code
    g = json.loads((tmp_path / "growth.json").read_text())
    assert g["pi_check"]["ok"] is (code == 0)
    assert (tmp_path / "mult_3.dot").exists()


def test_structure_bad_candidate(tmp_path, capsys):
    code, _, err = run(capsys, "structure", "--config", cfg("intro"),
                       "--out", tmp_path, "--candidate-pi", "1,x,3")
    assert code == 1


@pytest.mark.parametrize("flags", [
    ["--candidate-pi", "0"],
    ["--candidate-pi", "0,0,0"],
    ["--candidate-pi", "x"],
    ["-N", "-4"],
])
def test_structure_bad_flags_fail_before_build(tmp_path, capsys, flags):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "structure", "--config", cfg("intro"),
                            "--out", out, *flags)
    assert code == 1 and stdout == "" and err.startswith("error: ")
    assert not out.exists()


# --- word commands --------------------------------------------------------------


def test_reduce_word(tmp_path, capsys):
    code, out, _ = run(capsys, "reduce", "--config", cfg("intro"),
                       "--out", tmp_path, "10")
    assert code == 0
    assert out.strip() == "03"


def test_equiv(tmp_path, capsys):
    code, out, _ = run(capsys, "equiv", "--config", cfg("intro"),
                       "--out", tmp_path, "110", "033")
    assert code == 0 and out.strip() == "equivalent"
    code, out, _ = run(capsys, "equiv", "--config", cfg("intro"),
                       "--out", tmp_path, "110", "031")
    assert code == 0 and out.strip() == "distinct"


def test_verify_words(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--config", cfg("intro"),
                       "--out", tmp_path, "10", "03")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "verify", "--config", cfg("intro"),
                       "--out", tmp_path, "10", "33")
    assert code == 3 and out.strip() == "false"
    code, _, _ = run(capsys, "verify", "--config", cfg("intro"),
                     "--out", tmp_path, "10", "033")
    assert code == 1


def test_verify_identity(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--config", cfg("salem"),
                       "--out", tmp_path,
                       "--identity", cfg("salem_identity"), "--json")
    assert code == 0
    assert json.loads(out)["verified"] is True


# --- free ------------------------------------------------------------------------


def test_free_kenyon(tmp_path, capsys):
    code, out, _ = run(capsys, "free", "--config", cfg("kenyon_1_5"),
                       "--out", tmp_path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["free"] is True
    assert any(r.startswith("kenyon") for r in doc["reasons"])


def test_free_mahler(tmp_path, capsys):
    code, out, _ = run(capsys, "free", "--config", cfg("pisot_x2-x-1"),
                       "--out", tmp_path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["free"] is False
    assert "mahler<2" in doc["reasons"]


def test_free_quick_sufficient(tmp_path, capsys):
    code, out, _ = run(capsys, "free", "--config",
                       cfg("free_x4-3x3-3x2-3x+1"), "--out", tmp_path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["free"] is True
    assert "expanding-separation" in doc["reasons"]


def test_free_salem_mahler(tmp_path, capsys):
    # the Mahler bound settles this without building the (blocked) automaton
    code, out, _ = run(capsys, "free", "--config", cfg("salem"),
                       "--out", tmp_path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["free"] is False
    assert "mahler<2" in doc["reasons"]


def test_free_salem_inconclusive(tmp_path, capsys):
    # with three digits no shortcut applies and the build is blocked
    config = json.loads(fixture_path("salem").read_text())
    config["digits"] = [0, 1, 2]
    f = tmp_path / "salem3.json"
    f.write_text(json.dumps(config))
    code, out, _ = run(capsys, "free", "--config", f, "--out", tmp_path,
                       "--json")
    assert code == 2
    doc = json.loads(out)
    assert doc["free"] is None
    assert doc["status"] == "blocked"


# --- oracle ----------------------------------------------------------------------


def test_oracle_intro(tmp_path, capsys):
    code, out, _ = run(capsys, "oracle", "--config", cfg("intro"),
                       "--out", tmp_path, "-n", "4")
    assert code == 0
    assert "4/4 oracle checks passed" in out
    assert "[FAIL]" not in out


def test_oracle_catches_a_wrong_relation_language(tmp_path, capsys, monkeypatch):
    structure_parts = cli._structure_parts

    def with_extra_final(ctx, args):
        rel, reduced = structure_parts(ctx, args)
        a = rel.automaton
        # the state after the pair (0, 1), whose value 0 - 1 is not zero
        r = a.ddelta()[min(a.initials)][1]
        assert r >= 0 and r not in a.finals
        wrong = au.Automaton(a.alphabet, a.n_states, a.transitions, a.initials,
                             set(a.finals) | {r})
        return replace(rel, automaton=wrong), reduced

    monkeypatch.setattr(cli, "_structure_parts", with_extra_final)
    code, out, _ = run(capsys, "oracle", "--config", cfg("intro"),
                       "--out", tmp_path, "-n", "4")
    assert code == 3
    assert "[FAIL] relation language vs exact arithmetic (lengths 0..4)" in out


# --- input errors ------------------------------------------------------------------


def test_missing_config(tmp_path, capsys):
    code, _, err = run(capsys, "relations", "--config",
                       tmp_path / "nope.json", "--out", tmp_path)
    assert code == 1 and "error" in err


def test_invalid_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"beta": {"minpoly": [1, -2, 1]}, "digits": [0, 1]}))
    code, _, err = run(capsys, "relations", "--config", bad, "--out", tmp_path)
    assert code == 1


@pytest.mark.parametrize("doc", [
    {"beta": {"minpoly": [-3, 1]}, "digits": [0, 1.5]},
    {"beta": {"minpoly": [-3, 1]}, "digits": [0, True]},
    {"beta": {"minpoly": [-3, 1]}, "digits": [0, "x"]},
    {"beta": {"minpoly": [-3.0, 1]}, "digits": [0, 1]},
    {"beta": {"minpoly": [-3, 1]}, "digits": [0, 1], "precision": "abc"},
    {"beta": {"minpoly": [-3, 1]}, "digits": [0, 1], "precision": 0},
    {"beta": {"minpoly": [-3, 1]}, "digits": [0, 1], "precision": -5},
    {"beta": {"minpoly": [-3, 1]}, "digits": [0, 1], "precision": 2001},
    [{"beta": {"minpoly": [-3, 1]}, "digits": [0, 1]}],
])
def test_bad_config_values(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "free", "--config", bad, "--out", tmp_path)
    assert code == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("minpoly", [
    [6, -5, 1],  # (x - 2)(x - 3)
    [-3, 1, -3, 1],  # (x - 3)(x^2 + 1)
])
def test_reducible_minpoly(tmp_path, capsys, minpoly):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"beta": {"minpoly": minpoly}, "digits": [0, 1, 3]}))
    code, out, err = run(capsys, "free", "--config", bad, "--out", tmp_path)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "is reducible" in err


@pytest.mark.parametrize("argv", [
    ["relations", "--max-states", "-5"],
    ["relations", "--max-states", "0"],
    ["relations", "--max-depth", "-1"],
    ["structure", "--max-states", "0"],
    ["oracle", "-n", "-1"],
])
def test_nonsense_limits_fail_before_build(tmp_path, capsys, argv):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, *argv, "--config", cfg("intro"), "--out", out)
    assert code == 1 and stdout == "" and err.startswith("error: ")
    assert not out.exists()


def test_degree_above_limit_input_error(tmp_path, capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("root isolation reached")

    monkeypatch.setattr(nf, "_embeddings", refuse)
    bad = tmp_path / "big.json"
    bad.write_text(json.dumps({"beta": {"minpoly": [-2] + [0] * nf.MAX_DEGREE + [1]},
                               "digits": [0, 1]}))
    code, out, err = run(capsys, "free", "--config", bad, "--out", tmp_path)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and f"exceeds {nf.MAX_DEGREE}" in err


def test_bad_precision_flag(tmp_path, capsys):
    code, _, err = run(capsys, "free", "--config", cfg("intro"),
                       "--out", tmp_path, "--precision", "0")
    assert code == 1 and err.startswith("error: ")


def test_bad_word_digit(tmp_path, capsys):
    code, _, err = run(capsys, "reduce", "--config", cfg("intro"),
                       "--out", tmp_path, "12")
    assert code == 1


def test_inseparable_roots_input_error(tmp_path):
    # roots 1 +- 1e-20 share one float centre: root isolation must give up at
    # its precision cap with an input error, not double the precision forever
    k = 10**40
    bad = tmp_path / "close.json"
    bad.write_text(json.dumps({"beta": {"minpoly": [1, -(k + 2), 2 * k + 3, -(k + 2), 1]},
                               "digits": [0, 1]}))
    proc = subprocess.run(
        [sys.executable, "-m", "betauto.cli", "free", "--config", str(bad)],
        env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ")
