import hashlib
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
from betauto.automata import Automaton
from betauto.cli import main
from betauto.relations import build_relation_automaton
from betauto.structure import build_multiplier, build_reduced_automaton, growth

from conftest import (
    buildable_fixture_names,
    fixture_path,
    load_context,
    random_relation_automata,
)


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


@pytest.mark.parametrize("candidate, code", [
    ("1,-3,1", 0), ("1,-1,-1", 3), ("-1,3,-1", 0), ("2,-6,2", 3)])
def test_structure_candidate_check_exit_code(tmp_path, capsys, candidate, code):
    # the = form also takes a candidate whose first coefficient is negative
    got, _, _ = run(capsys, "structure", "--config", cfg("intro"),
                    "--out", tmp_path, "-N", "4", f"--candidate-pi={candidate}")
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
    ["--candidate-pi", ""],
    ["-N", "-4"],
])
def test_structure_bad_flags_fail_before_build(tmp_path, capsys, flags):
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "structure", "--config", cfg("intro"),
                            "--out", out, *flags)
    assert code == 1 and stdout == "" and err.startswith("error: ")
    assert not out.exists()


def test_structure_quotes_dot_name_of_negative_digit(tmp_path, capsys):
    config = tmp_path / "neg.json"
    config.write_text(json.dumps({"beta": {"minpoly": [-3, 1]}, "digits": [0, -1, 1]}))
    code, _, _ = run(capsys, "structure", "--config", config, "--out", tmp_path / "out")
    assert code == 0
    dot = (tmp_path / "out" / "mult_-1.dot").read_text()
    assert dot.startswith('digraph "mult_-1" {\n')
    assert (tmp_path / "out" / "mult_1.dot").read_text().startswith("digraph mult_1 {\n")


# x^3 - x^2 + 2x - 3 with digits {0, -3, 2}: the relation automaton closes,
# but the subset construction of its reducible words grows past 20,000
# subsets within a fraction of a second and without bound after that
BLOWUP_CONFIG = {"beta": {"minpoly": [-3, 2, -1, 1]}, "digits": [0, -3, 2]}


def test_structure_caps_the_subset_construction(tmp_path):
    config = tmp_path / "blowup.json"
    config.write_text(json.dumps(BLOWUP_CONFIG))
    proc = subprocess.run(
        [sys.executable, "-m", "betauto.cli", "structure", "--config", str(config),
         "--out", str(tmp_path / "out"), "--max-states", "20000"],
        env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("cannot build structure: state cap 20000 exceeded")
    assert "determinize" in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


# x^4 - x^3 - 3x^2 - x + 2 with digits {0, -1, 1}: at --max-states 8000 the
# lex reduced chain passes (7,976 subsets, 6,034 states), but each multiplier
# search makes about 483k states, more than 8,000 per relation state (55)
MULTIPLIER_BLOWUP_CONFIG = {"beta": {"minpoly": [2, -1, -3, -1, 1]},
                            "digits": [0, -1, 1]}


def test_structure_caps_the_multiplier_search(tmp_path):
    config = tmp_path / "blowup.json"
    config.write_text(json.dumps(MULTIPLIER_BLOWUP_CONFIG))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "betauto.cli", "structure", "--config", str(config),
         "--out", str(out), "--max-states", "8000"],
        env=subprocess_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "cannot build structure: state cap 8000 exceeded by the multiplier "
        "search for digit 0 (440000 search states")
    assert len(proc.stderr.splitlines()) == 1
    assert list(out.iterdir()) == []  # no artefact, not even reduced.json


def test_structure_caps_the_char_poly_blocks(tmp_path, capsys):
    # base 3 with digits {0, 2, 17}: 17 relation states, and a lex block of
    # 97 states whose packed rows take 22,641 64-bit words; the reduced
    # chain and the multipliers pass both caps
    config = tmp_path / "base3.json"
    config.write_text(json.dumps({"beta": {"minpoly": [-3, 1]}, "digits": [0, 2, 17]}))
    out = tmp_path / "out"
    code, stdout, err = run(capsys, "structure", "--config", config, "--out", out,
                            "--max-states", 1000)
    assert code == 2 and stdout == ""
    assert err == ("cannot build structure: word cap 17000 exceeded by char_poly: a "
                   "strongly connected block of 97 states packs into 22641 64-bit words\n")
    assert list(out.iterdir()) == []  # no artefact, not even reduced.json
    code, stdout, _ = run(capsys, "structure", "--config", config, "--out", out,
                          "--max-states", 1400)
    assert code == 0 and stdout.startswith("reduced_states=97 ")
    assert len(list(out.iterdir())) == 9


def test_structure_under_a_cap_that_bounds_the_multipliers(tmp_path, capsys):
    # the installed-CLI smoke run of the CI workflow
    code, out, _ = run(capsys, "structure", "--config", cfg("pisot_x3-x-1"),
                       "--max-states", 1000, "--out", tmp_path)
    assert code == 0 and out.startswith("reduced_states=138 ")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "growth.json", "mult_0.dot", "mult_0.json", "mult_1.dot", "mult_1.json",
        "reduced.dot", "reduced.json"]


@pytest.mark.parametrize("command, extra, message", [
    ("reduce", ["0"], "cannot reduce"), ("oracle", [], "cannot run oracle")])
def test_word_commands_cap_the_subset_construction(tmp_path, capsys, command,
                                                    extra, message):
    config = tmp_path / "blowup.json"
    config.write_text(json.dumps(BLOWUP_CONFIG))
    code, out, err = run(capsys, command, "--config", config, "--max-states", 5000,
                         *extra)
    assert code == 2 and out == ""
    assert err.startswith(f"{message}: state cap 5000 exceeded")
    assert "determinize" in err and len(err.splitlines()) == 1


# SHA-256 of every file that `structure --order ORDER -N 20` writes for
# kenyon_3_8 and that `relations` writes for intro, recorded before the JSON
# writer replaced json.dumps: the benchmark's digest gate re-serialises JSON
# artefacts before hashing them, so only these pin whitespace and layout.
# base3_0_2_17 (base 3, digits {0, 2, 17}: 97 reduced states) pins the
# labels of a large context's multipliers, which the benchmark compares
# label-blind; recorded before Moore refinement was seeded with each state's
# letters.  kenyon_1_2 is free, so its reduced automaton is the single state
# `all`; it and kenyon_3_8's revlex files were recorded before `complement`
# went through the minimizer.
PINNED_CONFIGS = {"base3_0_2_17": {"beta": {"minpoly": [-3, 1]}, "digits": [0, 2, 17]}}
PINNED_CLI_FILES = {
    ("structure", "base3_0_2_17", "lex"): {
        "growth.json": "1cb7157924d5a5b3ee74be569552853020d6376b9a651e36165b868ccd8280d7",
        "mult_0.dot": "536a223de35bf8e9f35f5ae8119f3b166a343c80d840fbeb346b6bfb7d4960a0",
        "mult_0.json": "a218df2c36fc62c04e7f107d78256dbb16b5314ab557257592e1175f027c714a",
        "mult_17.dot": "8f78ed672fd12b137f198b8157529498e4bd701ed28444d6b572ba9d495f651e",
        "mult_17.json": "f693fadda82c53096daf36d18efe376ebadfe2c1503e3bf65a1b1e95df077e58",
        "mult_2.dot": "d3623c8de88b14f623c80a7fe11123321d02175b2846687e928ec62163a12e50",
        "mult_2.json": "31d2fb328613a26ce2cf9b15393ad81b9d230a75045ff5e1e493d6275916461c",
        "reduced.dot": "d59be40a34bcb4de8c0a47fec068eac19a55c54d27efe2bdea8354921807e99f",
        "reduced.json": "cc61e7e5588c256687a6aca474e9faf0e2cf87b4af6f384ffaa62dfc001a154c",
    },
    ("structure", "kenyon_1_2", "lex"): {
        "growth.json": "8fe99131db99503862ca29ce186ff708d676b29996fe3356a26e8db94e35767e",
        "mult_0.dot": "d3ed80cdc6e8e454cc9f9f258063867d39c56d433b903db1b6ff2e98ffb8f4f9",
        "mult_0.json": "f1318d697ee911a615e11fdcc1261054fcae3524f5c8f010ae331a9f22752896",
        "mult_1.dot": "8e0d5e9504988cc37f3b0d84e4f1b04ce9eae9c381d164b42b93ee247ae8f2bf",
        "mult_1.json": "a0625e0a6bd0290512e6a32adf294fdda9bd9376a0e728efc137a28ed0d18ec4",
        "mult_2.dot": "6073815880d27a3ac530d4ceb3dd99ee1c2dc698fc9b38178899dc26562bba26",
        "mult_2.json": "acb466147f799059d640af909c525693be3e3e675ec3297686bd90477f5d3832",
        "reduced.dot": "3d147042ecf4c9c60b253ffe03faac3f66c8c0b627b0cb1084288f032827711b",
        "reduced.json": "9dc43cdc509cdf4d58a2fcac3c0b6266c9bafec27a573c9e9db4c2d8075d787b",
    },
    ("structure", "kenyon_3_8", "lex"): {
        "growth.json": "6b1772f00b81e1e61ce70a8574d52d799ab35c81ac5b4c990bc619c08d8d0f69",
        "mult_0.dot": "da6145589fcfe3a05af5a97431f57d785f501f664383a0506c1f713e798fac89",
        "mult_0.json": "79bf394cd6b97271c37ab6a1d7a4779bf962899f95a99df44345a0fe4de07174",
        "mult_3.dot": "7b92c52d39a1a881be6f5f0c910786f3799e67cf1c68134aa98d33a08695e251",
        "mult_3.json": "46b53efd7b420ef78cbb0156e97c1d94f59a0012017348a7ae4cba845f7dc297",
        "mult_8.dot": "33bcb31c6b0a410c6c17c382fa77a106c05ea50eed719ac0129e6689b7b4b92a",
        "mult_8.json": "edbe708b9d24db72caf3395257ea99f6f5c8ecad266de18e7507f8a2e4429515",
        "reduced.dot": "81561570655954201a3a7693e22b8a6f3278d9addc2a80d87d9e501ce2150c90",
        "reduced.json": "7c63b266e73884e40dfc2b70adfcdf9203746464f60a6d4f452acec608c7bb0a",
    },
    ("structure", "kenyon_3_8", "revlex"): {
        "growth.json": "893098f25c9d13c67f65b9cb13e0c97adb690287e488f5d74aaadc8868f91244",
        "mult_0.dot": "02a377c1948246b6e3ecf2350e1ba11cc840f14d8246eb4ac59fdfc42604ee2e",
        "mult_0.json": "0278c661ca9c270840dbe0e6915a202981a8556021449df421be83daf512843f",
        "mult_3.dot": "a88605d538f4ec4195a75b48c9db24f0f545325c1d2cd0169ffb220dfa24e72f",
        "mult_3.json": "f8b4f5509e69eef21122318be6c9b220f71d3f61a9b7ddcdef71f6dda4d94b8e",
        "mult_8.dot": "1645926a6a227d054d1da6fa600bd7d1dc3033068f956e37135df40d3580abdf",
        "mult_8.json": "6f1c01d11237a2f7e03205d00d47f5a1af7e62e55ca11c7f26acc5b299b4ec9d",
        "reduced.dot": "b0dd74683ea4f72c94522878bed826190ba323c65d7d9ad195563727c2818350",
        "reduced.json": "398a40e2461a90de75cd63f73cbf9aceae8c9c0532083484dcfc5aaff8adec74",
    },
    ("relations", "intro", None): {
        "relations.dot": "7a729f4faa45880d1772f52462a0c0cfc02f31b0e37d8eda546852fc8b78d5cd",
        "relations.json": "6b80cdc8b4512a6d6643405b88b1f0eafb5bba8369508f959d1da1b3add2b997",
        "summary.json": "204c520db0ac6c338b0fffaa3e14a5f3aabe9788d40ae9964d4e8cf0c3b06bd5",
    },
}


@pytest.mark.parametrize("command, name, order", list(PINNED_CLI_FILES), ids=[
    f"{command}-{name}" + ("-revlex" if order == "revlex" else "")
    for command, name, order in PINNED_CLI_FILES])
def test_cli_files_pinned(tmp_path, capsys, command, name, order):
    flags = ["--order", order, "-N", "20"] if order else []
    config = cfg(name)
    if name in PINNED_CONFIGS:
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(PINNED_CONFIGS[name]))
    out = tmp_path / "out"
    code, _, _ = run(capsys, command, "--config", config, "--out", out, *flags)
    assert code == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
           for f in sorted(out.iterdir())}
    assert got == PINNED_CLI_FILES[command, name, order]


# SHA-256 of reduced.json then reduced.dot of every buildable fixture, lex
# then revlex, labels included, recorded before `complement` went through the
# minimizer: the benchmark compares these files label-blind.
REDUCED_FILES_DIGEST = "62c3a832d4cee3b258ceb1c4562f3c08289cd2408eb8e4c5d58cb647feadef75"


def test_reduced_files_pinned(tmp_path):
    digest = hashlib.sha256()
    for name in buildable_fixture_names():
        rel = build_relation_automaton(load_context(name), force=True)
        for order in ("lex", "revlex"):
            cli._write_automaton(tmp_path, "reduced", build_reduced_automaton(rel, order))
            digest.update((tmp_path / "reduced.json").read_bytes())
            digest.update((tmp_path / "reduced.dot").read_bytes())
    assert digest.hexdigest() == REDUCED_FILES_DIGEST


# SHA-256 of growth.json, as ``structure`` writes it with -N 20, of every
# buildable fixture, lex then revlex: without a candidate, then with the
# char-poly, twice the char-poly and x - 1 as --candidate-pi; recorded while
# the candidate check still divided and evaluated in Fractions.
GROWTH_FILES_DIGEST = "96eae2499136311877ab4d5443f04f29f276cfa987ff6d902720b32669877d42"


def test_growth_files_pinned(tmp_path):
    digest, verdicts = hashlib.sha256(), set()
    for name in buildable_fixture_names():
        rel = build_relation_automaton(load_context(name), force=True)
        for order in ("lex", "revlex"):
            reduced = build_reduced_automaton(rel, order)
            cp = au.char_poly(au.trim(reduced))
            for candidate in (None, cp, [2 * c for c in cp], [-1, 1]):
                report = growth(reduced, N=20, candidate_pi=candidate)
                cli._dump_json(tmp_path / "growth.json", report.to_json())
                digest.update((tmp_path / "growth.json").read_bytes())
                if candidate is not None:
                    verdicts.add(report.pi_check["ok"])
    assert verdicts == {True, False}
    assert digest.hexdigest() == GROWTH_FILES_DIGEST


# --- automaton writer ---------------------------------------------------------------


def assert_written_like_json_dumps(tmp_path, stem, a):
    cli._write_automaton(tmp_path, stem, a)
    want = json.dumps(au.to_json(a), indent=2, sort_keys=True) + "\n"
    assert (tmp_path / f"{stem}.json").read_bytes() == want.encode(), stem
    assert (tmp_path / f"{stem}.dot").read_text() == au.to_dot(a, stem) + "\n"


def structure_automata(rel):
    """(stem, automaton) for the relation, reduced (lex and revlex) and
    multiplier automata of one relation automaton."""
    yield "relations", rel.automaton
    for order in ("lex", "revlex"):
        reduced = build_reduced_automaton(rel, order)
        yield f"reduced_{order}", reduced
        for g in rel.context.digit_names:
            yield f"mult_{g}_{order}", build_multiplier(rel, reduced, g)


@pytest.mark.parametrize("name", [
    "intro", "kenyon_3_8", "pisot_x3-x-1", "transc_1_over_X2+X+1"])
def test_writer_equals_json_dumps_on_fixtures(tmp_path, name):
    rel = build_relation_automaton(load_context(name))
    for stem, a in structure_automata(rel):
        assert_written_like_json_dumps(tmp_path, stem, a)


def test_writer_equals_json_dumps_on_random_contexts(tmp_path):
    count = 0
    for _, rel in random_relation_automata():
        for stem, a in structure_automata(rel):
            assert_written_like_json_dumps(tmp_path, stem, a)
            count += 1
    assert count > 0


@pytest.mark.parametrize("a", [
    Automaton(("a",), 0, [], [], []),
    Automaton(("a", "b"), 2, [], [0], []),
    Automaton(('q"', "back\\slash", "tab\t", "β", "−"), 3,
              [(0, "β", 1), (1, "−", 2), (2, 'q"', 0), (0, "tab\t", 0)],
              [0], [1, 2], ['"quoted"', "C:\\dir", "ctl\x01\n", "β−1"]),
], ids=["no-states", "no-transitions", "escapes"])
def test_writer_equals_json_dumps_on_edge_cases(tmp_path, a):
    assert_written_like_json_dumps(tmp_path, "A", a)


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
    for words in ((), ("10",)):
        code, out, err = run(capsys, "verify", "--config", cfg("intro"),
                             "--out", tmp_path, *words)
        assert (code, out, err) == (1, "", "error: verify needs two words or --identity FILE\n")


def test_main_reuses_one_parser(tmp_path, capsys):
    # one parser serves every call, and no option of a call leaks into the next
    assert cli._parser() is cli._parser()
    code, out, _ = run(capsys, "reduce", "--config", cfg("intro"), "--out", tmp_path,
                       "--order", "revlex", "10")
    assert (code, out) == (0, "10\n")
    code, out, _ = run(capsys, "free", "--config", cfg("intro"), "--out", tmp_path)
    assert (code, out) == (0, "non-free (kenyon:nonfree)\n")
    code, out, _ = run(capsys, "reduce", "--config", cfg("intro"), "--out", tmp_path, "10")
    assert (code, out) == (0, "03\n")
    fresh = cli._parser.__wrapped__()
    assert cli._parser().format_help() == fresh.format_help()
    errors = []
    for parse in (main, fresh.parse_args):
        with pytest.raises(SystemExit) as e:
            parse(["reduce", "10"])
        assert e.value.code == cli.EXIT_INPUT
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] and "--config" in errors[0]


def test_verify_identity(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "--config", cfg("salem"),
                       "--out", tmp_path,
                       "--identity", cfg("salem_identity"), "--json")
    assert code == 0
    assert json.loads(out)["verified"] is True


@pytest.mark.parametrize("terms, rhs, verdict", [
    ([[1, -1]], [1], False),  # beta^1 = 3 on intro
    ([[1, -1]], [0, 1], True),
    ([[1, -2], [-1, -1]], [0, -1, 1], True),  # beta^2 - beta
    ([[1, -1], [1, 1], [1, 1], [1, 1]], [4], True),  # beta + 3/beta
])
def test_verify_identity_with_negative_exponents(tmp_path, capsys, terms, rhs, verdict):
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps({"terms": terms, "rhs_coeffs": rhs}))
    code, out, _ = run(capsys, "verify", "--config", cfg("intro"), "--out", tmp_path,
                       "--identity", identity)
    assert (code, out) == ((0, "true\n") if verdict else (3, "false\n"))


SIGN = "a term's sign must be 1 or -1"


@pytest.mark.parametrize("terms, rhs, err", [
    ([[0, 0]], [-1], SIGN), ([[5, 0]], [1], SIGN),
    ([[1.5, 0]], [1], "bad identity file: 1.5 is not an integer"),
    ([[True, 0]], [1], "bad identity file: true is not an integer"),
    ([[1, 0.5]], [1], "bad identity file: 0.5 is not an integer"),
    ([[1, 0]], [1.0], "bad identity file: 1.0 is not an integer"),
    ([["1", 0]], [1], 'bad identity file: "1" is not an integer')])
def test_verify_identity_refuses_bad_entries(tmp_path, capsys, terms, rhs, err):
    # each of these passed as +1 or -1, or int() truncated it to an integer
    # that passes
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps({"terms": terms, "rhs_coeffs": rhs}))
    code, out, got = run(capsys, "verify", "--config", cfg("intro"), "--out", tmp_path,
                         "--identity", identity)
    assert (code, out) == (1, "")
    assert got == f"error: {err}\n"


@pytest.mark.parametrize("config", [
    "transc_1_over_X", {"beta": {"minpoly": [-1, 3]}, "digits": [0, 1]}])
def test_verify_identity_needs_a_direct_algebraic_base(tmp_path, capsys, config):
    if isinstance(config, dict):
        path = tmp_path / "inverted.json"
        path.write_text(json.dumps(config))
    else:
        path = cfg(config)
    code, out, err = run(capsys, "verify", "--config", path, "--out", tmp_path,
                         "--identity", cfg("salem_identity"))
    assert (code, out) == (1, "")
    assert err == "error: power identities need a direct algebraic base\n"


@pytest.mark.parametrize("argv, code", [
    (["structure"], 1),
    (["structure", "--config", "intro.json", "--max-states", "abc"], 1),
    (["structure", "--config", "intro.json", "--candidate-pi", "-1,3,-1"], 1),
    (["frobnicate"], 1),
    (["--help"], 0),
    (["structure", "--help"], 0),
])
def test_usage_errors_exit_as_input_errors(capsys, argv, code):
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == code
    err = capsys.readouterr().err
    assert err.startswith("usage: betauto") if code else err == ""


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


BASE3 = {"beta": {"minpoly": [-3, 1]}}


@pytest.mark.parametrize("config, verdict", [
    ("transc_1_over_X", "non-free (relation-automaton)"),
    ({**BASE3, "digits": [0, 2, 4]}, "free (relation-automaton)"),  # gcd(2, 4) = 2
    ({**BASE3, "digits": [0, 1, 2, 4]}, "non-free (relation-automaton)"),
    ({**BASE3, "digits": [1, 2, 4]}, "non-free (relation-automaton)"),  # no digit 0
    ({**BASE3, "digits": [-1, 0, 2]}, "non-free (relation-automaton)"),
    ({"beta": {"minpoly": [1, -3]}, "digits": [0, 1, 2]}, "free (relation-automaton)"),
    ({"beta": {"minpoly": [3, -1]}, "digits": [2, 0, 1]}, "free (kenyon:free)"),
])
def test_free_applies_kenyon_only_to_base_3_digits_0_p_q(tmp_path, capsys, config, verdict):
    # Kenyon's criterion needs base 3 (not 1/3) and digits {0, p, q} with p
    # and q coprime; the other contexts fall through to the relation automaton
    if isinstance(config, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
    else:
        path = cfg(config)
    code, out, _ = run(capsys, "free", "--config", path, "--out", tmp_path)
    assert (code, out) == (0, verdict + "\n")


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


def test_oracle_catches_a_relation_automaton_that_is_not_minimal(
        tmp_path, capsys, monkeypatch):
    # a copy of a state with the same edges out and a share of the edges in
    # keeps the language, determinism and trimness; with the co-determinism
    # test forced to pass, only the state count can tell
    structure_parts = cli._structure_parts

    def with_duplicate_state(ctx, args):
        rel, reduced = structure_parts(ctx, args)
        a = rel.automaton
        n = a.n_states
        r = a.ddelta()[min(a.initials)][1]  # not the initial state
        moved = min(t for t in a.transitions if t[2] == r)
        transitions = {(p, x, n if (p, x, q) == moved else q)
                       for (p, x, q) in a.transitions}
        transitions |= {(n, x, q) for (p, x, q) in a.transitions if p == r}
        twin = au.Automaton(a.alphabet, n + 1, transitions, a.initials, a.finals,
                            a.labels + (a.labels[r],))
        assert twin.deterministic and au.trim(twin) is twin
        assert au.equivalent(twin, a)
        return replace(rel, automaton=twin), reduced

    monkeypatch.setattr(cli, "_structure_parts", with_duplicate_state)
    monkeypatch.setattr(cli.au, "is_codeterministic", lambda t: True)
    code, out, _ = run(capsys, "oracle", "--config", cfg("intro"),
                       "--out", tmp_path, "-n", "4")
    assert code == 3
    assert "[FAIL] relation automaton minimal (det + co-det + trimmed)" in out
    assert "3/4 oracle checks passed" in out


# --- input errors ------------------------------------------------------------------


def test_missing_config(tmp_path, capsys):
    code, _, err = run(capsys, "relations", "--config",
                       tmp_path / "nope.json", "--out", tmp_path)
    assert code == 1 and "error" in err


def test_config_that_is_not_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"beta": ')
    code, out, err = run(capsys, "structure", "--config", bad, "--out", tmp_path / "out")
    assert (code, out) == (1, "")
    assert err.startswith("error: config is not valid JSON: ")
    assert not (tmp_path / "out").exists()


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
    [2, 0, 3, 0, 1],  # (x^2 + 1)(x^2 + 2), decided by factor_list
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


def test_pipeline_runs_without_sympy():
    # sympy costs about 0.25 s of start-up; only factor_list, for a minimal
    # polynomial the mod-p certificate leaves open, may load it
    script = Path(__file__).resolve().parent / "pipeline_without_sympy.py"
    proc = subprocess.run([sys.executable, str(script)], env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
