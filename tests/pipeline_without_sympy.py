"""Run the pipeline commands a CLI user starts most, and the reducer set-up,
in one interpreter, and exit non-zero when any of them loads sympy.

Only a minimal polynomial that the mod-p irreducibility certificate leaves
open reaches sympy's ``factor_list``; none of these inputs does, so sympy
stays out of their start-up.  Run as ``python tests/pipeline_without_sympy.py``
(``python -X importtime`` lists every module it loads).
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from betauto import cli, numfield, relations, structure
from betauto.reducer import ReducerTable

FIXTURES = Path(cli.__file__).resolve().parent / "fixtures"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base3 = tmp / "base3.json"
        base3.write_text(json.dumps({"beta": {"minpoly": [-3, 1]}, "digits": [0, 2, 17]}))
        runs = [  # (argv, exit code)
            (["structure", "--config", FIXTURES / "intro.json", "--out", tmp / "intro"], 0),
            (["structure", "--config", base3, "--out", tmp / "base3"], 0),
            (["relations", "--config", FIXTURES / "salem.json", "--force",
              "--max-states", "1000", "--out", tmp / "salem"], 2),
            (["free", "--config", FIXTURES / "pisot_x3-x-1.json"], 0),
        ]
        for argv, want in runs:
            argv = [str(a) for a in argv]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code != want:
                sys.exit(f"{' '.join(argv)}: exit {code}, expected {want}")
    doc = json.loads((FIXTURES / "pisot_x3-x-1.json").read_text())
    rel = relations.build_relation_automaton(numfield.context_from_config(doc))
    ReducerTable(rel, structure.build_reduced_automaton(rel, "lex"))
    loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "sympy")
    if loaded:
        sys.exit(f"sympy loaded: {', '.join(loaded[:5])}")


if __name__ == "__main__":
    main()
