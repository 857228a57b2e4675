"""Record the expected exit code and SHA-256 digests of every artefact of the
CLI workloads into ``perfbench/expected/<workload>.json``.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Run from the root of a checkout, and only at a commit whose outputs are known
to be right: the benchmark counts any later difference as a failed op.  Each
workload runs twice in fresh interpreters (so with different string-hash
seeds); nothing is written unless both runs agree up to state labels.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import spawn  # noqa: E402
from worker import check_artefacts  # noqa: E402

CLI_WORKLOADS = ("fixture_sweep", "kenyon_large", "salem_capped")


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or CLI_WORKLOADS
    root = Path.cwd()
    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    status = 0
    for name in names:
        workdir = Path(tempfile.mkdtemp(prefix=f"record-{name}-", dir=tmp_root))
        try:
            runs = [spawn(root, name, seed, seed, workdir, False, False,
                          time.monotonic() + 600)["observed"] for seed in (0, 1)]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        checks = {k: check_artefacts(runs[0], k, runs[1][k]) for k in runs[1]}
        diff = sorted(k for k, (why, _) in checks.items() if why)
        if diff or runs[0].keys() != runs[1].keys():
            print(f"{name}: outputs differ between two runs: {diff[:10]}", file=sys.stderr)
            status = 1
            continue
        out = HERE / "expected" / f"{name}.json"
        out.write_text(json.dumps(runs[0], indent=1, sort_keys=True) + "\n")
        relabelled = sum(n for _, n in checks.values())
        print(f"{name}: {len(runs[0])} ops recorded in {out.relative_to(root)}; "
              f"{relabelled} artefacts differed between the runs in state labels only")
    if not any(tmp_root.iterdir()):
        tmp_root.rmdir()
    return status


if __name__ == "__main__":
    sys.exit(main())
