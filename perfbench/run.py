"""Benchmark of the betauto pipelines, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One client, closed loop, no threads: the
workload's passes run one after another, each in a fresh interpreter
(``worker.py``), until ``--seconds`` are used up (at least one pass).  Every
op's output is checked.  Prints each metric by name with its unit and sample
count, then, as the last line, one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics (from spans recorded around the calls
into each betauto layer) with ``--trace 1``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
from tracing import NAME, PARENT, SIZE  # noqa: E402
from worker import PASSES, PROBE_REF_S, SALEM_CAP  # noqa: E402

WORKLOADS = tuple(PASSES)
# set-up is timed in every pass; extra set-up-only workers top it up to this
MIN_SETUP_SAMPLES = 7
# the whole run must end within 180 s
RUN_DEADLINE_S = 170
# directories of the checkout the isolation check ignores
UNWATCHED = {".perfbench_tmp", ".bench_build", ".git", "__pycache__", ".pytest_cache"}

# the op whose latency is op_p50_ms
PRIMARY = {
    "fixture_sweep": "structure",
    "kenyon_large": "structure",
    "salem_capped": "relations",
    "reduce_stream": "reduce_cold",
}

LAYERS = ("numfield", "relations", "automata", "structure", "reducer", "cli")
AUTOMATA_TIMED = ("product", "intersect", "determinize", "minimize", "complement",
                  "project", "count_series", "char_poly", "dominant_eigenvalue",
                  "to_json", "to_dot")


class BenchError(Exception):
    """The benchmark itself could not run (missing program, crashed worker)."""


def snapshot(root: Path) -> dict:
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in UNWATCHED]
        for f in filenames:
            st = os.stat(os.path.join(dirpath, f))
            out[os.path.relpath(os.path.join(dirpath, f), root)] = (st.st_size, st.st_mtime_ns)
    return out


def spawn(root: Path, workload: str, seed: int, index: int, workdir: Path,
          trace: bool, setup_only: bool, deadline: float) -> dict:
    """Run one worker pass; its set-up time runs from here to its first op."""
    result = workdir / f"result-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(index),
           "--workdir", str(workdir / f"pass-{index}"), "--result", str(result)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload} pass {index} ran past the run deadline") from e
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"{workload} pass {index} exited {proc.returncode}:\n"
                         + proc.stderr[-2000:])
    doc = json.loads(result.read_text())
    doc["setup_wall_s"] = doc["first_op"] - t_spawn
    doc["setup_s"] = doc["setup_wall_s"] / doc["setup_slowdown"]
    return doc


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp_root))
    deadline = time.monotonic() + RUN_DEADLINE_S
    before = snapshot(root)
    try:
        passes = []
        t0 = time.monotonic()
        while True:
            passes.append(spawn(root, workload, seed, len(passes), workdir, trace,
                                False, deadline))
            elapsed = time.monotonic() - t0
            # start another pass only if it is expected to end near the budget
            if elapsed + 0.5 * elapsed / len(passes) > seconds:
                break
        wall = time.monotonic() - t0
        setups = [(p["setup_s"], p["setup_wall_s"]) for p in passes]
        while len(setups) < MIN_SETUP_SAMPLES:
            extra = spawn(root, workload, seed, len(passes) + len(setups), workdir,
                          False, True, deadline)
            setups.append((extra["setup_s"], extra["setup_wall_s"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()
    after = snapshot(root)
    changed = sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))
    return {"passes": passes, "setups": setups, "wall": wall, "changed": changed}


# ---------------------------------------------------------------------------
# metrics


def typical(ops, key: str = "t_norm") -> list:
    """One record per distinct op, carrying the median over its repetitions
    (one per pass) of the speed-normalized time ``t_norm`` (worker.normalize)
    or of the wall time ``t``."""
    reps: dict = {}
    for o in ops:
        reps.setdefault(o["id"], []).append(o)
    return [{**r[0], key: statistics.median(o[key] for o in r)} for r in reps.values()]


def report_metrics(workload: str, run: dict) -> dict:
    """Every end-to-end metric that applies to the workload, by the names the
    design uses: name -> (value, unit, sample count).  Op timings are over the
    distinct ops, each at the median of its speed-normalized repetitions."""
    passes = run["passes"]
    ops = [o for p in passes for o in p["ops"]]
    best = typical(ops)
    failed = sum(not o["ok"] for o in ops)
    rep = {
        "setup_s": (statistics.median(s for s, _ in run["setups"]), "s", len(run["setups"])),
        "wall_s": (run["wall"], "s", len(passes)),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB", len(passes)),
        "error_rate": (failed / len(ops), "ratio", len(ops)),
    }
    probe = [d for p in passes for d in p["probe_s"]]
    # how much slower than the reference the CPU ran the probe, median
    rep["cpu_slowdown"] = (statistics.median(probe) / PROBE_REF_S, "ratio", len(probe))
    checked = sum(o.get("artefacts", 0) for o in ops)
    if checked:
        # artefacts whose bytes differ from the recorded ones in state labels
        # only: a known nondeterminism of the seed commit, reported, not failed
        rep["label_only_diffs"] = (sum(o["relabelled"] for o in ops), "count", checked)

    def times(kind):
        return [o["t_norm"] for o in best if o["kind"] == kind]

    def us_per_letter(kind):
        sel = [o for o in best if o["kind"] == kind]
        return (1e6 * sum(o["t_norm"] for o in sel) / sum(o["letters"] for o in sel),
                "us", len(sel))

    if workload in ("fixture_sweep", "kenyon_large"):
        st = times("structure")
        rep["structures_per_s"] = (len(st) / sum(st), "1/s", len(st))
        rep["structure_p50_ms"] = (1e3 * statistics.median(st), "ms", len(st))
    if workload == "fixture_sweep":
        rep["structure_p80_ms"] = (1e3 * tracing.tail_percentile(st, 0.8), "ms", len(st))
        fr = times("free")
        rep["free_p50_ms"] = (1e3 * statistics.median(fr), "ms", len(fr))
    if workload == "salem_capped":
        rl = times("relations")
        rep["explore_states_per_s"] = (SALEM_CAP * len(rl) / sum(rl), "1/s", len(rl))
    if workload == "reduce_stream":
        rep["reduce_cold_us_per_letter"] = us_per_letter("reduce_cold")
        rep["reduce_warm_us_per_letter"] = us_per_letter("reduce_warm")
        cold = times("reduce_cold")
        rep["reduce_p90_ms"] = (1e3 * tracing.tail_percentile(cold, 0.9), "ms", len(cold))
        rep["equiv_us_per_letter"] = us_per_letter("equiv")
    return rep


def end_to_end(workload: str, run: dict, rep: dict, key: str = "t_norm") -> dict:
    """The four metrics every workload reports (see perfbench/README.md),
    from speed-normalized op times or, with ``key="t"``, from wall times."""
    best = typical([o for p in run["passes"] for o in p["ops"]], key)
    primary = [o[key] for o in best if o["kind"] == PRIMARY[workload]]

    def units(o):
        if workload == "salem_capped":
            return SALEM_CAP
        return o.get("letters", 1)

    return {
        "setup_s": (rep["setup_s"][0], "s"),
        "op_p50_ms": (1e3 * statistics.median(primary), "ms"),
        "work_per_s": (sum(units(o) for o in best) / sum(o[key] for o in best), "1/s"),
        "peak_rss_mb": (rep["peak_rss_mb"][0], "MB"),
    }


def per_layer(run: dict) -> dict:
    """Per-layer metrics from the spans, per pass: name -> (value, unit)."""
    passes = run["passes"]
    n = len(passes)
    self_t, incl, calls, counts = Counter(), Counter(), Counter(), Counter()
    mult_states = mult_pairs = reduced_states = n_spans = 0
    max_depth = 0
    overhead = written = 0.0
    for p in passes:
        spans = p["spans"]
        self_t.update(tracing.self_times(spans))
        incl.update(tracing.total_times(spans))
        calls.update(s[NAME] for s in spans)
        for k, v in p["counts"].items():
            if k == "relations.max_depth":
                max_depth = max(max_depth, v)
            else:
                counts[k] += v
        for s in spans:
            if s[NAME] == "structure.multiplier":
                mult_states += s[SIZE]
            elif s[NAME] == "structure.reduced":
                reduced_states += s[SIZE]
            elif (s[NAME] == "automata.intersect" and s[PARENT] >= 0
                  and spans[s[PARENT]][NAME] == "structure.multiplier"):
                mult_pairs += s[SIZE]
        n_spans += len(spans)
        overhead += len(spans) * p["span_cost_ns"] / 1e9
        written += sum(o.get("bytes", 0) for o in p["ops"])

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = Counter()
    for name, v in self_t.items():
        layer_self[tracing.layer_of(name)] += v
    explored, pruned = counts["relations.states_explored"], counts["relations.pruned"]
    m = {
        "numfield.context_s": (self_t["numfield.context"], "s"),
        "numfield.precision_refinements": (counts["numfield.precision_refinements"], "count"),
        "numfield.undecided_keeps": (counts["numfield.undecided_keeps"], "count"),
        "relations.build_s": (self_t["relations.build"], "s"),
        "relations.certificates_s": (sum(v for k, v in self_t.items()
                                         if k.startswith("relations.certificate.")), "s"),
        "relations.states_explored": (explored, "count"),
        "relations.pruned": (pruned, "count"),
    }
    for fn in AUTOMATA_TIMED:
        m[f"automata.{fn}_s"] = (self_t[f"automata.{fn}"], "s")
    m["automata.char_poly_calls"] = (calls["automata.char_poly"], "count")
    m["automata.delta_calls"] = (calls["automata.delta"], "count")
    m["automata.ddelta_calls"] = (calls["automata.ddelta"], "count")
    m.update({
        "structure.reduced_s": (self_t["structure.reduced"], "s"),
        "structure.multiplier_s": (self_t["structure.multiplier"], "s"),
        "structure.growth_s": (self_t["structure.growth"], "s"),
        "structure.reduced_total_s": (incl["structure.reduced"], "s"),
        "structure.multiplier_total_s": (incl["structure.multiplier"], "s"),
        "structure.growth_total_s": (incl["structure.growth"], "s"),
        "structure.reduced_states": (reduced_states, "count"),
        "structure.multiplier_states": (mult_states, "count"),
        "reducer.table_init_s": (self_t["reducer.table_init"], "s"),
        "reducer.reduce_s": (self_t["reducer.reduce"], "s"),
        "reducer.equivalent_s": (self_t["reducer.equivalent"], "s"),
        "reducer.accepts_s": (self_t["reducer.accepts"], "s"),
        "cli.command_s": (incl["cli.main"], "s"),
        "cli.bytes_written": (written, "B"),
    })
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    m.update({
        "unattributed_s": (layer_self["unattributed"], "s"),
        "trace.op_s": (incl["op"], "s"),
        "trace.spans": (n_spans, "count"),
        "trace.overhead_s": (overhead, "s"),
    })
    per_pass = {k: (v / n, unit) for k, (v, unit) in m.items()}
    per_pass.update({
        "relations.max_depth": (max_depth, "count"),
        "relations.prune_ratio": (ratio(pruned, pruned + explored), "ratio"),
        "relations.coaccessible_ratio": (ratio(counts["relations.closed_kept"],
                                               counts["relations.closed_explored"]), "ratio"),
        "structure.multiplier_yield": (ratio(mult_states, mult_pairs), "ratio"),
    })
    return per_pass


def print_block(title: str, rows) -> None:
    print(f"# {title}")
    for name, value, unit, count in rows:
        n = "" if count is None else f"n={count}"
        print(f"  {name:<34} {value:>14.6g} {unit:<6} {n}")


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run = run_workload(root, workload, seed, seconds, trace)
    rep = report_metrics(workload, run)
    ops = [o for p in run["passes"] for o in p["ops"]]
    failures = [o["why"] for o in ops if not o["ok"]]
    print_block(f"{workload} seed={seed} passes={len(run['passes'])} trace={int(trace)}",
                [(k, v, u, c) for k, (v, u, c) in rep.items()])
    if trace:
        layers = per_layer(run)
        print_block(f"{workload} per layer, per pass (self time, except *_total_s "
                    "and cli.command_s)",
                    [(k, v, u, None) for k, (v, u) in layers.items()])
        metrics = layers
    else:
        metrics = end_to_end(workload, run, rep)
        wall = end_to_end(workload, run, rep, key="t")
        wall["setup_s"] = (statistics.median(w for _, w in run["setups"]), "s")
        print_block(f"{workload} the same from wall times, not speed-normalized",
                    [(k, v, u, None) for k, (v, u) in wall.items()
                     if k in ("setup_s", "op_p50_ms", "work_per_s")])
    for why in failures[:20]:
        print(f"FAILED {why}", file=sys.stderr)
    if run["changed"]:
        print(f"the run modified the checkout: {run['changed'][:20]}", file=sys.stderr)
    return {
        "correct": not failures and not run["changed"],
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "betauto" / "__init__.py").is_file():
        print(f"error: no betauto sources under {root / 'src'}; run from the root "
              "of a betauto checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_one(root, name, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
