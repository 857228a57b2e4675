"""One pass of one workload, in a fresh interpreter.

Started by ``run.py`` once per pass, so every pass pays interpreter start,
imports and set-up the way a CLI user does, and no context, table or sympy
cache survives from one pass to the next.  Within a pass no context is built
twice by the same command.  Writes a JSON result (op samples, set-up
timestamp, peak RSS, spans) to ``--result``.

    python3 perfbench/worker.py --workload NAME --seed N --pass-index K \
        --workdir DIR --result FILE [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import math
import random
import re
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "betauto" / "fixtures"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))
import tracing  # noqa: E402

# forced Salem exploration: state cap sized so one op takes about 1.2 s at the
# seed commit on a 2-core x86-64 container, so a run repeats it about 10 times
SALEM_CAP = 10_000

# kenyon_large: base 3, digits {0, p, 17}.  The ten non-free contexts
# (3 not dividing p + 17) take 33 s per pass at the seed commit, too long to
# repeat in one run; these five (97, 66, 49, 49 and 48 reduced states, against
# at most 36 for a bundled Kenyon fixture) take about 4.5 s, so each run
# repeats them about 5 times.
KENYON_Q = 17
KENYON_P = (2, 8, 9, 12, 15)

# reduce_stream: words per pass, letters per word, exact-check sample size
REDUCE_FIXTURE = "pisot_x3-x-1"
REDUCE_WORDS = 200
REDUCE_LEN = 100
REDUCE_SAMPLE = 20

STRUCTURE_ARGS = ["--order", "lex", "-N", "20", "--force"]

# CPU-speed probe: every PROBE_PERIOD_S of wall time a fixed pure-Python loop
# of tuple hashing and dict updates, like betauto's own hot loops, is timed
# from a SIGALRM handler (about 1 % of the run).  A shared 2-vCPU VM runs this
# loop up to 1.8x slower at times, in regimes that last from under a second
# to minutes; op times are rescaled to a CPU on which the loop takes
# PROBE_REF_S (see normalize).  An earlier probe built on integer division
# was slowed by some regimes far more than betauto was.
PROBE_PERIOD_S = 0.02
PROBE_LOOPS = 500
PROBE_REF_S = 100e-6
# probe samples taken this close to an op also describe its speed
PROBE_WINDOW_S = 0.5


def buildable_fixture_names() -> list:
    """The 62 bundled configs whose relation automaton closes under the
    default caps (the same list as the test suite's): every bundled config
    but the two Salem ones."""
    kenyon = [f"kenyon_{p}_{q}" for q in range(2, 12) for p in range(1, q)
              if math.gcd(p, q) == 1]
    pisot = ["pisot_x2-x-1", "pisot_x3-x2-x-1", "pisot_x3-x-1",
             "pisot_x4-x3-x2-x-1", "pisot_x4-x3-x2+x-1"]
    transc = [
        "1_over_X", "1_over_X+1", "1_over_X2-X", "1_over_X2-X+1", "1_over_X2",
        "1_over_X2+1", "1_over_X2+X", "1_over_X2+X+1", "X-1_over_X2",
        "X-1_over_X2+X-1", "1_over_X3-X2-X", "1_over_X3-X2", "1_over_X3-X2+1",
        "1_over_X3-X2+X",
    ]
    return (["intro"] + kenyon + pisot + [f"transc_{n}" for n in transc]
            + ["free_x4-3x3-3x2-3x+1"])


def _probe_loop() -> int:
    d: dict = {}
    for i in range(PROBE_LOOPS):
        k = (i & 63, i & 7)
        d[k] = d.get(k, 0) + i
    return len(d)


class SpeedProbe:
    """(start, duration) of the probe loop, sampled on a wall-clock timer."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        t = time.perf_counter()
        _probe_loop()
        self.samples.append((t, time.perf_counter() - t))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)


def slowdown(durations) -> float:
    """Median probe duration over PROBE_REF_S (1.0 when there is no sample)."""
    return statistics.median(durations) / PROBE_REF_S if durations else 1.0


def normalize(ops: list, samples: list) -> None:
    """Set each op's ``t_norm``: its time without the probe's own samples,
    divided by the slowdown the probe saw within PROBE_WINDOW_S of it."""
    starts = [t for t, _ in samples]
    for o in ops:
        a, b = o["start"], o["start"] + o["t"]
        lo = bisect.bisect_left(starts, a - PROBE_WINDOW_S)
        hi = bisect.bisect_right(starts, b + PROBE_WINDOW_S)
        near = samples[lo:hi] or samples[max(0, lo - 1):lo + 1]
        inside = sum(d for t, d in near if a <= t <= b)
        o["t_norm"] = (o["t"] - inside) / slowdown([d for _, d in near])


class Timing:
    """Start and duration of one op, filled in by ``Env.op``."""

    start = seconds = 0.0


class Env:
    """What a pass function needs: inputs, recorder, and the sample log."""

    def __init__(self, args, expected: dict):
        # inputs depend on the seed only, so every pass of a run repeats the
        # same ops; the order of ops changes from pass to pass
        self.rng = random.Random(args.seed)
        self.order_rng = random.Random(args.seed * 1_000_003 + args.pass_index)
        self.workdir = Path(args.workdir)
        self.setup_only = args.setup_only
        self.expected = expected
        self.rec = tracing.Recorder()
        self.first_op = self.first_op_pc = None
        self.ops: list[dict] = []
        self.observed: dict = {}

    def warm_up(self) -> None:
        """One untimed, untraced command, so that lazy imports and first-call
        costs fall in set-up instead of on whichever op happens to run first."""
        from betauto import cli

        out = self.workdir / "warm-up"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            cli.main(["structure", "--config", str(FIXTURES / "intro.json"),
                      "--out", str(out)] + STRUCTURE_ARGS)
        shutil.rmtree(out, ignore_errors=True)

    def start_timing(self) -> bool:
        """Mark the end of set-up; False when only set-up was asked for."""
        self.first_op = time.monotonic()
        self.first_op_pc = time.perf_counter()
        return not self.setup_only

    @contextlib.contextmanager
    def op(self, op_id: str):
        """Time one op and open its root span (recorded only when tracing)."""
        timing = Timing()
        self.rec.op = op_id
        i = self.rec.open("op")
        timing.start = time.perf_counter()
        try:
            yield timing
        finally:
            timing.seconds = time.perf_counter() - timing.start
            self.rec.close(i)
            self.rec.op = None

    def record(self, op_id: str, kind: str, timing: Timing, why: str = "", **extra):
        """Log one op; a non-empty ``why`` marks it failed."""
        self.ops.append({"id": op_id, "kind": kind, "start": timing.start,
                         "t": timing.seconds, "ok": not why,
                         "why": f"{op_id}: {why}" if why else "", **extra})


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


_DOT_NODE_LABEL = re.compile(r'^(\s*\d+ \[label=")[^"]*"', re.M)


def label_blind(name: str, data: bytes) -> bytes:
    """The artefact with every state's display label blanked.  At the seed
    commit some multiplier labels depend on the string-hash seed (``product``
    names its states by BFS index, and that order follows set iteration once
    ``append_letter`` makes the automaton nondeterministic), so a run can
    differ from the recorded bytes in labels alone."""
    if name.endswith(".json"):
        doc = json.loads(data)
        if isinstance(doc, dict) and "states" in doc:
            for state in doc["states"]:
                state["label"] = ""
            return json.dumps(doc, sort_keys=True).encode()
    elif name.endswith(".dot"):
        return _DOT_NODE_LABEL.sub(r'\1"', data.decode()).encode()
    return data


def check_artefacts(expected: dict, op_id: str, observed: dict) -> tuple[str, int]:
    """(first difference or '', number of artefacts that differ from the
    recorded bytes in state labels only).  Each artefact is recorded as
    [SHA-256 of its bytes, SHA-256 of its label-blind form]; a label-only
    difference is counted and reported, not failed."""
    want = expected.get(op_id)
    if want is None:
        return "no recorded digests", 0
    if observed["exit"] != want["exit"]:
        return f"exit code {observed['exit']}, expected {want['exit']}", 0
    if observed["stdout"] != want["stdout"]:
        return "stdout digest differs", 0
    if set(observed["files"]) != set(want["files"]):
        return (f"artefacts {sorted(observed['files'])}, "
                f"expected {sorted(want['files'])}"), 0
    relabelled = 0
    for name, (exact, blind) in sorted(want["files"].items()):
        got_exact, got_blind = observed["files"][name]
        if got_blind != blind:
            return f"{name} digest differs", relabelled
        relabelled += got_exact != exact
    return "", relabelled


def run_cli(env: Env, op_id: str, kind: str, argv: list, out: Path | None = None,
            check=None) -> None:
    """Run one CLI command as an op; compare its exit code, stdout and every
    artefact with the recorded digests.  ``check(observed, out)`` adds
    semantic checks and returns a failure reason or ''."""
    from betauto import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    code, why = None, ""
    with env.op(op_id) as timing:
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception:
            why = "exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    files = {}
    written = len(stdout.getvalue().encode())
    if out is not None and out.is_dir():
        for f in sorted(out.iterdir()):
            data = f.read_bytes()
            files[f.name] = [_sha(data), _sha(label_blind(f.name, data))]
            written += len(data)
    observed = {"exit": code, "stdout": _sha(stdout.getvalue().encode()), "files": files}
    env.observed[op_id] = observed
    relabelled = 0
    if not why:
        why, relabelled = check_artefacts(env.expected, op_id, observed)
    if not why and check is not None:
        why = check(observed, out)
    if out is not None:
        shutil.rmtree(out, ignore_errors=True)
    env.record(op_id, kind, timing, why, bytes=written, relabelled=relabelled,
               artefacts=len(files))


# ---------------------------------------------------------------------------
# workloads: each runs its set-up, calls env.start_timing(), then its ops


def pass_fixture_sweep(env: Env) -> None:
    names = buildable_fixture_names()
    env.order_rng.shuffle(names)
    env.warm_up()
    if not env.start_timing():
        return
    for name in names:
        cfg = str(FIXTURES / f"{name}.json")
        out = env.workdir / name
        run_cli(env, f"structure:{name}", "structure",
                ["structure", "--config", cfg, "--out", str(out)] + STRUCTURE_ARGS, out)
        run_cli(env, f"free:{name}", "free", ["free", "--config", cfg, "--force"])


def pass_kenyon_large(env: Env) -> None:
    configs = []
    for p in KENYON_P:
        name = f"kenyon_{p}_{KENYON_Q}"
        cfg = env.workdir / f"{name}.json"
        cfg.write_text(json.dumps({"beta": {"minpoly": [-3, 1]}, "digits": [0, p, KENYON_Q]}))
        configs.append((name, cfg))
    env.order_rng.shuffle(configs)
    env.warm_up()
    if not env.start_timing():
        return
    for name, cfg in configs:
        out = env.workdir / name
        run_cli(env, f"structure:{name}", "structure",
                ["structure", "--config", str(cfg), "--out", str(out)] + STRUCTURE_ARGS, out)


def _salem_check(observed: dict, out: Path) -> str:
    summary = json.loads((out / "summary.json").read_text())
    if summary.get("status") != "capped":
        return f"status {summary.get('status')!r}, expected 'capped'"
    if summary.get("partial", {}).get("states") != SALEM_CAP:
        return f"partial.states {summary.get('partial')}, expected {SALEM_CAP}"
    if "free" in summary:
        return "capped summary claims a freeness verdict"
    return ""


def pass_salem_capped(env: Env) -> None:
    cfg = str(FIXTURES / "salem.json")
    out = env.workdir / "salem"
    env.warm_up()
    if not env.start_timing():
        return
    run_cli(env, "relations:salem", "relations",
            ["relations", "--config", cfg, "--force", "--max-states", str(SALEM_CAP),
             "--out", str(out)], out, _salem_check)


def _timed(env: Env, op_id: str, fn, *args):
    """(result, timing, error) of one library call run as an op."""
    with env.op(op_id) as timing:
        try:
            result, err = fn(*args), ""
        except Exception:
            result = None
            err = "exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
    return result, timing, err


def pass_reduce_stream(env: Env) -> None:
    from betauto import numfield, reducer, relations, structure
    from betauto.automata import accepts

    cfg = FIXTURES / f"{REDUCE_FIXTURE}.json"
    with env.op("setup"):
        ctx = numfield.context_from_config(json.loads(cfg.read_text()))
        rel = relations.build_relation_automaton(ctx)
        reduced = structure.build_reduced_automaton(rel, "lex")
        table = reducer.ReducerTable(rel, reduced)
    names = list(ctx.digit_names)

    def word():
        return [env.rng.choice(names) for _ in range(REDUCE_LEN)]

    words = [word() for _ in range(REDUCE_WORDS)]
    pairs = [(word(), word()) for _ in range(REDUCE_WORDS)]
    sample = set(env.order_rng.sample(range(REDUCE_WORDS), REDUCE_SAMPLE))
    if not env.start_timing():
        return

    cold = [_timed(env, f"cold:{i}", table.reduce, w) for i, w in enumerate(words)]
    warm = [_timed(env, f"warm:{i}", table.reduce, w) for i, w in enumerate(words)]
    back = [_timed(env, f"equiv:{i}", table.equivalent, w, r or w)
            for i, (w, (r, _, _)) in enumerate(zip(words, cold))]
    rand = [_timed(env, f"pair:{i}", table.equivalent, u, v)
            for i, (u, v) in enumerate(pairs)]

    # checks, outside every op: exact arithmetic on a seeded sample
    for i, w in enumerate(words):
        r, t, why = cold[i]
        if not why:
            if len(r) != len(w):
                why = "length changed"
            elif not accepts(reduced, r):
                why = "not accepted by the reduced automaton"
            elif i in sample and not relations.verify_relation(ctx, w, r):
                why = "not equivalent by exact arithmetic"
            elif i in sample and table.reduce(r) != r:
                why = "not idempotent"
        env.record(f"cold:{i}", "reduce_cold", t, why, letters=len(w))
    for i, w in enumerate(words):
        r, t, why = warm[i]
        if not why and r != cold[i][0]:
            why = "warm result differs from cold"
        env.record(f"warm:{i}", "reduce_warm", t, why, letters=len(w))
    for i, w in enumerate(words):
        got, t, why = back[i]
        if not why and got is not True:
            why = "word not equivalent to its reduction"
        env.record(f"equiv:{i}", "equiv", t, why, letters=len(w))
    for i, (u, v) in enumerate(pairs):
        got, t, why = rand[i]
        if not why and i in sample and got != relations.verify_relation(ctx, u, v):
            why = "verdict differs from exact arithmetic"
        env.record(f"pair:{i}", "equiv", t, why, letters=len(u))


PASSES = {
    "fixture_sweep": pass_fixture_sweep,
    "kenyon_large": pass_kenyon_large,
    "salem_capped": pass_salem_capped,
    "reduce_stream": pass_reduce_stream,
}


def load_expected(workload: str) -> dict:
    path = HERE / "expected" / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    probe = SpeedProbe()
    probe.start()
    try:
        import betauto

        if not Path(betauto.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"betauto imported from {betauto.__file__}, not {SRC}")

        env = Env(args, load_expected(args.workload))
        env.workdir.mkdir(parents=True, exist_ok=True)
        cost = 0.0
        if args.trace:
            cost = tracing.span_cost_ns(env.rec)
            tracing.install(env.rec)
        PASSES[args.workload](env)
    finally:
        probe.stop()
    end = time.monotonic()
    normalize(env.ops, probe.samples)
    doc = {
        "first_op": env.first_op,
        "end": end,
        "ops": env.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "observed": env.observed,
        "probe_s": [d for _, d in probe.samples],
        "setup_slowdown": slowdown([d for t, d in probe.samples if t < env.first_op_pc]),
    }
    if args.trace:
        doc["spans"] = env.rec.spans
        doc["counts"] = dict(env.rec.counts)
        doc["span_cost_ns"] = cost
    Path(args.result).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
