"""Command-line front end.

    betauto <relations|structure|reduce|equiv|free|verify|oracle>
            --config FILE [flags]

Exit codes: 0 success, 1 input error, 2 construction blocked or capped,
3 oracle cross-check failure.  All outputs are deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from pathlib import Path

from . import automata as au
from .numfield import BetaContext, NumFieldError, context_from_config, fe_add, fe_sub
from .reducer import ReducerTable
from .relations import (
    Blocked,
    CapExceeded,
    RelAutomaton,
    build_relation_automaton,
    is_free,
    kenyon_criterion,
    mahler_nonfree_check,
    quick_free_sufficient,
    verify_power_identity,
    verify_relation,
)
from .structure import (
    build_multiplier,
    build_reduced_automaton,
    count_elements_bruteforce,
    growth,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BLOCKED = 2
EXIT_CHECK_FAILED = 3


class InputError(Exception):
    pass


def _dump_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _json_list(items: list) -> str:
    """Formatted items as ``json.dumps(indent=2)`` lays out a list that is the
    value of a top-level key."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def _write_automaton(out: Path, stem: str, a: au.Automaton) -> None:
    """Write ``stem.json`` and ``stem.dot``.  The JSON bytes equal
    ``json.dumps(au.to_json(a), indent=2, sort_keys=True)`` plus a newline;
    they are formatted here, row by row, because ``json`` leaves its C encoder
    for the pure-Python one whenever ``indent`` is set."""
    doc = au.to_json(a)
    esc = json.encoder.encode_basestring_ascii
    fields = {
        "alphabet": [esc(x) for x in doc["alphabet"]],
        "finals": list(map(str, doc["finals"])),
        "initials": list(map(str, doc["initials"])),
        "states": [f'{{\n      "label": {esc(s["label"])}\n    }}'
                   for s in doc["states"]],
        "transitions": [f"[\n      {p},\n      {i},\n      {q}\n    ]"
                        for p, i, q in doc["transitions"]],
    }
    body = ",\n  ".join(f'"{k}": {_json_list(v)}' for k, v in sorted(fields.items()))
    (out / f"{stem}.json").write_text("{\n  " + body + "\n}\n")
    (out / f"{stem}.dot").write_text(au.to_dot(a, stem) + "\n")


def _emit(doc, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(text)


def _load_context(args) -> BetaContext:
    try:
        doc = json.loads(Path(args.config).read_text())
    except OSError as e:
        raise InputError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise InputError(f"config is not valid JSON: {e}") from e
    if args.precision is not None and isinstance(doc, dict):
        doc = {**doc, "precision": args.precision}
    try:
        return context_from_config(doc)
    except NumFieldError as e:
        raise InputError(str(e)) from e


def _check_limits(args) -> None:
    """Reject nonsense caps and lengths before anything is built or written."""
    if args.max_states < 1:
        raise InputError(f"--max-states must be >= 1, got {args.max_states}")
    if args.max_depth < 0:
        raise InputError(f"--max-depth must be >= 0, got {args.max_depth}")
    for flag in ("n", "N"):
        value = getattr(args, flag, 0)
        if value < 0:
            raise InputError(f"-{flag} must be >= 0, got {value}")


def _build_rel(ctx: BetaContext, args) -> RelAutomaton:
    return build_relation_automaton(
        ctx, max_states=args.max_states, max_depth=args.max_depth,
        force=args.force)


def _integer(v) -> int:
    """A JSON integer; ``int`` would read 1.5 and true as 1."""
    if type(v) is not int:
        raise ValueError(f"{json.dumps(v)} is not an integer")
    return v


def _word(ctx: BetaContext, s: str) -> list:
    """Split a word argument into digit names ('110' or '1,1,0')."""
    parts = s.split(",") if "," in s else list(s)
    for p in parts:
        if p not in ctx.digit_names:
            raise InputError(
                f"unknown digit {p!r} (digits: {', '.join(ctx.digit_names)})")
    return parts


# ---------------------------------------------------------------------------
# commands


def cmd_relations(args) -> int:
    ctx = _load_context(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = {
        "caps": {"max_states": args.max_states, "max_depth": args.max_depth},
        "blocked_context": ctx.blocked,
        "inverted": ctx.inverted,
    }
    try:
        rel = _build_rel(ctx, args)
    except Blocked as e:
        summary.update({"status": "blocked", "message": str(e)})
        _dump_json(out / "summary.json", summary)
        print(f"blocked: {e}", file=sys.stderr)
        return EXIT_BLOCKED
    except CapExceeded as e:
        summary.update({
            "status": "capped", "message": str(e), "partial": e.stats,
            "note": ("exploration did not close under the caps; this does not "
                     "certify that the relation automaton is infinite"),
        })
        _dump_json(out / "summary.json", summary)
        print(f"capped: {e}", file=sys.stderr)
        return EXIT_BLOCKED
    summary.update({
        "status": "ok",
        "state_count": rel.n_states,
        "free": is_free(rel),
        "stats": rel.stats,
    })
    _write_automaton(out, "relations", rel.automaton)
    _dump_json(out / "summary.json", summary)
    _emit(summary, args.json,
          f"states={rel.n_states} free={summary['free']}")
    return EXIT_OK


def _structure_parts(ctx, args):
    """The relation and reduced automata, both under ``--max-states``."""
    rel = _build_rel(ctx, args)
    reduced = build_reduced_automaton(rel, args.order, args.max_states)
    return rel, reduced


def cmd_structure(args) -> int:
    candidate = None
    if args.candidate_pi is not None:
        try:
            candidate = [int(c) for c in args.candidate_pi.split(",")]
        except ValueError as e:
            raise InputError(f"bad --candidate-pi: {e}") from e
        if not any(candidate):
            raise InputError("bad --candidate-pi: the zero polynomial")
    ctx = _load_context(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        rel, reduced = _structure_parts(ctx, args)
        # every multiplier and the growth report are built before the first
        # write, so a capped run leaves no artefact behind
        mults = {g: build_multiplier(rel, reduced, g, max_states=args.max_states)
                 for g in ctx.digit_names}
        report = growth(reduced, N=args.N, candidate_pi=candidate,
                        max_words=args.max_states * rel.n_states)
    except (Blocked, CapExceeded) as e:
        print(f"cannot build structure: {e}", file=sys.stderr)
        return EXIT_BLOCKED
    _write_automaton(out, "reduced", reduced)
    for g, mult in mults.items():
        _write_automaton(out, f"mult_{g}", mult)
    doc = report.to_json()
    _dump_json(out / "growth.json", doc)
    lam = doc["lambda"]
    _emit(doc, args.json,
          f"reduced_states={reduced.n_states} "
          f"lambda=[{lam['lo']:.10f},{lam['hi']:.10f}] "
          f"counts={','.join(doc['counts'][:8])}")
    if report.pi_check is not None and not report.pi_check["ok"]:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_reduce(args) -> int:
    ctx = _load_context(args)
    word = _word(ctx, args.word)
    try:
        rel, reduced = _structure_parts(ctx, args)
    except (Blocked, CapExceeded) as e:
        print(f"cannot reduce: {e}", file=sys.stderr)
        return EXIT_BLOCKED
    v = ReducerTable(rel, reduced).reduce(word)
    _emit({"input": word, "reduced": list(v)}, args.json, "".join(v))
    return EXIT_OK


def cmd_equiv(args) -> int:
    ctx = _load_context(args)
    u, v = _word(ctx, args.u), _word(ctx, args.v)
    verdict = verify_relation(ctx, u, v) if len(u) == len(v) else False
    _emit({"u": u, "v": v, "equivalent": verdict}, args.json,
          "equivalent" if verdict else "distinct")
    return EXIT_OK


def _kenyon_params(ctx: BetaContext):
    """(p, q) when the context is base 3 with digits {0, p, q}, p and q
    coprime; None otherwise.  Base 3 has degree 1, so every digit is an
    integer, and digits are distinct, so a least digit 0 gives 0 < p < q."""
    if ctx.minpoly != (-3, 1) or ctx.inverted or len(ctx.digits) != 3:
        return None
    zero, p, q = sorted(d.coeffs[0] for d in ctx.digits)
    return (p, q) if zero == 0 and math.gcd(p, q) == 1 else None


def cmd_free(args) -> int:
    ctx = _load_context(args)
    reasons = []
    verdict = None  # True = free, False = non-free, None = unknown

    if quick_free_sufficient(ctx):
        verdict = True
        reasons.append("expanding-separation")
    kp = _kenyon_params(ctx)
    if kp is not None:
        k = kenyon_criterion(*kp)
        reasons.append(f"kenyon:{'free' if k else 'nonfree'}")
        if verdict is None:
            verdict = k
    if verdict is None and len(ctx.digits) == 2 and ctx.mode == "algebraic":
        if mahler_nonfree_check(ctx):
            verdict = False
            reasons.append("mahler<2")
    status = "ok"
    if verdict is None:
        try:
            rel = _build_rel(ctx, args)
            verdict = is_free(rel)
            reasons.append("relation-automaton")
        except (Blocked, CapExceeded) as e:
            status = "blocked" if isinstance(e, Blocked) else "capped"
            reasons.append(status)
    doc = {"free": verdict, "reasons": reasons, "status": status}
    _emit(doc, args.json,
          {True: "free", False: "non-free", None: "inconclusive"}[verdict]
          + " (" + ", ".join(reasons) + ")")
    return EXIT_OK if verdict is not None else EXIT_BLOCKED


def cmd_verify(args) -> int:
    ctx = _load_context(args)
    if args.identity:
        try:
            doc = json.loads(Path(args.identity).read_text())
            terms = [(_integer(s), _integer(k)) for s, k in doc["terms"]]
            rhs = [_integer(c) for c in doc["rhs_coeffs"]]
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
            raise InputError(f"bad identity file: {e}") from e
        try:
            ok = verify_power_identity(ctx, terms, rhs)
        except ValueError as e:
            raise InputError(str(e)) from e
    else:
        if args.u is None or args.v is None:
            raise InputError("verify needs two words or --identity FILE")
        u, v = _word(ctx, args.u), _word(ctx, args.v)
        if len(u) != len(v):
            raise InputError("words must have equal length")
        ok = verify_relation(ctx, u, v)
    _emit({"verified": ok}, args.json, "true" if ok else "false")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_oracle(args) -> int:
    ctx = _load_context(args)
    n = args.n
    try:
        rel, reduced = _structure_parts(ctx, args)
    except (Blocked, CapExceeded) as e:
        print(f"cannot run oracle: {e}", file=sys.stderr)
        return EXIT_BLOCKED
    table = ReducerTable(rel, reduced)
    names = ctx.digit_names
    rng = random.Random(0)
    results = []

    def check(name, ok):
        results.append((name, ok))
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")

    nb = min(n, 7)
    check(f"counting vs bruteforce (lengths 0..{nb})",
          au.count_series(reduced, nb) == count_elements_bruteforce(ctx, nb))

    # walk the tree of equal-length word pairs (u, v) once: each node holds
    # the exact value of u - v and the relation state after (u, v), -1 once
    # dead; a dead subtree is still walked, since every pair is compared
    na = min(n, 4)
    k = len(names)
    diffs = [(a * k + b, fe_sub(ctx.digits[a], ctx.digits[b]))
             for a in range(k) for b in range(k)]
    rel_next, rel_finals = rel.automaton.ddelta(), rel.automaton.finals
    dead = [-1] * (k * k)

    def pairs_agree(r, val, depth) -> bool:
        ok = (r in rel_finals) == val.is_zero()
        if depth < na:
            base, row = ctx.mul_base(val), rel_next[r] if r >= 0 else dead
            for ab, d in diffs:
                ok &= pairs_agree(row[ab], fe_add(base, d), depth + 1)
        return ok

    check(f"relation language vs exact arithmetic (lengths 0..{na})",
          pairs_agree(table.rel_init, ctx.zero(), 0))

    ok = True
    for _ in range(200):
        w = [rng.choice(names) for _ in range(rng.randint(0, max(n, 1)))]
        r = table.reduce(w)
        if table.reduce(r) != r or not table.equivalent(w, r) or len(r) != len(w):
            ok = False
    check("reduce: idempotent, length-preserving, round-trip", ok)

    t = rel.automaton  # built trimmed
    check("relation automaton minimal (det + co-det + trimmed)",
          t.deterministic and au.is_codeterministic(t)
          and au.minimize(t).n_states == t.n_states)

    failed = [name for name, ok in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} oracle checks passed")
    return EXIT_OK if not failed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors as input errors: exit 1, not argparse's 2,
    which this CLI keeps for blocked or capped runs."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` leaves
    it unchanged, and building it costs about 1.7 ms."""
    p = _Parser(
        prog="betauto",
        description="Relation automata and automatic structures of affine "
                    "digit semigroups.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", required=True, help="context config JSON")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output on stdout")
        sp.add_argument("--order", default="lex", choices=["lex", "revlex"])
        sp.add_argument("--max-states", type=int, default=1_000_000)
        sp.add_argument("--max-depth", type=int, default=10_000)
        sp.add_argument("--precision", type=int, default=None)
        sp.add_argument("--force", action="store_true",
                        help="run a blocked context under the caps")
        return sp

    common(sub.add_parser("relations", help="build the relation automaton"))
    sp = common(sub.add_parser("structure", help="build reduced/multiplier automata and growth"))
    sp.add_argument("-N", type=int, default=20, help="counting series length")
    sp.add_argument("--candidate-pi", default=None,
                    help="comma-separated integer coefficients, constant first")
    sp = common(sub.add_parser("reduce", help="reduce a word"))
    sp.add_argument("word")
    sp = common(sub.add_parser("equiv", help="decide equivalence of two words"))
    sp.add_argument("u")
    sp.add_argument("v")
    common(sub.add_parser("free", help="freeness verdict"))
    sp = common(sub.add_parser("verify", help="verify a relation or identity"))
    sp.add_argument("u", nargs="?")
    sp.add_argument("v", nargs="?")
    sp.add_argument("--identity", default=None,
                    help="JSON file {terms: [[sign,k],...], rhs_coeffs: [...]}")
    sp = common(sub.add_parser("oracle", help="run brute-force cross-checks"))
    sp.add_argument("-n", type=int, default=4, help="max word length")
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "relations": cmd_relations,
        "structure": cmd_structure,
        "reduce": cmd_reduce,
        "equiv": cmd_equiv,
        "free": cmd_free,
        "verify": cmd_verify,
        "oracle": cmd_oracle,
    }[args.command]
    try:
        _check_limits(args)
        return handler(args)
    except (InputError, NumFieldError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
