"""Command-line front end: solving, verifying, inferring, and file exchange.

Exit codes: 0 success, 1 a check or inference failed, 2 usage error,
3 I/O error.  All commands are deterministic.  Each command returns 0 or 1
and turns its own domain errors into 1 or 2 (argparse's parser.error).
main decides the two codes that do not depend on the command: any OSError,
a failed write to stdout or a closed pipe included, prints one "error:"
line and gives 3, and a ResourceLimitError or a MemoryError is a usage error (2).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys

from .catalog import builtin_dfaos
from .fibnum import _natural
from .games import (
    GameSpec,
    PposSequence,
    ResourceLimitError,
    _cache_header,
    ppos_list,
    solve,
    write_table_cache,
)
from .morphisms import (
    DFAO,
    InferenceError,
    InferenceResult,
    eval_dfao,
    eval_dfao_range,
    infer_morphism,
    infer_morphism_auto,
    promote,
)
from .suites import K_BOUND_DEFAULT, SUITES, W_BOUND_DEFAULT, run_suite
from .walnut import from_walnut, to_walnut

__all__ = [
    "main",
    "build_parser",
    "write_pairs_csv",
    "read_pairs_csv",
    "pairs_to_json",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="wythlab",
        description="Verification workbench for Wythoff variants with "
        "terminal positions (K) and blocking maneuvers (W).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="solve a board and export the P-positions")
    sp.add_argument("--game", choices=("K", "W"), required=True)
    sp.add_argument("--ell", type=int, default=None)
    sp.add_argument("--k", type=int, default=None)
    sp.add_argument("--bound", type=int, default=None,
                    help=f"board bound (default {K_BOUND_DEFAULT} for K, "
                    f"{W_BOUND_DEFAULT} for W)")
    sp.add_argument("--out", default=None, help="output path (default stdout)")
    sp.add_argument("--format", choices=("csv", "json", "cache"), default="csv")

    vp = sub.add_parser("verify", help="run a named verification suite")
    vp.add_argument("suite", choices=sorted(SUITES) + ["all"])
    vp.add_argument("--ell", type=int, default=None)
    vp.add_argument("--k", type=int, default=None)
    vp.add_argument("--bound", type=int, default=None)

    ip = sub.add_parser("infer", help="infer a substitution system from a prefix")
    ip.add_argument("input", help="file of whitespace-separated sequence values")
    ip.add_argument("--types", default="auto",
                    help="block depth t, or 'auto' to escalate (default auto)")
    ip.add_argument("--out", default=None,
                    help="write the resulting automaton in Walnut text format")

    ep = sub.add_parser("eval-dfao", help="evaluate an automaton on 0..N or one n")
    ep.add_argument("automaton",
                    help="built-in name (see export) or Walnut text file path")
    group = ep.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, default=None, help="single index")
    group.add_argument("--upto", type=int, default=None,
                       help="print values for 0..N on one line")

    xp = sub.add_parser("export", help="write a built-in automaton as Walnut text")
    xp.add_argument("--automaton", required=True,
                    help="one of: " + ", ".join(sorted(builtin_dfaos())))
    xp.add_argument("--out", required=True)
    return p


# ---------------------------------------------------------------------------
# Pair-list serialization
# ---------------------------------------------------------------------------

def write_pairs_csv(pp: PposSequence, fh) -> None:
    """Header n,a_n,b_n then one indexed row per pair."""
    writer = csv.writer(fh)
    writer.writerow(["n", "a_n", "b_n"])
    for n, (a, b) in enumerate(pp.pairs):
        writer.writerow([n, a, b])


def read_pairs_csv(fh, ell=None) -> PposSequence:
    """Inverse of write_pairs_csv; the rule-set parameter is not stored."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header != ["n", "a_n", "b_n"]:
        raise ValueError(f"unexpected CSV header {header}")
    pairs = []
    for row in reader:
        if not row:
            continue
        n, a, b = (int(v) for v in row)
        if n != len(pairs):
            raise ValueError(f"row index {n} out of order")
        pairs.append((a, b))
    return PposSequence(ell=ell, pairs=tuple(pairs))


def pairs_to_json(spec, bound: int, pp: PposSequence) -> str:
    doc = {
        "game": spec.variant,
        "ell": spec.ell,
        "k": spec.k,
        "bound": bound,
        "pairs": [[n, a, b] for n, (a, b) in enumerate(pp.pairs)],
    }
    return json.dumps(doc, indent=2) + "\n"


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_solve(parser, args) -> int:
    try:  # refuses a missing parameter, the other variant's and a negative bound
        spec = GameSpec(args.game, ell=args.ell, k=args.k)
        default = K_BOUND_DEFAULT if spec.variant == "K" else W_BOUND_DEFAULT
        bound = _natural(default if args.bound is None else args.bound, "bound")
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "cache":
        if args.out is None:
            parser.error("--format cache requires --out")
        try:  # before the solve, which at such an ell or k can run for hours
            _cache_header(spec, bound)
        except ValueError as exc:
            parser.error(str(exc))
    table = solve(spec, bound)
    if args.format == "cache":
        write_table_cache(table, args.out)
        return EXIT_OK
    pp = ppos_list(table)
    if args.format == "json":
        _write_text(args.out, pairs_to_json(spec, bound, pp))
    else:
        buf = io.StringIO()
        write_pairs_csv(pp, buf)
        _write_text(args.out, buf.getvalue())
    return EXIT_OK


def _cmd_verify(parser, args) -> int:
    try:
        items = run_suite(args.suite, ell=args.ell, k=args.k, bound=args.bound)
    except ValueError as exc:
        parser.error(str(exc))
    width = max(len(it.name) for it in items) + 2
    failures = 0
    for it in items:
        status = "PASS" if it.result.ok else "FAIL"
        print(f"{it.name:<{width}} {status}  {it.seconds:7.2f}s  {it.result.detail}")
        if not it.result.ok:
            failures += 1
            if it.result.counterexample is not None:
                print(f"{'':<{width}}       counterexample: "
                      f"{it.result.counterexample}")
    total = len(items)
    print(f"{total - failures}/{total} checks passed")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def _parse_symbols(text: str) -> list:
    tokens = text.split()
    try:
        return [int(t) for t in tokens]
    except ValueError:
        return tokens


def _format_system(result: InferenceResult) -> str:
    lines = ["morphism:"]
    for letter, image in enumerate(result.morphism.images):
        lines.append(f"  {letter} -> {','.join(str(c) for c in image)}")
    lines.append("coding:")
    for letter, out in enumerate(result.coding.outputs):
        lines.append(f"  {letter} -> {out}")
    lines.append(f"letters: {result.morphism.alphabet_size}")
    lines.append(f"block depth: {result.t}")
    conj = "yes" if result.is_fibonacci_conjugate else "no"
    lines.append(f"fibonacci-conjugate: {conj}")
    return "\n".join(lines) + "\n"


def _cmd_infer(parser, args) -> int:
    try:
        with open(args.input, encoding="utf-8") as fh:
            prefix = _parse_symbols(fh.read())
    except UnicodeDecodeError as exc:
        parser.error(f"{args.input}: {exc}")
    if not prefix:
        parser.error(f"{args.input}: empty sequence")
    try:
        if args.types == "auto":
            result = infer_morphism_auto(prefix)
        else:
            try:
                t = int(args.types)
            except ValueError:
                t = 0  # rejected below with the out-of-range depths
            if t < 1:
                parser.error(f"--types must be 'auto' or a depth >= 1: {args.types!r}")
            result = infer_morphism(prefix, t)
    except InferenceError as exc:
        print(f"inference failed: {exc}", file=sys.stderr)
        print("advice: supply a longer prefix or a larger --types depth",
              file=sys.stderr)
        return EXIT_CHECK_FAILED
    sys.stdout.write(_format_system(result))
    if args.out is not None:
        if not all(isinstance(v, int) for v in result.coding.outputs):
            print("error: automaton export needs integer sequence values",
                  file=sys.stderr)
            return EXIT_CHECK_FAILED
        outputs = set(result.coding.outputs)
        if len(outputs) == 1:
            # constant sequences get the canonical one-state automaton
            d = DFAO(transitions=((0, 0),), outputs=(outputs.pop(),))
        else:
            d = promote(result.morphism, result.coding)
        _write_text(args.out, to_walnut(d))
    return EXIT_OK


def _cmd_eval_dfao(parser, args) -> int:
    flag, n = ("--n", args.n) if args.n is not None else ("--upto", args.upto)
    if n < 0:  # before the automaton is opened or read
        parser.error(f"{flag} must be a natural: {n}")
    builtin = builtin_dfaos()
    try:
        if args.automaton in builtin:
            d = builtin[args.automaton]
        else:
            with open(args.automaton, encoding="utf-8") as fh:
                d = from_walnut(fh.read())
        values = [eval_dfao(d, n)] if flag == "--n" else eval_dfao_range(d, n).tolist()
    except ValueError as exc:  # malformed or undecodable file, stuck automaton
        print(f"error: {args.automaton}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(" ".join(map(str, values)))
    return EXIT_OK


def _cmd_export(parser, args) -> int:
    builtin = builtin_dfaos()
    if args.automaton not in builtin:
        parser.error(
            f"unknown automaton {args.automaton!r}; "
            "choose from: " + ", ".join(sorted(builtin))
        )
    _write_text(args.out, to_walnut(builtin[args.automaton]))
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "infer": _cmd_infer,
    "eval-dfao": _cmd_eval_dfao,
    "export": _cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _COMMANDS[args.command](parser, args)
        sys.stdout.flush()  # a buffered write fails here, not at exit
        return code
    except (ResourceLimitError, MemoryError) as exc:  # bounds too large to run
        parser.error(str(exc) or "out of memory")
    except OSError as exc:
        # report on stderr, then settle stdout; a stream that still fails is
        # closed, so that exit does not retry its unwritten bytes (close
        # raises the same error, but still closes)
        for stream, text in ((sys.stderr, f"error: {exc}\n"), (sys.stdout, "")):
            try:
                stream.write(text)
                stream.flush()
            except OSError:
                with contextlib.suppress(OSError):
                    stream.close()
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
