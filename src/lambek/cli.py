"""Command line front end.

Subcommands: ``prove`` (decide a sequent), ``parse`` (decide word
membership for a grammar), ``reduce`` (emit the grammar and word
encoding a 3-partition instance), ``solve3p`` (exact 3-partition
search).  Exit codes: 0 yes, 1 no, 2 bad input, 3 search gave up
(node budget, deadline, or a search deeper than the depth bound), so
scripts can tell "no" from "unknown", and 4 internal error (a bug, or
running out of memory on a huge input).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .grammar import (
    GrammarFormatError,
    anbncn_grammar,
    grammar_from_text,
    grammar_to_text,
    recognize,
)
from .prooftree import proof_to_json, render_proof
from .prover import DEFAULT_BUDGET, BudgetExceededError, CalculusMode, prove, validate_input
from .reduction import (
    ThreePartitionInstance, build_reduction, instance_from_json, solve_3partition, validate_instance
)
from .syntax import FormulaSyntaxError, format_formula, format_sequent, parse_sequent

__all__ = ["main", "entry"]

EXIT_YES = 0
EXIT_NO = 1
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_INTERNAL = 4


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _add_search_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--mode",
        choices=[m.value for m in CalculusMode],
        default=CalculusMode.SDL.value,
        help="calculus to search in (default: sdl)",
    )
    p.add_argument(
        "--budget",
        type=_positive_int,
        default=DEFAULT_BUDGET,
        metavar="N",
        help=f"search node budget (default: {DEFAULT_BUDGET})",
    )
    p.add_argument("--output", choices=["text", "json"], default="text")
    p.add_argument("--proof", action="store_true", help="include a proof when one exists")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambek",
        description="Prove Lambek sequents and parse words with categorial grammars.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prove", help="decide derivability of a sequent")
    p.add_argument("sequent", nargs="+", help="sequent like 'a/b, b => a' (quote it)")
    _add_search_options(p)

    p = sub.add_parser("parse", help="decide whether a word is in a grammar's language")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--grammar", metavar="FILE", help="grammar file ('-' for stdin)")
    source.add_argument("--builtin", choices=["anbncn"], help="use a built-in grammar")
    p.add_argument("word", nargs="+", help="terminal symbols, e.g. a a b b c c")
    _add_search_options(p)
    p.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="give up (exit 3) after this much wall-clock time",
    )

    p = sub.add_parser("reduce", help="encode a 3-partition instance as grammar membership")
    p.add_argument("instance", help="instance JSON file ('-' for stdin)")
    p.add_argument(
        "prefix",
        nargs="?",
        help="write PREFIX.grammar and PREFIX.word and print only the word",
    )
    p.add_argument("--output", choices=["text", "json"], default="text")

    p = sub.add_parser("solve3p", help="solve a 3-partition instance by exact search")
    p.add_argument("instance", help="instance JSON file ('-' for stdin)")
    p.add_argument("--output", choices=["text", "json"], default="text")

    return parser


def _exit_code(verdict: bool | None) -> int:
    """The exit code of a verdict: True for yes, False for no, None for unknown."""
    return EXIT_UNKNOWN if verdict is None else EXIT_YES if verdict else EXIT_NO


def cmd_prove(args: argparse.Namespace) -> int:
    try:
        sequent = parse_sequent(" ".join(args.sequent))
    except FormulaSyntaxError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    mode = CalculusMode(args.mode)
    warnings = validate_input(sequent, mode)
    for w in warnings:
        print(f"warning: {w.message}", file=sys.stderr)

    try:
        tree, stats = prove(sequent, mode, budget=args.budget)
        verdict = tree is not None
    except BudgetExceededError as e:
        tree, stats, verdict = None, e.stats, None
    except ValueError as e:  # a sequent too large for the search
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT

    if args.output == "json":
        payload = {
            "sequent": format_sequent(sequent),
            "mode": mode.value,
            "derivable": verdict,
            "budget_exhausted": verdict is None,
            "stats": stats.as_dict(),
            "warnings": [w.message for w in warnings],
        }
        if args.proof and verdict is not None:
            payload["proof"] = proof_to_json(tree) if tree is not None else None
        print(json.dumps(payload))
    else:
        print({True: "derivable", False: "not derivable", None: "unknown (budget exhausted)"}[verdict])
        if args.proof and tree is not None:
            print(render_proof(tree))
    return _exit_code(verdict)


def cmd_parse(args: argparse.Namespace) -> int:
    try:
        if args.builtin:
            grammar = anbncn_grammar()
        else:
            grammar = grammar_from_text(_read_text(args.grammar))
    except (OSError, GrammarFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    word = [token for chunk in args.word for token in chunk.split()]
    mode = CalculusMode(args.mode)
    try:
        result = recognize(grammar, word, mode, budget=args.budget, deadline=args.deadline)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    verdict = None if result.budget_exhausted else result.member

    if args.output == "json":
        payload = {
            "word": word,
            "mode": mode.value,
            "member": verdict,
            "budget_exhausted": result.budget_exhausted,
            "assignment": (
                [format_formula(f) for f in result.assignment] if result.assignment else None
            ),
            "stats": result.stats.as_dict(),
        }
        if args.proof:
            payload["proof"] = proof_to_json(result.proof) if result.proof else None
        print(json.dumps(payload))
    else:
        print({True: "member", False: "not a member", None: "unknown (search gave up)"}[verdict])
        if verdict:
            width = max(len(t) for t in word)
            for token, formula in zip(word, result.assignment):
                print(f"  {token:<{width}}  {format_formula(formula)}")
            if args.proof:
                print(render_proof(result.proof))
    return _exit_code(verdict)


def _load_instance(path: str) -> ThreePartitionInstance | None:
    """The instance in ``path``, or None after printing why it is unusable."""
    try:
        inst = instance_from_json(_read_text(path))
        problems = validate_instance(inst)
    except (OSError, ValueError) as e:
        problems = [str(e)]
    for msg in problems:
        print(f"error: {msg}", file=sys.stderr)
    return None if problems else inst


def cmd_reduce(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    if inst is None:
        return EXIT_INPUT
    grammar, word = build_reduction(inst)
    text = grammar_to_text(grammar)
    word_line = " ".join(word)
    if args.prefix:
        try:
            Path(args.prefix + ".grammar").write_text(text)
            Path(args.prefix + ".word").write_text(word_line + "\n")
        except OSError as e:
            print(f"error: {e}", file=sys.stderr)
            return EXIT_INPUT
    if args.output == "json":
        print(json.dumps({"grammar": text, "word": list(word)}))
    else:
        if not args.prefix:
            print(text)
        print(word_line)
    return EXIT_YES


def cmd_solve3p(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    if inst is None:
        return EXIT_INPUT
    partition = solve_3partition(inst)
    # Printed positions are 1-based; Partition itself stores 0-based indices.
    if args.output == "json":
        print(json.dumps({
            "solvable": partition is not None,
            "partition": (
                [[i + 1 for i in t] for t in partition] if partition else None
            ),
        }))
    elif partition is None:
        print("not solvable")
    else:
        print("solvable")
        for k, triple in enumerate(partition, start=1):
            positions = " ".join(str(i + 1) for i in triple)
            sizes = " ".join(str(inst.sizes[i]) for i in triple)
            print(f"  triple {k}: positions {positions} (sizes {sizes})")
    return _exit_code(partition is not None)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "prove": cmd_prove,
        "parse": cmd_parse,
        "reduce": cmd_reduce,
        "solve3p": cmd_solve3p,
    }[args.command]
    try:
        return handler(args)
    except Exception as e:  # a bug, or MemoryError on a huge input
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
