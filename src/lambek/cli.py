"""Command line front end.

Subcommands: ``prove`` (decide a sequent), ``parse`` (decide word
membership for a grammar), ``reduce`` (emit the grammar and word
encoding a 3-partition instance), ``solve3p`` (exact 3-partition
search).  Exit codes: 0 yes, 1 no, 2 bad input, 3 search gave up
(node budget, deadline, or a search deeper than the depth bound), so
scripts can tell "no" from "unknown", and 4 internal error (a bug, or
running out of memory on a huge input).

Each subcommand hands its verdict (True, False, or None for unknown)
to ``_report``, which prints the JSON payload or the text lines, as
``--output`` asks, and turns the verdict into the exit code.  Input a
subcommand cannot use raises ``_InputError``, which ``main`` prints as
one ``error:`` line per problem; any other exception is an internal
error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path

from .grammar import GrammarFormatError, anbncn_grammar, grammar_from_text, grammar_to_text, recognize
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


class _InputError(Exception):
    """Input a subcommand cannot use; each argument is one problem (exit 2)."""


def _read_text(path: str) -> str:
    return sys.stdin.read() if path == "-" else Path(path).read_text()


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambek",
        description="Prove Lambek sequents and parse words with categorial grammars.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", choices=["text", "json"], default="text")
    search = argparse.ArgumentParser(add_help=False)
    search.add_argument(
        "--mode",
        choices=[m.value for m in CalculusMode],
        default=CalculusMode.SDL.value,
        help="calculus to search in (default: sdl)",
    )
    search.add_argument(
        "--budget",
        type=_positive_int,
        default=DEFAULT_BUDGET,
        metavar="N",
        help=f"search node budget: search states expanded, a run of right rules being one (default: {DEFAULT_BUDGET})",
    )
    search.add_argument("--proof", action="store_true", help="include a proof when one exists")

    p = sub.add_parser("prove", parents=[search, output], help="decide derivability of a sequent")
    p.add_argument("sequent", nargs="+", help="sequent like 'a/b, b => a' (quote it)")
    p.set_defaults(run=cmd_prove)

    p = sub.add_parser("parse", parents=[search, output], help="decide whether a word is in a grammar's language")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--grammar", metavar="FILE", help="grammar file ('-' for stdin)")
    source.add_argument("--builtin", choices=["anbncn"], help="use a built-in grammar")
    p.add_argument("word", nargs="+", help="terminal symbols, e.g. a a b b c c")
    p.add_argument(
        "--deadline", type=float, metavar="SECONDS", help="give up (exit 3) after this much wall-clock time"
    )
    p.set_defaults(run=cmd_parse)

    p = sub.add_parser("reduce", parents=[output], help="encode a 3-partition instance as grammar membership")
    p.add_argument("instance", help="instance JSON file ('-' for stdin)")
    p.add_argument("prefix", nargs="?", help="write PREFIX.grammar and PREFIX.word and print only the word")
    p.set_defaults(run=cmd_reduce)

    p = sub.add_parser("solve3p", parents=[output], help="solve a 3-partition instance by exact search")
    p.add_argument("instance", help="instance JSON file ('-' for stdin)")
    p.set_defaults(run=cmd_solve3p)

    return parser


def _report(args: argparse.Namespace, verdict: bool | None, payload: dict, lines: Iterable[str]) -> int:
    """Print ``payload`` as JSON or ``lines`` as text, as ``--output`` asks,
    and return the exit code of ``verdict``: True yes, False no, None unknown.

    ``lines`` is read only for text output, so a generator puts off
    rendering a proof until it is asked for.
    """
    print(json.dumps(payload) if args.output == "json" else "\n".join(lines))
    return EXIT_UNKNOWN if verdict is None else EXIT_YES if verdict else EXIT_NO


def cmd_prove(args: argparse.Namespace) -> int:
    try:
        sequent = parse_sequent(" ".join(args.sequent))
    except FormulaSyntaxError as e:
        raise _InputError(e)
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
        raise _InputError(e)

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

    def lines() -> Iterator[str]:
        yield {True: "derivable", False: "not derivable", None: "unknown (budget exhausted)"}[verdict]
        if args.proof and tree is not None:
            yield render_proof(tree)

    return _report(args, verdict, payload, lines())


def cmd_parse(args: argparse.Namespace) -> int:
    try:
        grammar = anbncn_grammar() if args.builtin else grammar_from_text(_read_text(args.grammar))
    except (OSError, GrammarFormatError) as e:
        raise _InputError(e)
    word = [token for chunk in args.word for token in chunk.split()]
    mode = CalculusMode(args.mode)
    try:
        result = recognize(grammar, word, mode, budget=args.budget, deadline=args.deadline)
    except ValueError as e:
        raise _InputError(e)
    verdict = None if result.budget_exhausted else result.member

    payload = {
        "word": word,
        "mode": mode.value,
        "member": verdict,
        "budget_exhausted": result.budget_exhausted,
        "assignment": [format_formula(f) for f in result.assignment] if result.assignment else None,
        "stats": result.stats.as_dict(),
    }
    if args.proof:
        payload["proof"] = proof_to_json(result.proof) if result.proof else None

    def lines() -> Iterator[str]:
        yield {True: "member", False: "not a member", None: "unknown (search gave up)"}[verdict]
        if verdict:
            width = max(len(t) for t in word)
            for token, formula in zip(word, result.assignment):
                yield f"  {token:<{width}}  {format_formula(formula)}"
            if args.proof:
                yield render_proof(result.proof)

    return _report(args, verdict, payload, lines())


def _load_instance(path: str) -> ThreePartitionInstance:
    """The instance in ``path``; _InputError with every reason it is unusable."""
    try:
        inst = instance_from_json(_read_text(path))
        problems = validate_instance(inst)
    except (OSError, ValueError) as e:
        problems = [e]
    if problems:
        raise _InputError(*problems)
    return inst


def cmd_reduce(args: argparse.Namespace) -> int:
    grammar, word = build_reduction(_load_instance(args.instance))
    text = grammar_to_text(grammar)
    word_line = " ".join(word)
    if args.prefix:
        try:
            Path(args.prefix + ".grammar").write_text(text)
            Path(args.prefix + ".word").write_text(word_line + "\n")
        except OSError as e:
            raise _InputError(e)
    lines = [word_line] if args.prefix else [text, word_line]
    return _report(args, True, {"grammar": text, "word": list(word)}, lines)


def cmd_solve3p(args: argparse.Namespace) -> int:
    inst = _load_instance(args.instance)
    partition = solve_3partition(inst)
    # Printed positions are 1-based; Partition itself stores 0-based indices.
    payload = {
        "solvable": partition is not None,
        "partition": [[i + 1 for i in t] for t in partition] if partition else None,
    }
    lines = ["not solvable" if partition is None else "solvable"]
    for k, triple in enumerate(partition or (), start=1):
        positions = " ".join(str(i + 1) for i in triple)
        sizes = " ".join(str(inst.sizes[i]) for i in triple)
        lines.append(f"  triple {k}: positions {positions} (sizes {sizes})")
    return _report(args, partition is not None, payload, lines)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except _InputError as e:
        for problem in e.args:
            print(f"error: {problem}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:  # a bug, or MemoryError on a huge input
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
