"""Mutants of the package that the tests must kill.

Each row of ``MUTANTS`` is a fault that a test was once shown to catch:
a module of ``src/lambek``, an exact snippet of its source, the
snippet's replacement, and the tests that must fail once it is applied.
The runner copies ``src/`` to a temporary directory for each row,
applies the row there and runs the row's tests on that copy in a
subprocess.  It fails when a snippet is not found exactly once, so the
table tracks the code, and when a named test passes or does not run:
the mutant survived.

    python tests/mutants.py [NAME ...]

runs every row, or the rows named, from the repository root or any
other directory, and exits 1 on any failure.  A change to a mutated line
updates its row; a new oracle test adds the mutant it was checked on.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str  # under src/lambek, without .py
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node IDs, from the repository root


MUTANTS = [
    Mutant(
        "descent-under-slots-outer-first",
        "prover",
        "                lefts += m1\n",
        "                lefts[:0] = m1\n",
        (
            "tests/test_prover.py::test_mixed_slash_descents_agree_with_naive_search",
            "tests/test_prover.py::test_descents_agree_with_naive_search",
        ),
    ),
    Mutant(
        "descent-splice-one-slot-right",
        "prover",
        "(*mask[:q0], *lefts, functor if pending else None, *rights, *mask[q0 + 1 :])",
        "(*mask[: q0 + 1], *lefts, functor if pending else None, *rights, *mask[q0 + 2 :])",
        (
            "tests/test_prover.py::test_mixed_slash_descents_agree_with_naive_search",
            "tests/test_prover.py::test_chain_assembly_is_linear",
            "tests/test_checker.py::test_prover_output_always_checks",
        ),
    ),
    Mutant(
        "assemble-ax-data-unchecked",
        "prooftree",
        "node = _AX_LEAF if split is None and insert is None else ProofTree(rule, None, (), split, insert)",
        "node = _AX_LEAF",
        (
            "tests/test_checker.py::test_rule_data_only_on_their_rules",
            "tests/test_checker.py::test_inner_ax_nodes_are_one_shared_leaf",
        ),
    ),
    Mutant(
        "can-end-wrong-side-for-under",
        "prover",
        "return bool((sides & _LEFT_ARG or not i)",
        "return bool((sides & _RIGHT_ARG or not i)",
        (
            "tests/test_prover.py::test_no_focused_state_whose_chain_cannot_end",
            "tests/test_prover.py::test_prove_agrees_with_naive_search",
            "tests/test_prover.py::test_mirror_image_has_the_same_verdict_and_proof_count",
        ),
    ),
    Mutant(
        "ax-ignores-the-bag",
        "prover",
        "if fixed == (succ,) and not bag or not fixed",
        "if fixed == (succ,) or not fixed",
        (
            "tests/test_prover.py::test_prove_agrees_with_naive_search",
            "tests/test_prover.py::test_pending_functors_agree_with_naive_search",
        ),
    ),
    Mutant(
        "left-scan-takes-an-empty-premise",
        "prover",
        "if take or lo < hi:",
        "if take or lo <= hi:",
        (
            "tests/test_prover.py::test_prove_agrees_with_naive_search",
            "tests/test_prover.py::test_search_is_pinned",
        ),
    ),
    Mutant(
        "checker-takes-an-empty-span",
        "prooftree",
        "0 <= u and 1 <= t and u + t < n",
        "0 <= u and 0 <= t and u + t < n",
        ("tests/test_checker.py::test_left_premise_with_an_empty_antecedent_is_rejected",),
    ),
    Mutant(
        "checker-ax-on-any-atom",
        "checker",
        "len(ant) == 1 and ant[0] is succ and type(succ) is Atom",
        "len(ant) == 1 and type(succ) is Atom",
        (
            "tests/test_checker.py::test_axiom",
            "tests/test_checker.py::test_checker_agrees_with_naive_replay",
            "tests/test_checker.py::test_json_round_trips_rule_inconsistent_trees",
        ),
    ),
    Mutant(
        "reduction-one-c-too-few",
        "reduction",
        "[cj] * inst.sizes[i - 1]",
        "[cj] * (inst.sizes[i - 1] - 1)",
        (
            "tests/test_reduction.py::test_paper_witness_proof_replays_and_decodes",
            "tests/test_reduction.py::test_partition_assignment_round_trip",
        ),
    ),
    Mutant(
        "walk-memo-without-length",
        "grammar",
        "            state = i, residual\n",
        "            state = residual\n",
        (
            "tests/test_grammar.py::test_count_filter_matches_brute_force[None]",
            "tests/test_grammar.py::test_count_filter_matches_brute_force[8]",
        ),
    ),
    Mutant(
        "walk-rejections-counted-once",
        "grammar",
        "                    moves.append((f, r if above is None or r in above else None))\n",
        "                    if above is None or r in above:\n"
        "                        moves.append((f, r))\n"
        "                    else:\n"
        "                        skipped[0] += sizes[i + 1]\n",
        (
            "tests/test_grammar.py::test_count_filter_matches_brute_force[None]",
            "tests/test_grammar.py::test_count_filter_matches_brute_force[8]",
            "tests/test_grammar.py::test_count_filter_enumeration_is_pinned",
        ),
    ),
    Mutant(
        "tables-prune-keeps-keys-that-lead-in",
        "grammar",
        "rest = [key for key in rest if _shift(key, vec) not in above]",
        "rest = [key for key in rest if _shift(key, vec) in above]",
        (
            "tests/test_grammar.py::test_count_filter_matches_brute_force[None]",
            "tests/test_grammar.py::test_count_filter_matches_brute_force[8]",
        ),
    ),
    Mutant(
        "checker-split-from-minus-one",
        "prooftree",
        "0 <= u and 1 <= t",
        "-1 <= u and 1 <= t",
        ("tests/test_checker.py::test_split_or_insert_from_minus_one_is_rejected",),
    ),
    Mutant(
        "checker-insert-at-minus-one",
        "prooftree",
        "not 0 <= k <= n",
        "not -1 <= k <= n",
        ("tests/test_checker.py::test_split_or_insert_from_minus_one_is_rejected",),
    ),
    Mutant(
        "shape-test-reads-split-1-twice",
        "prooftree",
        "type(split[0]) is int and type(split[1]) is int",
        "type(split[1]) is int and type(split[1]) is int",
        (
            "tests/test_checker.py::test_misplaced_or_mistyped_rule_data_raise_where_the_tree_is_built[split-first-not-int]",
            "tests/test_checker.py::test_json_rejects_nodes_without_their_rule_data[split-first-not-int]",
        ),
    ),
    Mutant(
        "atom-usable-without-no-linimp",
        "syntax",
        "_set_usable(node, _POSITIVE | _NEGATIVE | _NO_LINIMP)",
        "_set_usable(node, _POSITIVE | _NEGATIVE)",
        ("tests/test_syntax.py::test_shape_facts_match_the_oracles",),
    ),
    Mutant(
        "over-head-is-its-result",
        "syntax",
        "        _set_head(node, result._head or result)\n        _set_sides(node, result._sides | _RIGHT_ARG)\n",
        "        _set_head(node, result)\n        _set_sides(node, result._sides | _RIGHT_ARG)\n",
        ("tests/test_syntax.py::test_shape_facts_match_the_oracles",),
    ),
    Mutant(
        "under-sides-as-over",
        "syntax",
        "_set_sides(node, result._sides | _LEFT_ARG)",
        "_set_sides(node, result._sides | _RIGHT_ARG)",
        ("tests/test_syntax.py::test_shape_facts_match_the_oracles",),
    ),
    Mutant(
        "linimp-usable-unmasked",
        "syntax",
        "_set_usable(node, result._usable & _FLIPPED[arg._usable] & _POSITIVE)",
        "_set_usable(node, result._usable & _FLIPPED[arg._usable])",
        ("tests/test_syntax.py::test_shape_facts_match_the_oracles",),
    ),
]


def _outcomes(output: str) -> dict[str, str]:
    """Node ID to PASSED, FAILED or ERROR, from the short summary of ``pytest -rA``."""
    out = {}
    for line in output.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            out.setdefault(rest.split(" - ", 1)[0], word)
    return out


def run(m: Mutant) -> list[str]:
    """The ways ``m`` was not killed: a missing snippet, or a test that passed or did not run."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "lambek" / f"{m.module}.py"
        text = path.read_text()
        found = text.count(m.snippet)
        if found != 1:
            return [f"its snippet occurs {found} times in {m.module}.py, not once"]
        path.write_text(text.replace(m.snippet, m.replacement))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", *m.tests]
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    outcomes = _outcomes(proc.stdout)
    problems = [f"{test} {outcomes.get(test, 'did not run')}" for test in m.tests if outcomes.get(test) not in ("FAILED", "ERROR")]
    if len(outcomes) < len(m.tests):
        problems += (proc.stdout + proc.stderr).strip().splitlines()[-1:]
    return problems


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"no mutant named {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    start, failures = time.perf_counter(), 0
    for m in MUTANTS:
        if names and m.name not in names:
            continue
        t0 = time.perf_counter()
        problems = run(m)
        failures += bool(problems)
        print(f"{'NOT KILLED' if problems else 'killed':10} {m.name} ({time.perf_counter() - t0:.1f} s)")
        for p in problems:
            print(f"           {p}")
    print(f"{failures} of the mutants not killed, in {time.perf_counter() - start:.1f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
