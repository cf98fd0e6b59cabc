"""Acceptance gate: ten checks, one test and one printed verdict each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
verdict lines of passing criteria too).  Time bounds are asserted, so
a pathological slowdown fails the gate rather than hanging it.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from helpers import (
    all_valid_instances,
    forward_proof,
    mutate_proof,
    naive_check,
    oracle_balanced,
    oracle_conclusions,
    random_sequent,
)
from lambek import (
    Atom,
    CalculusMode,
    Rule,
    Sequent,
    anbncn_grammar,
    assignment_to_partition,
    build_reduction,
    check_proof,
    parse_sequent,
    partition_to_assignment,
    prove,
    recognize,
    solve_3partition,
    subformulas,
    validate_instance,
)

L, SDL, SDLM = CalculusMode.L, CalculusMode.SDL, CalculusMode.SDL_MINUS

RULE_NAMES = {"Ax", "/L", "/R", "\\L", "\\R", "-oR"}
ANBNCN_MEMBERS = {"abc", "aabbcc", "aaabbbccc"}


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------
# Shared expensive data
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def forward_pool():
    """1,000 derivable sequents with forward-built proofs, plus gen time."""
    rng = random.Random(20260813)
    t0 = time.monotonic()
    proofs = [forward_proof(rng, SDL) for _ in range(1000)]
    return proofs, time.monotonic() - t0


@pytest.fixture(scope="module")
def prover_emitted(forward_pool):
    """The prover's own proof for each forward-generated sequent."""
    proofs, gen_elapsed = forward_pool
    t0 = time.monotonic()
    emitted = []
    for p in proofs:
        tree, _ = prove(p.conclusion, SDL)
        assert tree is not None, p.conclusion
        emitted.append(tree)
    return emitted, gen_elapsed + (time.monotonic() - t0)


@pytest.fixture(scope="module")
def anbncn_sweep():
    """SDL membership for all 29,523 nonempty words of length <= 9."""
    g = anbncn_grammar()
    t0 = time.monotonic()
    results: dict[str, bool] = {}
    proofs = []
    for length in range(1, 10):
        for letters in itertools.product("abc", repeat=length):
            r = recognize(g, letters, SDL)
            assert not r.budget_exhausted
            results["".join(letters)] = r.member
            if r.member:
                proofs.append(r.proof)
    return results, proofs, time.monotonic() - t0


@pytest.fixture(scope="module")
def reduction_sweep():
    """recognize vs. exact search over every valid instance, m<=2, N<=16."""
    t0 = time.monotonic()
    records = []
    for inst in all_valid_instances(2, 16):
        assert validate_instance(inst) == []
        partition = solve_3partition(inst)
        grammar, word = build_reduction(inst)
        result = recognize(grammar, word, SDL)
        records.append((inst, partition, result))
    return records, time.monotonic() - t0


# ---------------------------------------------------------------------------
# The ten criteria
# ---------------------------------------------------------------------------


def test_criterion_01_count_invariant_on_derivable_sequents(forward_pool):
    proofs, gen_elapsed = forward_pool
    t0 = time.monotonic()
    unbalanced = sum(
        1 for p in proofs for _, c in oracle_conclusions(p) if not oracle_balanced(c)
    )
    elapsed = gen_elapsed + (time.monotonic() - t0)
    ok = len(proofs) == 1000 and unbalanced == 0 and elapsed < 10.0
    report(
        1,
        ok,
        f"1000 derivable sequents, {unbalanced} unbalanced proof nodes, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_cut_free_subformula_proofs(prover_emitted):
    emitted, elapsed = prover_emitted
    bad_rule = bad_sub = 0
    for tree in emitted:
        goal_subs = subformulas(tree.conclusion)
        for node, seq in oracle_conclusions(tree):
            if node.rule.value not in RULE_NAMES:
                bad_rule += 1
            if any(f not in goal_subs for f in seq.antecedent) or seq.succedent not in goal_subs:
                bad_sub += 1
    ok = bad_rule == 0 and bad_sub == 0 and elapsed < 10.0
    report(
        2,
        ok,
        f"{len(emitted)} prover proofs, {bad_rule} non-rule nodes, "
        f"{bad_sub} subformula violations, {elapsed:.1f}s (< 10s)",
    )


def test_criterion_03_anbncn_exhaustive_sweep(anbncn_sweep):
    results, _, elapsed = anbncn_sweep
    members = {w for w, m in results.items() if m}
    ok = len(results) == 29523 and members == ANBNCN_MEMBERS and elapsed < 120.0
    report(
        3,
        ok,
        f"{len(results)} words, members={sorted(members)}, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_04_sweep_identical_in_sdl_minus(anbncn_sweep):
    results, _, _ = anbncn_sweep
    g = anbncn_grammar()
    t0 = time.monotonic()
    disagreements = 0
    for word, member in results.items():
        r = recognize(g, list(word), SDLM)
        assert not r.budget_exhausted
        if r.member is not member:
            disagreements += 1
    elapsed = time.monotonic() - t0
    ok = disagreements == 0
    report(4, ok, f"{len(results)} words re-checked in sdl-, {disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_05_reduction_equivalence(reduction_sweep):
    records, elapsed = reduction_sweep
    mismatches = sum(
        1 for _, partition, result in records if result.member is not (partition is not None)
    )
    exhausted = sum(1 for _, _, result in records if result.budget_exhausted)
    ok = len(records) > 0 and mismatches == 0 and exhausted == 0 and elapsed < 600.0
    report(
        5,
        ok,
        f"{len(records)} instances, {mismatches} mismatches, "
        f"{exhausted} budget exhaustions, {elapsed:.1f}s (< 600s)",
    )


def test_criterion_06_partition_assignment_round_trip(reduction_sweep):
    records, _ = reduction_sweep
    checked = failures = 0
    for inst, partition, _ in records:
        if partition is None:
            continue
        checked += 1
        assignment = partition_to_assignment(inst, partition)
        sequent = Sequent(assignment, Atom("a"))
        tree, _ = prove(sequent, SDL)
        if tree is None or assignment_to_partition(inst, assignment) != partition:
            failures += 1
    ok = checked > 0 and failures == 0
    report(6, ok, f"{checked} solvable instances round-tripped, {failures} failures")


def test_criterion_07_checker_as_verifier(
    forward_pool, prover_emitted, anbncn_sweep, reduction_sweep
):
    corpus = list(forward_pool[0]) + list(prover_emitted[0]) + list(anbncn_sweep[1])
    corpus += [r.proof for _, _, r in reduction_sweep[0] if r.proof is not None]
    rejected_valid = sum(1 for t in corpus if not check_proof(t, SDL))

    rng = random.Random(97)
    sources = forward_pool[0]
    accepted_mutants = 0
    produced = 0
    attempts = 0
    while produced < 1000:
        attempts += 1
        assert attempts < 100_000, "mutant generation stalled"
        mutant = mutate_proof(rng, rng.choice(sources))
        if mutant is None or naive_check(mutant, SDL):
            continue
        produced += 1
        if check_proof(mutant, SDL):
            accepted_mutants += 1
    ok = rejected_valid == 0 and accepted_mutants == 0
    report(
        7,
        ok,
        f"{len(corpus)} valid proofs accepted ({rejected_valid} rejected), "
        f"{produced} invalid mutants, {accepted_mutants} wrongly accepted",
    )


def test_criterion_08_mode_monotonicity():
    rng = random.Random(41)
    sequents = [random_sequent(rng) for _ in range(350)]
    # forward conclusions keep the antecedent of the implication nonvacuous
    sequents += [forward_proof(rng, SDL).conclusion for _ in range(150)]
    violations = 0
    for s in sequents:
        in_sdl = prove(s, SDL)[0] is not None
        if prove(s, L)[0] is not None and not in_sdl:
            violations += 1
        if prove(s, SDLM)[0] is not None and not in_sdl:
            violations += 1
    ok = len(sequents) == 500 and violations == 0
    report(8, ok, f"500 sequents, {violations} monotonicity violations")


def test_criterion_09_linimp_right_usage_count(reduction_sweep):
    records, _ = reduction_sweep
    checked = wrong = 0
    for inst, partition, result in records:
        if partition is None:
            continue
        checked += 1
        expected = 3 * inst.m + inst.target * inst.m
        if result.proof.rule_count(Rule.LINIMP_R) != expected:
            wrong += 1
    ok = checked > 0 and wrong == 0
    report(9, ok, f"{checked} reduction proofs, {wrong} with -oR count != 3m + Nm")


def test_criterion_10_relative_clause_regression():
    peripheral = parse_sequent(r"(np\np)/(s/np), np, (np\s)/np => np\np")
    in_l = prove(peripheral, L)[0] is not None

    medial = parse_sequent(r"(np\np)/(np -o s), np, (np\s)/np, s\s => np\np")
    medial_sdl = prove(medial, SDL)[0] is not None
    medial_l = prove(medial, L)[0] is not None

    # the directional type cannot reach a medial gap at all
    directional_medial = parse_sequent(r"(np\np)/(s/np), np, (np\s)/np, s\s => np\np")
    stuck_l = prove(directional_medial, L)[0] is not None
    stuck_sdl = prove(directional_medial, SDL)[0] is not None

    ok = in_l and medial_sdl and not medial_l and not stuck_l and not stuck_sdl
    report(
        10,
        ok,
        "peripheral extraction L-derivable; medial gap sdl-only "
        f"(L={in_l}, sdl medial={medial_sdl}, l medial={medial_l}, "
        f"directional medial l/sdl={stuck_l}/{stuck_sdl})",
    )
