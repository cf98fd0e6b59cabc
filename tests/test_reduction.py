from __future__ import annotations

import gc
import itertools
import json
import random
import tracemalloc

import pytest

from helpers import all_valid_instances, brute_force_3partition, oracle_balanced, recursion_limit, reduction_proof
from lambek import (
    AssignmentDecodeError,
    Atom,
    CalculusMode,
    check_proof,
    Grammar,
    Sequent,
    ThreePartitionInstance,
    anbncn_grammar,
    assignment_to_partition,
    build_reduction,
    canonical_partition,
    format_formula,
    grammar_from_text,
    grammar_to_text,
    instance_from_json,
    instance_to_json,
    parse_formula,
    partition_to_assignment,
    prove,
    recognize,
    solve_3partition,
    validate_instance,
)
from lambek.grammar import _balanced_assignments, _entries
from lambek.reduction import _v_type, _w_type
from lambek.syntax import _nodes

GOOD = ThreePartitionInstance(1, 12, (4, 4, 4))
TWO = ThreePartitionInstance(2, 16, (5, 5, 6, 5, 6, 5))


def test_validate_instance_accepts():
    assert validate_instance(GOOD) == []
    assert validate_instance(TWO) == []
    assert validate_instance(ThreePartitionInstance(1, 10, (3, 3, 4))) == []


def test_validate_instance_bounds():
    # 3 + 4 + 5 = 12, but 3 is not strictly above 12/4
    problems = validate_instance(ThreePartitionInstance(1, 12, (3, 4, 5)))
    assert len(problems) == 1
    assert "size 3 at position 1" in problems[0]
    assert "(3.0, 6.0)" in problems[0]
    # the upper bound is strict too
    problems = validate_instance(ThreePartitionInstance(1, 12, (6, 2, 4)))
    assert any("size 6 at position 1" in p for p in problems)


def test_validate_instance_shape():
    assert any("3m" in p for p in validate_instance(ThreePartitionInstance(2, 12, (4, 4, 4))))
    assert any("sum" in p for p in validate_instance(ThreePartitionInstance(1, 12, (4, 4, 5))))
    assert any("m must" in p for p in validate_instance(ThreePartitionInstance(0, 12, ())))
    assert any("target must" in p for p in validate_instance(ThreePartitionInstance(1, 0, (1, 1, 1))))


def test_solve_3partition():
    assert solve_3partition(GOOD) == ((0, 1, 2),)
    assert solve_3partition(TWO) == ((0, 1, 2), (3, 4, 5))
    # the first triple anchors at index 0 and takes the least partners
    inst = ThreePartitionInstance(2, 16, (5, 6, 5, 5, 5, 6))
    assert solve_3partition(inst) == ((0, 1, 2), (3, 4, 5))
    assert solve_3partition(ThreePartitionInstance(2, 16, (5, 5, 5, 5, 5, 7))) is None
    with pytest.raises(ValueError):
        solve_3partition(ThreePartitionInstance(2, 16, (5, 5, 6)))
    # the first triple (0, 1, 5) leaves 4, 4, 4, 6, 6, 6, which no split into triples sums to 15
    inst = ThreePartitionInstance(3, 15, (5, 5, 4, 4, 4, 5, 6, 6, 6))
    assert solve_3partition(inst) == brute_force_3partition(inst) == ((0, 2, 6), (1, 3, 7), (4, 5, 8))
    # sizes that do not sum to m * target have no partition
    assert solve_3partition(ThreePartitionInstance(2, 16, (5, 5, 5, 5, 5, 5))) is None


def test_solve_3partition_matches_brute_force():
    rng = random.Random(16)
    m3 = [inst for inst in all_valid_instances(3, 18) if inst.m == 3]
    m4 = [inst for inst in all_valid_instances(4, 14) if inst.m == 4]
    backtracked = solvable = 0
    for inst in rng.sample(m3, 200) + rng.sample(m4, 200):
        expected = brute_force_3partition(inst)
        assert solve_3partition(inst) == expected, inst
        solvable += expected is not None
        # The first triple the search tries: index 0 with its least partners.
        first = next(
            ((0, p, q) for p, q in itertools.combinations(range(1, 3 * inst.m), 2)
             if inst.sizes[0] + inst.sizes[p] + inst.sizes[q] == inst.target),
            None,
        )
        # When it is not in the answer, the search has undone it.
        backtracked += first is not None and (expected is None or expected[0] != first)
    # Both answers occur, and the search backtracks on some instances.
    assert 0 < solvable < 400 and backtracked > 5, (solvable, backtracked)


def test_solve_3partition_does_not_recurse_per_triple():
    m = 2_000
    inst = ThreePartitionInstance(m, 15, (5,) * (3 * m))
    with recursion_limit(100):
        partition = solve_3partition(inst)
    assert partition == tuple((i, i + 1, i + 2) for i in range(0, 3 * m, 3))


def test_canonical_partition():
    assert canonical_partition([(5, 3, 4), (2, 0, 1)]) == ((0, 1, 2), (3, 4, 5))
    with pytest.raises(ValueError):
        canonical_partition([(0, 0, 1)])


def test_build_reduction_types():
    out = build_reduction(GOOD)
    grammar, word = out
    assert out.word == word == ("v", "w1", "w2", "w3")
    assert out.grammar.start == grammar.start == "a"
    v = grammar.lexicon["v"]
    assert len(v) == 1
    assert v[0] == parse_formula(
        "a/(b1 -o b1 -o b1 -o c1 -o c1 -o c1 -o c1 -o c1 -o c1 -o c1 -o c1 -o c1 -o c1 -o c1 -o c1 -o d)"
    )
    assert grammar.lexicon["w1"] == (parse_formula("d/c1/c1/c1/c1/b1/d"),)
    # the last token has no trailing /d
    assert grammar.lexicon["w3"] == (parse_formula("d/c1/c1/c1/c1/b1"),)


def test_build_reduction_slot_choice():
    grammar, _ = build_reduction(TWO)
    # one type per slot, in slot order
    assert grammar.lexicon["w1"] == (
        parse_formula("d/c1/c1/c1/c1/c1/b1/d"),
        parse_formula("d/c2/c2/c2/c2/c2/b2/d"),
    )
    assert len(grammar.lexicon["w6"]) == 2
    assert all(len(grammar.lexicon[f"w{i}"]) == 2 for i in range(1, 7))


def _random_instance(rng: random.Random, m: int) -> ThreePartitionInstance:
    """A valid instance with ``m`` triples and a target of 13 to 24."""
    target = rng.randint(13, 24)
    low, high = target // 4 + 1, (target - 1) // 2
    while True:
        sizes = [rng.randint(low, high) for _ in range(3 * m - 1)]
        last = m * target - sum(sizes)
        if low <= last <= high:
            return ThreePartitionInstance(m, target, (*sizes, last))


def test_shared_rows_and_per_file_parsing_change_no_grammar():
    rng = random.Random(20)
    instances = [*all_valid_instances(2, 16), *(_random_instance(rng, rng.randint(3, 5)) for _ in range(50))]
    for inst in instances:
        n = 3 * inst.m
        # The grammar built type by type
        lexicon = {"v": (_v_type(inst),)}
        for i in range(1, n + 1):
            lexicon[f"w{i}"] = tuple(_w_type(inst, i, j) for j in range(1, inst.m + 1))
        expected = Grammar("a", lexicon)
        grammar, word = build_reduction(inst)
        assert grammar == expected, inst
        assert list(grammar.lexicon) == list(expected.lexicon) == list(word)
        assert grammar_from_text(grammar_to_text(expected)) == expected, inst


def test_grammar_text_formats_each_row_as_before():
    # grammar_to_text formats each distinct formula once; the text must
    # stay byte for byte what formatting every entry gives, on every
    # grammar of a seeded reduction round (every instance with m <= 2 and
    # N <= 16, seeded m = 3 and 4 ones, and one with m = 5) and on anbncn.
    rng = random.Random(1)
    instances = [*all_valid_instances(2, 16), *(_random_instance(rng, m) for m in (3, 3, 4, 4, 5))]
    grammars = [build_reduction(inst)[0] for inst in instances] + [anbncn_grammar()]
    for g in grammars:
        lines = [f"start: {g.start}"]
        lines += [f"{t}: " + " | ".join(format_formula(f) for f in entry) for t, entry in g.lexicon.items()]
        assert grammar_to_text(g) == "\n".join(lines) + "\n"


def test_build_reduction_rejects_bad_instance():
    with pytest.raises(ValueError):
        build_reduction(ThreePartitionInstance(1, 12, (3, 4, 5)))


def test_partition_assignment_round_trip():
    part = solve_3partition(TWO)
    assignment = partition_to_assignment(TWO, part)
    s = Sequent(assignment, Atom("a"))
    assert oracle_balanced(s)
    assert prove(s, CalculusMode.SDL)[0] is not None
    assert assignment_to_partition(TWO, assignment) == part


def test_partition_to_assignment_rejects():
    with pytest.raises(ValueError, match="sum"):
        partition_to_assignment(TWO, ((0, 1, 3), (2, 4, 5)))
    with pytest.raises(ValueError, match="two triples"):
        partition_to_assignment(TWO, ((0, 1, 2), (0, 4, 5)))
    with pytest.raises(ValueError, match="cover"):
        partition_to_assignment(TWO, ((0, 1, 2),))


def test_assignment_to_partition_rejects():
    part = solve_3partition(TWO)
    assignment = list(partition_to_assignment(TWO, part))
    with pytest.raises(AssignmentDecodeError, match="'v'"):
        assignment_to_partition(TWO, tuple(assignment[1:] + assignment[:1]))
    # push every item into slot 1: shape is fine, balance is not
    grammar, _ = build_reduction(TWO)
    skewed = (grammar.lexicon["v"][0],) + tuple(grammar.lexicon[f"w{i}"][0] for i in range(1, 7))
    with pytest.raises(AssignmentDecodeError, match="slot"):
        assignment_to_partition(TWO, skewed)
    with pytest.raises(AssignmentDecodeError, match="expected"):
        assignment_to_partition(TWO, (Atom("d"),))
    with pytest.raises(AssignmentDecodeError, match="'w2'"):
        assignment_to_partition(TWO, tuple(assignment[:2] + [Atom("d")] + assignment[3:]))
    # three items per slot, but 5 + 5 + 5 and 6 + 6 + 5 miss 16
    unequal = (grammar.lexicon["v"][0],) + tuple(grammar.lexicon[f"w{i}"][i in (3, 5, 6)] for i in range(1, 7))
    with pytest.raises(AssignmentDecodeError, match="slot 1 sizes"):
        assignment_to_partition(TWO, unequal)


def _instance_from_triples(rng: random.Random, m: int) -> tuple[ThreePartitionInstance, tuple]:
    """A valid instance with ``m`` triples and a target of 13 to 30, and its partition.

    The triples are drawn first and their items shuffled into place, so
    no search is needed to know a partition.
    """
    target = rng.randint(13, 30)
    low, high = target // 4 + 1, (target - 1) // 2
    triples = []
    while len(triples) < m:
        x, y = rng.randint(low, high), rng.randint(low, high)
        if low <= target - x - y <= high:
            triples.append((x, y, target - x - y))
    places = rng.sample(range(3 * m), 3 * m)
    sizes = [0] * (3 * m)
    for k, triple in enumerate(triples):
        for i, size in zip(places[3 * k : 3 * k + 3], triple):
            sizes[i] = size
    partition = canonical_partition(places[3 * k : 3 * k + 3] for k in range(m))
    return ThreePartitionInstance(m, target, tuple(sizes)), partition


def test_paper_witness_proof_replays_and_decodes():
    # The paper's direction "a 3-partition gives a derivation", with no
    # search: the witness proof built from a partition replays in sdl and
    # sdl-, not in l, which has no -oR, and derives exactly the assignment
    # that the partition encodes, which decodes back to it.  Instances
    # drawn from their triples reach m = 8, where the search gives up.
    rng = random.Random(26)
    cases = [(inst, brute_force_3partition(inst)) for inst in all_valid_instances(2, 16)]
    cases = [case for case in cases if case[1] is not None]
    cases += [_instance_from_triples(rng, m) for m in range(1, 9) for _ in range(4)]
    for inst, partition in cases:
        assert validate_instance(inst) == []
        tree = reduction_proof(inst, partition)
        assert check_proof(tree, CalculusMode.SDL) and check_proof(tree, CalculusMode.SDL_MINUS), inst
        assert not check_proof(tree, CalculusMode.L), inst
        assert tree.conclusion == Sequent(partition_to_assignment(inst, partition), Atom("a")), inst
        assert assignment_to_partition(inst, tree.conclusion.antecedent) == partition, inst
    assert len(cases) == 598 + 32


def test_membership_matches_solvability():
    for inst, solvable in [
        (GOOD, True),
        (TWO, True),
        (ThreePartitionInstance(2, 16, (5, 5, 5, 5, 5, 7)), False),
    ]:
        grammar, word = build_reduction(inst)
        r = recognize(grammar, word, CalculusMode.SDL)
        assert not r.budget_exhausted
        assert r.member is solvable
        assert (solve_3partition(inst) is not None) is solvable
        if solvable:
            assert assignment_to_partition(inst, r.assignment)


def test_count_filter_decides_small_instances():
    # On the reduction, count balance alone decides the instance: some
    # assignment survives the count filter exactly when a partition exists.
    instances = solvable = 0
    for inst in all_valid_instances(2, 16):
        grammar, word = build_reduction(inst)
        survivors = _balanced_assignments(_entries(grammar, word), {grammar.start: 1}, [0])
        survives = next(survivors, None) is not None
        assert survives is (solve_3partition(inst) is not None), inst
        instances += 1
        solvable += survives
    assert (instances, solvable) == (630, 598)


def test_unsolvable_instances_cost_no_search():
    inst = ThreePartitionInstance(2, 16, (5, 5, 5, 5, 5, 7))
    grammar, word = build_reduction(inst)
    r = recognize(grammar, word, CalculusMode.SDL)
    # every assignment is unbalanced, so the prover never runs
    assert r.stats.nodes_expanded == 0
    assert r.stats.pruned_by_count == 2 ** 6


def test_count_filter_alone_refutes_the_m5_instance():
    # 7 + 5 + 5 > 16, so no triple holds the 7 and no assignment balances.
    # Tables grown from both ends refute it before any prefix is walked,
    # within a fraction of the 136 MiB that tables grown from the end
    # alone took.
    inst = ThreePartitionInstance(5, 16, (7, 5, 5, 5, 5, 6, 5, 6, 6, 5, 5, 5, 5, 5, 5))
    grammar, word = build_reduction(inst)
    tracemalloc.start()
    try:
        r = recognize(grammar, word, CalculusMode.SDL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not r.member and not r.budget_exhausted
    assert r.stats.nodes_expanded == 0
    assert r.stats.pruned_by_count == 5 ** 15
    assert peak < 32 * 2 ** 20


def test_recognizing_reductions_leaves_no_formulas_behind():
    # Nothing in the count filter or the search outlives a query, so the
    # reductions' formulas leave the intern table once the caller drops them.
    gc.collect()
    size = len(_nodes)
    more = [ThreePartitionInstance(1, 24, (7, 8, 9)), ThreePartitionInstance(2, 20, (6, 7, 7, 6, 7, 7))]
    for inst in [GOOD, TWO, *more]:
        grammar, word = build_reduction(inst)
        assert recognize(grammar, word, CalculusMode.SDL).member
        del grammar, word
        gc.collect()
        assert len(_nodes) == size, inst


def test_instance_json_round_trip():
    text = instance_to_json(TWO)
    assert json.loads(text) == {"m": 2, "N": 16, "sizes": [5, 5, 6, 5, 6, 5]}
    assert instance_from_json(text) == TWO


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"m": 1, "N": 12}',
        '{"m": 1, "N": 12, "sizes": [4, 4, 4], "extra": 0}',
        '{"m": 1.5, "N": 12, "sizes": [4, 4, 4]}',
        '{"m": true, "N": 12, "sizes": [4, 4, 4]}',
        '{"m": 1, "N": 12, "sizes": "444"}',
        '{"m": 1, "N": 12, "sizes": [4, "4", 4]}',
    ],
)
def test_instance_json_rejects(text):
    with pytest.raises(ValueError):
        instance_from_json(text)
