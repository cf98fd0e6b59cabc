from __future__ import annotations

import json
import random

import pytest

from helpers import chain_sequent, forward_proof, mutate_proof, naive_check, nested_proof_json, recursion_limit
from lambek import (
    Atom,
    CalculusMode,
    Over,
    ProofTree,
    Rule,
    Sequent,
    Under,
    check_proof,
    format_sequent,
    parse_sequent,
    proof_from_json,
    proof_from_json_text,
    proof_to_json,
    proof_to_json_text,
    prove,
    render_proof,
)

L, SDL, SDLM = CalculusMode.L, CalculusMode.SDL, CalculusMode.SDL_MINUS

a, b = Atom("a"), Atom("b")
AX_A = ProofTree(Rule.AX, Sequent((a,), a))
AX_B = ProofTree(Rule.AX, Sequent((b,), b))


def test_axiom():
    assert check_proof(AX_A, L)
    assert check_proof(AX_A, SDLM)
    # axioms are primitive only
    bad = ProofTree(Rule.AX, Sequent((Over(a, b),), Over(a, b)))
    assert not check_proof(bad, SDL)
    assert not check_proof(ProofTree(Rule.AX, Sequent((a,), b)), SDL)


def test_over_left():
    concl = parse_sequent("a/b, b => a")
    good = ProofTree(Rule.OVER_L, concl, (AX_B, AX_A), split=(0, 1))
    assert check_proof(good, L)
    assert not check_proof(ProofTree(Rule.OVER_L, concl, (AX_B, AX_A), split=(1, 1)), L)
    assert not check_proof(ProofTree(Rule.OVER_L, concl, (AX_A, AX_B), split=(0, 1)), L)
    assert not check_proof(ProofTree(Rule.OVER_L, concl, (AX_B, AX_A)), L)


def test_under_left():
    concl = parse_sequent("b, b\\a => a")
    good = ProofTree(Rule.UNDER_L, concl, (AX_B, AX_A), split=(0, 1))
    assert check_proof(good, L)
    assert not check_proof(ProofTree(Rule.UNDER_L, concl, (AX_A, AX_B), split=(0, 1)), L)


def test_right_rules_respect_mode():
    s = parse_sequent("a/b => a/b")
    inner = ProofTree(
        Rule.OVER_L, parse_sequent("a/b, b => a"), (AX_B, AX_A), split=(0, 1)
    )
    tree = ProofTree(Rule.OVER_R, s, (inner,))
    assert check_proof(tree, L)
    assert check_proof(tree, SDL)
    assert not check_proof(tree, SDLM)

    s2 = parse_sequent("b => b\\b -o b")
    inner2 = ProofTree(
        Rule.UNDER_L, parse_sequent("b, b\\b => b"), (AX_B, AX_B), split=(0, 1)
    )
    tree2 = ProofTree(Rule.LINIMP_R, s2, (inner2,), insert=1)
    assert check_proof(tree2, SDL)
    assert check_proof(tree2, SDLM)
    assert not check_proof(tree2, L)
    # wrong insertion point
    assert not check_proof(ProofTree(Rule.LINIMP_R, s2, (inner2,), insert=0), SDL)
    assert not check_proof(ProofTree(Rule.LINIMP_R, s2, (inner2,)), SDL)
    # /R and \R on a succedent of the other connective
    assert not check_proof(ProofTree(Rule.UNDER_R, s, (inner,)), L)
    s3 = parse_sequent("b\\a => b\\a")
    inner3 = ProofTree(Rule.UNDER_L, parse_sequent("b, b\\a => a"), (AX_B, AX_A), split=(0, 1))
    assert check_proof(ProofTree(Rule.UNDER_R, s3, (inner3,)), L)
    assert not check_proof(ProofTree(Rule.OVER_R, s3, (inner3,)), L)


def test_prover_output_always_checks():
    for text, mode in [
        ("a/b, b/c, c => a", L),
        ("s/c, b\\c => b -o s", SDL),
        ("s/c, b\\c => b -o s", SDLM),
        ("x/c/b => b -o (x/c)", SDL),
    ]:
        tree, _ = prove(parse_sequent(text), mode)
        assert tree is not None
        assert check_proof(tree, mode)


def test_checker_agrees_with_naive_replay():
    rng = random.Random(21)
    for _ in range(400):
        t = forward_proof(rng, SDL)
        assert naive_check(t, SDL)
        assert check_proof(t, SDL)
        m = mutate_proof(rng, t)
        if m is None:
            continue
        assert check_proof(m, SDL) == naive_check(m, SDL)


def test_mode_restriction_on_whole_tree():
    rng = random.Random(22)
    seen_l_reject = 0
    for _ in range(200):
        t = forward_proof(rng, SDL)
        uses_linimp = any(n.rule is Rule.LINIMP_R for n in t.nodes())
        if uses_linimp:
            assert not check_proof(t, L)
            seen_l_reject += 1
        else:
            assert check_proof(t, L)
    assert seen_l_reject > 10


def test_json_round_trip():
    rng = random.Random(23)
    for _ in range(200):
        t = forward_proof(rng, SDL)
        assert proof_from_json(proof_to_json(t)) == t
        text = proof_to_json_text(t)
        assert proof_from_json_text(text) == t
        # The flat node list is never longer than the nested form.
        assert len(text) <= len(json.dumps(nested_proof_json(t), separators=(",", ":")))
    payload = json.loads(proof_to_json_text(AX_A))
    assert payload == {"sequent": "a => a", "nodes": [{"rule": "Ax"}]}


def test_json_carries_rule_data():
    tree, _ = prove(parse_sequent("s/c, b\\c => b -o s"), SDL)
    data = proof_to_json(tree)
    assert data["sequent"] == "s/c, b\\c => b -o s"
    assert data["nodes"][0] == {"rule": "-oR", "insert": 1}
    assert data["nodes"][1] == {"rule": "/L", "split": [0, 2]}
    assert proof_from_json(data) == tree


@pytest.mark.parametrize(
    "data",
    [
        {},
        {"rule": "Cut", "sequent": "a => a", "premises": []},
        {"rule": "Ax", "sequent": "a =>", "premises": []},
        {"rule": "Ax", "sequent": "a => a", "premises": [], "split": [0]},
        {"rule": "/L", "sequent": "a/b, b => a", "premises": []},
        {"sequent": "a => a"},
        {"nodes": [{"rule": "Ax"}]},
        # a node list that ends before the tree does, or goes on after it
        {"sequent": "a => a", "nodes": []},
        {"sequent": "a/b, b => a", "nodes": [{"rule": "/L", "split": [0, 1]}, {"rule": "Ax"}]},
        {"sequent": "a => a", "nodes": [{"rule": "Ax"}, {"rule": "Ax"}]},
        {"sequent": "a => a", "nodes": [{"rule": "Cut"}]},
        {"sequent": "a => a", "nodes": ["Ax"]},
    ],
)
def test_json_rejects_malformed(data):
    with pytest.raises(ValueError):
        proof_from_json(data)


def test_render_proof():
    tree, _ = prove(parse_sequent("a/b, b => a"), L)
    text = render_proof(tree)
    lines = text.splitlines()
    assert lines[0].startswith("a/b, b => a")
    assert lines[0].rstrip().endswith("/L")
    assert lines[1].startswith("  ")
    assert all(len(line.rstrip()) <= len(lines[0]) for line in lines)
    assert {line.split()[-1] for line in lines} == {"/L", "Ax"}


def _recursive_rows(node: ProofTree, depth: int = 0):
    yield "  " * depth + format_sequent(node.conclusion), node.rule.value
    for p in node.premises:
        yield from _recursive_rows(p, depth + 1)


def test_render_proof_does_not_recurse_per_level():
    tree, _ = prove(chain_sequent(300), SDL)
    assert tree.depth() == 601
    # The recursive walk that render_proof replaced, as the reference.
    rows = list(_recursive_rows(tree))
    width = max(len(text) for text, _ in rows) + 3
    expected = "\n".join(f"{text:<{width}}{rule:>4}" for text, rule in rows)
    with recursion_limit(50):
        text = render_proof(tree)
    assert text == expected


def test_nodes_and_counts():
    tree, _ = prove(parse_sequent("a/b, b/c, c => a"), L)
    rules = [n.rule for n in tree.nodes()]
    assert rules.count(Rule.OVER_L) == 2
    assert rules.count(Rule.AX) == 3
    assert tree.rule_count(Rule.OVER_L) == 2
    assert tree.depth() == 3


def _sequent_count(data: dict) -> int:
    return sum("sequent" in node for node in [data, *data["nodes"]])


def test_json_of_a_correct_proof_has_one_sequent():
    rng = random.Random(24)
    for _ in range(200):
        t = forward_proof(rng, SDL)
        assert _sequent_count(proof_to_json(t)) == 1


def test_json_round_trips_rule_inconsistent_trees():
    rng = random.Random(25)
    mutants = 0
    for _ in range(400):
        m = mutate_proof(rng, forward_proof(rng, SDL))
        if m is None:
            continue
        mutants += 1
        data = proof_to_json(m)
        assert proof_from_json(data) == m
        assert proof_from_json_text(proof_to_json_text(m)) == m
        assert proof_from_json(nested_proof_json(m)) == m
        if not naive_check(m, SDL):
            assert _sequent_count(data) > 1
    assert mutants > 100


def test_json_loads_a_sequent_on_every_node():
    rng = random.Random(26)
    for _ in range(200):
        t = forward_proof(rng, SDL)
        assert proof_from_json(nested_proof_json(t, every_sequent=True)) == t
        m = mutate_proof(rng, t)
        if m is not None:
            assert proof_from_json(nested_proof_json(m, every_sequent=True)) == m


@pytest.mark.parametrize(
    "data",
    [
        {"rule": "Ax", "premises": []},
        # /L with an out-of-range split implies no premises
        {
            "rule": "/L",
            "sequent": "a/b, b => a",
            "split": [1, 1],
            "premises": [{"rule": "Ax", "premises": []}, {"rule": "Ax", "premises": []}],
        },
        # -oR on a succedent that is not a -o
        {"rule": "-oR", "sequent": "a => a", "insert": 0, "premises": [{"rule": "Ax", "premises": []}]},
        # /L whose split does not land on a /
        {
            "rule": "/L",
            "sequent": "b, b\\a => a",
            "split": [0, 1],
            "premises": [{"rule": "Ax", "premises": []}, {"rule": "Ax", "sequent": "a => a", "premises": []}],
        },
        # /R and \R on a succedent of the other connective
        {"rule": "/R", "sequent": "a => b\\a", "premises": [{"rule": "Ax", "premises": []}]},
        {"rule": "\\R", "sequent": "a => a/b", "premises": [{"rule": "Ax", "premises": []}]},
        # the same in the flat form
        {"sequent": "a/b, b => a", "nodes": [{"rule": "/L", "split": [1, 1]}, {"rule": "Ax"}, {"rule": "Ax"}]},
        {"sequent": "a => a", "nodes": [{"rule": "-oR", "insert": 0}, {"rule": "Ax"}]},
    ],
)
def test_json_rejects_missing_sequents(data):
    with pytest.raises(ValueError):
        proof_from_json(data)


def test_chain_proof_json_is_linear():
    tree, _ = prove(chain_sequent(200), SDL)
    text = proof_to_json_text(tree)
    assert len(text) < 100 * len(tree.nodes())
    assert proof_from_json_text(text) == tree

    tree, _ = prove(chain_sequent(1000), SDL)
    back = proof_from_json_text(proof_to_json_text(tree))
    assert back == tree
    assert check_proof(back, SDL)


def test_deep_proof_walks():
    tree, _ = prove(chain_sequent(3000), SDL)
    assert tree.depth() == 6001
    assert tree.rule_count(Rule.LINIMP_R) == 3000
    assert tree.rule_count(Rule.OVER_L) == 3000
    assert tree.rule_count(Rule.AX) == 3001
    assert len(tree.nodes()) == 9001
    assert check_proof(tree, SDL)
    # Equality and hashing walk the tree without recursion.
    data = proof_to_json(tree)
    copy = proof_from_json(data)
    assert copy is not tree and copy == tree and hash(copy) == hash(tree)
    data["nodes"][-1]["sequent"] = "c => c"
    assert proof_from_json(data) != tree
    # The nested form loads at any depth.
    with recursion_limit(100):
        assert proof_from_json(nested_proof_json(tree)) == tree


def test_deep_chain_json_round_trips_without_recursion():
    tree, _ = prove(chain_sequent(4000), SDL)
    with recursion_limit(100):
        text = proof_to_json_text(tree)
        back = proof_from_json_text(text)
    assert back == tree
    assert len(text) < 100 * len(tree.nodes())
