from __future__ import annotations

import copy
import gc
import json
import pickle
import random
import tracemalloc

import pytest

from helpers import (
    chain_sequent,
    forward_proof,
    mutate_proof,
    naive_check,
    oracle_conclusions,
    recursion_limit,
    reference_repr,
    relabel_proof,
)
from lambek import (
    Atom,
    CalculusMode,
    LinImp,
    Over,
    ProofTree,
    Rule,
    Sequent,
    Under,
    check_proof,
    enumerate_proofs,
    format_sequent,
    parse_sequent,
    proof_from_json,
    proof_from_json_text,
    proof_to_json,
    proof_to_json_text,
    prove,
    render_proof,
)
from lambek import prooftree

L, SDL, SDLM = CalculusMode.L, CalculusMode.SDL, CalculusMode.SDL_MINUS

a, b = Atom("a"), Atom("b")
AX_A = ProofTree(Rule.AX, Sequent((a,), a))
AX_B = ProofTree(Rule.AX, Sequent((b,), b))
AX = ProofTree(Rule.AX)  # an inner Ax node: its conclusion comes from its parent's


def test_axiom():
    assert check_proof(AX_A, L)
    assert check_proof(AX_A, SDLM)
    # axioms are primitive only
    bad = ProofTree(Rule.AX, Sequent((Over(a, b),), Over(a, b)))
    assert not check_proof(bad, SDL)
    assert not check_proof(ProofTree(Rule.AX, Sequent((a,), b)), SDL)


def test_over_left():
    concl = parse_sequent("a/b, b => a")
    good = ProofTree(Rule.OVER_L, concl, (AX, AX), split=(0, 1))
    assert check_proof(good, L)
    assert not check_proof(ProofTree(Rule.OVER_L, concl, (AX, AX), split=(1, 1)), L)
    # Premises that have conclusions are not taken, under a node with one
    # or without.
    for concl_, premises, split in [
        (concl, (AX_B, AX_A), (1, 1)),
        (concl, (AX_A, AX_B), (0, 1)),
        (None, (AX_B, AX), (0, 1)),
    ]:
        with pytest.raises(ValueError):
            ProofTree(Rule.OVER_L, concl_, premises, split=split)
    with pytest.raises(ValueError):
        ProofTree(Rule.OVER_L, concl, (AX, AX))


def test_under_left():
    concl = parse_sequent("b, b\\a => a")
    good = ProofTree(Rule.UNDER_L, concl, (AX, AX), split=(0, 1))
    assert check_proof(good, L)
    assert not check_proof(ProofTree(Rule.UNDER_L, concl, (AX, AX), split=(1, 1)), L)
    with pytest.raises(ValueError):
        ProofTree(Rule.UNDER_L, concl, (AX_A, AX_B), split=(0, 1))


def test_rule_data_only_on_their_rules():
    # A split belongs to /L and \\L, an insert to -oR; a node of any other
    # rule that carries one is not built, and its JSON does not load.
    tree, _ = prove(parse_sequent("s/c, b\\c => b -o s"), SDL)
    assert check_proof(tree, SDL) and naive_check(tree, SDL)
    data = proof_to_json(tree)
    assert [n["rule"] for n in data["nodes"]] == ["-oR", "/L", "\\L", "Ax", "Ax", "Ax"]
    for k, extra in [(1, {"insert": 3}), (2, {"insert": 0}), (0, {"split": [0, 1]}), (3, {"split": [0, 1]})]:
        nodes = [dict(n) for n in data["nodes"]]
        nodes[k].update(extra)
        with pytest.raises(ValueError):
            proof_from_json({"sequent": data["sequent"], "nodes": nodes})
    over_l = ProofTree(Rule.OVER_L, None, (AX, AX), split=(0, 1))
    concl = parse_sequent("a/b => a/b")
    assert check_proof(ProofTree(Rule.OVER_R, concl, (over_l,)), L)
    for data in ({"insert": 0}, {"split": (0, 1)}):
        with pytest.raises(ValueError):
            ProofTree(Rule.OVER_R, concl, (over_l,), **data)


@pytest.mark.parametrize(
    "rule,sequent,premises,data",
    [
        # Once a tree that checked but did not hash or round-trip, one that
        # checked but whose JSON did not load, and one that made check_proof raise.
        (Rule.OVER_L, "a/b, b => a", 2, {"split": [0, 1]}),
        (Rule.OVER_L, "a/b, b => a", 2, {"split": (False, True)}),
        (Rule.LINIMP_R, "a => b -o a", 1, {"insert": 1.0}),
        (Rule.AX, "a => a", 0, {"split": (0, 1)}),
        (Rule.AX, "a => a", 0, {"insert": 0}),
        (Rule.LINIMP_R, "a => b -o a", 1, {"insert": 1, "split": (0, 1)}),
        (Rule.OVER_R, "a/b => a/b", 1, {"split": (0, 1)}),
        (Rule.OVER_L, "a/b, b => a", 2, {"split": (0, 1), "insert": 0}),
        (Rule.UNDER_L, "b, b\\a => a", 2, {"insert": 0}),
        (Rule.OVER_L, "a/b, b => a", 2, {}),
        (Rule.UNDER_L, "b, b\\a => a", 2, {}),
        (Rule.LINIMP_R, "a => b -o a", 1, {}),
        (Rule.OVER_L, "a/b, b => a", 2, {"split": (0, 1, 2)}),
        (Rule.OVER_L, "a/b, b => a", 2, {"split": (0, True)}),
        (Rule.LINIMP_R, "a => b -o a", 1, {"insert": True}),
        (Rule.LINIMP_R, "a => b -o a", 1, {"insert": "1"}),
        (Rule.OVER_L, "a/b, b => a", 1, {"split": (0, 1)}),
        (Rule.AX, "a => a", 1, {}),
    ],
)
def test_misplaced_or_mistyped_rule_data_raise_where_the_tree_is_built(rule, sequent, premises, data):
    # Inner Ax premises, which the node takes as they are, so that only the shape check can raise.
    with pytest.raises(ValueError):
        ProofTree(rule, parse_sequent(sequent), (AX,) * premises, **data)


@pytest.mark.parametrize(
    "data",
    [
        # /L without a split and -oR without an insert or with a float one
        {"sequent": "a/b, b => a", "nodes": [{"rule": "/L"}, {"rule": "Ax"}, {"rule": "Ax"}]},
        {"sequent": "a => b -o a", "nodes": [{"rule": "-oR"}, {"rule": "Ax"}]},
        {"sequent": "a => b -o a", "nodes": [{"rule": "-oR", "insert": 1.0}, {"rule": "Ax"}]},
        {"sequent": "a => a", "nodes": [{"rule": "Ax", "insert": 0}]},
    ],
)
def test_json_rejects_nodes_without_their_rule_data(data):
    with pytest.raises(ValueError):
        proof_from_json(data)


def test_right_rules_respect_mode():
    s = parse_sequent("a/b => a/b")
    inner = ProofTree(Rule.OVER_L, None, (AX, AX), split=(0, 1))
    tree = ProofTree(Rule.OVER_R, s, (inner,))
    assert check_proof(tree, L)
    assert check_proof(tree, SDL)
    assert not check_proof(tree, SDLM)

    s2 = parse_sequent("b => b\\b -o b")
    inner2 = ProofTree(Rule.UNDER_L, None, (AX, AX), split=(0, 1))
    tree2 = ProofTree(Rule.LINIMP_R, s2, (inner2,), insert=1)
    assert check_proof(tree2, SDL)
    assert check_proof(tree2, SDLM)
    assert not check_proof(tree2, L)
    # A wrong insertion point: the \\L above it does not land on a \\.
    assert not check_proof(ProofTree(Rule.LINIMP_R, s2, (inner2,), insert=0), SDL)
    with pytest.raises(ValueError):
        ProofTree(Rule.LINIMP_R, s2, (inner2,))
    # /R and \R on a succedent of the other connective
    assert not check_proof(ProofTree(Rule.UNDER_R, s, (inner,)), L)
    s3 = parse_sequent("b\\a => b\\a")
    inner3 = ProofTree(Rule.UNDER_L, None, (AX, AX), split=(0, 1))
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
    # Mutants move rule data; relabelled trees, drawn from a stream of
    # their own, put each rule's connective in the rule table to the test.
    for mode in (L, SDL, SDLM):
        rng, relabel_rng = random.Random(21), random.Random(27)
        relabelled = 0
        for _ in range(400):
            t = forward_proof(rng, mode)
            assert naive_check(t, mode)
            assert check_proof(t, mode)
            r = relabel_proof(relabel_rng, t)
            if r is not None:
                relabelled += 1
                assert check_proof(r, mode) == naive_check(r, mode)
            m = mutate_proof(rng, t)
            if m is None:
                continue
            assert check_proof(m, mode) == naive_check(m, mode)
        assert relabelled > 300


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


def test_inner_ax_nodes_are_one_shared_leaf():
    # A proof is a DAG of immutable nodes: every inner Ax node of a tree
    # that the search, the JSON reader, a pickle or a copy builds is the
    # one shared leaf, and an Ax node that carries rule data is still
    # refused, whether built directly or read from JSON.
    leaf = prooftree._AX_LEAF
    rng = random.Random(28)
    trees = [prove(chain_sequent(300), SDL)[0]]
    for _ in range(60):
        s = forward_proof(rng, SDL).conclusion
        trees += [prove(s, SDL)[0], *enumerate_proofs(s, SDL, limit=4)]
    leaves = 0
    for t in trees:
        text = proof_to_json_text(t)
        for u in (t, proof_from_json(proof_to_json(t)), proof_from_json_text(text), pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
            assert u == t
            inner = [n for n in u.nodes()[1:] if n.rule is Rule.AX]
            assert all(n is leaf for n in inner)
            leaves += len(inner)
    assert leaves > 1_000
    for copied in (pickle.loads(pickle.dumps(leaf)), copy.copy(leaf), copy.deepcopy(leaf)):
        assert copied is leaf
    with pytest.raises(ValueError):
        ProofTree(Rule.AX, None, (), (0, 1))
    data = proof_to_json(prove(parse_sequent("a/b, b => a"), SDL)[0])
    for k, extra in [(1, {"split": [0, 1]}), (2, {"insert": 0})]:
        nodes = [dict(n) for n in data["nodes"]]
        nodes[k].update(extra)
        with pytest.raises(ValueError):
            proof_from_json({"sequent": data["sequent"], "nodes": nodes})


def test_json_round_trip():
    rng = random.Random(23)
    for _ in range(200):
        t = forward_proof(rng, SDL)
        assert proof_from_json(proof_to_json(t)) == t
        assert proof_from_json_text(proof_to_json_text(t)) == t
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
        {"sequent": "a =>", "nodes": [{"rule": "Ax"}]},
        {"sequent": "a => a", "nodes": [{"rule": "Ax", "split": [0]}]},
        {"sequent": "a/b, b => a", "nodes": [{"rule": "/L", "split": [0, 1]}]},
        {"sequent": "a => a"},
        {"nodes": [{"rule": "Ax"}]},
        # a node list that ends before the tree does, or goes on after it
        {"sequent": "a => a", "nodes": []},
        {"sequent": "a/b, b => a", "nodes": [{"rule": "/L", "split": [0, 1]}, {"rule": "Ax"}]},
        {"sequent": "a => a", "nodes": [{"rule": "Ax"}, {"rule": "Ax"}]},
        {"sequent": "a => a", "nodes": [{"rule": "Cut"}]},
        {"sequent": "a => a", "nodes": ["Ax"]},
        # a split that is not a list of two integers, an insert that is not an integer
        {"sequent": "a/b, b => a", "nodes": [{"rule": "/L", "split": [False, True]}, {"rule": "Ax"}, {"rule": "Ax"}]},
        {"sequent": "a/b, b => a", "nodes": [{"rule": "/L", "split": [0, 1, 7]}, {"rule": "Ax"}, {"rule": "Ax"}]},
        {"sequent": "a/b, b => a", "nodes": [{"rule": "/L", "split": [0, 1.0]}, {"rule": "Ax"}, {"rule": "Ax"}]},
        {"sequent": "a/b, b => a", "nodes": [{"rule": "/L", "split": "01"}, {"rule": "Ax"}, {"rule": "Ax"}]},
        {"sequent": "a/b, b => a", "nodes": [{"rule": "/L", "split": {"0": 1}}, {"rule": "Ax"}, {"rule": "Ax"}]},
        {"sequent": "a => b -o a", "nodes": [{"rule": "-oR", "insert": True}, {"rule": "Ax"}]},
        {"sequent": "a => b -o a", "nodes": [{"rule": "-oR", "insert": "1"}, {"rule": "Ax"}]},
        {"sequent": "a/b, b => a", "nodes": [{"rule": "/L", "split": [0, True]}, {"rule": "Ax"}, {"rule": "Ax"}]},
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


def _recursive_rows(node: ProofTree, conclusions, depth: int = 0):
    # ``conclusions`` yields each node's conclusion, or None, in preorder.
    c = next(conclusions)
    yield "  " * depth + ("?" if c is None else format_sequent(c)), node.rule.value
    for p in node.premises:
        yield from _recursive_rows(p, conclusions, depth + 1)


def _reference_render(tree: ProofTree) -> str:
    """The recursive walk that render_proof replaced."""
    rows = list(_recursive_rows(tree, (c for _, c in oracle_conclusions(tree))))
    width = max(len(text) for text, _ in rows) + 3
    return "\n".join(f"{text:<{width}}{rule:>4}" for text, rule in rows)


def test_render_proof_does_not_recurse_per_level():
    tree, _ = prove(chain_sequent(300), SDL)
    assert tree.depth() == 601
    expected = _reference_render(tree)
    with recursion_limit(50):
        text = render_proof(tree)
    assert text == expected


def test_render_proof_matches_reference():
    # Forward proofs, and mutants whose nodes below misplaced rule data
    # show as ``?``.
    rng = random.Random(26)
    unknown = 0
    for k in range(600):
        tree = forward_proof(rng, list(CalculusMode)[k % 3])
        assert render_proof(tree) == _reference_render(tree)
        mutant = mutate_proof(rng, tree)
        if mutant is not None:
            text = render_proof(mutant)
            assert text == _reference_render(mutant)
            unknown += "?" in text
    assert unknown > 100


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
    # Mutants move rule data, and their conclusions below the edit are
    # derived afresh: where the data do not fit, the tree is no proof,
    # and still round-trips exactly with the root's sequent alone.
    rng = random.Random(25)
    mutants = rejected = 0
    # Swapping two premises that are the same tree, such as two Ax nodes,
    # changes nothing, so many picks make no mutant.
    for _ in range(600):
        m = mutate_proof(rng, forward_proof(rng, SDL))
        if m is None:
            continue
        mutants += 1
        data = proof_to_json(m)
        assert _sequent_count(data) == 1
        assert proof_from_json(data) == m
        assert proof_from_json_text(proof_to_json_text(m)) == m
        if not naive_check(m, SDL):
            rejected += 1
            assert not check_proof(proof_from_json(data), SDL)
    assert mutants > 100 and rejected > 100


def test_json_refuses_a_sequent_on_every_node():
    # Files that give every node's conclusion, each the one the rule data
    # derive, do not load: only the root holds a sequent.
    rng = random.Random(26)
    for _ in range(200):
        t = forward_proof(rng, SDL)
        data = proof_to_json(t)
        assert proof_from_json(data) == t
        for node, (_, c) in zip(data["nodes"], oracle_conclusions(t)):
            node["sequent"] = format_sequent(c)
        with pytest.raises(ValueError):
            proof_from_json(data)


@pytest.mark.parametrize(
    "build",
    [
        # a node with its (right) sequent, with premises, with an unknown key
        lambda: proof_from_json({"sequent": "a/b, b => a", "nodes": [{"rule": "/L", "split": [0, 1]}, {"rule": "Ax", "sequent": "b => b"}, {"rule": "Ax"}]}),
        lambda: proof_from_json({"sequent": "a/b, b => a", "nodes": [{"rule": "/L", "split": [0, 1], "premises": []}, {"rule": "Ax"}, {"rule": "Ax"}]}),
        lambda: proof_from_json({"sequent": "a/b, b => a", "nodes": [{"rule": "/L", "split": [0, 1], "Split": [0, 1]}, {"rule": "Ax"}, {"rule": "Ax"}]}),
        # the nested form, and a top-level key other than sequent and nodes
        lambda: proof_from_json({"rule": "/L", "sequent": "a/b, b => a", "split": [0, 1], "premises": [{"rule": "Ax", "premises": []}, {"rule": "Ax", "premises": []}]}),
        lambda: proof_from_json({"sequent": "a => a", "nodes": [{"rule": "Ax"}], "mode": "sdl"}),
        # premises whose conclusions are the ones the rule data give
        lambda: ProofTree(Rule.OVER_L, parse_sequent("a/b, b => a"), (AX_B, AX_A), split=(0, 1)),
    ],
    ids=["node-sequent", "node-premises", "node-unknown-key", "nested", "top-level-key", "premise-conclusions"],
)
def test_only_the_root_holds_a_sequent(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize(
    "data",
    [
        # /L with an out-of-range split implies no premises
        {"sequent": "a/b, b => a", "nodes": [{"rule": "/L", "split": [1, 1]}, {"rule": "Ax"}, {"rule": "Ax"}]},
        # -oR on a succedent that is not a -o
        {"sequent": "a => a", "nodes": [{"rule": "-oR", "insert": 0}, {"rule": "Ax"}]},
        # /R and \R on a succedent of the other connective
        {"sequent": "a => b\\a", "nodes": [{"rule": "/R"}, {"rule": "Ax"}]},
        {"sequent": "a => a/b", "nodes": [{"rule": "\\R"}, {"rule": "Ax"}]},
    ],
)
def test_json_loads_rule_data_that_do_not_apply(data):
    # Such a file is a tree, but no proof: its nodes below the misplaced
    # data have no conclusion, and it fails check_proof in every mode.
    tree = proof_from_json(data)
    assert [c is None for _, c in tree.conclusions()] == [False] + [True] * (len(tree.nodes()) - 1)
    assert not any(check_proof(tree, mode) for mode in CalculusMode)
    assert proof_from_json(proof_to_json(tree)) == tree
    assert render_proof(tree).splitlines()[1].lstrip().startswith("?")


def test_repr_pickle_and_copy_do_not_recurse_per_level():
    f = a
    for i in range(20_000):
        f = (Over(f, b), Under(b, f), LinImp(b, f))[i % 3]
    # Only the root holds a sequent, but the chain's proof is 2n + 1
    # levels deep: n = 100 is already 200 levels deep.
    short, _ = prove(chain_sequent(100), SDL)
    long, _ = prove(chain_sequent(2500), SDL)
    rng = random.Random(41)
    small = [forward_proof(rng, SDL) for _ in range(50)]
    with recursion_limit(100_000):
        expected = [reference_repr(x) for x in (f, short, *small)]
    with recursion_limit(100):
        assert [repr(x) for x in (f, short, *small)] == expected
        for x in (f, long, *small):
            for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
                assert y == x


def test_chain_proof_json_is_linear():
    tree, _ = prove(chain_sequent(200), SDL)
    text = proof_to_json_text(tree)
    assert len(text) < 100 * len(tree.nodes())
    assert proof_from_json_text(text) == tree

    tree, _ = prove(chain_sequent(1000), SDL)
    back = proof_from_json_text(proof_to_json_text(tree))
    assert back == tree
    assert check_proof(back, SDL)


def _traced_proof_size(n: int) -> int:
    """Bytes that the proof of the chain of length n holds, under tracemalloc."""
    s = chain_sequent(n)
    gc.collect()
    tracemalloc.start()
    try:
        tree, _ = prove(s, SDL)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_chain_proof_memory_is_linear():
    # Only the root holds a sequent, so the chain's proof of 3n + 1 nodes
    # takes O(n) memory; a sequent on every node would take O(n^2).
    small, large = _traced_proof_size(1000), _traced_proof_size(4000)
    assert large <= 5 * small, (small, large)


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


def test_deep_chain_json_round_trips_without_recursion():
    tree, _ = prove(chain_sequent(4000), SDL)
    with recursion_limit(100):
        text = proof_to_json_text(tree)
        back = proof_from_json_text(text)
    assert back == tree
    assert len(text) < 100 * len(tree.nodes())
