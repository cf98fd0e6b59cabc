from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from helpers import (
    ATOMS,
    brute_force_splits,
    chain_sequent,
    forward_proof,
    mirror_sequent,
    naive_derivable,
    oracle_balanced,
    oracle_conclusions,
    oracle_counts,
    oracle_premise_conclusions,
    pending_bag_sequent,
    random_formula,
    random_sequent,
    recursion_limit,
    reference_violations,
    rename_sequent,
    shuffled_sequent,
    swap_or_flip,
    zero_linimp_sequent,
)
from lambek import (
    Atom,
    BudgetExceededError,
    CalculusMode,
    LinImp,
    Over,
    ProofTree,
    Rule,
    Sequent,
    Under,
    check_proof,
    connective_count,
    enumerate_proofs,
    format_formula,
    format_sequent,
    parse_formula,
    parse_sequent,
    polarity_report,
    proof_to_json_text,
    prove,
    validate_input,
)
from lambek import prover, syntax

L, SDL, SDLM = CalculusMode.L, CalculusMode.SDL, CalculusMode.SDL_MINUS


def derivable(text: str, mode: CalculusMode) -> bool:
    tree, _ = prove(parse_sequent(text), mode)
    return tree is not None


@pytest.mark.parametrize(
    "text",
    [
        "a => a",
        "a/b, b => a",
        "b, b\\a => a",
        "a/b, b/c => a/c",
        "a/b, b/c, c => a",
        "b => a/(b\\a)",
        "b\\a => b\\a",
        "np, (np\\s)/np, np => s",
    ],
)
def test_l_derivable(text):
    assert derivable(text, L)
    assert derivable(text, SDL)


@pytest.mark.parametrize(
    "text",
    [
        "a => b",
        "a/b => a",
        "b, a/b => a",
        "a/b, c => a",
        "a => a/a",
        "a/b, b, c => a",
        "a/(b/c) => a/b/c",
        # balanced but the functor argument has nothing to consume
        "a/(b/b) => a",
    ],
)
def test_l_underivable(text):
    assert not derivable(text, L)
    assert not derivable(text, SDL)


def test_semidirectional_example():
    # the hypothetical b can be discharged from the middle of the
    # antecedent, which no directional right rule allows
    s = parse_sequent("s/c, b\\c => b -o s")
    tree, _ = prove(s, SDL)
    assert tree is not None
    assert tree.rule is Rule.LINIMP_R
    assert tree.insert == 1
    assert check_proof(tree, SDL)
    assert not derivable("s/c, b\\c => b -o s", L)
    assert derivable("s/c, b\\c => b -o s", SDLM)


def test_linimp_right_edges():
    # the stripped hypothesis can feed a later /R only after the search
    # commits it to a concrete position
    assert derivable("x/c/b => b -o (x/c)", SDL)
    assert not derivable("x/c/b => b -o (x/c)", L)
    assert not derivable("x/c/b => b -o (x/c)", SDLM)
    assert not derivable("a => a -o a", SDL)


def test_under_right_after_linimp_right():
    # the mirror image of the /R case above: the stripped b must be
    # committed to the left end before \R can take it
    s = parse_sequent("b\\c\\x => b -o c\\x")
    tree, _ = prove(s, SDL)
    assert tree is not None and check_proof(tree, SDL)
    assert [t.rule for t in tree.nodes()][:2] == [Rule.LINIMP_R, Rule.UNDER_R]
    assert not derivable("b\\c\\x => b -o c\\x", L)
    assert not derivable("b\\c\\x => b -o c\\x", SDLM)


def test_sdl_minus_drops_directional_right_rules():
    assert derivable("a/b => a/b", L)
    assert not derivable("a/b => a/b", SDLM)
    assert not derivable("b => a/(b\\a)", SDLM)
    # left rules and -oR still present
    assert derivable("a/b, b => a", SDLM)
    assert derivable("s/c => c -o s", SDLM)
    assert derivable("s/c/b => b -o (c -o s)", SDLM)


def test_count_pruning_shows_in_stats():
    tree, stats = prove(parse_sequent("x => y"), SDL)
    assert tree is None
    assert stats.nodes_expanded == 0
    assert stats.pruned_by_count >= 1


def test_polarity_pruning():
    # -o in the antecedent has no left rule in any mode
    tree, stats = prove(parse_sequent("a -o b => b"), SDL)
    assert tree is None
    assert stats.nodes_expanded == 0
    tree, _ = prove(parse_sequent("a, a -o b => b"), SDL)
    assert tree is None


def test_validate_input():
    s = parse_sequent("s/c, b\\c => b -o s")
    kinds = [v.kind for v in validate_input(s, L)]
    assert kinds == ["linimp-in-l"]
    assert validate_input(s, SDL) == []
    neg = parse_sequent("a -o b => b")
    kinds = [v.kind for v in validate_input(neg, SDL)]
    assert kinds == ["negative-linimp"]
    assert all(v.message for v in validate_input(neg, SDL))


def test_validate_input_matches_reference():
    rng = random.Random(14)
    seen = {mode: set() for mode in (L, SDL, SDLM)}
    for _ in range(600):
        ant = tuple(random_formula(rng, 3) for _ in range(rng.randint(1, 4)))
        s = Sequent(ant, random_formula(rng, 3))
        for mode in (L, SDL, SDLM):
            got = [(v.kind, v.message) for v in validate_input(s, mode)]
            assert got == reference_violations(s, mode), (s, mode)
            seen[mode].update((kind, "antecedent" in msg) for kind, msg in got)
        # polarity_report flags the same -o occurrences, in the same order.
        reported = [
            f"{format_formula(o.formula)} occurs negatively ({o.side} position {o.index}) and -o has no left rule"
            for o in polarity_report(s).negative_linimp
        ]
        assert reported == [msg for _, msg in reference_violations(s, SDL)], s
    # Both kinds, on both sides of the arrow.
    assert seen[L] == {("linimp-in-l", True), ("linimp-in-l", False)}
    assert seen[SDL] == seen[SDLM] == {("negative-linimp", True), ("negative-linimp", False)}


def _refused_at_root(s: Sequent, mode: CalculusMode) -> bool:
    """Whether ``prove`` gave up on ``s`` before any node and not for its counts."""
    try:
        _, stats = prove(s, mode, budget=3000)
    except BudgetExceededError as e:
        stats = e.stats
    return stats.nodes_expanded == 0 and stats.pruned_by_count == 0


def _without_linimp(f):
    """``f`` with every ``B -o A`` written ``B\\A``: the same counts, no -o."""
    if isinstance(f, Atom):
        return f
    kind = Under if isinstance(f, LinImp) else type(f)
    return kind(result=_without_linimp(f.result), arg=_without_linimp(f.arg))


# (has -o at a positive, at a negative position), the root counted positive.
_LINIMP_POLARITIES = {
    "a": (False, False),
    "a -o b": (True, False),
    # the argument of a slash flips
    "x/(a -o b)": (False, True),
    "x/(c -o (b -o x))": (False, True),
    "(a -o b)\\x": (False, True),
    "x/((a -o b) -o c)": (True, True),
}


@pytest.mark.parametrize("text", _LINIMP_POLARITIES)
def test_root_check_on_linimp_polarities(text):
    f = parse_formula(text)
    positive, negative = _LINIMP_POLARITIES[text]
    plain = _without_linimp(f)
    # As succedent, a -o is refused where it is negative in f; as
    # antecedent, where it is positive; in mode l, anywhere.
    for s, refused in ((Sequent((plain,), f), negative), (Sequent((f,), plain), positive)):
        for mode, expect in ((SDL, refused), (SDLM, refused), (L, positive or negative)):
            assert bool(reference_violations(s, mode)) == expect, (s, mode)
            assert _refused_at_root(s, mode) == expect, (s, mode)


def test_root_check_matches_reference():
    # prove stops before the first node, without a count refutation,
    # exactly when the counts balance and the -o check finds a violation.
    rng = random.Random(15)
    outcomes = {mode: set() for mode in (L, SDL, SDLM)}
    for i in range(400):
        made_in = (L, SDL, SDLM)[i % 3]
        for s in (random_sequent(rng), zero_linimp_sequent(rng, made_in)):
            for mode in (L, SDL, SDLM):
                balanced, violated = oracle_balanced(s), bool(reference_violations(s, mode))
                assert _refused_at_root(s, mode) == (balanced and violated), (s, mode)
                outcomes[mode].add((balanced, violated))
    # Every combination occurs, in every mode.
    assert all(len(seen) == 4 for seen in outcomes.values()), outcomes


def test_validate_input_memory_is_linear():
    s = chain_sequent(6000)
    tracemalloc.start()
    try:
        assert validate_input(s, SDL) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20_000_000


_HASH_SEED_SCRIPT = """
from lambek import CalculusMode, parse_sequent, proof_to_json_text, prove
s = parse_sequent(r"a/a, a, a/a, a, (a\\b -o b\\a -o a)\\a\\b => b\\a -o a")
tree, stats = prove(s, CalculusMode.SDL_MINUS)
print(stats.nodes_expanded)
print(proof_to_json_text(tree))
"""


def test_search_order_ignores_hash_seed():
    src = str(Path(prover.__file__).resolve().parent.parent)
    outputs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT], env=env, capture_output=True, text=True, check=True
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1


def _nested_json(t: ProofTree) -> dict:
    """``t`` in the nested form the digest below was recorded with: each
    node lists its ``premises``, and the root alone has a ``sequent``."""
    built: list[dict] = []
    for node in reversed(t.nodes()):
        out: dict = {"rule": node.rule.symbol}
        if node is t:
            out["sequent"] = format_sequent(t.conclusion)
        if node.split is not None:
            out["split"] = list(node.split)
        if node.insert is not None:
            out["insert"] = node.insert
        out["premises"] = [built.pop() for _ in node.premises]
        built.append(out)
    return built[0]


def test_search_order_with_pending_bags_is_pinned(monkeypatch):
    # The order in which pending formulas are materialized ahead of /R
    # and \R decides which proof is found first and how many nodes it
    # takes.  The digest was recorded from the search that kept pending
    # atoms as (atom, multiplicity) pairs, and re-recorded (the same under
    # PYTHONHASHSEED 0 and 1) when the left phase became focused, and
    # again when focused chains that cannot end from their position were
    # dropped (fewer spans scanned and nodes expanded, the same proofs),
    # and when only the first pending formula in rank order was
    # materialized at each state (fewer nodes expanded and cache hits,
    # the same proofs: the proofs-only digest did not change), and when
    # a run of right rules became one search state (fewer nodes
    # expanded, the same proofs), on the first 200 sequents whose sdl
    # search materializes two or more distinct pending formulas.  Each
    # is proved in sdl- as well, where left rules split the same bags.
    # The proofs are digested in the nested JSON form the digest was
    # recorded with, which proof_to_json does not write.
    materialized = set()
    real = prover._Search._materializations

    def spy(self, fixed, bag, succ):
        for option in real(self, fixed, bag, succ):
            (child,), _ = option
            # The first place where the child's antecedent departs from
            # ``fixed`` holds a copy of the materialized formula.
            materialized.add(next(g for g, h in zip(child[0], fixed + (None,)) if g != h))
            yield option

    monkeypatch.setattr(prover._Search, "_materializations", spy)
    rng = random.Random(5)
    digest, proofs = hashlib.sha256(), hashlib.sha256()
    picked = tried = 0
    while picked < 200:
        s = pending_bag_sequent(rng, (SDL, SDLM)[tried % 2])
        tried += 1
        materialized.clear()
        results = [prove(s, SDL)]
        if len(materialized) < 2:
            continue
        picked += 1
        results.append(prove(s, SDLM))
        for mode, (tree, stats) in zip((SDL, SDLM), results):
            proof = tree and json.dumps(_nested_json(tree), separators=(",", ":"))
            line = [str(s), str(mode), stats.as_dict(), proof]
            digest.update(json.dumps(line).encode() + b"\n")
            proofs.update(json.dumps([str(s), str(mode), proof]).encode() + b"\n")
    assert tried < 300
    assert proofs.hexdigest()[:16] == "8c27117e6f258428"
    assert digest.hexdigest() == "eb97d57fbd132254368a3af534934b7fcdecf7645c3b563dd26a6f6d448b9154"


def test_each_interleaving_is_materialized_in_one_order(monkeypatch):
    # Fixing k distinct pending formulas one by one, each wherever it may
    # go, reaches every interleaving once per order of the k formulas.
    # Within one search no state may be the child of two materializing
    # states.  Only states whose pending formulas are distinct and unlike
    # their fixed ones are watched: equal formulas give equal children at
    # different positions.
    parents: dict = {}
    watched = 0
    real = prover._Search._materializations

    def spy(self, fixed, bag, succ):
        nonlocal watched
        counts = [bag // u & prover._LANE_MASK for u in self._units.values()]
        pending = [f for f, k in zip(self._units, counts) if k]
        clean = max(counts) == 1 and not set(pending) & set(fixed)
        watched += clean and len(pending) >= 2
        for option in real(self, fixed, bag, succ):
            (child,), _ = option
            if clean:
                assert parents.setdefault(child, (fixed, bag, succ)) == (fixed, bag, succ), child
            yield option

    monkeypatch.setattr(prover._Search, "_materializations", spy)
    rng = random.Random(6)
    for k in range(150):
        s = pending_bag_sequent(rng, (SDL, SDLM)[k % 2])
        for search in (lambda: prove(s, SDL), lambda: enumerate_proofs(s, SDL, limit=8)):
            parents.clear()
            search()
    assert watched > 100


def test_search_is_pinned():
    # Every proof `prove` and `enumerate_proofs` return, and every
    # SearchStats, on seeded sequents of three kinds in all three modes.
    # A refactor of the search must leave both digests as they are.  The
    # stats digest was re-recorded when a run of right rules became one
    # search state: fewer nodes expanded, every other counter the same.
    rng = random.Random(31)
    proofs, stats = hashlib.sha256(), hashlib.sha256()
    kinds = (lambda r, m: forward_proof(r, m).conclusion, zero_linimp_sequent, shuffled_sequent)
    for k in range(300):
        s = kinds[k % 3](rng, (L, SDL, SDLM)[k // 3 % 3])
        for mode in CalculusMode:
            tree, st = prove(s, mode)
            lines = [[str(s), str(mode), tree and proof_to_json_text(tree)]]
            counts = [st.as_dict()]
            if k % 4 == 0:
                search = prover._Search(mode)
                lines.append([proof_to_json_text(t) for t in search.enumerate(s, 8)])
                counts.append(search.stats.as_dict())
            proofs.update(json.dumps(lines).encode() + b"\n")
            stats.update(json.dumps(counts).encode() + b"\n")
    assert proofs.hexdigest()[:16] == "39221a6aefa3d6aa"
    assert stats.hexdigest()[:16] == "5b0ad61a79daece3"


def _right_run_sequent(rng: random.Random, mode: CalculusMode) -> Sequent:
    """A forward-generated sequent with two copies of an antecedent formula ``X`` moved into ``X -o X -o A``.

    So -oR has two copies of ``X`` to insert.  Half have a third -o on
    another antecedent formula, and half a /R or \\R on the formula at
    the end its slash faces, either ahead of the -o's or behind them.
    """
    while True:
        s = forward_proof(rng, mode).conclusion
        ant = list(s.antecedent)
        repeated = [f for k, f in enumerate(ant) if f in ant[:k]]
        if repeated and len(ant) >= 3:
            break
    x = rng.choice(repeated)
    for _ in range(2):
        ant.pop(rng.choice([k for k, f in enumerate(ant) if f is x]))
    args = [x, x]
    if len(ant) >= 2 and rng.random() < 0.5:
        args.append(ant.pop(rng.randrange(len(ant))))
    succ, slash = s.succedent, None
    if len(ant) >= 2 and rng.random() < 0.5:
        slash = (lambda a: Over(a, ant.pop())) if rng.random() < 0.5 else (lambda a: Under(ant.pop(0), a))
    late = slash and rng.random() < 0.5
    if late:
        succ = slash(succ)
    for arg in args:
        succ = LinImp(arg, succ)
    if slash and not late:
        succ = slash(succ)
    return Sequent(tuple(ant), succ)


def test_enumeration_across_right_runs_is_pinned():
    # Every proof enumerate_proofs returns, in order, on sequents whose
    # succedent opens with two or more right rules and whose -oR's have
    # several pending copies of their argument to insert: the order of
    # insert choices across a run of right rules must not change.
    rng = random.Random(41)
    proofs = hashlib.sha256()
    several = 0
    for k in range(150):
        s = _right_run_sequent(rng, (L, SDL, SDLM)[k % 3])
        for mode in CalculusMode:
            trees = enumerate_proofs(s, mode, limit=8)
            assert all(check_proof(t, mode) for t in trees), (str(s), mode)
            several += len(trees) >= 2
            proofs.update(json.dumps([str(s), str(mode), [proof_to_json_text(t) for t in trees]]).encode() + b"\n")
    assert several >= 50
    assert proofs.hexdigest()[:16] == "ae551ba8b3905e69"


def test_enumerate_proofs():
    # One proof per focused normal form.  Both readings of two a/a are
    # f(g(x)); with a/a on the left and a\a on the right of x, f(g(x))
    # and g(f(x)) are two readings.
    for text, count in (("a/a, a/a, a => a", 1), ("a/a, a, a\\a => a", 2)):
        s = parse_sequent(text)
        trees = enumerate_proofs(s, L, limit=10)
        assert len(trees) == len(set(trees)) == count, text
        for t in trees:
            assert t.conclusion == s
            assert check_proof(t, L)
    assert len(enumerate_proofs(parse_sequent("a/b, b => a"), L, limit=10)) == 1
    assert enumerate_proofs(parse_sequent("a => b"), SDL, limit=10) == []
    assert len(enumerate_proofs(parse_sequent("a/a, a, a\\a => a"), L, limit=1)) == 1


def _functor_index(node) -> int:
    """Antecedent position of the functor a /L or \\L node decomposes."""
    q, n = node.split
    return q if node.rule is Rule.OVER_L else q + n


def test_enumerated_proofs_are_focused():
    # The right premise of a left rule keeps decomposing the functor's
    # result, at the position it takes there, down to Ax on its head.
    rng = random.Random(18)
    chained = 0
    for mode in CalculusMode:
        for _ in range(200):
            for tree in enumerate_proofs(forward_proof(rng, mode).conclusion, mode, limit=10):
                for node, c in oracle_conclusions(tree):
                    if node.rule not in (Rule.OVER_L, Rule.UNDER_L):
                        continue
                    right = node.premises[1]
                    if right.rule is Rule.AX:
                        right_conclusion = oracle_premise_conclusions(node, c)[1]
                        assert right_conclusion.antecedent == (c.antecedent[_functor_index(node)].result,)
                    else:
                        assert right.rule in (Rule.OVER_L, Rule.UNDER_L), tree
                        assert _functor_index(right) == node.split[0], tree
                        chained += 1
    assert chained > 100


def test_enumerated_proofs_are_right_first():
    # Once the succedent's right rule applies, no left rule is tried, so
    # no left node concludes a sequent whose succedent could be decomposed.
    rng = random.Random(17)
    left_nodes = 0
    for mode in CalculusMode:
        for _ in range(300):
            for tree in enumerate_proofs(forward_proof(rng, mode).conclusion, mode, limit=10):
                for node, c in oracle_conclusions(tree):
                    if node.rule in (Rule.OVER_L, Rule.UNDER_L):
                        left_nodes += 1
                        succ = c.succedent
                        assert not (isinstance(succ, (Over, Under)) and mode.has_directional_right), tree
                        assert not (isinstance(succ, LinImp) and mode.has_linimp_right), tree
    assert left_nodes > 1000


def test_no_left_rule_below_a_missing_right_rule():
    # In sdl- a slash succedent has no right rule, and every left chain
    # ends in Ax on an atom, so the root has no option and no span is scanned.
    tree, stats = prove(parse_sequent("x/c/b, b => x/c"), SDLM)
    assert tree is None
    assert stats.nodes_expanded == 1 and stats.pruned_by_count == 0


@pytest.mark.parametrize(
    "text, sides",
    [
        ("a", ""),
        ("a/b", "/"),
        ("b\\a", "\\"),
        ("(b\\a)/c", "\\/"),
        ("c -o a", ""),
        ("(a/b)\\c", "\\"),
        ("(c -o a)/b", "/"),
    ],
)
def test_chain_sides(text, sides):
    # Only the slashes on the way from the formula to its head count,
    # not those inside an argument or under a -o.
    f = parse_formula(text)
    assert f._sides == ("\\" in sides) * syntax._LEFT_ARG + ("/" in sides) * syntax._RIGHT_ARG


def _chain_can_end(f, i: int, n: int, bag: int) -> bool:
    """Whether a chain focused on ``f``, at fixed position ``i`` of ``n``, can end in Ax.

    Only a \\ argument on the way to the head takes the fixed formulas
    on its left, only a / argument those on its right, and Ax needs the
    bag empty.
    """
    slashes = set()
    while isinstance(f, (Over, Under)):
        slashes.add(type(f))
        f = f.result
    return (i == 0 or Under in slashes) and (i == n - 1 or Over in slashes) and (bool(slashes) or not bag)


def _head(f):
    while isinstance(f, (Over, Under)):
        f = f.result
    return f


@pytest.mark.parametrize("text", ["a, x/a/b, b => x", "a, b\\a\\x, b => x"])
def test_functor_that_cannot_end_from_its_position_is_not_tried(text):
    # x/a/b has no \ argument to take the a on its left, and b\a\x no
    # / argument to take the b on its right: no span is scanned.
    for mode in CalculusMode:
        tree, stats = prove(parse_sequent(text), mode)
        assert tree is None
        assert stats.nodes_expanded == 1 and stats.pruned_by_count == 0


def test_no_focused_state_whose_chain_cannot_end(monkeypatch):
    # Every fixed functor handed to the left rules, and every focused
    # right premise created, can end from its position; the fixed
    # functors headed by the succedent that cannot were left out.
    skipped = 0
    real_options, real_left = prover._Search._options, prover._Search._left

    def spy_options(self, fixed, bag, succ, focus):
        nonlocal skipped
        if focus < 0:
            n = len(fixed)
            skipped += sum(
                _head(f) is succ and f is not succ and not _chain_can_end(f, i, n, bag) for i, f in enumerate(fixed)
            )
        for option in real_options(self, fixed, bag, succ, focus):
            children = option[0]
            if len(children) == 2:
                ant, rest, _, a = children[1]
                assert _chain_can_end(ant[a], a, len(ant), rest), (fixed, succ, children[1])
            yield option

    def spy_left(self, fixed, bag, succ, f, i):
        assert i < 0 or _chain_can_end(f, i, len(fixed), bag), (fixed, succ, f, i)
        return real_left(self, fixed, bag, succ, f, i)

    monkeypatch.setattr(prover._Search, "_options", spy_options)
    monkeypatch.setattr(prover._Search, "_left", spy_left)
    rng = random.Random(23)
    for k in range(300):
        mode = (L, SDL, SDLM)[k % 3]
        for s in (shuffled_sequent(rng, mode), _pending_functor_sequent(rng, mode)):
            prove(s, mode)
    assert skipped > 400


def test_enumerate_proofs_of_a_deep_chain():
    # hashing a proof tree this deep recurses past the limit, so the
    # enumeration must tell proofs apart without it
    s = chain_sequent(2500)
    trees = enumerate_proofs(s, SDL, limit=1)
    assert len(trees) == 1
    assert trees[0].conclusion == s and trees[0].depth() == 5001
    assert check_proof(trees[0], SDL)


def test_search_does_not_recurse_per_level():
    s = chain_sequent(1000)
    with recursion_limit(100):
        tree, _ = prove(s, SDL)
        trees = enumerate_proofs(s, SDL, limit=1)
    assert tree.depth() == 2001 and trees == [tree]


def test_search_deeper_than_the_bound_is_unknown():
    with pytest.raises(BudgetExceededError) as e:
        prove(chain_sequent(6000), SDL)
    assert e.value.stats.max_depth == prover._MAX_DEPTH == 10_000


def test_search_path_memory_at_the_depth_bound():
    # A deep search keeps alive per level only what backtracking needs.
    # At the bound, the n = 6,000 chain has 4,000 focused /L levels on
    # its path, each holding its goal and its one option but no suspended
    # span scan: the peak beyond the parse is about 4.1 MB on CPython 3.11.
    s = chain_sequent(6000)
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            prove(s, SDL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_search_leaves_no_cyclic_garbage():
    # The search path, the memo and the proofs are freed by reference
    # counting when a search returns or gives up at the depth bound, so
    # the cyclic collector has nothing to find.
    gc.collect()
    gc.disable()
    try:
        prove(chain_sequent(1000), SDL)
        enumerate_proofs(chain_sequent(1000), SDL, limit=2)
        with pytest.raises(BudgetExceededError):
            prove(chain_sequent(6000), SDL)
        freed = gc.collect()
    finally:
        gc.enable()
    assert freed < 1_000


def test_depth_bound_is_exact(monkeypatch):
    # The chain of length n has one proof, of depth 2n + 1.
    monkeypatch.setattr(prover, "_MAX_DEPTH", 101)
    tree, stats = prove(chain_sequent(50), SDL)
    assert tree.depth() == stats.max_depth == 101
    with pytest.raises(BudgetExceededError):
        prove(chain_sequent(51), SDL)
    with pytest.raises(BudgetExceededError):
        enumerate_proofs(chain_sequent(51), SDL)


@pytest.mark.parametrize(
    "text, mode, depth",
    [
        ("b/a/a => a -o a -o b", SDLM, 5),
        # the run of two -oR's sits in the left premise of the root's /L, on the deepest path
        ("x/(a -o a -o b), b/a/a => x", SDL, 6),
        ("c\\(a/d) => c\\(a/d)", L, 5),
        ("c/b/a/d => (a -o b -o c)/d", SDL, 7),
    ],
)
def test_depth_bound_counts_each_rule_of_a_right_run(monkeypatch, text, mode, depth):
    # A run of right rules is one search state, but each of its rules is
    # a level: a proof that reaches the bound through a run is found, and
    # one a level deeper is "unknown".
    s = parse_sequent(text)
    monkeypatch.setattr(prover, "_MAX_DEPTH", depth)
    tree, stats = prove(s, mode)
    assert tree.depth() == stats.max_depth == depth and check_proof(tree, mode)
    assert enumerate_proofs(s, mode, limit=1) == [tree]
    monkeypatch.setattr(prover, "_MAX_DEPTH", depth - 1)
    for search in (prove, enumerate_proofs):
        with pytest.raises(BudgetExceededError):
            search(s, mode)


def test_right_run_across_the_bound_is_unknown(monkeypatch):
    # The root's run of 13 -oR's ends in a state 14 levels deep: past a
    # bound of 12 before any state below the root is expanded.
    monkeypatch.setattr(prover, "_MAX_DEPTH", 12)
    for search in (prove, enumerate_proofs):
        with pytest.raises(BudgetExceededError) as e:
            search(chain_sequent(13), SDL)
        assert e.value.stats.nodes_expanded == e.value.stats.max_depth == 1


def test_search_code_makes_no_closure_cells():
    # On CPython 3.10 and 3.11 a comprehension or generator expression
    # that reads a local makes it a cell, allocated on every call and kept
    # alive with a suspended generator of the search.
    search = prover._Search
    methods = (search._options, search._lefts, search._left, search._materializations, search._float_splits)
    methods += (search._search, search._unit)
    for f in (*methods, prover._conclude):
        assert f.__code__.co_cellvars == (), f.__qualname__


def test_budget_exhaustion():
    s = parse_sequent("a/b, b => a")
    with pytest.raises(BudgetExceededError) as e:
        prove(s, SDL, budget=1)
    assert e.value.stats.nodes_expanded >= 1
    # generous budget succeeds
    tree, _ = prove(s, SDL, budget=1000)
    assert tree is not None


def test_proof_depth_bounded_by_connectives():
    # each rule application removes one connective occurrence, so depth
    # can never exceed the connective count plus the axiom step
    rng = random.Random(3)
    for _ in range(200):
        gen = forward_proof(rng, SDL)
        s = gen.conclusion
        tree, _ = prove(s, SDL)
        assert tree is not None
        assert tree.depth() <= connective_count(s) + 1


def test_prover_agrees_with_forward_generation():
    rng = random.Random(4)
    for _ in range(300):
        gen = forward_proof(rng, SDL)
        tree, _ = prove(gen.conclusion, SDL)
        assert tree is not None, gen.conclusion
        assert check_proof(tree, SDL)
        assert tree.conclusion == gen.conclusion


def test_prove_agrees_with_naive_search():
    # Count-balanced sequents, so refutations come from the search and
    # not from the root count check; about half are underivable.
    rng = random.Random(21)
    verdicts = []
    for mode in CalculusMode:
        for _ in range(1000):
            s = shuffled_sequent(rng, mode)
            tree, _ = prove(s, mode)
            expected = naive_derivable(s, mode)
            assert (tree is not None) == expected, (mode, str(s))
            verdicts.append(expected)
    assert verdicts.count(False) > 1000 and verdicts.count(True) > 1000


def _pending_functor_sequent(rng: random.Random, mode: CalculusMode) -> Sequent:
    """A forward-generated sequent with one antecedent slash formula ``B`` moved into ``B -o A``.

    ``B`` then pends, and is a functor left rules may take from the bag.
    Half are mutated by ``swap_or_flip``, which keeps the counts and
    often the derivability too.
    """
    while True:
        s = forward_proof(rng, mode).conclusion
        slashes = [k for k, f in enumerate(s.antecedent) if isinstance(f, (Over, Under))]
        if len(s.antecedent) >= 2 and slashes:
            break
    ant = list(s.antecedent)
    succ = LinImp(ant.pop(rng.choice(slashes)), s.succedent)
    s = Sequent(tuple(ant), succ)
    return swap_or_flip(rng, s) if rng.random() < 0.5 else s


def test_pending_functors_agree_with_naive_search(monkeypatch):
    # Left rules on a functor taken from the bag, and the chains focused
    # on its result, against the positional oracle in every mode.
    pending_tries = 0
    real = prover._Search._left

    def spy(self, fixed, bag, succ, functor, i):
        nonlocal pending_tries
        pending_tries += i < 0
        return real(self, fixed, bag, succ, functor, i)

    monkeypatch.setattr(prover._Search, "_left", spy)
    rng = random.Random(22)
    verdicts = []
    for k in range(600):
        s = _pending_functor_sequent(rng, (L, SDL, SDLM)[k % 3])
        for mode in CalculusMode:
            tree, _ = prove(s, mode)
            expected = naive_derivable(s, mode)
            assert (tree is not None) == expected, (mode, str(s))
            if tree is not None:
                assert tree.conclusion == s and check_proof(tree, mode)
            verdicts.append(expected)
    assert verdicts.count(True) > 300 and verdicts.count(False) > 900
    assert pending_tries > 1000


def test_mode_monotonicity_spot():
    rng = random.Random(5)
    for _ in range(150):
        s = random_sequent(rng)
        in_sdl = prove(s, SDL)[0] is not None
        if prove(s, L)[0] is not None:
            assert in_sdl, s
        if prove(s, SDLM)[0] is not None:
            assert in_sdl, s


def test_mirror_image_has_the_same_verdict_and_proof_count():
    # The search is not symmetric: fixed functors are tried from left to
    # right, _can_end and the span scans treat / and \ apart, and pending
    # formulas go by rank.  So mirroring tests it at sizes that the naive
    # oracle cannot reach.
    rng = random.Random(12)
    several = 0
    for mode in (L, SDL, SDLM):
        for _ in range(1500):
            s = random_sequent(rng)
            verdicts = [prove(x, mode, budget=100_000)[0] is not None for x in (s, mirror_sequent(s))]
            assert verdicts[0] == verdicts[1], (mode, str(s))
        for _ in range(600):
            s = forward_proof(rng, mode).conclusion
            counts = [len(enumerate_proofs(x, mode, limit=50, budget=100_000)) for x in (s, mirror_sequent(s))]
            assert counts[0] == counts[1], (mode, str(s))
            several += counts[0] > 1
    assert several > 300


def _rules(tree: ProofTree | None) -> list[tuple] | None:
    return tree and [(n.rule, n.split, n.insert) for n in tree.nodes()]


def test_renamed_primitives_give_the_same_proofs():
    # An injective renaming of primitives changes no rule and no rule
    # data, so each search must find the same proofs in the same order:
    # nothing in it may go by a primitive's name.  Pending-bag sequents
    # watch the order in which pending formulas are materialized.
    rng = random.Random(17)
    forward, random_kind = (lambda r, m: forward_proof(r, m).conclusion), (lambda r, m: random_sequent(r))
    cases = [(kind, mode) for kind in (forward, random_kind) for mode in (L, SDL, SDLM)] * 300
    cases += [(pending_bag_sequent, SDL), (pending_bag_sequent, SDLM)] * 400
    for kind, mode in cases:
        s = kind(rng, mode)
        names = dict(zip(ATOMS, rng.sample(ATOMS, len(ATOMS))))
        r = rename_sequent(s, names)
        found = [prove(x, mode, budget=100_000)[0] for x in (s, r)]
        assert (found[0] is None) == (found[1] is None), (mode, str(s))
        assert _rules(found[0]) == _rules(found[1]), (mode, str(s))
        if found[0] is not None:
            assert found[1].conclusion == r
            listed = [list(map(_rules, enumerate_proofs(x, mode, limit=8, budget=100_000))) for x in (s, r)]
            assert listed[0] == listed[1], (mode, str(s))


def test_stats_dict_shape():
    _, stats = prove(parse_sequent("a/b, b => a"), SDL)
    d = stats.as_dict()
    assert set(d) == {"nodes_expanded", "cache_hits", "pruned_by_count", "max_depth"}
    assert all(isinstance(v, int) for v in d.values())


def _random_bag(rng: random.Random, kind: str, search: prover._Search) -> tuple:
    """A pending multiset: distinct formulas in the order of ``search._rank``, as the search reads them.

    One atom of a non-empty bag is pending 10-16 times, as many as the
    reduction's sizes put in one lane.
    """
    entries: dict = {}
    if kind != "empty":
        for name in rng.sample("abcd", rng.randint(1, 4)):
            entries[Atom(name)] = rng.randint(1, 3)
        entries[rng.choice(list(entries))] = rng.randint(10, 16)
    if kind == "mixed":
        while len(entries) < 6 and (not entries or rng.random() < 0.6):
            f = random_formula(rng, 2)
            if not isinstance(f, Atom):
                entries[f] = rng.randint(1, 2)
    for f in entries:
        search._vec(f)
        search._unit(f)  # a formula is ranked when it gets its lane, as when it pends
    return tuple(sorted(entries.items(), key=lambda kv: search._rank[kv[0]]))


def test_float_splits_match_brute_force():
    rng = random.Random(12)
    search = prover._Search(SDL)
    for trial in range(900):
        kind = ("empty", "atoms", "mixed")[trial % 3]
        bag = _random_bag(rng, kind, search)
        # The need is a random sub-multiset of the bag (so that takes
        # exist), perturbed at times by the counts of a random formula.
        terms = [f for f, k in bag for _ in range(rng.randint(0, k))]
        if rng.random() < 0.4:
            terms.append(random_formula(rng, 2))
        need: dict[str, int] = {}
        for f in terms:
            for name, n in oracle_counts(f).items():
                need[name] = need.get(name, 0) + n
        packed = sum(map(search._vec, terms))
        got = list(search._float_splits(_as_bag(search, bag), packed))
        assert got == [_as_bag(search, take) for take in brute_force_splits(bag, need)], (bag, need)


def _as_bag(search: prover._Search, pairs: tuple) -> int:
    """(formula, multiplicity) pairs as a pending bag: each multiplicity in its formula's lane."""
    return sum(k * search._unit(f) for f, k in pairs)


def test_left_rules_never_split_an_empty_bag(monkeypatch):
    calls = []
    real = prover._Search._float_splits

    def spy(self, full, need):
        calls.append(bool(full))
        return real(self, full, need)

    monkeypatch.setattr(prover._Search, "_float_splits", spy)
    rng = random.Random(13)
    for _ in range(100):
        prove(forward_proof(rng, SDL).conclusion, SDL)
    assert calls and all(calls)


def test_sequent_too_large_for_count_lanes(monkeypatch):
    monkeypatch.setattr(prover, "_LANE_HALF", 4)
    assert prove(parse_sequent("a => a"), SDL)[0] is not None
    with pytest.raises(ValueError, match="atom occurrences"):
        prove(parse_sequent("a/b, b => a"), SDL)
