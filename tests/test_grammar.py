from __future__ import annotations

import copy
import gc
import hashlib
import itertools
import json
import math
import pickle
import random
import time

import pytest

from helpers import ATOMS, brute_force_balanced, oracle_balanced, oracle_counts, random_formula
from lambek import (
    CalculusMode,
    Cfg,
    GnfError,
    GnfProduction,
    Grammar,
    GrammarFormatError,
    UnknownTerminalError,
    anbncn_grammar,
    assignments,
    Atom,
    Over,
    Sequent,
    ThreePartitionInstance,
    build_reduction,
    cfg_to_grammar,
    check_proof,
    grammar_from_text,
    grammar_to_text,
    parse_formula,
    recognize,
)
from lambek import grammar

L, SDL, SDLM = CalculusMode.L, CalculusMode.SDL, CalculusMode.SDL_MINUS


def test_grammar_invariants():
    g = anbncn_grammar()
    assert g.start == "x"
    assert g.alphabet == {"a", "b", "c"}
    assert all(len(entry) >= 1 for entry in g.lexicon.values())
    with pytest.raises(ValueError):
        Grammar("X", {"a": (Atom("x"),)})
    with pytest.raises(ValueError):
        Grammar("x", {"a": ()})
    # Terminals a grammar file cannot hold
    for terminal in ("a b", "a#b", "a:b", "start", ""):
        with pytest.raises(ValueError):
            Grammar("x", {terminal: (Atom("x"),)})


def test_grammar_lexicon_is_read_only():
    lexicon = {"a": [Atom("x")], "b": (Over(Atom("x"), Atom("y")),)}
    g = Grammar("x", lexicon)
    lexicon["c"] = (Atom("x"),)  # the grammar keeps its own copy
    assert g.alphabet == {"a", "b"}
    assert g.lexicon["a"] == (Atom("x"),)
    with pytest.raises(TypeError):
        g.lexicon["a b"] = (Atom("x"),)
    with pytest.raises(TypeError):
        del g.lexicon["a"]
    assert grammar_from_text(grammar_to_text(g)) == g


def test_grammars_hash_as_they_compare():
    g = anbncn_grammar()
    assert hash(g) == hash(anbncn_grammar()) and g == anbncn_grammar()
    # Lexicons compare as dicts do, whatever their order.
    reordered = Grammar(g.start, dict(reversed(g.lexicon.items())))
    assert reordered == g and hash(reordered) == hash(g)
    assert len({g, anbncn_grammar(), reordered}) == 1
    other = Grammar("y", dict(g.lexicon))
    assert other != g and len({g, other}) == 2


def test_grammars_copy_and_pickle():
    g = anbncn_grammar()
    for back in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert back == g and hash(back) == hash(g)
        assert all(b is a for a, b in zip(itertools.chain(*g.lexicon.values()), itertools.chain(*back.lexicon.values())))
        with pytest.raises(TypeError):
            back.lexicon["d"] = (Atom("x"),)
        assert grammar_from_text(grammar_to_text(back)) == g


@pytest.mark.parametrize(
    "word,member",
    [
        ("a b c", True),
        ("a a b b c c", True),
        ("a a a b b b c c c", True),
        ("a b", False),
        ("b c", False),
        ("a c b", False),
        ("c b a", False),
        ("a a b c c", False),
        ("a b c a b c", False),
        ("a a a b b c c c", False),
    ],
)
def test_anbncn_membership(word, member):
    g = anbncn_grammar()
    for mode in (SDL, SDLM):
        r = recognize(g, word.split(), mode)
        assert r.member is member, (word, mode)
        assert not r.budget_exhausted


def test_anbncn_witness_for_abc():
    g = anbncn_grammar()
    r = recognize(g, ["a", "b", "c"], SDL)
    assert r.member
    # only one type choice per token balances the counts
    assert r.assignment == (
        parse_formula("x/(c -o (b -o y))"),
        parse_formula("(y/b)/z"),
        parse_formula("z/c"),
    )
    assert oracle_balanced(Sequent(r.assignment, Atom("x")))
    assert check_proof(r.proof, SDL)
    assert r.proof.conclusion == Sequent(r.assignment, Atom("x"))


def test_membership_never_uses_empty_word():
    with pytest.raises(ValueError):
        recognize(anbncn_grammar(), [], SDL)
    with pytest.raises(UnknownTerminalError):
        recognize(anbncn_grammar(), ["a", "q"], SDL)


def test_assignments_order_is_lexicographic():
    g = anbncn_grammar()
    got = list(assignments(g, ["a", "b"]))
    ta = g.lexicon["a"]
    tb = g.lexicon["b"]
    assert got == [(x, y) for x in ta for y in tb]


def test_budget_and_deadline_give_unknown():
    g = anbncn_grammar()
    r = recognize(g, "a a b b c c".split(), SDL, budget=1)
    assert not r.member and r.budget_exhausted
    r = recognize(g, "a a b b c c".split(), SDL, deadline=0.0)
    assert not r.member and r.budget_exhausted
    # a definite "no" is not flagged as unknown
    r = recognize(g, ["a", "b"], SDL)
    assert not r.member and not r.budget_exhausted


def test_grammar_text_round_trip():
    g = anbncn_grammar()
    assert grammar_from_text(grammar_to_text(g)) == g
    # Entries given as lists, and legal but odd terminals
    x, y = Atom("x"), Atom("y")
    for g in (
        Grammar("x", {"a": [x, Over(x, y)], "b": (y,)}),
        Grammar("x", {"x|y": (x,), "<s>": [y], "a/b": (Over(x, y),), "start_": (x,), "=>": (y,)}),
    ):
        back = grammar_from_text(grammar_to_text(g))
        assert back == g and all(type(entry) is tuple for entry in g.lexicon.values())
    text = """
    # toy grammar
    start: s
    the: np/n
    cat: n  # noun
    sleeps: np\\s
    """
    g2 = grammar_from_text(text)
    assert g2.start == "s"
    assert g2.lexicon["cat"] == (Atom("n"),)
    assert recognize(g2, ["the", "cat", "sleeps"], L).member


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("a: x", "start"),
        ("start: s\nstart: t", "duplicate start"),
        ("start: s\na: x\na: y", "duplicate terminal"),
        ("start: s\na: x//y", "line 2"),
        # a formula's error is placed in its line, not in its part
        ("start: s\na: y | x//y", r"line 2: expected a formula, found '/' \(at position 9\)"),
        ("start: s\na:    x//y", r"line 2: expected a formula, found '/' \(at position 8\)"),
        ("start: s\nnonsense", "expected"),
        ("", "missing"),
        ("start: s/t\na: x", "not a primitive"),
        # a text read once is not read again, but a bad one on a later line names that line
        ("start: s\na: x/y | y\nb: x/y | y\nc: y | x/y | x//y", "line 4"),
        ("start: s\na: x/y | y\n\nb: y | x/y/", "line 4"),
    ],
)
def test_grammar_text_rejects(text, fragment):
    with pytest.raises(GrammarFormatError, match=fragment):
        grammar_from_text(text)


def _gnf_derives(cfg: Cfg, word: list[str]) -> bool:
    # direct leftmost-derivation search, independent of the prover
    by_head: dict[str, list[GnfProduction]] = {}
    for p in cfg.productions:
        by_head.setdefault(p.head, []).append(p)

    def derive(stack: tuple[str, ...], rest: tuple[str, ...]) -> bool:
        if not stack:
            return not rest
        if not rest or len(stack) > len(rest):
            return False
        return any(
            derive(p.body + stack[1:], rest[1:])
            for p in by_head.get(stack[0], ())
            if p.terminal == rest[0]
        )

    return derive((cfg.start,), tuple(word))


ANBN = Cfg(
    "s",
    (
        GnfProduction("s", "a", ("s", "bb")),
        GnfProduction("s", "a", ("bb",)),
        GnfProduction("bb", "b"),
    ),
)


def test_cfg_to_grammar_types():
    g = cfg_to_grammar(ANBN)
    assert g.start == "s"
    assert g.lexicon["a"] == (parse_formula("s/bb/s"), parse_formula("s/bb"))
    assert g.lexicon["b"] == (parse_formula("bb"),)


def test_cfg_translation_preserves_language():
    g = cfg_to_grammar(ANBN)
    for n in range(1, 7):
        for letters in itertools.product("ab", repeat=n):
            word = list(letters)
            expected = _gnf_derives(ANBN, word)
            # slash-only types behave the same in all three modes
            for mode in (L, SDL, SDLM):
                assert recognize(g, word, mode).member is expected, (word, mode)


def test_cfg_translation_second_language():
    # S -> a | b S S  (a skewed tree language in Greibach form)
    cfg = Cfg(
        "s",
        (
            GnfProduction("s", "a"),
            GnfProduction("s", "b", ("s", "s")),
        ),
    )
    g = cfg_to_grammar(cfg)
    assert g.lexicon["b"] == (parse_formula("s/s/s"),)
    for n in range(1, 6):
        for letters in itertools.product("ab", repeat=n):
            word = list(letters)
            assert recognize(g, word, L).member is _gnf_derives(cfg, word), word


def test_cfg_duplicate_productions_collapse():
    cfg = Cfg("s", (GnfProduction("s", "a"), GnfProduction("s", "a")))
    assert cfg_to_grammar(cfg).lexicon["a"] == (Atom("s"),)


@pytest.mark.parametrize(
    "cfg,fragment",
    [
        (Cfg("s", ()), "at least one production"),
        (Cfg("t", (GnfProduction("s", "a"),)), "start"),
        (Cfg("s", (GnfProduction("s", "a", ("q",)),)), "no production"),
        (Cfg("s", (GnfProduction("S", "a"),)), "primitive name"),
        (Cfg("s", (GnfProduction("s", "a b"),)), "terminal"),
        (Cfg("s", (GnfProduction("s", "a#b"),)), "terminal"),
        (Cfg("s", (GnfProduction("s", "a:b"),)), "terminal"),
        (Cfg("s", (GnfProduction("s", "start"),)), "terminal"),
    ],
)
def test_cfg_rejects(cfg, fragment):
    with pytest.raises(GnfError, match=fragment):
        cfg_to_grammar(cfg)


def test_membership_leaves_no_cyclic_garbage():
    # The filter's tables and the search state must be freed when a
    # query returns, not held by reference cycles until the cyclic
    # collector runs.  Before that was so, this sweep left about 50,000
    # objects for gc.collect() to find.
    g = anbncn_grammar()
    gc.collect()
    gc.disable()
    try:
        for n in range(1, 6):
            for word in itertools.product("abc", repeat=n):
                recognize(g, word)
        freed = gc.collect()
    finally:
        gc.enable()
    assert freed < 1_000


# One assignment of a^n b^n c^n in the anbncn grammar, as a grammar with
# one type per terminal: the count filter passes it, and the search
# refutes it.  At n = 58 that takes about 3,800 nodes and 0.6 s.
HARD_ASSIGNMENT = """
start: x
a: x/(c -o b -o x)
a_last: x/(c -o b -o y)
b: y/b/y
b_last: y/b/z
c: z/c/z
c_last: z/c
"""
HARD_WORD = ["a"] * 57 + ["a_last"] + ["b"] * 57 + ["b_last", "c", "c_last"] + ["c"] * 56


def test_deadline_is_enforced_inside_the_search():
    g = grammar_from_text(HARD_ASSIGNMENT)
    assert len(list(assignments(g, HARD_WORD))) == 1
    t0 = time.perf_counter()
    r = recognize(g, HARD_WORD, SDL, deadline=0.02)
    assert time.perf_counter() - t0 < 0.2
    assert r.budget_exhausted and not r.member
    r = recognize(g, HARD_WORD, SDL)
    assert not r.member and not r.budget_exhausted
    assert r.stats.nodes_expanded > 1000


def test_deadline_is_enforced_inside_the_count_filter():
    # Without a deadline the filter alone takes about a second to refute
    # this instance (no triple can hold the 7), so the deadline trips
    # while the tables are built, before any assignment reaches the search.
    inst = ThreePartitionInstance(6, 16, (7, 5, 5, 5, 5, 6, 5, 6, 6, 5, 5, 5, 5, 5, 5, 5, 5, 6))
    red = build_reduction(inst)
    t0 = time.perf_counter()
    r = recognize(red.grammar, red.word, SDL, deadline=0.1)
    assert time.perf_counter() - t0 < 0.5
    assert r.budget_exhausted and not r.member
    assert r.stats.nodes_expanded == 0


def test_nan_deadline_is_rejected():
    with pytest.raises(ValueError, match="deadline"):
        recognize(anbncn_grammar(), ["a", "b", "c"], SDL, deadline=float("nan"))


def test_negative_deadline_is_rejected():
    for deadline in (-1.0, -0.001, float("-inf")):
        with pytest.raises(ValueError, match="deadline"):
            recognize(anbncn_grammar(), ["a", "b", "c"], SDL, deadline=deadline)


def _filter_input(rng: random.Random) -> tuple[list[tuple], dict[str, int]]:
    """Entries drawn from a small pool, so formulas and whole entries repeat."""
    pool = [random_formula(rng, 2) for _ in range(rng.randint(1, 6))]
    kinds = [tuple(rng.choice(pool) for _ in range(rng.randint(1, 3))) for _ in range(rng.randint(1, 3))]
    entries = [rng.choice(kinds) for _ in range(rng.randint(1, 7))]
    if rng.random() < 0.3:
        return entries, {rng.choice(ATOMS): rng.choice((1, -1))}
    # The counts of one assignment, so that at least one survives.
    target: dict[str, int] = {}
    for entry in entries:
        for name, n in oracle_counts(rng.choice(entry)).items():
            target[name] = target.get(name, 0) + n
    return entries, {name: n for name, n in target.items() if n}


def _summed(formulas, start: dict[str, int] | None = None, sign: int = 1):
    """``grammar._vkey`` of ``start`` plus ``sign`` times the counts of ``formulas``."""
    total = dict(start or {})
    for f in formulas:
        for name, n in oracle_counts(f).items():
            total[name] = total.get(name, 0) + sign * n
    return grammar._vkey({name: n for name, n in total.items() if n})


@pytest.mark.parametrize("cap", [None, 0, 1, 8])
def test_count_filter_matches_brute_force(cap, monkeypatch):
    # With the cap at 0, 1 or 8 the tables often stop growing before
    # they meet, so the walk runs on the back tables alone.
    if cap is not None:
        monkeypatch.setattr(grammar, "_SUFFIX_CAP", cap)
    built = []
    real = grammar._residual_tables
    monkeypatch.setattr(grammar, "_residual_tables", lambda *args: built.append(real(*args)) or built[-1])
    rng = random.Random(41)
    for _ in range(300):
        entries, target = _filter_input(rng)
        expected = brute_force_balanced(entries, target)
        skipped = [0]
        assert list(grammar._balanced_assignments(entries, target, skipped)) == expected
        assert skipped[0] == math.prod(map(len, entries)) - len(expected)
        # Every table that was built is exact on the prefixes that reach
        # it, and under the real cap these small inputs build them all.
        tables = built.pop()
        assert cap is not None or None not in tables
        for i, table in enumerate(tables):
            if table is None:
                continue
            sums = {_summed(rest) for rest in itertools.product(*entries[i:])}
            for prefix in itertools.product(*entries[:i]):
                residual = _summed(prefix, target, -1)
                assert (residual in table) is (residual in sums)


def test_count_filter_walk_shifts_each_residual_once(monkeypatch):
    # Every prefix that leaves the same residual after i entries has the
    # same moves, so the walk works them out once per state of a built
    # table: at most len(suffix[i]) * len(entries[i]) shifts at level i.
    # On this word 64 assignments survive and the walk makes 138 shifts
    # against a bound of 166; shifting again on every prefix made 696.
    entries = grammar._entries(anbncn_grammar(), "abcbacbcabac")
    shifts, built = [], []
    real_shift, real_tables = grammar._shift, grammar._residual_tables

    def tables(*args):
        built.append(real_tables(*args))
        shifts.clear()  # count only the walk's shifts
        return built[-1]

    monkeypatch.setattr(grammar, "_residual_tables", tables)
    monkeypatch.setattr(grammar, "_shift", lambda *args: shifts.append(1) or real_shift(*args))
    assert len(list(grammar._balanced_assignments(entries, {"x": 1}, [0]))) == 64
    (suffix,) = built
    assert len(shifts) <= sum(len(table) * len(entry) for table, entry in zip(suffix, entries) if table is not None)


def test_count_filter_enumeration_is_pinned():
    # Each balanced word of length 9 in the a^n b^n c^n grammar (1,680
    # words, 45,360 survivors): its surviving assignments as lexicon
    # indices, and the number it discards.  A change to how the
    # survivors are walked must leave the digest as it is.
    g = anbncn_grammar()
    digest = hashlib.sha256()
    words = 0
    for word in itertools.product("abc", repeat=9):
        if not word.count("a") == word.count("b") == word.count("c"):
            continue
        entries = grammar._entries(g, word)
        skipped = [0]
        survivors = [
            [entry.index(f) for entry, f in zip(entries, assignment)]
            for assignment in grammar._balanced_assignments(entries, {g.start: 1}, skipped)
        ]
        digest.update(json.dumps([survivors, skipped[0]]).encode() + b"\n")
        words += 1
    assert words == 1_680
    assert digest.hexdigest()[:16] == "b90b0d4da1dd5b5d"
