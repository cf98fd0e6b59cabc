from __future__ import annotations

import ast
import copy
import dataclasses
import gc
import itertools
import os
import pickle
import random
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    oracle_atoms,
    oracle_chain,
    oracle_usable,
    random_formula,
    random_sequent,
    recursion_limit,
    scan_tokens,
)
import lambek
from lambek import (
    Atom,
    CalculusMode,
    Formula,
    FormulaSyntaxError,
    LinImp,
    Over,
    ProofTree,
    Rule,
    Sequent,
    Under,
    check_proof,
    connective_count,
    format_formula,
    format_sequent,
    parse_formula,
    parse_sequent,
    prove,
    subformulas,
)
from lambek import prover, syntax
from lambek.syntax import _nodes

a, b, c = Atom("a"), Atom("b"), Atom("c")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("a", a),
        ("abc_2", Atom("abc_2")),
        ("a/b", Over(a, b)),
        ("a\\b", Under(a, b)),
        ("a -o b", LinImp(a, b)),
        # "/" associates to the left, "\" and "-o" to the right
        ("a/b/c", Over(Over(a, b), c)),
        ("a\\b\\c", Under(a, Under(b, c))),
        ("a -o b -o c", LinImp(a, LinImp(b, c))),
        # slashes bind tighter than -o
        ("a/b -o c", LinImp(Over(a, b), c)),
        ("a -o b/c", LinImp(a, Over(b, c))),
        ("(a -o b)/c", Over(LinImp(a, b), c)),
        ("a/(b/c)", Over(a, Over(b, c))),
        ("((a))", a),
        ("a / ( b \\ c )", Over(a, Under(b, c))),
    ],
)
def test_parse_formula(text, expected):
    assert parse_formula(text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "",
        "A",
        "a b",
        "a/",
        "/a",
        "a -o",
        "(a",
        "a)",
        "a//b",
        "1a",
        "a => b",
        # unparenthesized mixes of / and \ have no conventional reading
        "a/b\\c",
        "a\\b/c",
    ],
)
def test_parse_formula_rejects(text):
    with pytest.raises(FormulaSyntaxError):
        parse_formula(text)


def test_syntax_error_position():
    with pytest.raises(FormulaSyntaxError) as e:
        parse_formula("a/(b")
    assert e.value.position == 4
    with pytest.raises(FormulaSyntaxError) as e:
        parse_formula("a/b\\c")
    assert e.value.position == 3


@pytest.mark.parametrize(
    "parse,text,message,position",
    [
        # an unexpected character is reported before any parse error
        (parse_formula, "a $ b", "unexpected character '$'", 2),
        (parse_formula, "a/ $", "unexpected character '$'", 3),
        (parse_formula, "-x", "unexpected character '-'", 0),
        (parse_formula, "A", "unexpected character 'A'", 0),
        (parse_formula, "", "expected a formula, found ''", 0),
        (parse_formula, "a -o", "expected a formula, found ''", 4),
        (parse_formula, "/a", "expected a formula, found '/'", 0),
        (parse_formula, "a//b", "expected a formula, found '/'", 2),
        (parse_sequent, "a, => b", "expected a formula, found '=>'", 3),
        (parse_formula, "(a", "expected rpar, found ''", 2),
        (parse_formula, "(a b", "expected rpar, found 'b'", 3),
        (parse_formula, "((a)", "expected rpar, found ''", 4),
        (parse_sequent, "a, b", "expected arrow, found ''", 4),
        (parse_sequent, "a b", "expected arrow, found 'b'", 2),
        (parse_formula, "a/b\\c", "cannot mix '/' and '\\' without parentheses", 3),
        (parse_formula, "a\\b/c", "cannot mix '/' and '\\' without parentheses", 3),
        (parse_formula, "(a/b)\\c/d", "cannot mix '/' and '\\' without parentheses", 7),
        (parse_formula, "a b", "trailing input 'b'", 2),
        (parse_formula, "a)", "trailing input ')'", 1),
        (parse_formula, "a => b", "trailing input '=>'", 2),
        (parse_sequent, "a => b => c", "trailing input '=>'", 7),
        (parse_sequent, "a => b,", "trailing input ','", 6),
    ],
)
def test_syntax_error_messages_and_positions(parse, text, message, position):
    with pytest.raises(FormulaSyntaxError) as e:
        parse(text)
    assert str(e.value) == f"{message} (at position {position})"
    assert e.value.position == position


_WHITESPACE = ["", " ", "  ", "\t", "\n", "\r\n", " \t\n", "\xa0"]
_TOKEN_TEXTS = ["a", "bc", "x1_", "-o", "=>", "(", ")", "/", "\\", ","]
_CHARACTERS = [*"az0_A-o=>()/\\,$.é", " ", "\t", "\n", "\xa0"]


@st.composite
def _mutated_texts(draw) -> str:
    """The text of a valid formula or sequent with a few characters,
    tokens or whitespace runs inserted, deleted or swapped."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        text = format_formula(random_formula(rng, depth=3))
    else:
        text = format_sequent(random_sequent(rng))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["insert char", "delete char", "insert token", "delete token", "whitespace"]))
        if kind == "insert char":
            text = text[:i] + draw(st.sampled_from(_CHARACTERS)) + text[i:]
        elif kind == "delete char":
            text = text[:i] + text[i + 1 :]
        elif kind == "insert token":
            text = text[:i] + draw(st.sampled_from(_TOKEN_TEXTS)) + text[i:]
        elif kind == "delete token":
            tokens, _ = scan_tokens(text)
            if tokens:
                tok, pos = draw(st.sampled_from(tokens))
                text = text[:pos] + text[pos + len(tok) :]
        else:
            # Replace the whitespace run around position i, possibly empty.
            j = i
            while i > 0 and text[i - 1].isspace():
                i -= 1
            while j < len(text) and text[j].isspace():
                j += 1
            text = text[:i] + draw(st.sampled_from(_WHITESPACE)) + text[j:]
    return text


def _check_error_points_at_what_it_names(text: str, e: FormulaSyntaxError) -> None:
    m = re.fullmatch(r"(.*) \(at position (\d+)\)", str(e), re.DOTALL)
    assert m is not None and int(m[2]) == e.position, str(e)
    message, pos = m[1], e.position
    tokens, bad = scan_tokens(text)
    if message.startswith("unexpected character "):
        # The first character that starts no token, and no earlier one.
        quoted = ast.literal_eval(message.removeprefix("unexpected character "))
        assert len(quoted) == 1 and text[pos] == quoted
        assert bad == pos
        return
    # Other errors come only when every character starts or continues a token.
    assert bad is None, message
    if message.startswith("cannot mix "):
        assert (text[pos], pos) in tokens and text[pos] in "/\\"
        return
    m = re.fullmatch(r"(?:expected (?:a formula|rpar|arrow), found |trailing input )(.*)", message)
    assert m is not None, message
    quoted = ast.literal_eval(m[1])
    if quoted == "":
        assert pos == len(text)
    else:
        assert (quoted, pos) in tokens


@settings(max_examples=400, deadline=None, database=None)
@given(_mutated_texts())
def test_every_syntax_error_points_at_what_it_names(text):
    for parse in (parse_formula, parse_sequent):
        try:
            parse(text)
        except FormulaSyntaxError as e:
            _check_error_points_at_what_it_names(text, e)


def test_parse_sequent():
    s = parse_sequent("a/b, b => a")
    assert s == Sequent((Over(a, b), b), a)
    assert parse_sequent("a => a") == Sequent((a,), a)


@pytest.mark.parametrize("text", ["=> a", "a =>", "a, b", "a => b => c", "a, => b", "a => b,"])
def test_parse_sequent_rejects(text):
    with pytest.raises(FormulaSyntaxError):
        parse_sequent(text)


def test_sequent_needs_nonempty_antecedent():
    with pytest.raises(ValueError):
        Sequent((), a)
    with pytest.raises(ValueError):
        Sequent([], a)


def test_sequent_stores_its_antecedent_as_a_tuple():
    s = Sequent([Over(a, b), b], a)
    assert s.antecedent == (Over(a, b), b) and type(s.antecedent) is tuple
    assert s == Sequent((Over(a, b), b), a) and hash(s) == hash(Sequent((Over(a, b), b), a))
    assert Sequent(iter([a]), a) == Sequent((a,), a)
    for mode in CalculusMode:
        tree, _ = prove(s, mode)
        assert tree.conclusion == s and check_proof(tree, mode)
    assert check_proof(ProofTree(Rule.AX, Sequent([a], a)), CalculusMode.L)
    over_l = ProofTree(Rule.OVER_L, None, (ProofTree(Rule.AX),) * 2, split=(0, 1))
    assert check_proof(ProofTree(Rule.OVER_R, Sequent([Over(a, b)], Over(a, b)), (over_l,)), CalculusMode.L)


@pytest.mark.parametrize(
    "f,text",
    [
        (Over(Over(a, b), c), "a/b/c"),
        (Over(a, Over(b, c)), "a/(b/c)"),
        (Under(a, Under(b, c)), "a\\b\\c"),
        (Under(Under(a, b), c), "(a\\b)\\c"),
        (LinImp(a, LinImp(b, c)), "a -o b -o c"),
        (LinImp(LinImp(a, b), c), "(a -o b) -o c"),
        (LinImp(Over(a, b), c), "a/b -o c"),
        (Over(LinImp(a, b), c), "(a -o b)/c"),
        (Over(a, LinImp(b, c)), "a/(b -o c)"),
        (Over(Under(a, b), c), "(a\\b)/c"),
        (Over(a, Under(b, c)), "a/(b\\c)"),
        (Under(Over(a, b), c), "(a/b)\\c"),
    ],
)
def test_format_minimal_parentheses(f, text):
    assert format_formula(f) == text


def test_format_sequent():
    s = Sequent((Over(a, b), b), a)
    assert format_sequent(s) == "a/b, b => a"
    assert str(s) == "a/b, b => a"


def test_round_trip_fuzz():
    rng = random.Random(7)
    for _ in range(2000):
        f = random_formula(rng, depth=5)
        assert parse_formula(format_formula(f)) == f
    for _ in range(500):
        n = rng.randint(1, 4)
        s = Sequent(
            tuple(random_formula(rng, 3) for _ in range(n)), random_formula(rng, 3)
        )
        assert parse_sequent(format_sequent(s)) == s


def test_subformulas():
    f = parse_formula("a/(b -o c)")
    assert subformulas(f) == {f, a, LinImp(b, c), b, c}
    s = parse_sequent("a/b, b => a")
    assert subformulas(s) == {Over(a, b), a, b}


def test_connective_count():
    assert connective_count(a) == 0
    assert connective_count(parse_formula("a/(b -o c)")) == 2
    assert connective_count(parse_sequent("a/b, b => a")) == 1


def test_equality_is_structural():
    assert parse_formula("a/(b -o c)") == parse_formula("a / (b -o c)")
    assert parse_formula("a/b") != parse_formula("b/a")
    assert hash(parse_formula("a\\b")) == hash(Under(a, b))


CONNECTIVES = (Over, Under, LinImp)


def test_equality_needs_the_same_class():
    for x, y in itertools.product((a, b, Over(a, b)), repeat=2):
        for k1, k2 in itertools.product(CONNECTIVES, repeat=2):
            assert (k1(x, y) == k2(x, y)) == (k1 is k2)
            assert (k1(x, y) != k2(x, y)) == (k1 is not k2)
        assert (Atom("a") == x) == (x is a)
        assert Atom("a") != "a"


def test_repr_is_the_dataclass_repr():
    assert repr(a) == "Atom(name='a')"
    assert repr(Over(a, b)) == "Over(result=Atom(name='a'), arg=Atom(name='b'))"
    assert repr(Under(a, b)) == "Under(arg=Atom(name='a'), result=Atom(name='b'))"
    assert repr(LinImp(a, Over(b, c))) == (
        "LinImp(arg=Atom(name='a'), result=Over(result=Atom(name='b'), arg=Atom(name='c')))"
    )


def test_formulas_are_frozen():
    for f in (a, *(k(a, b) for k in CONNECTIVES)):
        for field in dataclasses.fields(f):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(f, field.name, c)
        assert c not in [getattr(f, field.name) for field in dataclasses.fields(f)]


def test_copies_are_equal_with_equal_hashes():
    rng = random.Random(8)
    formulas = [a, *(k(a, b) for k in CONNECTIVES), *(random_formula(rng, 4) for _ in range(50))]
    for f in formulas:
        for g in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
            assert type(g) is type(f)
            assert g == f and hash(g) == hash(f)
            assert repr(g) == repr(f)


def _deep_formula(depth: int, leaf: Atom) -> Formula:
    """``leaf`` under ``depth`` connectives, nested through results and arguments alike."""
    f = leaf
    for i in range(depth):
        f = CONNECTIVES[i % 3](f, b)
    return f


def test_deep_equality_needs_no_recursion():
    f, g = _deep_formula(20_000, a), _deep_formula(20_000, a)
    assert f == g and not f != g
    assert {f: 1}[g] == 1
    h = _deep_formula(20_000, c)
    assert f != h and not f == h
    assert h not in {f: 1}


def test_deep_formulas_copy_and_parse_without_recursion():
    f = _deep_formula(20_000, a)
    text = format_formula(f)
    with recursion_limit(100):
        assert parse_formula(text) is f
        assert parse_formula("(" * 20_000 + "a" + ")" * 20_000) is a
        for g in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
            assert g is f


def test_parsed_and_constructed_formulas_are_one_object():
    f = parse_formula("a/(b -o c)")
    assert f is Over(a, LinImp(b, c))
    assert f is Over(result=a, arg=LinImp(arg=b, result=c))
    assert f is Over(a, arg=LinImp(b, result=c))
    assert f is Over(Atom(name="a"), LinImp(Atom("b"), Atom("c")))
    for g in (pickle.loads(pickle.dumps(f)), copy.copy(f), copy.deepcopy(f)):
        assert g is f


def test_constructors_check_their_operands():
    for bad in (lambda: Over(a), lambda: Over(a, b, c), lambda: Over(a, b, arg=c), lambda: Under(a, res=b)):
        with pytest.raises(TypeError):
            bad()


def test_construction_from_many_threads_gives_one_object():
    # Texts of formulas no longer alive, so that each thread's parse races to insert them.
    texts = [format_formula(random_formula(random.Random(i), depth=6)) for i in range(300)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(6) as pool:
            runs = [pool.submit(lambda: [parse_formula(t) for t in texts]) for _ in range(6)]
            results = [r.result(timeout=60) for r in runs]
    finally:
        sys.setswitchinterval(interval)
    for formulas in results[1:]:
        assert all(f is g for f, g in zip(formulas, results[0]))
    for f in results[0]:
        _assert_facts(f)


def _assert_facts(f: Formula) -> None:
    """Every subformula of ``f`` carries the head, sides, atom count and usability the oracles give."""
    for g in subformulas(f):
        head, sides = oracle_chain(g)
        assert g._head is (None if head is g else head)
        assert g._sides == ("\\" in sides) * syntax._LEFT_ARG + ("/" in sides) * syntax._RIGHT_ARG
        assert g._atoms == oracle_atoms(g)
        for mode in CalculusMode:
            positive, negative = prover._POLARITIES[mode]
            assert {sign for sign, bit in (("+", positive), ("-", negative)) if g._usable & bit} == oracle_usable(g, mode)


def test_shape_facts_match_the_oracles():
    rng = random.Random(11)
    for _ in range(400):
        _assert_facts(random_formula(rng, depth=rng.randint(0, 6)))
    _assert_facts(parse_formula("((a -o b)/(c\\d))\\(e -o (f/g -o h))"))


def test_long_linimp_chain_parses_without_recursion():
    text = "a -o " * 20_000 + "b"
    f = parse_formula(text)
    assert connective_count(f) == 20_000
    assert format_formula(f) == text


def test_dropped_formulas_leave_the_table():
    gc.collect()
    size = len(_nodes)
    f = _deep_formula(20_000, Atom("leaf"))
    n = 6_000
    chain = parse_sequent("b" + "/a" * n + " => " + "a -o " * n + "b")
    assert len(_nodes) > size + 20_000
    del f, chain
    gc.collect()
    assert len(_nodes) == size


def test_dropped_formulas_leave_the_table_without_the_collector():
    # No node refers to itself, an atom or a -o through its head above
    # all, so reference counting alone frees a formula.
    gc.collect()
    size = len(_nodes)
    gc.disable()
    try:
        f = _deep_formula(20_000, Atom("leaf"))
        n = 6_000
        chain = parse_sequent("b" + "/a" * n + " => " + "a -o " * n + "b")
        assert len(_nodes) > size + 20_000
        del f, chain
        assert len(_nodes) == size
    finally:
        gc.enable()


def test_a_dead_entry_gives_way_to_a_live_node(monkeypatch):
    # With the removal callback off, a dropped formula leaves a dead
    # reference in the table, as between a node's death and its callback
    # in another thread.  The next miss on its key must remove it and
    # publish a live node.
    x, y = Atom("dead_result"), Atom("dead_arg")
    key = (Over, x, y)
    monkeypatch.setattr(syntax, "_forget", lambda ref: None)
    f = parse_formula("dead_result/(dead_arg)")
    assert f is Over(x, y) and _nodes[key]() is f
    del f
    assert _nodes[key]() is None
    g = Over(x, y)
    assert g.result is x and g.arg is y
    assert parse_formula("dead_result/dead_arg") is g
    assert _nodes[key]() is g
    _assert_facts(g)
    # The node's callback is the no-op too: leave no dead entry behind.
    del g
    syntax._remove_dead_weakref(_nodes, key)
    assert key not in _nodes


def test_connective_count_of_a_deep_formula():
    f = a
    for i in range(20_000):
        f = CONNECTIVES[i % 3](f, b)
    assert connective_count(f) == 20_000
    assert connective_count(Sequent((f, f), a)) == 40_000


_FRESH_IMPORTS_SCRIPT = """
import gc, importlib, sys

def live_node_classes():
    gc.collect()
    return sum(
        1 for o in gc.get_objects()
        if isinstance(o, type) and o.__name__ == "_Node" and o.__module__ == "lambek.syntax"
    )

for _ in range(3):
    for name in [m for m in sys.modules if m == "lambek" or m.startswith("lambek.")]:
        del sys.modules[name]
    importlib.import_module("lambek")
    print(live_node_classes())
"""


def test_fresh_imports_leave_no_classes_behind():
    # A module-level alias subscripted through typing (Union[...],
    # typing.Callable[...]) sits in typing's caches, which would keep each
    # dropped import's classes, and every function that refers to them, alive.
    src = str(Path(lambek.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", _FRESH_IMPORTS_SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.split() == ["1", "1", "1"]


def test_import_leaves_the_recursion_limit_alone():
    src = str(Path(lambek.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = "import sys; before = sys.getrecursionlimit(); import lambek; print(before, sys.getrecursionlimit())"
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    before, after = run.stdout.split()
    assert before == after
