from __future__ import annotations

import random

from helpers import ATOMS, forward_proof, oracle_balanced, random_formula, random_sequent, shuffled_sequent
from lambek import (
    Atom,
    CalculusMode,
    Sequent,
    balanced,
    count,
    formula_counts,
    parse_formula,
    parse_sequent,
    polarity_report,
    sequent_counts,
)


def test_count_base_cases():
    assert count(Atom("b"), "b") == 1
    assert count(Atom("c"), "b") == 0


def test_count_examples():
    f = parse_formula("a/b")
    assert formula_counts(f) == {"a": 1, "b": -1}
    # count(A # B) = count(A) - count(B) for every connective
    assert formula_counts(parse_formula("b\\a")) == {"a": 1, "b": -1}
    assert formula_counts(parse_formula("b -o a")) == {"a": 1, "b": -1}
    assert formula_counts(parse_formula("a/a")) == {}
    assert formula_counts(parse_formula("x/(c -o (b -o x))")) == {"b": 1, "c": 1}
    assert formula_counts(parse_formula("(y/b)/z")) == {"y": 1, "b": -1, "z": -1}


def test_count_recurrence_fuzz():
    rng = random.Random(11)
    for _ in range(1500):
        f = random_formula(rng, depth=5)
        if isinstance(f, Atom):
            continue
        whole = formula_counts(f)
        res, arg = formula_counts(f.result), formula_counts(f.arg)
        for name in set(whole) | set(res) | set(arg):
            assert whole.get(name, 0) == res.get(name, 0) - arg.get(name, 0)


def test_count_equals_signed_occurrences():
    # count(b, f) is the number of positive occurrences of b minus the
    # number of negative ones; the polarity walk is the oracle.
    rng = random.Random(12)
    for _ in range(500):
        f = random_formula(rng, depth=4)
        report = polarity_report(Sequent((Atom("q0"),), f))
        for name in ATOMS:
            pos = sum(
                1
                for o in report.occurrences
                if o.side == "succedent" and o.formula == Atom(name) and o.polarity == "positive"
            )
            neg = sum(
                1
                for o in report.occurrences
                if o.side == "succedent" and o.formula == Atom(name) and o.polarity == "negative"
            )
            assert count(f, name) == pos - neg


def test_sequent_counts_and_balance():
    s = parse_sequent("a/b, b => a")
    lhs, rhs = sequent_counts(s)
    assert lhs == {"a": 1}
    assert rhs == {"a": 1}
    assert balanced(s)
    assert not balanced(parse_sequent("a/b => a"))
    assert not balanced(parse_sequent("x => y"))
    assert balanced(parse_sequent("s/c, b\\c => b -o s"))


def test_balanced_matches_oracle_fuzz():
    # Random sequents are mostly unbalanced; forward-generated and
    # shuffled ones are balanced, and a swapped succedent often is not.
    rng = random.Random(23)
    kinds = (
        lambda mode: random_sequent(rng),
        lambda mode: forward_proof(rng, mode).conclusion,
        lambda mode: shuffled_sequent(rng, mode),
    )
    seen = set()
    for k in range(1500):
        s = kinds[k % 3](list(CalculusMode)[k // 3 % 3])
        if k % 2:
            s = Sequent(s.antecedent, random_formula(rng, depth=2))
        seen.add(oracle_balanced(s))
        assert balanced(s) == oracle_balanced(s), str(s)
    assert seen == {True, False}


def test_polarity_report_roots():
    s = parse_sequent("a/b, c => c")
    rep = polarity_report(s)
    roots = [o for o in rep.occurrences if o.path == ()]
    assert [(o.side, o.index, o.polarity) for o in roots] == [
        ("antecedent", 0, "negative"),
        ("antecedent", 1, "negative"),
        ("succedent", 0, "positive"),
    ]


def test_polarity_report_flags_negative_linimp():
    rep = polarity_report(parse_sequent("a -o b => b"))
    assert len(rep.negative_linimp) == 1
    occ = rep.negative_linimp[0]
    assert occ.side == "antecedent" and occ.index == 0 and occ.path == ()
    # positive position: fine
    assert polarity_report(parse_sequent("a => b -o a")).negative_linimp == ()


def test_polarity_paths_follow_printed_order():
    rep = polarity_report(parse_sequent("q => a/(b -o c)"))
    by_path = {o.path: o for o in rep.occurrences if o.side == "succedent"}
    assert by_path[()].formula == parse_formula("a/(b -o c)")
    assert by_path[(0,)].formula == Atom("a")
    assert by_path[(1,)].formula == parse_formula("b -o c")
    assert by_path[(1, 0)].formula == Atom("b")
    assert by_path[(1, 1)].formula == Atom("c")
    assert by_path[(1,)].polarity == "negative"
    assert by_path[(1, 1)].polarity == "negative"
    assert by_path[(1, 0)].polarity == "positive"
