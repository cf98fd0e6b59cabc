"""Proof trees for the sequent calculus, plus JSON and text renderings.

``Rule`` is the rule table: each member holds its number of premises
(0 for Ax, 1 for right rules, 2 for left rules), the connective it
introduces and the rule data that place it.  A node records its rule,
its premises and the data its rule takes, checked where the node is
built:

* ``split = (u, t)`` for /L and \\L: the conclusion antecedent is
  ``U ++ [functor] ++ T ++ V`` (/L) or ``U ++ T ++ [functor] ++ V``
  (\\L) with ``len(U) == u`` and ``len(T) == t``.  The first premise is
  always ``T => argument`` and the second the conclusion with the
  functor's whole span replaced by its result.
* ``insert = k`` for -oR: the premise re-inserts the argument at
  position ``k`` of the conclusion antecedent.

Only a tree's root holds a sequent, its ``conclusion``; an inner node's
is None, and ``ProofTree`` raises ValueError on a premise that has one.
To build bottom-up, give each premise as ``replace(t, conclusion=None)``.
``premise_conclusions`` is the schema above written once, and
``ProofTree.conclusions`` the one top-down walk that derives every
other node's conclusion with it, so no two conclusions in a tree can
disagree.  Rule data that do not apply where they sit (a split out of
range, a functor or succedent of the wrong connective) make the tree
no proof: the walk gives the nodes below them no conclusion, and
``check_proof`` rejects it.

Nodes are immutable, and a proof is a DAG of them: the search shares
the subtree of a state it solved once, and every inner Ax node is the
one ``_AX_LEAF``.  So no caller may rely on a node's identity or count
distinct node objects; ``nodes()`` lists a shared node at each place.

The JSON form lists the nodes in preorder, after the root's sequent
as concrete text.  A node's rule fixes its number of premises, so the
list needs no nesting and no premise counts::

    {"sequent": "a/b, b => a",
     "nodes": [{"rule": "/L", "split": [0, 1]}, {"rule": "Ax"}, {"rule": "Ax"}]}

This is the one form ``proof_from_json`` reads.
"""

from __future__ import annotations

import enum
import functools
import json
from dataclasses import dataclass, fields
from typing import Any, Iterator

from .syntax import Formula, LinImp, Over, Sequent, Under, _dataclass_repr, format_formula, format_sequent, parse_sequent

__all__ = [
    "Rule",
    "ProofTree",
    "premise_conclusions",
    "proof_to_json",
    "proof_from_json",
    "proof_to_json_text",
    "proof_from_json_text",
    "render_proof",
]


class Rule(enum.Enum):
    # name (the value), number of premises, connective introduced, rule data
    AX = ("Ax", 0, None, None)
    OVER_L = ("/L", 2, Over, "split")
    OVER_R = ("/R", 1, Over, None)
    UNDER_L = ("\\L", 2, Under, "split")
    UNDER_R = ("\\R", 1, Under, None)
    LINIMP_R = ("-oR", 1, LinImp, "insert")

    def __new__(cls, name: str, arity: int, connective: type | None, data: str | None) -> Rule:
        member = object.__new__(cls)
        member._value_ = member.symbol = name  # ``value`` is a slow property, ``symbol`` a plain attribute
        member.arity = arity
        member.connective = connective
        member.data = data
        return member

    def __str__(self) -> str:
        return self.symbol


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class ProofTree:
    """A proof node: its rule, premises and rule data, and at the root of a
    tree its conclusion.  The rule must take that many premises and its
    rule data, a split of two ints for /L and \\L and an int insert for
    -oR, and every premise's conclusion must be None (else ValueError).
    Trees are equal when their conclusions are and their nodes in
    preorder have the same rule, split and insert.

    The ``repr`` is the dataclass one, and a copy or pickle goes through
    the node list; neither recurses per level of the tree.
    """

    rule: Rule
    conclusion: Sequent | None
    premises: tuple[ProofTree, ...]
    split: tuple[int, int] | None
    insert: int | None

    def __init__(
        self,
        rule: Rule,
        conclusion: Sequent | None = None,
        premises: tuple[ProofTree, ...] = (),
        split: tuple[int, int] | None = None,
        insert: int | None = None,
    ) -> None:
        if len(premises) != rule.arity:
            raise ValueError(f"{rule} takes {rule.arity} premises, got {len(premises)}")
        data = rule.data
        if data == "split":
            ok = insert is None and type(split) is tuple and len(split) == 2 and type(split[0]) is int and type(split[1]) is int
        else:
            ok = split is None and (type(insert) is int if data == "insert" else insert is None)
        if not ok:
            raise ValueError(f"{rule} node with split={split!r}, insert={insert!r}: /L and \\L take a split of two ints, -oR an int insert")
        for p in premises:
            if p.conclusion is not None:
                raise ValueError(f"{rule} premise {format_sequent(p.conclusion)} has a conclusion; only the root holds one")
        _set_rule(self, rule)
        _set_conclusion(self, conclusion)
        _set_premises(self, premises)
        _set_split(self, split)
        _set_insert(self, insert)

    def _key(self) -> list[tuple]:
        return [(n.rule, n.split, n.insert) for n in self.nodes()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProofTree):
            return NotImplemented
        return self.conclusion == other.conclusion and self._key() == other._key()

    def __hash__(self) -> int:
        return hash((self.conclusion, *self._key()))

    def __repr__(self) -> str:
        return _dataclass_repr(self, ProofTree)

    def __reduce__(self):
        return _assemble, (self.conclusion, self._key())

    def nodes(self) -> list[ProofTree]:
        """All nodes in preorder."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.premises))
        return out

    def conclusions(self) -> Iterator[tuple[ProofTree, Sequent | None]]:
        """Each node in preorder with its conclusion, derived from the root's:
        None below rule data that do not apply, and in a tree whose root
        has none."""
        for node, ant, succ in _walk(self):
            yield node, None if ant is None else Sequent(tuple(ant), succ)

    def rule_count(self, rule: Rule) -> int:
        return sum(1 for n in self.nodes() if n.rule is rule)

    def depth(self) -> int:
        deepest = 0
        stack = [(self, 1)]
        while stack:
            node, d = stack.pop()
            deepest = max(deepest, d)
            stack.extend((p, d + 1) for p in node.premises)
        return deepest


# The fields' slot setters, as a frozen dataclass's own __setattr__ raises.
_set_rule, _set_conclusion, _set_premises, _set_split, _set_insert = (getattr(ProofTree, f.name).__set__ for f in fields(ProofTree))

# The one inner Ax node: a leaf without a conclusion holds nothing else.
_AX_LEAF = ProofTree(Rule.AX)


def premise_conclusions(
    rule: Rule, ant: list[Formula], succ: Formula, split: tuple[int, int] | None, insert: int | None
) -> list[tuple[list[Formula], Formula]] | None:
    """The antecedents and succedents a node's premises must have, in
    premise order, when it concludes ``ant => succ``.

    The last premise's antecedent is ``ant`` itself, changed in place.
    None when the rule data do not apply: an out-of-range split or
    insert, or a succedent or functor of the wrong connective.  Ax gives
    ``[]``; whether its conclusion is an axiom, and whether the mode has
    the rule at all, are left to the caller.
    """
    arity, connective, n = rule.arity, rule.connective, len(ant)
    if arity == 1:
        # The argument goes back at the end (/R), the start (\R) or ``insert`` (-oR).
        k = n if connective is Over else 0 if connective is Under else insert
        if type(succ) is not connective or not 0 <= k <= n:
            return None
        ant.insert(k, succ.arg)
        return [(ant, succ.result)]
    if not arity:
        return []
    # The functor sits at ``u`` ahead of its span (/L) or at ``u + t`` after it (\L).
    u, t = split
    f, lo = (u, u + 1) if connective is Over else (u + t, u)
    if not (0 <= u and 1 <= t and u + t < n) or type(ant[f]) is not connective:
        return None
    functor = ant[f]
    span = ant[lo : lo + t]
    ant[u : u + t + 1] = (functor.result,)
    return [(span, functor.arg), (ant, succ)]


def _walk(t: ProofTree) -> Iterator[tuple[ProofTree, list[Formula] | None, Formula | None]]:
    """Each node of ``t`` in preorder with its conclusion's antecedent and
    succedent, or None and None where ``ProofTree.conclusions`` has None.

    No sequent is built: the antecedent is a list that becomes the last
    premise's once the walk goes on, so read it before then.
    """
    c = t.conclusion
    stack = [(t, None, None) if c is None else (t, list(c.antecedent), c.succedent)]
    while stack:
        node, ant, succ = stack.pop()
        yield node, ant, succ
        if node.premises:
            given = None if ant is None else premise_conclusions(node.rule, ant, succ, node.split, node.insert)
            stack += reversed([(p, *g) for p, g in zip(node.premises, given or [(None, None)] * 2)])


def _assemble(conclusion: Sequent | None, rows: list[tuple[Rule, Any, Any]]) -> ProofTree:
    """The tree under ``conclusion`` whose nodes, in preorder, have these
    rules and rule data; every inner Ax node is ``_AX_LEAF``."""
    built: list[ProofTree] = []  # the subtrees built so far, the next one's first premise last
    for rule, split, insert in rows[:0:-1]:
        k = rule.arity
        if k:
            node = ProofTree(rule, None, tuple(built[: -k - 1 : -1]), split, insert)
            del built[-k:]
        else:  # Ax: the shared leaf, unless ProofTree refuses its data
            node = _AX_LEAF if split is None and insert is None else ProofTree(rule, None, (), split, insert)
        built.append(node)
    if conclusion is None and rows[0] == (Rule.AX, None, None):
        return _AX_LEAF  # a copy or pickle of the leaf itself
    rule, split, insert = rows[0]
    return ProofTree(rule, conclusion, tuple(reversed(built)), split, insert)


def proof_to_json(t: ProofTree) -> dict[str, Any]:
    """The root's sequent and every node's rule and rule data, in preorder.

    ValueError on an inner node, which has no sequent of its own."""
    if t.conclusion is None:
        raise ValueError("an inner proof node has no conclusion to write")
    nodes, stack = [], [t]
    while stack:
        node = stack.pop()
        out: dict[str, Any] = {"rule": node.rule.symbol}
        if node.split is not None:
            out["split"] = [*node.split]
        elif node.insert is not None:  # a node has at most one of the two
            out["insert"] = node.insert
        nodes.append(out)
        stack += node.premises[::-1]
    return {"sequent": format_sequent(t.conclusion), "nodes": nodes}


_RULE_OF_NAME = {rule.symbol: rule for rule in Rule}  # a dict lookup is cheaper than Rule(name)


def _fields(node: dict[str, Any]) -> tuple[Rule, Any, Any]:
    """A JSON node's rule and rule data, its split list made a tuple;
    ValueError on a key other than ``rule`` and the data it carries."""
    rule = _RULE_OF_NAME.get(node["rule"])
    if rule is None:
        raise ValueError(f"{node['rule']!r} is not a rule name")
    split, insert = node.get("split"), node.get("insert")
    if len(node) != 1 + (split is not None) + (insert is not None):
        raise ValueError(f"proof node keys {list(node)} are not rule and its split or insert")
    return rule, tuple(split) if type(split) is list else split, insert


def proof_from_json(data: dict[str, Any]) -> ProofTree:
    """Inverse of ``proof_to_json``: the root's ``sequent`` and the
    ``nodes`` in preorder, each with its ``rule`` and, as its rule takes
    them, a ``split`` or an ``insert``.

    Raises ValueError on any other key, top-level or on a node (so on a
    node ``sequent`` or ``premises``), on a malformed node (one without
    the rule data its rule takes or with data it does not take, a split
    that is not a list of two integers, an insert that is not an
    integer; booleans are not integers here), and on a node list that
    ends before the tree does or goes on after it.  Rule data that do
    not apply where they sit load, as a tree that is no proof.
    """
    try:
        if data.keys() != {"sequent", "nodes"}:
            raise ValueError(f"proof keys {list(data)} are not sequent and nodes")
        conclusion = parse_sequent(data["sequent"])
        nodes, open_slots = [], 1  # premises still to come, the root's slot included
        for node in data["nodes"]:
            if not open_slots:
                raise ValueError("proof node list goes on after the tree ends")
            nodes.append(_fields(node))
            open_slots += nodes[-1][0].arity - 1
        if open_slots:
            raise ValueError("proof node list ends before the tree does")
        return _assemble(conclusion, nodes)
    except (KeyError, IndexError, TypeError, AttributeError) as e:
        raise ValueError(f"malformed proof node: {e!r}") from e


_ENCODER = json.JSONEncoder(separators=(",", ":"))


def proof_to_json_text(t: ProofTree) -> str:
    return _ENCODER.encode(proof_to_json(t))


def proof_from_json_text(text: str) -> ProofTree:
    return proof_from_json(json.loads(text))


def render_proof(t: ProofTree) -> str:
    """Indented tree, one node per line, rule names right-aligned; ``?``
    for a node without a conclusion (``ProofTree.conclusions``).

    Each distinct formula is formatted once, but the text still grows
    with the proof's depth times its antecedents' length.
    """
    text_of = functools.cache(format_formula)
    rows: list[tuple[str, str]] = []
    todo: list[int] = []  # for each node above, its premises not yet shown
    for node, ant, succ in _walk(t):
        sequent = "?" if ant is None else f"{', '.join(map(text_of, ant))} => {text_of(succ)}"
        rows.append(("  " * len(todo) + sequent, node.rule.symbol))
        todo.append(len(node.premises))
        while todo and not todo[-1]:
            todo.pop()
            if todo:
                todo[-1] -= 1
    width = max(len(text) for text, _ in rows) + 3
    return "\n".join(f"{text:<{width}}{rule:>4}" for text, rule in rows)
