"""Proof trees for the sequent calculus, plus JSON and text renderings.

``Rule`` is the rule table: each member holds its number of premises
(0 for Ax, 1 for right rules, 2 for left rules), the connective it
introduces and the rule data that place it.  A node records its rule,
its conclusion sequent, its premises and the data its rule takes,
checked where the node is built:

* ``split = (u, t)`` for /L and \\L: the conclusion antecedent is
  ``U ++ [functor] ++ T ++ V`` (/L) or ``U ++ T ++ [functor] ++ V``
  (\\L) with ``len(U) == u`` and ``len(T) == t``.  The first premise is
  always ``T => argument`` and the second the conclusion with the
  functor's whole span replaced by its result.
* ``insert = k`` for -oR: the premise re-inserts the argument at
  position ``k`` of the conclusion antecedent.

``premise_conclusions`` is this schema written once: the sequents a
node's premises must have, given its rule, conclusion and rule data.
The checker and the JSON encoder and decoder all use it.

The JSON form lists the nodes in preorder, after the root's sequent
as concrete text.  A node's rule fixes its number of premises, so the
list needs no nesting and no premise counts.  A node carries a
``sequent`` only when its conclusion is not the one its parent's rule
data imply (the root's is the top-level one), so a correct proof
stores one sequent in all and any tree, correct or not, round-trips
exactly::

    {"sequent": "a/b, b => a",
     "nodes": [{"rule": "/L", "split": [0, 1]}, {"rule": "Ax"}, {"rule": "Ax"}]}

The decoder takes a node's ``sequent`` when present and derives it
otherwise.  It also loads the earlier nested form, in which each node
lists its ``premises`` and the root carries the sequent, with or
without a sequent on every other node: an explicit-stack walk turns it
into the same node list first.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from typing import Any, Iterator

from .syntax import LinImp, Over, Sequent, Under, _dataclass_repr, format_sequent, parse_sequent

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
        member._value_ = name
        member.arity = arity
        member.connective = connective
        member.data = data
        return member

    def __str__(self) -> str:
        return self.value


def _check_shape(rule: Rule, n: int, split: Any, insert: Any) -> None:
    """Raise ValueError unless a ``rule`` node takes ``n`` premises and this rule data."""
    if n != rule.arity:
        raise ValueError(f"{rule} takes {rule.arity} premises, got {n}")
    if rule.data == "split":
        ok = insert is None and type(split) is tuple and len(split) == 2 and type(split[0]) is int and type(split[1]) is int
    else:
        ok = split is None and (type(insert) is int if rule.data == "insert" else insert is None)
    if not ok:
        raise ValueError(f"{rule} node with split={split!r}, insert={insert!r}: /L and \\L take a split of two ints, -oR an int insert")


@dataclass(frozen=True, eq=False, repr=False)
class ProofTree:
    """A proof node.  Trees are equal when their nodes have the same rule,
    conclusion, split and insert and their premises are equal in order.

    The ``repr`` is the dataclass one, and a copy or pickle goes through
    the proof JSON; neither recurses per level of the tree.
    """

    rule: Rule
    conclusion: Sequent
    premises: tuple[ProofTree, ...] = ()
    split: tuple[int, int] | None = None
    insert: int | None = None

    def __post_init__(self) -> None:
        _check_shape(self.rule, len(self.premises), self.split, self.insert)

    def _key(self) -> list[tuple]:
        return [(n.rule, n.split, n.insert, n.conclusion) for n in self.nodes()]

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, ProofTree) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._key()))

    def __repr__(self) -> str:
        return _dataclass_repr(self, ProofTree)

    def __reduce__(self):
        return proof_from_json, (proof_to_json(self),)

    def nodes(self) -> list[ProofTree]:
        """All nodes in preorder."""
        out = []
        stack = [self]
        while stack:
            node = stack.pop()
            out.append(node)
            stack.extend(reversed(node.premises))
        return out

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


def premise_conclusions(
    rule: Rule, conclusion: Sequent, split: tuple[int, int] | None, insert: int | None
) -> tuple[Sequent, ...] | None:
    """The conclusions a node's premises must have, in premise order.

    None when the rule data do not apply to ``conclusion``: a missing or
    out-of-range split or insert, or a succedent or functor of the wrong
    connective.  Ax gives ``()``; whether its conclusion is an axiom, and
    whether the mode has the rule at all, are left to the caller.
    """
    ant, succ = conclusion.antecedent, conclusion.succedent
    if not rule.arity:
        return ()
    connective = rule.connective
    if rule.arity == 1:
        # The argument goes back at the end (/R), the start (\R) or ``insert`` (-oR).
        k = len(ant) if connective is Over else 0 if connective is Under else insert
        if not (isinstance(succ, connective) and k is not None and 0 <= k <= len(ant)):
            return None
        return (Sequent(ant[:k] + (succ.arg,) + ant[k:], succ.result),)
    if split is None:
        return None
    # The functor sits at ``u`` ahead of its span (/L) or at ``u + t`` after it (\L).
    u, t = split
    f, lo = (u, u + 1) if connective is Over else (u + t, u)
    if not (0 <= u and 1 <= t and u + t < len(ant) and isinstance(ant[f], connective)):
        return None
    functor = ant[f]
    return Sequent(ant[lo : lo + t], functor.arg), Sequent(ant[:u] + (functor.result,) + ant[u + t + 1 :], succ)


def _preorder(t: ProofTree) -> Iterator[tuple[ProofTree, bool]]:
    """Each node of ``t`` in preorder, with whether its conclusion is implied:
    the root's always is, and any other node's when it is the one its
    parent's rule data give.

    Proof JSON stores the conclusions that are not implied beside the
    root's, and a correct proof implies them all.
    """
    stack = [(t, True)]
    while stack:
        node, implied = stack.pop()
        yield node, implied
        if node.premises:
            given = premise_conclusions(node.rule, node.conclusion, node.split, node.insert)
            stack += reversed([(p, given is not None and given[i] == p.conclusion) for i, p in enumerate(node.premises)])


def _node_json(t: ProofTree, with_sequent: bool) -> dict[str, Any]:
    node: dict[str, Any] = {"rule": t.rule.value}
    if with_sequent:
        node["sequent"] = format_sequent(t.conclusion)
    if t.split is not None:
        node["split"] = list(t.split)
    if t.insert is not None:
        node["insert"] = t.insert
    return node


def proof_to_json(t: ProofTree) -> dict[str, Any]:
    """The root's sequent and the nodes in preorder, each with a sequent only where needed."""
    nodes = [_node_json(node, not implied) for node, implied in _preorder(t)]
    return {"sequent": format_sequent(t.conclusion), "nodes": nodes}


_RULE_OF_NAME = {rule.value: rule for rule in Rule}  # a dict lookup is cheaper than Rule(name)


def _fields(node: dict[str, Any]) -> tuple[Rule, Any, Any]:
    """A JSON node's rule and rule data, its split list made a tuple."""
    rule = _RULE_OF_NAME.get(node["rule"])
    if rule is None:
        raise ValueError(f"{node['rule']!r} is not a rule name")
    split = node.get("split")
    return rule, tuple(split) if type(split) is list else split, node.get("insert")


def _flatten(root: dict[str, Any]) -> dict[str, Any]:
    """The nested form's nodes in preorder, each checked to list as many premises as its rule takes."""
    nodes = []
    stack = [root]
    while stack:
        node = stack.pop()
        kids = node.get("premises", [])
        rule, split, insert = _fields(node)
        _check_shape(rule, len(kids), split, insert)
        nodes.append(node)
        stack += reversed(kids)
    return {"sequent": root["sequent"], "nodes": nodes}


def proof_from_json(data: dict[str, Any]) -> ProofTree:
    """Inverse of ``proof_to_json``; also loads the nested form.

    Raises ValueError on a malformed node (one without the rule data its
    rule takes or with data it does not take, a split that is not a list
    of two integers, an insert that is not an integer; booleans are not
    integers here), on a node list that ends before the tree does or
    goes on after it, and on a node without a sequent whose parent's
    rule data imply none.
    """
    try:
        if "nodes" not in data:
            data = _flatten(data)
        # Top-down: each node's fields, its conclusion taken from its own
        # sequent or from the slot its parent left.  Then bottom-up, in
        # reverse preorder, the trees themselves.
        slots: list[Sequent | None] = [parse_sequent(data["sequent"])]
        preorder = []
        for node in data["nodes"]:
            if not slots:
                raise ValueError("proof node list goes on after the tree ends")
            conclusion = slots.pop()
            rule, split, insert = _fields(node)
            _check_shape(rule, rule.arity, split, insert)
            text = node.get("sequent")
            if text is not None:
                conclusion = parse_sequent(text)
            elif conclusion is None:
                raise ValueError(f"{rule} node needs a sequent: its parent's rule data do not apply")
            preorder.append((rule, conclusion, split, insert))
            if rule.arity:
                slots += reversed(premise_conclusions(rule, conclusion, split, insert) or (None,) * rule.arity)
        if slots:
            raise ValueError("proof node list ends before the tree does")
        built: list[ProofTree] = []
        for rule, conclusion, split, insert in reversed(preorder):
            premises = tuple(built.pop() for _ in range(rule.arity))
            built.append(ProofTree(rule, conclusion, premises, split=split, insert=insert))
        return built[0]
    except (KeyError, IndexError, TypeError, AttributeError) as e:
        raise ValueError(f"malformed proof node: {e!r}") from e


def proof_to_json_text(t: ProofTree) -> str:
    return json.dumps(proof_to_json(t), separators=(",", ":"))


def proof_from_json_text(text: str) -> ProofTree:
    return proof_from_json(json.loads(text))


def render_proof(t: ProofTree) -> str:
    """Indented tree, one node per line, rule names right-aligned."""
    rows: list[tuple[str, str]] = []
    stack = [(t, 0)]
    while stack:
        node, depth = stack.pop()
        rows.append(("  " * depth + format_sequent(node.conclusion), node.rule.value))
        stack += ((p, depth + 1) for p in reversed(node.premises))
    width = max(len(text) for text, _ in rows) + 3
    return "\n".join(f"{text:<{width}}{rule:>4}" for text, rule in rows)
