"""Proof trees for the sequent calculus, plus JSON and text renderings.

A node records its rule, its conclusion sequent, its premises (0 for
Ax, 1 for right rules, 2 for left rules) and the positional data needed
to replay the rule application:

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

The JSON form mirrors the tree; ``premises`` nests recursively and
``sequent`` is concrete sequent text.  The root always carries its
sequent.  Below the root a node carries one only when its conclusion
is not the one its parent's rule data imply, so a correct proof stores
one sequent in all and any tree, correct or not, round-trips exactly::

    {"rule": "/L", "sequent": "a/b, b => a", "split": [0, 1],
     "premises": [{"rule": "Ax", "premises": []},
                  {"rule": "Ax", "premises": []}]}

The decoder takes a node's ``sequent`` when present and derives it
otherwise, so files with a sequent on every node load as well.
"""

from __future__ import annotations

import enum
import json
import sys
from dataclasses import dataclass
from typing import Any, Iterator

from .syntax import LinImp, Over, Sequent, Under, format_sequent, parse_sequent

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
    AX = "Ax"
    OVER_L = "/L"
    OVER_R = "/R"
    UNDER_L = "\\L"
    UNDER_R = "\\R"
    LINIMP_R = "-oR"

    def __str__(self) -> str:
        return self.value


# The search, the proof walks here and the -o and slash chains of the
# parser need no recursion, but two things still recurse: the json module
# twice per proof level (a node's dict and its premises list), and
# syntax._Parser once per level of parentheses.
sys.setrecursionlimit(max(sys.getrecursionlimit(), 10_000))

_ARITY = {
    Rule.AX: 0,
    Rule.OVER_R: 1,
    Rule.UNDER_R: 1,
    Rule.LINIMP_R: 1,
    Rule.OVER_L: 2,
    Rule.UNDER_L: 2,
}


def _check_arity(rule: Rule, n: int) -> None:
    if n != _ARITY[rule]:
        raise ValueError(f"{rule} takes {_ARITY[rule]} premises, got {n}")


@dataclass(frozen=True, eq=False)
class ProofTree:
    """A proof node.  Trees are equal when their nodes have the same rule,
    conclusion, split and insert and their premises are equal in order."""

    rule: Rule
    conclusion: Sequent
    premises: tuple[ProofTree, ...] = ()
    split: tuple[int, int] | None = None
    insert: int | None = None

    def __post_init__(self) -> None:
        _check_arity(self.rule, len(self.premises))

    def _key(self) -> list[tuple]:
        return [(n.rule, n.split, n.insert, n.conclusion) for n in self.nodes()]

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, ProofTree) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self._key()))

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
    if rule is Rule.AX:
        return ()
    if rule is Rule.OVER_R:
        if not isinstance(succ, Over):
            return None
        return (Sequent(ant + (succ.arg,), succ.result),)
    if rule is Rule.UNDER_R:
        if not isinstance(succ, Under):
            return None
        return (Sequent((succ.arg,) + ant, succ.result),)
    if rule is Rule.LINIMP_R:
        if not (isinstance(succ, LinImp) and insert is not None and 0 <= insert <= len(ant)):
            return None
        return (Sequent(ant[:insert] + (succ.arg,) + ant[insert:], succ.result),)
    if split is None:
        return None
    u, t = split
    if rule is Rule.OVER_L:
        if not (0 <= u and 1 <= t and u + 1 + t <= len(ant)):
            return None
        functor = ant[u]
        if not isinstance(functor, Over):
            return None
        span, rest = ant[u + 1 : u + 1 + t], ant[u + 1 + t :]
    else:
        if not (0 <= u and 1 <= t and u + t < len(ant)):
            return None
        functor = ant[u + t]
        if not isinstance(functor, Under):
            return None
        span, rest = ant[u : u + t], ant[u + t + 1 :]
    return Sequent(span, functor.arg), Sequent(ant[:u] + (functor.result,) + rest, succ)


def _preorder(t: ProofTree) -> Iterator[tuple[ProofTree, bool]]:
    """Each node of ``t`` in preorder, with whether its conclusion is implied:
    the one its parent's rule data give (never true of the root).

    Proof JSON stores the conclusions that are not implied, and a correct
    proof implies all but the root's.
    """
    stack = [(t, False)]
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
    """The tree as nested dicts, with the sequent on the root only where possible."""
    # Bottom-up in reverse preorder: a node's premises are the last ones built.
    built: list[dict[str, Any]] = []
    for node, implied in reversed(list(_preorder(t))):
        out = _node_json(node, not implied)
        out["premises"] = [built.pop() for _ in node.premises]
        built.append(out)
    return built[0]


def proof_from_json(node: dict[str, Any]) -> ProofTree:
    """Inverse of ``proof_to_json``; also loads a sequent on every node.

    Raises ValueError on a malformed node, and on a node without a
    sequent whose parent's rule data imply none.
    """
    try:
        # Top-down: each node's fields, its conclusion taken from its
        # own sequent or its parent's rule data.  Then bottom-up, in
        # reverse preorder, the trees themselves.
        preorder = []
        stack: list[tuple[dict[str, Any], Sequent | None]] = [(node, None)]
        while stack:
            data, implied = stack.pop()
            rule = Rule(data["rule"])
            text = data.get("sequent") if implied is not None else data["sequent"]
            conclusion = implied if text is None else parse_sequent(text)
            split = data.get("split")
            split = (split[0], split[1]) if split is not None else None
            insert = data.get("insert")
            kids = data.get("premises", [])
            _check_arity(rule, len(kids))
            preorder.append((rule, conclusion, split, insert, len(kids)))
            if not all("sequent" in kid for kid in kids):
                expected = premise_conclusions(rule, conclusion, split, insert)
                if expected is None:
                    raise ValueError(f"{rule} premises need sequents: its rule data do not apply")
                stack.extend(zip(reversed(kids), reversed(expected)))
            else:
                stack.extend((kid, None) for kid in reversed(kids))
        built: list[ProofTree] = []
        for rule, conclusion, split, insert, n in reversed(preorder):
            premises = tuple(built.pop() for _ in range(n))
            built.append(ProofTree(rule, conclusion, premises, split=split, insert=insert))
        return built[0]
    except (KeyError, IndexError, TypeError) as e:
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
