"""Independent replay checker for proof trees.

``check_proof`` validates every node of a tree against the rule
schemas, using only the positional data stored on the node (split for
the left rules, insert for -oR).  The schemas themselves are
``prooftree.premise_conclusions``, read through the walk the proof JSON
uses too, ``prooftree._preorder``; the checker adds the
Ax condition, the mode's choice of right rules, and that a node
carries no rule data its rule does not take.  It shares no code
with the search, walks the tree with an explicit stack in time linear
in the size of the tree times the size of its sequents, and never
raises on malformed trees: any mismatch is just False.
"""

from __future__ import annotations

from .prooftree import ProofTree, Rule, _preorder
from .prover import CalculusMode
from .syntax import Atom

__all__ = ["check_proof"]


def check_proof(t: ProofTree, mode: CalculusMode) -> bool:
    """True iff every node is a correct rule application in ``mode``."""
    # Below the root every conclusion must be the one its parent's rule data imply.
    return all(implied and _check_node(node, mode) for node, implied in _preorder(t))


def _check_node(t: ProofTree, mode: CalculusMode) -> bool:
    concl = t.conclusion
    rule = t.rule

    # A rule carries only its own data: a split on /L and \L, an insert on -oR.
    if rule is Rule.AX:
        ant, succ = concl.antecedent, concl.succedent
        return (
            len(ant) == 1
            and isinstance(succ, Atom)
            and ant[0] == succ
            and t.split is None
            and t.insert is None
        )
    if rule is Rule.LINIMP_R:
        return t.split is None and mode.has_linimp_right
    if rule in (Rule.OVER_R, Rule.UNDER_R):
        return t.split is None and t.insert is None and mode.has_directional_right
    return t.insert is None
