"""Independent replay checker for proof trees.

``check_proof`` validates every node of a tree against the rule
schemas, using only the positional data stored on the node (split for
the left rules, insert for -oR).  The schemas themselves are
``prooftree.premise_conclusions``, read through the walk the proof JSON
uses too, ``prooftree._preorder``; the checker adds the Ax condition
and the mode's choice of right rules.  That a node carries exactly the
rule data its rule takes is ``ProofTree``'s own invariant.  The checker
shares no code with the search, walks the tree with an explicit stack
in time linear in the size of the tree times the size of its sequents,
and never raises on malformed trees: any mismatch is just False.
"""

from __future__ import annotations

from .prooftree import ProofTree, _preorder
from .prover import CalculusMode
from .syntax import Atom, LinImp

__all__ = ["check_proof"]


def check_proof(t: ProofTree, mode: CalculusMode) -> bool:
    """True iff every node is a correct rule application in ``mode``."""
    # Below the root every conclusion must be the one its parent's rule data imply.
    return all(implied and _check_node(node, mode) for node, implied in _preorder(t))


def _check_node(t: ProofTree, mode: CalculusMode) -> bool:
    rule = t.rule
    if not rule.arity:  # Ax
        ant, succ = t.conclusion.antecedent, t.conclusion.succedent
        return len(ant) == 1 and isinstance(succ, Atom) and ant[0] == succ
    if rule.arity == 2:  # /L and \L hold in every mode
        return True
    return mode.has_linimp_right if rule.connective is LinImp else mode.has_directional_right
