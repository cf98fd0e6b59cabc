"""Independent replay checker for proof trees.

``check_proof`` validates every node of a tree against the rule
schemas, using only the root's sequent and the positional data stored
on each node (split for the left rules, insert for -oR).  The schemas
themselves are ``prooftree.premise_conclusions``, applied by the walk
that derives every inner conclusion, ``prooftree._walk``; the checker
adds the Ax condition and the mode's choice of right rules.  That a
node carries exactly the rule data its rule takes is ``ProofTree``'s
own invariant.  The checker shares no code with the search, walks the
tree with an explicit stack, builds no sequent per node (an antecedent
list is updated in place on the way down, and only a left premise's
span is copied), and never raises on malformed trees: any mismatch is
just False.
"""

from __future__ import annotations

from .prooftree import ProofTree, _walk
from .prover import CalculusMode
from .syntax import Atom, LinImp, Over, Under

__all__ = ["check_proof"]


def check_proof(t: ProofTree, mode: CalculusMode) -> bool:
    """True iff ``t`` has a conclusion and every node is a correct rule application in ``mode``."""
    # Whether the mode has each connective's right rule.
    right = {Over: mode.has_directional_right, Under: mode.has_directional_right, LinImp: mode.has_linimp_right}
    for node, ant, succ in _walk(t):
        if ant is None:  # no conclusion: its parent's rule data do not apply
            return False
        rule = node.rule
        if rule.arity == 1:
            if not right[rule.connective]:
                return False
        elif not rule.arity and not (len(ant) == 1 and ant[0] is succ and type(succ) is Atom):  # Ax
            return False
    return True
