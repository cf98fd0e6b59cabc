"""Count and polarity analyses used for search pruning and input checks.

The primitive count of a formula is defined by::

    count(b, b) = 1          count(c, b) = 0  for a primitive c != b
    count(a/b', b) = count(b'\\a, b) = count(b' -o a, b)
                   = count(a, b) - count(b', b)

Every derivable sequent has equal antecedent and succedent counts for
every primitive, which makes the count vector a cheap refutation test.

Polarity assigns + to the succedent root and - to every antecedent
root; the result side of a connective keeps its parent's polarity and
the argument side flips it.  Linear implication is only usable in
positive positions (there is no left rule for it), so negative
occurrences are reported by ``polarity_report``, off the walk
``_occurrences`` (with ``_roots`` for the roots).  The prover's root
check refutes a goal off each root's ``syntax._Node._usable``, and its
input validation walks ``_occurrences`` only through a root it flags.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import Atom, Formula, LinImp, Over, Sequent

__all__ = [
    "CountVector",
    "formula_counts",
    "count",
    "sequent_counts",
    "balanced",
    "Occurrence",
    "PolarityReport",
    "polarity_report",
]

CountVector = dict[str, int]


def formula_counts(f: Formula) -> CountVector:
    """Count vector of ``f``; primitives with count zero are omitted.

    By the recurrence, each atom occurrence counts +1, or -1 when it lies
    inside an odd number of arguments.
    """
    vec: CountVector = {}
    stack = [(f, 1)]
    while stack:
        g, sign = stack.pop()
        # Down the result side: an atomic argument counts at once, others wait.
        while type(g) is not Atom:
            if type(g.arg) is Atom:
                vec[g.arg.name] = vec.get(g.arg.name, 0) - sign
            else:
                stack.append((g.arg, -sign))
            g = g.result
        vec[g.name] = vec.get(g.name, 0) + sign
    return {name: n for name, n in vec.items() if n}


def count(f: Formula, primitive: str) -> int:
    return formula_counts(f).get(primitive, 0)


def sequent_counts(s: Sequent) -> tuple[CountVector, CountVector]:
    """(antecedent counts, succedent counts), zero entries omitted."""
    lhs: CountVector = {}
    for f in s.antecedent:
        for name, n in formula_counts(f).items():
            new = lhs.get(name, 0) + n
            if new:
                lhs[name] = new
            else:
                lhs.pop(name, None)
    return lhs, dict(formula_counts(s.succedent))


def balanced(s: Sequent) -> bool:
    lhs, rhs = sequent_counts(s)
    return lhs == rhs


@dataclass(frozen=True)
class Occurrence:
    """One subformula occurrence inside a sequent.

    ``side`` is "antecedent" or "succedent", ``index`` the antecedent
    position (0 for the succedent), and ``path`` descends through the
    printed operand positions: 0 is the left operand as written, 1 the
    right one.
    """

    formula: Formula
    side: str
    index: int
    path: tuple[int, ...]
    polarity: str


@dataclass(frozen=True)
class PolarityReport:
    occurrences: tuple[Occurrence, ...]

    @property
    def negative_linimp(self) -> tuple[Occurrence, ...]:
        return tuple(
            o
            for o in self.occurrences
            if isinstance(o.formula, LinImp) and o.polarity == "negative"
        )


def _roots(s: Sequent) -> list[tuple[Formula, str, int, bool]]:
    """(formula, side, index, positive) of each root of ``s``, antecedent first."""
    roots = [(f, "antecedent", i, False) for i, f in enumerate(s.antecedent)]
    roots.append((s.succedent, "succedent", 0, True))
    return roots


def _occurrences(f: Formula, positive: bool) -> list[tuple[Formula, bool]]:
    """(subformula, positive) of each occurrence in ``f``, whose root is ``positive``.

    Occurrences come in preorder over the printed operands, left to
    right.  The walk keeps an explicit stack of pending operands, so its
    time and memory are linear in the size of ``f``.
    """
    out = []
    stack = [(f, positive)]
    while stack:
        out.append(stack.pop())
        f, positive = out[-1]
        if not isinstance(f, Atom):
            # The argument flips polarity.  Push the right operand as
            # printed first, so that the left one is walked first.
            if isinstance(f, Over):
                stack += ((f.arg, not positive), (f.result, positive))
            else:
                stack += ((f.result, positive), (f.arg, not positive))
    return out


def polarity_report(s: Sequent) -> PolarityReport:
    """Every subformula occurrence of ``s`` with its polarity."""
    out: list[Occurrence] = []
    for root, side, index, root_positive in _roots(s):
        pending: list[tuple[int, ...]] = [()]  # paths of the occurrences to come, the next one last
        for f, positive in _occurrences(root, root_positive):
            path = pending.pop()
            if not isinstance(f, Atom):
                pending += (path + (1,), path + (0,))
            out.append(Occurrence(f, side, index, path, "positive" if positive else "negative"))
    return PolarityReport(tuple(out))
