"""Backward proof search for the product-free Lambek calculus L, its
semidirectional extension SDL, and the fragment SDL- (SDL without the
directional right rules).

Rules (sequents always have a nonempty antecedent):

    Ax:   b => b                        for primitive b
    /R:   U, B => A    gives  U => A/B
    \\R:   B, U => A    gives  U => B\\A
    -oR:  U, B, V => A gives  U, V => B -o A    (U, V not both empty)
    /L:   T => B  and  U, A, V => C  give  U, A/B, T, V => C
    \\L:   T => B  and  U, A, V => C  give  U, T, B\\A, V => C

Mode l has no -oR; mode sdl- has -oR but neither /R nor \\R.  Cut is
not a rule; everything here is cut-free.

The search is depth-first and backward, with two refutation filters
(the primitive count invariant, and the discipline that -o is only
usable in positive positions, both checked at the root: off the count
vectors ``_Search._vec`` packs and the facts on each formula's node,
``syntax._Node``) plus a per-query memo table over search states.
It is one loop, ``_Search._search``, that backtracks over the options
of each state with its frames on a list, so no depth runs into the
recursion limit.  It has two modes.  ``prove`` and
``grammar.recognize`` commit: a state keeps its first result, and
solved and failed states go to the memo.  ``enumerate_proofs``
resumes the loop after each result and memoizes only the states that
have no proof at all.  A state expanded more than ``_MAX_DEPTH``
(10,000) rule levels deep stops the search like the node budget and
the deadline: BudgetExceededError, "unknown".

A deep search holds, per state on its path, only what backtracking
needs: the state's goal, its move and a cursor over its remaining
options.  The cursor is a suspended left-rule scan, which keeps its
place in two ranges, or the one option of a descent (below).  Per
query there is one packed count vector per subformula and a rank only
for the formulas that can pend.  On the chain ``b/a/.../a => a -o ...
-o b`` a descent holds about 0.2 KB per /L level: its left premise,
solved once and then a memo hit.  ``_conclude`` builds the mask that
places the formulas of a descent's result with one splice, so the
chain's proof is assembled in time linear in n: ``prove`` takes about
4 / 9 / 19 ms at n = 1,000 / 2,000 / 4,000 (CPython 3.11, 2-core Xeon).

Right rules come first, and alone.  /R, \\R and -oR are invertible: if
``G => A/B`` has a proof ending in a left rule, that rule's right
premise ``U, D, V => A/B`` (``G`` is ``U, D/C, T, V`` or ``U, T, C\\D, V``)
has a smaller proof, so by induction ``U, D, V, B => A`` is derivable,
and the same left rule with the same left premise ``T => C`` gives
``G, B => A``, hence ``G => A/B`` by /R.  \\R is the mirror image.  For
-oR the induction gives ``U, D, V`` with ``B`` inserted at some
position; ``B`` then lies in ``U`` or ``V``, or next to ``D``, never
inside ``T``, so the left rule applies again and -oR, whose
hypothesis may be inserted at any position, finishes.  Hence when the
succedent's right rule exists in the mode, the search tries only that
rule (with the materializations /R and \\R need first, below) and no
left rule.  A state takes the whole run of right rules its succedent
allows as one step (focusing's invertible phase): -oR wherever the
mode has it, /R and \\R while nothing is pending, so a run's /R and \\R
all come before its first -oR.  The run's one premise is the state
after its last rule; ``SearchStats.nodes_expanded`` counts the run as
one state, and the depth counts each of its rules as a level.

The left phase is focused (Andreoli 1992; for L this is the normal
form of Hepple 1990 and Hendriks 1993, free of spurious ambiguity).
A state carries a focus: the fixed position of the formula under
focus, or -1.  An unfocused state picks a functor, fixed or pending;
/L or \\L on it has an unfocused left premise ``T => B`` and a right
premise focused on the functor's result.  A focused state decomposes that
formula and no other: /L or \\L on a slash, Ax on an atom that is the
whole antecedent with nothing pending, nothing on a -o.  This is
complete.  A state stands for every interleaving of its bag into its
fixed part, and each interleaving is a sequent of L with -oR added.
Right rules and -oR are invertible and already run first, so a state
reaches the left phase only with a succedent that is an atom or whose
right rule the mode lacks.  On each interleaving, left focusing is
complete for L: without products, /L and \\L are the only rules that
are not invertible, and a proof can be permuted so that the right
premise of each left rule decomposes that rule's result next, while
its left premise starts afresh.  All atoms are negative, so such a
chain can only end in Ax on the whole antecedent: a functor is worth
trying only when its head, the atom reached from it by following
results through / and \\, is the succedent.  A succedent that is not an
atom gets no left option at all, which is right: Ax is atomic and left
rules keep the succedent.  Pending formulas still float in a focused
state: the spans of the chain's left rules may take them, and its Ax
needs the bag empty.  Where the formula under focus sits matters too.
The span of a \\ argument on its chain takes formulas on its left, that
of a / argument formulas on its right, and the chain must end on the
whole antecedent.  So a chain with no \\ argument can end only from
fixed position 0, one with no / argument only from the last position,
and one on an atom only with nothing pending (``_can_end``).  A
fixed functor that fails this is not tried, and a left rule whose right
premise would fail it is not yielded, so its left premise is never
searched.  The first proof found is one of these focused, right-first
proofs, and ``enumerate_proofs`` lists one proof per focused normal
form.  ``SearchStats.pruned_by_count`` counts the spans scanned and
rejected by the count test, so only those of the functors tried: the
head filter, the position test and the focus leave the others
unscanned, and a span the count test passes is not counted even when
the position test then drops its right premise.

A focused state whose functor has nothing on its argument's side, a /
at the last fixed position or a \\ at position 0, with no compound
formula pending, has at most one option: its one span is empty, and
the pending atoms must supply the argument's counts, the need, which
the lane test accepts or not.  The right premise of that option is
focused on the functor's result at the same position, with the same
formulas around it and the atoms taken out of the bag, so while the
result is again such a slash it has one option too.  A state's proofs
are then exactly those of its one option, and the proofs of the first
state of such a run are exactly those of its levels' left premises and
of the state after its last level, combined level by level.  So the
run is one option (focusing's synchronous phase taken as one step, a
descent, ``_Search._descent``): the search loses no proof, and it
skips only the memo entry and the choice point of each state in
between.  The premises are solved in the same order as before, left
premises outermost first, and each still counts as a rule level below
the state that starts the descent.  A level that fails the need test
counts as a span refuted by the count test, and leaves the whole
descent without an option.

A descent checks all of its levels when its first state is expanded,
before any left premise is solved, and the states in between are never
expanded.  A level-by-level search would reach a level only once the
left premises above it were proved, and two readings differ from it.
``pruned_by_count`` counts a failing level even below a left premise
that has no proof.  And a descent that fails past ``_MAX_DEPTH`` is a
definite "no proof", where level by level the search would stop at the
bound with "unknown"; the answer is right, since the descent's one
option is the state's only one.  The bound still stops the search at
every state it expands, so at a descent's left premises and at the
state after its last level.

-oR is the one rule whose backward reading branches over positions.
To keep it tractable the searcher does not commit to an insertion
position when it strips ``B -o A``: stripped arguments live in a
multiset of pending antecedent formulas that may still float to any
position.  Left rules then split the pending multiset between their
premises, and the count invariant pins the split down.  Count vectors
are packed into ints, one lane per primitive, so the counts the pending
part of a premise ``T => B`` must supply (those of ``B`` less those of
T's committed span) are one subtraction off prefix sums of the
committed counts, built once per left-rule scan.  The pending multiset is one
such int too, with a multiplicity lane per pending formula: an atom's
lane is its primitive's count lane, so the pending atoms are their
packed count vector, and a compound formula gets a lane of its own
when it first pends.  Stripping, taking and materializing are then int
additions and subtractions.  A split chooses how many copies of each
pending compound formula to take, and the atoms must supply the
residual need: they can exactly when every lane of the residual lies
between zero and the pending multiplicity, one lane test, and the
residual is then the atoms' take.  So an empty multiset splits only
when the need is zero, a multiset of atoms at most once, and only the
compound formulas are enumerated.  Returned proof trees are fully
positional regardless: every -oR node records its insertion index and
every left node its split, so ``lambek.checker.check_proof`` can
replay them from the root's sequent, the one sequent a tree holds.
"""

from __future__ import annotations

import enum
import itertools
import operator
import time
from dataclasses import asdict, dataclass
from collections.abc import Iterator

from .analysis import _occurrences, _roots
from .prooftree import _AX_LEAF, ProofTree, Rule
from .syntax import _LEFT_ARG, _NEGATIVE, _NEGATIVE_L, _POSITIVE, _POSITIVE_L, _RIGHT_ARG
from .syntax import Atom, Formula, LinImp, Over, Sequent, Under, format_formula

__all__ = [
    "CalculusMode",
    "SearchStats",
    "BudgetExceededError",
    "InputViolation",
    "validate_input",
    "prove",
    "enumerate_proofs",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10_000_000

# The search gives up (BudgetExceededError) on a state deeper than this
# many rule levels, as it does at its node budget and deadline.
_MAX_DEPTH = 10_000


class CalculusMode(enum.Enum):
    L = "l"
    SDL = "sdl"
    SDL_MINUS = "sdl-"

    @property
    def has_directional_right(self) -> bool:
        """Whether /R and \\R are available."""
        return self is not CalculusMode.SDL_MINUS

    @property
    def has_linimp_right(self) -> bool:
        """Whether -oR is available."""
        return self is not CalculusMode.L

    def __str__(self) -> str:
        return self.value


# The bits of syntax._Node._usable that mean positive and negative in each mode.
_POLARITIES = {m: (_POSITIVE, _NEGATIVE) if m.has_linimp_right else (_POSITIVE_L, _NEGATIVE_L) for m in CalculusMode}

# The rules the search builds: reading a member off the Rule class is a slow attribute lookup.
_OVER_L, _UNDER_L = Rule.OVER_L, Rule.UNDER_L
_OVER_R, _UNDER_R, _LINIMP_R = Rule.OVER_R, Rule.UNDER_R, Rule.LINIMP_R


@dataclass
class SearchStats:
    """The counters of one search, each a count.

    ``nodes_expanded``: search states expanded, not answered by the memo;
    a run of right rules is one state, and so is a descent, the run of
    focused /L or \\L levels that have one option each.  The node
    budget bounds it.
    ``cache_hits``: states answered by the memo.
    ``pruned_by_count``: root goals and left-rule spans refuted by the
    primitive count test; a descent's failing level counts even where
    a left premise above it has no proof (module docstring).
    ``max_depth``: the deepest rule level of a state expanded, the root
    being level 1; every rule of a right run is a level, and so is
    every level of a descent, whose states in between are not expanded.
    ``_MAX_DEPTH`` bounds it; a descent that fails past the bound is
    "no proof", not "unknown".
    """

    nodes_expanded: int = 0
    cache_hits: int = 0
    pruned_by_count: int = 0
    max_depth: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class BudgetExceededError(RuntimeError):
    """Search hit its node budget, deadline or depth bound; derivability is unknown.

    ``reason`` names the limit: ``"budget"``, ``"deadline"`` or ``"depth"``.
    """

    def __init__(self, stats: SearchStats, reason: str):
        super().__init__(f"search gave up after {stats.nodes_expanded} nodes at its {reason} limit")
        self.stats = stats
        self.reason = reason

    def __reduce__(self):
        # The message is made from these two, so a copy or pickle rebuilds it.
        return type(self), (self.stats, self.reason)


@dataclass(frozen=True)
class InputViolation:
    kind: str  # "linimp-in-l" or "negative-linimp"
    message: str


def validate_input(s: Sequent, mode: CalculusMode) -> list[InputViolation]:
    """Flag -o occurrences the chosen mode cannot use.

    In mode l any -o at all is a violation; in the sdl modes a -o in
    negative position is flagged (there is no -o left rule, so such
    sequents are never derivable).  Violations are warnings: the
    search still runs and simply fails.  They come in the preorder of
    ``analysis.polarity_report``: antecedent formulas, then the
    succedent, each walked through its printed operands left to right.
    """
    out: list[InputViolation] = []
    positive_bit, negative_bit = _POLARITIES[mode]
    for root, side, index, root_positive in _roots(s):
        if root._usable & (positive_bit if root_positive else negative_bit):
            continue  # no violation inside
        for f, positive in _occurrences(root, root_positive):
            if isinstance(f, LinImp) and (mode is CalculusMode.L or not positive):
                where = f"({side} position {index})"
                if mode is CalculusMode.L:
                    out.append(InputViolation("linimp-in-l", f"mode l has no rules for {format_formula(f)} {where}"))
                else:
                    message = f"{format_formula(f)} occurs negatively {where} and -o has no left rule"
                    out.append(InputViolation("negative-linimp", message))
    return out


# ---------------------------------------------------------------------------
# Search states
#
# A state is (fixed, pending, succedent, focus): `fixed` is the
# positionally committed part of the antecedent, `pending` a multiset
# of formulas stripped by -oR whose position is not yet committed, and
# `focus` the position in `fixed` of the formula under focus, or -1 for
# an unfocused state.  The state stands for every interleaving of
# `pending` into `fixed`.  A pending multiset is a Bag: one int holding
# each pending formula's multiplicity in that formula's lane
# (_Search._unit), so the empty bag is 0.  Count vectors are zero on
# the lanes of compound formulas.
# ---------------------------------------------------------------------------

Bag = int
State = tuple[tuple[Formula, ...], Bag, Formula, int]

# A solved state: the proof tree for one concrete interleaving, its
# nodes without conclusions (prooftree), plus a mask over the antecedent
# positions of its conclusion: None at a position committed in the
# state's fixed part, the formula itself at one that came from the
# pending multiset.  _conclude builds both from an option's move and
# its premises' results; the positions of split and insert come from
# the masks alone.
Result = tuple[ProofTree, tuple[Formula | None, ...]]

# An option is its premises, solved in order, and its move: the number
# of rule levels it adds, then the data its conclusion needs.  That is
# (1, atom, pending) for Ax, (1, functor, pending, a) for /L or \L on
# the functor, with ``a`` the fixed ordinal of its result in the right
# premise, (k, functor, False, a) for a descent of k such levels down
# the fixed functor's result chain, its k left premises and then the
# last right premise, (k, succedent) for a run of k right rules on the
# succedent, or (0, p, f) for a pending formula ``f`` fixed at ordinal
# ``p``, which is not a rule.
_Option = tuple[tuple[State, ...], tuple]

# The options of a state that has none; an exhausted iterator stays so.
_NO_OPTIONS: Iterator[_Option] = iter(())


# Count vectors are packed into one int with a lane of _LANE_BITS bits
# per primitive, so adding or subtracting two ints adds or subtracts
# the vectors lane by lane; a Bag adds a lane per pending compound
# formula.  That holds while every lane stays below _LANE_HALF in
# magnitude.  Every count lane, pending atoms' multiplicities included,
# is a sum over distinct atom occurrences of a root formula, and so is
# a compound formula's multiplicity: each copy is the argument of a
# distinct -o occurrence and holds at least two atom occurrences.  So
# the guard on their number in _Search._admissible makes sure of it
# (test_sequent_too_large_for_count_lanes).
_LANE_BITS = 16
_LANE_MASK = (1 << _LANE_BITS) - 1
_LANE_HALF = 1 << (_LANE_BITS - 1)


def _can_end(f: Formula, i: int, n: int, bag: Bag) -> bool:
    """Whether a chain focused on ``f`` at fixed position ``i`` of ``n``, with ``bag`` pending, can end in Ax.

    It must end on the whole antecedent with an empty bag.  Only the
    span of a \\ argument on the chain takes the fixed formulas left of
    ``f``, only that of a / argument those right of it, and an atom
    takes nothing more.
    """
    sides = f._sides
    return bool((sides & _LEFT_ARG or not i) and (sides & _RIGHT_ARG or i == n - 1) and (sides or not bag))


def _nth_fixed_index(mask: tuple[Formula | None, ...], p: int) -> int:
    """Index of the p-th positionally committed entry under ``mask``."""
    q = -1
    for _ in range(p + 1):
        q = mask.index(None, q + 1)  # skips a run of pending entries at C speed
    return q


class _Search:
    """One proof search query: memo, stats, budget window and a ``time.monotonic()`` deadline."""

    def __init__(self, mode: CalculusMode, budget: int = DEFAULT_BUDGET, deadline: float | None = None):
        self.mode = mode
        self._directional, self._linimp = mode.has_directional_right, mode.has_linimp_right
        self.budget = budget
        self.deadline = deadline
        self.stats = SearchStats()
        self.memo: dict[State, Result | None] = {}
        self.new_budget_window()
        # Packed count vector of every subformula of the goals seen so far,
        # in order of first sight; the facts that depend on its shape alone
        # are on its node (syntax._Node).
        self._packed: dict[Formula, int] = {}
        # The bag unit of every formula with a lane, in order of its lane
        # (see _unit), and the compound ones among them, in _rank order.
        self._units: dict[Formula, int] = {}
        self._compounds: list[tuple[Formula, int]] = []
        self._compound_bits = 0  # every bit of the compound lanes
        self._high = 0  # the top bit of every lane given out
        # The place in ``_packed`` of every formula with a lane: the atoms
        # and the pending -o arguments, the only formulas that can pend.
        # Pending formulas are read off a bag in this order, so the search
        # order is the same in every run, although a formula hashes by
        # identity and so by its address.
        self._rank: dict[Formula, int] = {}

    # -- public entry points ------------------------------------------------

    def run(self, s: Sequent) -> ProofTree | None:
        if not self._admissible(s):
            return None
        result = next(self._search(s, True), None)
        if result is None:
            return None
        tree, mask = result
        assert not any(mask)
        return ProofTree(tree.rule, s, tree.premises, tree.split, tree.insert)

    def enumerate(self, s: Sequent, limit: int) -> list[ProofTree]:
        if limit <= 0 or not self._admissible(s):
            return []
        out: list[ProofTree] = []
        seen: set[ProofTree] = set()
        for tree, mask in self._search(s, False):
            assert not any(mask)
            tree = ProofTree(tree.rule, s, tree.premises, tree.split, tree.insert)
            if tree not in seen:
                seen.add(tree)
                out.append(tree)
                if len(out) >= limit:
                    break
        return out

    def new_budget_window(self) -> None:
        """Reset the budget while keeping the memo (one query, many goals)."""
        self._baseline = self.stats.nodes_expanded
        # _expand checks the limits from this node count on: every node under a deadline.
        self._check_at = self._baseline + self.budget if self.deadline is None else 0

    # -- admissibility of a root goal ----------------------------------------

    def _admissible(self, s: Sequent) -> bool:
        # The antecedent's packed vectors come first, as ranks follow first sight.
        vec, lhs, n = self._vec, 0, 0
        positive, ok = _POLARITIES[self.mode]  # antecedent roots are negative
        for f in s.antecedent:
            lhs, n, ok = lhs + vec(f), n + f._atoms, ok & f._usable
        rhs = vec(s.succedent)
        # Every lane of every count vector in the search is a sum over
        # distinct atom occurrences of the root, so their total bounds
        # them all.
        if n + s.succedent._atoms >= _LANE_HALF:
            raise ValueError(f"sequents with {_LANE_HALF} or more atom occurrences are not supported")
        if lhs != rhs:
            self.stats.pruned_by_count += 1
            return False
        # Subgoals inherit usable -o's, so the root check suffices.
        return bool(ok and s.succedent._usable & positive)

    def _vec(self, f: Formula) -> int:
        """Packed count vector of ``f``, cached with all its subformulas'.

        New subformulas are packed in post-order, result before argument.
        """
        packed = self._packed
        if f in packed:
            return packed[f]
        stack = [f]
        while stack:
            g = stack.pop()
            if g in packed:
                continue
            if type(g) is Atom:
                # Atoms are equal exactly when their names are, so this is
                # the first sight of the primitive: it gets the next lane.
                packed[g] = self._unit(g)
            elif g.result in packed and g.arg in packed:
                packed[g] = packed[g.result] - packed[g.arg]
            else:
                stack += (g, g.arg, g.result)  # the result first, then the argument, then g
        return packed[f]

    def _unit(self, f: Formula) -> int:
        """The bag holding one ``f``: a one in the lane of ``f``, given out on first use.

        An atom's lane is its primitive's count lane, so its unit is its
        packed count vector, given out as ``_vec`` first sees it; a
        compound formula gets a lane of its own when it first pends.
        """
        u = self._units.get(f)
        if u is None:
            u = self._units[f] = 1 << _LANE_BITS * len(self._units)
            self._high |= _LANE_HALF * u
            if type(f) is Atom:
                self._rank[f] = len(self._packed)  # the place _vec packs it at
            else:
                self._rank[f] = operator.indexOf(self._packed, f)
                self._compounds = sorted([*self._compounds, (f, u)], key=lambda gu, rank=self._rank: rank[gu[0]])
                self._compound_bits |= _LANE_MASK * u
        return u

    # -- the search engine ----------------------------------------------------

    def _expand(self, depth: int) -> None:
        """Count a node expanded at ``depth``, or raise once a limit is hit."""
        stats = self.stats
        if stats.nodes_expanded >= self._check_at:
            if stats.nodes_expanded - self._baseline >= self.budget:
                raise BudgetExceededError(stats, "budget")
            if time.monotonic() > self.deadline:
                raise BudgetExceededError(stats, "deadline")
        if depth > stats.max_depth:
            if depth > _MAX_DEPTH:
                raise BudgetExceededError(stats, "depth")
            stats.max_depth = depth
        stats.nodes_expanded += 1

    def _search(self, s: Sequent, commit: bool) -> Iterator[Result]:
        """Results for the root goal ``s``, by backtracking over ``_options``.

        A task ``(state, depth, None, rest)`` solves a state, and a task
        ``(state, premises, move, rest)`` concludes an option whose
        ``premises`` are solved, their results on top (``_conclude``).
        A move adds its rule levels to the depth.  The tasks still
        to do and the results not yet used are linked lists, so a choice
        point (the options left at a state, or the results left at a
        conclusion) saves both as they are.  With ``commit``, a state
        keeps its first result: its choice point, the newest one since
        each premise dropped its own, is dropped, and solved and failed
        states go to the memo.  Without, the loop resumes after each
        root result and memoizes only the states that have no proof.
        """
        memo, points, proved = self.memo, [], set()
        stats, expand, options = self.stats, self._expand, self._options
        todo = ((tuple(s.antecedent), 0, s.succedent, -1), 1, None, None)
        results = None
        while True:
            if todo is None:
                yield results[0]
            else:
                state, depth, move, todo = todo
                if move is None:
                    r = memo.get(state, memo)  # the memo itself marks a miss
                    if r is memo:
                        expand(depth)
                        points.append((options(*state), todo, results, state, depth))
                    else:
                        stats.cache_hits += 1
                        if r is not None:
                            results = (r, results)
                            continue
                else:
                    premises = depth  # a conclusion's second slot
                    if premises == 2:
                        r2, (r1, results) = results
                        rs = [r1, r2]
                    elif premises == 1:
                        r1, results = results
                        rs = [r1]
                    elif premises:
                        rs = [None] * premises
                        for j in range(premises - 1, -1, -1):
                            rs[j], results = results
                    else:
                        rs = []
                    if commit:
                        points.pop()
                        r = memo[state] = next(_conclude(move, rs))
                        results = (r, results)
                        continue
                    proved.add(state)
                    points.append((_conclude(move, rs), todo, results, None, None))
            # Backtrack: take the next alternative of the newest choice point.
            while points:
                alternatives, todo, results, state, depth = points[-1]
                x = next(alternatives, None)
                if x is None:
                    points.pop()
                    if state is not None and (commit or state not in proved):
                        memo[state] = None
                elif state is None:
                    results = (x, results)
                    break
                else:
                    children, move = x
                    todo = (state, len(children), move, todo)
                    depth += move[0]
                    if children:  # solved in order
                        todo = (children[-1], depth, None, todo)
                        if len(children) == 2:
                            todo = (children[0], depth, None, todo)
                        elif len(children) > 2:
                            # A descent: its level j's left premise is j + 1 levels down.
                            for j in range(len(children) - 2, -1, -1):
                                todo = (children[j], depth - move[0] + j + 1, None, todo)
                    break
            else:
                return

    # -- option generation ----------------------------------------------------

    def _options(self, fixed: tuple[Formula, ...], bag: Bag, succ: Formula, focus: int) -> Iterator[_Option]:
        """The options of a state, as one iterator: a state on the search path holds no more."""
        if type(succ) is Atom:
            # Ax: the antecedent is the succedent's atom alone, committed or
            # pending.  No left option goes with it: an atom has no head, and
            # a bag of one atom holds no functor.
            if fixed == (succ,) and not bag or not fixed and bag == self._packed[succ]:
                return iter([((), (1, succ, not fixed))])
        else:
            # The succedent's right rules are invertible (module docstring), so
            # their run is the one option.  A succedent that is not an atom has
            # no left option anyway: a focused chain ends in Ax on its head.
            directional, linimp = self._directional, self._linimp
            levels, g, lefts, rights = 0, succ, [], []
            while True:
                t = type(g)
                if t is LinImp and linimp:
                    bag += self._unit(g.arg)
                elif t is Over and directional and not bag:
                    rights.append(g.arg)  # joins the antecedent at the end the slash faces
                elif t is Under and directional and not bag:
                    lefts.append(g.arg)
                else:
                    break
                levels += 1
                g = g.result
            if levels:
                if lefts or rights:
                    fixed = (*reversed(lefts), *fixed, *rights)
                return iter([(((fixed, bag, g, -1),), (levels, succ))])
            if bag and directional:
                return self._materializations(fixed, bag, succ)
            return _NO_OPTIONS
        if focus >= 0:
            # Keep decomposing the formula under focus; an atom there had
            # Ax or nothing, and a -o has no left rule.
            functor = fixed[focus]
            if not isinstance(functor, (Over, Under)):
                return _NO_OPTIONS
            if bag & self._compound_bits or focus != (len(fixed) - 1 if type(functor) is Over else 0):
                return self._left(fixed, bag, succ, functor, focus)
            return self._descent(fixed, bag, succ, functor, focus)

        # Left rules, fixed functors in order and then pending ones, on
        # those whose head is the succedent: a focused chain ends in Ax
        # on its head (module docstring).  A fixed functor must also be
        # able to end from where it sits.  An atom's or a -o's head is
        # None, not itself, so neither is a functor here.
        n, functors = len(fixed), []
        for i, f in enumerate(fixed):
            if f._head is succ and _can_end(f, i, n, bag):
                functors.append((f, i))
        if bag & self._compound_bits:
            for g, u in self._compounds:
                if g._head is succ and bag & _LANE_MASK * u:
                    functors.append((g, -1))
        if len(functors) == 1:
            return self._left(fixed, bag, succ, *functors[0])
        return self._lefts(fixed, bag, succ, functors) if functors else _NO_OPTIONS

    def _materializations(self, fixed: tuple[Formula, ...], bag: Bag, succ: Formula) -> Iterator[_Option]:
        """Commit one pending formula to a concrete position.

        Only needed ahead of /R and \\R, which pin a formula to an end
        of the antecedent and therefore need the interleaving settled.
        Only the first pending formula in the order of ``_rank`` is
        fixed, at each position in turn; the rest are fixed in the
        states below, so each interleaving is reached in one order only.
        """
        rank, f = self._rank, None
        for g, u in self._units.items():
            if bag // u & _LANE_MASK and (f is None or rank[g] < rank[f]):
                f = g
        rest = bag - self._units[f]
        for p in range(len(fixed) + 1):
            yield ((fixed[:p] + (f,) + fixed[p:], rest, succ, -1),), (0, p, f)

    def _descent(self, fixed: tuple[Formula, ...], bag: Bag, succ: Formula, functor: Formula, i: int) -> Iterator[_Option]:
        """/L or \\L on the focused ``functor`` at fixed position ``i``, and down its result chain, as one option.

        With a / last or a \\ first and no compound pending, a level has
        one span, empty, and one take, the need; the descent goes on
        while the result is again such a slash (module docstring).  The
        premises are each level's left premise ``() => arg``, then the
        state after the last level.  A level that fails the need test,
        or whose right premise cannot end, leaves no option.
        """
        packed, high, n, premises, g = self._packed, self._high, len(fixed), [], functor
        while True:
            arg, g = g.arg, g.result
            need = packed[arg]
            if not need or (need | (bag - need)) & high:
                self.stats.pruned_by_count += 1
                return _NO_OPTIONS
            bag -= need
            if not _can_end(g, i, n, bag):
                return _NO_OPTIONS
            premises.append(((), need, arg, -1))
            t = type(g)
            if not (t is Over and i == n - 1 or t is Under and not i):
                break
        premises.append((fixed[:i] + (g,) + fixed[i + 1 :], bag, succ, i))
        return iter((((*premises,), (len(premises) - 1, functor, False, i)),))

    def _float_splits(self, full: Bag, need: int) -> Iterator[Bag]:
        """Sub-multisets of the pending bag ``full`` whose summed counts equal ``need``.

        The multiplicities of the compound formulas, read off their
        lanes, are enumerated in lexicographic order in the order of
        ``_rank``, and the pending atoms close each choice: their take
        is the residual need, when the lane test (see ``_left``) accepts
        it.
        """
        packed, high, compounds = self._packed, self._high, []
        for g, u in self._compounds:
            if full & _LANE_MASK * u:
                compounds.append((u, packed[g], full // u & _LANE_MASK))
        for counts in itertools.product(*[range(k + 1) for _, _, k in compounds]):
            residual, take = need, 0
            for (u, v, _), t in zip(compounds, counts):
                residual -= t * v
                take += t * u
            if not (residual | (full - residual)) & high:
                yield residual + take

    def _lefts(
        self, fixed: tuple[Formula, ...], bag: Bag, succ: Formula, functors: list[tuple[Formula, int]]
    ) -> Iterator[_Option]:
        """``_left`` on each of ``functors``, in order: (formula, fixed position, or -1 if pending)."""
        for functor, i in functors:
            yield from self._left(fixed, bag, succ, functor, i)

    def _left(self, fixed: tuple[Formula, ...], bag: Bag, succ: Formula, functor: Formula, i: int) -> Iterator[_Option]:
        """/L or \\L on ``functor``, at fixed position ``i``, or pending if ``i`` is -1.

        The left premise ``T => functor.arg`` is unfocused, and the right
        premise is focused on the functor's result.  ``T`` takes a span
        ``fixed[lo:hi]`` next to the functor, plus the pending formulas
        whose counts make up the rest of the argument's: the span's
        need.  A fixed functor's span grows away from it; a pending
        functor may land at any ``lo``, its span then growing
        rightwards.  Prefix sums of the fixed counts make a need one
        subtraction; with no compound pending, the lane test alone
        decides the one take, the need itself.

        A focused level of a deep search keeps one such scan suspended,
        so it holds its place in two ranges and little else.
        """
        n = len(fixed)
        sums = list(itertools.accumulate(map(self._packed.__getitem__, fixed), initial=0))
        # A pending functor's own copy is in neither premise's bag.
        full = bag - self._units[functor] if i < 0 else bag
        split = full & self._compound_bits
        arg, res = functor.arg, functor.result
        want = self._packed[arg]
        # The atoms can supply ``need`` iff every lane of ``need`` and of
        # ``full - need`` lies in [0, _LANE_HALF).  All lanes stay below
        # _LANE_HALF in magnitude (_admissible), so that holds iff
        # neither int has a lane's top bit set: a negative int sets the
        # top bit of its highest negative lane.  Count vectors are zero
        # on the compound lanes, where ``full`` is never negative.
        high, pruned = self._high, 0
        # The spans, by lo and then hi: every lo <= hi for a pending
        # functor; a fixed / takes from i + 1 rightwards, a fixed \\ up to
        # i leftwards.
        under = i >= 0 and type(functor) is Under
        top = i + 1 if under else n + 1
        for lo in range(i, -1, -1) if under else range(n + 1) if i < 0 else range(i + 1, i + 2):
            for hi in range(lo if lo > i else i, top):
                need = want - sums[hi] + sums[lo]
                # The right premise replaces the functor and its span by the
                # result, and is dead unless its chain can end from there.
                # The search may stop at a yield: the spans scanned so far
                # are counted first.
                if not split:
                    if (need | (full - need)) & high or not (need or lo < hi):
                        pruned += 1
                        continue
                    a, b = (lo, hi) if i < 0 else (min(lo, i), max(hi, i + 1))
                    if _can_end(res, a, n - b + a + 1, full - need):
                        self.stats.pruned_by_count += pruned
                        pruned = 0
                        yield (
                            ((fixed[lo:hi], need, arg, -1), (fixed[:a] + (res,) + fixed[b:], full - need, succ, a)),
                            (1, functor, i < 0, a),
                        )
                    continue
                found = False
                for take in self._float_splits(full, need):
                    if take or lo < hi:
                        found = True
                        a, b = (lo, hi) if i < 0 else (min(lo, i), max(hi, i + 1))
                        if _can_end(res, a, n - b + a + 1, full - take):
                            self.stats.pruned_by_count += pruned
                            pruned = 0
                            yield (
                                ((fixed[lo:hi], take, arg, -1), (fixed[:a] + (res,) + fixed[b:], full - take, succ, a)),
                                (1, functor, i < 0, a),
                            )
                pruned += not found
        self.stats.pruned_by_count += pruned


def _conclude(move: tuple, rs: list[Result]) -> Iterator[Result]:
    """The results of an option with ``move`` whose premises have the results ``rs``.

    Only a run with -oR can give more than one: one per choice of a
    pending copy of each -oR's argument.  The move is told apart by its
    premises and its level count.  No conclusion is built: a node holds
    its rule, premises and rule data.
    """
    if len(rs) >= 2:
        # /L or \L, or a descent: one on each level of a fixed functor's
        # result chain, concluded innermost first.  Every level's result is
        # at ordinal a, slot q0 of the last premise's mask: the left
        # premises' slots of the \ levels go before it and those of the /
        # levels after it, in one splice, and a level's split starts at q0
        # plus the \ slots below it.  Only a one-level option's functor
        # can be pending.
        levels, functor, pending, a = move
        functors = [functor]
        for _ in range(1, levels):
            functors.append(functors[-1].result)
        tree, mask = rs[-1]
        q = q0 = _nth_fixed_index(mask, a)
        lefts, rights = [], []  # the slots before and, reversed, after the functor's
        for j in range(levels - 1, -1, -1):
            t1, m1 = rs[j]
            if type(functors[j]) is Over:
                tree = ProofTree(_OVER_L, None, (t1, tree), (q, len(m1)))
                rights += m1[::-1]
            else:
                tree = ProofTree(_UNDER_L, None, (t1, tree), (q, len(m1)))
                lefts += m1
                q += len(m1)
        rights.reverse()
        yield tree, (*mask[:q0], *lefts, functor if pending else None, *rights, *mask[q0 + 1 :])
    elif not rs:  # Ax
        yield _AX_LEAF, (move[1] if move[2] else None,)
    elif not move[0]:
        # The materialized formula is pending again.
        _, p, f = move
        tree, mask = rs[0]
        q = _nth_fixed_index(mask, p)
        yield tree, mask[:q] + (f,) + mask[q + 1 :]
    else:
        # A right run: its /R and \R, whose arguments took the ends of the
        # antecedent, then its -oR's, whose arguments pend.  The -oR's are
        # concluded innermost first on one mask, each at every pending copy
        # of its argument in turn, the outermost one's choice changing
        # fastest; a deletion is undone on backtracking.
        levels, g = move
        slashes, args, lefts = [], [], 0
        for _ in range(levels):
            t = type(g)
            if t is LinImp:
                args.append(g.arg)
            else:
                slashes.append(_OVER_R if t is Over else _UNDER_R)
                lefts += t is Under
            g = g.result
        rights = len(slashes) - lefts
        tree, mask = rs[0]
        mask, trees, inserts, k = list(mask), [tree], [], 0
        while True:
            level = len(inserts)
            if level < len(args):
                try:
                    k = mask.index(args[~level], k)
                except ValueError:
                    pass
                else:
                    del mask[k]
                    inserts.append(k)
                    trees.append(ProofTree(_LINIMP_R, None, (trees[-1],), None, k))
                    k = 0
                    continue
            else:
                tree = trees[-1]
                for rule in reversed(slashes):
                    tree = ProofTree(rule, None, (tree,))
                yield tree, tuple(mask[lefts : len(mask) - rights])
            # Backtrack: the newest -oR takes its next pending copy.
            if not inserts:
                return
            k = inserts.pop()
            trees.pop()
            mask.insert(k, args[~len(inserts)])
            k += 1


def prove(
    s: Sequent,
    mode: CalculusMode = CalculusMode.SDL,
    *,
    budget: int = DEFAULT_BUDGET,
) -> tuple[ProofTree | None, SearchStats]:
    """Search for a cut-free proof of ``s``.

    Returns the first proof in canonical search order, or None when the
    search space is exhausted without one.  Raises BudgetExceededError
    after ``budget`` node expansions, or on expanding a state more than
    10,000 rule levels deep; that outcome means "unknown", not
    "underivable".  Raises ValueError for a sequent of 32,768 or more
    atom occurrences, too many for the packed count vectors.
    """
    search = _Search(mode, budget)
    tree = search.run(s)
    return tree, search.stats


def enumerate_proofs(
    s: Sequent,
    mode: CalculusMode = CalculusMode.SDL,
    limit: int = 10,
    *,
    budget: int = DEFAULT_BUDGET,
) -> list[ProofTree]:
    """Up to ``limit`` distinct proofs of ``s`` in canonical search order.

    One proof per focused normal form is enumerated.  It is right-first:
    no left rule concludes a sequent whose succedent's right rule exists
    in ``mode``.  It is focused: the right premise of a left rule
    decomposes the functor's result, down to Ax on its head atom.  Every
    derivable sequent has such proofs (module docstring), but proofs
    that differ from one only in the order of independent rules are
    not returned: ``a/a, a/a, a => a`` has one, ``a/a, a, a\\a => a``
    two.  Raises BudgetExceededError as ``prove`` does.
    """
    search = _Search(mode, budget)
    return search.enumerate(s, limit)
