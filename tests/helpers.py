"""Shared test machinery.

Independent oracles live here so the library is never checked
against itself:

* a forward proof generator that builds derivable sequents by
  instantiating rules root-ward from axioms,
* ``naive_check``, a straight replay of the rule schemas used to
  cross-validate the packaged checker and to filter proof mutants,
  with ``mutate_proof`` and ``relabel_proof`` to make those mutants;
  its ``oracle_conclusions`` derives every node's conclusion from the
  root's, for the proof tree's own walk and the tests that read inner
  conclusions,
* random formula and sequent generators,
* ``oracle_counts`` and ``oracle_balanced``, primitive counts and
  the count invariant from their definition,
* ``oracle_chain``, ``oracle_atoms`` and ``oracle_usable``, a
  formula's head, chain sides, atom occurrences and usable polarities,
  for the facts on each formula node,
* ``brute_force_splits``, every way to split a pending multiset by
  counts, for the prover's split routine,
* ``brute_force_balanced``, every assignment whose counts sum to a
  target, for the grammar's count filter,
* ``reference_violations``, a recursive reading of the -o input
  checks, for ``validate_input``,
* ``naive_derivable``, a plain positional sequent search, for the
  prover's verdicts, with ``shuffled_sequent`` to feed it sequents
  whose counts balance but that are often underivable, and
  ``zero_linimp_sequent`` for balanced sequents with -o in either
  polarity,
* ``mirror_sequent``, a sequent read right to left, and
  ``rename_sequent``, its primitives renamed, for relations that
  ``prove`` and ``enumerate_proofs`` must keep at any size, with
  ``pending_bag_sequent`` for sequents whose search materializes
  pending formulas,
* ``all_valid_instances``, every small 3-partition instance, and
  ``brute_force_3partition``, every split into triples, for
  ``solve_3partition``,
* ``reference_repr``, the dataclass ``repr`` written out recursively,
  for the explicit-stack ``repr`` of formulas and proof trees,
* ``recursion_limit``, to show that a walk does not recurse per level,
* ``scan_tokens``, a character-level tokenizer, for the positions of
  syntax errors.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import random
import sys

from lambek import (
    Atom,
    CalculusMode,
    Formula,
    LinImp,
    Over,
    ProofTree,
    Rule,
    Sequent,
    ThreePartitionInstance,
    Under,
    format_formula,
    parse_sequent,
)

ATOMS = ("a", "b", "c", "d")


def random_formula(rng: random.Random, depth: int, allow_linimp: bool = True) -> Formula:
    if depth <= 0 or rng.random() < 0.4:
        return Atom(rng.choice(ATOMS))
    kinds = ["over", "under"] + (["linimp"] if allow_linimp else [])
    kind = rng.choice(kinds)
    left = random_formula(rng, depth - 1, allow_linimp)
    right = random_formula(rng, depth - 1, allow_linimp)
    if kind == "over":
        return Over(left, right)
    if kind == "under":
        return Under(left, right)
    return LinImp(left, right)


def random_sequent(rng: random.Random, allow_linimp: bool = True) -> Sequent:
    n = rng.randint(1, 4)
    antecedent = tuple(random_formula(rng, 2, allow_linimp) for _ in range(n))
    return Sequent(antecedent, random_formula(rng, 2, allow_linimp))


# ---------------------------------------------------------------------------
# Forward generation of derivable sequents (with their proofs)
# ---------------------------------------------------------------------------


def _axiom(name: str) -> ProofTree:
    return ProofTree(Rule.AX, Sequent((Atom(name),), Atom(name)))


def forward_proof(
    rng: random.Random,
    mode: CalculusMode = CalculusMode.SDL,
    steps: int = 6,
    max_antecedent: int = 5,
    max_connectives: int = 10,
) -> ProofTree:
    """Grow a valid proof by applying rules forward from axioms.

    Every returned tree is correct by construction; its conclusion is
    therefore a derivable sequent of the given mode.  The pool holds
    whole trees; a tree becomes a premise without its conclusion, which
    only a root holds.
    """
    pool = [_axiom(rng.choice(ATOMS)) for _ in range(2)]
    for _ in range(steps):
        built = _forward_step(rng, pool, mode, max_antecedent, max_connectives)
        if built is not None:
            pool.append(built)
    return pool[-1]


def _forward_step(rng, pool, mode, max_antecedent, max_connectives):
    from lambek import connective_count

    for _ in range(12):
        rule = rng.choice(_forward_rules(mode))
        t2 = rng.choice(pool)
        ant, succ = t2.conclusion.antecedent, t2.conclusion.succedent
        p2 = dataclasses.replace(t2, conclusion=None)
        if rule is Rule.OVER_R and len(ant) >= 2:
            built = ProofTree(rule, Sequent(ant[:-1], Over(succ, ant[-1])), (p2,))
        elif rule is Rule.UNDER_R and len(ant) >= 2:
            built = ProofTree(rule, Sequent(ant[1:], Under(ant[0], succ)), (p2,))
        elif rule is Rule.LINIMP_R and len(ant) >= 2:
            k = rng.randrange(len(ant))
            built = ProofTree(
                rule,
                Sequent(ant[:k] + ant[k + 1 :], LinImp(ant[k], succ)),
                (p2,),
                insert=k,
            )
        elif rule in (Rule.OVER_L, Rule.UNDER_L):
            t1 = rng.choice(pool)
            ant1, succ1 = t1.conclusion.antecedent, t1.conclusion.succedent
            i = rng.randrange(len(ant))
            picked = ant[i]
            if rule is Rule.OVER_L:
                functor = Over(picked, succ1)
                new_ant = ant[:i] + (functor,) + ant1 + ant[i + 1 :]
                split = (i, len(ant1))
            else:
                functor = Under(succ1, picked)
                new_ant = ant[:i] + ant1 + (functor,) + ant[i + 1 :]
                split = (i, len(ant1))
            built = ProofTree(rule, Sequent(new_ant, succ), (dataclasses.replace(t1, conclusion=None), p2), split=split)
        else:
            continue
        c = built.conclusion
        if len(c.antecedent) > max_antecedent:
            continue
        if connective_count(c) > max_connectives:
            continue
        return built
    return None


def _forward_rules(mode: CalculusMode) -> list[Rule]:
    rules = [Rule.OVER_L, Rule.UNDER_L, Rule.OVER_L, Rule.UNDER_L]
    if mode is not CalculusMode.SDL_MINUS:
        rules += [Rule.OVER_R, Rule.UNDER_R]
    if mode is not CalculusMode.L:
        rules += [Rule.LINIMP_R]
    return rules


# ---------------------------------------------------------------------------
# Independent proof validation (the oracle for checker tests)
# ---------------------------------------------------------------------------


def oracle_premise_conclusions(node: ProofTree, c: Sequent) -> list[Sequent] | None:
    """The conclusions the rule schemas give the premises of ``node`` when it
    concludes ``c``, in premise order; None when its rule data do not apply."""
    ant, succ = c.antecedent, c.succedent
    rule = node.rule
    if rule is Rule.AX:
        return []
    if rule is Rule.OVER_R:
        return [Sequent(ant + (succ.arg,), succ.result)] if isinstance(succ, Over) else None
    if rule is Rule.UNDER_R:
        return [Sequent((succ.arg,) + ant, succ.result)] if isinstance(succ, Under) else None
    if rule is Rule.LINIMP_R:
        k = node.insert
        if not (isinstance(succ, LinImp) and 0 <= k <= len(ant)):
            return None
        return [Sequent(ant[:k] + (succ.arg,) + ant[k:], succ.result)]
    u, n = node.split
    if rule is Rule.OVER_L:
        if not (0 <= u and n >= 1 and u + 1 + n <= len(ant) and isinstance(ant[u], Over)):
            return None
        f = ant[u]
        return [Sequent(ant[u + 1 : u + 1 + n], f.arg), Sequent(ant[:u] + (f.result,) + ant[u + 1 + n :], succ)]
    if not (0 <= u and n >= 1 and u + n < len(ant) and isinstance(ant[u + n], Under)):
        return None
    f = ant[u + n]
    return [Sequent(ant[u : u + n], f.arg), Sequent(ant[:u] + (f.result,) + ant[u + n + 1 :], succ)]


def oracle_conclusions(t: ProofTree) -> list[tuple[ProofTree, Sequent | None]]:
    """Each node of ``t`` in preorder with the conclusion the rule schemas
    give it from the root's: None below rule data that do not apply."""
    out = []
    stack = [(t, t.conclusion)]
    while stack:
        node, c = stack.pop()
        out.append((node, c))
        given = None if c is None else oracle_premise_conclusions(node, c)
        stack += reversed(list(zip(node.premises, given or [None] * len(node.premises))))
    return out


def naive_check(t: ProofTree, mode: CalculusMode) -> bool:
    """Validate a proof tree directly against the rule schemas."""
    if t.conclusion is None:
        return False
    for node, c in oracle_conclusions(t):
        if c is None:
            return False
        if node.rule is Rule.AX and not (isinstance(c.succedent, Atom) and c.antecedent == (c.succedent,)):
            return False
        if node.rule in (Rule.OVER_R, Rule.UNDER_R) and mode is CalculusMode.SDL_MINUS:
            return False
        if node.rule is Rule.LINIMP_R and mode is CalculusMode.L:
            return False
    return True


# ---------------------------------------------------------------------------
# Single-edit proof mutants
# ---------------------------------------------------------------------------


def _all_paths(t: ProofTree, prefix=()):
    yield prefix
    for i, kid in enumerate(t.premises):
        yield from _all_paths(kid, prefix + (i,))


def _node_at(t: ProofTree, path):
    for i in path:
        t = t.premises[i]
    return t


def _replace_at(t: ProofTree, path, new: ProofTree) -> ProofTree:
    if not path:
        return new
    kids = list(t.premises)
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], new)
    return ProofTree(t.rule, t.conclusion, tuple(kids), split=t.split, insert=t.insert)


def _pick_node(rng: random.Random, t: ProofTree, keep=lambda node: True):
    """A random path to a node that ``keep`` accepts, with the node and the
    length of its conclusion's antecedent; None when there is none."""
    picks = [
        (path, node, len(c.antecedent))
        for path, (node, c) in zip(_all_paths(t), oracle_conclusions(t))
        if keep(node)
    ]
    return rng.choice(picks) if picks else None


def mutate_proof(rng: random.Random, t: ProofTree) -> ProofTree | None:
    """One random structural edit; None when the pick was inapplicable.

    Edits are the ones that matter for a verifier: flipped split or
    insert positions, and swapped premises of a two-premise rule.  The
    conclusions below the edit are derived afresh from the root's, so
    the result can coincidentally still be a valid proof; callers
    filter with naive_check.
    """
    path, node, ant_len = _pick_node(rng, t)
    choices = []
    if node.split is not None:
        choices.append("split")
    if node.insert is not None:
        choices.append("insert")
    if len(node.premises) == 2:
        choices.append("swap")
    if not choices:
        return None
    kind = rng.choice(choices)
    if kind == "split":
        u, n = node.split
        for _ in range(8):
            new_split = (rng.randint(0, ant_len - 1), rng.randint(1, max(ant_len - 1, 1)))
            if new_split != (u, n):
                break
        else:
            return None
        mutated = ProofTree(node.rule, node.conclusion, node.premises, split=new_split)
    elif kind == "insert":
        k = node.insert
        new_k = rng.choice([x for x in range(ant_len + 1) if x != k] or [k + 1])
        mutated = ProofTree(node.rule, node.conclusion, node.premises, insert=new_k)
    else:
        mutated = ProofTree(
            node.rule,
            node.conclusion,
            (node.premises[1], node.premises[0]),
            split=node.split,
            insert=node.insert,
        )
    out = _replace_at(t, path, mutated)
    return None if out == t else out


# /R, \\R and -oR abstract over the succedent's argument, /L and \\L apply a functor.
_SAME_ARITY = {1: (Rule.OVER_R, Rule.UNDER_R, Rule.LINIMP_R), 2: (Rule.OVER_L, Rule.UNDER_L)}


def relabel_proof(rng: random.Random, t: ProofTree) -> ProofTree | None:
    """``t`` with one node given another rule of the same arity; None when all are Ax.

    /L and \\L swap and keep their split.  /R, \\R and -oR swap among
    themselves: a node that becomes -oR gets an insert in range, any
    other gets none.  Callers judge the result with naive_check.
    """
    pick = _pick_node(rng, t, lambda node: node.premises)
    if pick is None:
        return None
    path, node, ant_len = pick
    rule = rng.choice([r for r in _SAME_ARITY[len(node.premises)] if r is not node.rule])
    insert = rng.randint(0, ant_len) if rule is Rule.LINIMP_R else None
    return _replace_at(t, path, ProofTree(rule, node.conclusion, node.premises, split=node.split, insert=insert))


# ---------------------------------------------------------------------------
# Brute-force splits of a pending multiset (the oracle for the prover's)
# ---------------------------------------------------------------------------


def oracle_counts(f: Formula) -> dict[str, int]:
    """Primitive counts of ``f`` straight from their definition."""
    if isinstance(f, Atom):
        return {f.name: 1}
    out = dict(oracle_counts(f.result))
    for name, n in oracle_counts(f.arg).items():
        out[name] = out.get(name, 0) - n
    return {name: n for name, n in out.items() if n}


def oracle_balanced(s: Sequent) -> bool:
    """Whether the antecedent's ``oracle_counts`` sum to the succedent's."""
    lhs: dict[str, int] = {}
    for f in s.antecedent:
        for name, n in oracle_counts(f).items():
            lhs[name] = lhs.get(name, 0) + n
    return {name: n for name, n in lhs.items() if n} == oracle_counts(s.succedent)


def oracle_chain(f: Formula) -> tuple[Formula, set[str]]:
    """The head of ``f`` and its chain's sides, straight from their definitions.

    The head is the atom or -o reached from ``f`` by following results
    through / and \\; the sides are the slashes passed on the way.
    """
    if not isinstance(f, (Over, Under)):
        return f, set()
    head, sides = oracle_chain(f.result)
    return head, sides | {"/" if isinstance(f, Over) else "\\"}


def oracle_atoms(f: Formula) -> int:
    """The number of atom occurrences in ``f``."""
    return 1 if isinstance(f, Atom) else oracle_atoms(f.result) + oracle_atoms(f.arg)


def oracle_usable(f: Formula, mode: CalculusMode) -> set[str]:
    """The polarities, "+" and "-", at which every -o occurrence in ``f`` is usable in ``mode``.

    Mode l has no rule for -o, the sdl modes only -oR, so a -o is usable
    nowhere in l and only in positive position in sdl and sdl-.  The
    argument of a connective flips the polarity and its result keeps it.
    """

    def usable(g: Formula, positive: bool) -> bool:
        if isinstance(g, Atom):
            return True
        if isinstance(g, LinImp) and (mode is CalculusMode.L or not positive):
            return False
        return usable(g.result, positive) and usable(g.arg, not positive)

    return {sign for sign, positive in (("+", True), ("-", False)) if usable(f, positive)}


def brute_force_splits(bag, need: dict[str, int]) -> list[tuple]:
    """Every sub-multiset of ``bag`` whose summed counts equal ``need``.

    ``bag`` is a tuple of (formula, multiplicity) pairs.  Each take is
    returned in the same shape, in bag order, without zero entries.
    Takes come in lexicographic order of the multiplicities of the
    compound formulas, in bag order; the atoms' multiplicities are then
    forced, so at most one take exists per choice of the compounds.
    """
    order = [i for i, (f, _) in enumerate(bag) if not isinstance(f, Atom)]
    order += [i for i, (f, _) in enumerate(bag) if isinstance(f, Atom)]
    want = {name: n for name, n in need.items() if n}
    counts = [oracle_counts(f) for f, _ in bag]
    out = []
    for picks in itertools.product(*(range(bag[i][1] + 1) for i in order)):
        total: dict[str, int] = {}
        for i, t in zip(order, picks):
            for name, n in counts[i].items():
                total[name] = total.get(name, 0) + t * n
        if {name: n for name, n in total.items() if n} == want:
            taken = dict(zip(order, picks))
            out.append(tuple((f, taken[i]) for i, (f, _) in enumerate(bag) if taken[i]))
    return out


# ---------------------------------------------------------------------------
# Brute-force balanced assignments (the oracle for the grammar's count filter)
# ---------------------------------------------------------------------------


def brute_force_balanced(entries, target: dict[str, int]) -> list[tuple]:
    """Every assignment of one formula per entry whose counts sum to ``target``.

    Assignments come in the order of ``itertools.product(*entries)``.
    """
    want = {name: n for name, n in target.items() if n}
    out = []
    for assignment in itertools.product(*entries):
        total: dict[str, int] = {}
        for f in assignment:
            for name, n in oracle_counts(f).items():
                total[name] = total.get(name, 0) + n
        if {name: n for name, n in total.items() if n} == want:
            out.append(assignment)
    return out


# ---------------------------------------------------------------------------
# Input checks (the oracle for validate_input)
# ---------------------------------------------------------------------------


def reference_violations(s: Sequent, mode: CalculusMode) -> list[tuple[str, str]]:
    """(kind, message) of every -o occurrence ``mode`` cannot use.

    A recursive walk straight from the definition of polarity: roots of
    the antecedent are negative, the succedent positive, an argument
    flips its parent's polarity and a result keeps it.  Occurrences come
    in preorder over the printed operands, antecedent first.
    """
    out: list[tuple[str, str]] = []

    def walk(f: Formula, side: str, index: int, positive: bool) -> None:
        if isinstance(f, Atom):
            return
        where = f"({side} position {index})"
        if isinstance(f, LinImp) and mode is CalculusMode.L:
            out.append(("linimp-in-l", f"mode l has no rules for {format_formula(f)} {where}"))
        elif isinstance(f, LinImp) and not positive:
            out.append(
                ("negative-linimp", f"{format_formula(f)} occurs negatively {where} and -o has no left rule")
            )
        if isinstance(f, Over):
            walk(f.result, side, index, positive)
            walk(f.arg, side, index, not positive)
        else:
            walk(f.arg, side, index, not positive)
            walk(f.result, side, index, positive)

    for i, f in enumerate(s.antecedent):
        walk(f, "antecedent", i, False)
    walk(s.succedent, "succedent", 0, True)
    return out


def chain_sequent(n: int) -> Sequent:
    """``b/a/.../a => a -o ... -o b`` with n of each: its proof has depth 2n + 1."""
    return parse_sequent("b" + "/a" * n + " => " + "a -o " * n + "b")


# ---------------------------------------------------------------------------
# Derivability by plain positional search (the oracle for prove's verdicts)
# ---------------------------------------------------------------------------


def naive_derivable(s: Sequent, mode: CalculusMode) -> bool:
    """Whether ``s`` is derivable in ``mode``, by trying every rule instance.

    Backward search over concrete antecedents: Ax, /R and \\R unless the
    mode is sdl-, -oR with its hypothesis at every position unless the
    mode is l, and /L and \\L on every functor with every nonempty span
    next to it.  Every premise has fewer connectives than its
    conclusion, so the search ends.  There are no pending bags, count
    lanes or rule orderings: it shares none of the prover's machinery.
    """
    directional = mode is not CalculusMode.SDL_MINUS
    linear = mode is not CalculusMode.L

    @functools.cache
    def derivable(ant: tuple[Formula, ...], succ: Formula) -> bool:
        if isinstance(succ, Atom) and ant == (succ,):
            return True
        if directional and isinstance(succ, Over) and derivable(ant + (succ.arg,), succ.result):
            return True
        if directional and isinstance(succ, Under) and derivable((succ.arg,) + ant, succ.result):
            return True
        if linear and isinstance(succ, LinImp):
            for k in range(len(ant) + 1):
                if derivable(ant[:k] + (succ.arg,) + ant[k:], succ.result):
                    return True
        for i, f in enumerate(ant):
            if isinstance(f, Over):
                spans = [(i + 1, j) for j in range(i + 2, len(ant) + 1)]
            elif isinstance(f, Under):
                spans = [(j, i) for j in range(i)]
            else:
                continue
            for lo, hi in spans:
                rest = ant[: min(lo, i)] + (f.result,) + ant[max(hi, i + 1) :]
                if derivable(ant[lo:hi], f.arg) and derivable(rest, succ):
                    return True
        return False

    return derivable(tuple(s.antecedent), s.succedent)


def _flip_slashes(rng: random.Random, f: Formula) -> Formula:
    """``f`` with one random slash subformula turned round (A/B <-> B\\A); counts stay."""
    slashes = [(path, g) for path, g in _subformula_paths(f) if isinstance(g, (Over, Under))]
    if not slashes:
        return f
    path, g = rng.choice(slashes)
    flipped = Under if isinstance(g, Over) else Over
    return _replace(f, path, flipped(result=g.result, arg=g.arg))


def _subformula_paths(f: Formula, path: tuple[str, ...] = ()):
    yield path, f
    if not isinstance(f, Atom):
        yield from _subformula_paths(f.result, path + ("result",))
        yield from _subformula_paths(f.arg, path + ("arg",))


def _replace(f: Formula, path: tuple[str, ...], new: Formula) -> Formula:
    """``f`` with its subformula at ``path`` replaced by ``new``."""
    if not path:
        return new
    parts = {"result": f.result, "arg": f.arg}
    parts[path[0]] = _replace(parts[path[0]], path[1:], new)
    return type(f)(**parts)


def shuffled_sequent(rng: random.Random, mode: CalculusMode) -> Sequent:
    """A count-balanced sequent: a forward-generated one, usually mutated.

    Three in four are mutated by ``swap_or_flip``, so the count filter
    alone cannot refute the result.
    """
    s = forward_proof(rng, mode).conclusion
    return swap_or_flip(rng, s) if rng.random() < 0.75 else s


def swap_or_flip(rng: random.Random, s: Sequent) -> Sequent:
    """``s`` with two antecedent formulas swapped or one slash turned round somewhere.

    Neither edit changes any primitive's count.
    """
    ant, succ = list(s.antecedent), s.succedent
    if len(ant) >= 2 and rng.random() < 0.5:
        i, j = rng.sample(range(len(ant)), 2)
        ant[i], ant[j] = ant[j], ant[i]
    else:
        k = rng.randrange(len(ant) + 1)
        if k == len(ant):
            succ = _flip_slashes(rng, succ)
        else:
            ant[k] = _flip_slashes(rng, ant[k])
    return Sequent(tuple(ant), succ)


ZERO_LINIMP = LinImp(Atom("p"), Atom("p"))


def zero_linimp_sequent(rng: random.Random, mode: CalculusMode) -> Sequent:
    """A forward-generated sequent with ``p -o p`` put in one to three times.

    ``p -o p`` counts zero for every primitive, so the counts still
    balance.  Each insertion adds it as an antecedent formula, where it
    is negative, or wraps a random subformula ``X`` of a random formula
    as ``X/(p -o p)`` or ``(p -o p)\\X``, where its polarity is the
    opposite of X's.  So -o lands in both polarities on both sides.
    """
    s = forward_proof(rng, mode).conclusion
    formulas = [*s.antecedent, s.succedent]
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(formulas) + 1)
        if k == len(formulas):
            formulas.insert(rng.randrange(len(formulas)), ZERO_LINIMP)
            continue
        path, x = rng.choice(list(_subformula_paths(formulas[k])))
        wrapped = Over(x, ZERO_LINIMP) if rng.random() < 0.5 else Under(ZERO_LINIMP, x)
        formulas[k] = _replace(formulas[k], path, wrapped)
    return Sequent(tuple(formulas[:-1]), formulas[-1])


def _mirror(f: Formula) -> Formula:
    if isinstance(f, Atom):
        return f
    if isinstance(f, Over):
        return Under(_mirror(f.arg), _mirror(f.result))
    if isinstance(f, Under):
        return Over(_mirror(f.result), _mirror(f.arg))
    return LinImp(_mirror(f.arg), _mirror(f.result))


def mirror_sequent(s: Sequent) -> Sequent:
    """``s`` read right to left: the antecedent reversed, every ``A/B``
    turned into ``B\\A`` and back, -o left alone.

    The rules map onto each other (/R onto \\R, /L onto \\L, -oR at
    ``k`` onto -oR at ``n - k``), so in every mode ``s`` and its mirror
    image have the same verdict and the same focused normal forms.
    """
    return Sequent(tuple(_mirror(f) for f in reversed(s.antecedent)), _mirror(s.succedent))


def _rename(f: Formula, names: dict[str, str]) -> Formula:
    if isinstance(f, Atom):
        return Atom(names[f.name])
    return type(f)(result=_rename(f.result, names), arg=_rename(f.arg, names))


def rename_sequent(s: Sequent, names: dict[str, str]) -> Sequent:
    """``s`` with each primitive ``p`` renamed ``names[p]``.

    An injective renaming maps the rules onto themselves with the same
    rule data, so in every mode ``s`` and its renaming have the same
    verdict and the same proofs, found in the same order.
    """
    return Sequent(tuple(_rename(f, names) for f in s.antecedent), _rename(s.succedent, names))


def pending_bag_sequent(rng: random.Random, mode: CalculusMode) -> Sequent:
    """A forward-generated sequent closed by /R or \\R and then two -oR steps.

    Half of those with two or more antecedent formulas left have two of
    them swapped, which keeps the counts and often the derivability too.
    """
    while True:
        s = forward_proof(rng, mode).conclusion
        if len(s.antecedent) >= 4:
            break
    ant, succ = list(s.antecedent), s.succedent
    succ = Over(succ, ant.pop()) if rng.random() < 0.5 else Under(ant.pop(0), succ)
    for _ in range(2):
        succ = LinImp(ant.pop(rng.randrange(len(ant))), succ)
    if len(ant) > 1 and rng.random() < 0.5:
        i, j = rng.sample(range(len(ant)), 2)
        ant[i], ant[j] = ant[j], ant[i]
    return Sequent(tuple(ant), succ)


def all_valid_instances(max_m: int, max_target: int):
    """Every valid 3-partition instance with m <= ``max_m`` and N <= ``max_target``."""
    for m in range(1, max_m + 1):
        for target in range(1, max_target + 1):
            low = target // 4 + 1
            high = (target - 1) // 2
            for sizes in itertools.product(range(low, high + 1), repeat=3 * m):
                if sum(sizes) == m * target:
                    yield ThreePartitionInstance(m, target, sizes)


def brute_force_3partition(inst: ThreePartitionInstance):
    """The least canonical partition of ``inst`` into triples summing to its target, or None.

    Every partition of the indices into triples is listed, with no
    pruning by size, and the least whose triples all sum to the target
    is taken, so no search order is trusted.
    """
    sizes = inst.sizes
    valid = {t for t in itertools.combinations(range(len(sizes)), 3) if sum(sizes[i] for i in t) == inst.target}
    return min(filter(valid.issuperset, _triple_partitions(len(sizes))), default=None)


@functools.cache
def _triple_partitions(n: int) -> list[tuple[tuple[int, int, int], ...]]:
    """Every partition of range(n) into sorted triples, ordered by their smallest members."""
    out = []
    stack = [((), tuple(range(n)))]
    while stack:
        done, rest = stack.pop()
        if not rest:
            out.append(done)
            continue
        for p, q in itertools.combinations(rest[1:], 2):
            stack.append((done + ((rest[0], p, q),), tuple(i for i in rest[1:] if i != p and i != q)))
    return out


def reference_repr(x: object, out: list[str] | None = None) -> str:
    """``repr(x)`` as a dataclass writes it, recursing through dataclass
    fields and tuples; needs a recursion limit above the depth of ``x``."""
    top = out is None
    out = [] if top else out
    if dataclasses.is_dataclass(x):
        out.append(type(x).__qualname__ + "(")
        for i, field in enumerate(dataclasses.fields(x)):
            out.append((", " if i else "") + field.name + "=")
            reference_repr(getattr(x, field.name), out)
        out.append(")")
    elif type(x) is tuple:
        out.append("(")
        for i, y in enumerate(x):
            out.append(", " if i else "")
            reference_repr(y, out)
        out.append(",)" if len(x) == 1 else ")")
    else:
        out.append(repr(x))
    return "".join(out) if top else ""


@contextlib.contextmanager
def recursion_limit(frames: int):
    """Run the body with the recursion limit ``frames`` above the current stack depth."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


# ---------------------------------------------------------------------------
# Tokens, read one character at a time
# ---------------------------------------------------------------------------

_IDENT_START = "abcdefghijklmnopqrstuvwxyz"
_IDENT_REST = _IDENT_START + "0123456789_"


def scan_tokens(text: str) -> tuple[list[tuple[str, int]], int | None]:
    """Each token of ``text`` with its position, up to the first character
    that starts no token, and that character's position (None if none).

    Tokens are identifiers ``[a-z][a-z0-9_]*``, ``-o``, ``=>`` and the
    characters ``( ) / \\ ,``; whitespace separates them.
    """
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif text.startswith("-o", i) or text.startswith("=>", i):
            tokens.append((text[i : i + 2], i))
            i += 2
        elif c in "()/\\,":
            tokens.append((c, i))
            i += 1
        elif c in _IDENT_START:
            j = i + 1
            while j < n and text[j] in _IDENT_REST:
                j += 1
            tokens.append((text[i:j], i))
            i = j
        else:
            return tokens, i
    return tokens, None
