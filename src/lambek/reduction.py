"""3-partition instances and their encoding as grammar membership.

An instance asks whether ``3m`` item sizes, each strictly between
``target/4`` and ``target/2`` and summing to ``m * target``, can be
split into ``m`` triples that each sum to ``target``.  The encoding
builds a grammar and a fixed word ``v w1 ... w3m`` such that the word
is in the language exactly when the instance is solvable:

* the start primitive is ``a``; the other primitives are ``d`` and one
  ``bj`` / ``cj`` pair per triple slot ``j``,
* ``v`` gets the single type
  ``a / (b1 -o b1 -o b1 -o ... -o bm -o (c1 -o ... -o d))`` with three
  ``bj`` hypotheses and ``target`` many ``cj`` hypotheses per slot,
* ``wi`` (``i < 3m``) gets, for every slot ``j``, the type
  ``(((d/cj)/.../cj)/bj)/d`` with ``sizes[i-1]`` many ``cj``,
* ``w3m`` gets the same types without the trailing ``/d``.

Choosing the slot ``j`` for each token ``wi`` is exactly choosing the
triple that item ``i`` joins; count balance forces every slot to be
chosen three times with sizes summing to ``target``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import reduce
from typing import Iterator, NamedTuple

from .grammar import Grammar
from .syntax import Atom, Formula, LinImp, Over, _fold_right

__all__ = [
    "ThreePartitionInstance",
    "Partition",
    "ReductionOutput",
    "AssignmentDecodeError",
    "validate_instance",
    "canonical_partition",
    "solve_3partition",
    "build_reduction",
    "partition_to_assignment",
    "assignment_to_partition",
    "instance_from_json",
    "instance_to_json",
]


@dataclass(frozen=True)
class ThreePartitionInstance:
    """``sizes`` holds ``3m`` item sizes; triples must sum to ``target``."""

    m: int
    target: int
    sizes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sizes", tuple(self.sizes))


Partition = tuple[tuple[int, int, int], ...]


class ReductionOutput(NamedTuple):
    grammar: Grammar
    word: tuple[str, ...]


class AssignmentDecodeError(ValueError):
    """A type assignment does not have the shape the encoding produces."""


def validate_instance(inst: ThreePartitionInstance) -> list[str]:
    """Return human-readable violations; an empty list means well formed.

    Sizes are reported with 1-based positions.  The size bounds are the
    strict ones, ``target/4 < size < target/2``, which force any triple
    summing to ``target`` to have exactly three members.
    """
    problems = []
    if inst.m < 1:
        problems.append(f"m must be at least 1, got {inst.m}")
    if inst.target < 1:
        problems.append(f"target must be at least 1, got {inst.target}")
    if len(inst.sizes) != 3 * inst.m:
        problems.append(f"expected 3m = {3 * inst.m} sizes, got {len(inst.sizes)}")
    lo, hi = inst.target / 4, inst.target / 2
    for pos, size in enumerate(inst.sizes, start=1):
        if not lo < size < hi:
            problems.append(
                f"size {size} at position {pos} is outside the open interval "
                f"(target/4, target/2) = ({lo}, {hi})"
            )
    if sum(inst.sizes) != inst.m * inst.target:
        problems.append(
            f"sizes sum to {sum(inst.sizes)}, expected m * target = {inst.m * inst.target}"
        )
    return problems


def canonical_partition(triples) -> Partition:
    """Sort each triple and order triples by their smallest member."""
    fixed = []
    for triple in triples:
        t = tuple(sorted(triple))
        if len(t) != 3 or len(set(t)) != 3:
            raise ValueError(f"{triple!r} is not a triple of distinct indices")
        fixed.append(t)
    return tuple(sorted(fixed))


def solve_3partition(inst: ThreePartitionInstance) -> Partition | None:
    """Exact search for a partition into triples summing to ``target``.

    Returns the lexicographically least canonical partition, or None.
    Each triple is anchored at the smallest index not yet used, so the
    result is already canonical.
    """
    if len(inst.sizes) != 3 * inst.m:
        raise ValueError("sizes length must be exactly 3m")
    if sum(inst.sizes) != inst.m * inst.target:
        return None
    sizes, target = inst.sizes, inst.target

    def triples(unused: tuple[int, ...]) -> Iterator[tuple[tuple[int, int, int], tuple[int, ...]]]:
        """Each triple anchored at ``unused[0]`` that sums to ``target``, in
        lexicographic order, with the indices it leaves unused."""
        anchor, rest = unused[0], unused[1:]
        for j, k in itertools.combinations(range(len(rest)), 2):
            if sizes[anchor] + sizes[rest[j]] + sizes[rest[k]] == target:
                yield (anchor, rest[j], rest[k]), rest[:j] + rest[j + 1 : k] + rest[k + 1 :]

    # Depth-first on an explicit stack: one generator per triple chosen so
    # far, plus the one choosing the next.
    acc: list[tuple[int, int, int]] = []
    stack = []
    unused = tuple(range(len(sizes)))
    while unused:
        stack.append(triples(unused))
        while (step := next(stack[-1], None)) is None:
            stack.pop()
            if not stack:
                return None
            acc.pop()
        triple, unused = step
        acc.append(triple)
    return tuple(acc)


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def _v_type(inst: ThreePartitionInstance) -> Formula:
    hypotheses = []
    for j in range(1, inst.m + 1):
        hypotheses.extend([Atom(f"b{j}")] * 3)
    for j in range(1, inst.m + 1):
        hypotheses.extend([Atom(f"c{j}")] * inst.target)
    hypotheses.append(Atom("d"))
    return Over(Atom("a"), _fold_right(LinImp, hypotheses))


def _w_type(inst: ThreePartitionInstance, i: int, j: int) -> Formula:
    """Type for token ``wi`` that books item ``i`` into slot ``j``."""
    d, bj, cj = Atom("d"), Atom(f"b{j}"), Atom(f"c{j}")
    t = reduce(Over, [d, *[cj] * inst.sizes[i - 1], bj])
    return Over(t, d) if i < 3 * inst.m else t


def build_reduction(inst: ThreePartitionInstance) -> ReductionOutput:
    """Build the grammar and word encoding ``inst``.

    The word is a member (mode sdl) exactly when the instance has a
    valid 3-partition.  Raises ValueError on ill-formed instances.
    """
    problems = validate_instance(inst)
    if problems:
        raise ValueError("ill-formed instance: " + "; ".join(problems))
    n = 3 * inst.m
    lexicon: dict[str, tuple[Formula, ...]] = {"v": (_v_type(inst),)}
    # A row depends only on the item's size and on whether it is the last.
    rows: dict[tuple[int, bool], tuple[Formula, ...]] = {}
    for i in range(1, n + 1):
        key = (inst.sizes[i - 1], i == n)
        row = rows.get(key)
        if row is None:
            row = rows[key] = tuple(_w_type(inst, i, j) for j in range(1, inst.m + 1))
        lexicon[f"w{i}"] = row
    word = ("v",) + tuple(f"w{i}" for i in range(1, n + 1))
    return ReductionOutput(Grammar("a", lexicon), word)


def partition_to_assignment(
    inst: ThreePartitionInstance, partition: Partition
) -> tuple[Formula, ...]:
    """Assignment for the reduction word that realizes ``partition``."""
    n = 3 * inst.m
    seen: dict[int, int] = {}
    for slot, triple in enumerate(partition, start=1):
        if sum(inst.sizes[i] for i in triple) != inst.target:
            raise ValueError(f"triple {triple!r} does not sum to {inst.target}")
        for i in triple:
            if i in seen:
                raise ValueError(f"index {i} appears in two triples")
            seen[i] = slot
    if sorted(seen) != list(range(n)):
        raise ValueError(f"partition does not cover 0..{n - 1} exactly")
    types = [_v_type(inst)]
    types.extend(_w_type(inst, i, seen[i - 1]) for i in range(1, n + 1))
    return tuple(types)


def assignment_to_partition(
    inst: ThreePartitionInstance, assignment: tuple[Formula, ...]
) -> Partition:
    """Read the partition back off a reduction-word assignment.

    Raises AssignmentDecodeError when the assignment is not one the
    encoding can produce or the slots are not balanced.
    """
    n = 3 * inst.m
    if len(assignment) != n + 1:
        raise AssignmentDecodeError(f"expected {n + 1} types, got {len(assignment)}")
    if assignment[0] != _v_type(inst):
        raise AssignmentDecodeError("first type is not the one assigned to 'v'")
    groups: dict[int, list[int]] = {j: [] for j in range(1, inst.m + 1)}
    for i in range(1, n + 1):
        for j in range(1, inst.m + 1):
            if assignment[i] == _w_type(inst, i, j):
                groups[j].append(i - 1)
                break
        else:
            raise AssignmentDecodeError(f"type {i} is not one assigned to 'w{i}'")
    for j, members in groups.items():
        if len(members) != 3:
            raise AssignmentDecodeError(f"slot {j} holds {len(members)} items, not 3")
        if sum(inst.sizes[i] for i in members) != inst.target:
            raise AssignmentDecodeError(f"slot {j} sizes do not sum to {inst.target}")
    return canonical_partition(groups[j] for j in sorted(groups))


# ---------------------------------------------------------------------------
# Instance files
# ---------------------------------------------------------------------------


def instance_from_json(text: str) -> ThreePartitionInstance:
    """Parse ``{"m": ..., "N": ..., "sizes": [...]}`` (N is the triple sum)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"bad instance JSON: {e}") from e
    if not isinstance(data, dict) or set(data) != {"m", "N", "sizes"}:
        raise ValueError('instance JSON needs exactly the keys "m", "N" and "sizes"')

    def intval(x, what):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"{what} must be an integer")
        return x

    sizes = data["sizes"]
    if not isinstance(sizes, list):
        raise ValueError('"sizes" must be a list of integers')
    return ThreePartitionInstance(
        intval(data["m"], '"m"'),
        intval(data["N"], '"N"'),
        tuple(intval(s, '"sizes" entry') for s in sizes),
    )


def instance_to_json(inst: ThreePartitionInstance) -> str:
    return json.dumps({"m": inst.m, "N": inst.target, "sizes": list(inst.sizes)})
