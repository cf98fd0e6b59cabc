"""Seeded inputs, query pipelines and oracles for the four workloads.

Every input is generated here from the run's seed; nothing is imported
from the repository's tests.  Formulas are built as plain tuples and
rendered to concrete syntax, so the generators share no code with the
library they feed.

A workload is an endless stream of rounds: lists of ``Query`` objects
of fixed composition, shuffled by the seed.  Running a query returns an
``Answer``; ``check`` compares it with an oracle that does not use the
library's own verdict and returns an error message, or None when the
answer is right.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterator

# Chains ``b/a/.../a => a -o ... -o b`` of these lengths are proved in
# every round of ``prove``; only those up to CHAIN_JSON_CAP also go
# through proof JSON, whose size grows quadratically with the length.
CHAIN_LENGTHS = (10, 50, 200, 1000)
CHAIN_JSON_CAP = 200
# Deep enough that the recursive search raises RecursionError, after
# validate_input has spent about 1.5 s and 570 MB on it; it counts as a
# failed query.
DEEP_CHAIN = 6000
# Node budget for the random balanced sequents of ``prove``.
RANDOM_BUDGET = 2000


# ---------------------------------------------------------------------------
# Formulas as tuples: ("at", name) | (op, result, arg) with op in / \ -o
# ---------------------------------------------------------------------------


def atom(name: str) -> tuple:
    return ("at", name)


def text(f: tuple) -> str:
    """Concrete syntax; every compound operand is parenthesised."""
    if f[0] == "at":
        return f[1]
    res, arg = (t[1] if t[0] == "at" else f"({text(t)})" for t in f[1:])
    if f[0] == "/":
        return f"{res}/{arg}"
    if f[0] == "\\":
        return f"{arg}\\{res}"
    return f"{arg} -o {res}"


def sequent_text(ant, succ) -> str:
    return ", ".join(text(f) for f in ant) + " => " + text(succ)


def connectives(f: tuple) -> int:
    return 0 if f[0] == "at" else 1 + connectives(f[1]) + connectives(f[2])


def counts(f: tuple, sign: int, acc: dict[str, int]) -> None:
    """Add the signed primitive counts of ``f`` to ``acc``."""
    if f[0] == "at":
        acc[f[1]] = acc.get(f[1], 0) + sign
    else:
        counts(f[1], sign, acc)
        counts(f[2], -sign, acc)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


@dataclass
class Query:
    kind: str
    payload: Any
    mode: str = "sdl"
    expect: bool | None = None  # independent oracle; None when there is none
    serialize: bool = True


def rounds(seed: int, make_round: Callable[[random.Random, int], list[Query]]) -> Iterator[list[Query]]:
    rng = random.Random(seed)
    for index in itertools.count():
        batch = make_round(rng, index)
        rng.shuffle(batch)
        yield batch


def is_anbncn(word) -> bool:
    n = len(word) // 3
    return n >= 1 and "".join(word) == "a" * n + "b" * n + "c" * n


SHORT_WORDS = [w for n in range(1, 9) for w in itertools.product("abc", repeat=n)]


def anbncn_short_round(rng: random.Random, index: int) -> list[Query]:
    return [Query("word", w, "sdl", is_anbncn(w)) for w in SHORT_WORDS]


# Balanced words per round, as (length, count).  A word's cost depends
# mostly on where its a's are: words starting with "aa" cost about ten
# times as much as words starting with b or c.  A round takes a
# systematic sample of each length's words in lexicographic order, from
# a seeded random start: every prefix gets its population share, so the
# latency quantiles move less with the seed than those of a simple
# random sample.
BALANCED_SAMPLE = ((12, 33), (9, 12))


@functools.cache
def balanced_words(length: int) -> list[tuple[str, ...]]:
    """Every word over {a,b,c} of ``length`` with equal letter counts, sorted."""
    k = length // 3
    words = []
    for a_pos in itertools.combinations(range(length), k):
        rest = [i for i in range(length) if i not in a_pos]
        for b_pos in itertools.combinations(rest, k):
            word = ["c"] * length
            for i in a_pos:
                word[i] = "a"
            for i in b_pos:
                word[i] = "b"
            words.append(tuple(word))
    return sorted(words)


def anbncn_balanced_round(rng: random.Random, index: int, sample=BALANCED_SAMPLE) -> list[Query]:
    """Both members, then a systematic sample per length; sdl and sdl- alternate."""
    words = [tuple("aaabbbccc"), tuple("aaaabbbbcccc")]
    for length, k in sample:
        population = balanced_words(length)
        start = rng.random()
        words += [population[int((start + j) * len(population) / k)] for j in range(k)]
    return [
        Query("word", w, "sdl" if i % 2 else "sdl-", is_anbncn(w)) for i, w in enumerate(words)
    ]


def valid_instances(max_m: int, max_target: int):
    """Every (m, N, sizes) with N/4 < size < N/2 and sum m*N, in order."""
    for m in range(1, max_m + 1):
        for target in range(1, max_target + 1):
            lo, hi = target // 4 + 1, (target - 1) // 2
            for sizes in itertools.product(range(lo, hi + 1), repeat=3 * m):
                if sum(sizes) == m * target:
                    yield m, target, sizes


SMALL_INSTANCES = list(valid_instances(2, 16))

# Seeded large instances per round: for each (m, N), this many built to
# be solvable and as many drawn at random.  The m = 3, N = 20 class is
# the largest so that the tail percentile of the workload falls inside
# it, not at the edge between two classes.
LARGE_PER_ROUND = {(3, 16): 12, (3, 20): 24, (4, 16): 1, (4, 20): 1}
# Plus one m = 5 instance per round, always this one; at 1-3.5 s each,
# more would dominate the run.  The memory and time an m = 5 instance
# takes depend strongly on the order of its sizes: 83 to 178 MB and 1 to
# 3.5 s over 36 random instances with N = 16 and no 3-partition, the
# class that needs the most memory.  With random ones, of which a run
# meets only three or four, peak_rss_mb and items_per_s followed the
# seed.  This instance is among the heaviest.  It has no 3-partition:
# with N = 16 every size is 5, 6 or 7, the only triple of sum 16 is
# 5 + 5 + 6, and the 7 fits in none.
M5_INSTANCE = (5, 16, (7, 5, 5, 5, 5, 6, 5, 6, 6, 5, 5, 5, 5, 5, 5))


def random_instance(rng: random.Random, m: int, target: int, solvable: bool):
    lo, hi = target // 4 + 1, (target - 1) // 2
    if solvable:
        triples = [t for t in itertools.product(range(lo, hi + 1), repeat=3) if sum(t) == target]
        sizes = [s for _ in range(m) for s in rng.choice(triples)]
        rng.shuffle(sizes)
        return m, target, tuple(sizes)
    while True:
        sizes = [rng.randint(lo, hi) for _ in range(3 * m - 1)]
        last = m * target - sum(sizes)
        if lo <= last <= hi:
            return m, target, tuple(sizes + [last])


def reduction_round(
    rng: random.Random, index: int, small=SMALL_INSTANCES, large=LARGE_PER_ROUND, m5: bool = True
) -> list[Query]:
    batch = [Query("instance", inst) for inst in small]
    for (m, target), k in large.items():
        for _ in range(k):
            batch.append(Query("instance", random_instance(rng, m, target, True), expect=True))
            batch.append(Query("instance", random_instance(rng, m, target, False)))
    if m5:
        batch.append(Query("instance", M5_INSTANCE, expect=False))
    return batch


def random_formula(rng: random.Random, depth: int, atoms: str) -> tuple:
    if depth <= 0 or rng.random() < 0.45:
        return atom(rng.choice(atoms))
    return (rng.choice("/\\"), random_formula(rng, depth - 1, atoms), random_formula(rng, depth - 1, atoms))


def random_balanced(rng: random.Random, mode: str) -> str:
    """A random sequent over two primitives whose counts balance.

    In mode sdl one antecedent formula becomes a -o hypothesis of the
    succedent, which keeps the counts balanced and the -o positive.
    """
    while True:
        ant = [random_formula(rng, 2, "ab") for _ in range(rng.randint(4, 7))]
        succ = random_formula(rng, 1, "ab")
        acc: dict[str, int] = {}
        for f in ant:
            counts(f, 1, acc)
        counts(succ, -1, acc)
        if any(acc.values()):
            continue
        if mode == "sdl":
            hyp = ant.pop(rng.randrange(len(ant)))
            succ = ("-o", succ, hyp)
        return sequent_text(ant, succ)


def forward_sequent(rng: random.Random, mode: str, steps: int = 6, max_ant: int = 5, max_conn: int = 10) -> str:
    """A derivable sequent, grown by applying rules forward from axioms."""
    rules = ["/L", "\\L", "/L", "\\L"]
    if mode != "sdl-":
        rules += ["/R", "\\R"]
    if mode != "l":
        rules += ["-oR"]
    pool = [((a,), a) for a in (atom(rng.choice("abcd")), atom(rng.choice("abcd")))]
    for _ in range(steps):
        for _ in range(12):
            rule = rng.choice(rules)
            ant, succ = rng.choice(pool)
            if rule == "/R" and len(ant) >= 2:
                built = (ant[:-1], ("/", succ, ant[-1]))
            elif rule == "\\R" and len(ant) >= 2:
                built = (ant[1:], ("\\", succ, ant[0]))
            elif rule == "-oR" and len(ant) >= 2:
                k = rng.randrange(len(ant))
                built = (ant[:k] + ant[k + 1 :], ("-o", succ, ant[k]))
            elif rule in ("/L", "\\L"):
                ant1, succ1 = rng.choice(pool)
                i = rng.randrange(len(ant))
                if rule == "/L":
                    new_ant = ant[:i] + (("/", ant[i], succ1),) + ant1 + ant[i + 1 :]
                else:
                    new_ant = ant[:i] + ant1 + (("\\", ant[i], succ1),) + ant[i + 1 :]
                built = (new_ant, succ)
            else:
                continue
            if len(built[0]) <= max_ant and sum(map(connectives, (*built[0], built[1]))) <= max_conn:
                pool.append(built)
                break
    return sequent_text(*pool[-1])


def chain_text(n: int) -> str:
    return "b" + "/a" * n + " => " + "a -o " * n + "b"


def prove_round(
    rng: random.Random,
    index: int,
    forward: int = 300,
    random_count: int = 300,
    chains: tuple[int, ...] = (*CHAIN_LENGTHS, DEEP_CHAIN),
) -> list[Query]:
    batch = [
        Query("sequent", forward_sequent(rng, mode), mode, True)
        for mode in ("l", "sdl", "sdl-")
        for _ in range(forward)
    ]
    batch += [
        Query("sequent", random_balanced(rng, mode), mode, None)
        for mode in ("l", "sdl")
        for _ in range(random_count)
    ]
    batch += [
        Query("sequent", chain_text(n), "sdl", True, serialize=n <= CHAIN_JSON_CAP)
        for n in chains
    ]
    return batch


# ---------------------------------------------------------------------------
# Pipelines.  ``api`` holds the library calls, traced or not; ``lib`` is
# the imported package.  Each returns an Answer; exceptions propagate.
# ---------------------------------------------------------------------------


@dataclass
class Answer:
    verdict: bool | None  # None: unknown (budget or deadline)
    stats: Any = None
    proof: Any = None
    sequent: Any = None
    assignment: Any = None
    instance: Any = None
    violations: Any = None
    checked: bool | None = None
    json_text: str | None = None
    round_trip: Any = None


def run_word(api, lib, state, q: Query) -> Answer:
    mode = lib.CalculusMode(q.mode)
    r = api.recognize(state, q.payload, mode)
    verdict = None if r.budget_exhausted and not r.member else r.member
    return Answer(verdict, r.stats, r.proof, assignment=r.assignment)


def run_instance(api, lib, state, q: Query) -> Answer:
    m, target, sizes = q.payload
    inst = lib.ThreePartitionInstance(m, target, sizes)
    red = api.build_reduction(inst)
    grammar = api.grammar_from_text(api.grammar_to_text(red.grammar))
    r = api.recognize(grammar, red.word, lib.CalculusMode.SDL)
    verdict = None if r.budget_exhausted and not r.member else r.member
    return Answer(verdict, r.stats, r.proof, assignment=r.assignment, instance=inst)


def run_sequent(api, lib, state, q: Query) -> Answer:
    mode = lib.CalculusMode(q.mode)
    s = api.parse_sequent(q.payload)
    violations = api.validate_input(s, mode)
    budget = lib.DEFAULT_BUDGET if q.expect else RANDOM_BUDGET
    try:
        tree, stats = api.prove(s, mode, budget=budget)
    except lib.BudgetExceededError as e:
        return Answer(None, e.stats, sequent=s)
    ans = Answer(tree is not None, stats, tree, sequent=s, violations=violations)
    if tree is not None:
        ans.checked = api.check_proof(tree, mode)
        if q.serialize:
            ans.json_text = api.proof_to_json_text(tree)
            ans.round_trip = api.proof_from_json_text(ans.json_text)
    return ans


RUNNERS = {"word": run_word, "instance": run_instance, "sequent": run_sequent}


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def proof_nodes(tree) -> int:
    stack, n = [tree], 0
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.premises)
    return n


def partition_ok(sizes, target, partition) -> bool:
    used = sorted(i for triple in partition for i in triple)
    return used == list(range(len(sizes))) and all(
        len(t) == 3 and sum(sizes[i] for i in t) == target for t in partition
    )


def check(lib, q: Query, ans: Answer) -> str | None:
    """Error message when ``ans`` is wrong, else None.  Unknown is not wrong."""
    if ans.verdict is None:
        return None
    mode = lib.CalculusMode(q.mode)
    if q.kind == "instance":
        m, target, sizes = q.payload
        truth = lib.solve_3partition(ans.instance)
        if truth is not None and not partition_ok(sizes, target, truth):
            return f"solve_3partition returned an invalid partition for {q.payload}"
        expect = truth is not None
        if q.expect is not None and q.expect != expect:
            return f"solve_3partition says {expect}, the generator {q.expect}: {q.payload}"
    else:
        expect = q.expect
    if expect is not None and ans.verdict != expect:
        return f"{q.kind} {q.payload!r:.80} in {q.mode}: got {ans.verdict}, expected {expect}"
    if not ans.verdict:
        return None
    if q.kind == "sequent":
        if ans.violations:
            return f"derivable sequent {q.payload:.80} reported input violations"
        if not ans.checked or ans.proof.conclusion != ans.sequent:
            return f"proof of {q.payload:.80} does not replay"
        if ans.json_text is not None and ans.round_trip != ans.proof:
            return f"proof of {q.payload:.80} changed in the JSON round trip"
        return None
    # Membership witnesses: the proof must replay and derive exactly the
    # witness assignment, which must come from the lexicon.
    if not lib.check_proof(ans.proof, mode) or ans.proof.conclusion.antecedent != ans.assignment:
        return f"witness proof for {q.payload!r:.80} does not replay"
    if q.kind == "instance":
        try:
            partition = lib.assignment_to_partition(ans.instance, ans.assignment)
        except lib.AssignmentDecodeError as e:
            return f"witness for {q.payload} does not decode: {e}"
        if not partition_ok(q.payload[2], q.payload[1], partition):
            return f"decoded partition {partition} for {q.payload} is not a 3-partition"
    return None


class Digest:
    """Hash of every verdict, in stream order.

    It covers the verdicts that have no oracle (random sequents), so two
    commits can be compared on them.
    """

    def __init__(self) -> None:
        self._h = hashlib.sha256()
        self.count = 0

    def add(self, q: Query, ans: Answer | None) -> None:
        verdict = "error" if ans is None else {True: "yes", False: "no", None: "unknown"}[ans.verdict]
        self._h.update(f"{q.mode}|{q.payload}|{verdict}\n".encode())
        self.count += 1

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


def assignments_total(state, q: Query) -> int:
    """Size of the type-assignment product a membership query ranges over."""
    if q.kind == "word":
        return math.prod(len(state.lexicon[t]) for t in q.payload)
    if q.kind == "instance":
        m = q.payload[0]
        return m ** (3 * m)  # one type for v, m slot types for each w_i
    return 0
