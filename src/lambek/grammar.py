"""Categorial grammars over Lambek types, and word membership.

A grammar assigns each terminal a finite set of types; a nonempty word
``w1 ... wn`` is in the language when some choice of one type per
token, read left to right, yields a sequent deriving the start
primitive.  The empty word is never in the language.

Grammar file format (one header, then one line per terminal; ``#``
starts a comment)::

    start: x
    a: x/(c -o (b -o x)) | x/(c -o (b -o y))
    b: (y/b)/y | (y/b)/z
    c: (z/c)/z | z/c

Membership enumerates type assignments in lexicographic order of the
lexicon entries.  Assignments whose count vectors cannot balance are
skipped wholesale (the count invariant makes them underivable): a table
per prefix length holds the residual count vectors that the rest of the
word can still supply, so entire prefixes of the assignment product can
be discarded at once.  The tables are grown from both ends of the word
until they meet in the middle.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

from .analysis import formula_counts
from .prooftree import ProofTree
from .prover import DEFAULT_BUDGET, BudgetExceededError, CalculusMode, SearchStats, _Search
from .syntax import Atom, Formula, IDENT_RE, Over, Sequent, format_formula, parse_formula

__all__ = [
    "Grammar",
    "ParseResult",
    "UnknownTerminalError",
    "GrammarFormatError",
    "assignments",
    "recognize",
    "anbncn_grammar",
    "grammar_from_text",
    "grammar_to_text",
    "GnfProduction",
    "Cfg",
    "GnfError",
    "cfg_to_grammar",
]


class UnknownTerminalError(ValueError):
    def __init__(self, terminal: str):
        super().__init__(f"terminal {terminal!r} is not in the grammar's alphabet")
        self.terminal = terminal


class GrammarFormatError(ValueError):
    pass


_TERMINAL_RULE = "a terminal is nonempty, has no whitespace, '#' or ':', and is not 'start'"


def _is_terminal(name: str) -> bool:
    """Whether a grammar file can hold ``name`` as a terminal (``_TERMINAL_RULE``)."""
    return bool(name) and name != "start" and not any(c.isspace() or c in "#:" for c in name)


@dataclass(frozen=True)
class Grammar:
    """Lexicalized grammar: a start primitive and a type lexicon."""

    start: str
    lexicon: dict[str, tuple[Formula, ...]]

    def __post_init__(self) -> None:
        if not IDENT_RE.fullmatch(self.start):
            raise ValueError(f"start symbol {self.start!r} is not a primitive name")
        for terminal, entry in self.lexicon.items():
            if not _is_terminal(terminal):
                raise ValueError(f"bad terminal {terminal!r}: {_TERMINAL_RULE}")
            if not entry:
                raise ValueError(f"terminal {terminal!r} has an empty lexicon entry")
        # Entries are tuples, so a grammar equals the one its text reads back as.
        if any(type(entry) is not tuple for entry in self.lexicon.values()):
            object.__setattr__(self, "lexicon", {t: tuple(entry) for t, entry in self.lexicon.items()})

    @property
    def alphabet(self) -> frozenset[str]:
        return frozenset(self.lexicon)


@dataclass(frozen=True)
class ParseResult:
    member: bool
    assignment: tuple[Formula, ...] | None
    proof: ProofTree | None
    stats: SearchStats
    budget_exhausted: bool


def _entries(g: Grammar, word: list[str] | tuple[str, ...]) -> list[tuple[Formula, ...]]:
    if not word:
        raise ValueError("the empty word is never a member; give at least one token")
    out = []
    for token in word:
        entry = g.lexicon.get(token)
        if entry is None:
            raise UnknownTerminalError(token)
        out.append(entry)
    return out


def assignments(g: Grammar, word: list[str] | tuple[str, ...]):
    """All type assignments for ``word`` in lexicographic entry order."""
    return itertools.product(*_entries(g, word))


def _vkey(vec: dict[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(vec.items()))


def _shift(key: tuple[tuple[str, int], ...], vec: dict[str, int]) -> tuple[tuple[str, int], ...]:
    """The key of the count vector ``key`` plus ``vec``."""
    merged = dict(key)
    for name, k in vec.items():
        new = merged.get(name, 0) + k
        if new:
            merged[name] = new
        else:
            del merged[name]
    return _vkey(merged)


# A table is built only while it stays within this size.  When the next
# table of the cheaper side would pass it, the front tables are dropped
# and every prefix shorter than the back tables reach is admitted.
#
# On the m = 5 reduction instance 7 5 5 5 5 6 5 6 6 5 5 5 5 5 5, N = 16
# (times on CPython 3.11, one core of a 2-core host), the sides meet at
# position 8 with 3,150 residuals each and none in common, after 19,466
# merges: the filter refutes the instance in 0.1 s, with a 7 MiB
# tracemalloc peak.  Tables grown from the end alone hold 188,825
# residuals at positions 0 and 1, so the cap dropped those two; building
# the rest took about 543,000 merges, 3.2 s and 136 MiB.  With 5 5 6
# appended (m = 6) the sides meet at position 9 with 29,862 and 27,027
# residuals, after 197,329 merges, 1.4 s and 70 MiB; at m = 7 the next
# table passes the cap.
#
# On the reduction's grammars count balance alone decides the instance:
# some assignment survives this filter exactly when a partition exists
# (test_count_filter_decides_small_instances).  That does not make the
# filter a pseudo-polynomial 3-partition decider.  Its tables at the
# meeting point grow exponentially with m, as the sizes above show, and
# 3-partition is NP-complete in the strong sense, so no decider
# polynomial in m and in the unary sizes exists unless P = NP.
_SUFFIX_CAP = 50_000


def _tick(stop: float | None) -> None:
    """Raise TimeoutError once ``time.monotonic()`` passes ``stop``, if given."""
    if stop is not None and time.monotonic() > stop:
        raise TimeoutError


def _grow(table: set, vecs: list[dict[str, int]], stop: float | None) -> set | None:
    """Every key of ``table`` shifted by every vector of ``vecs``, or None past the cap."""
    out: set = set()
    for vec in vecs:
        _tick(stop)
        for key in table:
            out.add(_shift(key, vec))
            if len(out) > _SUFFIX_CAP:
                return None
    return out


def _residual_tables(entries, start, plus, minus, stop):
    """``suffix[i]``: the residuals after ``i`` entries that ``entries[i:]`` can sum to.

    Residuals are ``_vkey`` keys; ``start`` is the target's.
    ``suffix[i]`` is None where the cap stopped the tables, and such a
    prefix is admitted unchecked.  The tables meet in the middle, as in
    Horowitz and Sahni's subset-sum algorithm: ``front[i]`` holds the
    target minus the counts of each prefix of length ``i``, ``back[i]``
    the counts of each assignment of ``entries[i:]``, and the side whose
    next table is cheaper to build (table size times entry size) grows
    until the two meet at ``k``.  Then ``suffix[k]`` is
    ``front[k] & back[k]``; below ``k`` a front residual is kept when a
    formula of its entry leads into the table above; above ``k``
    ``suffix[i]`` is ``back[i]``.  Every table is exact on the residuals
    that prefixes reach.
    """
    n = len(entries)
    front: list[set] = [{start}]
    suffix: list[set | None] = [None] * n + [{()}]  # suffix[hi:] holds back[hi:]
    lo, hi = 0, n
    while lo < hi:
        if len(front[lo]) * len(entries[lo]) < len(suffix[hi]) * len(entries[hi - 1]):
            table = _grow(front[lo], [minus[f] for f in entries[lo]], stop)
            if table is None:
                return suffix
            front.append(table)
            lo += 1
        else:
            table = _grow(suffix[hi], [plus[f] for f in entries[hi - 1]], stop)
            if table is None:
                return suffix
            hi -= 1
            suffix[hi] = table
    suffix[hi] = front[hi] & suffix[hi]
    for i in range(hi - 1, -1, -1):
        above = suffix[i + 1]
        if not above:
            # No prefix of length i + 1 can be completed, so no shorter one can.
            suffix[: i + 1] = [set()] * (i + 1)
            break
        rest = front[i]
        for f in entries[i]:
            _tick(stop)
            vec = minus[f]
            rest = [key for key in rest if _shift(key, vec) not in above]
        suffix[i] = front[i].difference(rest)
    return suffix


def _balanced_assignments(entries, target, skipped, stop=None):
    """Yield assignments whose total count vector equals ``target``.

    ``skipped`` is a one-element list accumulating how many assignments
    were discarded.  Enumeration order matches ``assignments``.  Raises
    TimeoutError once ``time.monotonic()`` passes ``stop``; the clock is
    read only when ``stop`` is given, once per lexicon entry of a table
    built or pruned and once per finished prefix.
    """
    n = len(entries)
    sizes = [math.prod(len(e) for e in entries[i:]) for i in range(n + 1)]
    plus = {f: formula_counts(f) for f in set(itertools.chain(*entries))}
    minus = {f: {name: -k for name, k in vec.items()} for f, vec in plus.items()}
    start = _vkey(target)
    suffix = _residual_tables(entries, start, plus, minus, stop)

    def admit(i: int, residual: tuple[tuple[str, int], ...]) -> bool:
        """Whether ``i`` entries can be followed by ones summing to ``residual``.

        ``suffix[n]`` is never capped, so a full assignment is admitted
        only when it reaches ``target``.
        """
        ss = suffix[i]
        if ss is not None and residual not in ss:
            skipped[0] += sizes[i]
            return False
        return True

    # Depth-first over prefixes, as a loop: a generator that called
    # itself through a closure would be a reference cycle, keeping the
    # tables of every query alive until the cyclic collector runs.
    if not admit(0, start):
        return
    prefix: list[Formula] = []
    residuals = [start]
    choices = [iter(entries[0])]
    while choices:
        f = next(choices[-1], None)
        if f is None:
            _tick(stop)
            choices.pop()
            residuals.pop()
            if prefix:
                prefix.pop()
            continue
        residual = _shift(residuals[-1], minus[f])
        i = len(prefix) + 1
        if not admit(i, residual):
            continue
        if i == n:
            yield (*prefix, f)
            continue
        prefix.append(f)
        residuals.append(residual)
        choices.append(iter(entries[i]))


def recognize(
    g: Grammar,
    word: list[str] | tuple[str, ...],
    mode: CalculusMode = CalculusMode.SDL,
    *,
    budget: int = DEFAULT_BUDGET,
    deadline: float | None = None,
) -> ParseResult:
    """Decide membership of ``word``, returning the first witness found.

    ``budget`` caps search nodes per assignment; ``deadline`` (seconds)
    caps the whole query.  When either trips without a witness the
    result has ``member=False`` and ``budget_exhausted=True``, meaning
    "unknown" rather than "no".  The deadline covers the count filter as
    well as the search.  A NaN deadline, which would never trip, is a
    ValueError.
    """
    if deadline is not None and math.isnan(deadline):
        raise ValueError("the deadline is not a number")
    entries = _entries(g, word)
    target = {g.start: 1}
    goal = Atom(g.start)
    # The search checks the deadline at every node, the filter in its own loops.
    stop = None if deadline is None else time.monotonic() + deadline
    search = _Search(mode, budget, stop)
    exhausted = False
    skipped = [0]
    witness: tuple[Formula, ...] | None = None
    proof: ProofTree | None = None
    try:
        for assignment in _balanced_assignments(entries, target, skipped, stop):
            search.new_budget_window()
            try:
                tree = search.run(Sequent(assignment, goal))
            except BudgetExceededError:
                exhausted = True
                continue
            if tree is not None:
                witness, proof = assignment, tree
                break
    except TimeoutError:
        exhausted = True
    stats = search.stats
    stats.pruned_by_count += skipped[0]
    if witness is not None:
        return ParseResult(True, witness, proof, stats, False)
    return ParseResult(False, None, None, stats, exhausted)


# ---------------------------------------------------------------------------
# Grammar files
# ---------------------------------------------------------------------------


def grammar_from_text(text: str) -> Grammar:
    start: str | None = None
    lexicon: dict[str, tuple[Formula, ...]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise GrammarFormatError(f"line {lineno}: expected 'name: ...'")
        name, _, rhs = line.partition(":")
        name = name.strip()
        rhs = rhs.strip()
        if start is None:
            if name != "start":
                raise GrammarFormatError(f"line {lineno}: the first entry must be 'start: <primitive>'")
            start = rhs
            continue
        if name == "start":
            raise GrammarFormatError(f"line {lineno}: duplicate start header")
        if name in lexicon:
            raise GrammarFormatError(f"line {lineno}: duplicate terminal {name!r}")
        try:
            entry = tuple(parse_formula(part) for part in rhs.split("|"))
        except ValueError as e:
            raise GrammarFormatError(f"line {lineno}: {e}") from e
        lexicon[name] = entry
    if start is None:
        raise GrammarFormatError("missing 'start:' header")
    try:
        return Grammar(start, lexicon)
    except ValueError as e:
        raise GrammarFormatError(str(e)) from e


def grammar_to_text(g: Grammar) -> str:
    lines = [f"start: {g.start}"]
    for terminal, entry in g.lexicon.items():
        lines.append(f"{terminal}: " + " | ".join(format_formula(f) for f in entry))
    return "\n".join(lines) + "\n"


def anbncn_grammar() -> Grammar:
    """Grammar for { a^n b^n c^n : n >= 1 } (not context-free).

    Each ``a`` promises one later ``b`` and one later ``c`` through a
    -o chain; the ``b`` and ``c`` rows are plain directional types, so
    membership needs no /R or \\R and works in mode sdl- as well.
    """
    return grammar_from_text(
        """
        start: x
        a: x/(c -o (b -o x)) | x/(c -o (b -o y))
        b: (y/b)/y | (y/b)/z
        c: (z/c)/z | z/c
        """
    )


# ---------------------------------------------------------------------------
# Context-free grammars in Greibach normal form
# ---------------------------------------------------------------------------


class GnfError(ValueError):
    pass


@dataclass(frozen=True)
class GnfProduction:
    """``head -> terminal body[0] ... body[-1]`` with nonterminal body."""

    head: str
    terminal: str
    body: tuple[str, ...] = ()


@dataclass(frozen=True)
class Cfg:
    start: str
    productions: tuple[GnfProduction, ...]


def cfg_to_grammar(cfg: Cfg) -> Grammar:
    """Translate a Greibach normal form CFG into a slash-only grammar.

    ``A -> a B1 ... Bk`` becomes the type ``(...(A/Bk)/.../B1`` in
    ``l(a)``, so the string material for ``B1`` is consumed first.  The
    result is -o-free and therefore behaves identically under modes l,
    sdl and sdl-.
    """
    if not cfg.productions:
        raise GnfError("a grammar needs at least one production")
    heads = {p.head for p in cfg.productions}
    for p in cfg.productions:
        for sym in (p.head, *p.body):
            if not IDENT_RE.fullmatch(sym):
                raise GnfError(f"nonterminal {sym!r} is not a primitive name ([a-z][a-z0-9_]*)")
        if not _is_terminal(p.terminal):
            raise GnfError(f"bad terminal {p.terminal!r}: {_TERMINAL_RULE}")
        for sym in p.body:
            if sym not in heads:
                raise GnfError(f"nonterminal {sym!r} in {p.head!r} -> ... has no production")
    if cfg.start not in heads:
        raise GnfError(f"start symbol {cfg.start!r} has no production")
    lexicon: dict[str, list[Formula]] = {}
    for p in cfg.productions:
        t: Formula = Atom(p.head)
        for sym in reversed(p.body):
            t = Over(t, Atom(sym))
        entry = lexicon.setdefault(p.terminal, [])
        if t not in entry:
            entry.append(t)
    return Grammar(cfg.start, lexicon)
