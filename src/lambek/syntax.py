"""Concrete syntax for product-free Lambek formulas and sequents.

Formulas are built from primitive types with three connectives::

    formula := linimp
    linimp  := slash ("-o" linimp)?
    slash   := atomic (("/" atomic)* | ("\\" atomic)*)
    atomic  := IDENT | "(" formula ")"
    IDENT   := [a-z][a-z0-9_]*

"-o" (linear implication) binds loosest and associates to the right.
"/" associates to the left, "\\" to the right (a\\b\\c parses as
a\\(b\\c)).  Mixing "/" and "\\" at the same level without parentheses
is a syntax error.  A sequent is written "f1, f2, ... => g" and must
have at least one antecedent formula.

``a/b`` consumes a ``b`` to its right and yields an ``a``; ``b\\a``
consumes a ``b`` to its left; ``b -o a`` consumes a ``b`` anywhere.

Formulas are hash-consed (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006): the constructors return the one live node with
the given class and operands, so two formulas are equal exactly when
they are the same object, and ``==`` and ``hash`` are ``object``'s.
Construction is thread-safe, and an unpickled or copied formula is the
live node.  The intern table holds its nodes weakly.  Each class has a
constructor of its own, with the operands named: ``Atom(name)``,
``Over(result, arg)``, ``Under(arg, result)`` and ``LinImp(arg,
result)``, so that finding a live node builds its key and nothing else.
A node also carries four facts about its shape, set once from its
operands' facts before it enters the table, for the prover's filters.

Construction takes no lock.  A miss builds the whole node first and
then publishes it with one ``dict.setdefault``, which enters it only
if no entry for its key is there.  The key is a tuple of a class and
strings or nodes, which hash and compare in C (a node by identity), so
no Python code runs inside that call: it is one step under the GIL,
and free-threaded builds hold the dict's own lock for it.  Of two
threads that build the same formula, one publishes its node and the
other finds that node live and returns it, dropping its own; no thread
sees a node before its operands and facts are set.  A dead entry, left
while a dropped node's removal callback has not run yet, is removed
with ``_remove_dead_weakref``, which deletes an entry only while it is
still dead, and the publication is tried again.  The callback deletes
in the same way, so it never removes a newer live node of its key.

The tokenizer checks the whole text once, with one regular-expression
match, for characters that start no token, and then takes every
token's text with one ``findall``.  Token positions are not kept: the
position of a syntax error is found by scanning the text again when
the error is raised.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass, fields
from functools import reduce
from itertools import islice

__all__ = [
    "Atom",
    "Over",
    "Under",
    "LinImp",
    "Formula",
    "Sequent",
    "FormulaSyntaxError",
    "parse_formula",
    "parse_sequent",
    "format_formula",
    "format_sequent",
    "subformulas",
    "connective_count",
]

IDENT_RE = re.compile(r"[a-z][a-z0-9_]*")


class FormulaSyntaxError(ValueError):
    """Malformed formula or sequent text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message, self.position = message, position


class _Ref(weakref.ref):
    """A weak reference to an interned node that carries the node's key."""

    __slots__ = ("key",)


def _forget(ref: _Ref) -> None:
    # Runs when the node dies: it deletes the entry only while that holds
    # a dead reference, not one to a newer node with the same key.
    _remove_dead_weakref(_nodes, ref.key)


_nodes: dict[tuple, _Ref] = {}  # (class, *operands) -> the one live node

# _Node._sides: whether the result chain has a \ argument, whose span takes fixed
# formulas on its left, and whether it has a / argument, whose span takes those on its right.
_LEFT_ARG, _RIGHT_ARG = 1, 2

# _Node._usable: the polarities where -o has its right rule (the sdl modes: a -o is
# usable in positive position), and, with _L, where it has none (mode l: nowhere).
_POSITIVE, _NEGATIVE, _POSITIVE_L, _NEGATIVE_L = 1, 2, 4, 8


def _insert(key: tuple) -> _Node:
    """The live node of ``key``, made and published in the table if there is none.

    A new node's operands and facts (``_Node``) are set here, once,
    before it is published: ``setdefault`` enters it unless a live node
    is there already, which is then returned and the new one dropped.  A
    dead entry whose callback has not run yet is removed, and the
    publication tried again.
    """
    cls = key[0]
    node = object.__new__(cls)
    for set_operand, value in zip(_set_operands[cls], key[1:]):
        set_operand(node, value)
    if cls is Atom:
        head, sides, atoms, usable = None, 0, 1, _POSITIVE | _NEGATIVE | _POSITIVE_L | _NEGATIVE_L
    else:
        r, a = node.result, node.arg
        atoms, u = r._atoms + a._atoms, a._usable
        # The result keeps the polarity and the argument flips it.
        usable = r._usable & ((u >> 1 & (_POSITIVE | _POSITIVE_L)) | (u & (_POSITIVE | _POSITIVE_L)) << 1)
        if cls is LinImp:
            head, sides, usable = None, 0, usable & _POSITIVE
        else:
            head, sides = r._head or r, r._sides | (_RIGHT_ARG if cls is Over else _LEFT_ARG)
    _set_head(node, head)
    _set_sides(node, sides)
    _set_atoms(node, atoms)
    _set_usable(node, usable)
    ref = _Ref(node, _forget)
    ref.key = key
    while True:
        found = _nodes.setdefault(key, ref)
        if found is ref:
            return node
        live = found()
        if live is not None:
            return live
        _remove_dead_weakref(_nodes, key)


class _Node:
    """A hash-consed formula node: equal formulas are one object.

    Each class's constructor looks its key ``(class, *operands)`` up in
    the table and returns the node found there as it is; only a miss
    goes to ``_insert``.  A copy or pickle is the formula's text, parsed
    back into the live node, and the ``repr`` is the dataclass one built
    without recursion, so no depth of formula recurses.

    Four facts about its shape sit in private slots, not fields:
    ``_head``, the atom or -o its result chain ends in, through / and \\
    (None for an atom or a -o: a node pointing at itself would be a
    reference cycle); ``_sides``, the slashes on that chain; ``_atoms``,
    its atom occurrences; ``_usable``, where its -o's are all usable.
    """

    __slots__ = ("__weakref__", "_head", "_sides", "_atoms", "_usable")

    def __str__(self) -> str:
        return format_formula(self)

    def __repr__(self) -> str:
        return _dataclass_repr(self, _Node)

    def __reduce__(self):
        return parse_formula, (format_formula(self),)


# The facts' setters, as a frozen dataclass's own __setattr__ raises.
_set_head, _set_sides, _set_atoms, _set_usable = (getattr(_Node, name).__set__ for name in _Node.__slots__[1:])


def _dataclass_repr(root: object, kind: type) -> str:
    """``repr(root)`` as a dataclass writes it, for a dataclass ``root``
    whose fields hold more instances of ``kind``, directly or in tuples.

    The text and values still to print are kept on an explicit stack,
    so that no depth runs into the recursion limit.
    """
    out: list[str] = []
    stack: list = [root]  # text to print, or a value to open
    while stack:
        x = stack.pop()
        if type(x) is str:
            out.append(x)
            continue
        if type(x) is tuple:
            items = [("", v) for v in x]
            opening, closing = "(", ",)" if len(x) == 1 else ")"
        else:
            items = [(f.name + "=", getattr(x, f.name)) for f in fields(x)]
            opening, closing = type(x).__qualname__ + "(", ")"
        parts = [opening]
        for i, (label, v) in enumerate(items):
            parts.append(", " + label if i else label)
            parts.append(v if type(v) is tuple or isinstance(v, kind) else repr(v))
        parts.append(closing)
        stack += reversed(parts)
    return "".join(out)


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Atom(_Node):
    """A primitive type, named by a lowercase identifier."""

    name: str

    def __new__(cls, name: str) -> Atom:
        key = (cls, name)
        ref = _nodes.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        return _insert(key)


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Over(_Node):
    """``result/arg``: a functor looking for ``arg`` on its right."""

    result: Formula
    arg: Formula

    def __new__(cls, result: Formula, arg: Formula) -> Over:
        key = (cls, result, arg)
        ref = _nodes.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        return _insert(key)


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Under(_Node):
    """``arg\\result``: a functor looking for ``arg`` on its left."""

    arg: Formula
    result: Formula

    def __new__(cls, arg: Formula, result: Formula) -> Under | LinImp:
        key = (cls, arg, result)
        ref = _nodes.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        return _insert(key)


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class LinImp(_Node):
    """``arg -o result``: consumes ``arg`` anywhere in the antecedent."""

    arg: Formula
    result: Formula

    __new__ = Under.__new__  # the same operands, in the same order


Formula = Atom | Over | Under | LinImp

# Each class's operand setters, in the order of its key, for _insert.
_set_operands = {cls: [getattr(cls, name).__set__ for name in cls.__match_args__] for cls in (Atom, Over, Under, LinImp)}


@dataclass(frozen=True, slots=True)
class Sequent:
    """``antecedent => succedent`` with a nonempty antecedent."""

    antecedent: tuple[Formula, ...]
    succedent: Formula

    def __post_init__(self) -> None:
        # Any sequence is stored as a tuple, so that sequents hash and
        # compare by content; the prover passes tuples, which stay as they are.
        if type(self.antecedent) is not tuple:
            object.__setattr__(self, "antecedent", tuple(self.antecedent))
        if not self.antecedent:
            raise ValueError("sequent antecedent must be nonempty")

    def __str__(self) -> str:
        return format_sequent(self)


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"-o|=>|[a-z][a-z0-9_]*|[()/\\,]")
# Whitespace and tokens, as far as they go: the whole text when it is
# all tokens.  The look-ahead keeps an identifier whole, so that no
# match backtracks through its characters.
_TEXT_RE = re.compile(r"(?:\s*(?:-o|=>|[a-z][a-z0-9_]*(?![a-z0-9_])|[()/\\,]))*\s*")
# Every token but an identifier, and "" for the end of the text.
_PUNCTUATION = frozenset(["(", ")", "/", "\\", "-o", "=>", ",", ""])


def _tokens(text: str) -> list[str]:
    """Each token's text, ending with ``""``.

    A character that starts no token raises, at its position.
    """
    end = _TEXT_RE.match(text).end()
    if end < len(text):
        raise FormulaSyntaxError(f"unexpected character {text[end]!r}", end)
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")
    return tokens


def _error(text: str, i: int, message: str) -> FormulaSyntaxError:
    """``message`` at the position of token ``i`` of ``text`` (the end for the last, ``""``)."""
    m = next(islice(_TOKEN_RE.finditer(text), i, None), None)
    return FormulaSyntaxError(message, len(text) if m is None else m.start())


def _formula(text: str, tokens: list[str], i: int, atoms: dict[str, Atom]) -> tuple[Formula, int]:
    """The formula that starts at ``tokens[i]``, and the index of the token after it.

    ``atoms`` maps the names already read to their atoms.  One loop, with
    no recursion: ``(`` pushes the open frame (its ``-o`` items, its slash
    and its slash chain) and ``)`` pops it.
    """
    frames: list[tuple[list[Formula], str | None, list[Formula]]] = []
    items: list[Formula] = []
    slash: str | None = None
    chain: list[Formula] = []
    while True:
        # An operand starts here.
        tok = tokens[i]
        if tok == "(":
            i += 1
            frames.append((items, slash, chain))
            items, slash, chain = [], None, []
            continue
        if tok in _PUNCTUATION:
            raise _error(text, i, f"expected a formula, found {tok!r}")
        i += 1
        f = atoms.get(tok)
        if f is None:
            f = atoms[tok] = Atom(tok)
        # Close the chains that end after it, up to the next operator.
        while True:
            chain.append(f)
            tok = tokens[i]
            if tok == "/" or tok == "\\":
                if slash is None:
                    slash = tok
                elif slash != tok:
                    raise _error(text, i, "cannot mix '/' and '\\' without parentheses")
                i += 1
                break
            # "/" associates to the left, "\\" to the right.
            items.append(reduce(Over, chain) if slash == "/" else _fold_right(Under, chain))
            if tok == "-o":
                i += 1
                slash, chain = None, []
                break
            f = _fold_right(LinImp, items)
            if not frames:
                return f, i
            if tok != ")":
                raise _error(text, i, f"expected rpar, found {tok!r}")
            i += 1
            items, slash, chain = frames.pop()


def _fold_right(cls: type[Under] | type[LinImp], items: list[Formula]) -> Formula:
    """``cls(items[0], cls(items[1], ...))``, a right-associative chain; empties ``items``."""
    result = items.pop()
    while items:
        result = cls(items.pop(), result)
    return result


def _end(text: str, tokens: list[str], i: int) -> None:
    if tokens[i]:
        raise _error(text, i, f"trailing input {tokens[i]!r}")


def parse_formula(text: str) -> Formula:
    """Parse concrete formula syntax; raises FormulaSyntaxError on bad input."""
    tokens = _tokens(text)
    f, i = _formula(text, tokens, 0, {})
    _end(text, tokens, i)
    return f


def parse_sequent(text: str) -> Sequent:
    """Parse "f1, f2, ... => g" into a Sequent."""
    tokens = _tokens(text)
    atoms: dict[str, Atom] = {}
    f, i = _formula(text, tokens, 0, atoms)
    antecedent = [f]
    while tokens[i] == ",":
        f, i = _formula(text, tokens, i + 1, atoms)
        antecedent.append(f)
    if tokens[i] != "=>":
        raise _error(text, i, f"expected arrow, found {tokens[i]!r}")
    succedent, i = _formula(text, tokens, i + 1, atoms)
    _end(text, tokens, i)
    return Sequent(tuple(antecedent), succedent)


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def format_formula(f: Formula) -> str:
    """Render a formula with the minimum parentheses that reparse to it.

    The formulas and text still to print are kept on an explicit stack,
    so that no depth runs into the recursion limit.
    """
    out: list[str] = []
    stack: list[Formula | str] = [f]
    while stack:
        x = stack.pop()
        t = type(x)
        if t is str:
            out.append(x)
            continue
        if t is Atom:
            out.append(x.name)
            continue
        # The operands in printed order, and whether each needs parentheses.
        if t is Over:
            # "/" chains through its left operand.
            left, sep, right = x.result, "/", x.arg
            wrap_left, wrap_right = type(left) in (Under, LinImp), type(right) is not Atom
        elif t is Under:
            # "\\" chains through its right operand.
            left, sep, right = x.arg, "\\", x.result
            wrap_left, wrap_right = type(left) is not Atom, type(right) in (Over, LinImp)
        elif t is LinImp:
            left, sep, right = x.arg, " -o ", x.result
            wrap_left, wrap_right = type(left) is LinImp, False
        else:
            raise TypeError(f"not a formula: {x!r}")
        stack += (")", right, "(") if wrap_right else (right,)
        stack.append(sep)
        stack += (")", left, "(") if wrap_left else (left,)
    return "".join(out)


def format_sequent(s: Sequent) -> str:
    ant = ", ".join(format_formula(f) for f in s.antecedent)
    return f"{ant} => {format_formula(s.succedent)}"


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def subformulas(x: Formula | Sequent) -> set[Formula]:
    """All subformulas of a formula, or of every member of a sequent."""
    out: set[Formula] = set()
    stack: list[Formula]
    if isinstance(x, Sequent):
        stack = [*x.antecedent, x.succedent]
    else:
        stack = [x]
    while stack:
        f = stack.pop()
        if f in out:
            continue
        out.add(f)
        if not isinstance(f, Atom):
            stack += (f.result, f.arg)
    return out


def connective_count(x: Formula | Sequent) -> int:
    """Number of connective occurrences (/, \\, -o): each connective joins two operands."""
    roots = [*x.antecedent, x.succedent] if isinstance(x, Sequent) else [x]
    return sum(f._atoms for f in roots) - len(roots)
