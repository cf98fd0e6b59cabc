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
live node.  The intern table holds its nodes weakly.
"""

from __future__ import annotations

import re
import threading
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import dataclass, fields
from functools import reduce

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
        self.position = position


class _Ref(weakref.ref):
    """A weak reference to an interned node that carries the node's key."""

    __slots__ = ("key",)


def _forget(ref: _Ref) -> None:
    # Runs when the node dies, possibly inside the locked code below, so it
    # takes no lock: it deletes the entry only while that holds a dead
    # reference, not one to a newer node with the same key.
    _remove_dead_weakref(_nodes, ref.key)


_nodes: dict[tuple, _Ref] = {}  # (class, *operands) -> the one live node
_lock = threading.Lock()  # makes a miss's check and insert one step


class _Node:
    """A hash-consed formula node: equal formulas are one object.

    The operands of a new node are set here, once; a node found in the
    table is returned as it is.  A copy or pickle is the formula's text,
    parsed back into the live node, and the ``repr`` is the dataclass
    one built without recursion, so no depth of formula recurses.
    """

    __slots__ = ("__weakref__",)

    def __new__(cls, *args, **kwargs):
        if kwargs:  # the keyword operands, in field order after the positional ones
            names = cls.__match_args__[len(args):]
            if set(kwargs) != set(names):
                raise TypeError(f"{cls.__name__}() takes the operands {cls.__match_args__}")
            args = (*args, *[kwargs[n] for n in names])
        key = (cls, *args)
        ref = _nodes.get(key)
        if ref is not None:
            node = ref()
            if node is not None:
                return node
        names = cls.__match_args__
        if len(args) != len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} operands, got {len(args)}")
        with _lock:
            ref = _nodes.get(key)
            node = None if ref is None else ref()
            if node is None:
                node = object.__new__(cls)
                for name, value in zip(names, args):
                    object.__setattr__(node, name, value)
                ref = _nodes[key] = _Ref(node, _forget)
                ref.key = key
        return node

    def __str__(self) -> str:
        return format_formula(self)

    def __repr__(self) -> str:
        return _dataclass_repr(self, _Node)

    def __reduce__(self):
        return parse_formula, (format_formula(self),)


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


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Over(_Node):
    """``result/arg``: a functor looking for ``arg`` on its right."""

    result: Formula
    arg: Formula


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class Under(_Node):
    """``arg\\result``: a functor looking for ``arg`` on its left."""

    arg: Formula
    result: Formula


@dataclass(frozen=True, slots=True, init=False, eq=False, repr=False)
class LinImp(_Node):
    """``arg -o result``: consumes ``arg`` anywhere in the antecedent."""

    arg: Formula
    result: Formula


Formula = Atom | Over | Under | LinImp


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

# A token, or in group 2 a character that starts none.
_TOKEN_RE = re.compile(r"\s*(?:(-o|=>|[a-z][a-z0-9_]*|[()/\\,])|(\S))")
# Every token but an identifier, and "" for the end of the text.
_PUNCTUATION = frozenset(["(", ")", "/", "\\", "-o", "=>", ",", ""])


def _tokens(text: str) -> list[tuple[str, int]]:
    """Each token's text and position, ending with ``("", len(text))``."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        if m[2] is not None:
            raise FormulaSyntaxError(f"unexpected character {m[2]!r}", m.start(2))
        out.append((m[1], m.start(1)))
    out.append(("", len(text)))
    return out


def _formula(tokens: list[tuple[str, int]], i: int) -> tuple[Formula, int]:
    """The formula that starts at ``tokens[i]``, and the index of the token after it.

    One loop, with no recursion: ``(`` pushes the open frame (its ``-o``
    items, its slash and its slash chain) and ``)`` pops it.
    """
    frames: list[tuple[list[Formula], str | None, list[Formula]]] = []
    items: list[Formula] = []
    slash: str | None = None
    chain: list[Formula] = []
    while True:
        # An operand starts here.
        tok, pos = tokens[i]
        i += 1
        if tok == "(":
            frames.append((items, slash, chain))
            items, slash, chain = [], None, []
            continue
        if tok in _PUNCTUATION:
            raise FormulaSyntaxError(f"expected a formula, found {tok!r}", pos)
        f: Formula = Atom(tok)
        # Close the chains that end after it, up to the next operator.
        while True:
            chain.append(f)
            tok, pos = tokens[i]
            if tok == "/" or tok == "\\":
                if slash is None:
                    slash = tok
                elif slash != tok:
                    raise FormulaSyntaxError("cannot mix '/' and '\\' without parentheses", pos)
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
                raise FormulaSyntaxError(f"expected rpar, found {tok!r}", pos)
            i += 1
            items, slash, chain = frames.pop()


def _fold_right(cls: type[Under] | type[LinImp], items: list[Formula]) -> Formula:
    """``cls(items[0], cls(items[1], ...))``, a right-associative chain; empties ``items``."""
    result = items.pop()
    while items:
        result = cls(items.pop(), result)
    return result


def _end(tokens: list[tuple[str, int]], i: int) -> None:
    tok, pos = tokens[i]
    if tok:
        raise FormulaSyntaxError(f"trailing input {tok!r}", pos)


def parse_formula(text: str) -> Formula:
    """Parse concrete formula syntax; raises FormulaSyntaxError on bad input."""
    tokens = _tokens(text)
    f, i = _formula(tokens, 0)
    _end(tokens, i)
    return f


def parse_sequent(text: str) -> Sequent:
    """Parse "f1, f2, ... => g" into a Sequent."""
    tokens = _tokens(text)
    f, i = _formula(tokens, 0)
    antecedent = [f]
    while tokens[i][0] == ",":
        f, i = _formula(tokens, i + 1)
        antecedent.append(f)
    tok, pos = tokens[i]
    if tok != "=>":
        raise FormulaSyntaxError(f"expected arrow, found {tok!r}", pos)
    succedent, i = _formula(tokens, i + 1)
    _end(tokens, i)
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
    """Number of connective occurrences (/, \\, -o)."""
    stack = [*x.antecedent, x.succedent] if isinstance(x, Sequent) else [x]
    n = 0
    while stack:
        f = stack.pop()
        if not isinstance(f, Atom):
            n += 1
            stack += (f.result, f.arg)
    return n
