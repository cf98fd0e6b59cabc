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
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, fields
from types import FunctionType
from typing import Iterator, Union

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


class _Node:
    """A formula node, hashed once at construction from its children's stored hashes.

    Copies and pickles go through the constructor, which recomputes the
    hash that the dataclass state would lose.
    """

    __slots__ = ("_hash",)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        # Identity first, then the type (Under(a, b) and LinImp(a, b) have
        # the same fields) and the stored hash, for this pair and for each
        # pair of operands below it.  The pairs that pass are walked with
        # an explicit stack, so that no depth runs into the recursion limit.
        if self is other:
            return True
        if type(other) is not type(self) or self._hash != other._hash:
            return False
        stack = [(self, other)]
        while stack:
            x, y = stack.pop()
            if type(x) is Atom:
                if x.name != y.name:
                    return False
                continue
            for u, v in ((x.arg, y.arg), (x.result, y.result)):
                if u is not v:
                    if type(v) is not type(u) or u._hash != v._hash:
                        return False
                    stack.append((u, v))
        return True

    def __str__(self) -> str:
        return format_formula(self)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __init_subclass__(cls) -> None:
        # CPython specializes each attribute lookup for one class, so every class gets
        # its own copy of the shared code; one that defines __eq__ gets __hash__ back.
        for name in ("__hash__", "__eq__", "__post_init__"):
            f = getattr(cls, name, None) or getattr(_Node, name, None)
            if isinstance(f, FunctionType):
                setattr(cls, name, FunctionType(f.__code__.replace(), f.__globals__, name))


class _Connective(_Node):
    """A connective node: ``result`` and ``arg`` operands, and a class-level ``_tag``."""

    __slots__ = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self._tag, self.result._hash, self.arg._hash)))


@dataclass(frozen=True, slots=True, eq=False)
class Atom(_Node):
    """A primitive type, named by a lowercase identifier."""

    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(("atom", self.name)))


@dataclass(frozen=True, slots=True, eq=False)
class Over(_Connective):
    """``result/arg``: a functor looking for ``arg`` on its right."""

    _tag = "over"
    result: Formula
    arg: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Under(_Connective):
    """``arg\\result``: a functor looking for ``arg`` on its left."""

    _tag = "under"
    arg: Formula
    result: Formula


@dataclass(frozen=True, slots=True, eq=False)
class LinImp(_Connective):
    """``arg -o result``: consumes ``arg`` anywhere in the antecedent."""

    _tag = "linimp"
    arg: Formula
    result: Formula


Formula = Union[Atom, Over, Under, LinImp]


@dataclass(frozen=True, slots=True)
class Sequent:
    """``antecedent => succedent`` with a nonempty antecedent."""

    antecedent: tuple[Formula, ...]
    succedent: Formula

    def __post_init__(self) -> None:
        if not self.antecedent:
            raise ValueError("sequent antecedent must be nonempty")

    def __str__(self) -> str:
        return format_sequent(self)


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<ident>[a-z][a-z0-9_]*)
  | (?P<linimp>-o)
  | (?P<arrow>=>)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<over>/)
  | (?P<under>\\)
  | (?P<comma>,)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        assert kind is not None
        if kind != "ws":
            yield kind, m.group(), pos
        pos = m.end()
    yield "end", "", len(text)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.i = 0
        self.atom = functools.cache(Atom)  # one object per primitive of the text

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise FormulaSyntaxError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return tok

    def formula(self) -> Formula:
        return self.linimp()

    def linimp(self) -> Formula:
        left = self.slash()
        if self.peek()[0] == "linimp":
            self.next()
            return LinImp(left, self.linimp())
        return left

    def slash(self) -> Formula:
        head = self.atomic()
        kind = self.peek()[0]
        if kind == "over":
            result = head
            while self.peek()[0] == "over":
                self.next()
                result = Over(result, self.atomic())
            if self.peek()[0] == "under":
                raise FormulaSyntaxError(
                    "cannot mix '/' and '\\' without parentheses", self.peek()[2]
                )
            return result
        if kind == "under":
            # Collect the chain first; "\" associates to the right.
            items = [head]
            while self.peek()[0] == "under":
                self.next()
                items.append(self.atomic())
            if self.peek()[0] == "over":
                raise FormulaSyntaxError(
                    "cannot mix '/' and '\\' without parentheses", self.peek()[2]
                )
            result = items[-1]
            for item in reversed(items[:-1]):
                result = Under(item, result)
            return result
        return head

    def atomic(self) -> Formula:
        kind, text, pos = self.next()
        if kind == "ident":
            return self.atom(text)
        if kind == "lpar":
            inner = self.formula()
            self.expect("rpar")
            return inner
        raise FormulaSyntaxError(f"expected a formula, found {text!r}", pos)


def parse_formula(text: str) -> Formula:
    """Parse concrete formula syntax; raises FormulaSyntaxError on bad input."""
    p = _Parser(text)
    f = p.formula()
    kind, tok, pos = p.peek()
    if kind != "end":
        raise FormulaSyntaxError(f"trailing input {tok!r}", pos)
    return f


def parse_sequent(text: str) -> Sequent:
    """Parse "f1, f2, ... => g" into a Sequent."""
    p = _Parser(text)
    antecedent = [p.formula()]
    while p.peek()[0] == "comma":
        p.next()
        antecedent.append(p.formula())
    p.expect("arrow")
    succedent = p.formula()
    kind, tok, pos = p.peek()
    if kind != "end":
        raise FormulaSyntaxError(f"trailing input {tok!r}", pos)
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
