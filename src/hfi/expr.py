"""Expression parser for linear combinations of local-equivalence classes.

Grammar (whitespace-insensitive):

    expr     := term (('+' | '-') term)*
    term     := [uint '*'] atom
    atom     := 'Sigma(' uint ',' uint ',' uint ')'
              | 'Y(' uint ')'
              | 'M(' rational ',' rational (';' rational ',' rational)* ')'
              | 'I[' rational ']'
              | '@' filepath
    rational := ['-'] digits ['/' digits]

A leading '+' or '-' before the first term is accepted.  Parse errors carry
the character position at which they occurred; so does each parsed atom.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction


# matched at a position of the whole text (``pattern.match(text, pos)``), so
# no call copies the rest of the text and parsing stays linear
_UINT = re.compile(r"\d+")
_RATIONAL = re.compile(r"-?\d+(/\d+)?")
_PATH = re.compile(r"\S+")
_MULT = re.compile(r"(\d+)\s*\*")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"parse error at position {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class SigmaAtom:
    a1: int
    a2: int
    a3: int

    def __str__(self) -> str:
        return f"Sigma({self.a1},{self.a2},{self.a3})"


@dataclass(frozen=True)
class YAtom:
    i: int

    def __str__(self) -> str:
        return f"Y({self.i})"


@dataclass(frozen=True)
class MAtom:
    pairs: tuple[tuple[Fraction, Fraction], ...]

    def __str__(self) -> str:
        return "M(" + "; ".join(f"{h},{r}" for h, r in self.pairs) + ")"


@dataclass(frozen=True)
class IAtom:
    delta: Fraction

    def __str__(self) -> str:
        return f"I[{self.delta}]"


@dataclass(frozen=True)
class FileAtom:
    path: str

    def __str__(self) -> str:
        return f"@{self.path}"


Atom = SigmaAtom | YAtom | MAtom | IAtom | FileAtom


@dataclass(frozen=True)
class ExpressionAST:
    """Signed integer-weighted terms: ((weight, atom), ...), weights nonzero;
    ``positions``, each atom's character position in the parsed text (empty
    unless built by ``parse``), takes no part in equality."""

    terms: tuple[tuple[int, Atom], ...]
    positions: tuple[int, ...] = field(default=(), compare=False)

    def __str__(self) -> str:
        parts = []
        for k, (w, atom) in enumerate(self.terms):
            sign = "-" if w < 0 else ("+" if k else "")
            mult = f"{abs(w)}*" if abs(w) != 1 else ""
            parts.append(f"{sign} {mult}{atom}".strip())
        return " ".join(parts)


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, literal: str):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise ParseError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)

    def match(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def uint(self) -> int:
        self.skip_ws()
        m = _UINT.match(self.text, self.pos)
        if not m:
            raise ParseError("expected an unsigned integer", self.pos)
        self.pos = m.end()
        return int(m.group())

    def rational(self) -> Fraction:
        self.skip_ws()
        m = _RATIONAL.match(self.text, self.pos)
        if not m:
            raise ParseError("expected a rational (p or p/q)", self.pos)
        try:
            value = Fraction(m.group())
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in {m.group()}", self.pos) from None
        self.pos = m.end()
        return value


def _parse_atom(s: _Scanner) -> Atom:
    if s.match("Sigma("):
        a1 = s.uint(); s.expect(",")
        a2 = s.uint(); s.expect(",")
        a3 = s.uint(); s.expect(")")
        return SigmaAtom(a1, a2, a3)
    if s.match("Y("):
        i = s.uint(); s.expect(")")
        return YAtom(i)
    if s.match("M("):
        pairs = []
        while True:
            h = s.rational(); s.expect(",")
            r = s.rational()
            pairs.append((h, r))
            if not s.match(";"):
                break
        s.expect(")")
        return MAtom(tuple(pairs))
    if s.match("I["):
        delta = s.rational(); s.expect("]")
        return IAtom(delta)
    if s.match("@"):
        m = _PATH.match(s.text, s.pos)
        if not m:
            raise ParseError("expected a file path after '@'", s.pos)
        s.pos = m.end()
        return FileAtom(m.group())
    raise ParseError("expected Sigma(...), Y(...), M(...), I[...], or @file",
                     s.pos)


def _parse_term(s: _Scanner) -> tuple[int, int, Atom]:
    s.skip_ws()
    start = s.pos
    m = _MULT.match(s.text, s.pos)
    mult = 1
    if m:
        mult = int(m.group(1))
        s.pos = m.end()
        if mult == 0:
            raise ParseError("term multiplicity must be nonzero", start)
    s.skip_ws()
    return mult, s.pos, _parse_atom(s)


def parse(text: str) -> ExpressionAST:
    s = _Scanner(text)
    terms: list[tuple[int, Atom]] = []
    positions: list[int] = []
    sign = -1 if s.match("-") else 1
    if sign == 1:
        s.match("+")
    while True:
        w, pos, atom = _parse_term(s)
        terms.append((sign * w, atom))
        positions.append(pos)
        s.skip_ws()
        if s.pos >= len(s.text):
            break
        if s.match("+"):
            sign = 1
        elif s.match("-"):
            sign = -1
        else:
            raise ParseError("expected '+', '-', or end of expression", s.pos)
    return ExpressionAST(tuple(terms), tuple(positions))
