"""Concrete syntax for boxes and context formulas.

Grammar (whitespace-insensitive, ``#`` starts a line comment):

    drs   := '[' refs '|' conds ']'
    refs  := (ident (',' ident)*)?
    conds := (cond (',' cond)*)?
    cond  := atom | 'not' drs | drs '=>' drs | drs 'or' drs | 'alpha' ':' drs
    atom  := ident '(' ident (',' ident)* ')'
    ident := [a-z][a-zA-Z0-9_]*            (keywords reserved)

    lcon  := lterm ('|' lterm)*
    lterm := lfac ('&' lfac)*
    lfac  := drs | 'in' '(' drs ',' lcon ')' | '(' lcon ')'

Printing is canonical and deterministic; ``parse(print(x)) == x`` holds for
both languages.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import NamedTuple

from .drs import DRS, Alpha, Atom, Condition, Imp, Neg, Or, Referent
from .lcon import Conj, Disj, DrsLit, Formula, In

__all__ = [
    "SourceSpan",
    "ParseError",
    "parse_drs",
    "parse_lcon",
    "print_drs",
    "print_condition",
    "print_lcon",
]

KEYWORDS = frozenset({"not", "or", "alpha", "in"})


@dataclass(frozen=True)
class SourceSpan:
    """Offsets of a token in the input text (start inclusive, end exclusive)."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError("bad span %d..%d" % (self.start, self.end))


class ParseError(Exception):
    def __init__(self, message: str, span: SourceSpan, expected: frozenset[str]) -> None:
        super().__init__("%s at %d..%d" % (message, span.start, span.end))
        self.message = message
        self.span = span
        self.expected = expected


class _Token(NamedTuple):
    kind: str  # one of: ident, kw, punct, eof
    value: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


_PUNCT = {"[", "]", "(", ")", "|", ",", ":", "&"}
_IDENT_CHARS = frozenset(string.ascii_letters + string.digits + "_")


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "=" and i + 1 < n and text[i + 1] == ">":
            toks.append(_Token("punct", "=>", i, i + 2))
            i += 2
            continue
        if ch in _PUNCT:
            toks.append(_Token("punct", ch, i, i + 1))
            i += 1
            continue
        if "a" <= ch <= "z":
            j = i + 1
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            word = text[i:j]
            kind = "kw" if word in KEYWORDS else "ident"
            toks.append(_Token(kind, word, i, j))
            i = j
            continue
        raise ParseError(
            "unexpected character %r" % ch,
            SourceSpan(i, i + 1),
            frozenset({"identifier", "punctuation"}),
        )
    toks.append(_Token("eof", "", n, n))
    return toks


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, expected: set[str]) -> "ParseError":
        tok = self.peek()
        got = tok.value if tok.kind != "eof" else "end of input"
        return ParseError(
            "expected %s, found %r" % (" or ".join(sorted(expected)), got),
            tok.span,
            frozenset(expected),
        )

    def expect(self, value: str) -> _Token:
        tok = self.peek()
        if tok.kind == "punct" and tok.value == value:
            return self.next()
        raise self.fail({value})

    def ident(self) -> str:
        tok = self.peek()
        if tok.kind == "ident":
            return self.next().value
        raise self.fail({"identifier"})

    def at(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "punct" and tok.value == value

    def at_kw(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.value == word

    def eof(self) -> None:
        if self.peek().kind != "eof":
            raise self.fail({"end of input"})

    # -- boxes -------------------------------------------------------------

    def box(self) -> DRS:
        self.expect("[")
        refs: list[Referent] = []
        if self.peek().kind == "ident":
            refs.append(Referent(self.ident()))
            while self.at(","):
                self.next()
                refs.append(Referent(self.ident()))
        self.expect("|")
        conds: list[Condition] = []
        if not self.at("]"):
            conds.append(self.condition())
            while self.at(","):
                self.next()
                conds.append(self.condition())
        self.expect("]")
        try:
            return DRS(tuple(refs), tuple(conds))
        except ValueError as exc:
            raise ParseError(str(exc), self.peek().span, frozenset())

    def condition(self) -> Condition:
        if self.at_kw("not"):
            self.next()
            return Neg(self.box())
        if self.at_kw("alpha"):
            self.next()
            self.expect(":")
            return Alpha(self.box())
        if self.at("["):
            left = self.box()
            if self.at("=>"):
                self.next()
                return Imp(left, self.box())
            if self.at_kw("or"):
                self.next()
                return Or(left, self.box())
            raise self.fail({"=>", "or"})
        if self.peek().kind == "ident":
            return self.atom()
        raise self.fail({"identifier", "not", "alpha", "["})

    def atom(self) -> Atom:
        pred = self.ident()
        self.expect("(")
        args = [Referent(self.ident())]
        while self.at(","):
            self.next()
            args.append(Referent(self.ident()))
        self.expect(")")
        return Atom(pred, tuple(args))

    # -- context formulas ---------------------------------------------------

    def lcon(self) -> Formula:
        items = [self.lterm()]
        while self.at("|"):
            self.next()
            items.append(self.lterm())
        return items[0] if len(items) == 1 else Disj(tuple(items))

    def lterm(self) -> Formula:
        items = [self.lfac()]
        while self.at("&"):
            self.next()
            items.append(self.lfac())
        return items[0] if len(items) == 1 else Conj(tuple(items))

    def lfac(self) -> Formula:
        if self.at("["):
            return DrsLit(self.box())
        if self.at_kw("in"):
            self.next()
            self.expect("(")
            ctx = self.box()
            self.expect(",")
            body = self.lcon()
            self.expect(")")
            try:
                return In(ctx, body)
            except ValueError as exc:
                raise ParseError(str(exc), self.peek().span, frozenset())
        if self.at("("):
            self.next()
            inner = self.lcon()
            self.expect(")")
            return inner
        raise self.fail({"[", "in", "("})


def parse_drs(text: str) -> DRS:
    parser = _Parser(text)
    box = parser.box()
    parser.eof()
    return box


def parse_lcon(text: str) -> Formula:
    parser = _Parser(text)
    formula = parser.lcon()
    parser.eof()
    return formula


def print_condition(cond: Condition) -> str:
    if isinstance(cond, Atom):
        return "%s(%s)" % (cond.predicate, ",".join(a.name for a in cond.args))
    if isinstance(cond, Neg):
        return "not " + print_drs(cond.body)
    if isinstance(cond, Imp):
        return "%s => %s" % (print_drs(cond.antecedent), print_drs(cond.consequent))
    if isinstance(cond, Or):
        return "%s or %s" % (print_drs(cond.left), print_drs(cond.right))
    if isinstance(cond, Alpha):
        return "alpha:" + print_drs(cond.body)
    raise TypeError("not a condition: %r" % (cond,))


def print_drs(box: DRS) -> str:
    refs = ", ".join(r.name for r in box.universe)
    conds = ", ".join(print_condition(c) for c in box.conditions)
    return "[%s | %s]" % (refs, conds)


def print_lcon(formula: Formula) -> str:
    if isinstance(formula, DrsLit):
        return print_drs(formula.drs)
    if isinstance(formula, In):
        return "in(%s, %s)" % (print_drs(formula.context), print_lcon(formula.body))
    if isinstance(formula, Conj):
        parts = [
            "(%s)" % print_lcon(item) if isinstance(item, (Conj, Disj)) else print_lcon(item)
            for item in formula.items
        ]
        return " & ".join(parts)
    if isinstance(formula, Disj):
        parts = [
            "(%s)" % print_lcon(item) if isinstance(item, Disj) else print_lcon(item)
            for item in formula.items
        ]
        return " | ".join(parts)
    raise TypeError("not a context formula: %r" % (formula,))
