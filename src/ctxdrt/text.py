"""Concrete syntax for boxes and context formulas.

Grammar (whitespace, which is space, tab, carriage return and line feed,
separates tokens; ``#`` starts a line comment):

    drs   := '[' refs '|' conds ']'
    refs  := (ident (',' ident)*)?
    conds := (cond (',' cond)*)?
    cond  := atom | 'not' drs | drs '=>' drs | drs 'or' drs | 'alpha' ':' drs
    atom  := ident '(' ident (',' ident)* ')'
    ident := [a-z][a-zA-Z0-9_]*            (keywords reserved)

    lcon  := lterm ('|' lterm)*
    lterm := lfac ('&' lfac)*
    lfac  := drs | 'in' '(' drs ',' lcon ')' | '(' lcon ')'

Parsing takes the token texts from one regular-expression scan, a
``findall`` that gives them as plain strings, and the parser compares
them.  An atom, the bulk of a wide context, is built directly, as its
tokens already pass ``Atom``'s checks.  Token offsets are computed only
when a ``ParseError`` needs a span.

Printing is canonical and deterministic; ``parse(print(x)) == x`` holds for
both languages.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .drs import DRS, Alpha, Atom, Condition, Imp, Neg, Or, Referent, _atom
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


# A token is its own text: a punctuation mark, a keyword or an identifier;
# whitespace and comments are skipped, and any other character is an error.
_TOKEN_TEXT = r"=>|[\[\]()|,:&]|[a-z][a-zA-Z0-9_]*"
_TOKEN = re.compile(r"(%s)|[ \t\r\n]+|#[^\n]*|(.)" % _TOKEN_TEXT, re.S)
_TOKENS_ONLY = re.compile(_TOKEN_TEXT)
_COMMENT = re.compile(r"#[^\n]*")
_PUNCT = frozenset({"[", "]", "(", ")", "|", ",", ":", "&", "=>"})
_NOT_IDENT = _PUNCT | KEYWORDS | {""}


def _tokenize(text: str) -> list[str]:
    """The token texts, ending with ``""`` for the end of input.

    One ``findall`` of the token alternatives of ``_TOKEN`` returns the
    texts as plain strings, which the collector does not track (a match
    tuple per token, as a pattern with groups gives, doubled the young
    collections of a wide parse).  Comments are cut out first, if there
    are any; each ends a line, so a line feed or the end of input still
    follows where one stood.  The text is well formed exactly when its
    tokens and whitespace, which is exactly space, tab, carriage return
    and line feed (not the rest of Python's ``\\s``), make up all of it;
    else ``_starts`` raises at the first unexpected character.  Offsets
    are left to ``_starts``, which only an error needs.
    """
    plain = _COMMENT.sub("", text) if "#" in text else text
    toks = _TOKENS_ONLY.findall(plain)
    if len("".join(toks)) + sum(map(plain.count, " \t\r\n")) != len(plain):
        _starts(text)  # raises at the first unexpected character
    toks.append("")
    return toks


def _starts(text: str) -> list[int]:
    """The start offset of every token of ``_tokenize(text)``, the end of
    input last; raises the ``ParseError`` of an unexpected character."""
    starts: list[int] = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        if group == 1:
            starts.append(m.start())
        elif group:
            i = m.start()
            raise ParseError(
                "unexpected character %r" % m.group(),
                SourceSpan(i, i + 1),
                frozenset({"identifier", "punctuation"}),
            )
    starts.append(len(text))
    return starts


class _Parser:
    """Recursive descent over token texts.

    A token's kind follows from its text (see ``_tokenize``), so the
    parser compares strings; each distinct name becomes one ``Referent``.
    An atom is built without ``Atom``'s checks, which its tokens already
    pass.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        self.refs: dict[str, Referent] = {}

    def span(self) -> SourceSpan:
        start = _starts(self.text)[self.pos]
        return SourceSpan(start, start + len(self.toks[self.pos]))

    def fail(self, expected: set[str]) -> "ParseError":
        got = self.toks[self.pos] or "end of input"
        return ParseError(
            "expected %s, found %r" % (" or ".join(sorted(expected)), got),
            self.span(),
            frozenset(expected),
        )

    def expect(self, value: str) -> None:
        if self.toks[self.pos] != value:
            raise self.fail({value})
        self.pos += 1

    def referent(self) -> Referent:
        name = self.toks[self.pos]
        if name in _NOT_IDENT:
            raise self.fail({"identifier"})
        self.pos += 1
        ref = self.refs.get(name)
        if ref is None:
            ref = self.refs[name] = Referent(name)
        return ref

    def at(self, value: str) -> bool:
        return self.toks[self.pos] == value

    def eof(self) -> None:
        if self.toks[self.pos]:
            raise self.fail({"end of input"})

    # -- boxes -------------------------------------------------------------

    def box(self) -> DRS:
        toks = self.toks
        self.expect("[")
        refs: list[Referent] = []
        if toks[self.pos] not in _NOT_IDENT:
            refs.append(self.referent())
            while toks[self.pos] == ",":
                self.pos += 1
                refs.append(self.referent())
        self.expect("|")
        conds: list[Condition] = []
        if toks[self.pos] != "]":
            while True:
                conds.append(self.atom() if toks[self.pos] not in _NOT_IDENT else self.condition())
                if toks[self.pos] != ",":
                    break
                self.pos += 1
        self.expect("]")
        try:
            return DRS(tuple(refs), tuple(conds))
        except ValueError as exc:
            raise ParseError(str(exc), self.span(), frozenset())

    def condition(self) -> Condition:
        tok = self.toks[self.pos]
        if tok == "not":
            self.pos += 1
            return Neg(self.box())
        if tok == "alpha":
            self.pos += 1
            self.expect(":")
            return Alpha(self.box())
        if tok == "[":
            left = self.box()
            tok = self.toks[self.pos]
            if tok == "=>":
                self.pos += 1
                return Imp(left, self.box())
            if tok == "or":
                self.pos += 1
                return Or(left, self.box())
            raise self.fail({"=>", "or"})
        raise self.fail({"identifier", "not", "alpha", "["})

    def atom(self) -> Atom:
        """ident '(' ident (',' ident)* ')', built without ``Atom``'s checks:
        the tokenizer has matched every identifier."""
        toks = self.toks
        names = self.refs
        pos = self.pos
        pred = toks[pos]
        if toks[pos + 1] != "(":
            self.pos = pos + 1
            raise self.fail({"("})
        args = []
        pos += 2
        while True:
            name = toks[pos]
            if name in _NOT_IDENT:
                self.pos = pos
                raise self.fail({"identifier"})
            ref = names.get(name)
            if ref is None:
                ref = names[name] = Referent(name)
            args.append(ref)
            sep = toks[pos + 1]
            pos += 2
            if sep != ",":
                break
        if sep != ")":
            self.pos = pos - 1
            raise self.fail({")"})
        self.pos = pos
        return _atom(pred, tuple(args))

    # -- context formulas ---------------------------------------------------

    def lcon(self) -> Formula:
        items = [self.lterm()]
        while self.at("|"):
            self.pos += 1
            items.append(self.lterm())
        return items[0] if len(items) == 1 else Disj(tuple(items))

    def lterm(self) -> Formula:
        items = [self.lfac()]
        while self.at("&"):
            self.pos += 1
            items.append(self.lfac())
        return items[0] if len(items) == 1 else Conj(tuple(items))

    def lfac(self) -> Formula:
        if self.at("["):
            return DrsLit(self.box())
        if self.at("in"):
            self.pos += 1
            self.expect("(")
            ctx = self.box()
            self.expect(",")
            body = self.lcon()
            self.expect(")")
            try:
                return In(ctx, body)
            except ValueError as exc:
                raise ParseError(str(exc), self.span(), frozenset())
        if self.at("("):
            self.pos += 1
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
