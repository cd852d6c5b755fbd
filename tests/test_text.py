import string
import sys
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings

from ctxdrt.drs import DRS, Alpha, Atom, Condition, Imp, Neg, Or, Referent
from ctxdrt.lcon import Conj, Disj, DrsLit, Formula, In
from ctxdrt.text import (
    KEYWORDS,
    ParseError,
    SourceSpan,
    parse_drs,
    parse_lcon,
    print_drs,
    print_lcon,
)

from conftest import EVERY_MAN, HANK, HANK_FORMULA, MARRIAGE_POSTULATE
from gen import drs_boxes, lcon_formulas

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import workloads  # noqa: E402


def test_parse_builds_expected_structure():
    box = parse_drs(EVERY_MAN)
    assert box.universe == ()
    (cond,) = box.conditions
    assert isinstance(cond, Imp)
    alpha = cond.consequent.conditions[1]
    assert isinstance(alpha, Alpha)
    assert len(alpha.body.conditions) == 3
    assert isinstance(alpha.body.conditions[2], Alpha)


def test_parse_empty_box():
    assert parse_drs("[ | ]").is_empty()
    assert parse_drs("[|]").is_empty()


def test_parse_error_expects_pipe():
    with pytest.raises(ParseError) as err:
        parse_drs("[x man(x)]")
    assert "|" in err.value.expected
    assert err.value.span.start == 3


@pytest.mark.parametrize(
    "text, char, start",
    [("[x | p\u00e9(x)]", "\u00e9", 6), ("[x\u00b2 | p(x\u00b2)]", "\u00b2", 2)],
    ids=["accented-letter", "superscript-digit"],
)
def test_identifiers_continue_only_on_ascii_letters_digits_and_underscore(text, char, start):
    with pytest.raises(ParseError) as err:
        parse_drs(text)
    assert err.value.message == "unexpected character %r" % char
    assert (err.value.span.start, err.value.span.end) == (start, start + 1)


def test_parse_error_on_dangling_box():
    with pytest.raises(ParseError) as err:
        parse_drs("[ | [x | man(x)]]")
    assert err.value.expected == frozenset({"=>", "or"})


def test_parse_is_whitespace_and_comment_insensitive():
    spread = """# a comment
    [ x ,y |
      man(x) , # trailing note
      wife(y) ]"""
    assert parse_drs(spread) == parse_drs("[x,y|man(x),wife(y)]")


def test_print_canonicalizes():
    assert print_drs(parse_drs("[x,y|man(x),wife(y)]")) == "[x, y | man(x), wife(y)]"
    assert print_drs(parse_drs("[|]")) == "[ | ]"
    assert (
        print_drs(parse_drs("[|not[|p(x)],[x|p(x)]or[|],alpha:[u|q(u,u)]]"))
        == "[ | not [ | p(x)], [x | p(x)] or [ | ], alpha:[u | q(u,u)]]"
    )


def test_lcon_parse_and_print():
    formula = parse_lcon(HANK_FORMULA)
    assert isinstance(formula, In)
    assert isinstance(formula.body, Conj)
    assert isinstance(formula.body.items[1].body, Disj)
    assert print_lcon(formula) == HANK_FORMULA


def test_lcon_in_node():
    formula = parse_lcon("in([x|p(x)], [ |p(x)])")
    assert isinstance(formula, In)
    assert isinstance(formula.body, DrsLit)


def test_lcon_precedence_and_parens():
    f = parse_lcon("[|p(a)] | [|q(a)] & [|r(a)]")
    assert isinstance(f, Disj)
    assert isinstance(f.items[1], Conj)
    nested = parse_lcon("([|p(a)] | [|q(a)]) | [|r(a)]")
    assert isinstance(nested, Disj) and isinstance(nested.items[0], Disj)
    assert parse_lcon(print_lcon(nested)) == nested


def test_lcon_rejects_empty_context():
    with pytest.raises(ParseError):
        parse_lcon("in([ | ], [|p(a)])")


def test_trailing_garbage_rejected():
    with pytest.raises(ParseError):
        parse_drs("[ | ] extra")
    with pytest.raises(ParseError):
        parse_lcon("[ | ] & ")


def test_errors_carry_valid_spans():
    bad = "[x | man(x), ???]"
    with pytest.raises(ParseError) as err:
        parse_drs(bad)
    assert 0 <= err.value.span.start <= err.value.span.end <= len(bad)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drs_boxes)
def test_drs_roundtrip_exact(box):
    rendered = print_drs(box)
    back = parse_drs(rendered)
    assert back == box
    assert back.universe == box.universe
    assert back.conditions == box.conditions
    assert print_drs(back) == rendered


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(lcon_formulas)
def test_lcon_roundtrip_exact(formula):
    rendered = print_lcon(formula)
    assert parse_lcon(rendered) == formula
    assert print_lcon(parse_lcon(rendered)) == rendered


# -- the character-by-character tokenizer and token-object parser, as a reference ----


class _RefToken(NamedTuple):
    kind: str  # one of: ident, kw, punct, eof
    value: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


_REF_PUNCT = {"[", "]", "(", ")", "|", ",", ":", "&"}
_REF_IDENT_CHARS = frozenset(string.ascii_letters + string.digits + "_")


def _ref_tokenize(text: str) -> list[_RefToken]:
    toks: list[_RefToken] = []
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
            toks.append(_RefToken("punct", "=>", i, i + 2))
            i += 2
            continue
        if ch in _REF_PUNCT:
            toks.append(_RefToken("punct", ch, i, i + 1))
            i += 1
            continue
        if "a" <= ch <= "z":
            j = i + 1
            while j < n and text[j] in _REF_IDENT_CHARS:
                j += 1
            word = text[i:j]
            kind = "kw" if word in KEYWORDS else "ident"
            toks.append(_RefToken(kind, word, i, j))
            i = j
            continue
        raise ParseError(
            "unexpected character %r" % ch,
            SourceSpan(i, i + 1),
            frozenset({"identifier", "punctuation"}),
        )
    toks.append(_RefToken("eof", "", n, n))
    return toks


class _RefParser:
    def __init__(self, text: str) -> None:
        self.tokens = _ref_tokenize(text)
        self.pos = 0

    def peek(self) -> _RefToken:
        return self.tokens[self.pos]

    def next(self) -> _RefToken:
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

    def expect(self, value: str) -> _RefToken:
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


def _ref_parse_drs(text: str) -> DRS:
    parser = _RefParser(text)
    box = parser.box()
    parser.eof()
    return box


def _ref_parse_lcon(text: str) -> Formula:
    parser = _RefParser(text)
    formula = parser.lcon()
    parser.eof()
    return formula


def _outcome(parse, printer, text: str) -> tuple:
    """The printed result (order kept), or the error's message, span and expected set."""
    try:
        return ("ok", printer(parse(text)))
    except ParseError as err:
        return ("error", str(err), err.message, err.span.start, err.span.end, err.expected)


def _agree(text: str) -> None:
    assert _outcome(parse_drs, print_drs, text) == _outcome(_ref_parse_drs, print_drs, text)
    assert _outcome(parse_lcon, print_lcon, text) == _outcome(_ref_parse_lcon, print_lcon, text)


# whitespace Python's \s also skips, and characters that start no token
_ALPHABET = list(" \t\n\f\v\u00a0=>X1#[](),|:&_ax") + ["\r\n", "in", "or", "not", "alpha:"]
_SHORT = (
    "[x | p(x)]",
    "[ | not [y | q(y,x)], [u | r(u)] or [ | ]]",
    "[x, y | [z | s(z)] => [ | t(z,y)], alpha:[v | w(v)]]",
    "in([x | p(x)], [ | q(x)] & ([ | r(x)] | [ | s(x)]))",
    "[x|p(x)] # note\r\n",
)


def _edits(text: str):
    """Every single-character deletion, insertion and substitution of ``text``."""
    for i in range(len(text)):
        yield text[:i] + text[i + 1 :]
        for ch in _ALPHABET:
            yield text[:i] + ch + text[i + 1 :]
    for i in range(len(text) + 1):
        for ch in _ALPHABET:
            yield text[:i] + ch + text[i:]


def test_parser_agrees_with_the_reference_on_the_workload_texts():
    _agree(HANK_FORMULA)
    texts = [HANK, MARRIAGE_POSTULATE, EVERY_MAN]
    for batch in (
        workloads.corpus_batch(1, 3000),
        workloads.wide_context_batch(1, 24),
        workloads.chain_batch(1),
    ):
        texts += list(batch.background) + [d.text for d in batch.discourses]
    for text in texts:
        expected = _ref_parse_drs(text)
        got = parse_drs(text)
        assert (got.universe, got.conditions) == (expected.universe, expected.conditions)
        assert print_drs(got) == print_drs(expected)


def test_parser_agrees_with_the_reference_on_every_one_character_edit():
    for text in _SHORT:
        _agree(text)
        for edited in _edits(text):
            _agree(edited)
    for text in ("", " ", "\f", "#", "=", "=>", "[", "in(", "X"):
        _agree(text)


# atoms that start like a well-formed one: every error the parser's atom
# routine raises, which builds atoms without ``Atom``'s checks
_MALFORMED_ATOMS = (
    "p(",
    "p(x",
    "p(x,",
    "p(x,)",
    "p()",
    "p(x y)",
    "p(x,,y)",
    "p(x))",
    "p(not)",
    "p(alpha)",
    "p(X)",
)
_ATOM_CONTEXTS = (
    "%s",
    "[x | %s]",
    "[x | %s, q(x)]",
    "[x | q(x), %s]",
    "[x | q(x), %s, r(x)]",
    "[ | not [ | %s]]",
    "[ | %s] & [ | q(x)]",
    "in([x | q(x)], [ | %s])",
)


def test_parser_agrees_with_the_reference_on_malformed_atoms():
    for atom in _MALFORMED_ATOMS:
        for context in _ATOM_CONTEXTS:
            text = context % atom
            _agree(text)
            with pytest.raises(ParseError):
                parse_drs(text)


def test_well_formed_input_computes_no_offsets(monkeypatch):
    import ctxdrt.text

    def offsets(text):
        raise AssertionError("offsets computed for %r" % text)

    monkeypatch.setattr(ctxdrt.text, "_starts", offsets)
    boxes = [HANK, MARRIAGE_POSTULATE, EVERY_MAN, "[x|p(x)] # note\r\n", "#\n[ | ]#"]
    for batch in (workloads.wide_context_batch(1, 24), workloads.chain_batch(1)):
        boxes += list(batch.background) + [d.text for d in batch.discourses]
    for text in boxes:
        parse_drs(text)
        parse_lcon(text)
    parse_lcon(HANK_FORMULA)
    # the patch is live: an error needs a span
    with pytest.raises(AssertionError, match="offsets computed"):
        parse_drs("[x | p(x y)]")


def test_whitespace_is_exactly_space_tab_carriage_return_and_line_feed():
    assert print_drs(parse_drs(" \t\r\n[x|\r\np(x)]\n")) == "[x | p(x)]"
    for ch in "\f\v\u00a0":
        with pytest.raises(ParseError) as err:
            parse_drs("[x |%sp(x)]" % ch)
        assert err.value.message == "unexpected character %r" % ch
        assert (err.value.span.start, err.value.span.end) == (4, 5)


def test_end_of_input_has_an_empty_span_at_the_end():
    with pytest.raises(ParseError) as err:
        parse_lcon("[ | ] &  ")
    assert (err.value.span.start, err.value.span.end) == (9, 9)
    assert err.value.expected == frozenset({"[", "in", "("})
    assert "found 'end of input'" in err.value.message


def test_a_parse_builds_one_referent_per_name():
    box = parse_drs("[x | p(x), [y | q(x,y)] => [ | r(y)]]")
    (x,) = box.universe
    assert box.conditions[0].args[0] is x
    imp = box.conditions[1]
    assert imp.antecedent.conditions[0].args[0] is x
    assert imp.antecedent.conditions[0].args[1] is imp.consequent.conditions[0].args[0]
