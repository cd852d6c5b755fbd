import pytest
from hypothesis import HealthCheck, given, settings

from ctxdrt.drs import Alpha, Imp
from ctxdrt.lcon import Conj, Disj, DrsLit, In
from ctxdrt.text import ParseError, parse_drs, parse_lcon, print_drs, print_lcon

from conftest import EVERY_MAN, HANK_FORMULA
from gen import drs_boxes, lcon_formulas


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
