import pytest

from ctxdrt.projection import BackgroundTheory
from ctxdrt.text import parse_drs

# Every man likes his wife.  The anaphoric box has no antecedent anywhere.
EVERY_MAN = (
    "[ | [x | man(x)] => [ | likes(x,u), alpha:[u | wife(u), of(u,v), alpha:[v | ]]]]"
)

# Every man who has a wife likes his wife.  The restrictor supplies the wife.
EVERY_MAN_WITH_WIFE = (
    "[ | [x, y | man(x), wife(y), of(y,x)] =>"
    " [ | likes(x,u), alpha:[u | wife(u), of(u,v), alpha:[v | ]]]]"
)

# Hank is married.  Every man likes his wife.
HANK = (
    "[x | hank(x), married(x),"
    " [y | man(y)] => [ | likes(y,u), alpha:[u | wife(u), of(u,v), alpha:[v | ]]]]"
)

MARRIAGE_POSTULATE = "[ | [m | married(m)] => [w | wife(w), of(w,m)]]"

# Family M at m = 40: hank with 40 extra root facts (the marriage postulate
# is its background).
FAMILY_M_40 = (
    "[x | hank(x), married(x), %s,"
    " [y | man(y)] => [ | likes(y,u), alpha:[u | wife(u), of(u,v), alpha:[v | ]]]]"
    % ", ".join("f%d(x)" % i for i in range(40))
)

# Alphas with nothing to accommodate: no conditions, or only a simple
# anaphor.  ``readings`` resolves them, so they add no accommodation check.
CONTENTLESS = (
    "[ | alpha:[ | ]]",
    "[x | p(x), alpha:[u, v | ]]",
    "[x | p(x), alpha:[u | alpha:[v | ]]]",
)

HANK_FORMULA = (
    "in([x | hank(x), married(x)], [u | wife(u), of(u,x)]"
    " & in([y | man(y)], [u | wife(u), of(u,x)] | [u | wife(u), of(u,y)]))"
)


@pytest.fixture
def every_man():
    return parse_drs(EVERY_MAN)


@pytest.fixture
def every_man_with_wife():
    return parse_drs(EVERY_MAN_WITH_WIFE)


@pytest.fixture
def hank():
    return parse_drs(HANK)


@pytest.fixture
def marriage_bg():
    return BackgroundTheory((parse_drs(MARRIAGE_POSTULATE),))
