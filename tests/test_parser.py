"""Expression parsing for elements and coefficient polynomials."""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from gha.core import AlgebraElement, Context, generators  # noqa: E402
from gha.errors import ParseError  # noqa: E402
from gha.field import FieldDesc, FieldElement, RATIONALS  # noqa: E402
from gha.parser import (  # noqa: E402
    _ELEMENT_NAMES, _POLY_NAMES, MAX_NESTING, Add, Mul, Num, Pow, Sym, _parse, evaluate, parse,
    parse_element, parse_poly,
)

from .helpers import random_element, ref_parse  # noqa: E402


@pytest.fixture
def ctx():
    return Context(parse_poly("h^2"))


def test_ast_shapes():
    tree = parse("x + y * h")
    assert isinstance(tree, Add)
    assert tree.left == Sym("x")
    assert isinstance(tree.right, Mul)

    assert parse("x^3") == Pow(Sym("x"), 3)
    assert parse("2/3") == Num(Fraction(2, 3))


def test_precedence_and_grouping(ctx):
    x, y, h, _ = generators(ctx)
    assert parse_element("2 + 3 * h", ctx) == h * 3 + 2
    assert parse_element("(2 + 3) * h", ctx) == h * 5
    assert parse_element("x * y^2", ctx) == x * (y * y)
    assert parse_element("(x * y)^2", ctx) == (x * y) ** 2
    assert parse_element("-x^2", ctx) == -(x * x)
    assert parse_element("x - y - h", ctx) == (x - y) - h


def test_products_are_order_sensitive(ctx):
    x, y, _, _ = generators(ctx)
    assert parse_element("y * x", ctx) == y * x
    assert parse_element("x * y", ctx) == x * y
    assert parse_element("y * x", ctx) != parse_element("x * y", ctx)


def test_z_shorthand(ctx):
    assert parse_element("z", ctx) == generators(ctx).z
    assert parse_element("z - (x*y - h)", ctx).is_zero
    # z is input sugar only; output spells it out
    assert "z" not in generators(ctx).z.to_text()


def test_rational_literals(ctx):
    x = generators(ctx).x
    assert parse_element("1/2 * x", ctx) == x * Fraction(1, 2)
    assert parse_element("-3/4", ctx) == AlgebraElement.from_scalar(ctx, Fraction(-3, 4))
    with pytest.raises(ParseError):
        parse_element("1/0", ctx)


def test_zeta_literal():
    field = FieldDesc(4)
    ctx = Context(parse_poly("h^2", field))
    x = generators(ctx).x
    got = parse_element("zeta^2 * x", ctx)
    assert got == -x
    assert parse_element("zeta", ctx) == AlgebraElement.from_scalar(ctx, FieldElement.zeta(field))


def test_zeta_over_rationals_is_one(ctx):
    assert parse_element("zeta", ctx) == AlgebraElement.one(ctx)


def test_roundtrip_through_text():
    rng = random.Random(11)
    ctx = Context(parse_poly("h^3+h"))
    for _ in range(25):
        e = random_element(rng, ctx, max_ik=3, max_degree=3)
        assert parse_element(e.to_text(), ctx) == e


def test_roundtrip_cyclotomic_coefficients():
    field = FieldDesc(6)
    ctx = Context(parse_poly("h^2", field))
    rng = random.Random(12)
    for _ in range(15):
        e = random_element(rng, ctx, max_ik=2, max_degree=2)
        assert parse_element(e.to_text(), ctx) == e


def test_error_positions_and_expectations(ctx):
    with pytest.raises(ParseError) as info:
        parse_element("x^-1", ctx)
    assert info.value.pos == 2
    assert "nonnegative integer exponent" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse_element("x +", ctx)
    assert info.value.pos == 3
    assert "end of input" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse_element("w", ctx)
    assert info.value.pos == 0

    with pytest.raises(ParseError) as info:
        parse_element("2 @ 3", ctx)
    assert info.value.pos == 2

    with pytest.raises(ParseError) as info:
        parse_element("x y", ctx)  # implicit products are poly-mode only
    assert info.value.pos == 2


def test_unbalanced_parens(ctx):
    with pytest.raises(ParseError):
        parse_element("(x + y", ctx)
    with pytest.raises(ParseError):
        parse_element("x + y)", ctx)


def test_double_star_rejected(ctx):
    with pytest.raises(ParseError) as info:
        parse_element("x**2", ctx)
    assert info.value.pos == 2


def test_exponent_must_be_literal(ctx):
    with pytest.raises(ParseError):
        parse_element("x^(2)", ctx)
    with pytest.raises(ParseError):
        parse_element("x^h", ctx)


def test_parse_poly_basics():
    assert parse_poly("h^2 - h") == parse_poly("h*h - h")
    assert parse_poly("0").is_zero
    assert parse_poly("-h").coeff(1) == FieldElement.rational(-1)
    assert parse_poly("7/2").coeff(0) == FieldElement.rational(Fraction(7, 2))


def test_parse_poly_implicit_multiplication():
    assert parse_poly("2h^3 - h") == parse_poly("2*h^3 - h")
    assert parse_poly("(h+1)(h-1)") == parse_poly("h^2 - 1")
    assert parse_poly("3(h+2)") == parse_poly("3h + 6")


def test_parse_poly_rejects_element_names():
    with pytest.raises(ParseError):
        parse_poly("x^2")
    with pytest.raises(ParseError):
        parse_poly("z + h")
    with pytest.raises(ParseError):
        parse_poly("y*h")


def test_parse_poly_with_zeta():
    field = FieldDesc(3)
    p = parse_poly("zeta * h + 1", field)
    assert p.coeff(1) == FieldElement.zeta(field)
    assert p.coeff(0) == FieldElement.one(field)


def test_whitespace_insensitive(ctx):
    a = parse_element("x*y+h", ctx)
    b = parse_element("  x * y  +  h ", ctx)
    assert a == b


def test_empty_input_rejected(ctx):
    with pytest.raises(ParseError):
        parse_element("", ctx)
    with pytest.raises(ParseError):
        parse_poly("   ")


def test_nesting_bound(ctx):
    x = generators(ctx).x
    assert parse_element("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, ctx) == x
    with pytest.raises(ParseError) as info:
        parse_element("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), ctx)
    assert info.value.pos == MAX_NESTING
    with pytest.raises(ParseError) as info:
        parse_poly("(" * 5000 + "h" + ")" * 5000)
    assert info.value.pos == MAX_NESTING


def test_long_chains_fold_without_recursion(ctx):
    x, y, h, _ = generators(ctx)
    n = 5000
    assert parse_element("+".join(["x"] * n), ctx) == x * n
    assert parse_element("y" + "*h" * 20 + "-h" * n, ctx) == y * h ** 20 - h * n
    assert parse_element("x" + "^1" * n, ctx) == x
    assert parse_element("-" * (n + 1) + "y", ctx) == -y
    assert parse_poly("h" + "+1" * n) == parse_poly(f"h + {n}")


def test_evaluate_takes_only_expression_nodes(ctx):
    with pytest.raises(TypeError, match="^not an expression node: 'x'$"):
        evaluate("x", ctx)


# --- against the character-loop reference ---------------------------------

# lexemes of both grammars and near misses: other names, decimal digits of
# other scripts, word characters that are no letters ('²', '½', 'Ⅻ', '_'),
# a letter outside ASCII and spaces that are not ' '
_PIECES = st.sampled_from([
    "x", "y", "h", "z", "zeta", "w", "ze", "0", "07", "12", "/", "(", ")", "+", "-", "*", "^",
    " ", "١", "１", "²", "½", "Ⅻ", "é", "_", "\x1c", "　", "\xa0",
])
_TEXTS = st.lists(_PIECES, max_size=16).map("".join)
# the text inside MAX_NESTING - 1 to MAX_NESTING + 1 parentheses, closed or one short
_NESTED = st.tuples(st.integers(MAX_NESTING - 1, MAX_NESTING + 1), _TEXTS, st.integers(0, 1)).map(
    lambda t: "(" * t[0] + t[1] + ")" * (t[0] - t[2]))


def _outcome(parser, text, names, implicit_mul):
    """repr of the tree, or the ParseError's offset, expected set, found text and message."""
    try:
        return repr(parser(text, names, implicit_mul))
    except ParseError as error:
        return error.pos, error.expected, error.found, str(error)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_TEXTS, _TEXTS, _NESTED))
@example("h²")  # a word character that is no letter ends the name before it
@example("2h^3 - h(h+1)")
@example("(" * 5000 + "h" + ")" * 5000)
@example("1/0 + x @ 2")  # an invalid character wins over an earlier syntax error
def test_parser_agrees_with_the_character_loop(text):
    for names, implicit_mul in ((_ELEMENT_NAMES, False), (_POLY_NAMES, True)):
        assert _outcome(_parse, text, names, implicit_mul) == _outcome(ref_parse, text, names, implicit_mul)
