"""Expression parsing for elements and coefficient polynomials."""

import random
from fractions import Fraction

import pytest

from gha.core import AlgebraElement, Context, generators
from gha.errors import ParseError
from gha.field import FieldDesc, FieldElement, RATIONALS
from gha.parser import (
    MAX_NESTING, Add, Mul, Num, Pow, Sym, evaluate, parse, parse_element, parse_poly,
)

from .helpers import random_element


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
