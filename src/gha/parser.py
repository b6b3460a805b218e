"""Surface syntax for elements of H(f) and for defining polynomials.

Grammar, loosest to tightest binding: '+'/'-' < '*' < unary '-' < '^'.
'*' is noncommutative and operand order is preserved.  Exponents are
literal nonnegative integers.  'z' is input sugar for x*y - h; printed
output never uses it.  Polynomial inputs (the --f flag) additionally
allow implicit multiplication, as in '2h^3 - h'.  Parentheses nest at
most MAX_NESTING deep.

The tree's nodes are immutable values (field._Value) with positional
constructors and class patterns; tokens are a NamedTuple.  A parse builds
a node per operator and a token per lexeme, so both stay cheap to make.
"""

from __future__ import annotations

import operator
from functools import partial
from fractions import Fraction
from typing import NamedTuple, Union

from .core import AlgebraElement, Context, generators
from .errors import ParseError
from .field import RATIONALS, FieldDesc, FieldElement, _setattr, _text_int, _Value
from .poly import Poly

Expr = Union["Num", "Sym", "Add", "Sub", "Mul", "Neg", "Pow"]


class Num(_Value):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: Fraction):
        _setattr(self, "value", value)


class Sym(_Value):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):  # x, y, h, z or zeta
        _setattr(self, "name", name)


class _Binary(_Value):
    __slots__ = __match_args__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        _setattr(self, "left", left)
        _setattr(self, "right", right)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Neg(_Value):
    __slots__ = __match_args__ = ("operand",)

    def __init__(self, operand: Expr):
        _setattr(self, "operand", operand)


class Pow(_Value):
    __slots__ = __match_args__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        _setattr(self, "base", base)
        _setattr(self, "exponent", exponent)


class _Token(NamedTuple):
    kind: str  # INT, NAME, OP, END
    text: str
    pos: int


_ELEMENT_NAMES = ("x", "y", "h", "z", "zeta")
_POLY_NAMES = ("h", "zeta")
# the parser recurses a fixed number of frames per parenthesis level, so
# this bound keeps it well inside the interpreter's recursion limit
MAX_NESTING = 100


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(src):
        c = src[i]
        if c.isspace():
            i += 1
        elif c.isdecimal():  # the digits int() and decimal accept
            start = i
            while i < len(src) and src[i].isdecimal():
                i += 1
            tokens.append(_Token("INT", src[start:i], start))
        elif c.isalpha():
            start = i
            while i < len(src) and src[i].isalpha():
                i += 1
            tokens.append(_Token("NAME", src[start:i], start))
        elif c in "+-*^()/":
            tokens.append(_Token("OP", c, i))
            i += 1
        else:
            raise ParseError(i, {"integer", "name", "operator"}, c)
    tokens.append(_Token("END", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], names: tuple[str, ...], implicit_mul: bool):
        self.tokens = tokens
        self.pos = 0
        self.names = names
        self.implicit_mul = implicit_mul
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> Expr:
        node = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            node = Add(node, rhs) if op == "+" else Sub(node, rhs)
        return node

    def term(self) -> Expr:
        node = self.unary()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.text == "*":
                self.advance()
                node = Mul(node, self.unary())
            elif self.implicit_mul and (
                tok.kind in ("INT", "NAME") or (tok.kind == "OP" and tok.text == "(")
            ):
                node = Mul(node, self.unary())
            else:
                return node

    def unary(self) -> Expr:
        signs = 0
        while self.peek().kind == "OP" and self.peek().text == "-":
            self.advance()
            signs += 1
        node = self.power()
        for _ in range(signs):
            node = Neg(node)
        return node

    def power(self) -> Expr:
        node = self.atom()
        while self.peek().kind == "OP" and self.peek().text == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "INT":
                raise ParseError(tok.pos, {"nonnegative integer exponent"}, tok.text)
            self.advance()
            node = Pow(node, _text_int(tok.text))
        return node

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            num = _text_int(tok.text)
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "/":
                self.advance()
                den_tok = self.peek()
                if den_tok.kind != "INT":
                    raise ParseError(den_tok.pos, {"integer denominator"}, den_tok.text)
                self.advance()
                if _text_int(den_tok.text) == 0:
                    raise ParseError(den_tok.pos, {"nonzero denominator"}, den_tok.text)
                return Num(Fraction(num, _text_int(den_tok.text)))
            return Num(Fraction(num))
        if tok.kind == "NAME":
            if tok.text not in self.names:
                raise ParseError(tok.pos, set(self.names), tok.text)
            self.advance()
            return Sym(tok.text)
        if tok.kind == "OP" and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(tok.pos, {f"at most {MAX_NESTING} nested parentheses"}, tok.text)
            self.advance()
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            closing = self.peek()
            if not (closing.kind == "OP" and closing.text == ")"):
                raise ParseError(closing.pos, {"')'"}, closing.text)
            self.advance()
            return node
        raise ParseError(tok.pos, {"integer", "'('"} | set(self.names), tok.text)


def _parse(text: str, names: tuple[str, ...], implicit_mul: bool) -> Expr:
    parser = _Parser(_tokenize(text), names, implicit_mul)
    node = parser.expr()
    tail = parser.peek()
    if tail.kind != "END":
        raise ParseError(tail.pos, {"operator", "end of input"}, tail.text)
    return node


def parse(text: str) -> Expr:
    """Parse an element expression over x, y, h, z, zeta and rationals."""
    return _parse(text, _ELEMENT_NAMES, implicit_mul=False)


_BINARY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _fold(node: Expr, names: dict, lift, field: FieldDesc):
    """Evaluate a tree bottom-up; names maps each variable to its value.

    Numbers and zeta become values through lift.  An explicit stack
    stands in for recursion, so long sums or products cost no call depth.
    """
    todo: list = [(node, False)]
    values: list = []
    while todo:
        item, ready = todo.pop()
        match item:
            case Num(value):
                values.append(lift(value))
            case Sym("zeta"):
                values.append(lift(FieldElement.zeta(field)))
            case Sym(name):
                values.append(names[name])
            case Neg(operand) | Pow(operand, _) if not ready:
                todo += ((item, True), (operand, False))
            case Add(left, right) | Sub(left, right) | Mul(left, right) if not ready:
                todo += ((item, True), (right, False), (left, False))
            case Neg():
                values.append(-values.pop())
            case Pow(_, exponent):
                values.append(values.pop() ** exponent)
            case Add() | Sub() | Mul():
                right = values.pop()
                values.append(_BINARY[type(item)](values.pop(), right))
            case _:
                raise TypeError(f"not an expression node: {item!r}")
    return values.pop()


def evaluate(node: Expr, ctx: Context) -> AlgebraElement:
    """Fold an expression tree into a normal form over the context."""
    lift = partial(AlgebraElement.from_scalar, ctx)
    return _fold(node, generators(ctx)._asdict(), lift, ctx.field)


def parse_element(text: str, ctx: Context) -> AlgebraElement:
    return evaluate(parse(text), ctx)


def parse_poly(text: str, field: FieldDesc = None) -> Poly:
    """Parse a polynomial in h; '*' may be left implicit ('2h^3 - h')."""
    if field is None:
        field = RATIONALS
    node = _parse(text, _POLY_NAMES, implicit_mul=True)
    return _fold(node, {"h": Poly.gen(field)}, partial(Poly.constant, field), field)
