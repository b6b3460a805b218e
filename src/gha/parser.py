"""Surface syntax for elements of H(f) and for defining polynomials.

Grammar, loosest to tightest binding: '+'/'-' < '*' < unary '-' < '^'.
'*' is noncommutative and operand order is preserved.  Exponents are
literal nonnegative integers.  'z' is input sugar for x*y - h; printed
output never uses it.  Polynomial inputs (the --f flag) additionally
allow implicit multiplication, as in '2h^3 - h'.  Parentheses nest at
most MAX_NESTING deep.

One regular expression reads the lexemes and each token is a plain
(kind, text, offset) tuple; a recursive descent of four productions,
expr, term, unary and atom, builds the tree.  Its nodes are immutable
values (field._Value) with generated constructors and class patterns.
A parse builds a node per operator and a token per lexeme, so both stay
cheap to make.
"""

from __future__ import annotations

import operator
import re
from functools import partial
from fractions import Fraction

from .core import AlgebraElement, Context, generators
from .errors import ParseError
from .field import RATIONALS, FieldDesc, FieldElement, _text_int, _Value
from .poly import Poly

Expr = "Num | Sym | Add | Sub | Mul | Neg | Pow"  # the node types, as an annotation string


class Num(_Value):
    __slots__ = __match_args__ = ("value",)  # a Fraction


class Sym(_Value):
    __slots__ = __match_args__ = ("name",)  # x, y, h, z or zeta


class _Binary(_Value):
    __slots__ = __match_args__ = ("left", "right")


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Neg(_Value):
    __slots__ = __match_args__ = ("operand",)


class Pow(_Value):
    __slots__ = __match_args__ = ("base", "exponent")


_ELEMENT_NAMES = ("x", "y", "h", "z", "zeta")
_POLY_NAMES = ("h", "zeta")
# the parser recurses a fixed number of frames per parenthesis level, so
# this bound keeps it well inside the interpreter's recursion limit
MAX_NESTING = 100

# an integer, a word, an operator or any other non-space character; \d is
# str.isdecimal, the digits int() and decimal accept, and \s is str.isspace
_LEXEME = re.compile(r"(?P<INT>\d+)|(?P<NAME>[^\W\d_]+)|(?P<OP>[-+*^()/])|(?P<BAD>\S)")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """The tokens of src as (kind, text, offset), closed by ("END", "", len(src)).

    A word is a name only if every character is a letter: the pattern's
    [^\\W\\d_] also takes characters such as '²', '½' and 'Ⅻ'.
    """
    tokens = []
    for match in _LEXEME.finditer(src):
        kind, text, pos = match.lastgroup, match.group(), match.start()
        if kind == "BAD" or kind == "NAME" and not text.isalpha():
            i = next(i for i, c in enumerate(text) if not c.isalpha())
            raise ParseError(pos + i, {"integer", "name", "operator"}, text[i])
        tokens.append((kind, text, pos))
    tokens.append(("END", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, text: str, names: tuple[str, ...], implicit_mul: bool):
        self.tokens = _tokenize(text)
        self.i = 0
        self.names = names
        self.implicit_mul = implicit_mul
        self.depth = 0

    def take(self, kind: str, texts=None) -> str | None:
        """The next token's text, consumed, if it is of kind and in texts; else None."""
        k, text, _ = self.tokens[self.i]
        if k == kind and (texts is None or text in texts):
            self.i += 1
            return text
        return None

    def fail(self, expected: set[str]):
        """Raise ParseError at the next token, which is none of expected."""
        _, text, pos = self.tokens[self.i]
        raise ParseError(pos, expected, text)

    def expr(self) -> Expr:
        node = self.term()
        while op := self.take("OP", "+-"):
            node = (Add if op == "+" else Sub)(node, self.term())
        return node

    def term(self) -> Expr:
        node = self.unary()
        while self.take("OP", "*") or self.implicit_mul and (
                self.tokens[self.i][0] in ("INT", "NAME") or self.tokens[self.i][1] == "("):
            node = Mul(node, self.unary())
        return node

    def unary(self) -> Expr:
        """Leading '-' signs over an atom raised to literal exponents."""
        signs = 0
        while self.take("OP", "-"):
            signs += 1
        node = self.atom()
        while self.take("OP", "^"):
            node = Pow(node, _text_int(self.take("INT") or self.fail({"nonnegative integer exponent"})))
        for _ in range(signs):
            node = Neg(node)
        return node

    def atom(self) -> Expr:
        if num := self.take("INT"):
            if not self.take("OP", "/"):
                return Num(Fraction(_text_int(num)))
            den = self.take("INT") or self.fail({"integer denominator"})
            if not _text_int(den):
                raise ParseError(self.tokens[self.i - 1][2], {"nonzero denominator"}, den)
            return Num(Fraction(_text_int(num), _text_int(den)))
        if name := self.take("NAME", self.names):
            return Sym(name)
        if self.depth < MAX_NESTING and self.take("OP", "("):
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            self.take("OP", ")") or self.fail({"')'"})
            return node
        kind, text, _ = self.tokens[self.i]
        self.fail(set(self.names) if kind == "NAME" else
                  {f"at most {MAX_NESTING} nested parentheses"} if text == "(" else
                  {"integer", "'('", *self.names})


def _parse(text: str, names: tuple[str, ...], implicit_mul: bool) -> Expr:
    parser = _Parser(text, names, implicit_mul)
    node = parser.expr()
    if parser.tokens[parser.i][0] != "END":
        parser.fail({"operator", "end of input"})
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
