"""Seeded random builders and reference arithmetic shared by the test modules.

Everything random takes an explicit random.Random so failures reproduce
from the seed alone.  The scalar references share no code with the package,
apart from ref_reduce, the reduction mod Phi_m as one cascade through the
terms of Phi_m, which reads the field's Phi_m and packs with _restride;
the derivation references build on its product and differ only in how they
expand the Leibniz rule.  The normal form of y^k x^j is rebuilt from the
central element z with Poly arithmetic alone, and expression texts are
read a second time by a character-loop parser.
"""

from __future__ import annotations

import inspect
import random
import sys
from fractions import Fraction
from typing import NamedTuple

from gha.core import AlgebraElement, Context, generators, multiply
from gha.errors import ParseError, UnsupportedCase
from gha.field import FieldDesc, FieldElement, _restride, _text_int, divisors
from gha.parser import MAX_NESTING, Add, Expr, Mul, Neg, Num, Pow, Sub, Sym
from gha.poly import Poly, sigma_power_h

PHI = {  # ascending coefficients of Phi_m
    1: (-1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    7: (1, 1, 1, 1, 1, 1, 1),
    12: (1, 0, -1, 0, 1),
}


def ref_mul(m, a, b):
    """Product of two scalars of Q(zeta_m), given as tuples of phi(m) Fractions."""
    phi = len(PHI[m]) - 1
    prod = [Fraction(0)] * (2 * phi - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for e in range(len(prod) - 1, phi - 1, -1):  # Phi_m is monic
        c = prod[e]
        for t in range(phi + 1):
            prod[e - phi + t] -= c * PHI[m][t]
    return tuple(prod[:phi])


def ref_reduce(num: list[int], field: FieldDesc, stride: int) -> list[int]:
    """Rows of stride ints reduced mod Phi_m and packed again at stride phi.

    zeta^e = -sum c_t zeta^(e - phi + t), applied from the top power down
    through the nonzero terms of Phi_m only.
    """
    phi = field.degree
    if stride > phi:
        terms = [(t, c) for t, c in enumerate(field._cyclotomic[:-1]) if c]
        for e in range(stride - 1, phi - 1, -1):  # a pass writes lower powers only
            for i in range(e, len(num), stride):
                c = num[i]
                if c:
                    for t, p in terms:
                        num[i - phi + t] -= p * c
    return _restride(num, stride, phi, len(num) // stride)


def digits(n: int) -> str:
    """Decimal digits of n in chunks of 600, each under 640, the lowest int/str digit limit."""
    sign, n, chunks = "-" if n < 0 else "", abs(n), []
    while n >= 10 ** 600:
        n, low = divmod(n, 10 ** 600)
        chunks.append(str(low).zfill(600))
    return sign + str(n) + "".join(reversed(chunks))


def line_events(func, run, at: str | None = None) -> tuple:
    """run()'s value, and the line events it makes inside func's own code, a count of its loop steps.

    A clock-free measure of work: sys.settrace is set only for the call and
    traces no frame of any other code.  With `at`, only the steps into the
    first line of func's source that contains that text are counted, each
    once, also where Python 3.12 inlines a comprehension that loops on it.
    """
    code, events, line, last = func.__code__, 0, None, None
    if at is not None:
        source, first = inspect.getsourcelines(func)
        line = first + next(i for i, text in enumerate(source) if at in text)

    def local(frame, event, arg):
        nonlocal events, last
        if event == "line":
            events += line is None or frame.f_lineno == line != last
            last = frame.f_lineno
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        value = run()
    finally:
        sys.settrace(previous)
    return value, events


def random_fraction(rng: random.Random, span: int = 5) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_scalar(rng: random.Random, field, span: int = 5) -> FieldElement:
    if field.is_rational:
        return FieldElement.rational(random_fraction(rng, span), field)
    coords = tuple(random_fraction(rng, span) for _ in range(field.degree))
    return FieldElement(field, coords)


def random_poly(rng: random.Random, field, max_degree: int = 3, span: int = 5) -> Poly:
    deg = rng.randint(0, max_degree)
    coeffs = [random_scalar(rng, field, span) for _ in range(deg + 1)]
    return Poly(field, tuple(coeffs))


def random_element(
    rng: random.Random,
    ctx: Context,
    max_ik: int = 3,
    max_terms: int = 3,
    max_degree: int = 2,
    span: int = 3,
) -> AlgebraElement:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        i = rng.randint(0, max_ik)
        k = rng.randint(0, max_ik)
        terms[(i, k)] = random_poly(rng, ctx.field, max_degree, span)
    return AlgebraElement(ctx, terms)


def random_diagonal_element(
    rng: random.Random,
    ctx: Context,
    max_k: int = 3,
    max_degree: int = 2,
    span: int = 3,
) -> AlgebraElement:
    """Element of the degree-0 subalgebra: every term has i == k."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        k = rng.randint(0, max_k)
        terms[(k, k)] = random_poly(rng, ctx.field, max_degree, span)
    return AlgebraElement(ctx, terms)


def x_fixing_pairs_by_divisor(f: Poly) -> dict:
    """{d: (a, b)} for every divisor d of n - 1, n = deg f > 1: the candidate
    pairs of a divisor search for the cyclic order of the automorphism group.

    a is the canonical primitive d-th root of unity, in f's field joined with
    Q(zeta_d) (f's own field for d <= 2), and b = (a - 1)*a_{n-1} / (n*a_n)
    is the shift that the h^(n-1) coefficients force.  The pair is an
    automorphism when f(a*h + b) = a*f(h) + b, which the caller tests.
    """
    n = f.degree
    pairs = {}
    for d in divisors(n - 1):
        desc = f.field if d <= 2 else f.field.join(FieldDesc(d))
        if d <= 2:
            a = FieldElement.rational(1 if d == 1 else -1, desc)
        else:
            a = FieldElement.zeta_power(desc, desc.m // d)
        b = (a - 1) * f.coeff(n - 1).embed(desc) / (f.leading_coeff.embed(desc) * n)
        pairs[d] = (a, b)
    return pairs


# --- y^k x^j from the central element z -----------------------------------


def ref_y_pow_x_pow(ctx: Context, k: int, j: int) -> AlgebraElement:
    """Normal form of y^k x^j built from z = x*y - h, with no product in H(f).

    yx = z + sigma(h) and g(h) x = x sigma(g), z central, give, with
    d = |j - k|, m = min(j, k) and s_i = sigma^(i+d)(h),

        y^k x^j = x^max(j-k, 0) * prod_{i=1..m} (z + s_i) * y^max(k-j, 0).

    Write prod (t + s_i) = sum_r e_r t^r.  z^r = sum_a x^a c_{r,a} y^a with
    c_{0,0} = 1 and c_{r+1,a} = sigma(c_{r,a-1}) - h c_{r,a}, and
    e_r x^a c y^a = x^a sigma^a(e_r) c y^a.  Only Poly arithmetic,
    Poly.compose and sigma_power_h are used; no Context memo is read.
    """
    f, field = ctx.f, ctx.field
    d, m = abs(j - k), min(j, k)
    tower: dict[int, Poly] = {}

    def sigma_h(i: int) -> Poly:
        if i not in tower:
            tower[i] = sigma_power_h(f, i)
        return tower[i]

    zero, one, h = Poly.zero(field), Poly.one(field), Poly.gen(field)
    e = [one]  # ascending in t
    for i in range(1, m + 1):
        s = sigma_h(i + d)
        e = [(e[r - 1] if r else zero) + (s * e[r] if r < len(e) else zero) for r in range(len(e) + 1)]
    terms: dict[tuple[int, int], Poly] = {}
    c = [one]  # c[a] = c_{r,a}
    for r, e_r in enumerate(e):
        if r:
            c = [(c[a - 1].compose(f) if a else zero) - (h * c[a] if a < r else zero)
                 for a in range(r + 1)]
        for a, c_a in enumerate(c):
            key = (a + max(j - k, 0), a + max(k - j, 0))
            term = e_r.compose(sigma_h(a)) * c_a
            terms[key] = terms[key] + term if key in terms else term
    return AlgebraElement(ctx, terms)


# --- the parser as a character loop -------------------------------------


class _Token(NamedTuple):
    kind: str  # INT, NAME, OP, END
    text: str
    pos: int


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


def ref_parse(text: str, names: tuple[str, ...], implicit_mul: bool):
    """The tree of text, or its ParseError, from a character-loop tokenizer
    and a five-production recursive descent ('^' a production of its own).

    A second reading of the grammar in gha.parser, kept for comparison:
    trees, error offsets, expected sets and found texts must all agree.
    """
    parser = _Parser(_tokenize(text), names, implicit_mul)
    node = parser.expr()
    tail = parser.peek()
    if tail.kind != "END":
        raise ParseError(tail.pos, {"operator", "end of input"}, tail.text)
    return node


# --- derivations, expanded term by term ----------------------------------


def ref_derive_power(base: AlgebraElement, image: AlgebraElement, p: int) -> AlgebraElement:
    """Leibniz on base^p: sum_r base^r image base^(p-1-r)."""
    ctx = base.ctx
    total = AlgebraElement.zero(ctx)
    powers = [AlgebraElement.one(ctx)]
    for _ in range(p):
        powers.append(multiply(powers[-1], base))
    for r in range(p):
        total = total + multiply(multiply(powers[r], image), powers[p - 1 - r])
    return total


def ref_derive_poly(d, g: Poly) -> AlgebraElement:
    """Leibniz on g(h): sum_j c_j sum_s h^s im_h h^(j-1-s)."""
    ctx = d.ctx
    h = generators(ctx).h
    total = AlgebraElement.zero(ctx)
    for j, c in enumerate(g.coeffs):
        if j and not c.is_zero:
            total = total + ref_derive_power(h, d.im_h, j) * c
    return total


def ref_apply_derivation(d, a: AlgebraElement) -> AlgebraElement:
    """d(x^i g y^k) = d(x^i) g y^k + x^i d(g) y^k + x^i g d(y^k), term by term."""
    ctx = d.ctx
    gens = generators(ctx)
    out = AlgebraElement.zero(ctx)
    for (i, k), g in a.terms.items():
        head = gens.x ** i
        mid = AlgebraElement.from_poly(ctx, g)
        tail = gens.y ** k
        out = out + ref_derive_power(gens.x, d.im_x, i) * mid * tail
        out = out + head * ref_derive_poly(d, g) * tail
        out = out + head * mid * ref_derive_power(gens.y, d.im_y, k)
    return out


def ref_check_derivation(d) -> bool:
    """The three defining relations, each side expanded by the Leibniz rule."""
    gens = generators(d.ctx)
    f_elem = AlgebraElement.from_poly(d.ctx, d.ctx.f)
    df = ref_derive_poly(d, d.ctx.f)
    dx, dy, dh = d.im_x, d.im_y, d.im_h
    rel1 = dh * gens.x + gens.h * dx == dx * f_elem + gens.x * df
    rel2 = dy * gens.h + gens.y * dh == df * gens.y + f_elem * dy
    rel3 = dy * gens.x + gens.y * dx - dx * gens.y - gens.x * dy == df - dh
    return rel1 and rel2 and rel3


def _ref_scalar_multiple_of(a: AlgebraElement, key: tuple[int, int]):
    """c with a = c * (the basis monomial at key), or None."""
    if a.is_zero:
        return FieldElement.zero(a.ctx.field)
    if set(a.terms) != {key}:
        return None
    g = a.terms[key]
    if g.degree > 0:
        return None
    return g.coeff(0)


def ref_classify_locally_finite(d):
    """Match the shape x -> c x, y -> -c y, h -> 0 image by image; c or None."""
    if not d.ctx.f.degree > 1:
        raise UnsupportedCase("classification of derivations requires deg f > 1")
    if not ref_check_derivation(d):
        raise UnsupportedCase("the given images do not define a derivation")
    if not d.im_h.is_zero:
        return None
    lam = _ref_scalar_multiple_of(d.im_x, (1, 0))
    mu = _ref_scalar_multiple_of(d.im_y, (0, 1))
    if lam is None or mu is None or mu != -lam:
        return None
    return lam
