"""Dense exact polynomials in one variable over Q or Q(zeta_m): kernel pairs
(field._Pair) of one row per coefficient, with the scalars' ring operators.

This module also carries the composition machinery used everywhere
above it: the endomorphism sigma acts on coefficient polynomials by
g |-> g(f), and the iterated images sigma^k(h) = f o ... o f underpin
every normal-form computation.  Degrees grow like (deg f)^k, so the
growing operations check the degree cap of the current context first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress

from .errors import FieldMismatch, UnsupportedCase
from .field import (FieldDesc, FieldElement, _divmod, _inverse, _join, _mul, _Pair, _row_terms,
                    _trim, check_degree, monomial, power, signed_sum)
from .field import degree_cap, set_degree_cap  # noqa: F401  (re-exported by gha.poly)

NEG_INF = float("-inf")


class Poly(_Pair):
    """Immutable dense polynomial over Q or Q(zeta_m).

    A kernel pair (see field._Pair): one integer row of phi(m) power-basis
    coordinates per coefficient, ascending, with no trailing zero row.
    """

    __slots__ = ()

    def __init__(self, field: FieldDesc, coeffs=()):
        rows = [c if isinstance(c, FieldElement) else FieldElement.rational(c, field)
                for c in coeffs]
        for c in rows:
            # identity first: FieldDesc.__eq__ is a Python call per coefficient
            if c.field is not field and c.field != field:
                raise FieldMismatch(f"coefficient in {c.field}, expected {field}")
        self._set(field, *_join([(c.num, c.den) for c in rows]))

    _canonical = staticmethod(_trim)

    def _lift(self, value):
        if isinstance(value, (int, Fraction, FieldElement)):
            return Poly(self.field, (value,))
        return None

    # --- construction --------------------------------------------------
    @classmethod
    def zero(cls, field: FieldDesc) -> "Poly":
        return cls(field)

    @classmethod
    def one(cls, field: FieldDesc) -> "Poly":
        return cls(field, (1,))

    @classmethod
    def gen(cls, field: FieldDesc) -> "Poly":
        """The variable itself."""
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field: FieldDesc, value) -> "Poly":
        return cls(field, (value,))

    # --- basic queries ---------------------------------------------------
    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        """The coefficients as scalars, ascending."""
        return tuple(self.coeff(j) for j in range(len(self.num) // self.field.degree))

    @property
    def degree(self):
        """Degree, with the zero polynomial at minus infinity."""
        return len(self.num) // self.field.degree - 1 if self.num else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.num  # rows are trimmed

    @property
    def leading_coeff(self) -> FieldElement:
        return self.coeff(self.degree)

    def coeff(self, j: int) -> FieldElement:
        phi = self.field.degree
        if 0 <= j < len(self.num) // phi:
            return FieldElement._from_ints(self.field, self.num[j * phi:(j + 1) * phi], self.den)
        return FieldElement.zero(self.field)

    # --- ring operations --------------------------------------------------
    def __pow__(self, e: int) -> "Poly":
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        if self.degree >= 1:
            check_degree(self.degree * e)
        return power(self, e, Poly.one(self.field))

    def __divmod__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divmod(self.num, self.den, o.num, o.den, self.field)
        return Poly._from_ints(self.field, *q), Poly._from_ints(self.field, *r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # --- analysis ----------------------------------------------------------
    def derivative(self) -> "Poly":
        phi = self.field.degree
        return Poly._from_ints(self.field, [v * (i // phi) for i, v in enumerate(self.num)][phi:],
                          self.den)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        inv, dinv = _inverse(self.num[-self.field.degree:], self.den, self.field)
        return Poly._from_ints(self.field, _mul(self.num, inv, self.field), self.den * dinv)

    def __call__(self, point: FieldElement) -> FieldElement:
        """Evaluate at a scalar: the constant term of self composed with it."""
        return self.compose(Poly.constant(self.field, point)).coeff(0)

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner), on integer rows over one denominator.

        With inner = N/d, a block of m coefficients c_0..c_(m-1) stands for
        the integer rows d^(m-1) * sum c_j (N/d)^j.  Each coefficient of
        self starts as a block of one, its own row.  A left block L of m
        coefficients and the block R after it, of r, join as
        d^r * L + N^m * R: blocks of 1 join in pairs with N, then blocks of 2
        with N^2, and so on, N^m by repeated squaring, until one block is
        left, so that the long products have operands of like length.  For
        self of degree n >= 1 that is n joins and ceil(log2(n+1)) - 1
        squarings.  The whole of self, n + 1 coefficients, ends at
        d^n * den(self) * self(inner).
        """
        o = self._coerce(inner)
        if o is None:
            raise TypeError("compose expects a polynomial")
        if self.degree >= 1 and o.degree >= 1:
            check_degree(self.degree * o.degree)
        field, phi, num, d = self.field, self.field.degree, self.num, o.den
        if not num:
            return self
        # (rows, coefficients); a zero row is [], which _mul returns at once
        blocks = [(_trim(list(num[lo:lo + phi]), phi), 1) for lo in range(0, len(num), phi)]
        step, width = o.num, 1  # N^width
        while len(blocks) > 1:
            while width < blocks[0][1]:  # every block but the last is as long as the first
                step, width = _mul(step, step, field), 2 * width
            joined = []
            for (left, m), (right, r) in zip(blocks[::2], blocks[1::2]):
                acc = _mul(right, step, field) or [0] * len(left)  # a zero R, or a zero inner
                scale = d ** r
                acc[:len(left)] = [x + scale * y for x, y in zip(acc, left)]
                joined.append((acc, m + r))
            blocks = joined + blocks[len(joined) * 2:]
        acc, m = blocks[0]
        return Poly._from_ints(field, acc, self.den * d ** (m - 1))

    # --- display -------------------------------------------------------------
    def to_text(self, var: str = "h") -> str:
        """Descending powers, '^' for exponents, e.g. 'h^3 + 2*h - 1'."""
        if self.is_zero:
            return "0"
        phi, num = self.field.degree, self.num
        nonzero = num if phi == 1 else map(any, zip(*[iter(num)] * phi))
        pieces: list[tuple[int, str]] = []
        for j in reversed(list(compress(range(len(num) // phi), nonzero))):
            terms = _row_terms(num[j * phi:(j + 1) * phi], self.den)
            sign, body = terms[0] if len(terms) == 1 else (1, signed_sum(terms))
            if j and len(terms) > 1:
                body = f"({body})"
            pieces.append((sign, monomial(body, var, j)))
        return signed_sum(pieces)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Poly({self.field}, {self.to_text()})"


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    if p.field != q.field:
        raise FieldMismatch(f"cannot combine {p.field} with {q.field}")
    while not q.is_zero:
        p, q = q, p % q
    return p.monic()


def _fill(table: dict, k: int, step):
    """table[k] of a memo {0: v_0, 1: v_1, ...} grown in place by v_m = step(v_(m-1)).

    Each value goes in at its own index by setdefault, one index at a time,
    so threads that grow one table at once may compute a value twice, but
    the first value stored is the one every reader gets.
    """
    for m in range(len(table), k + 1):  # indices 0 .. len - 1 are all filled
        if m not in table:
            table.setdefault(m, step(table[m - 1]))
    return table[k]


def _sigma_tower(tower: dict[int, Poly], k: int) -> Poly:
    """sigma^k(h) from tower = {0: h, 1: f, 2: f(f), ...}, grown by _fill, the cap checked first."""
    if k < 0:
        raise ValueError("sigma power must be nonnegative")
    out = tower.get(k)
    if out is not None:
        return out
    f = tower[1]
    if f.degree > 1:
        check_degree(f.degree, k)
    return _fill(tower, k, f.compose)


def sigma_power_h(f: Poly, k: int) -> Poly:
    """sigma^k(h) for sigma(h) = f(h), sigma^0(h) = h; uncached (Context.sigma_h memoizes)."""
    return _sigma_tower({0: Poly.gen(f.field), 1: f}, k)


def sigma_apply(g: Poly, f: Poly, k: int) -> Poly:
    """sigma^k(g) = g(sigma^k(h))."""
    if k == 0 or g.degree <= 0:
        return g
    return g.compose(sigma_power_h(f, k))


def compose_mod(outer: Poly, inner: Poly, modulus: Poly) -> Poly:
    """outer(inner) mod modulus, reducing at every Horner step."""
    acc = Poly.zero(outer.field)
    inner = inner % modulus
    for c in reversed(outer.coeffs):
        acc = (acc * inner + c) % modulus
    return acc


def decompose_as_polynomial_in(g: Poly, outer: Poly) -> Poly | None:
    """The unique p with g = p(outer), or None if no such p exists.

    Expands g in powers of outer by repeated division: g = p(outer) exactly
    when every remainder is a constant, and those constants are p's
    coefficients, lowest first.
    """
    if outer.field != g.field:
        raise FieldMismatch(f"cannot combine {g.field} with {outer.field}")
    if outer.degree < 1:
        raise UnsupportedCase("decomposition base must have degree >= 1")
    coeffs = []
    while not g.is_zero:
        g, r = divmod(g, outer)
        if r.degree > 0:
            return None
        coeffs.append(r.coeff(0))
    return Poly(outer.field, coeffs)
