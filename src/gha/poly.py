"""Dense exact polynomials in one variable over Q or Q(zeta_m).

This module also carries the composition machinery used everywhere
above it: the endomorphism sigma acts on coefficient polynomials by
g |-> g(f), and the iterated images sigma^k(h) = f o ... o f underpin
every normal-form computation.  Degrees grow like (deg f)^k, so the
growing operations check a global degree cap first.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DegreeCapExceeded, FieldMismatch, UnsupportedCase
from .field import FieldDesc, FieldElement, power

NEG_INF = float("-inf")


def _int_rows(coeffs) -> tuple[list[int], int]:
    """Rational coefficients as integer numerators over one denominator."""
    vals = [c.coords[0] for c in coeffs]
    den = 1
    for v in vals:
        den = math.lcm(den, v.denominator)
    return [v.numerator * (den // v.denominator) for v in vals], den

_degree_cap = 100_000


def degree_cap() -> int:
    return _degree_cap


def set_degree_cap(cap: int) -> None:
    """Set the global guard on result degrees (resource protection)."""
    global _degree_cap
    if cap < 1:
        raise ValueError("degree cap must be positive")
    _degree_cap = cap


def check_degree(d) -> None:
    """Raise DegreeCapExceeded if a result of degree d would pass the cap."""
    if d != NEG_INF and d > _degree_cap:
        raise DegreeCapExceeded(f"result degree {d} exceeds the cap {_degree_cap}")


class Poly:
    """Immutable dense polynomial; coefficients ascending, none trailing zero."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldDesc, coeffs=()):
        items: list[FieldElement] = []
        for c in coeffs:
            if isinstance(c, FieldElement):
                if c.desc != field:
                    raise FieldMismatch(f"coefficient in {c.desc}, expected {field}")
                items.append(c)
            else:
                items.append(FieldElement.rational(c, field))
        while items and items[-1].is_zero:
            items.pop()
        self.field = field
        self.coeffs = tuple(items)

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
    def degree(self):
        """Degree, with the zero polynomial at minus infinity."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading_coeff(self) -> FieldElement:
        return self.coeffs[-1] if self.coeffs else FieldElement.zero(self.field)

    def coeff(self, j: int) -> FieldElement:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return FieldElement.zero(self.field)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    # --- ring operations --------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.field != self.field:
                raise FieldMismatch(f"cannot combine {self.field} with {other.field}")
            return other
        if isinstance(other, (int, Fraction, FieldElement)):
            return Poly(self.field, (other,))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(self.field, (self.coeff(j) + o.coeff(j) for j in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, (-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        return Poly(self.field, (self.coeff(j) - o.coeff(j) for j in range(n)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.is_zero or o.is_zero:
            return Poly.zero(self.field)
        check_degree(self.degree + o.degree)
        if self.field.is_rational:
            return self._mul_rational(o)
        out = [FieldElement.zero(self.field)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero:
                for j, b in enumerate(o.coeffs):
                    if not b.is_zero:
                        out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def _mul_rational(self, o: "Poly") -> "Poly":
        # convolve integer numerators over a shared denominator so the
        # gcd normalization happens once per output coefficient rather
        # than once per scalar operation
        na, da = _int_rows(self.coeffs)
        nb, db = _int_rows(o.coeffs)
        out = [0] * (len(na) + len(nb) - 1)
        for i, a in enumerate(na):
            if a:
                for j, b in enumerate(nb):
                    if b:
                        out[i + j] += a * b
        den = da * db
        return Poly(self.field, tuple(Fraction(n, den) for n in out))

    __rmul__ = __mul__

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
        quot: dict[int, FieldElement] = {}
        rem = self
        dn = o.degree
        lead = o.leading_coeff
        while not rem.is_zero and rem.degree >= dn:
            shift = rem.degree - dn
            c = rem.leading_coeff / lead
            quot[shift] = c
            rem = rem - Poly(self.field, (0,) * shift + (c,)) * o
        top = max(quot) + 1 if quot else 0
        q = Poly(self.field, (quot.get(j, 0) for j in range(top)))
        return q, rem

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # --- analysis ----------------------------------------------------------
    def derivative(self) -> "Poly":
        return Poly(self.field, (self.coeffs[j] * j for j in range(1, len(self.coeffs))))

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        inv = self.leading_coeff.inverse()
        return Poly(self.field, (c * inv for c in self.coeffs))

    def __call__(self, point: FieldElement) -> FieldElement:
        """Evaluate at a scalar (Horner)."""
        if isinstance(point, (int, Fraction)):
            point = FieldElement.rational(point, self.field)
        acc = FieldElement.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner), by Horner's rule in the polynomial ring."""
        o = self._coerce(inner)
        if o is None:
            raise TypeError("compose expects a polynomial")
        if self.degree >= 1 and o.degree >= 1:
            check_degree(self.degree * o.degree)
        acc = Poly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * o + c
        return acc

    def embed(self, target: FieldDesc) -> "Poly":
        if target == self.field:
            return self
        return Poly(target, (c.embed(target) for c in self.coeffs))

    # --- display -------------------------------------------------------------
    def to_text(self, var: str = "h") -> str:
        """Descending powers, '^' for exponents, e.g. 'h^3 + 2*h - 1'."""
        if self.is_zero:
            return "0"
        pieces: list[tuple[int, str]] = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if c.is_zero:
                continue
            sign, body, atomic = c._display()
            if j == 0:
                text = body
            else:
                pv = var if j == 1 else f"{var}^{j}"
                if atomic and body == "1":
                    text = pv
                elif atomic:
                    text = f"{body}*{pv}"
                else:
                    text = f"({body})*{pv}"
            pieces.append((sign, text))
        first_sign, first_text = pieces[0]
        out = [f"-{first_text}" if first_sign < 0 else first_text]
        for sign, text in pieces[1:]:
            out.append(f" - {text}" if sign < 0 else f" + {text}")
        return "".join(out)

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


def sigma_power_h(f: Poly, k: int) -> Poly:
    """sigma^k(h) for the endomorphism sigma(h) = f(h); sigma^0(h) = h.

    Nothing is cached here: a Context memoizes the iterates it uses.
    """
    if k < 0:
        raise ValueError("sigma power must be nonnegative")
    if k == 0:
        return Poly.gen(f.field)
    if f.degree > 1:
        check_degree(f.degree ** k)  # prospective, before any huge intermediate
    s = f
    for _ in range(k - 1):
        s = f.compose(s)
    return s


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

    Peels leading terms: each step forces c = lc(g) / lc(outer)^e with
    e = deg g / deg outer, so completion certifies the decomposition.
    """
    if outer.field != g.field:
        raise FieldMismatch(f"cannot combine {g.field} with {outer.field}")
    if outer.degree < 1:
        raise UnsupportedCase("decomposition base must have degree >= 1")
    coeffs: dict[int, FieldElement] = {}
    rem = g
    while not rem.is_zero:
        d = rem.degree
        if d == 0:
            coeffs[0] = rem.coeff(0)
            break
        e, r = divmod(d, int(outer.degree))
        if r:
            return None
        c = rem.leading_coeff / (outer.leading_coeff ** e)
        coeffs[e] = c
        rem = rem - (outer ** e) * c
    top = max(coeffs) + 1 if coeffs else 0
    return Poly(g.field, (coeffs.get(j, 0) for j in range(top)))
