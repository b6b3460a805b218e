"""Exact scalars: the rationals Q and the cyclotomic extensions Q(zeta_m).

An element of Q(zeta_m) is stored by its coordinates with respect to the
power basis {zeta^j : 0 <= j < phi(m)}, always reduced modulo the m-th
cyclotomic polynomial, so equality is a plain coordinate comparison.
m = 1 is identified with Q itself (length-1 coordinate vectors).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import FieldMismatch, NoEmbedding, UnsupportedCase

_ZERO = Fraction(0)
_ONE = Fraction(1)


def divisors(m: int) -> list[int]:
    """Positive divisors of m, ascending."""
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def euler_phi(m: int) -> int:
    """Euler's totient function."""
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def power(base, e: int, one):
    """base^e for e >= 0 by square-and-multiply; one is the unit of base's ring."""
    result = one
    while e:
        if e & 1:
            result = result * base
        e >>= 1
        if e:
            base = base * base
    return result


def _list_trim(a: list[Fraction]) -> list[Fraction]:
    while a and not a[-1]:
        a.pop()
    return a


def _list_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _list_trim(out)


def _list_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = list(a) + [_ZERO] * (len(b) - len(a))
    for j, y in enumerate(b):
        out[j] -= y
    return _list_trim(out)


def _list_divmod(num, den):
    """Quotient and remainder of ascending coefficient lists."""
    num = list(num)
    dn = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dn:
        return [], _list_trim(num)
    quot = [_ZERO] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i] / lead
        if c:
            quot[i - dn] = c
            for j in range(dn + 1):
                num[i - dn + j] -= c * den[j]
    return _list_trim(quot), _list_trim(num[:dn])


@lru_cache(maxsize=None)
def cyclotomic_coeffs(m: int) -> tuple[Fraction, ...]:
    """Ascending coefficients of the m-th cyclotomic polynomial Phi_m.

    Computed by exact division of t^m - 1 by the product of Phi_d over
    the proper divisors d of m.
    """
    if m < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    num = [_ZERO] * (m + 1)
    num[0], num[m] = -_ONE, _ONE
    for d in divisors(m):
        if d < m:
            quot, rem = _list_divmod(num, list(cyclotomic_coeffs(d)))
            assert not rem, "cyclotomic division must be exact"
            num = quot
    return tuple(num)


@lru_cache(maxsize=None)
def _power_table(m: int) -> tuple[tuple[Fraction, ...], ...]:
    """Coordinates of t^e mod Phi_m for 0 <= e <= max(m, 2*phi(m) - 2)."""
    phi = euler_phi(m)
    top = max(m, 2 * phi - 2)
    mod = cyclotomic_coeffs(m)
    rows: list[tuple[Fraction, ...]] = [
        tuple(_ONE if j == e else _ZERO for j in range(phi)) for e in range(phi)
    ]
    for e in range(phi, top + 1):
        prev = rows[e - 1]
        carry = prev[phi - 1]
        shifted = (_ZERO,) + prev[: phi - 1]
        rows.append(tuple(shifted[j] - carry * mod[j] for j in range(phi)))
    return tuple(rows)


@dataclass(frozen=True)
class FieldDesc:
    """Q (m = 1) or the cyclotomic field Q(zeta_m)."""

    m: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("cyclotomic index must be >= 1")

    @property
    def is_rational(self) -> bool:
        return self.m == 1

    @property
    def degree(self) -> int:
        """Dimension phi(m) over Q."""
        return euler_phi(self.m)

    def embeds_into(self, other: "FieldDesc") -> bool:
        return other.m % self.m == 0

    def join(self, other: "FieldDesc") -> "FieldDesc":
        """Smallest common extension, Q(zeta_lcm)."""
        return FieldDesc(math.lcm(self.m, other.m))

    def __str__(self):
        return "Q" if self.m == 1 else f"Q(zeta_{self.m})"


RATIONALS = FieldDesc(1)


@dataclass(frozen=True, eq=False)
class FieldElement:
    """An exact scalar, reduced mod Phi_m; immutable and hashable."""

    desc: FieldDesc
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.desc.degree:
            raise ValueError(
                f"expected {self.desc.degree} coordinates for {self.desc}, "
                f"got {len(self.coords)}"
            )
        if not all(isinstance(c, Fraction) for c in self.coords):
            object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    # --- construction -------------------------------------------------
    @staticmethod
    def rational(value, desc: FieldDesc = RATIONALS) -> "FieldElement":
        c = Fraction(value)
        return FieldElement(desc, (c,) + (_ZERO,) * (desc.degree - 1))

    @staticmethod
    def zero(desc: FieldDesc) -> "FieldElement":
        return FieldElement.rational(0, desc)

    @staticmethod
    def one(desc: FieldDesc) -> "FieldElement":
        return FieldElement.rational(1, desc)

    @staticmethod
    def zeta(desc: FieldDesc) -> "FieldElement":
        """The canonical primitive m-th root of unity (1 when m = 1)."""
        return FieldElement.zeta_power(desc, 1)

    @staticmethod
    def zeta_power(desc: FieldDesc, e: int) -> "FieldElement":
        e %= desc.m
        return FieldElement(desc, _power_table(desc.m)[e])

    # --- predicates ----------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __bool__(self) -> bool:
        return not self.is_zero

    @property
    def is_rational_value(self) -> bool:
        return not any(self.coords[1:])

    def as_fraction(self) -> Fraction:
        """The value as a rational number; error when not rational-valued."""
        if not self.is_rational_value:
            raise UnsupportedCase(f"{self} is not a rational number")
        return self.coords[0]

    # --- arithmetic ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.desc != self.desc:
                raise FieldMismatch(f"cannot combine {self.desc} with {other.desc}")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElement.rational(other, self.desc)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.desc, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.desc, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.desc, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = self.desc.degree
        if n == 1:
            return FieldElement(self.desc, (self.coords[0] * o.coords[0],))
        prod = [_ZERO] * (2 * n - 1)
        for i, a in enumerate(self.coords):
            if a:
                for j, b in enumerate(o.coords):
                    if b:
                        prod[i + j] += a * b
        table = _power_table(self.desc.m)
        out = prod[:n]
        for e in range(n, 2 * n - 1):
            c = prod[e]
            if c:
                row = table[e]
                for j in range(n):
                    if row[j]:
                        out[j] += c * row[j]
        return FieldElement(self.desc, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse, by the extended Euclidean algorithm mod Phi_m."""
        if self.is_zero:
            raise ZeroDivisionError("inversion of zero field element")
        n = self.desc.degree
        if n == 1:
            return FieldElement(self.desc, (1 / self.coords[0],))
        # maintain r_i = s_i*Phi + t_i*self; Phi_m is irreducible over Q,
        # so the loop ends at a nonzero constant remainder
        r0, r1 = list(cyclotomic_coeffs(self.desc.m)), _list_trim(list(self.coords))
        t0, t1 = [], [_ONE]
        while len(r1) > 1:
            q, r = _list_divmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, _list_sub(t0, _list_mul(q, t1))
        c = r1[0]
        inv = [v / c for v in t1]
        inv += [_ZERO] * (n - len(inv))
        return FieldElement(self.desc, tuple(inv))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int) -> "FieldElement":
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, FieldElement.one(self.desc))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FieldElement.rational(other, self.desc)
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.desc == other.desc and self.coords == other.coords

    def __hash__(self):
        return hash((self.desc, self.coords))

    # --- embeddings ----------------------------------------------------
    def embed(self, target: FieldDesc) -> "FieldElement":
        """Image under zeta_m -> zeta_M^(M/m); requires m | M."""
        if target == self.desc:
            return self
        if not self.desc.embeds_into(target):
            raise NoEmbedding(f"{self.desc} does not embed into {target}")
        step = target.m // self.desc.m
        out = FieldElement.zero(target)
        for j, c in enumerate(self.coords):
            if c:
                out = out + FieldElement.zeta_power(target, j * step) * c
        return out

    # --- display --------------------------------------------------------
    def _terms_desc(self) -> list[tuple[int, Fraction]]:
        return [(j, self.coords[j]) for j in range(len(self.coords) - 1, -1, -1)
                if self.coords[j]]

    def _display(self) -> tuple[int, str, bool]:
        """(sign, magnitude text, atomic).  Composite values report sign +1
        and need parentheses when used as a factor."""
        ts = self._terms_desc()
        if not ts:
            return 1, "0", True
        if len(ts) == 1:
            j, c = ts[0]
            sign = -1 if c < 0 else 1
            mag = -c if c < 0 else c
            if j == 0:
                return sign, str(mag), True
            sym = "zeta" if j == 1 else f"zeta^{j}"
            return sign, (sym if mag == 1 else f"{mag}*{sym}"), True
        return 1, str(self), False

    def __str__(self):
        ts = self._terms_desc()
        if not ts:
            return "0"
        out = []
        for idx, (j, c) in enumerate(ts):
            neg = c < 0
            mag = -c if neg else c
            if j == 0:
                body = str(mag)
            else:
                sym = "zeta" if j == 1 else f"zeta^{j}"
                body = sym if mag == 1 else f"{mag}*{sym}"
            if idx == 0:
                out.append(f"-{body}" if neg else body)
            else:
                out.append(f" - {body}" if neg else f" + {body}")
        return "".join(out)

    def __repr__(self):
        return str(self)


def cyclotomic_polynomial(m: int):
    """Phi_m as a polynomial over Q."""
    from .poly import Poly

    return Poly(RATIONALS, cyclotomic_coeffs(m))
