"""Exact scalars, the rationals Q and the cyclotomic extensions Q(zeta_m),
and the integer kernel that does the arithmetic of scalars and polynomials.

An element of Q(zeta_m) is given by its coordinates with respect to the
power basis {zeta^j : 0 <= j < phi(m)}, reduced modulo the m-th cyclotomic
polynomial.  m = 1 is identified with Q itself (phi = 1).

The kernel holds rationals as the pair (num, den): Python ints over one
positive common denominator, in lowest terms, so equal values are equal
pairs.  A scalar is one row of phi(m) coordinates; a polynomial is a flat
tuple of such rows, one per coefficient.  One class, _Pair, builds both
from kernel results and gives both +, -, *, ==, hash and embed; FieldElement and
poly.Poly add only what a scalar or a polynomial has of its own.  Printers
read the rows and write ints through decimal, which has no digit limit.

Every product is one integer convolution.  Two operands of 32 entries or
more that share a step s > 1, each nonzero only at o, o + s, o + 2s, ...,
convolve every s-th entry: sigma^k(h) lies in h K[h^s] when s divides
i - 1 for every power h^i of f, as 2 does for h^3 + h.  Long, dense
operands of comparable bit size go through Kronecker substitution: packed
into one decimal number each and multiplied by libmpdec, whose
number-theoretic transform makes the product subquadratic.  The rest, and
every product when decimal is the pure-Python _pydecimal, take the
schoolbook sweep.

The degree cap lives here too, in a context variable, as decimal's context
does.  It bounds the field degree phi(m), checked when FieldDesc.degree is
first computed, and in _mul the degree of every product of coefficient rows.

_Value, the base of FieldDesc and of the package's other small immutable
records (the parser's tree nodes, the structure and morphism reports), is
here because every other module imports this one.  They are plain slotted
classes, so a process that imports gha compiles no generated methods and
loads neither dataclasses nor the inspect module it imports.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice

from .errors import DegreeCapExceeded, FieldMismatch, NoEmbedding, UnsupportedCase

try:
    from _decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context
except ImportError:  # decimal is then the pure-Python _pydecimal, which multiplies by schoolbook
    _KRONECKER = None
else:  # exact integer arithmetic in libmpdec, apart from the thread's decimal context
    _KRONECKER = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)

_DEGREE_CAP = ContextVar("gha_degree_cap", default=100_000)


def degree_cap() -> int:
    return _DEGREE_CAP.get()


def set_degree_cap(cap: int) -> None:
    """Set the guard on polynomial degrees and field degrees phi(m) in the current context."""
    if cap < 1:
        raise ValueError("degree cap must be positive")
    _DEGREE_CAP.set(cap)


def check_degree(n, e: int = 1) -> None:
    """Raise DegreeCapExceeded if a result of degree n^e would pass the cap."""
    cap = _DEGREE_CAP.get()
    if e != 1:
        if n > 1 and e > cap.bit_length():  # then n^e >= 2^e > cap: n^e is not formed
            raise DegreeCapExceeded(f"result degree {n}^{_int_text(e)} exceeds the cap {cap}")
        n **= e
    if n > cap:  # false for the zero polynomial's degree, -inf
        raise DegreeCapExceeded(f"result degree {_int_text(n)} exceeds the cap {cap}")


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
    """Euler's totient function, m times (1 - 1/p) over the primes p of m."""
    result, p = m, 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    return result - result // m if m > 1 else result


def signed_sum(pieces: list[tuple[int, str]]) -> str:
    """Join (sign, text) pairs as 'a - b + c'."""
    (sign, text), rest = pieces[0], pieces[1:]
    return ("-" if sign < 0 else "") + text + "".join(
        f" - {t}" if s < 0 else f" + {t}" for s, t in rest)


def monomial(coeff: str, var: str, j: int) -> str:
    """coeff * var^j as text, leaving out var^0 and a coefficient of 1."""
    if j == 0:
        return coeff
    pv = var if j == 1 else f"{var}^{j}"
    return pv if coeff == "1" else f"{coeff}*{pv}"


def _int_text(n: int) -> str:
    """The decimal digits of n; unlike str(n), of any length."""
    return str(Decimal(n))


_CHUNK = 600  # digits; sys.set_int_max_str_digits accepts no limit below 640
_CHUNK_SCALE = 10 ** _CHUNK


def _text_int(digits: str) -> int:
    """The int a string of decimal digits spells; unlike int(digits), of any length.

    Read _CHUNK digits at a time, which no digit limit refuses: a fifth of
    the time int(Decimal(digits)) takes at 1,500 digits.
    """
    head = len(digits) % _CHUNK or _CHUNK
    value = int(digits[:head])
    for i in range(head, len(digits), _CHUNK):
        value = value * _CHUNK_SCALE + int(digits[i:i + _CHUNK])
    return value


def _ratio_text(n: int, d: int) -> str:
    """n/d for d > 0 in lowest terms, as str(Fraction(n, d)) writes it."""
    g = math.gcd(n, d)
    return _int_text(n // g) if d == g else f"{_int_text(n // g)}/{_int_text(d // g)}"


def _row_terms(row, den: int) -> list[tuple[int, str]]:
    """(sign, magnitude text) of each nonzero coordinate of row / den, highest zeta power first."""
    out = []
    for j in reversed(list(compress(range(len(row)), row))):
        c = row[j]
        out.append((-1 if c < 0 else 1, monomial(_ratio_text(abs(c), den), "zeta", j)))
    return out


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


# --- the coefficient kernel ------------------------------------------------


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms of anything Fraction() takes."""
    return (value if isinstance(value, (int, Fraction)) else Fraction(value)).as_integer_ratio()


def _join(rows) -> tuple[list[int], int]:
    """Rows (num, den), concatenated as integer numerators over their least common denominator."""
    den = math.lcm(*[d for _, d in rows])
    return [v * (den // d) for num, d in rows for v in num], den


def _lowest(num: list[int], den: int) -> tuple[list[int], int]:
    """Divide numerators and denominator by their gcd, leaving the denominator positive."""
    g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
    return ([v // g for v in num], den // g) if g != 1 else (num, den)


def _trim(num: list[int], phi: int) -> list[int]:
    """Drop trailing rows that are zero."""
    end = len(num)
    while end and not any(num[end - phi:end]):
        end -= phi
    return num[:end]


def _add(a: list[int], da: int, b: list[int], db: int) -> tuple[list[int], int]:
    """a/da + b/db over the least common denominator, not yet in lowest terms; a new list."""
    den = da if da == db else math.lcm(da, db)
    sa, sb = den // da, den // db
    if len(a) < len(b):
        a, b, sa, sb = b, a, sb, sa
    out = list(a) if sa == 1 else [v * sa for v in a]
    if sb != 1:
        b = [v * sb for v in b]
    out[:len(b)] = [x + y for x, y in zip(out, b)]
    return out, den


def _convolve(a: list[int], b: list[int]) -> list[int]:
    """Integer convolution.

    When both operands have 32 entries or more and each lies in t^o K[t^s]
    for one common step s > 1 (its nonzero entries at o, o + s, o + 2s, ...),
    the convolution of every s-th entry, written back at stride s.  Then by
    Kronecker substitution (_convolve_ks) where _kronecker_pays finds it
    cheaper, from both lengths, their nonzero entries and their bit sizes;
    otherwise one slice-wise sweep of the longer operand per nonzero entry
    of the shorter.  The sweep also serves when decimal has no libmpdec.
    Shorter operands go straight to the sweep: there neither check pays.
    """
    if len(a) < len(b):
        a, b = b, a
    if len(b) >= 32:
        # the first three nonzero positions of each: a mixed operand shows step 1 here
        heads = [list(islice(compress(range(len(v)), v), 3)) for v in (a, b)]
        if all(heads):  # neither is all zero
            (oa, *_), (ob, *_) = heads
            s = math.gcd(*[p - h[0] for h in heads for p in h[1:]])
            if s > 1:
                s = math.gcd(s, *compress(range(-oa, len(a) - oa), a),
                             *compress(range(-ob, len(b) - ob), b))
            if s > 1:
                short = _convolve(a[oa::s], b[ob::s])
                out = [0] * (len(a) + len(b) - 1)
                out[oa + ob:oa + ob + s * len(short):s] = short
                return out
        if _KRONECKER is not None and _kronecker_pays(a, b):
            return _convolve_ks(a, b)
    n = len(a)
    out = [0] * (n + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            out[j:j + n] = [s + y * x for s, x in zip(out[j:j + n], a)]
    return out


def _bits(v: list[int]) -> int:
    """Bit length of the largest |entry| of a nonempty v."""
    return max(max(v), -min(v)).bit_length()


def _slot_digits(ba: int, bb: int, shorter: int) -> int:
    """Digits w with 10^w > 2^(ba + bb + bit_length(shorter) + 1), twice any entry's bound.

    An entry of a product of ba-bit by bb-bit entries sums at most shorter
    terms; 0.30103 > log10(2).
    """
    return (ba + bb + shorter.bit_length() + 1) * 30103 // 100000 + 1


def _kronecker_pays(a: list[int], b: list[int]) -> bool:
    """Whether _convolve_ks is cheaper than the schoolbook sweep, for len(a) >= len(b).

    A cost model fitted on 1,050 products of sigma^k(h) rows and random rows
    and on the 2,084 products of 16 or more entries in one round of each
    benchmark workload (CPython 3.11, libmpdec 2.5.1), in units of about
    1.3 ns.  The sweep takes nb * (71 la + na Da Db): it visits la slots for
    each of the nb nonzero entries of b and multiplies the na nonzero entries
    of a, Da and Db 30-bit int digits at most.  The substitution takes
    39 (la + lb)(w + 22), w its slot width: it pays the widest slot for every
    entry of both, so it loses on sparse operands and on bit-unbalanced ones
    (a long, wide Horner accumulator times a short, narrow inner polynomial).
    With fewer than 32 nonzero entries in b it wins too rarely to scan for;
    _convolve calls it only when b has 32 entries or more.
    """
    la, lb = len(a), len(b)
    if (nb := lb - b.count(0)) < 32:
        return False
    ba, bb = _bits(a), _bits(b)
    sweep = nb * (71 * la + (la - a.count(0)) * max(1, (ba + 29) // 30) * max(1, (bb + 29) // 30))
    return 39 * (la + lb) * (_slot_digits(ba, bb, lb) + 22) < sweep


def _convolve_ks(a: list[int], b: list[int]) -> list[int]:
    """Integer convolution by Kronecker substitution into one libmpdec product.

    Each list is read as the slots of one decimal number, w digits a slot,
    its positive and its negative entries packed apart and subtracted.
    w leaves room for twice the largest |entry| of the result, so after
    5*10^(w-1) is added to every slot of the product, each slot holds
    entry + 5*10^(w-1) in [0, 10^w) and is read off the digit string.
    Ints become text through decimal and text becomes ints in chunks below
    any digit limit, so no coefficient size is refused.
    """
    w = _slot_digits(_bits(a), _bits(b), min(len(a), len(b)))
    zero, ctx = "0" * w, _KRONECKER

    def digits(v: list[int], sign: int) -> str:
        return "".join(_int_text(sign * c).zfill(w) if sign * c > 0 else zero for c in reversed(v))

    def packed(v: list[int]):
        pos = ctx.create_decimal(digits(v, 1))
        return ctx.subtract(pos, ctx.create_decimal(digits(v, -1))) if min(v) < 0 else pos

    n = len(a) + len(b) - 1
    offset = 5 * 10 ** (w - 1)
    text = str(ctx.add(ctx.multiply(packed(a), packed(b)), ctx.create_decimal(("5" + zero[1:]) * n)))
    text = text.zfill(n * w)
    return [_text_int(text[i - w:i]) - offset for i in range(n * w, 0, -w)]


def _restride(num: list[int], old: int, new: int, rows: int) -> list[int]:
    """The first rows rows of num, moved from stride old to stride new (cut or zero-padded)."""
    if old == new:
        return num[:rows * new]
    out = [0] * (rows * new)
    for j in range(min(old, new)):
        out[j::new] = num[j:rows * old:old]
    return out


def _reduce(num: list[int], field: "FieldDesc", stride: int) -> list[int]:
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


def _top(num: list[int], phi: int) -> int:
    """The highest zeta power with a nonzero coordinate in some row of num; -1 if none."""
    if any(num[phi - 1::phi]):  # a row dense to the top: most operands, skip the scan
        return phi - 1
    top = -1
    for s in range(0, len(num), phi):
        if any(num[s + top + 1:s + phi]):  # this row reaches above top
            top = bytes(map(bool, num[s:s + phi])).rfind(1)
    return top


def _mul(a: list[int], b: list[int], field: "FieldDesc") -> list[int]:
    """Product of packed integer rows: one 1-D convolution, then reduction mod Phi_m.

    Rows are spread to stride ha + hb + 1 first, ha and hb the highest zeta
    powers present in a and b, so that the powers of a product of two rows
    never reach the next row; only a stride above phi needs reducing.
    DegreeCapExceeded if the product's degree would pass the cap.
    """
    if not a or not b:
        return []
    phi = field.degree
    check_degree((len(a) + len(b)) // phi - 2)
    if phi == 1:
        return _convolve(a, b)
    stride = max(_top(a, phi) + _top(b, phi) + 1, 1)
    wide = [_restride(v, phi, stride, len(v) // phi) for v in (a, b)]
    return _reduce(_convolve(*wide), field, stride)


def _divmod(a: list[int], da: int, b: list[int], db: int, field: "FieldDesc"):
    """((q, dq), (r, dr)) with a/da = (q/dq)(b/db) + r/dr; b is trimmed and nonzero.

    b is made monic first, as M/e with integer rows and lead row (e, 0, ...).
    Scaling a by e^k up front (k quotient rows) keeps every step an exact
    integer division by e, with no rescaling of the remainder.
    """
    phi = field.degree
    if len(a) < len(b):
        return ([], 1), (a, da)
    inv, dinv = _inverse(b[-phi:], db, field)
    mon, e = _lowest(_mul(b, inv, field), db * dinv)
    k = (len(a) - len(b)) // phi + 1
    rem = [v * e ** k for v in a]
    quot = [0] * (k * phi)
    for s in range(k * phi - phi, -1, -phi):
        top = s + len(b) - phi
        q = [v // e for v in rem[top:top + phi]]
        if any(q):
            quot[s:s + phi] = q
            sub = _mul(q, mon, field)
            rem[s:s + len(sub)] = [x - y for x, y in zip(rem[s:s + len(sub)], sub)]
    # e^k a = quot * mon + rem; the quotient by b itself is quot * lc(b)^-1
    scale = e ** (k - 1) * da
    q = _lowest(_mul(quot, inv, field), scale * dinv)
    r = _lowest(_trim(rem[:len(b) - phi], phi), scale * e)
    return q, r


def _inverse(a: list[int], da: int, field: "FieldDesc") -> tuple[list[int], int]:
    """The inverse of the row a/da, by the extended Euclidean algorithm mod Phi_m.

    Keeps r_i = s_i*Phi_m + t_i*a over Q; Phi_m is irreducible, so the loop
    ends at a nonzero constant r_1 and t_1 / r_1 is the inverse.
    """
    r0, d0 = list(field._cyclotomic), 1
    r1, d1 = _trim(list(a), 1), da
    if not r1:
        raise ZeroDivisionError("inversion of zero field element")
    t0, e0, t1, e1 = [], 1, [1], 1
    while len(r1) > 1:
        (q, dq), (r, dr) = _divmod(r0, d0, r1, d1, RATIONALS)
        r0, d0, r1, d1 = r1, d1, r, dr
        qt = _mul(q, t1, RATIONALS)
        t0, e0, (t1, e1) = t1, e1, _lowest(*_add(t0, e0, [-v for v in qt], dq * e1))
    num = [v * d1 for v in _trim(t1, 1)]
    return _lowest(num + [0] * (field.degree - len(num)), e1 * r1[0])


def _cyclotomic_ints(m: int) -> tuple[int, ...]:
    """Ascending integer coefficients of Phi_m.

    From Phi_1 = t - 1, one prime p of m at a time: Phi_(np)(t) is
    Phi_n(t^p) when p divides n, and Phi_n(t^p) / Phi_n(t) when it does not.
    """
    if m < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    num, n = [-1, 1], 1
    while n < m:
        p = divisors(m // n)[1]  # the least prime factor of m / n
        up = [0] * ((len(num) - 1) * p + 1)
        up[::p] = num
        num = up if n % p == 0 else _divmod(up, 1, num, 1, RATIONALS)[0][0]
        n *= p
    return tuple(num)


def cyclotomic_coeffs(m: int) -> tuple[Fraction, ...]:
    """Ascending coefficients of the m-th cyclotomic polynomial Phi_m."""
    return tuple(Fraction(c) for c in _cyclotomic_ints(m))


_setattr = object.__setattr__


class _Value:
    """An immutable value: its fields, named in order by __match_args__, live in __slots__.

    A subclass sets them in its own positional __init__ through _setattr;
    after that, assignment raises AttributeError.  Equality goes by class
    and field values, hash by field values, and repr reads as a dataclass's;
    copy and pickle call the class on the field values.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self.__match_args__, self._values()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, self._values()


class FieldDesc(_Value):
    """Q (m = 1) or the cyclotomic field Q(zeta_m); it holds phi(m) and Phi_m, once computed."""

    __slots__ = ("m", "__dict__")  # the __dict__ holds the cached degree and Phi_m
    __match_args__ = ("m",)

    def __init__(self, m: int = 1):
        if m < 1:
            raise ValueError("cyclotomic index must be >= 1")
        _setattr(self, "m", m)

    def __eq__(self, other):  # hot: Poly.__init__ checks each coefficient's field, most often self
        if other.__class__ is not FieldDesc:
            return NotImplemented
        return self is other or self.m == other.m

    def __hash__(self):
        return hash((self.m,))

    @property
    def is_rational(self) -> bool:
        return self.m == 1

    @cached_property
    def degree(self) -> int:
        """phi(m), cached; DegreeCapExceeded past the cap in force when first computed."""
        cap = _DEGREE_CAP.get()
        if self.m > 2 * cap * cap:  # phi(m) >= sqrt(m/2) > cap, no need to factor m
            raise DegreeCapExceeded(f"field degree phi({self.m}) exceeds the cap {cap}")
        phi = euler_phi(self.m)
        if phi > cap:
            raise DegreeCapExceeded(f"field degree phi({self.m}) = {phi} exceeds the cap {cap}")
        return phi

    _cyclotomic = cached_property(lambda self: _cyclotomic_ints(self.m))  # Phi_m's ascending ints

    def embeds_into(self, other: "FieldDesc") -> bool:
        return other.m % self.m == 0

    def join(self, other: "FieldDesc") -> "FieldDesc":
        """Smallest common extension, Q(zeta_lcm)."""
        return FieldDesc(math.lcm(self.m, other.m))

    def __str__(self):
        return "Q" if self.m == 1 else f"Q(zeta_{self.m})"


RATIONALS = FieldDesc(1)


class _Pair:
    """A value stored as the kernel pair (num, den) over `field`, with its ring operators.

    A subclass gives `_canonical(num, phi)`, the canonical form of its rows,
    and `_lift(value)`, a plain operand as a value of its class (else None).
    """

    __slots__ = ("field", "num", "den")

    def _set(self, field: FieldDesc, num: list[int], den: int) -> None:
        num, den = _lowest(self._canonical(num, field.degree), den)
        self.field = field
        self.num = tuple(num)
        self.den = den

    @classmethod
    def _from_ints(cls, field: FieldDesc, num, den: int):
        """The value num / den from kernel rows, brought to canonical form."""
        v = cls.__new__(cls)
        v._set(field, num, den)
        return v

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    def __bool__(self) -> bool:
        return not self.is_zero

    def _coerce(self, other):
        if isinstance(other, type(self)):
            if other.field != self.field:
                raise FieldMismatch(f"cannot combine {self.field} with {other.field}")
            return other
        return self._lift(other)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._from_ints(self.field, *_add(self.num, self.den, o.num, o.den))

    __radd__ = __add__

    def __neg__(self):
        return self._from_ints(self.field, [-v for v in self.num], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._from_ints(self.field, *_add(self.num, self.den, [-v for v in o.num], o.den))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._from_ints(self.field, _mul(self.num, o.num, self.field), self.den * o.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.field == other.field and self.den == other.den and self.num == other.num

    def embed(self, target: FieldDesc):
        """Image under zeta_m -> zeta_M^(M/m), for m | M; all rows go through one _reduce."""
        if target == self.field:
            return self
        if not self.field.embeds_into(target):
            raise NoEmbedding(f"{self.field} does not embed into {target}")
        phi, step = self.field.degree, target.m // self.field.m
        stride = (phi - 1) * step + 1
        row = [0] * (len(self.num) // phi * stride)
        for j in range(phi):
            row[j * step::stride] = self.num[j::phi]
        return self._from_ints(target, _reduce(row, target, stride), self.den)

    def __hash__(self):
        return hash((self.field, self.num, self.den))


class FieldElement(_Pair):
    """An exact scalar reduced mod Phi_m; immutable and hashable.

    Built from phi(m) exact coordinates (anything Fraction() takes) and
    stored as the kernel pair of one row.  It equals, and hashes as, the
    int or Fraction of the same value.
    """

    __slots__ = ()

    def __init__(self, desc: FieldDesc, coords):
        if len(coords) != desc.degree:
            raise ValueError(
                f"expected {desc.degree} coordinates for {desc}, "
                f"got {len(coords)}"
            )
        if len(coords) == 1:  # a scalar of Q: its one ratio is the pair
            n, den = _ratio(coords[0])
            num = (n,)
        else:
            num, den = _join([((n,), d) for n, d in map(_ratio, coords)])
        self.field, self.num, self.den = desc, tuple(num), den  # lowest terms, as each ratio is

    _canonical = staticmethod(lambda num, phi: num)  # one row: nothing to trim

    def _lift(self, value):
        if isinstance(value, (int, Fraction)):
            return FieldElement.rational(value, self.field)
        return None

    desc = property(lambda self: self.field, doc="The field, under its older name.")

    # --- construction -------------------------------------------------
    @staticmethod
    def rational(value, desc: FieldDesc = RATIONALS) -> "FieldElement":
        n, d = _ratio(value)
        return FieldElement._from_ints(desc, (n,) + (0,) * (desc.degree - 1), d)

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
        row = [0] * max(e + 1, desc.degree)
        row[e] = 1
        return FieldElement._from_ints(desc, _reduce(row, desc, len(row)), 1)

    # --- predicates ----------------------------------------------------
    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(v, self.den) for v in self.num)

    @property
    def is_rational_value(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        """The value as a rational number; error when not rational-valued."""
        if not self.is_rational_value:
            raise UnsupportedCase(f"{self} is not a rational number")
        return Fraction(self.num[0], self.den)

    # --- arithmetic ----------------------------------------------------
    def inverse(self) -> "FieldElement":
        """Multiplicative inverse, by the extended Euclidean algorithm mod Phi_m."""
        return FieldElement._from_ints(self.field, *_inverse(self.num, self.den, self.field))

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
        return power(self, e, FieldElement.one(self.field))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = FieldElement.rational(other, self.field)
        return _Pair.__eq__(self, other)

    def __hash__(self):
        if self.is_rational_value:
            return hash(Fraction(self.num[0], self.den))
        return _Pair.__hash__(self)

    # --- display --------------------------------------------------------
    def __str__(self):
        terms = _row_terms(self.num, self.den)
        return signed_sum(terms) if terms else "0"

    def __repr__(self):
        return str(self)


def cyclotomic_polynomial(m: int):
    """Phi_m as a polynomial over Q."""
    from .poly import Poly

    return Poly(RATIONALS, cyclotomic_coeffs(m))
