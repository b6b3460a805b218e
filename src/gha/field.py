"""Exact scalars, the rationals Q and the cyclotomic extensions Q(zeta_m),
and the integer kernel that does the arithmetic of scalars and polynomials.

An element of Q(zeta_m) is given by its coordinates with respect to the
power basis {zeta^j : 0 <= j < phi(m)}, reduced modulo the m-th cyclotomic
polynomial: a power e >= p folds onto e - p, as zeta^m = 1 (p = m) for odd
m and zeta^(m/2) = -1 (p = m/2) for even m, and only the powers left in
[phi, p) go through the terms of Phi_m.  m = 1 is identified with Q
itself (phi = 1).

The kernel holds rationals as the pair (num, den): Python ints over one
positive common denominator, in lowest terms, so equal values are equal
pairs.  A scalar is one row of phi(m) coordinates; a polynomial is a flat
tuple of such rows, one per coefficient.  One class, _Pair, builds both
from kernel results and gives both ==, hash and embed; its base _Ring,
which core.AlgebraElement shares, gives all three +, -, * and truth from
five hooks.  FieldElement and poly.Poly add only what a scalar or a
polynomial has of its own.  Printers read the rows and write ints _CHUNK
digits at a time, below any digit limit.

Every product but one by the row 1, which _mul copies, is an integer
convolution.  Of two operands of 32 entries or more, one that has a step
s > 1, nonzero only at o, o + s, o + 2s, ..., is enough: it is taken
every s-th entry, and the other is split into its s residue classes, each
convolved with it apart.  sigma^k(h) lies in h K[h^s] when s divides
i - 1 for every power h^i of f, as 2 does for h^3 + h.  A square stays a
square: its one operand is spread, compressed and packed once.  A
convolution then takes one of three paths.
Packed words: when every entry of the product fits a signed 64-bit word,
each operand becomes one int through struct-packed machine words and the
two are multiplied once (binary Kronecker substitution), all in C; most
products over Q(zeta_m) of small coordinates go this way.  Decimal: long,
dense operands of comparable bit size, too wide for a word, are packed
into one decimal number each, a negative entry borrowing from the next
slot, and multiplied by libmpdec, whose
number-theoretic transform makes the product subquadratic; with the
pure-Python _pydecimal this path is left out.  The schoolbook sweep:
short operands, and wide ones where decimal does not pay.  One bound,
the bits that hold twice any entry of the product, chooses between the
two packed paths and sizes the slots of both.

The degree cap lives here too, in a context variable, as decimal's context
does.  It bounds the field degree phi(m), checked when FieldDesc.degree is
first computed, and in _mul the degree of every product of coefficient rows.
It also bounds the work of factoring m: _factor, the one trial division of
the package, stops once phi(m) > cap is certain, so it takes at most about
sqrt(cap) trial divisions.

_Value, the base of FieldDesc and of the package's other small immutable
records (the parser's tree nodes, the structure and morphism reports), is
here because every other module imports this one.  They are plain slotted
classes with constructors generated from their fields, so a process that
imports gha loads neither dataclasses nor the inspect module it imports.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from fractions import Fraction
from functools import cached_property
from itertools import compress, islice
from struct import pack, unpack

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
    if not isinstance(cap, int) or isinstance(cap, bool):
        raise TypeError(f"degree cap must be an int, not {type(cap).__name__}")
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


def _factor(m: int, cap: int | None = None) -> list[tuple[int, int]] | None:
    """The prime powers of m, ascending, as pairs (p, e), by one trial division.

    With a cap, None as soon as phi(m) > cap is certain: at once when
    m > 2 cap^2, since phi(m) >= sqrt(m/2), and else at p = 64.  The rest r
    of m then has k <= bits(r) // 6 primes, each 67 or more, so
    phi(m) >= phi(m / r) * r * (64 - k) / 64 by Bernoulli's inequality.  Past
    that check r is at most about cap, so the loop makes at most about
    sqrt(cap) trial divisions.
    """
    if cap is not None and m > 2 * cap * cap:
        return None
    out, p = [], 2
    while p * p <= m:
        if p == 64 and cap is not None and 64 * cap < math.prod(
                (q - 1) * q ** (e - 1) for q, e in out) * m * (64 - m.bit_length() // 6):
            return None
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1
    return out + [(m, 1)] if m > 1 else out


def divisors(m: int) -> list[int]:
    """Positive divisors of m, ascending."""
    out = [1]
    for p, e in _factor(m):
        out = [d * p ** i for d in out for i in range(e + 1)]
    return sorted(out)


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
    """The decimal digits of n; unlike str(n), of any length, written _CHUNK digits at a time."""
    if 0 <= n < _CHUNK_SCALE:
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    pieces = []
    while n >= _CHUNK_SCALE:
        n, low = divmod(n, _CHUNK_SCALE)
        pieces.append(str(low).zfill(_CHUNK))
    return str(n) + "".join(reversed(pieces))


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
    """base^e for e >= 0 by square-and-multiply from e's lowest set bit; one is never multiplied."""
    result = None
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return one if result is None else result


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
    """Integer convolution, by one of three paths; a square, b is a, packs and multiplies once.

    When both operands have 32 entries or more and one of them lies in
    t^o K[t^s] for a step s > 1 (its nonzero entries at o, o + s, o + 2s,
    ...), the operand of the larger step is taken every s-th entry and the
    other is split into its s residue classes, each from its first nonzero
    entry: each nonzero class is convolved once with the stepped one, the
    longer of the two first, and written back at stride s from its own
    offset.  Two operands of one step leave one nonzero class, and a square
    one call.
    Otherwise, with a shorter operand of _WORD_LENGTH entries or more,
    need, the bits that hold twice any entry of the product, decides:
    packed words (_convolve_words) when need < 64, so every entry fits a
    signed 64-bit word, and for wider products decimal (_convolve_ks,
    libmpdec's transform) where _kronecker_pays finds it cheaper than the
    sweep.  The rest, shorter operands among them, take the schoolbook
    sweep: one slice of a per nonzero entry of b, so _mul puts second the
    operand whose walk is cheaper, over Q the shorter and over Q(zeta_m)
    the sparser.  Without libmpdec, only decimal is left out.
    """
    lb = min(len(a), len(b))
    if lb >= 32 and (sa := _step(a)) and (sb := _step(b)):
        (o, s), stepped, other = (sa, a, b) if sa[1] >= sb[1] else (sb, b, a)
        if s > 1:
            short = stepped[o::s]
            out = [0] * (len(a) + len(b) - 1)
            for q, part in [(o, short)] if other is stepped else _classes(other, s):
                c = _convolve(short, part) if len(short) >= len(part) else _convolve(part, short)
                out[o + q:o + q + s * len(c):s] = c
            return out
    if lb >= _WORD_LENGTH:
        ba, bb = _bits(a), _bits(b)
        need = ba + bb + lb.bit_length() + 1  # bits that hold twice any entry of the product
        if need < 64:
            return _convolve_words(a, b, need)
        if _KRONECKER is not None and _kronecker_pays(a, b, ba, bb, need):
            return _convolve_ks(a, b, need)
    n = len(a)
    out = [0] * (n + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            out[j:j + n] = [s + y * x for s, x in zip(out[j:j + n], a)]
    return out


def _step(v: list[int]) -> tuple[int, int] | None:
    """(o, s): v's first nonzero entry and the largest s with v in t^o K[t^s]; None if v is zero.

    s is 0 for a single nonzero entry, and 1 at once when the first three
    nonzero entries show no common step, as they do in a mixed operand.
    """
    head = list(islice(compress(range(len(v)), v), 3))
    if not head:
        return None
    o = head[0]
    s = math.gcd(*[p - o for p in head[1:]])
    if s > 1:
        s = math.gcd(s, *compress(range(-o, len(v) - o), v))
    return o, s


def _classes(v: list[int], s: int) -> list[tuple[int, list[int]]]:
    """(q, v[q::s]) for each residue class of v mod s that is not zero, q its first nonzero entry."""
    out = []
    for r in range(s):
        part = v[r::s]
        first = next(compress(range(len(part)), part), None)
        if first is not None:
            out.append((r + s * first, part[first:]))
    return out


_WORD_LENGTH = 7  # shorter operands from this length on are packed in words; below, the sweep is faster


# by need.bit_length(): (struct code, width in bits, one little-endian slot with only its top
# bit set) of the narrowest word of 2^i bits or more, which exceeds need bits
_WORDS = tuple((code, width, (1 << (width - 1)).to_bytes(width // 8, "little"))
               for code, width in [("b", 8)] * 4 + [("h", 16), ("i", 32), ("q", 64)])


def _convolve_words(a: list[int], b: list[int], need: int) -> list[int]:
    """Integer convolution by binary Kronecker substitution into one int product.

    Each list is packed by struct into little-endian slots of the narrowest
    machine word above need bits, and the bytes are read as one int; a
    negative entry is stored in two's complement, so twice the slot's top
    bit, where set, is taken off.  Adding the top bit S of every slot to the
    product puts each slot, entry + 2^(width - 1), in [0, 2^width); flipping
    S back leaves the slots in two's complement, which struct reads.  Every
    step runs in C, and no coefficient becomes text.  A square, b is a,
    is packed once and multiplied by itself.
    """
    code, width, top = _WORDS[need.bit_length()]
    n = len(a) + len(b) - 1
    mask = int.from_bytes(top * n, "little")  # S over the product's n slots, and so over each operand's

    def packed(v):
        u = int.from_bytes(pack(f"<{len(v)}{code}", *v), "little")
        return u - ((u & mask) << 1)

    ua = packed(a)
    product = ua * (ua if b is a else packed(b))
    return list(unpack(f"<{n}{code}", ((product + mask) ^ mask).to_bytes(n * width // 8, "little")))


def _bits(v: list[int]) -> int:
    """Bit length of the largest |entry| of a nonempty v."""
    return max(max(v), -min(v)).bit_length()


def _slot_digits(need: int) -> int:
    """Digits w with 10^w > 2^need, the bound _convolve puts on twice any entry; 0.30103 > log10(2)."""
    return need * 30103 // 100000 + 1


def _kronecker_pays(a: list[int], b: list[int], ba: int, bb: int, need: int) -> bool:
    """Whether _convolve_ks is cheaper than the schoolbook sweep, a and b in either order.

    ba and bb are _bits(a) and _bits(b), and need the product's bound, all
    of which _convolve has computed; it asks only for products too wide for
    a 64-bit slot, which packed words leave.
    A cost model fitted on 1,050 products of sigma^k(h) rows and random rows
    and on the 2,084 products of 16 or more entries in one round of each
    benchmark workload (CPython 3.11, libmpdec 2.5.1), in units of about
    1.3 ns.  The sweep takes nb * (71 la + na Da Db): it visits la slots for
    each of the nb nonzero entries of b and multiplies the na nonzero entries
    of a, Da and Db 30-bit int digits at most.  The substitution takes
    39 (la + lb)(w + 22), w its slot width: it pays the widest slot for every
    entry of both, so it loses on sparse operands and on bit-unbalanced ones
    (a long sigma^p(g) of wide coefficients times a short, narrow factor w,
    as core.multiply forms).
    With fewer than 32 nonzero entries in b it wins too rarely to scan for.
    """
    if len(a) < len(b):
        a, b, ba, bb = b, a, bb, ba
    la, lb = len(a), len(b)
    if (nb := lb - b.count(0)) < 32:
        return False
    sweep = nb * (71 * la + (la - a.count(0)) * max(1, (ba + 29) // 30) * max(1, (bb + 29) // 30))
    return 39 * (la + lb) * (_slot_digits(need) + 22) < sweep


def _convolve_ks(a: list[int], b: list[int], need: int) -> list[int]:
    """Integer convolution by Kronecker substitution into one libmpdec product.

    Each list is read as the slots of one decimal number, w digits a slot,
    packed by one create_decimal: a negative entry is written as 10^w + entry
    and borrows 1 from the next slot, and a borrow out of the top slot is
    taken off as 10^(w * len(v)).  A square, b is a, is packed once and
    multiplied by itself.  w digits hold the need bits that _convolve
    computed as room for twice the largest |entry| of the result, so each
    entry lies in [-10^w / 2, 10^w / 2) and the product's slots are read
    back from its digits, lowest first, with a carry: a slot of 10^w / 2 or
    more is slot - 10^w and carries 1 into the next.  A negative product is
    read from its magnitude and every entry negated.
    Ints become text through decimal and text becomes ints in chunks below
    any digit limit, so no coefficient size is refused.
    """
    w = _slot_digits(need)
    zero, ctx, scale = "0" * w, _KRONECKER, 10 ** w

    def packed(v: list[int]):
        slots, borrow = [], 0
        for c in v:
            c -= borrow
            borrow = c < 0
            slots.append(_int_text(c + scale) if borrow else _int_text(c).zfill(w) if c else zero)
        digits = "".join(reversed(slots))
        del slots  # not held beside the digits and the number they make
        number = ctx.create_decimal(digits)
        return ctx.subtract(number, ctx.scaleb(1, w * len(v))) if borrow else number

    # a square packs once; neither operand outlives the product
    text = str(ctx.multiply(*([packed(a)] * 2 if b is a else [packed(a), packed(b)])))
    negative = text[0] == "-"
    half, carry, out = scale >> 1, 0, []
    for i in range(len(text), negative, -w):
        c = _text_int(text[max(i - w, negative):i]) + carry
        carry = c >= half
        out.append(c - scale if carry else c)
    if carry:
        out.append(1)
    out += [0] * (len(a) + len(b) - 1 - len(out))
    return [-c for c in out] if negative else out


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

    Top down, in two steps; any stride, and a last row shorter than the rest.
    Fold: zeta^p is 1 for odd m, p = m, and -1 for even m, p = m/2, so each
    power e >= p goes onto e - p with one add or subtract per row.  Cascade:
    each power left in [phi, p) is zeta^e = -sum c_t zeta^(e - phi + t),
    through the nonzero terms of Phi_m only.  A step writes lower powers only.
    """
    phi, m = field.degree, field.m
    if stride > phi:
        p, sign = (m, 1) if m & 1 else (m >> 1, -1)
        for e in range(stride - 1, p - 1, -1):
            for i in range(e, len(num), stride):
                num[i - p] += sign * num[i]
        terms = [(t, c) for t, c in enumerate(field._cyclotomic[:-1]) if c]
        for e in range(min(stride, p) - 1, phi - 1, -1):
            for i in range(e, len(num), stride):
                c = num[i]
                if c:
                    for t, q in terms:
                        num[i - phi + t] -= q * c
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
    """Product of packed integer rows, always a new list; the degree cap is checked first.

    A product by the row 1 (1, 0, ...) copies the other operand.  Any other
    convolves the rows spread to stride ha + hb + 1, ha and hb the highest
    zeta powers in a and b, so no power of a row product reaches the next
    row; only a stride above phi needs reducing mod Phi_m.  A square, b is
    a, is spread once, so that _convolve sees one operand twice.  The
    operand the sweep walks goes second: over Q the shorter, with no zero
    count, and over Q(zeta_m) the sparser spread row.
    """
    if not a or not b:
        return []
    phi = field.degree
    check_degree((len(a) + len(b)) // phi - 2)
    if len(b) == phi and b[0] == 1 and b.count(0) == phi - 1:
        return list(a)
    if len(a) == phi and a[0] == 1 and a.count(0) == phi - 1:
        return list(b)
    if phi == 1:
        return _convolve(a, b) if len(a) >= len(b) else _convolve(b, a)
    stride = max(_top(a, phi) + _top(b, phi) + 1, 1)
    wa = _restride(a, phi, stride, len(a) // phi)
    wb = wa if b is a else _restride(b, phi, stride, len(b) // phi)
    if (len(wb) - wb.count(0)) * (len(wa) + 1) > (len(wa) - wa.count(0)) * (len(wb) + 1):
        wa, wb = wb, wa  # a slice costs its entries and one step
    return _reduce(_convolve(wa, wb), field, stride)


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


def _cyclotomic_ints(powers: list[tuple[int, int]]) -> tuple[int, ...]:
    """Ascending integer coefficients of Phi_m, m given by its prime powers (p, e).

    From Phi_1 = t - 1, one distinct prime p of m at a time, Phi_(np)(t) =
    Phi_n(t^p) / Phi_n(t); at n = rad m, the product of those primes,
    Phi_m(t) = Phi_n(t^(m/n)).
    """
    num = [-1, 1]
    for p, _ in powers:
        up = [0] * ((len(num) - 1) * p + 1)
        up[::p] = num
        num = _divmod(up, 1, num, 1, RATIONALS)[0][0]
    step = math.prod(p ** (e - 1) for p, e in powers)  # m / rad m
    out = [0] * ((len(num) - 1) * step + 1)
    out[::step] = num
    return tuple(out)


_setattr = object.__setattr__


class _Value:
    """An immutable value: its fields, named in order by __match_args__, live in __slots__.

    A subclass that names its fields in its own __match_args__ and defines no
    __init__ gets one generated, as namedtuple does: the fields in order, each
    set through _setattr.  After that, assignment raises AttributeError.
    Equality goes by class and field values, hash by field values, and repr
    reads as a dataclass's; copy and pickle call the class on the field values.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if "__match_args__" in cls.__dict__ and "__init__" not in cls.__dict__:
            names = cls.__match_args__
            body = "".join(f"\n    _setattr(self, {name!r}, {name})" for name in names)
            source = f"def __init__(self, {', '.join(names)}):{body}"
            space = {}  # the filename names the class, for tracebacks and profiles
            exec(compile(source, f"<{cls.__module__}.{cls.__qualname__}.__init__>", "exec"),
                 {"_setattr": _setattr}, space)
            cls.__init__ = space["__init__"]

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

    __slots__ = ("m", "__dict__")  # the __dict__ holds the cached factors, degree and Phi_m
    __match_args__ = ("m",)

    def __init__(self, m: int = 1):
        if not isinstance(m, int) or isinstance(m, bool):
            raise TypeError(f"cyclotomic index must be an int, not {type(m).__name__}")
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
    def _factored(self) -> tuple[int, list[tuple[int, int]]]:
        """(phi(m), the prime powers of m), cached; DegreeCapExceeded past the
        cap in force when first computed.

        phi is a product over the prime powers of m, which _factor finds by
        trial division; it stops once phi(m) > cap is certain, so it takes
        at most about sqrt(cap) trial divisions.
        """
        cap = _DEGREE_CAP.get()
        powers = _factor(self.m, cap)
        if powers is None:
            raise DegreeCapExceeded(f"field degree phi({_int_text(self.m)}) exceeds the cap {cap}")
        phi = math.prod((p - 1) * p ** (e - 1) for p, e in powers)
        if phi > cap:
            raise DegreeCapExceeded(f"field degree phi({_int_text(self.m)}) = {phi} exceeds the cap {cap}")
        return phi, powers

    degree = cached_property(lambda self: self._factored[0])  # phi(m); DegreeCapExceeded past the cap
    _cyclotomic = cached_property(lambda self: _cyclotomic_ints(self._factored[1]))  # Phi_m's ascending ints

    def embeds_into(self, other: "FieldDesc") -> bool:
        return other.m % self.m == 0

    def join(self, other: "FieldDesc") -> "FieldDesc":
        """Smallest common extension, Q(zeta_lcm)."""
        return FieldDesc(math.lcm(self.m, other.m))

    def __str__(self):
        return "Q" if self.m == 1 else f"Q(zeta_{_int_text(self.m)})"


RATIONALS = FieldDesc(1)


class _Ring:
    """The ring operators +, -, * and truth, once for FieldElement, Poly and core.AlgebraElement.

    A subclass gives five hooks: `_coerce(other)`, the operand as a value of
    the subclass (None makes the operator return NotImplemented); `_plus(o)`
    and `_times(o)`, the sum and product of two such values; `__neg__`; and
    `is_zero`.  A reflected product is o._times(self): H(f) is not commutative.
    """

    __slots__ = ()

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._plus(o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._plus(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._plus(-self)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._times(o)

    def __rmul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._times(self)


class _Pair(_Ring):
    """A value stored as the kernel pair (num, den) over `field`.

    It gives the five hooks of _Ring, _coerce, _plus, _times, __neg__ and
    is_zero, on kernel rows.  A subclass gives `_canonical(num, phi)`, the
    canonical form of its rows, and `_lift(value)`, a plain operand as a
    value of its class (else None).
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

    def _coerce(self, other):
        if isinstance(other, type(self)):
            if other.field != self.field:
                raise FieldMismatch(f"cannot combine {self.field} with {other.field}")
            return other
        return self._lift(other)

    def _plus(self, o):
        return self._from_ints(self.field, *_add(self.num, self.den, o.num, o.den))

    def _times(self, o):
        return self._from_ints(self.field, _mul(self.num, o.num, self.field), self.den * o.den)

    def __neg__(self):
        return self._from_ints(self.field, [-v for v in self.num], self.den)

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
    """Phi_m as a polynomial over Q; DegreeCapExceeded when phi(m) passes the degree cap."""
    from .poly import Poly

    if m < 1:
        raise ValueError("cyclotomic index must be a positive integer")
    return Poly._from_ints(RATIONALS, list(FieldDesc(m)._cyclotomic), 1)
