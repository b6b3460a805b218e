"""Property tests of the integer coefficient kernel behind Poly and FieldElement.

Every operation is checked against a naive reference over tuples of
Fraction coordinates, written here and in helpers: schoolbook products
reduced by long division with Phi_m, whose coefficients are written out
by hand, so the reference shares no code with the package.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from gha import field, poly  # noqa: E402
from gha.core import AlgebraElement, Context  # noqa: E402
from gha.field import FieldDesc, FieldElement, _convolve_ks, _int_text, _text_int  # noqa: E402
from gha.parser import parse_element, parse_poly  # noqa: E402
from gha.poly import Poly, poly_gcd  # noqa: E402

from .helpers import PHI, digits, line_events, ref_mul, ref_reduce  # noqa: E402

FIELDS = sorted(PHI)

# --- the reference: scalars are tuples of phi Fractions, polynomials lists of them


def ref_zero(m):
    return (Fraction(0),) * (len(PHI[m]) - 1)


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_neg(a):
    return tuple(-x for x in a)


def ref_trim(m, p):
    p = list(p)
    while p and p[-1] == ref_zero(m):
        p.pop()
    return p


def ref_padd(m, p, q):
    n = max(len(p), len(q))
    p = list(p) + [ref_zero(m)] * (n - len(p))
    q = list(q) + [ref_zero(m)] * (n - len(q))
    return ref_trim(m, [ref_add(a, b) for a, b in zip(p, q)])


def ref_pmul(m, p, q):
    if not p or not q:
        return []
    out = [ref_zero(m)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = ref_add(out[i + j], ref_mul(m, a, b))
    return ref_trim(m, out)


def ref_const(m, a):
    return ref_trim(m, [a])


def ref_compose(m, p, q):
    acc = []
    for c in reversed(p):
        acc = ref_padd(m, ref_pmul(m, acc, q), [c])
    return acc


def ref_eval(m, p, x):
    acc = ref_zero(m)
    for c in reversed(p):
        acc = ref_add(ref_mul(m, acc, x), c)
    return acc


def ref_one(m):
    return (Fraction(1),) + ref_zero(m)[1:]


# --- strategies ----------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def scalar(draw, m):
    return tuple(draw(fractions) for _ in range(len(PHI[m]) - 1))


@st.composite
def low_scalar(draw, m):
    """A scalar whose zeta powers stop at a drawn top, often below phi - 1."""
    top = draw(st.integers(-1, len(PHI[m]) - 2))
    return tuple(c if j <= top else Fraction(0) for j, c in enumerate(draw(scalar(m))))


@st.composite
def ref_poly(draw, m, max_degree=5, coeff=scalar):
    return ref_trim(m, draw(st.lists(coeff(m), max_size=max_degree + 1)))


def to_poly(m, p):
    field = FieldDesc(m)
    return Poly(field, [FieldElement(field, c) for c in p])


def data(p: Poly):
    return [c.coords for c in p.coeffs]


@st.composite
def case(draw, n=2, max_degree=5, coeff=scalar):
    m = draw(st.sampled_from(FIELDS))
    return (m,) + tuple(draw(ref_poly(m, max_degree, coeff)) for _ in range(n))


KERNEL = settings(max_examples=60, deadline=None)
# _convolve_ks multiplies in libmpdec; the pure-Python _pydecimal has no such path
NEEDS_LIBMPDEC = pytest.mark.skipif(field._KRONECKER is None, reason="needs libmpdec")

# --- Poly ------------------------------------------------------------------------


@KERNEL
@given(case())
def test_add_sub_mul_match_reference(c):
    m, p, q = c
    P, Q = to_poly(m, p), to_poly(m, q)
    assert data(P) == p
    assert data(P + Q) == ref_padd(m, p, q)
    assert data(P - Q) == ref_padd(m, p, [ref_neg(b) for b in q])
    assert data(-P) == [ref_neg(a) for a in p]
    assert data(P * Q) == ref_pmul(m, p, q)


@KERNEL
@given(case(max_degree=3), st.integers(0, 4))
def test_compose_and_power_match_reference(c, e):
    m, p, q = c
    P, Q = to_poly(m, p), to_poly(m, q)
    assert data(P.compose(Q)) == ref_compose(m, p, q)
    want = [ref_one(m)]
    for _ in range(e):
        want = ref_pmul(m, want, p)
    assert data(P ** e) == want


def _ref_scalar(rng, m):
    return tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(len(PHI[m]) - 1))


@pytest.mark.parametrize("m", [1, 3, 12])
@pytest.mark.parametrize("inner_degree", [-1, 0, 1, 2])
def test_compose_past_one_horner_leaf_matches_reference(m, inner_degree):
    # every coefficient of the outer is a leaf of its own, a block of one;
    # blocks join in pairs by products with N, N^2, N^4, ...: an outer of
    # 2^k coefficients takes k levels of joins, one of 65 takes seven, and the
    # odd block left at the end of a level joins one level later (the
    # reference is slow over an inner of degree 2, so there the outer
    # stops at degree 40)
    rng = random.Random(m * 10 + inner_degree)
    degrees = [*range(18), 23, 24, 25, 31, 32, 33, 40, 63, 64, 65]
    if inner_degree == 2:
        degrees = [7, 8, 9, 15, 16, 17, 40]
    # at a few degrees on either side of a power of 2 the outer is also taken
    # nonzero only at the top, and zero at every other row, so that blocks of
    # zero rows join with blocks that are not
    for n in degrees:
        dense = [_ref_scalar(rng, m) for _ in range(n + 1)]
        zero = ref_zero(m)
        sparse = [[zero] * n + dense[-1:],
                  [c if j % 2 == 0 else zero for j, c in enumerate(dense)],
                  [c if j % 2 else zero for j, c in enumerate(dense)]]
        outers = [dense] + sparse * (n in (2, 3, 8, 9, 16, 17))
        q = ref_trim(m, [_ref_scalar(rng, m) for _ in range(inner_degree + 1)])
        Q = to_poly(m, q)
        for p in [ref_trim(m, p) for p in outers]:
            P = to_poly(m, p)
            assert data(P.compose(Q)) == ref_compose(m, p, q)
            x = _ref_scalar(rng, m)
            assert P(FieldElement(FieldDesc(m), x)).coords == ref_eval(m, p, x)


@pytest.mark.parametrize("m", [1, 3])
def test_compose_of_degree_n_makes_n_joins_and_its_squarings(monkeypatch, m):
    # n + 1 blocks of one coefficient take n joins over ceil(log2(n + 1))
    # levels, and every level after the first squares N^width once; a
    # constant outer is its own block and forms no product
    rng = random.Random(m)

    def random_poly(degree):
        coeffs = [_ref_scalar(rng, m) for _ in range(degree)]
        lead = (Fraction(rng.randint(1, 9), rng.randint(1, 4)),) + _ref_scalar(rng, m)[1:]
        return to_poly(m, coeffs + [lead])

    calls = []
    mul = poly._mul
    monkeypatch.setattr(poly, "_mul", lambda a, b, field: calls.append(1) or mul(a, b, field))
    for inner_degree in (1, 2, 3):
        inner = random_poly(inner_degree)
        for n in range(71):
            outer = random_poly(n)
            calls.clear()
            outer.compose(inner)
            assert len(calls) == (n + (n.bit_length() - 1) if n else 0), (inner_degree, n)


def test_compose_of_a_tower_entry_with_itself_counts_its_convolutions(monkeypatch):
    # sigma^4(h) for f = h^3 + h has 82 coefficients, each a block of one:
    # 41 + 20 + 10 + 5 + 3 + 1 + 1 = 81 joins with N, N^2, ..., N^64 and six
    # squarings, 87 products.  The first level multiplies N by one row each,
    # and two of those rows, of h and of h^81, are 1, so their products copy
    # N: 39 convolutions with a shorter operand of one entry.  sigma^4(h) is
    # odd, so every block after the first level lies in h^o K[h^2], and each
    # of the other 46 products, of two operands of 41 entries or more,
    # convolves every other entry, one more call: 39 + 2 * 46 = 131.
    f = parse_poly("h^3 + h", FieldDesc(1))
    s = Context(f).sigma_h(4)
    calls = []  # length of the shorter operand
    convolve = field._convolve

    def recording(a, b):
        calls.append(min(len(a), len(b)))
        return convolve(a, b)

    monkeypatch.setattr(field, "_convolve", recording)
    out = s.compose(s)
    monkeypatch.undo()
    assert out == Context(f).sigma_h(8)
    assert len(calls) == 39 + 2 * 46
    assert sum(n < 32 for n in calls) == 39


def test_tower_entry_times_a_dense_row_convolves_each_half_once(monkeypatch):
    # sigma^6(h) for f = h^3 + h, 730 entries, is odd and a dense row of 82
    # is not stepped: the tower entry is taken every other entry, 365, and
    # the row is split into its even and its odd entries, 41 each
    s = Context(parse_poly("h^3 + h", FieldDesc(1))).sigma_h(6)
    rng = random.Random(6)
    row = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(82)]
    calls = []
    convolve = field._convolve
    monkeypatch.setattr(field, "_convolve", lambda a, b: (
        calls.append((len(a), len(b))) or convolve(a, b)))
    out = s * Poly._from_ints(FieldDesc(1), row, 1)
    monkeypatch.undo()
    assert s.den == 1 and len(s.num) == 730
    assert list(out.num) == ref_convolve(list(s.num), row)
    assert calls == [(730, 82), (365, 41), (365, 41)]


@KERNEL
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 3), st.integers(0, 3),
       st.integers(32, 90), st.integers(32, 90), st.sampled_from([1, 30, 700]), st.data())
def test_stepped_convolution_matches_schoolbook(sa, sb, oa, ob, la, lb, size, draw):
    # any two steps, offsets and lengths, a single nonzero entry (step 0)
    # and a square among them
    def row(s, o, n):
        kind = draw.draw(st.sampled_from(["stepped", "monomial"]))
        out = [0] * n
        for i in range(o, n, s) if kind == "stepped" else [o]:
            out[i] = draw.draw(st.integers(-10 ** size, 10 ** size))
        return out

    a, b = row(sa, oa, la), row(sb, ob, lb)
    if draw.draw(st.booleans()):
        b = a
    assert field._convolve(a, b) == ref_convolve(a, b)
    assert field._convolve(b, a) == ref_convolve(a, b)


def test_compose_convolves_no_zero_operand(monkeypatch):
    # a zero coefficient row starts as the empty block, and a join whose right
    # block is empty, or whose inner is zero, forms no product: _mul returns []
    # for an empty operand before any convolution, so no block of zero rows
    # and no zero power of the inner ever reaches _convolve
    zeros = []
    convolve = field._convolve

    def recording(a, b):
        zeros.append(not any(a) or not any(b))
        return convolve(a, b)

    q3 = FieldDesc(3)
    monkeypatch.setattr(field, "_convolve", recording)
    parse_element("(x+y)^8", Context(parse_poly("h^2")))
    parse_poly("h^5 + 3").compose(parse_poly("h^3 - h"))
    parse_poly("h^6 + zeta*h^2", q3).compose(parse_poly("h^2 + zeta", q3))
    parse_poly("h^4 + 2*h").compose(Poly.zero(FieldDesc(1)))
    monkeypatch.undo()
    assert zeros and sum(zeros) == 0


@pytest.mark.parametrize("m", [1, 3])
def test_product_by_the_row_1_is_a_copy(monkeypatch, m):
    # _mul is the one place that knows the factor 1: on either side, it returns
    # an equal new list and forms no convolution, as does a Poly times 1/2
    desc = FieldDesc(m)
    phi = desc.degree
    one = (1,) + (0,) * (phi - 1)
    g = [v for j in range(3) for v in (j - 1, 2)[:phi]]  # three rows, nonzero
    P, want = Poly._from_ints(desc, g, 5), Poly._from_ints(desc, g, 10)
    calls = []
    convolve = field._convolve
    monkeypatch.setattr(field, "_convolve", lambda a, b: calls.append((a, b)) or convolve(a, b))
    for a, b in [(one, g), (g, one)]:
        out = field._mul(a, b, desc)
        assert out == g and out is not g and type(out) is list
    assert P * Fraction(1, 2) == want and P * FieldElement.rational(Fraction(1, 2), desc) == want
    assert calls == []


@KERNEL
@given(case(max_degree=6))
def test_divmod_recombines(c):
    m, n, d = c
    if not d:
        d = [ref_one(m)]
    N, D = to_poly(m, n), to_poly(m, d)
    q, r = divmod(N, D)
    assert r.is_zero or r.degree < D.degree
    assert ref_padd(m, ref_pmul(m, data(q), d), data(r)) == n


@KERNEL
@given(case(n=3, max_degree=3))
def test_gcd_is_the_monic_common_divisor(c):
    m, a, b, g = c
    A, B, G = (to_poly(m, p) for p in (a, b, g))
    u, v = A * G, B * G
    d = poly_gcd(u, v)
    if u.is_zero and v.is_zero:
        assert d.is_zero
        return
    assert data(d)[-1] == ref_one(m)
    assert (u % d).is_zero and (v % d).is_zero
    if not G.is_zero:
        assert (d % G).is_zero
    assert poly_gcd(u // d, v // d) == Poly.one(FieldDesc(m))


@KERNEL
@given(case(n=1), st.data())
def test_monic_derivative_and_evaluation(c, draw):
    m, p = c
    P = to_poly(m, p)
    if p:
        monic = P.monic()
        assert data(monic)[-1] == ref_one(m)
        assert ref_pmul(m, data(monic), [p[-1]]) == p
    assert data(P.derivative()) == ref_trim(
        m, [tuple(j * x for x in a) for j, a in enumerate(p)][1:])
    x = draw.draw(scalar(m))
    assert P(FieldElement(FieldDesc(m), x)).coords == ref_eval(m, p, x)


@KERNEL
@given(case(coeff=low_scalar))
def test_products_of_rows_with_low_zeta_powers_match_reference(c):
    # rows that stop below zeta^(phi-1) are spread to a narrower stride
    m, p, q = c
    P, Q = to_poly(m, p), to_poly(m, q)
    assert data(P * Q) == ref_pmul(m, p, q)
    assert data(P.compose(Q)) == ref_compose(m, p, q)
    for a, b in zip(p, q):
        A, B = FieldElement(FieldDesc(m), a), FieldElement(FieldDesc(m), b)
        assert (A * B).coords == ref_mul(m, a, b)


# --- FieldElement --------------------------------------------------------------------


@KERNEL
@given(st.sampled_from(FIELDS).flatmap(lambda m: st.tuples(st.just(m), scalar(m), scalar(m))))
def test_scalar_mul_and_inverse_match_reference(c):
    m, a, b = c
    field = FieldDesc(m)
    A, B = FieldElement(field, a), FieldElement(field, b)
    assert (A * B).coords == ref_mul(m, a, b)
    if any(a):
        assert ref_mul(m, a, A.inverse().coords) == ref_one(m)
    else:
        with pytest.raises(ZeroDivisionError):
            A.inverse()


@KERNEL
@given(st.sampled_from(FIELDS).flatmap(lambda m: st.tuples(st.just(m), scalar(m))),
       st.integers(1, 50))
def test_scalar_pair_is_canonical_and_round_trips(c, k):
    m, a = c
    field = FieldDesc(m)
    e = FieldElement(field, a)
    assert e.coords == a
    assert e.den > 0 and gcd(e.den, *e.num) == 1
    for other in (FieldElement(field, e.coords), (e * k) / k, (e + FieldElement.one(field)) - 1):
        assert other == e
        assert hash(other) == hash(e)
        assert (other.num, other.den) == (e.num, e.den)


@KERNEL
@given(st.integers(-(10 ** 6000), 10 ** 6000))
def test_int_text_has_no_digit_limit(n):
    assert _int_text(n) == digits(n)
    assert _text_int(digits(abs(n))) == abs(n)


# --- Kronecker substitution -----------------------------------------------------------------


def ref_convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@st.composite
def int_row(draw):
    """A nonempty list of ints with mixed signs and zeros, its entries up to a drawn number of digits."""
    size = draw(st.sampled_from([1, 3, 40, 700, 5200]))
    bound = 10 ** size
    entries = st.integers(-bound, bound) | st.just(0)
    return draw(st.lists(entries, min_size=1, max_size=4 if size > 40 else 24))


BIG = 10 ** 5000 + 7  # 5001 digits, past the default int/str digit limit of 4,300
SQUARE = [-BIG, 3, 0, -1, BIG]  # one list passed as both operands, packed once


@NEEDS_LIBMPDEC
@KERNEL
@given(int_row(), int_row())
@example([BIG, 0, -BIG], [-BIG, 1])
@example([-1], [BIG])
@example([0, 0], [0])
@example(SQUARE, SQUARE)
@example([-5, -BIG, -1, -(10 ** 700)], [-3, -7])  # all negative: a borrow from every slot
@example([4, 0, 9, -1], [2, 5])  # the last entry negative: a borrow out of the top slot
@example([1, 2, -3], [4, 5, 6])  # a negative top slot, so a negative product
@example([0, 0, 0], [5, -BIG])  # an all-zero operand times a negative one: the product -0
def test_kronecker_convolution_matches_schoolbook(a, b):
    need = field._bits(a) + field._bits(b) + min(len(a), len(b)).bit_length() + 1
    assert _convolve_ks(a, b, need) == ref_convolve(a, b)
    need = 2 * field._bits(a) + len(a).bit_length() + 1
    assert _convolve_ks(a, a, need) == ref_convolve(a, a)


@NEEDS_LIBMPDEC
def test_tower_self_composition_packs_each_decimal_once(monkeypatch):
    # sigma^4(h) o sigma^4(h) over h^3 + h makes 27 decimal products, and 5
    # of them square N^width: one packed object, passed twice.  Each
    # operand is one create_decimal of its signed slots, no offset number
    # is added to a product, and the 49 numbers hold 6.18M digits (the
    # entries are positive, so no borrow reaches a top slot)
    class Counting:  # the methods of the C context cannot be patched
        def __init__(self, ctx):
            self.ctx, self.calls = ctx, []

        def __getattr__(self, name):
            method = getattr(self.ctx, name)
            return lambda *args: self.calls.append((name, args)) or method(*args)

    f = parse_poly("h^3 + h", FieldDesc(1))
    s = Context(f).sigma_h(4)
    counting = Counting(field._KRONECKER)
    monkeypatch.setattr(field, "_KRONECKER", counting)
    out = s.compose(s)
    monkeypatch.undo()
    assert out == Context(f).sigma_h(8)
    names = [name for name, _ in counting.calls]
    products = [args for name, args in counting.calls if name == "multiply"]
    created = [args[0] for name, args in counting.calls if name == "create_decimal"]
    assert len(products) == 27 and sum(x is y for x, y in products) == 5
    assert len(created) <= 49 and sum(map(len, created)) <= 6_200_000
    assert "add" not in names and set(names) <= {"create_decimal", "multiply", "subtract", "scaleb"}


@NEEDS_LIBMPDEC
def test_kronecker_path_is_chosen_by_operand_sizes(monkeypatch):
    decimal, words = [], []
    convolve_ks, convolve_words = field._convolve_ks, field._convolve_words
    monkeypatch.setattr(field, "_convolve_ks", lambda a, b, need: (
        decimal.append((len(a), len(b))) or convolve_ks(a, b, need)))
    monkeypatch.setattr(field, "_convolve_words", lambda a, b, need: (
        words.append((len(a), len(b))) or convolve_words(a, b, need)))
    rng = random.Random(3)
    balanced = [[rng.randint(-10 ** 40, 10 ** 40) for _ in range(300)] for _ in range(2)]  # past a word
    small = [[rng.randint(-99, 99) for _ in range(300)] for _ in range(2)]
    short = [rng.randint(-99, 99) for _ in range(3)]
    wide = [rng.getrandbits(3000) for _ in range(300)]
    assert field._convolve(*balanced) == ref_convolve(*balanced)
    assert decimal == [(300, 300)]
    assert field._convolve(balanced[0], short) == ref_convolve(balanced[0], short)
    assert field._convolve(wide, short) == ref_convolve(wide, short)
    assert decimal == [(300, 300)] and words == []
    # entries of +-99: every entry of the product fits a word, so packed words at any length
    assert field._convolve(*small) == ref_convolve(*small)
    assert decimal == [(300, 300)] and words == [(300, 300)]
    long = [[rng.randint(-99, 99) for _ in range(6000)] for _ in range(2)]
    need = field._bits(long[0]) + field._bits(long[1]) + (6000).bit_length() + 1
    assert need < 64 and field._convolve(*long) == convolve_ks(*long, need)
    assert decimal == [(300, 300)] and words == [(300, 300), (6000, 6000)]
    monkeypatch.setattr(field, "_KRONECKER", None)  # decimal without libmpdec
    assert field._convolve(*balanced) == ref_convolve(*balanced)
    assert field._convolve(*small) == ref_convolve(*small)
    assert decimal == [(300, 300)] and words == [(300, 300), (6000, 6000), (300, 300)]


# --- packed words ----------------------------------------------------------------------

# need on either side of each slot width: the slot is the narrowest above need bits,
# and one of need - 1 bits already overflows
SLOT_EDGES = [7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]


@st.composite
def word_rows(draw):
    """(a, b, need): two rows whose product needs need bits, drawn from SLOT_EDGES.

    need = bits(a) + bits(b) + bit_length(len(b)) + 1 for len(a) >= len(b);
    each row holds an entry of +-(2^k - 1), its k bits, and is mixed,
    extreme (every entry +-(2^k - 1)) or all negative (every entry
    -(2^k - 1): two such rows give the largest entries of a product).
    """
    need = draw(st.sampled_from(SLOT_EDGES))
    lb = draw(st.sampled_from([1, 2, 6, 7, 8, 31, 32, 33, 64]))
    la = lb + draw(st.sampled_from([0, 1, 13, 100]))
    room = need - 1 - lb.bit_length()
    assume(room >= 2)
    ka = draw(st.integers(1, room - 1))

    def row(n, k):
        top = (1 << k) - 1
        kind = draw(st.sampled_from(["mixed", "extreme", "negative"]))
        if kind == "negative":
            return [-top] * n
        entries = st.sampled_from([top, -top]) if kind == "extreme" else st.integers(-top, top)
        out = draw(st.lists(entries, min_size=n, max_size=n))
        out[draw(st.integers(0, n - 1))] = top
        return out

    return row(la, ka), row(lb, room - ka), need


@settings(max_examples=300, deadline=None)
@given(word_rows(), st.booleans())
@example(([-1] * 7, [-3] * 7, 7), False)
@example(([-3] * 7, [-7] * 7, 9), False)  # entries of 147: past a signed byte
@example(([-(1 << 31) + 1] * 40, [-(1 << 25) + 1] * 33, 63), False)
@example(([(1 << 31) - 1] * 40, [-(1 << 26) + 1] * 33, 64), True)
def test_word_convolution_matches_schoolbook_at_every_slot_edge(rows, zero):
    # packed words take the narrowest slot above need bits, and none from 64 on
    a, b, need = rows
    assert field._bits(a) + field._bits(b) + len(b).bit_length() + 1 == need
    if zero:  # an all-zero, untrimmed operand; the slots of need bits still hold its product
        b = [0] * len(b)
    want = ref_convolve(a, b)
    if need < 64:
        assert field._convolve_words(a, b, need) == want
        assert field._convolve_words(b, a, need) == want
    with pytest.MonkeyPatch.context() as patch:
        for kronecker in (field._KRONECKER, None):  # and decimal without libmpdec
            patch.setattr(field, "_KRONECKER", kronecker)
            assert field._convolve(a, b) == want
            assert field._convolve(b, a) == want


def test_cyclotomic_product_convolves_in_words(monkeypatch):
    # a product of two elements over Q(zeta_7) as the cyclotomic benchmark
    # draws them: six terms (i, k), each a polynomial of degree 1 in h whose
    # coordinates are +-1..3 over 1..3.  Every convolution whose shorter
    # operand has _WORD_LENGTH entries or more and whose product fits a word
    # takes packed words; a clock-free guard of the gain, as the sweep takes
    # several times as long on these rows.  All but two are eligible: the
    # product builds sigma^2(h) = f(f) and sigma^3(h) = f(sigma^2(h)), and
    # each forms zeta * N, N the inner polynomial, as a join of the blocks
    # 0 and zeta, whose single row, spread to stride 3 and 5, has fewer than
    # _WORD_LENGTH entries and takes the sweep
    q7 = FieldDesc(7)

    def operands():  # in a new Context, so no sigma is remembered from the last product
        ctx = Context(parse_poly("h^3+zeta*h", q7))
        rng = random.Random(7)

        def scalar():
            return FieldElement(q7, [Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 3))
                                     for _ in range(6)])

        support = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]
        return [AlgebraElement(ctx, {key: Poly(q7, [scalar(), scalar()]) for key in support})
                for _ in range(2)]

    shapes, eligible, packed = [], [], []
    convolve, convolve_words = field._convolve, field._convolve_words

    def recording(a, b):
        lb = min(len(a), len(b))
        shapes.append(sorted((len(a), len(b))))
        if lb >= field._WORD_LENGTH and field._bits(a) + field._bits(b) + lb.bit_length() + 1 < 64:
            eligible.append(shapes[-1])
        return convolve(a, b)

    x, y = operands()
    monkeypatch.setattr(field, "_convolve", recording)
    monkeypatch.setattr(field, "_convolve_words", lambda a, b, need: (
        packed.append(sorted((len(a), len(b)))) or convolve_words(a, b, need)))
    want = x * y
    assert packed == eligible and len(shapes) == len(eligible) + 2 and len(shapes) > 50
    x, y = operands()
    monkeypatch.setattr(field, "_WORD_LENGTH", 10 ** 9)  # every product by the sweep
    assert x * y == want and len(packed) == len(eligible)


def _stepped(rng, length, offset, s, size):
    """length entries, nonzero only at offset, offset + s, ...: mixed signs, a few zeros.

    The first two are nonzero, so that the step is s and no multiple of it.
    """
    out = [0] * length
    for i in range(offset, length, s):
        out[i] = rng.choice([0, 1, -1]) * rng.randint(1, 10 ** size)
    out[offset] = out[offset] or 1
    out[offset + s] = out[offset + s] or 1
    return out


def _class_calls(n, v, s):
    """The calls that convolve n stepped entries with each nonzero class of v mod s, the longer first.

    Each class runs from its first nonzero entry.
    """
    classes = [part[next(i for i, x in enumerate(part) if x):] for part in (v[r::s] for r in range(s)) if any(part)]
    return [(max(n, len(part)), min(n, len(part))) for part in classes]


@pytest.mark.parametrize("pays", [False, True], ids=["sweep", "kronecker"])
@pytest.mark.parametrize("length", [31, 32, 33, 200])
def test_convolution_by_step_matches_schoolbook(monkeypatch, length, pays):
    # when both operands have 32 entries or more and one lies in t^o K[t^s],
    # it is taken every s-th entry and the other is split into its nonzero
    # residue classes mod s, one call each with the longer operand first, so
    # that the sweep walks the shorter; two operands of one step leave one
    # class.  The compressed product of 700-digit entries takes the
    # sweep or, long enough, the substitution _kronecker_pays is forced to
    # choose here, and that of one-digit entries packed words
    monkeypatch.setattr(field, "_kronecker_pays", lambda a, b, ba, bb, need: pays)
    calls = []
    convolve = field._convolve

    def recording(a, b):
        calls.append((len(a), len(b)))
        return convolve(a, b)

    monkeypatch.setattr(field, "_convolve", recording)
    rng = random.Random(length)
    for s in range(1, 6):
        for oa, ob in [(0, 0), (1, 0), (s - 1, 2), (3, s)]:
            for size in (1, 700):
                a = _stepped(rng, length, oa, s, size)
                b = _stepped(rng, length - rng.randint(0, 1), ob, s, 1)
                calls.clear()
                assert field._convolve(a, b) == ref_convolve(a, b)
                assert len(calls) == (2 if s > 1 and len(b) >= 32 else 1)
                if s > 1 and len(b) >= 32:
                    assert calls[1:] == _class_calls(len(a[oa::s]), b, s)
                    # only a stepped: a dense b splits into all s classes
                    dense = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in b]
                    calls.clear()
                    assert field._convolve(a, dense) == ref_convolve(a, dense)
                    assert calls[1:] == _class_calls(len(a[oa::s]), dense, s)
                    assert len(calls) == 1 + s
                    # only b stepped: a's step breaks past its first entries, so b is
                    # taken every s-th entry and each nonzero class of a is one call
                    a[oa + s * 3 + 1] = -5
                    classes = [r for r in range(s) if any(a[r::s])]
                    calls.clear()
                    assert field._convolve(a, b) == ref_convolve(a, b)
                    assert len(calls) == 1 + len(classes) == 3
                    assert calls[1:] == _class_calls(len(b[ob::s]), a, s)
    for oa, ob in [(0, 0), (1, 2), (3, 1)] * (length >= 32):
        # steps 2 and 3: the larger is taken, and the classes of the other,
        # each in t^o K[t^2] again, may compress once more
        a = _stepped(rng, length, oa, 2, 700)
        b = _stepped(rng, length, ob, 3, 1)
        calls.clear()
        assert field._convolve(a, b) == ref_convolve(a, b)
        assert field._convolve(b, a) == ref_convolve(a, b)
        assert calls[1] == _class_calls(len(b[ob::3]), a, 3)[0]
    zero = [0] * length  # an all-zero, untrimmed operand
    a = _stepped(rng, length, 1, 2, 1)
    assert field._convolve(a, zero) == field._convolve(zero, a) == [0] * (2 * length - 1)
    assert field._convolve(zero, zero) == [0] * (2 * length - 1)


@KERNEL
@given(st.sampled_from([1, 3]).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(scalar(m), min_size=3, max_size=4))),
    st.integers(1, 2), st.integers(0, 2))
def test_sigma_of_a_tower_difference_is_a_tower_difference(c, k, q):
    # sigma^q is a ring endomorphism of K[h]: sigma^q(sigma^k(h) - h) = sigma^(k+q)(h) - sigma^q(h)
    m, coeffs = c
    f = to_poly(m, coeffs)
    assume(f.degree >= 2)
    ctx = Context(f)
    h = Poly.gen(ctx.field)
    assert ctx.sigma(ctx.sigma_h(k) - h, q) == ctx.sigma_h(k + q) - ctx.sigma_h(q)


# --- canonical form ---------------------------------------------------------------------


@KERNEL
@given(case(n=2), st.integers(1, 50))
def test_equal_values_are_equal_and_hash_equal(c, k):
    m, p, q = c
    field = FieldDesc(m)
    P = to_poly(m, p)
    routes = [
        Poly(field, [FieldElement(field, a) for a in p] + [0, Fraction(0)]),  # trailing zeros
        (P * k) * Fraction(1, k),  # through another denominator
        (P + to_poly(m, q)) - to_poly(m, q),
    ]
    if q:
        routes.append((P * to_poly(m, q)) // to_poly(m, q))
    if m == 1:
        routes.append(Poly(field, [a[0] for a in p]))  # Fractions, no FieldElements
    for other in routes:
        assert other == P
        assert hash(other) == hash(P)
        assert {(other, 1): True}[(P, 1)]  # usable as a memo key


@KERNEL
@given(case(n=1))
def test_print_parse_round_trip(c):
    m, p = c
    P = to_poly(m, p)
    assert parse_poly(P.to_text(), FieldDesc(m)) == P


def _context(m):
    return Context(parse_poly("h^2 + zeta*h", FieldDesc(m)))


CONTEXTS = {m: _context(m) for m in FIELDS}


@st.composite
def element(draw, m):
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                 ref_poly(m, max_degree=2), max_size=3))
    return AlgebraElement(CONTEXTS[m], {key: to_poly(m, p) for key, p in terms.items()})


@KERNEL
@given(st.sampled_from(FIELDS).flatmap(lambda m: st.tuples(element(m), scalar(m))))
def test_element_print_parse_round_trip(c):
    e, a = c
    ctx = e.ctx
    assert parse_element(e.to_text(), ctx) == e
    scalar_value = FieldElement(ctx.field, a)
    assert parse_element(str(scalar_value), ctx) == AlgebraElement.from_scalar(ctx, scalar_value)


# --- the reduction mod Phi_m: fold by the period of zeta, then the cascade


REDUCE_M = list(range(1, 31)) + [60, 105, 210]  # even, prime and prime-power m, and phi = 48


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(REDUCE_M).flatmap(lambda m: st.tuples(
    st.just(m), st.integers(1, 3 * m), st.integers(0, 6), st.integers(0, 3 * m - 1), st.randoms())))
def test_reduce_matches_the_cascade(c):
    # any stride, also below phi, 0-6 whole rows and a partial last row, and
    # signed entries up to 2^200, some zero
    m, stride, rows, extra, rng = c
    desc = FieldDesc(m)
    num = [rng.choice((0, 1, -1)) * rng.getrandbits(rng.choice((1, 30, 200)))
           for _ in range(rows * stride + extra % stride)]
    assert field._reduce(list(num), desc, stride) == ref_reduce(list(num), desc, stride)


def _ref_rows(m, a, b):
    """The product of two lists of integer rows of Q(zeta_m), by helpers.ref_mul, as ints."""
    phi = len(PHI[m]) - 1
    ra = [tuple(map(Fraction, a[i:i + phi])) for i in range(0, len(a), phi)]
    rb = [tuple(map(Fraction, b[i:i + phi])) for i in range(0, len(b), phi)]
    out = [ref_zero(m)] * (len(ra) + len(rb) - 1)
    for i, x in enumerate(ra):
        for j, y in enumerate(rb):
            out[i + j] = ref_add(out[i + j], ref_mul(m, x, y))
    return [int(v) for row in out for v in row]


@pytest.mark.parametrize("m", FIELDS)
def test_row_products_match_the_reference(m):
    # 1-25 rows each side, rows whose zeta powers stop low or are sparse, so
    # that strides vary and the sweep walks either operand, and squares
    desc, phi = FieldDesc(m), len(PHI[m]) - 1
    rng = random.Random(m)

    def rows(n):
        top = rng.randint(0, phi - 1)
        return [rng.choice((0, 0, 1, -1)) * rng.randint(1, 10 ** 6) if j % phi <= top else 0
                for j in range(n * phi)]

    for ra in range(1, 26):
        a, b = rows(ra), rows(rng.randint(1, 25))
        assert field._mul(a, b, desc) == _ref_rows(m, a, b)
        assert field._mul(b, a, desc) == _ref_rows(m, a, b)
        assert field._mul(a, a, desc) == _ref_rows(m, a, a)


@pytest.mark.parametrize("m", REDUCE_M)
def test_zeta_power_matches_the_cascade(m):
    desc = FieldDesc(m)
    phi = desc.degree
    for e in range(3 * m):
        row = [0] * max(e % m + 1, phi)
        row[e % m] = 1
        assert FieldElement.zeta_power(desc, e).num == tuple(ref_reduce(row, desc, len(row)))
    if m in PHI:  # zeta^e as e products by zeta (by 1 over Q) in the reference
        zeta = tuple(Fraction(j == min(1, phi - 1)) for j in range(phi))
        want = (Fraction(1),) + (Fraction(0),) * (phi - 1)
        for e in range(3 * m):
            assert FieldElement.zeta_power(desc, e).coords == want
            want = ref_mul(m, want, zeta)


@pytest.mark.parametrize("chain", [(3, 15), (4, 12, 60), (7, 14)])
def test_embedding_matches_the_cascade(chain):
    # the image of zeta_m is zeta_M^(M/m); every row of a scalar or a
    # polynomial goes through one reduction, and a chain of embeddings
    # agrees with the direct one
    rng = random.Random(sum(chain))
    fields = [FieldDesc(m) for m in chain]
    source = fields[0]
    phi = source.degree
    scalars = [FieldElement(source, [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(phi)])
               for _ in range(6)]
    polys = [Poly(source, scalars[i:i + 3]) for i in range(4)]
    for target in fields[1:]:
        step = target.m // source.m
        for x in scalars + polys:
            rows = len(x.num) // phi
            stride = (phi - 1) * step + 1
            row = [0] * (rows * stride)
            for j in range(phi):
                row[j * step::stride] = x.num[j::phi]
            image = x.embed(target)
            assert image.num == tuple(field._trim(ref_reduce(row, target, stride), target.degree))
            assert image.den == x.den
        assert FieldElement.zeta(source).embed(target) == FieldElement.zeta_power(target, step)
        for x, y in zip(scalars, scalars[1:]):
            assert (x * y).embed(target) == x.embed(target) * y.embed(target)
    for x in scalars + polys:
        hop = x
        for target in fields[1:]:
            hop = hop.embed(target)
        assert hop == x.embed(fields[-1])


@pytest.mark.parametrize("m,parent", [(7, 1787), (12, 545)])
def test_reduction_of_a_spread_product_folds_before_the_cascade(m, parent):
    # 3 dense rows by 20 over Q(zeta_7), spread to stride 11: the powers 10..7
    # fold onto 3..0, one add each, and only zeta^6 goes through the six
    # terms of Phi_7, 10 operations a row where the cascade alone made 30.
    # Over Q(zeta_12), stride 7: zeta^6 = -1 folds and zeta^5, zeta^4 take
    # the two terms of Phi_12, 5 where the cascade made 6.  `parent` is the
    # line events of the cascade alone on these operands.
    desc = FieldDesc(m)
    phi = desc.degree
    rng = random.Random(m)
    a = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(3 * phi)]
    b = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(20 * phi)]
    out, events = line_events(field._reduce, lambda: field._mul(a, b, desc))
    assert out == _ref_rows(m, a, b)
    assert events <= (parent // 2 if m == 7 else parent), events


def test_spread_product_sweeps_the_sparser_row():
    # over Q(zeta_12) one row up to zeta^3 (spread to 5 entries, 4 nonzero)
    # times four rows up to zeta (20 entries, 2 nonzero), a shape a round of
    # the cyclotomic benchmark forms 240 times: the sweep walks the 2 nonzero
    # entries across 5, not the 4 across 20, in either order
    q12 = FieldDesc(12)
    q12._cyclotomic  # computed once, by products of its own
    a = [1, -2, 3, 4]
    b = [0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 0, -7, 0, 0]
    for x, y in [(a, b), (b, a)]:
        out, slices = line_events(field._convolve, lambda: field._mul(x, y, q12), at="out[j:j + n] =")
        assert out == _ref_rows(12, a, b)
        assert slices == 2
