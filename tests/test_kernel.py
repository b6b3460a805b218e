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

from .helpers import PHI, digits, ref_mul  # noqa: E402

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
def test_compose_past_one_horner_leaf_matches_reference(monkeypatch, m, inner_degree):
    # outers of more than 8 coefficients are built from Horner leaves of 8
    # joined by products with N^8, N^16, ...: from a result degree of 512 on,
    # here from every degree
    monkeypatch.setattr(poly, "_JOIN_DEGREE", 0)
    rng = random.Random(m * 10 + inner_degree)
    degrees = [*range(18), 23, 24, 25, 31, 32, 33, 40]
    if inner_degree == 2:
        degrees = [7, 8, 9, 15, 16, 17, 40]
    for n in degrees:
        p = ref_trim(m, [_ref_scalar(rng, m) for _ in range(n + 1)])
        q = ref_trim(m, [_ref_scalar(rng, m) for _ in range(inner_degree + 1)])
        P, Q = to_poly(m, p), to_poly(m, q)
        assert data(P.compose(Q)) == ref_compose(m, p, q)
        x = _ref_scalar(rng, m)
        assert P(FieldElement(FieldDesc(m), x)).coords == ref_eval(m, p, x)


def test_compose_of_a_tower_entry_with_itself_counts_its_convolutions(monkeypatch):
    # sigma^4(h) for f = h^3 + h has 82 coefficients: ten Horner leaves of 8
    # (7 products each) and one of 2 (1 product), N^8 by three squarings,
    # then 5 + 3 + 1 + 1 joins with N^8, N^16, N^32, N^64 between three more
    # squarings: 87 products.  Every operand lies in h^o K[h^2], so each
    # product of two operands of 32 entries or more convolves every other
    # entry, one more call: all but the first product of each leaf, 76.
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
    assert len(calls) == 87 + 76
    assert sum(n < 32 for n in calls) == 11


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


@KERNEL
@given(int_row(), int_row())
@example([BIG, 0, -BIG], [-BIG, 1])
@example([-1], [BIG])
@example([0, 0], [0])
def test_kronecker_convolution_matches_schoolbook(a, b):
    assert _convolve_ks(a, b) == ref_convolve(a, b)


def test_kronecker_path_is_chosen_by_operand_sizes(monkeypatch):
    calls = []

    def recording(a, b):
        calls.append((len(a), len(b)))
        return _convolve_ks(a, b)

    monkeypatch.setattr(field, "_convolve_ks", recording)
    rng = random.Random(3)
    balanced = [[rng.randint(-99, 99) for _ in range(300)] for _ in range(2)]
    short = [rng.randint(-99, 99) for _ in range(3)]
    wide = [rng.getrandbits(3000) for _ in range(300)]
    assert field._convolve(*balanced) == ref_convolve(*balanced)
    assert calls == [(300, 300)]
    assert field._convolve(balanced[0], short) == ref_convolve(balanced[0], short)
    assert field._convolve(wide, short) == ref_convolve(wide, short)
    assert calls == [(300, 300)]
    monkeypatch.setattr(field, "_KRONECKER", None)  # decimal without libmpdec
    assert field._convolve(*balanced) == ref_convolve(*balanced)
    assert calls == [(300, 300)]


def _stepped(rng, length, offset, s, size):
    """length entries, nonzero only at offset, offset + s, ...: mixed signs, a few zeros."""
    out = [0] * length
    for i in range(offset, length, s):
        out[i] = rng.choice([0, 1, -1]) * rng.randint(1, 10 ** size)
    out[offset] = out[offset] or 1
    return out


@pytest.mark.parametrize("pays", [False, True], ids=["sweep", "kronecker"])
@pytest.mark.parametrize("length", [31, 32, 33, 200])
def test_convolution_by_step_matches_schoolbook(monkeypatch, length, pays):
    # operands in t^o K[t^s] convolve every s-th entry when both have 32
    # entries or more; the compressed product takes the sweep or, long
    # enough, the substitution _kronecker_pays is forced to choose here
    monkeypatch.setattr(field, "_kronecker_pays", lambda a, b: pays)
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
                    assert calls[1] == (len(a[oa::s]), len(b[ob::s]))
                    a[oa + s * 3 + 1] = -5  # the step shows in the first entries, not in all
                    calls.clear()
                    assert field._convolve(a, b) == ref_convolve(a, b)
                    assert len(calls) == 1
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
