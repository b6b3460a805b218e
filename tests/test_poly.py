"""Dense exact polynomials and the substitution helpers built on them."""

import random
from fractions import Fraction

import pytest

from gha.core import AlgebraElement, Context, multiply
from gha.errors import DegreeCapExceeded, NoEmbedding, UnsupportedCase
from gha.field import RATIONALS, FieldDesc, FieldElement, _mul
from gha.poly import (
    NEG_INF,
    Poly,
    compose_mod,
    decompose_as_polynomial_in,
    degree_cap,
    poly_gcd,
    set_degree_cap,
    sigma_apply,
    sigma_power_h,
)
from gha.parser import parse_poly

from .helpers import random_poly


def P(text: str) -> Poly:
    return parse_poly(text)


def test_construction_strips_trailing_zeros():
    p = Poly(RATIONALS, (1, 2, 0, 0))
    assert p.degree == 1
    assert p.coeff(5).is_zero
    assert Poly(RATIONALS).is_zero
    assert Poly(RATIONALS, (0, 0)).degree == NEG_INF


def test_mul_matches_naive_convolution():
    rng = random.Random(7001)
    for _ in range(30):
        a = random_poly(rng, RATIONALS, max_degree=6)
        b = random_poly(rng, RATIONALS, max_degree=6)
        direct = [Fraction(0)] * (max(len(a.coeffs) + len(b.coeffs), 1))
        for i, ca in enumerate(a.coeffs):
            for j, cb in enumerate(b.coeffs):
                direct[i + j] += ca.as_fraction() * cb.as_fraction()
        assert a * b == Poly(RATIONALS, direct)


def test_arithmetic_examples():
    assert P("h^2 - 1") * P("h + 1") == P("h^3 + h^2 - h - 1")
    assert P("h^3 + h") + P("h - 1") == P("h^3 + 2h - 1")
    assert (P("h^2") - P("h^2")).is_zero
    assert P("h + 1") ** 3 == P("h^3 + 3h^2 + 3h + 1")
    assert P("3h^2").derivative() == P("6h")
    assert P("5").derivative().is_zero


def test_divmod_examples():
    q, r = divmod(P("h^3 - 2h + 4"), P("h - 1"))
    assert q == P("h^2 + h - 1")
    assert r == P("3")
    assert P("h^4") // P("h^2 + 1") == P("h^2 - 1")
    assert P("h^4") % P("h^2 + 1") == P("1")
    with pytest.raises(ZeroDivisionError):
        divmod(P("h"), Poly.zero(RATIONALS))


def test_divmod_random_roundtrip():
    rng = random.Random(402)
    for _ in range(40):
        a = random_poly(rng, RATIONALS, max_degree=6)
        b = random_poly(rng, RATIONALS, max_degree=3)
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_evaluation_and_composition():
    p = P("h^2 + 1")
    two = FieldElement.rational(2)
    assert p(two).as_fraction() == 5
    assert p.compose(P("h^3 + h")) == P("h^6 + 2h^4 + h^2 + 1")
    assert P("h").compose(p) == p
    assert p.compose(Poly.constant(RATIONALS, 3)) == P("10")


def test_compose_associativity_random():
    rng = random.Random(77)
    for _ in range(15):
        a = random_poly(rng, RATIONALS, max_degree=3)
        b = random_poly(rng, RATIONALS, max_degree=2)
        c = random_poly(rng, RATIONALS, max_degree=2)
        assert a.compose(b).compose(c) == a.compose(b.compose(c))


def test_sigma_powers_of_h():
    f = P("h^2")
    assert sigma_power_h(f, 0) == P("h")
    assert sigma_power_h(f, 1) == P("h^2")
    assert sigma_power_h(f, 3) == P("h^8")
    g = P("h^2 + 1")
    assert sigma_power_h(g, 2) == P("h^4 + 2h^2 + 2")
    assert sigma_power_h(P("2h"), 5) == P("32h")


def test_sigma_power_degree_growth():
    f = P("h^3 + h")
    for k in range(6):
        assert sigma_power_h(f, k).degree == 3 ** k


def test_sigma_apply_composes_coefficientwise():
    f = P("h^2")
    g = P("h^3 - h")
    assert sigma_apply(g, f, 1) == P("h^6 - h^2")
    assert sigma_apply(g, f, 0) == g
    assert sigma_apply(Poly.constant(RATIONALS, 7), f, 4) == P("7")


def test_gcd_examples():
    assert poly_gcd(P("h^2 - 1"), P("h^2 - 2h + 1")) == P("h - 1")
    assert poly_gcd(P("h^3"), P("h^2")) == P("h^2")
    assert poly_gcd(P("h"), P("1")) == P("1")
    assert poly_gcd(P("2h + 2"), Poly.zero(RATIONALS)) == P("h + 1")
    assert poly_gcd(Poly.zero(RATIONALS), Poly.zero(RATIONALS)).is_zero


def test_gcd_divides_both_random():
    rng = random.Random(9090)
    for _ in range(25):
        base = random_poly(rng, RATIONALS, max_degree=2)
        a = base * random_poly(rng, RATIONALS, max_degree=2)
        b = base * random_poly(rng, RATIONALS, max_degree=2)
        g = poly_gcd(a, b)
        if g.is_zero:
            assert a.is_zero and b.is_zero
            continue
        assert (a % g).is_zero and (b % g).is_zero
        assert g.leading_coeff == FieldElement.one(RATIONALS)
        if not base.is_zero:
            assert (g % base.monic()).is_zero


def test_compose_mod_matches_direct():
    rng = random.Random(55)
    for _ in range(20):
        outer = random_poly(rng, RATIONALS, max_degree=4)
        inner = random_poly(rng, RATIONALS, max_degree=3)
        mod = random_poly(rng, RATIONALS, max_degree=3)
        if mod.degree in (NEG_INF, 0):
            continue
        assert compose_mod(outer, inner, mod) == outer.compose(inner) % mod


def test_decompose_examples():
    f = P("h^2")
    inner = decompose_as_polynomial_in(P("h^4 - 2h^2"), f)
    assert inner == P("h^2 - 2h")  # q(t) = t^2 - 2t
    assert decompose_as_polynomial_in(P("h"), f) is None
    assert decompose_as_polynomial_in(P("h^3"), f) is None
    assert decompose_as_polynomial_in(P("5"), f) == P("5")
    assert decompose_as_polynomial_in(Poly.zero(RATIONALS), f).is_zero


def test_decompose_roundtrip_random():
    rng = random.Random(313)
    outer = P("h^2 + h")
    for _ in range(25):
        q = random_poly(rng, RATIONALS, max_degree=3)
        g = q.compose(outer)
        back = decompose_as_polynomial_in(g, outer)
        assert back == q


def test_decompose_rejects_constant_base():
    with pytest.raises(UnsupportedCase):
        decompose_as_polynomial_in(P("h"), P("3"))


def test_degree_cap_blocks_huge_sigma_power():
    f = P("h^4")
    with pytest.raises(DegreeCapExceeded):
        sigma_power_h(f, 40)  # 4^40 far beyond the default cap


def test_degree_cap_is_adjustable():
    set_degree_cap(16)
    assert degree_cap() == 16
    with pytest.raises(DegreeCapExceeded):
        P("h^5") * P("h^12")
    with pytest.raises(DegreeCapExceeded):
        P("h^3") ** 6
    with pytest.raises(DegreeCapExceeded):
        P("h^5").compose(P("h^5"))
    assert (P("h^8") * P("h^8")).degree == 16


def test_the_kernel_checks_every_row_product_against_the_cap():
    # field._mul holds the one check of a row product; the messages of a
    # Poly product, a product in H(f) and a composition are pinned here
    set_degree_cap(10)
    cap = r"exceeds the cap 10$"
    with pytest.raises(DegreeCapExceeded, match=r"^result degree 11 " + cap):
        _mul([1] * 7, [1] * 6, RATIONALS)
    with pytest.raises(DegreeCapExceeded, match=r"^result degree 11 " + cap):
        _mul([1, 0] * 7, [0, 1] * 6, FieldDesc(3))
    assert len(_mul([1] * 6, [1] * 6, RATIONALS)) == 11  # degree 10, at the cap
    with pytest.raises(DegreeCapExceeded, match=r"^result degree 11 " + cap):
        P("h^6") * P("h^5")
    ctx = Context(P("h^3 + h"))
    a, b = (AlgebraElement.from_poly(ctx, P(t)) for t in ("h^6 + 1", "h^5 - h"))
    with pytest.raises(DegreeCapExceeded, match=r"^result degree 11 " + cap):
        multiply(a, b)  # two (0, 0) terms: no y^k x^j check applies
    with pytest.raises(DegreeCapExceeded, match=r"^result degree 12 " + cap):
        P("h^4 + h").compose(P("h^3 + 2"))


def test_monic_and_leading():
    p = P("3h^2 - 6")
    assert p.monic() == P("h^2 - 2")
    assert p.leading_coeff.as_fraction() == 3


def test_embed_to_larger_field():
    q6 = FieldDesc(6)
    p = P("h^2 - 1/2").embed(q6)
    assert p.field == q6
    assert p.coeff(2) == FieldElement.one(q6)


def test_embed_of_zero_needs_an_embedding():
    # the zero polynomial has no coefficient to refuse the map: the field does
    with pytest.raises(NoEmbedding):
        Poly.zero(FieldDesc(3)).embed(FieldDesc(4))
    with pytest.raises(NoEmbedding):
        Context(Poly.zero(FieldDesc(3))).embed(FieldDesc(4))


@pytest.mark.parametrize("m, big", [(1, 6), (3, 12), (4, 12)])
def test_embed_sends_zeta_m_to_a_power_of_zeta_big(m, big):
    # reference: c = sum_i c_i zeta_m^i goes to sum_i c_i zeta_big^(i*big/m),
    # each power built by zeta_power, which does not embed
    rng = random.Random(100 * m + big)
    src, target = FieldDesc(m), FieldDesc(big)
    powers = [FieldElement.zeta_power(target, i * (big // m)) for i in range(src.degree)]
    for _ in range(8):
        coeffs = [FieldElement(src, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                                     for _ in range(src.degree)])
                  for _ in range(rng.randint(1, 12))]
        p = Poly(src, coeffs)
        image = p.embed(target)
        want = [sum((x * z for x, z in zip(c.coords, powers)), FieldElement.zero(target))
                for c in coeffs]
        assert image.field == target and image.degree == p.degree
        assert [image.coeff(j) for j in range(len(want))] == want
        assert image == Poly(target, want) and hash(image) == hash(Poly(target, want))


def test_to_text_forms():
    assert P("h^2 - h").to_text() == "h^2 - h"
    assert P("-h^3 + 2").to_text() == "-h^3 + 2"
    assert Poly.zero(RATIONALS).to_text() == "0"
    assert P("1/2 h").to_text() == "1/2*h"
    q4 = FieldDesc(4)
    z = FieldElement.zeta(q4)
    p = Poly(q4, (z, z + 1))
    assert p.to_text() == "(zeta + 1)*h + zeta"


def test_poly_scalar_coercion():
    p = P("h + 1")
    assert p * 2 == P("2h + 2")
    assert p + Fraction(1, 2) == P("h + 3/2")
    assert 1 - p == P("-h")
