"""Cyclotomic field arithmetic over exact rationals."""

import contextvars
import gc
import math
import operator
import os
import random
import sys
import threading
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

import gha
import gha.poly
from gha.core import AlgebraElement, Context
from gha.errors import DegreeCapExceeded, FieldMismatch, NoEmbedding, UnsupportedCase
from gha.field import (
    RATIONALS,
    FieldDesc,
    FieldElement,
    _Pair,
    _Ring,
    cyclotomic_polynomial,
    degree_cap,
    divisors,
    set_degree_cap,
)
from gha.poly import Poly

from .helpers import line_events

Q3 = FieldDesc(3)
Q4 = FieldDesc(4)
Q6 = FieldDesc(6)


def test_divisors_and_phi():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert [FieldDesc(m).degree for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_phi_counts_units():
    set_degree_cap(2 ** 40)
    for m in range(1, 400):
        assert FieldDesc(m).degree == sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)
    assert FieldDesc(2 ** 40).degree == 2 ** 39
    assert FieldDesc(999983 * 1000003).degree == 999982 * 1000002


def test_divisors_match_brute_force():
    below = 5000
    sieved = [[] for _ in range(below)]  # every d of 1..m appended to each multiple m, ascending
    for d in range(1, below):
        for m in range(d, below, d):
            sieved[m].append(d)
    for m in range(1, below):
        assert divisors(m) == sieved[m], m


def test_field_degree_at_the_cap_succeeds_for_every_index():
    # _factor refuses once phi(m) > cap is certain; at cap = phi(m) it never
    # may, and at cap = phi(m) - 1 the degree is refused all the same
    below = 20000
    phi = list(range(below))
    for p in range(2, below):
        if phi[p] == p:  # p is prime
            for m in range(p, below, p):
                phi[m] -= phi[m] // p
    for m in range(1, below):
        set_degree_cap(phi[m])
        assert FieldDesc(m).degree == phi[m], m
        if phi[m] > 1:
            set_degree_cap(phi[m] - 1)
            with pytest.raises(DegreeCapExceeded, match="exceeds the cap"):
                FieldDesc(m).degree


@pytest.mark.parametrize("cap", [50.5, True, False, Fraction(7), "7", None])
def test_degree_cap_must_be_an_int(cap):
    # a float cap used to surface as an AttributeError from check_degree, and
    # True was taken as a cap of 1 that error messages printed as "True"
    before = degree_cap()
    with pytest.raises(TypeError, match="degree cap must be an int"):
        set_degree_cap(cap)
    assert degree_cap() == before
    set_degree_cap(7)
    assert degree_cap() == 7


@pytest.mark.parametrize("m", [4.0, True, False, Fraction(3), "3", None])
def test_field_index_must_be_an_int(m):
    # FieldDesc(4.0) used to fail only at the first zeta, and FieldDesc(True)
    # printed as Q with degree True
    with pytest.raises(TypeError, match="cyclotomic index must be an int"):
        FieldDesc(m)
    assert FieldDesc(4).degree == 2 and str(FieldDesc(1)) == "Q"


def test_field_degree_over_the_cap_raises():
    set_degree_cap(10)
    assert FieldDesc(11).degree == 10
    assert FieldDesc(22).degree == 10
    q23 = FieldDesc(23)
    for field in (q23, FieldDesc(201), FieldDesc(10 ** 20)):
        with pytest.raises(DegreeCapExceeded, match="exceeds the cap 10"):
            field.degree
    with pytest.raises(DegreeCapExceeded, match=r"^field degree phi\(23\) = 22 exceeds the cap 10$"):
        q23.degree  # a finished factorization names the value it found
    set_degree_cap(100)
    assert q23.degree == 22  # a refused attempt caches nothing


def test_huge_field_index_is_rejected_without_factoring():
    # m > 2 cap^2 forces phi(m) >= sqrt(m/2) > cap, and _factor refuses it
    # before its loop; a prime just below that bound is refused at p = 64,
    # where trial division up to its square root would take 141,421 steps
    set_degree_cap(100_000)

    def refuse(m):
        def run():
            with pytest.raises(DegreeCapExceeded, match="exceeds the cap"):
                FieldDesc(m).degree
        return run

    for m in (10 ** 100 + 267, 10 ** 5000):  # a prime, and past the int/str digit limit
        assert line_events(gha.field._factor, refuse(m))[1] <= 2
    assert line_events(gha.field._factor, refuse(2 * 10 ** 10 - 33))[1] < 300  # about 4 lines a step


def test_prime_index_past_the_cap_is_refused_at_p_64():
    # 2^61 - 1 is prime and below 2 cap^2; phi(m) >= m * (64 - 10) / 64 > cap
    # is certain once the primes below 64 are divided out
    set_degree_cap(10 ** 10)

    def refuse():
        with pytest.raises(DegreeCapExceeded) as info:
            FieldDesc(2 ** 61 - 1).degree
        assert str(info.value) == "field degree phi(2305843009213693951) exceeds the cap 10000000000"

    assert line_events(gha.field._factor, refuse)[1] < 300


def test_degree_cap_has_one_home():
    assert gha.degree_cap is gha.poly.degree_cap is degree_cap
    assert gha.set_degree_cap is gha.poly.set_degree_cap is set_degree_cap


def test_degree_cap_set_in_a_copied_context_stays_there():
    before = degree_cap()

    def capped():
        set_degree_cap(16)
        return degree_cap()

    assert contextvars.copy_context().run(capped) == 16
    assert degree_cap() == before


def test_a_new_thread_starts_at_the_default_cap():
    # threads start in a new context unless the interpreter copies the caller's into them
    set_degree_cap(16)
    seen = []
    thread = threading.Thread(target=lambda: seen.append(degree_cap()))
    thread.start()
    thread.join()
    assert seen == [16 if getattr(sys.flags, "thread_inherit_context", False) else 100_000]


KNOWN_CYCLOTOMICS = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    10: (1, -1, 1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def cyclotomic_coeffs(m):
    """Ascending coefficients of Phi_m as Fractions."""
    return tuple(c.as_fraction() for c in cyclotomic_polynomial(m).coeffs)


def test_cyclotomic_coeffs_against_table():
    for m, coeffs in KNOWN_CYCLOTOMICS.items():
        assert cyclotomic_coeffs(m) == tuple(Fraction(c) for c in coeffs)


def test_cyclotomic_product_recovers_power_minus_one():
    # prod over d | m of Phi_d(t) must equal t^m - 1; checked with plain
    # list convolution so the comparison does not reuse the implementation
    for m in range(1, 25):
        prod = [Fraction(1)]
        for d in divisors(m):
            phi_d = cyclotomic_coeffs(d)
            out = [Fraction(0)] * (len(prod) + len(phi_d) - 1)
            for a, ca in enumerate(prod):
                for b, cb in enumerate(phi_d):
                    out[a + b] += ca * cb
            prod = out
        expected = [Fraction(0)] * (m + 1)
        expected[0], expected[m] = Fraction(-1), Fraction(1)
        assert prod == expected


def test_cyclotomic_polynomial_text():
    assert cyclotomic_polynomial(6).to_text("t") == "t^2 - t + 1"
    assert cyclotomic_polynomial(1).to_text("t") == "t - 1"


def test_cyclotomic_polynomial_is_capped_and_factors_once(monkeypatch):
    # Phi_m is built from the prime powers the capped field degree found: an
    # index past the cap is refused as FieldDesc(m).degree is, and a field
    # factors its m once for both
    set_degree_cap(100_000)

    def refuse():
        with pytest.raises(DegreeCapExceeded,
                           match=r"^field degree phi\(2305843009213693951\) exceeds the cap 100000$"):
            cyclotomic_polynomial(2 ** 61 - 1)

    assert line_events(gha.field._factor, refuse)[1] <= 2
    with pytest.raises(DegreeCapExceeded, match=r"^field degree phi\(200003\) exceeds the cap 100000$"):
        cyclotomic_polynomial(200003)
    factored = []
    factor = gha.field._factor
    monkeypatch.setattr(gha.field, "_factor", lambda m, cap=None: factored.append(m) or factor(m, cap))
    field = FieldDesc(360)
    assert field.degree == 96 and len(field._cyclotomic) == 97
    assert factored.count(360) == 1


def test_rational_arithmetic():
    a = FieldElement.rational(Fraction(2, 3))
    b = FieldElement.rational(Fraction(1, 6))
    assert (a + b).as_fraction() == Fraction(5, 6)
    assert (a * b).as_fraction() == Fraction(1, 9)
    assert (a - b).as_fraction() == Fraction(1, 2)
    assert (a / b).as_fraction() == 4
    assert (a ** -1).as_fraction() == Fraction(3, 2)
    assert str(a) == "2/3"


def test_zeta4_squares_to_minus_one():
    z = FieldElement.zeta(Q4)
    assert z * z == FieldElement.rational(-1, Q4)
    assert z ** 4 == FieldElement.one(Q4)
    assert str(z) == "zeta"


def test_zeta3_inverse_frozen():
    z = FieldElement.zeta(Q3)
    inv = z.inverse()
    assert inv.coords == (Fraction(-1), Fraction(-1))
    assert inv * z == FieldElement.one(Q3)
    assert str(inv) == "-zeta - 1"


def test_minimal_polynomial_annihilates_zeta():
    for m in range(1, 25):
        desc = FieldDesc(m)
        z = FieldElement.zeta(desc)
        phi = cyclotomic_coeffs(m)
        acc = FieldElement.zero(desc)
        power = FieldElement.one(desc)
        for c in phi:
            acc = acc + power * FieldElement.rational(c, desc)
            power = power * z
        assert acc.is_zero
        assert z ** m == FieldElement.one(desc)
        for j in range(1, m):
            assert z ** j != FieldElement.one(desc)


def test_zeta_power_wraps_modulo_m():
    z = FieldElement.zeta(Q6)
    assert FieldElement.zeta_power(Q6, 7) == z
    assert FieldElement.zeta_power(Q6, -1) == z ** 5
    assert FieldElement.zeta_power(Q6, 0) == FieldElement.one(Q6)


def test_embedding_zeta3_into_q_zeta6():
    z3 = FieldElement.zeta(Q3)
    lifted = z3.embed(Q6)
    assert lifted.coords == (Fraction(-1), Fraction(1))
    # zeta_6^2 is the canonical image of zeta_3
    assert lifted == FieldElement.zeta_power(Q6, 2)
    assert lifted ** 3 == FieldElement.one(Q6)


def test_embedding_is_ring_homomorphism():
    rng = random.Random(61)
    for _ in range(25):
        coords = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
        other = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2))
        a, b = FieldElement(Q4, coords), FieldElement(Q4, other)
        big = FieldDesc(12)
        assert (a + b).embed(big) == a.embed(big) + b.embed(big)
        assert (a * b).embed(big) == a.embed(big) * b.embed(big)


def test_embedding_requires_divisibility():
    with pytest.raises(NoEmbedding):
        FieldElement.zeta(Q4).embed(Q6)
    assert not Q4.embeds_into(Q6)
    assert Q3.embeds_into(Q6)
    assert Q3.join(Q4) == FieldDesc(12)


def test_phi_m_goes_away_with_its_field():
    # Phi_m is cached on its FieldDesc: once the fields are dropped, the
    # package holds none of the 8 KB Phi_p of the primes p it reduced by
    primes = [p for p in range(1013, 1124) if all(p % d for d in range(2, 34))][:8]
    FieldElement.zeta_power(FieldDesc(1009), 1008)  # warm-up: first-call allocations
    package = os.path.dirname(gha.__file__)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for p in primes:
            FieldElement.zeta_power(FieldDesc(p), p - 1)  # zeta^(p-1), reduced mod Phi_p
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    only = [tracemalloc.Filter(True, os.path.join(package, "*"))]
    kept = sum(d.size_diff for d in after.filter_traces(only).compare_to(
        before.filter_traces(only), "filename"))
    assert kept < sys.getsizeof(tuple(range(primes[0]))), kept


def test_rationals_embed_everywhere():
    half = FieldElement.rational(Fraction(1, 2))
    lifted = half.embed(Q6)
    assert lifted.desc == Q6
    assert lifted.as_fraction() == Fraction(1, 2)


def test_field_axioms_random():
    rng = random.Random(1201)
    for m in (1, 3, 4, 6, 8, 12):
        desc = FieldDesc(m)
        deg = desc.degree
        def pick():
            return FieldElement(
                desc, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(deg))
            )
        for _ in range(20):
            a, b, c = pick(), pick(), pick()
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            if not a.is_zero:
                assert a * a.inverse() == FieldElement.one(desc)


def test_mixed_field_operations_raise():
    with pytest.raises(FieldMismatch):
        FieldElement.zeta(Q3) + FieldElement.zeta(Q4)
    with pytest.raises(FieldMismatch):
        FieldElement.zeta(Q3) * FieldElement.zeta(Q4)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        FieldElement.zero(Q4).inverse()
    with pytest.raises(ZeroDivisionError):
        FieldElement.one(RATIONALS) / FieldElement.zero(RATIONALS)
    for field in (RATIONALS, Q4):
        with pytest.raises(ZeroDivisionError, match="^inversion of zero field element$"):
            FieldElement.zero(field).inverse()


def test_int_and_fraction_coercion():
    z = FieldElement.zeta(Q4)
    assert z + 0 == z
    assert z * 2 == z + z
    assert (z - Fraction(1, 2)) + Fraction(1, 2) == z
    assert 1 - z == -(z - 1)


def test_constructors_take_what_fraction_takes():
    want = FieldElement(Q4, (Fraction(1, 2), Fraction(-3)))
    assert FieldElement(Q4, ("1/2", "-3")) == want
    assert FieldElement(Q4, (0.5, -3)) == want
    assert FieldElement.rational("-7/14") == FieldElement(RATIONALS, ("-1/2",))
    assert Poly(Q4, ("1/2", want)) == Poly(Q4, (FieldElement.rational(Fraction(1, 2), Q4), want))
    with pytest.raises(ValueError):
        FieldElement(Q4, ("1/2", "three"))


def test_construction_keeps_its_checks():
    # a scalar of Q reads its one ratio as the pair; Poly compares fields by identity first
    e = FieldElement(RATIONALS, ("-10/4",))
    assert (e.num, e.den) == ((-5,), 2) and e == Fraction(-5, 2)
    with pytest.raises(ValueError, match="^expected 1 coordinates for Q, got 2$"):
        FieldElement(RATIONALS, (1, 2))
    with pytest.raises(ValueError, match=r"^expected 2 coordinates for Q\(zeta_3\), got 1$"):
        FieldElement(Q3, (1,))
    with pytest.raises(FieldMismatch, match=r"^coefficient in Q\(zeta_4\), expected Q\(zeta_3\)$"):
        Poly(Q3, (1, FieldElement.zeta(Q4)))
    twin = FieldDesc(4)  # equal to Q4, another object
    assert Poly(twin, (FieldElement.zeta(Q4), 2)) == Poly(Q4, (FieldElement.zeta(Q4), 2))


def test_display_forms():
    z = FieldElement.zeta(Q6)
    e = z * 2 - 1 + z * z  # zeta^2 reduces to zeta - 1 in Q(zeta_6)
    assert str(e) == "3*zeta - 2"
    assert str(FieldElement.zero(Q6)) == "0"
    assert str(-z) == "-zeta"


def test_desc_str_and_m_validation():
    assert str(RATIONALS) == "Q"
    assert str(Q6) == "Q(zeta_6)"
    with pytest.raises(ValueError):
        FieldDesc(0)


def test_zero_indices_and_irrational_scalars_are_refused():
    with pytest.raises(ValueError, match="^degree cap must be positive$"):
        set_degree_cap(0)
    with pytest.raises(ValueError, match="^cyclotomic index must be a positive integer$"):
        cyclotomic_polynomial(0)
    zeta = FieldElement.zeta(Q3)
    with pytest.raises(UnsupportedCase, match="^zeta is not a rational number$"):
        zeta.as_fraction()
    assert 2 / zeta == zeta * -2 - 2  # 1/zeta = zeta^2 = -zeta - 1 in Q(zeta_3)


@pytest.mark.parametrize("m", [1, 3, 4])
def test_scalar_hash_agrees_with_equality(m):
    desc = FieldDesc(m)
    z = FieldElement.zeta(desc)
    for v in (FieldElement.rational(2, desc), FieldElement.rational(Fraction(-7, 3), desc),
              FieldElement.zero(desc), z * z.inverse() * Fraction(5, 4)):
        assert hash(v) == hash(v.as_fraction())
        assert v.as_fraction() in {v}
        assert v in {v.as_fraction()}
    if m > 1:  # not rational-valued, so equal to no int or Fraction
        assert z not in {FieldElement.rational(1, desc), 1} and z in {FieldElement.zeta(desc)}


# Outcomes of +, -, * and == at the parent of the shared pair class, for the
# operands of _operands; an error outcome is "Type: message".
_OUTCOMES = {
    (1, "int", "fe"): ("FieldElement: 4", "FieldElement: 0", "FieldElement: 4", True),
    (1, "int", "poly"): ("Poly: h + 4", "Poly: -h", "Poly: 2*h + 4", False),
    (1, "frac", "fe"): ("FieldElement: 5/2", "FieldElement: -3/2", "FieldElement: 1", False),
    (1, "frac", "poly"): ("Poly: h + 5/2", "Poly: -h - 3/2", "Poly: 1/2*h + 1", False),
    (1, "fe", "int"): ("FieldElement: 4", "FieldElement: 0", "FieldElement: 4", True),
    (1, "fe", "frac"): ("FieldElement: 5/2", "FieldElement: 3/2", "FieldElement: 1", False),
    (1, "fe", "fe"): ("FieldElement: 4", "FieldElement: 0", "FieldElement: 4", True),
    (1, "fe", "poly"): ("Poly: h + 4", "Poly: -h", "Poly: 2*h + 4", False),
    (1, "poly", "int"): ("Poly: h + 4", "Poly: h", "Poly: 2*h + 4", False),
    (1, "poly", "frac"): ("Poly: h + 5/2", "Poly: h + 3/2", "Poly: 1/2*h + 1", False),
    (1, "poly", "fe"): ("Poly: h + 4", "Poly: h", "Poly: 2*h + 4", False),
    (1, "poly", "poly"): ("Poly: 2*h + 4", "Poly: 0", "Poly: h^2 + 4*h + 4", True),
    (3, "int", "fe"): ("FieldElement: zeta + 3", "FieldElement: -zeta + 1",
                       "FieldElement: 2*zeta + 2", False),
    (3, "int", "poly"): ("Poly: h + zeta + 3", "Poly: -h + -zeta + 1",
                         "Poly: 2*h + 2*zeta + 2", False),
    (3, "frac", "fe"): ("FieldElement: zeta + 3/2", "FieldElement: -zeta - 1/2",
                        "FieldElement: 1/2*zeta + 1/2", False),
    (3, "frac", "poly"): ("Poly: h + zeta + 3/2", "Poly: -h + -zeta - 1/2",
                          "Poly: 1/2*h + 1/2*zeta + 1/2", False),
    (3, "fe", "int"): ("FieldElement: zeta + 3", "FieldElement: zeta - 1",
                       "FieldElement: 2*zeta + 2", False),
    (3, "fe", "frac"): ("FieldElement: zeta + 3/2", "FieldElement: zeta + 1/2",
                        "FieldElement: 1/2*zeta + 1/2", False),
    (3, "fe", "fe"): ("FieldElement: 2*zeta + 2", "FieldElement: 0", "FieldElement: zeta", True),
    (3, "fe", "poly"): ("Poly: h + 2*zeta + 2", "Poly: -h", "Poly: (zeta + 1)*h + zeta", False),
    (3, "poly", "int"): ("Poly: h + zeta + 3", "Poly: h + zeta - 1",
                         "Poly: 2*h + 2*zeta + 2", False),
    (3, "poly", "frac"): ("Poly: h + zeta + 3/2", "Poly: h + zeta + 1/2",
                          "Poly: 1/2*h + 1/2*zeta + 1/2", False),
    (3, "poly", "fe"): ("Poly: h + 2*zeta + 2", "Poly: h", "Poly: (zeta + 1)*h + zeta", False),
    (3, "poly", "poly"): ("Poly: 2*h + 2*zeta + 2", "Poly: 0",
                          "Poly: h^2 + (2*zeta + 2)*h + zeta", True),
    (4, "int", "fe"): ("FieldElement: zeta + 3", "FieldElement: -zeta + 1",
                       "FieldElement: 2*zeta + 2", False),
    (4, "int", "poly"): ("Poly: h + zeta + 3", "Poly: -h + -zeta + 1",
                         "Poly: 2*h + 2*zeta + 2", False),
    (4, "frac", "fe"): ("FieldElement: zeta + 3/2", "FieldElement: -zeta - 1/2",
                        "FieldElement: 1/2*zeta + 1/2", False),
    (4, "frac", "poly"): ("Poly: h + zeta + 3/2", "Poly: -h + -zeta - 1/2",
                          "Poly: 1/2*h + 1/2*zeta + 1/2", False),
    (4, "fe", "int"): ("FieldElement: zeta + 3", "FieldElement: zeta - 1",
                       "FieldElement: 2*zeta + 2", False),
    (4, "fe", "frac"): ("FieldElement: zeta + 3/2", "FieldElement: zeta + 1/2",
                        "FieldElement: 1/2*zeta + 1/2", False),
    (4, "fe", "fe"): ("FieldElement: 2*zeta + 2", "FieldElement: 0", "FieldElement: 2*zeta", True),
    (4, "fe", "poly"): ("Poly: h + 2*zeta + 2", "Poly: -h", "Poly: (zeta + 1)*h + 2*zeta", False),
    (4, "poly", "int"): ("Poly: h + zeta + 3", "Poly: h + zeta - 1",
                         "Poly: 2*h + 2*zeta + 2", False),
    (4, "poly", "frac"): ("Poly: h + zeta + 3/2", "Poly: h + zeta + 1/2",
                          "Poly: 1/2*h + 1/2*zeta + 1/2", False),
    (4, "poly", "fe"): ("Poly: h + 2*zeta + 2", "Poly: h", "Poly: (zeta + 1)*h + 2*zeta", False),
    (4, "poly", "poly"): ("Poly: 2*h + 2*zeta + 2", "Poly: 0",
                          "Poly: h^2 + (2*zeta + 2)*h + 2*zeta", True),
}
# Pairs with a value over Q(zeta_5) ("fe'", "poly'"): +, - and * raise FieldMismatch
# with this message ({F} the field, {O} Q(zeta_5)), and == is False.
_MISMATCH = {
    ("fe", "fe'"): "cannot combine {F} with {O}",
    ("fe", "poly'"): "coefficient in {F}, expected {O}",
    ("poly", "fe'"): "coefficient in {O}, expected {F}",
    ("poly", "poly'"): "cannot combine {F} with {O}",
    ("fe'", "fe"): "cannot combine {O} with {F}",
    ("fe'", "poly"): "coefficient in {O}, expected {F}",
    ("poly'", "fe"): "coefficient in {F}, expected {O}",
    ("poly'", "poly"): "cannot combine {O} with {F}",
}


def _operands(desc):
    fe = FieldElement.zeta(desc) + 1  # 2 over Q
    other = FieldDesc(5)
    return {"int": 2, "frac": Fraction(1, 2), "fe": fe, "poly": Poly(desc, (fe, 1)),
            "fe'": FieldElement.zeta(other), "poly'": Poly.gen(other)}


def _outcome(op, a, b):
    try:
        r = op(a, b)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return r if isinstance(r, bool) else f"{type(r).__name__}: {r}"


@pytest.mark.parametrize("m", [1, 3, 4])
def test_mixed_operands_keep_their_classes_values_and_errors(m):
    desc = FieldDesc(m)
    vals = _operands(desc)
    ops = (operator.add, operator.sub, operator.mul, operator.eq)
    want = {(l, r): row for (mm, l, r), row in _OUTCOMES.items() if mm == m}
    for (l, r), msg in _MISMATCH.items():
        err = "FieldMismatch: " + msg.format(F=desc, O=FieldDesc(5))
        want[(l, r)] = (err, err, err, False)
    assert len(want) == 20
    for (l, r), row in want.items():
        a, b = vals[l], vals[r]
        assert tuple(_outcome(op, a, b) for op in ops) == row, (l, r)
        if a == b:
            assert hash(a) == hash(b), (l, r)
    assert Poly.constant(desc, vals["fe"]) != vals["fe"] and Poly.one(desc) != 1


def test_scalar_and_polynomial_share_one_pair_class():
    shared = {"_from_ints", "_coerce", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__"}
    assert not shared & set(vars(FieldElement)) and not shared & set(vars(Poly))
    assert FieldElement.__mro__[1] is Poly.__mro__[1]
    assert FieldElement.rational(3).desc == RATIONALS
    # +, -, * and truth are written once, in _Ring, for all three value kinds
    ring = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__bool__"}
    for cls in (FieldElement, Poly, _Pair, AlgebraElement):
        assert not ring & set(vars(cls)), cls
    assert ring <= set(vars(_Ring)) and _Ring in AlgebraElement.__mro__


@pytest.mark.parametrize("foreign", [0.5, Decimal(1), 1j, "1", object()],
                         ids=lambda v: "object()" if type(v) is object else repr(v))  # no address in an id
def test_a_foreign_operand_raises_type_error(foreign):
    # no float, Decimal, complex or str mixes into an exact value, on either side
    ctx = Context(Poly(RATIONALS, (0, 0, 1)))
    values = (FieldElement.rational(Fraction(2, 3)), FieldElement.zeta(Q3),
              Poly(Q3, (1, FieldElement.zeta(Q3))), AlgebraElement.from_poly(ctx, ctx.f))
    ops = (operator.add, operator.sub, operator.mul, operator.truediv, divmod)
    for v in values:
        for op in ops:
            for a, b in ((v, foreign), (foreign, v)):
                with pytest.raises(TypeError):
                    op(a, b)
