"""Seeded random builders and reference arithmetic shared by the test modules.

Everything random takes an explicit random.Random so failures reproduce
from the seed alone.  The references share no code with the package.
"""

from __future__ import annotations

import random
from fractions import Fraction

from gha.core import AlgebraElement, Context
from gha.field import FieldDesc, FieldElement, divisors
from gha.poly import Poly

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


def digits(n: int) -> str:
    """Decimal digits of n in chunks of 1000, each short enough for str()."""
    sign, n, chunks = "-" if n < 0 else "", abs(n), []
    while n >= 10 ** 1000:
        n, low = divmod(n, 10 ** 1000)
        chunks.append(str(low).zfill(1000))
    return sign + str(n) + "".join(reversed(chunks))


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
