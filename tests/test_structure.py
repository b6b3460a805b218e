"""Classification flags, ideal-chain witness, center and H0 membership."""

import math
import random
from fractions import Fraction

import pytest

from gha import structure
from gha.core import AlgebraElement, Context, commutator, generators
from gha.errors import UnsupportedCase
from gha.field import FieldDesc, FieldElement, RATIONALS, divisors
from gha.parser import parse_element, parse_poly
from gha.poly import Poly, poly_gcd, sigma_power_h
from gha.structure import (
    CenterKind,
    GradingFamily,
    admissible_generator_gradings,
    center_membership,
    classify,
    find_shift_root,
    is_admissible_grading,
    noetherian_witness,
    shift_polynomial,
    zh_membership,
)

from .helpers import random_poly


def ctx_for(ftxt: str) -> Context:
    return Context(parse_poly(ftxt))


def test_classify_quadratic():
    c = classify(ctx_for("h^2"))
    assert c.deg_f == 2
    assert c.is_domain
    assert not c.is_noetherian
    assert not c.is_generalized_down_up
    assert c.center_description == CenterKind.POLYNOMIAL_IN_Z


def test_classify_linear():
    c = classify(ctx_for("2*h + 1"))
    assert c.deg_f == 1
    assert c.is_domain
    assert c.is_noetherian
    assert c.is_generalized_down_up
    assert c.center_description == CenterKind.NOT_COMPUTED_DEG_ONE


def test_classify_degenerate():
    c = classify(Context(Poly.zero(RATIONALS)))
    assert c.deg_f == 0
    assert not c.is_domain
    assert not c.is_noetherian
    assert c.is_generalized_down_up
    c5 = classify(Context(Poly.constant(RATIONALS, 5)))
    assert c5.deg_f == 0 and not c5.is_domain


def test_witness_square_never_contains_h():
    reports = noetherian_witness(ctx_for("h^2"), 3)
    assert [r.n for r in reports] == [0, 1, 2, 3]
    for r in reports:
        assert r.generator_gcd == parse_poly("h^2")
        assert not r.is_member


def test_witness_linear_f_membership():
    reports = noetherian_witness(ctx_for("2*h"), 2)
    for r in reports:
        assert r.generator_gcd == parse_poly("h")
        assert r.is_member


def test_witness_zero_f():
    reports = noetherian_witness(Context(Poly.zero(RATIONALS)), 2)
    for r in reports:
        assert r.generator_gcd.is_zero
        assert not r.is_member


def test_witness_gcd_stabilizes_at_f():
    # with f(0) = 0 each sigma^j(h) is a multiple of the previous one,
    # so the generator gcd is f.monic() at every n
    reports = noetherian_witness(ctx_for("h^3 + h^2"), 4)
    for r in reports:
        assert r.generator_gcd == parse_poly("h^3 + h^2")
        assert not r.is_member


def test_witness_matches_the_gcd_of_the_generators():
    # the reference: the monic gcd of sigma^1(h), ..., sigma^(n+1)(h), built in full
    rng = random.Random(1509)
    for _ in range(25):
        field = FieldDesc(rng.choice((1, 3, 4)))
        f = random_poly(rng, field, max_degree=4, span=3)
        f = f - f.coeff(0)
        max_n = rng.randint(0, 3)
        h = Poly.gen(field)
        g = Poly.zero(field)
        for r in noetherian_witness(Context(f), max_n):
            g = poly_gcd(g, sigma_power_h(f, r.n + 1))
            assert r.generator_gcd == g
            assert r.is_member == ((not g.is_zero) and (h % g).is_zero)


def test_witness_requires_zero_constant_term():
    with pytest.raises(UnsupportedCase):
        noetherian_witness(ctx_for("h^2 + 1"), 2)


def test_shift_root_and_shift_polynomial():
    # f = h^2 - 2: f(h) - h = h^2 - h - 2 = (h-2)(h+1)
    f = parse_poly("h^2 - 2")
    alpha = find_shift_root(f)
    assert alpha is not None
    assert f(alpha) == alpha
    shifted = shift_polynomial(f, alpha)
    assert shifted.coeff(0).is_zero
    # and the shift is reversible
    minus = FieldElement.rational(-alpha.as_fraction())
    assert shift_polynomial(shifted, minus) == f
    for ftxt in ("h^2 + h", "h"):  # h divides f(h) - h: the root 0 at once
        assert find_shift_root(parse_poly(ftxt)) == FieldElement.zero(RATIONALS)


def test_shift_root_none_when_irrational():
    assert find_shift_root(parse_poly("h^2 + 1")) is None  # h^2 - h + 1 has no real root
    root = find_shift_root(parse_poly("h^2 + h - 1"))  # f - h = h^2 - 1
    assert root is not None and root.as_fraction() in (1, -1)
    assert find_shift_root(parse_poly("h^2 + zeta", FieldDesc(3))) is None  # not rational


def _first_rational_root(f: Poly):
    """The search find_shift_root made before it skipped non-reduced pairs and
    evaluated on integers: every num/den, num | a_0 and den | a_n, through Poly."""
    p = f - Poly.gen(f.field)
    coeffs = [c.as_fraction() for c in p.coeffs]
    den = math.lcm(*[c.denominator for c in coeffs])
    ints = [int(c * den) for c in coeffs]
    for num in divisors(abs(ints[0])):
        for den in divisors(abs(ints[-1])):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if p(FieldElement.rational(cand, f.field)).is_zero:
                    return cand
    return None


def test_shift_root_matches_the_search_over_every_pair():
    # the first root in the order of the full search, over random f with
    # planted rational roots: a pair with gcd > 1 repeats an earlier value
    rng = random.Random(24)
    for _ in range(150):
        roots = [Fraction(rng.randint(-24, 24), rng.randint(1, 12)) for _ in range(rng.randint(1, 3))]
        p = Poly(RATIONALS, (rng.choice([1, 2, 6, 12]),))
        for r in roots:
            p = p * Poly(RATIONALS, (-r, 1))
        p = p * random_poly(rng, RATIONALS, max_degree=2)
        f = p + Poly.gen(RATIONALS)
        if p.is_zero or p.coeff(0).is_zero:
            continue
        root = find_shift_root(f)
        expected = _first_rational_root(f)
        assert expected is not None and root.as_fraction() == expected, str(f)


def test_shift_root_trial_divides_twice_and_composes_nothing(monkeypatch):
    # a_0 and a_n are trial-divided once each, and no candidate is evaluated
    # through a Poly: 720720 has 240 divisors, so 2 * 240 * 240 candidates
    calls = []

    def counting(m):
        calls.append(m)
        return divisors(m)

    def composing(*args):
        raise AssertionError("a candidate was evaluated through Poly.compose")

    monkeypatch.setattr(structure, "divisors", counting)
    monkeypatch.setattr(Poly, "compose", composing)
    assert find_shift_root(parse_poly("720720*h^2 + 3*h + 720720")) is None
    assert sorted(calls) == [720720, 720720]
    # f(h) - h = (3h + 1)(2h - 1): 1/2 comes before -1/3
    assert find_shift_root(parse_poly("6*h^2 - 1")) == FieldElement.rational(Fraction(1, 2))
    assert len(calls) == 4


def test_center_powers_of_z():
    ctx = ctx_for("h^2")
    _, _, _, z = generators(ctx)
    for k in range(4):
        p = center_membership(z ** k)
        assert p is not None
        assert p == Poly.gen(RATIONALS) ** k


def test_center_rejects_h_and_x():
    ctx = ctx_for("h^2")
    x, _, h, _ = generators(ctx)
    assert center_membership(h) is None
    assert center_membership(x) is None
    assert center_membership(x * h) is None


def test_center_accepts_constants():
    ctx = ctx_for("h^3")
    e = AlgebraElement.from_scalar(ctx, Fraction(5, 3))
    p = center_membership(e)
    assert p == Poly.constant(RATIONALS, Fraction(5, 3))
    assert center_membership(AlgebraElement.zero(ctx)).is_zero


@pytest.mark.parametrize("ftxt", ["2", "0"])
def test_center_of_a_constant_f(ftxt):
    ctx = ctx_for(ftxt)
    x, y, h, z = generators(ctx)
    assert center_membership(z * z + 1) == parse_poly("h^2 + 1")
    assert center_membership(x * y) is None  # z + h: h is left after z is peeled
    assert center_membership(z * h) is None


def test_center_random_roundtrip():
    rng = random.Random(112)
    for ftxt in ("h^2", "h^3+h"):
        ctx = ctx_for(ftxt)
        _, _, _, z = generators(ctx)
        for _ in range(15):
            q = random_poly(rng, ctx.field, max_degree=3)
            e = AlgebraElement.zero(ctx)
            for j in range(4):
                c = q.coeff(j)
                if not c.is_zero:
                    e = e + z ** j * c
            assert center_membership(e) == q
            assert commutator(e, generators(ctx).x).is_zero


def test_center_members_commute():
    ctx = ctx_for("h^3+h+1")
    x, y, h, z = generators(ctx)
    w = z ** 2 - 3 * z + 1
    for g in (x, y, h):
        assert commutator(w, g).is_zero
    assert center_membership(w) is not None


def test_center_requires_nonlinear_f():
    ctx = ctx_for("h")
    with pytest.raises(UnsupportedCase):
        center_membership(AlgebraElement.one(ctx))


def test_zh_membership_examples():
    for ftxt in ("h^2", "h^3+h"):
        ctx = ctx_for(ftxt)
        assert zh_membership(parse_element("x*h*y", ctx)) is None
    ctx = ctx_for("h^2")
    got = zh_membership(parse_element("h^3 + z", ctx))
    assert got == {0: parse_poly("h^3"), 1: Poly.one(RATIONALS)}
    got2 = zh_membership(parse_element("h * z^2", ctx))
    assert got2 == {2: parse_poly("h")}


def test_zh_membership_roundtrip():
    rng = random.Random(2205)
    ctx = ctx_for("h^2")
    _, _, h, z = generators(ctx)
    for _ in range(20):
        pieces = {}
        e = AlgebraElement.zero(ctx)
        for k in range(rng.randint(1, 3)):
            p = random_poly(rng, ctx.field, max_degree=2)
            if p.is_zero:
                continue
            pieces[k] = p
            e = e + AlgebraElement.from_poly(ctx, p) * z ** k
        if not pieces:
            continue
        got = zh_membership(e)
        # representation as sum p_k(h) z^k is unique; strip zero rows
        assert got == pieces


def test_zh_membership_preconditions():
    ctx = ctx_for("h^2")
    x, _, _, _ = generators(ctx)
    with pytest.raises(UnsupportedCase):
        zh_membership(x)  # not in the degree-0 subalgebra
    lin = ctx_for("h")
    with pytest.raises(UnsupportedCase):
        zh_membership(AlgebraElement.one(lin))


def test_grading_family_shape():
    fam = GradingFamily()
    assert fam.generator == (1, -1, 0)
    assert fam.member(3) == (3, -3, 0)
    assert fam.contains((2, -2, 0))
    assert not fam.contains((1, -1, 1))
    assert str(fam) == "(l, -l, 0) for every integer l"


@pytest.mark.parametrize("generator, text", [
    ((2, -2, 0), "(2l, -2l, 0) for every integer l"),
    ((-3, 1, 5), "(-3l, l, 5l) for every integer l"),
    ((0, 0, -1), "(0, 0, -l) for every integer l"),
    ((0, 0, 0), "(0, 0, 0) for every integer l"),
])
def test_grading_family_of_another_generator(generator, text):
    fam = GradingFamily(generator)
    assert str(fam) == text
    for l in range(-7, 8):
        assert fam.contains(fam.member(l))
    others = [(1, -1, 0), (3, -3, 0), (2, -2, 1), (1, 0, 0), (0, 0, 1), (-1, 1, 0), (4, -3, 0)]
    for triple in others:
        multiple = any(fam.member(l) == triple for l in range(-5, 6))
        assert fam.contains(triple) == multiple, triple
    if generator == (2, -2, 0):
        assert not fam.contains((1, -1, 0))
    if generator == (0, 0, 0):
        assert fam.contains((0, 0, 0)) and not any(map(fam.contains, others))


def test_is_admissible_grading():
    ctx = ctx_for("h^2")
    assert is_admissible_grading(ctx, (1, -1, 0))
    assert is_admissible_grading(ctx, (2, -2, 0))
    assert is_admissible_grading(ctx, (0, 0, 0))
    assert not is_admissible_grading(ctx, (1, -1, 1))
    assert not is_admissible_grading(ctx, (1, 0, 0))
    assert not is_admissible_grading(ctx, (1, -2, 0))


def test_admissible_gradings_forced_family():
    for ftxt in ("h^2", "h^3+h+1", "h^5"):
        fam = admissible_generator_gradings(ctx_for(ftxt))
        assert fam == GradingFamily()


def test_admissible_gradings_need_nonlinear_f():
    with pytest.raises(UnsupportedCase):
        admissible_generator_gradings(ctx_for("h + 1"))
