"""Derivations, the diagonal scaling family, and x-fixing automorphisms."""

import random
from fractions import Fraction

import pytest

from gha.core import AlgebraElement, Context, apply_phi_lambda, generators
from gha.errors import UnsupportedCase
from gha.field import FieldDesc, FieldElement, RATIONALS
from gha.morphisms import (
    AutGroup,
    DerivationSpec,
    apply_derivation,
    apply_x_fixing_automorphism,
    automorphism_group,
    check_derivation,
    classify_locally_finite,
    derivation_homogeneous_parts,
    derivation_power_bounded,
    x_fixing_pair_is_valid,
)
from gha.parser import parse_element, parse_poly
from gha.poly import Poly

from .helpers import random_element, random_scalar, x_fixing_pairs_by_divisor


def ctx_for(ftxt: str, field=None) -> Context:
    return Context(parse_poly(ftxt, field))


@pytest.fixture
def ctx():
    return ctx_for("h^2")


def test_diagonal_derivation_satisfies_relations(ctx):
    d = DerivationSpec.diagonal(ctx)
    assert check_derivation(d)
    for lam in (Fraction(-2), Fraction(5, 3)):
        assert check_derivation(DerivationSpec.diagonal(ctx, lam))


def test_zero_derivation_and_twisted_example(ctx):
    zero = AlgebraElement.zero(ctx)
    assert check_derivation(DerivationSpec(ctx, zero, zero, zero))
    x, y, _, z = generators(ctx)
    twisted = DerivationSpec(ctx, x * z, -(z * y), zero)
    assert check_derivation(twisted)


def test_x_only_scaling_is_not_a_derivation(ctx):
    x, _, _, _ = generators(ctx)
    zero = AlgebraElement.zero(ctx)
    assert not check_derivation(DerivationSpec(ctx, x, zero, zero))


def test_apply_derivation_scales_by_degree(ctx):
    d = DerivationSpec.diagonal(ctx)
    x, y, h, z = generators(ctx)
    assert apply_derivation(d, x * x * y) == x * x * y  # degree 1
    assert apply_derivation(d, x ** 3) == 3 * x ** 3
    assert apply_derivation(d, h ** 4).is_zero
    assert apply_derivation(d, z).is_zero
    assert apply_derivation(d, AlgebraElement.one(ctx)).is_zero


def test_apply_derivation_is_leibniz(ctx):
    rng = random.Random(99)
    x, y, _, z = generators(ctx)
    for d in (
        DerivationSpec.diagonal(ctx, Fraction(2)),
        DerivationSpec(ctx, x * z, -(z * y), AlgebraElement.zero(ctx)),
    ):
        for _ in range(12):
            a = random_element(rng, ctx, max_ik=2, max_degree=2)
            b = random_element(rng, ctx, max_ik=2, max_degree=2)
            assert apply_derivation(d, a * b) == apply_derivation(d, a) * b + a * apply_derivation(d, b)
            assert apply_derivation(d, a + b) == apply_derivation(d, a) + apply_derivation(d, b)


def test_derivation_homogeneous_parts(ctx):
    d = DerivationSpec.diagonal(ctx)
    parts = derivation_homogeneous_parts(d)
    assert list(parts) == [0]
    assert parts[0].im_x == d.im_x and parts[0].im_y == d.im_y

    x, y, _, _ = generators(ctx)
    mixed = DerivationSpec(ctx, x, x, AlgebraElement.zero(ctx))
    parts = derivation_homogeneous_parts(mixed)
    # x as image of x sits in degree 0; x as image of y sits in degree 2
    assert sorted(parts) == [0, 2]
    assert parts[0].im_x == x and parts[0].im_y.is_zero
    assert parts[2].im_y == x and parts[2].im_x.is_zero


def test_classify_locally_finite_scalars(ctx):
    for lam in (Fraction(1), Fraction(-2), Fraction(5, 3)):
        d = DerivationSpec.diagonal(ctx, lam)
        got = classify_locally_finite(d)
        assert got == FieldElement.rational(lam)


def test_classify_rejects_twisted_derivation(ctx):
    x, y, _, z = generators(ctx)
    twisted = DerivationSpec(ctx, x * z, -(z * y), AlgebraElement.zero(ctx))
    assert classify_locally_finite(twisted) is None


def test_classify_preconditions(ctx):
    x, _, _, _ = generators(ctx)
    zero = AlgebraElement.zero(ctx)
    with pytest.raises(UnsupportedCase):
        classify_locally_finite(DerivationSpec(ctx, x, zero, zero))  # not a derivation
    lin = ctx_for("h")
    zl = AlgebraElement.zero(lin)
    with pytest.raises(UnsupportedCase):
        classify_locally_finite(DerivationSpec(lin, zl, zl, zl))  # deg f too small


def test_nilpotency_probe(ctx):
    d = DerivationSpec.diagonal(ctx)
    x, _, h, _ = generators(ctx)
    probe = derivation_power_bounded(d, x, 10)
    assert not probe.nilpotent and probe.steps == 10
    assert str(probe) == "NotNilpotentWithin(10)"
    probe_h = derivation_power_bounded(d, h, 10)
    assert probe_h.nilpotent and probe_h.steps == 1
    assert str(probe_h) == "NilpotentAt(1)"
    assert derivation_power_bounded(d, AlgebraElement.zero(ctx), 10).steps == 0


def test_x_fixing_pair_validity():
    f = parse_poly("h^3 + h")
    one = FieldElement.one(RATIONALS)
    minus = FieldElement.rational(-1)
    zero = FieldElement.zero(RATIONALS)
    assert x_fixing_pair_is_valid(f, one, zero)
    assert x_fixing_pair_is_valid(f, minus, zero)  # f is odd
    assert not x_fixing_pair_is_valid(f, minus, one)
    assert not x_fixing_pair_is_valid(parse_poly("h^3 + h + 1"), minus, zero)


def test_automorphism_tables():
    expected = {
        "h^2": 1,
        "h^3+h": 2,
        "h^3+h+1": 1,
        "h^3": 2,
        "h^4": 3,
        "h^5": 4,
        "h^6": 5,
        "h^3+1": 1,
        "h^4+1": 1,
        "h^5+1": 1,
        "h^7+h^4": 3,
    }
    for ftxt, k in expected.items():
        group = automorphism_group(ctx_for(ftxt))
        assert group.cyclic_order == k, ftxt
        a, b = group.generator
        assert b.is_zero
        assert a ** k == FieldElement.one(a.desc)
        assert group.describe() == f"C* x Z_{k}"


def test_automorphism_generator_h3_plus_h():
    group = automorphism_group(ctx_for("h^3+h"))
    a, b = group.generator
    assert a == FieldElement.rational(-1)
    assert b == FieldElement.zero(RATIONALS)
    assert group.field == RATIONALS


def test_automorphism_group_cyclotomic_generator():
    group = automorphism_group(ctx_for("h^4"))
    assert group.cyclic_order == 3
    assert group.field == FieldDesc(3)
    a, _ = group.generator
    assert a == FieldElement.zeta(FieldDesc(3))
    assert x_fixing_pair_is_valid(parse_poly("h^4"), a, FieldElement.zero(FieldDesc(3)))


def test_automorphism_nonzero_shift():
    # (h-1)^3 + (h-1) + 1 is the odd cubic recentered at 1, so the order-2
    # symmetry survives but with shift b = 2
    group = automorphism_group(ctx_for("h^3 - 3h^2 + 4h - 1"))
    assert group.cyclic_order == 2
    a, b = group.generator
    assert a == FieldElement.rational(-1)
    assert b == FieldElement.rational(2)
    assert x_fixing_pair_is_valid(parse_poly("h^3 - 3h^2 + 4h - 1"), a, b)


def test_automorphism_requires_nonlinear(ctx):
    with pytest.raises(UnsupportedCase):
        automorphism_group(ctx_for("3h + 2"))


def test_apply_x_fixing_automorphism_h3_plus_h():
    ctx = ctx_for("h^3+h")
    x, y, h, z = generators(ctx)
    pair = automorphism_group(ctx).generator
    assert apply_x_fixing_automorphism(pair, x) == x
    assert apply_x_fixing_automorphism(pair, h) == -h
    assert apply_x_fixing_automorphism(pair, y) == -y
    assert apply_x_fixing_automorphism(pair, z) == -z


def test_apply_automorphism_is_homomorphism():
    rng = random.Random(2718)
    ctx = ctx_for("h^3+h")
    pair = automorphism_group(ctx).generator
    for _ in range(15):
        a = random_element(rng, ctx, max_ik=2, max_degree=2)
        b = random_element(rng, ctx, max_ik=2, max_degree=2)
        fa = apply_x_fixing_automorphism(pair, a)
        fb = apply_x_fixing_automorphism(pair, b)
        assert apply_x_fixing_automorphism(pair, a * b) == fa * fb
        assert apply_x_fixing_automorphism(pair, a + b) == fa + fb


def test_apply_automorphism_iterates_to_identity():
    for ftxt in ("h^3+h", "h^5"):
        ctx = ctx_for(ftxt)
        group = automorphism_group(ctx)
        pair = group.generator
        for gen_elem in generators(ctx):
            current = gen_elem.embed(group.field)
            for _ in range(group.cyclic_order):
                current = apply_x_fixing_automorphism(pair, current)
            assert current == gen_elem.embed(group.field)


def test_apply_automorphism_rejects_invalid_pair():
    ctx = ctx_for("h^3+h+1")
    _, y, _, _ = generators(ctx)
    bad = (FieldElement.rational(-1), FieldElement.zero(RATIONALS))
    with pytest.raises(UnsupportedCase):
        apply_x_fixing_automorphism(bad, y)


def test_automorphism_commutes_with_scaling():
    ctx = ctx_for("h^3+h")
    pair = automorphism_group(ctx).generator
    rng = random.Random(31415)
    lam = Fraction(3, 2)
    for _ in range(10):
        a = random_element(rng, ctx, max_ik=2, max_degree=2)
        one_way = apply_x_fixing_automorphism(pair, apply_phi_lambda(lam, a))
        other = apply_phi_lambda(lam, apply_x_fixing_automorphism(pair, a))
        assert one_way == other


def test_automorphism_order_matches_the_divisor_search():
    # f = F(h - c) + c with F's support mostly in i = 1 mod k, so that every
    # order from 1 to 8 occurs; the reference tests every divisor of n - 1
    rng = random.Random(1509)
    orders = set()
    for _ in range(120):
        field = FieldDesc(rng.choice((1, 3, 4, 5, 12)))
        k = rng.randint(1, 8)
        n = 1 + k * rng.randint(1, 8 // k)
        coeffs = [FieldElement.zero(field)] * n + [random_scalar(rng, field) or FieldElement.one(field)]
        for i in range(n):
            if (i % k == 1 % k and rng.random() < 0.7) or rng.random() < 0.05:
                coeffs[i] = random_scalar(rng, field)
        c = random_scalar(rng, field) if rng.random() < 0.8 else FieldElement.zero(field)
        f = Poly(field, coeffs).compose(Poly(field, (-c, 1))) + c
        group = automorphism_group(Context(f))
        pairs = x_fixing_pairs_by_divisor(f)
        for d, (a, b) in pairs.items():
            assert x_fixing_pair_is_valid(f, a, b) == (group.cyclic_order % d == 0), (f, d)
        assert group.generator == pairs[group.cyclic_order]
        assert group.field == group.generator[0].desc
        orders.add(group.cyclic_order)
    assert orders == set(range(1, 9))
