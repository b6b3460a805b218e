"""Normal forms and multiplication on the x^i h^j y^k basis."""

import gc
import random
import sys
import threading
from fractions import Fraction

import pytest

from gha.core import (
    AlgebraElement,
    Context,
    apply_iota,
    apply_phi_lambda,
    commutator,
    generators,
    homogeneous_parts,
    multiply,
    sigma_h0,
)
from gha.errors import DegreeCapExceeded, FieldMismatch, UnsupportedCase
from gha.field import FieldDesc, FieldElement
from gha.parser import parse_element, parse_poly
from gha.poly import Poly, set_degree_cap, sigma_power_h

from .free_oracle import oracle_product
from .helpers import random_diagonal_element, random_element, random_poly, random_scalar


def ctx_for(ftxt: str, field=None) -> Context:
    return Context(parse_poly(ftxt, field))


@pytest.fixture
def ctx():
    return ctx_for("h^2")


def test_generator_term_shapes(ctx):
    x, y, h, z = generators(ctx)
    one = Poly.one(ctx.field)
    assert x.terms == {(1, 0): one}
    assert y.terms == {(0, 1): one}
    assert h.terms == {(0, 0): Poly.gen(ctx.field)}
    assert z.terms == {(1, 1): one, (0, 0): -Poly.gen(ctx.field)}


def test_defining_relations(ctx):
    x, y, h, z = generators(ctx)
    f_of_h = AlgebraElement.from_poly(ctx, ctx.f)
    assert h * x == x * f_of_h
    assert y * h == f_of_h * y
    assert y * x - x * y == f_of_h - h


def test_product_h_times_x(ctx):
    x, y, h, _ = generators(ctx)
    assert (h * x).to_text() == "x^1 * (h^2)"
    assert (y * x).to_text() == "(h^2 - h) + x^1 * (1) * y^1"


def test_commutator_y_x_squared(ctx):
    x, y, _, _ = generators(ctx)
    got = commutator(y, x * x)
    assert got.to_text() == "x^1 * (h^4 - h)"


def test_commutator_y_cubed_x_for_cubic_f():
    ctx = ctx_for("h^3")
    x, y, _, _ = generators(ctx)
    got = commutator(y ** 3, x)
    want = AlgebraElement(ctx, {(0, 2): parse_poly("h^27 - h")})
    assert got == want


def test_z_is_central():
    for ftxt in ("h^2", "h^3+h", "h^3+h+1", "2*h"):
        ctx = ctx_for(ftxt)
        x, y, h, z = generators(ctx)
        for w in (x, y, h):
            assert commutator(z, w).is_zero
        assert z == x * y - h
        assert z == y * x - AlgebraElement.from_poly(ctx, ctx.f)


def test_scalar_and_poly_coercion(ctx):
    x, _, h, _ = generators(ctx)
    assert 2 * x == x + x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert (h + 1) - 1 == h
    assert (x - x).is_zero


def test_power_and_identity(ctx):
    x, y, _, _ = generators(ctx)
    assert x ** 0 == AlgebraElement.one(ctx)
    assert x ** 3 == x * x * x
    assert (y * x) ** 2 == y * x * y * x
    a = y * x + generators(ctx).h
    assert a ** 5 == a * a * a * a * a
    assert x ** 10 ** 8 == AlgebraElement(ctx, {(10 ** 8, 0): Poly.one(ctx.field)})
    with pytest.raises(ValueError):
        x ** -1


def test_standard_degree_and_homogeneity(ctx):
    x, y, h, z = generators(ctx)
    assert x.standard_degree() == 1
    assert y.standard_degree() == -1
    assert h.standard_degree() == 0
    assert z.standard_degree() == 0
    assert AlgebraElement.zero(ctx).standard_degree() == 0
    assert (x + h).standard_degree() is None
    assert (x * x * y).standard_degree() == 1
    assert x.is_homogeneous() and not (x + h).is_homogeneous()


def test_homogeneous_parts_split(ctx):
    x, y, h, _ = generators(ctx)
    e = x * x + h * y + 3
    parts = homogeneous_parts(e)
    assert sorted(parts) == [-1, 0, 2]
    assert parts[2] == x * x
    assert parts[-1] == h * y
    assert parts[0] == AlgebraElement.from_scalar(ctx, 3)
    assert sum(parts.values(), AlgebraElement.zero(ctx)) == e


def test_grading_is_multiplicative(ctx):
    rng = random.Random(88)
    for _ in range(30):
        a = random_element(rng, ctx)
        b = random_element(rng, ctx)
        for la, pa in homogeneous_parts(a).items():
            for lb, pb in homogeneous_parts(b).items():
                prod = pa * pb
                if not prod.is_zero:
                    assert prod.standard_degree() == la + lb


def test_associativity_random():
    rng = random.Random(515)
    for ftxt in ("h^2", "h^3+h"):
        ctx = ctx_for(ftxt)
        for _ in range(25):
            a = random_element(rng, ctx, max_ik=2, max_degree=2)
            b = random_element(rng, ctx, max_ik=2, max_degree=2)
            c = random_element(rng, ctx, max_ik=2, max_degree=2)
            assert (a * b) * c == a * (b * c)


def test_multiply_matches_free_rewriter():
    rng = random.Random(2024)
    ctx = ctx_for("h^2")
    for _ in range(30):
        a = random_element(rng, ctx, max_ik=3, max_degree=2)
        b = random_element(rng, ctx, max_ik=3, max_degree=2)
        assert multiply(a, b) == oracle_product(a, b)


@pytest.mark.parametrize("m", [3, 4])
def test_multiply_matches_free_rewriter_over_cyclotomic_fields(m):
    rng = random.Random(2100 + m)
    ctx = ctx_for("h^2 + zeta*h", FieldDesc(m))
    x, y, h, _ = generators(ctx)
    zeta = FieldElement.zeta(ctx.field)
    assert multiply(y, x) == oracle_product(y, x)
    assert multiply(h * zeta, x) == oracle_product(h * zeta, x)
    for _ in range(15):
        a = random_element(rng, ctx, max_ik=2, max_degree=2, span=2)
        b = random_element(rng, ctx, max_ik=2, max_degree=2, span=2)
        assert multiply(a, b) == oracle_product(a, b)


def test_commutation_identities_small():
    # [y, x^k] = x^{k-1}(sigma^k(h) - h) and [y^k, x] = (sigma^k(h) - h)y^{k-1}
    for ftxt in ("h^2", "h^3+h"):
        ctx = ctx_for(ftxt)
        x, y, _, _ = generators(ctx)
        h_poly = Poly.gen(ctx.field)
        for k in range(1, 5):
            gap = sigma_power_h(ctx.f, k) - h_poly
            want_a = AlgebraElement(ctx, {(k - 1, 0): gap})
            want_b = AlgebraElement(ctx, {(0, k - 1): gap})
            assert commutator(y, x ** k) == want_a
            assert commutator(y ** k, x) == want_b


def test_sigma_h0_rule(ctx):
    x, y, h, _ = generators(ctx)
    theta = x * h * y
    got = sigma_h0(theta)
    assert got.to_text() == "(h^3 - h^2) + x^1 * (h^2) * y^1"
    assert sigma_h0(h) == AlgebraElement.from_poly(ctx, ctx.f)
    assert sigma_h0(AlgebraElement.one(ctx)) == AlgebraElement.one(ctx)


def test_sigma_h0_characterizing_identities():
    rng = random.Random(3030)
    for ftxt in ("h^2", "h^3+h"):
        ctx = ctx_for(ftxt)
        x, y, _, _ = generators(ctx)
        for _ in range(15):
            theta = random_diagonal_element(rng, ctx)
            assert theta * x == x * sigma_h0(theta)
            assert y * theta == sigma_h0(theta) * y


def test_sigma_h0_is_endomorphism():
    rng = random.Random(4040)
    ctx = ctx_for("h^2")
    for _ in range(15):
        a = random_diagonal_element(rng, ctx)
        b = random_diagonal_element(rng, ctx)
        assert sigma_h0(a * b) == sigma_h0(a) * sigma_h0(b)
        assert sigma_h0(a + b) == sigma_h0(a) + sigma_h0(b)


def test_degree_zero_subalgebra_commutes():
    rng = random.Random(5050)
    for ftxt in ("h^2", "h^3+h+1"):
        ctx = ctx_for(ftxt)
        for _ in range(15):
            a = random_diagonal_element(rng, ctx)
            b = random_diagonal_element(rng, ctx)
            assert commutator(a, b).is_zero


def test_sigma_h0_rejects_off_diagonal(ctx):
    x, _, _, _ = generators(ctx)
    with pytest.raises(UnsupportedCase):
        sigma_h0(x)


def test_iota_swaps_x_and_y(ctx):
    x, y, h, z = generators(ctx)
    assert apply_iota(x) == y
    assert apply_iota(y) == x
    assert apply_iota(h) == h
    assert apply_iota(z) == z


def test_iota_is_anti_homomorphism():
    rng = random.Random(606)
    ctx = ctx_for("h^3+h")
    for _ in range(25):
        a = random_element(rng, ctx)
        b = random_element(rng, ctx)
        assert apply_iota(a * b) == apply_iota(b) * apply_iota(a)
        assert apply_iota(apply_iota(a)) == a


def test_phi_lambda_examples(ctx):
    x, y, h, _ = generators(ctx)
    two = Fraction(2)
    assert apply_phi_lambda(two, x) == 2 * x
    assert apply_phi_lambda(two, y) == y * Fraction(1, 2)
    assert apply_phi_lambda(two, h) == h
    with pytest.raises(UnsupportedCase):
        apply_phi_lambda(0, x)


def test_phi_lambda_homomorphism_and_composition():
    rng = random.Random(707)
    ctx = ctx_for("h^2")
    for _ in range(20):
        lam = random_scalar(rng, ctx.field)
        mu = random_scalar(rng, ctx.field)
        if lam.is_zero or mu.is_zero:
            continue
        a = random_element(rng, ctx)
        b = random_element(rng, ctx)
        assert apply_phi_lambda(lam, a * b) == apply_phi_lambda(lam, a) * apply_phi_lambda(lam, b)
        assert apply_phi_lambda(lam, apply_phi_lambda(mu, a)) == apply_phi_lambda(lam * mu, a)


def test_context_mismatch_raises():
    a = generators(ctx_for("h^2")).x
    b = generators(ctx_for("h^3")).x
    with pytest.raises(FieldMismatch):
        a * b


def test_cyclotomic_coefficients_flow_through():
    q4 = FieldDesc(4)
    ctx = ctx_for("h^2", q4)
    x, y, _, _ = generators(ctx)
    zeta = FieldElement.zeta(q4)
    e = x * zeta * y
    prod = e * e
    assert prod == (x * y) * (x * y) * (zeta * zeta)
    assert parse_element("zeta^2 * x", ctx) == -x


def test_to_text_orders_terms(ctx):
    # ascending lexicographic (i, k): (0,0) < (0,2) < (1,1) < (3,0)
    e = parse_element("y^2 + x*h*y + h + x^3", ctx)
    assert e.to_text() == "(h) + (1) * y^2 + x^1 * (h) * y^1 + x^3 * (1)"
    assert AlgebraElement.zero(ctx).to_text() == "0"


def test_memo_lives_and_dies_with_its_context():
    f = parse_poly("h^3 + h")
    before = sys.getrefcount(f)
    ctx = Context(f)
    gens = generators(ctx)
    product = gens.y ** 3 * gens.x ** 3
    assert sys.getrefcount(f) > before
    del ctx, gens, product
    gc.collect()
    assert sys.getrefcount(f) == before


def test_warm_memo_gives_the_cold_normal_forms():
    cold = ctx_for("h^3 + h")
    warm = ctx_for("h^3 + h")
    xw, yw, hw, zw = generators(warm)
    for a, b in ((yw ** 2 * hw, xw ** 3), (zw ** 2, hw * yw * xw ** 2), (yw * hw ** 2, xw * hw)):
        multiply(a, b)  # fills the memo of warm only
    for text in ("y^3*h*x^3", "(x*h*y^2)*(y*x^2 + h)", "z^3 - h*z*h"):
        w, c = parse_element(text, warm), parse_element(text, cold)
        assert w == c and w.to_text() == c.to_text()


def test_context_sigma_matches_poly_sigma_power():
    ctx = ctx_for("h^3 + h + 1")
    g = parse_poly("h^2 - 3*h")
    for k in range(4):
        assert ctx.sigma_h(k) == sigma_power_h(ctx.f, k)
        assert ctx.sigma(g, k) == g.compose(sigma_power_h(ctx.f, k))


def test_context_sigma_cap_is_prospective():
    ctx = ctx_for("h^4")
    with pytest.raises(DegreeCapExceeded):
        ctx.sigma_h(40)  # 4^40: refused before any composition
    assert ctx.sigma_h(2) == parse_poly("h^16")


def test_context_sigma_rejects_negative_powers():
    # as sigma_power_h does: a negative index must not read the tower from its end
    ctx = ctx_for("h^2 + 1")
    ctx.sigma_h(3)
    with pytest.raises(ValueError, match="nonnegative"):
        ctx.sigma_h(-1)
    with pytest.raises(ValueError, match="nonnegative"):
        ctx.sigma(parse_poly("h^2"), -2)
    with pytest.raises(ValueError, match="nonnegative"):
        sigma_power_h(ctx.f, -1)


def test_linear_f_high_powers_need_no_recursion():
    ctx = ctx_for("2h")
    x, y, _, _ = generators(ctx)
    gap = Poly(ctx.field, (0, 2 ** 1500 - 1))  # sigma^1500(h) - h
    assert commutator(y, x ** 1500) == AlgebraElement(ctx, {(1499, 0): gap})
    assert commutator(y ** 1500, x) == AlgebraElement(ctx, {(0, 1499): gap})


def test_degree_cap_is_checked_before_any_product(monkeypatch):
    # over h^2, y^k x^j has a coefficient of degree 2^(k+j-1): y^17 x passes the cap
    import gha.core

    calls = []
    normal_form = gha.core._y_pow_x_pow

    def recorded(ctx, k, j):
        calls.append((k, j))
        return normal_form(ctx, k, j)

    monkeypatch.setattr(gha.core, "_y_pow_x_pow", recorded)
    ctx = ctx_for("h^2")
    a, b = parse_element("y + y^17", ctx), parse_element("x", ctx)
    with pytest.raises(DegreeCapExceeded, match=r"^result degree 131072 exceeds the cap 100000$"):
        multiply(a, b)
    assert calls == []
    multiply(parse_element("y + y^16", ctx), b)  # at the cap: both pairs are built
    assert sorted(calls) == [(1, 1), (16, 1)]


def test_power_is_refused_before_the_first_product(monkeypatch):
    # H(f) is a domain, so the top exponents of a^e are e times those of a:
    # the square that would pass the cap is known before any product
    import gha.core

    ctx = ctx_for("h^2")
    x, y, _, _ = generators(ctx)
    cases = [(x + y, 40), (multiply(x, y), 100_000_000)]
    calls = []
    real = gha.core.multiply
    monkeypatch.setattr(gha.core, "multiply", lambda a, b: calls.append((a, b)) or real(a, b))
    for base, e in cases:
        with pytest.raises(DegreeCapExceeded, match=r"^result degree 2\^31 exceeds the cap 100000$"):
            base ** e
    assert calls == []
    # (x+y)^16 squares up to degree 2^15, under the cap: it is handed to the product loop
    monkeypatch.setattr(gha.core, "power", lambda base, e, one: (base, e))
    assert (x + y) ** 16 == (x + y, 16)


def test_power_at_the_cap_is_computed(monkeypatch):
    # the boundary of (x+y)^16 and (x+y)^32 under the default cap, scaled down to cap 2^7
    import gha.core

    set_degree_cap(2 ** 7)
    ctx = ctx_for("h^2")
    x, y, _, _ = generators(ctx)
    s = x + y
    s4 = multiply(multiply(s, s), multiply(s, s))
    assert s ** 8 == multiply(s4, s4)  # its last square reaches degree 2^7
    calls = []
    real = gha.core.multiply
    monkeypatch.setattr(gha.core, "multiply", lambda a, b: calls.append((a, b)) or real(a, b))
    with pytest.raises(DegreeCapExceeded, match=r"^result degree 2\^15 exceeds the cap 128$"):
        s ** 16
    assert calls == []


# the support of every operand of the nf-tower benchmark: right-hand terms share x-exponents
TOWER_SUPPORT = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2))


def tower_element(rng: random.Random, ctx: Context) -> AlgebraElement:
    return AlgebraElement(ctx, {key: random_poly(rng, ctx.field, 1, 3) for key in TOWER_SUPPORT})


TOWER_CASES = [("h^3 + h", None), ("h^3 + zeta*h", FieldDesc(3))]


@pytest.mark.parametrize("ftxt,field", TOWER_CASES)
def test_multiply_on_the_tower_support_matches_free_rewriter(ftxt, field):
    rng = random.Random(7)
    ctx = ctx_for(ftxt, field)
    for _ in range(4):
        a, b = tower_element(rng, ctx), tower_element(rng, ctx)
        assert multiply(a, b) == oracle_product(a, b)


@pytest.mark.parametrize("ftxt,field", TOWER_CASES)
def test_warm_products_on_the_tower_support_equal_cold_ones(ftxt, field):
    rng = random.Random(8)
    warm = ctx_for(ftxt, field)
    operands = [(tower_element(rng, warm), tower_element(rng, warm)) for _ in range(6)]
    products = [multiply(a, b) for a, b in operands]  # each later product reads a warmer memo
    for (a, b), product in zip(operands, products):
        cold = ctx_for(ftxt, field)
        ac, bc = AlgebraElement(cold, a.terms), AlgebraElement(cold, b.terms)
        assert multiply(ac, bc).terms == product.terms == multiply(a, b).terms


def test_warm_product_cost_is_pinned(monkeypatch):
    # counts of kernel products and sigma lookups, not a clock: term by term, one product on
    # this support made 86 of each; each left factor and image once per product makes 49 and 24
    import gha.core

    rng = random.Random(9)
    ctx = ctx_for("h^3 + h")
    a, b = tower_element(rng, ctx), tower_element(rng, ctx)
    expected = multiply(a, b)  # warms the memo
    counts = {"_mul": 0, "sigma": 0}
    mul, sigma = gha.core._mul, Context.sigma

    def counted_mul(*args):
        counts["_mul"] += 1
        return mul(*args)

    def counted_sigma(self, g, k):
        counts["sigma"] += 1
        return sigma(self, g, k)

    monkeypatch.setattr(gha.core, "_mul", counted_mul)
    monkeypatch.setattr(Context, "sigma", counted_sigma)
    assert multiply(a, b) == expected
    assert counts["_mul"] <= 49 and counts["sigma"] <= 24, counts


def _race(work, trials: int = 10, threads: int = 4) -> list:
    """work(shared) from several threads at once, switching as often as the interpreter allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results, errors = [], []

        def guarded(shared):
            try:
                work(shared)
            except Exception as exc:  # a thread's exception would otherwise only be printed
                errors.append(exc)

        for _ in range(trials):
            shared = ctx_for("h^3 + h")
            pool = [threading.Thread(target=guarded, args=(shared,)) for _ in range(threads)]
            for t in pool:
                t.start()
            for t in pool:
                t.join(timeout=60)
                assert not t.is_alive()
            results.append(shared)
        assert errors == []
        return results
    finally:
        sys.setswitchinterval(interval)


def test_threads_sharing_a_context_store_the_right_sigma_tower():
    for ctx in _race(lambda shared: shared.sigma_h(7)):
        assert [ctx.sigma_h(k).degree for k in range(8)] == [3 ** k for k in range(8)]
        assert ctx.sigma_h(7) == sigma_power_h(ctx.f, 7)


def test_threads_sharing_a_context_store_the_right_powers_of_z():
    for ctx in _race(lambda shared: shared.z_power(6)):
        z = generators(ctx).z
        for k in range(7):
            assert ctx.z_power(k) == z ** k


def test_a_warm_power_of_z_builds_no_generators(monkeypatch):
    import gha.core

    ctx = ctx_for("h^3 + h")
    expected = ctx.z_power(4)
    calls = []
    build = gha.core.generators
    monkeypatch.setattr(gha.core, "generators", lambda c: calls.append(c) or build(c))
    assert ctx.z_power(4) == expected
    assert calls == []
    ctx.z_power(5)  # a missing power builds them once
    assert len(calls) == 1


def test_context_sigma_refuses_a_polynomial_of_another_field():
    # the memo is keyed by a polynomial's rows; Q(zeta_2) has the same rows as Q
    ctx = ctx_for("h^2 + 1")
    ctx.sigma(parse_poly("h^2 - 3*h"), 2)
    with pytest.raises(FieldMismatch):
        ctx.sigma(parse_poly("h^2 - 3*h", FieldDesc(2)), 2)
