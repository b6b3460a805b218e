"""Structural decision procedures for H(f).

Classification flags, the non-Noetherian witness chain, membership in the
center C[z] and in C[z, h], and the admissible generator gradings.  The
witness chain is read off an identity, not searched: with f(0) = 0 the
ideal (sigma^1(h), ..., sigma^(n+1)(h)) of C[h] is (f) for every n.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .core import AlgebraElement, Context, multiply
from .errors import UnsupportedCase
from .field import FieldElement, _setattr, _Value, divisors
from .poly import NEG_INF, Poly, decompose_as_polynomial_in


class CenterKind(Enum):
    POLYNOMIAL_IN_Z = "C[z]"
    NOT_COMPUTED_DEG_ONE = "not computed (deg f = 1)"


class Classification(_Value):
    __slots__ = __match_args__ = (
        "deg_f", "is_domain", "is_noetherian", "is_generalized_down_up", "center_description")

    def __init__(self, deg_f: int, is_domain: bool, is_noetherian: bool,
                 is_generalized_down_up: bool, center_description: CenterKind):
        _setattr(self, "deg_f", deg_f)
        _setattr(self, "is_domain", is_domain)
        _setattr(self, "is_noetherian", is_noetherian)
        _setattr(self, "is_generalized_down_up", is_generalized_down_up)
        _setattr(self, "center_description", center_description)


def classify(ctx: Context) -> Classification:
    """Degree-driven structural flags."""
    d = ctx.f.degree
    return Classification(
        deg_f=0 if d == NEG_INF else int(d),  # the zero polynomial counts as degree 0
        is_domain=d >= 1,
        is_noetherian=d == 1,
        is_generalized_down_up=d <= 1,
        center_description=(
            CenterKind.NOT_COMPUTED_DEG_ONE if d == 1 else CenterKind.POLYNOMIAL_IN_Z
        ),
    )


class WitnessReport(_Value):
    """Whether h lies in the ideal (sigma^1(h), ..., sigma^(n+1)(h)) of C[h]."""

    __slots__ = __match_args__ = ("n", "generator_gcd", "is_member")

    def __init__(self, n: int, generator_gcd: Poly, is_member: bool):
        _setattr(self, "n", n)
        _setattr(self, "generator_gcd", generator_gcd)
        _setattr(self, "is_member", is_member)


def noetherian_witness(ctx: Context, max_n: int) -> list[WitnessReport]:
    """The ascending-chain witness for n = 0..max_n; requires f(0) = 0.

    C[h] is a principal ideal domain, so membership of h reduces to
    divisibility by the monic gcd of the generators.  With f(0) = 0, h
    divides f(h), so sigma^(j-1)(h) divides f(sigma^(j-1)(h)) = sigma^j(h)
    for every j >= 1: the generators form a divisibility chain from
    sigma^1(h) = f, and the ideal is (f) for every n.
    """
    f = ctx.f
    if not f.coeff(0).is_zero:
        raise UnsupportedCase(
            "witness chain needs f(0) = 0; substitute h -> h + alpha for a root "
            "alpha of f(h) - h first (see find_shift_root and shift_polynomial)"
        )
    g = f.monic()
    member = (not g.is_zero) and (Poly.gen(ctx.field) % g).is_zero
    return [WitnessReport(n=n, generator_gcd=g, is_member=member) for n in range(max_n + 1)]


def find_shift_root(f: Poly) -> FieldElement | None:
    """A rational root alpha of f(h) - h, if one exists.

    Only rational candidates are searched (rational root theorem); None
    means no rational root, including the case of irrational-only roots.
    """
    p = f - Poly.gen(f.field)
    phi = f.field.degree
    if any(v for i, v in enumerate(p.num) if i % phi):
        return None  # a coefficient is not rational
    ints = p.num[::phi]  # the integer coefficients of p.den * p
    if not ints or not ints[0]:
        return FieldElement.zero(f.field)  # f(h) = h, or h divides f(h) - h
    for num in divisors(abs(ints[0])):
        for den in divisors(abs(ints[-1])):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if p(FieldElement.rational(cand, f.field)).is_zero:
                    return FieldElement.rational(cand, f.field)
    return None


def shift_polynomial(f: Poly, alpha: FieldElement) -> Poly:
    """F(h) = f(h + alpha) - alpha; when f(alpha) = alpha, F(0) = 0."""
    return f.compose(Poly(f.field, (alpha, 1))) - alpha


def _peel(a: AlgebraElement, part) -> dict[int, Poly] | None:
    """{K: p_K} with a = sum_K p_K(h) z^K, peeled from the top diagonal term; None if part fails.

    a lies in the degree-0 subalgebra.  part(g, K), given the top diagonal
    coefficient g of what is left, returns p_K, or None when no p_K fits.
    """
    ctx, out, rem = a.ctx, {}, a
    while rem.terms:
        top = max(i for (i, _) in rem.terms)
        p_top = part(rem.terms[(top, top)], top)
        if p_top is None:
            return None
        out[top] = p_top
        rem = rem - multiply(AlgebraElement.from_poly(ctx, p_top), ctx.z_power(top))
    return out


def center_membership(a: AlgebraElement) -> Poly | None:
    """Write a = p(z) if possible; the polynomial p, else None.

    Requires deg f != 1 (for deg f = 1 the center is larger than C[z]).
    Peels the top diagonal term: z^K has (K, K) coefficient exactly 1,
    so a central candidate must carry a constant there.
    """
    ctx = a.ctx
    if ctx.f.degree == 1:
        raise UnsupportedCase("center membership is not computed when deg f = 1")
    if any(i != k for (i, k) in a.terms):
        return None
    out = _peel(a, lambda g, top: g if g.degree == 0 else None)
    if out is None:
        return None
    h = Poly.gen(ctx.field)
    return sum((g * h ** k for k, g in out.items()), Poly.zero(ctx.field))


def zh_membership(a: AlgebraElement) -> dict[int, Poly] | None:
    """Write a = sum_k p_k(h) z^k if possible; {k: p_k}, else None.

    Requires deg f > 1 and a in the degree-0 subalgebra.  The (K, K)
    coefficient of p_K(h) z^K is sigma^K(p_K), so each peel is decided by
    decomposing the top diagonal coefficient as a polynomial in sigma^K(h).
    """
    ctx = a.ctx
    if not ctx.f.degree > 1:
        raise UnsupportedCase("membership in C[z, h] is decided only for deg f > 1")
    if any(i != k for (i, k) in a.terms):
        raise UnsupportedCase("element is not in the degree-0 subalgebra")
    out = _peel(a, lambda g, top: decompose_as_polynomial_in(g, ctx.sigma_h(top)))
    return None if out is None else {k: out[k] for k in sorted(out)}


class GradingFamily(_Value):
    """All admissible generator gradings: integer multiples of the generator."""

    __slots__ = __match_args__ = ("generator",)

    def __init__(self, generator: tuple[int, int, int] = (1, -1, 0)):
        _setattr(self, "generator", generator)

    def member(self, l: int) -> tuple[int, int, int]:
        dx, dy, dh = self.generator
        return (l * dx, l * dy, l * dh)

    def contains(self, triple: tuple[int, int, int]) -> bool:
        dx, dy, dh = triple
        return dh == 0 and dx + dy == 0

    def __str__(self):
        return "(l, -l, 0) for every integer l"


def _support(p: Poly) -> list[int]:
    """The exponents j of the nonzero coefficients of p, ascending, read off its rows."""
    phi = p.field.degree
    return [j for j in range(len(p.num) // phi) if any(p.num[j * phi:(j + 1) * phi])]


def is_admissible_grading(ctx: Context, triple: tuple[int, int, int]) -> bool:
    """Do the degrees (d_x, d_y, d_h) make all three relations homogeneous?"""
    dx, dy, dh = triple
    supp_f = _support(ctx.f)
    rel1 = {dh + dx} | {dx + j * dh for j in supp_f}  # h*x = x*f(h)
    rel2 = {dy + dh} | {j * dh + dy for j in supp_f}  # y*h = f(h)*y
    supp_fmh = _support(ctx.f - Poly.gen(ctx.field))
    rel3 = {dy + dx} | {j * dh for j in supp_fmh}  # y*x - x*y = f(h) - h
    return len(rel1) == 1 and len(rel2) == 1 and len(rel3) == 1


def admissible_generator_gradings(ctx: Context) -> GradingFamily:
    """Solve the homogeneity constraints of the relations; requires deg f > 1.

    h*x = x*f(h) forces (j - 1)*d_h = 0 for every exponent j in the
    support of f.  Since deg f > 1 the support contains some j != 1
    (including the monomial case f = a*h^n), so d_h = 0; then
    y*x - x*y = f(h) - h gives d_x + d_y = 0.
    """
    if not ctx.f.degree > 1:
        raise UnsupportedCase("grading analysis requires deg f > 1")
    return GradingFamily()
