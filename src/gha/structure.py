"""Structural decision procedures for H(f).

Classification flags, the non-Noetherian witness chain, membership in the
center C[z] and in C[z, h], and the admissible generator gradings.  The
witness chain is read off an identity, not searched: with f(0) = 0 the
ideal (sigma^1(h), ..., sigma^(n+1)(h)) of C[h] is (f) for every n.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import reduce

from .core import AlgebraElement, Context, multiply
from .errors import UnsupportedCase
from .field import FieldElement, _setattr, _Value, divisors
from .poly import Poly, decompose_as_polynomial_in


class CenterKind(Enum):
    POLYNOMIAL_IN_Z = "C[z]"
    NOT_COMPUTED_DEG_ONE = "not computed (deg f = 1)"


class Classification(_Value):
    __slots__ = __match_args__ = (
        "deg_f", "is_domain", "is_noetherian", "is_generalized_down_up", "center_description")


def classify(ctx: Context) -> Classification:
    """Degree-driven structural flags."""
    d = ctx.n
    return Classification(
        deg_f=d,
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
    member = (not g.is_zero) and (ctx.sigma_h(0) % g).is_zero
    return [WitnessReport(n=n, generator_gcd=g, is_member=member) for n in range(max_n + 1)]


def find_shift_root(f: Poly) -> FieldElement | None:
    """A rational root alpha of f(h) - h, if one exists.

    Only rational candidates are searched (rational root theorem); None
    means no rational root, including the case of irrational-only roots.
    It still trial-divides a_0 and a_n, once each: the candidates are s/t
    in lowest terms with s | a_0 and t | a_n, and each is tested by one
    integer Horner pass, sum a_i s^i t^(n-i) = 0, with no Fraction or Poly.
    """
    p = f - Poly.gen(f.field)
    phi = f.field.degree
    if any(v for i, v in enumerate(p.num) if i % phi):
        return None  # a coefficient is not rational
    ints = p.num[::phi]  # the integer coefficients of p.den * p
    if not ints or not ints[0]:
        return FieldElement.zero(f.field)  # f(h) = h, or h divides f(h) - h
    # each den with a_(n-i) den^i, read by Horner's rule in s as den^n p(s/den)
    dens = [(t, [c * t ** i for i, c in enumerate(reversed(ints))]) for t in divisors(abs(ints[-1]))]
    for num in divisors(abs(ints[0])):
        for den, scaled in dens:
            if math.gcd(num, den) > 1:
                continue  # num/den came up earlier, in lowest terms
            for s in (num, -num):
                if not reduce(lambda acc, c: acc * s + c, scaled):
                    return FieldElement.rational(Fraction(s, den), f.field)
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
    if ctx.n == 1:
        raise UnsupportedCase("center membership is not computed when deg f = 1")
    if any(i != k for (i, k) in a.terms):
        return None
    out = _peel(a, lambda g, top: g if g.degree == 0 else None)
    if out is None:
        return None
    top = max(out, default=-1)
    return Poly(ctx.field, [out[k].coeff(0) if k in out else 0 for k in range(top + 1)])


def zh_membership(a: AlgebraElement) -> dict[int, Poly] | None:
    """Write a = sum_k p_k(h) z^k if possible; {k: p_k}, else None.

    Requires deg f > 1 and a in the degree-0 subalgebra.  The (K, K)
    coefficient of p_K(h) z^K is sigma^K(p_K), so each peel is decided by
    decomposing the top diagonal coefficient as a polynomial in sigma^K(h).
    """
    ctx = a.ctx
    if ctx.n <= 1:
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
        """Whether triple is l * generator for an integer l; of the zero generator, only 0."""
        l = next((t // g for t, g in zip(triple, self.generator) if g), 0)
        return tuple(triple) == self.member(l)

    def __str__(self):
        terms = ("0" if not g else {1: "l", -1: "-l"}.get(g, f"{g}l") for g in self.generator)
        return f"({', '.join(terms)}) for every integer l"


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
    supp_fmh = _support(ctx.f - ctx.sigma_h(0))
    rel3 = {dy + dx} | {j * dh for j in supp_fmh}  # y*x - x*y = f(h) - h
    return len(rel1) == 1 and len(rel2) == 1 and len(rel3) == 1


def admissible_generator_gradings(ctx: Context) -> GradingFamily:
    """Solve the homogeneity constraints of the relations; requires deg f > 1.

    h*x = x*f(h) forces (j - 1)*d_h = 0 for every exponent j in the
    support of f.  Since deg f > 1 the support contains some j != 1
    (including the monomial case f = a*h^n), so d_h = 0; then
    y*x - x*y = f(h) - h gives d_x + d_y = 0.
    """
    if ctx.n <= 1:
        raise UnsupportedCase("grading analysis requires deg f > 1")
    return GradingFamily()
