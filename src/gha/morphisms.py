"""Derivations and automorphisms of H(f).

A candidate derivation is given by the images of the three generators
and extended by the one rule d(P*v) = d(P)*v + P*d(v): a term x^i g(h) y^k
is folded as a product of i factors x, g(h) and k factors y, and d(g(h))
by Horner's rule in h.  For deg f > 1 the locally finite derivations are
the scalings c*d0, d0 = (x -> x, y -> -y, h -> 0); a candidate is one of
them exactly when it equals c*d0 for c the constant coefficient at x of
d(x), and only a candidate that is not c*d0 meets the relation check.

The automorphism group splits as the scaling torus phi_lambda times a
finite cyclic part of x-fixing maps

    x -> x,  y -> a*y,  h -> a*h + b,

cut out by the polynomial identity f(a*h + b) = a*f(h) + b together
with a^(n-1) = 1 and b = (a - 1)*a_{n-1} / (n*a_n).  Its order is not
searched for: it is read off f(u + c) - c, for c the point that every
such h -> a*h + b fixes (see automorphism_group).
"""

from __future__ import annotations

import math

from .core import AlgebraElement, Context, generators, homogeneous_parts
from .errors import FieldMismatch, UnsupportedCase
from .field import FieldDesc, FieldElement, _setattr, _Value
from .poly import Poly
from .structure import _support, shift_polynomial


class DerivationSpec(_Value):
    """A candidate derivation, recorded by the images of x, y and h."""

    __slots__ = __match_args__ = ("ctx", "im_x", "im_y", "im_h")

    def __init__(self, ctx: Context, im_x: AlgebraElement, im_y: AlgebraElement,
                 im_h: AlgebraElement):
        for image in (im_x, im_y, im_h):
            if image.ctx != ctx:
                raise FieldMismatch("derivation images live over different contexts")
        _setattr(self, "ctx", ctx)
        _setattr(self, "im_x", im_x)
        _setattr(self, "im_y", im_y)
        _setattr(self, "im_h", im_h)

    @staticmethod
    def diagonal(ctx: Context, lam=1) -> "DerivationSpec":
        """lam * d, where d is the grading derivation x -> x, y -> -y, h -> 0."""
        gens = generators(ctx)
        c = ctx.scalar(lam)
        return DerivationSpec(ctx, gens.x * c, gens.y * (-c), AlgebraElement.zero(ctx))


def _leibniz(*factors: tuple[AlgebraElement, AlgebraElement]) -> AlgebraElement:
    """d(v_1 ... v_r) from the pairs (v_i, d(v_i)), by d(P*v) = d(P)*v + P*d(v)."""
    (value, image), *rest = factors
    for v, dv in rest:
        value, image = value * v, image * v + value * dv
    return image


def _derive_poly(d: DerivationSpec, g: Poly) -> AlgebraElement:
    """d(g(h)) by Horner's rule: d(p*h + c) = d(p)*h + p*d(h)."""
    h = generators(d.ctx).h
    value = image = AlgebraElement.zero(d.ctx)
    for c in reversed(g.coeffs):
        value, image = value * h + c, image * h + value * d.im_h
    return image


def apply_derivation(d: DerivationSpec, a: AlgebraElement) -> AlgebraElement:
    """The Leibniz extension of d, applied to each term x^i g(h) y^k as a product."""
    ctx = d.ctx
    if a.ctx != ctx:
        raise FieldMismatch("element lives over a different context")
    gens = generators(ctx)
    out = AlgebraElement.zero(ctx)
    for (i, k), g in a.terms.items():
        mid = AlgebraElement.from_poly(ctx, g)
        out = out + _leibniz(*[(gens.x, d.im_x)] * i, (mid, _derive_poly(d, g)),
                             *[(gens.y, d.im_y)] * k)
    return out


def check_derivation(d: DerivationSpec) -> bool:
    """Does the Leibniz extension respect the three defining relations?"""
    gens = generators(d.ctx)
    f_elem = AlgebraElement.from_poly(d.ctx, d.ctx.f)
    df = _derive_poly(d, d.ctx.f)
    dx, dy, dh = d.im_x, d.im_y, d.im_h
    rel1 = dh * gens.x + gens.h * dx == dx * f_elem + gens.x * df
    rel2 = dy * gens.h + gens.y * dh == df * gens.y + f_elem * dy
    rel3 = dy * gens.x + gens.y * dx - dx * gens.y - gens.x * dy == df - dh
    return rel1 and rel2 and rel3


def derivation_homogeneous_parts(d: DerivationSpec) -> dict[int, DerivationSpec]:
    """Split into graded components d_r with d_r(H_l) contained in H_(l+r)."""
    parts = [{l - shift: part for l, part in homogeneous_parts(image).items()}
             for image, shift in ((d.im_x, 1), (d.im_y, -1), (d.im_h, 0))]
    zero = AlgebraElement.zero(d.ctx)
    return {r: DerivationSpec(d.ctx, *(p.get(r, zero) for p in parts))
            for r in sorted(set().union(*parts))}


def classify_locally_finite(d: DerivationSpec) -> FieldElement | None:
    """The scalar c with d = c * (x -> x, y -> -y, h -> 0), or None.

    For deg f > 1 these scalings are exactly the locally finite derivations.
    The only candidate for c is the constant coefficient of d(x) at x.  Any
    other d meets the relation check: None for a derivation, else UnsupportedCase.
    """
    if d.ctx.n <= 1:
        raise UnsupportedCase("classification of derivations requires deg f > 1")
    at_x = d.im_x.terms.get((1, 0))
    lam = at_x.coeff(0) if at_x is not None else FieldElement.zero(d.ctx.field)
    if d == DerivationSpec.diagonal(d.ctx, lam):
        return lam  # c*d0 is a derivation: no relation check
    if not check_derivation(d):
        raise UnsupportedCase("the given images do not define a derivation")
    return None


class NilpotencyProbe(_Value):
    __slots__ = __match_args__ = ("nilpotent", "steps")

    def __str__(self):
        return f"NilpotentAt({self.steps})" if self.nilpotent else f"NotNilpotentWithin({self.steps})"


def derivation_power_bounded(d: DerivationSpec, a: AlgebraElement, max_iter: int) -> NilpotencyProbe:
    """Iterate d on a until it vanishes, giving up after max_iter steps."""
    if a.is_zero:
        return NilpotencyProbe(True, 0)
    current = a
    for k in range(1, max_iter + 1):
        current = apply_derivation(d, current)
        if current.is_zero:
            return NilpotencyProbe(True, k)
    return NilpotencyProbe(False, max_iter)


# --- automorphisms ---------------------------------------------------------


def x_fixing_pair_is_valid(f: Poly, a: FieldElement, b: FieldElement) -> bool:
    """Exact test of f(a*h + b) = a*f(h) + b over the pair's field."""
    fe = f.embed(a.field)
    return fe.compose(Poly(a.field, (b, a))) == fe * a + b


class AutGroup(_Value):
    """Aut(H(f)) = (scaling torus phi_lambda) x (cyclic x-fixing part).

    generator is the pair (a, b) of the x-fixing map x -> x, y -> a*y,
    h -> a*h + b generating the cyclic part; its order divides n - 1.
    """

    __slots__ = __match_args__ = ("n", "cyclic_order", "generator", "field")

    def describe(self) -> str:
        return f"C* x Z_{self.cyclic_order}"


def _root_of_unity(desc: FieldDesc, d: int) -> FieldElement:
    if d == 2:
        return FieldElement.rational(-1, desc)
    return FieldElement.zeta_power(desc, desc.m // d)


def automorphism_group(ctx: Context) -> AutGroup:
    """The automorphism group for deg f > 1.

    With a_i the h^i coefficient of f, comparing the h^(n-1) coefficients
    of f(a*h + b) = a*f(h) + b forces b = (a - 1)*a_{n-1} / (n*a_n), that
    is b = (1 - a)*c for c = -a_{n-1} / (n*a_n).  With F(u) = f(u + c) - c
    the identity becomes F(a*u) = a*F(u): a^(i-1) = 1 for every i in the
    support of F.  So the pairs are the k-th roots of unity, k the gcd of
    |i - 1| over that support; F_n != 0, so k divides n - 1.
    """
    n = ctx.n
    if n <= 1:
        raise UnsupportedCase("automorphism group is computed only for deg f > 1")
    lead, sub = ctx.f.leading_coeff, ctx.f.coeff(n - 1)
    shifted = shift_polynomial(ctx.f, -sub / (lead * n))
    k = math.gcd(*(i - 1 for i in _support(shifted)))
    desc = ctx.field if k <= 2 else ctx.field.join(FieldDesc(k))
    a = _root_of_unity(desc, k)
    b = (a - 1) * sub.embed(desc) / (lead.embed(desc) * n)
    return AutGroup(n=n, cyclic_order=k, generator=(a, b), field=desc)


def apply_x_fixing_automorphism(
    pair: tuple[FieldElement, FieldElement], e: AlgebraElement
) -> AlgebraElement:
    """Apply x -> x, y -> a*y, h -> a*h + b to a normal form.

    The element is lifted into the smallest field containing both its own
    scalars and the pair; the pair is verified against f first.
    """
    a, b = pair
    if a.field != b.field:
        raise FieldMismatch("pair entries live in different fields")
    target = e.ctx.field.join(a.field)
    a, b = a.embed(target), b.embed(target)
    ctx = e.ctx.embed(target)
    if not x_fixing_pair_is_valid(ctx.f, a, b):
        raise UnsupportedCase("pair does not satisfy f(a*h + b) = a*f(h) + b")
    line = Poly(target, (b, a))
    terms = {}
    for (i, k), g in e.terms.items():
        terms[(i, k)] = g.embed(target).compose(line) * (a ** k)
    return AlgebraElement(ctx, terms)
