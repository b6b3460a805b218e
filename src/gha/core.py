"""The algebra H(f): exact normal forms over the basis x^i h^j y^k.

An element is a finite sum of terms x^i * g(h) * y^k, stored as a map
(i, k) -> g.  The defining relations

    h*x = x*f(h),    y*h = f(h)*y,    y*x - x*y = f(h) - h

enter through the commutation rules g(h)*x^j = x^j*sigma^j(g) and
y^k*g(h) = sigma^k(g)*y^k together with the rewrite

    y * x^j = x^j * y + x^(j-1) * (sigma^j(h) - h),

whose iterates (the normal forms of y^k x^j) are memoized per context,
together with sigma^k(h), sigma^k(g) and z^k.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import NamedTuple

from .errors import FieldMismatch, UnsupportedCase
from .field import FieldDesc, FieldElement, _int_text, check_degree, power
from .poly import Poly, _sigma_tower
from .poly import sigma_apply  # noqa: F401  (bench/layers.py rebinds core.sigma_apply by name)


class Context:
    """A fixed defining polynomial f, its field, and memos that live and die with it."""

    __slots__ = ("f", "field", "n", "_sigma_h", "_sigma", "_yx", "_z")

    def __init__(self, f: Poly):
        self.f = f
        self.field = f.field
        self.n = int(f.degree) if not f.is_zero else 0
        self._sigma_h: list[Poly] = [Poly.gen(f.field), f]  # sigma^k(h) at index k
        self._sigma: dict[tuple[Poly, int], Poly] = {}  # (g, k) -> sigma^k(g)
        self._yx: dict[tuple[int, int], "AlgebraElement"] = {}  # (k, j) -> y^k x^j
        self._z: list["AlgebraElement"] = [AlgebraElement.one(self)]  # z^k at index k

    def scalar(self, value) -> FieldElement:
        """Coerce an int, Fraction or embeddable FieldElement into the field."""
        if isinstance(value, FieldElement):
            return value.embed(self.field) if value.field != self.field else value
        return FieldElement.rational(value, self.field)

    def sigma_h(self, k: int) -> Poly:
        """sigma^k(h); the degree cap is checked before any composition."""
        return _sigma_tower(self._sigma_h, k)

    def sigma(self, g: Poly, k: int) -> Poly:
        """sigma^k(g) = g(sigma^k(h))."""
        if k == 0 or g.degree <= 0:
            return g
        memo = self._sigma
        out = memo.get((g, k))
        if out is None:
            out = memo[(g, k)] = g.compose(self.sigma_h(k))
        return out

    def z_power(self, k: int) -> "AlgebraElement":
        """z^k for the central element z = x*y - h."""
        powers = self._z
        while len(powers) <= k:
            powers.append(multiply(powers[-1], generators(self).z))
        return powers[k]

    def embed(self, target: FieldDesc) -> "Context":
        return Context(self.f.embed(target))

    def __eq__(self, other):
        return isinstance(other, Context) and self.f == other.f

    def __repr__(self):
        return f"Context(f = {self.f.to_text()} over {self.field})"


class Generators(NamedTuple):
    x: "AlgebraElement"
    y: "AlgebraElement"
    h: "AlgebraElement"
    z: "AlgebraElement"


class AlgebraElement:
    """A normal form: finite sum of x^i * g_{i,k}(h) * y^k."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: Context, terms=None):
        clean: dict[tuple[int, int], Poly] = {}
        for (i, k), g in (terms or {}).items():
            if i < 0 or k < 0:
                raise ValueError("term exponents must be nonnegative")
            if not isinstance(g, Poly):
                g = Poly.constant(ctx.field, g)
            elif g.field != ctx.field:
                raise FieldMismatch(f"term over {g.field}, context over {ctx.field}")
            if not g.is_zero:
                clean[(i, k)] = g
        self.ctx = ctx
        self.terms = clean

    # --- construction ---------------------------------------------------
    @classmethod
    def zero(cls, ctx: Context) -> "AlgebraElement":
        return cls(ctx)

    @classmethod
    def one(cls, ctx: Context) -> "AlgebraElement":
        return cls(ctx, {(0, 0): Poly.one(ctx.field)})

    @classmethod
    def from_poly(cls, ctx: Context, g: Poly) -> "AlgebraElement":
        return cls(ctx, {(0, 0): g})

    @classmethod
    def from_scalar(cls, ctx: Context, c) -> "AlgebraElement":
        return cls(ctx, {(0, 0): Poly.constant(ctx.field, ctx.scalar(c))})

    # --- queries -----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def standard_degree(self) -> int | None:
        """The common degree i - k, None when mixed; zero counts as degree 0."""
        degs = {i - k for (i, k) in self.terms}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self) -> bool:
        return self.standard_degree() is not None

    # --- linear structure ----------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, AlgebraElement):
            if other.ctx != self.ctx:
                raise FieldMismatch("elements live over different contexts")
            return other
        if isinstance(other, Poly):
            return AlgebraElement.from_poly(self.ctx, other)
        if isinstance(other, (int, Fraction, FieldElement)):
            return AlgebraElement.from_scalar(self.ctx, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for key, g in o.terms.items():
            _add_term(out, key[0], key[1], g)
        return AlgebraElement(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.ctx, {key: -g for key, g in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return multiply(self, o)

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return multiply(o, self)

    def __pow__(self, e: int) -> "AlgebraElement":
        """self^e by square-and-multiply, refused before the first product if one would pass the cap.

        H(f) is a domain, so the top x- and y-exponents of self^m are m times
        those of self: every check multiply would make is known up front.
        """
        if not isinstance(e, int) or e < 0:
            raise ValueError("element exponent must be a nonnegative integer")
        n = self.ctx.n
        xs = max(map(itemgetter(0), self.terms), default=0)
        ys = max(map(itemgetter(1), self.terms), default=0)
        done, base, bits = 0, 1, e  # the product so far is self^done, the square self^base
        while bits:
            if bits & 1:
                _check_product(n, done * ys, base * xs)
                done += base
            bits >>= 1
            if bits:
                _check_product(n, base * ys, base * xs)
                base *= 2
        return power(self, e, AlgebraElement.one(self.ctx))

    def embed(self, target: FieldDesc) -> "AlgebraElement":
        ctx = self.ctx.embed(target)
        return AlgebraElement(ctx, {key: g.embed(target) for key, g in self.terms.items()})

    # --- display -----------------------------------------------------------
    def to_text(self) -> str:
        """Terms in ascending lexicographic (i, k) order, joined by ' + '."""
        if self.is_zero:
            return "0"
        parts = []
        for (i, k) in sorted(self.terms):
            g = self.terms[(i, k)]
            factors = []
            if i:
                factors.append(f"x^{_int_text(i)}")
            factors.append(f"({g.to_text()})")
            if k:
                factors.append(f"y^{_int_text(k)}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"<{self.to_text()}>"


def _add_term(out: dict, i: int, k: int, g: Poly) -> None:
    cur = out.get((i, k))
    out[(i, k)] = g if cur is None else cur + g


def generators(ctx: Context) -> Generators:
    """x, y, h and the central element z = x*y - h."""
    one = Poly.one(ctx.field)
    h = Poly.gen(ctx.field)
    return Generators(
        x=AlgebraElement(ctx, {(1, 0): one}),
        y=AlgebraElement(ctx, {(0, 1): one}),
        h=AlgebraElement(ctx, {(0, 0): h}),
        z=AlgebraElement(ctx, {(1, 1): one, (0, 0): -h}),
    )


def _y_pow_x_pow(ctx: Context, k: int, j: int) -> AlgebraElement:
    """Normal form of y^k x^j, memoized on the context.

    y^k x^j = (y^(k-1) x^j) y + (y^(k-1) x^(j-1)) (sigma^j(h) - h), filled
    in row by row from k = 1, so that a large k needs no deep recursion.
    The second product is read from the sigma^k(h) tower term by term, with
    no composition.  multiply has checked the degree cap for (k, j), that is
    n^(k+j-1) >= n^(c+q) for every tower entry read, before the call.
    """
    memo = ctx._yx
    cached = memo.get((k, j))
    if cached is not None:
        return cached
    one = Poly.one(ctx.field)

    def known(r: int, c: int) -> AlgebraElement:  # x^c and y^r themselves are not stored
        return memo[(r, c)] if r and c else AlgebraElement(ctx, {(c, r): one})

    for r in range(1, k + 1):
        for c in range(max(1, j - k + r), j + 1):
            if (r, c) not in memo:
                out = {(p, q + 1): w for (p, q), w in known(r - 1, c).terms.items()}
                for (p, q), w in known(r - 1, c - 1).terms.items():
                    # x^p w y^q (sigma^c(h) - h) = x^p w sigma^q(sigma^c(h) - h) y^q, and
                    # sigma^q is a ring endomorphism: sigma^q(sigma^c(h) - h) = sigma^(c+q)(h) - sigma^q(h)
                    _add_term(out, p, q, w * (ctx.sigma_h(c + q) - ctx.sigma_h(q)))
                memo[(r, c)] = AlgebraElement(ctx, out)
    return known(k, j)


def _check_product(n: int, top_k: int, top_j: int) -> None:
    """The degree cap for a product whose left factor reaches y^top_k and right factor x^top_j."""
    if top_k and top_j:
        check_degree(n, top_k + top_j - 1)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product in H(f), term by term.

    (x^i g y^k)(x^j gh y^l) is immediate when k = 0 or j = 0; otherwise
    the memoized normal form of y^k x^j is spliced in the middle.  Its
    x^(j-1) y^(k-1) term has degree n^(k+j-1) exactly (n > 1), so the cap is
    checked once, for the largest k and j, before any pair is built.
    """
    if a.ctx != b.ctx:
        raise FieldMismatch("elements live over different contexts")
    ctx = a.ctx
    _check_product(ctx.n, max(map(itemgetter(1), a.terms), default=0),
                   max(map(itemgetter(0), b.terms), default=0))
    sigma = ctx.sigma
    out: dict[tuple[int, int], Poly] = {}
    for (i, k), g in a.terms.items():
        for (j, l), gh in b.terms.items():
            if k == 0:
                _add_term(out, i + j, l, sigma(g, j) * gh)
            elif j == 0:
                _add_term(out, i, k + l, g * sigma(gh, k))
            else:
                mid = _y_pow_x_pow(ctx, k, j)
                for (p, q), w in mid.terms.items():
                    # x^i g (x^p w y^q) gh y^l = x^(i+p) sigma^p(g) w sigma^q(gh) y^(q+l)
                    left = sigma(g, p) * w
                    _add_term(out, i + p, q + l, left * sigma(gh, q))
    return AlgebraElement(ctx, out)


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return multiply(a, b) - multiply(b, a)


def homogeneous_parts(a: AlgebraElement) -> dict[int, AlgebraElement]:
    """Split along the standard grading deg(x^i g y^k) = i - k; keys ascending."""
    buckets: dict[int, dict] = {}
    for (i, k), g in a.terms.items():
        buckets.setdefault(i - k, {})[(i, k)] = g
    return {l: AlgebraElement(a.ctx, buckets[l]) for l in sorted(buckets)}


def sigma_h0(theta: AlgebraElement) -> AlgebraElement:
    """sigma on the degree-0 subalgebra H_0.

    x^k g y^k -> x^k sigma(g) y^k + x^(k-1) (sigma^k(h) - h) g y^(k-1);
    characterized by theta * x = x * sigma(theta) and y * theta = sigma(theta) * y.
    """
    ctx = theta.ctx
    out: dict[tuple[int, int], Poly] = {}
    for (i, k), g in theta.terms.items():
        if i != k:
            raise UnsupportedCase("sigma is defined only on the degree-0 subalgebra")
        _add_term(out, k, k, ctx.sigma(g, 1))
        if k:
            corr = (ctx.sigma_h(k) - Poly.gen(ctx.field)) * g
            _add_term(out, k - 1, k - 1, corr)
    return AlgebraElement(ctx, out)


def apply_iota(a: AlgebraElement) -> AlgebraElement:
    """The anti-automorphism x <-> y, h fixed: x^i g y^k -> x^k g y^i."""
    return AlgebraElement(a.ctx, {(k, i): g for (i, k), g in a.terms.items()})


def apply_phi_lambda(lam, a: AlgebraElement) -> AlgebraElement:
    """The torus automorphism x -> lam x, y -> lam^-1 y, h -> h."""
    lam = a.ctx.scalar(lam)
    if lam.is_zero:
        raise UnsupportedCase("phi_lambda needs a nonzero lambda")
    out = {}
    for (i, k), g in a.terms.items():
        out[(i, k)] = g * (lam ** (i - k))
    return AlgebraElement(a.ctx, out)
