"""The algebra H(f): exact normal forms over the basis x^i h^j y^k.

An element is a finite sum of terms x^i * g(h) * y^k, stored as a map
(i, k) -> g.  The defining relations

    h*x = x*f(h),    y*h = f(h)*y,    y*x - x*y = f(h) - h

enter through the commutation rules g(h)*x^j = x^j*sigma^j(g) and
y^k*g(h) = sigma^k(g)*y^k together with the rewrite

    y * x^j = x^j * y + x^(j-1) * (sigma^j(h) - h),

whose iterates (the normal forms of y^k x^j) are memoized per context,
together with sigma^k(h), sigma^k(g) and z^k.

A product works on the kernel rows of field: _add_product multiplies two
coefficient rows with field._mul, which copies a factor 1, and adds the
result into an output term on integer rows; each sum becomes a canonical
Poly once.  The table of y^k x^j sums the same way, and sigma on H_0 is
read off the product y * theta.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from operator import itemgetter

from .errors import FieldMismatch, UnsupportedCase
from .field import FieldDesc, FieldElement, _add, _int_text, _mul, _Ring, _trim, check_degree, power
from .poly import Poly, _fill, _sigma_tower
from .poly import sigma_apply  # noqa: F401  (bench/layers.py rebinds core.sigma_apply by name)


class Context:
    """A fixed defining polynomial f, its field, and memos that live and die with it."""

    __slots__ = ("f", "field", "n", "_one", "_sigma_h", "_sigma", "_yx", "_z")

    def __init__(self, f: Poly):
        self.f = f
        self.field = f.field
        self.n = int(f.degree) if not f.is_zero else 0  # deg f; the zero polynomial counts as 0
        self._one = Poly.one(f.field)  # the coefficient of x, y and every trivial y^k x^j
        self._sigma_h: dict[int, Poly] = {0: Poly.gen(f.field), 1: f}  # k -> sigma^k(h)
        self._sigma: dict[tuple, Poly] = {}  # (g.num, g.den, k) -> sigma^k(g); ints hash in C
        self._yx: dict[tuple[int, int], "AlgebraElement"] = {}  # (k, j) -> y^k x^j
        self._z: dict[int, "AlgebraElement"] = {0: AlgebraElement.one(self)}  # k -> z^k

    def scalar(self, value) -> FieldElement:
        """Coerce an int, Fraction or embeddable FieldElement into the field."""
        if isinstance(value, FieldElement):
            return value.embed(self.field)
        return FieldElement.rational(value, self.field)

    def sigma_h(self, k: int) -> Poly:
        """sigma^k(h); the degree cap is checked before any composition."""
        return _sigma_tower(self._sigma_h, k)

    def sigma(self, g: Poly, k: int) -> Poly:
        """sigma^k(g) = g(sigma^k(h))."""
        if k == 0 or g.degree <= 0:
            return g
        if g.field is not self.field and g.field != self.field:  # the memo key leaves out the field
            raise FieldMismatch(f"cannot combine {g.field} with {self.field}")
        key = (g.num, g.den, k)
        out = self._sigma.get(key)
        if out is None:
            out = self._sigma[key] = g.compose(self.sigma_h(k))
        return out

    def z_power(self, k: int) -> "AlgebraElement":
        """z^k for the central element z = x*y - h, grown by poly._fill."""
        out = self._z.get(k)
        if out is None:
            z = generators(self).z
            out = _fill(self._z, k, lambda below: multiply(below, z))
        return out

    def embed(self, target: FieldDesc) -> "Context":
        return Context(self.f.embed(target))

    def __eq__(self, other):
        return isinstance(other, Context) and self.f == other.f

    def __repr__(self):
        return f"Context(f = {self.f.to_text()} over {self.field})"


Generators = namedtuple("Generators", "x y h z")  # of AlgebraElements; a namedtuple keeps typing unloaded


class AlgebraElement(_Ring):
    """A normal form: finite sum of x^i * g_{i,k}(h) * y^k.

    Its +, -, * and truth come from field._Ring, through its hooks _coerce,
    _plus, _times, __neg__ and is_zero.
    """

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
    def _of(cls, ctx: Context, terms: dict) -> "AlgebraElement":
        """An element from terms that are already nonzero Polys over ctx.field, unchecked."""
        out = cls.__new__(cls)
        out.ctx = ctx
        out.terms = terms
        return out

    @classmethod
    def zero(cls, ctx: Context) -> "AlgebraElement":
        return cls(ctx)

    @classmethod
    def one(cls, ctx: Context) -> "AlgebraElement":
        return cls._of(ctx, {(0, 0): ctx._one})

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

    def _plus(self, o):
        out = dict(self.terms)
        for key, g in o.terms.items():
            cur = out.get(key)
            out[key] = g if cur is None else cur + g
        return AlgebraElement._of(self.ctx, {key: g for key, g in out.items() if g.num})

    def _times(self, o):
        return multiply(self, o)  # the module global: bench/layers.py and tests rebind core.multiply

    def __neg__(self):
        return AlgebraElement._of(self.ctx, {key: -g for key, g in self.terms.items()})

    def __pow__(self, e: int) -> "AlgebraElement":
        """self^e by square-and-multiply, refused before the first product if one would pass the cap.

        H(f) is a domain, so the top x- and y-exponents of self^m are m times those of
        self.  The loop checks the products power forms, in order: none while done = 0.
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


def _add_product(sums: dict, key: tuple[int, int], a, da: int, b, db: int, field: FieldDesc) -> None:
    """sums[key] += (a/da) * (b/db) on integer rows; _mul copies a factor 1 and checks the cap."""
    num, den = _mul(a, b, field), da * db
    cur = sums.get(key)
    sums[key] = (num, den) if cur is None else _add(cur[0], cur[1], num, den)


def _collect(ctx: Context, sums: dict) -> "AlgebraElement":
    """The element whose terms are the row sums, each made a canonical Poly once; zero sums go."""
    field, terms = ctx.field, {}
    for key, (num, den) in sums.items():
        g = Poly._from_ints(field, num, den)
        if g.num:
            terms[key] = g
    return AlgebraElement._of(ctx, terms)


def generators(ctx: Context) -> Generators:
    """x, y, h and the central element z = x*y - h."""
    one, h = ctx._one, ctx.sigma_h(0)
    return Generators(
        x=AlgebraElement._of(ctx, {(1, 0): one}),
        y=AlgebraElement._of(ctx, {(0, 1): one}),
        h=AlgebraElement._of(ctx, {(0, 0): h}),
        z=AlgebraElement._of(ctx, {(1, 1): one, (0, 0): -h}),
    )


def _y_pow_x_pow(ctx: Context, k: int, j: int) -> AlgebraElement:
    """Normal form of y^k x^j, memoized on the context.

    y^k x^j = (y^(k-1) x^j) y + (y^(k-1) x^(j-1)) (sigma^j(h) - h), filled
    in row by row from k = 1, so that a large k needs no deep recursion.
    The second product is read from the sigma^k(h) tower term by term, with
    no composition, and summed into the first by _add_product.  multiply has
    checked the degree cap for (k, j), that is n^(k+j-1) >= n^(c+q) for every
    tower entry read, before the call.
    """
    memo = ctx._yx
    cached = memo.get((k, j))
    if cached is not None:
        return cached

    def known(r: int, c: int) -> AlgebraElement:  # x^c and y^r themselves are not stored
        return memo[(r, c)] if r and c else AlgebraElement._of(ctx, {(c, r): ctx._one})

    for r in range(1, k + 1):
        for c in range(max(1, j - k + r), j + 1):
            if (r, c) not in memo:
                sums = {(p, q + 1): (w.num, w.den) for (p, q), w in known(r - 1, c).terms.items()}
                for (p, q), w in known(r - 1, c - 1).terms.items():
                    # x^p w y^q (sigma^c(h) - h) = x^p w sigma^q(sigma^c(h) - h) y^q, and
                    # sigma^q is a ring endomorphism: sigma^q(sigma^c(h) - h) = sigma^(c+q)(h) - sigma^q(h)
                    hi, lo = ctx.sigma_h(c + q), ctx.sigma_h(q)
                    gap, den = _add(hi.num, hi.den, [-v for v in lo.num], lo.den)
                    gap = _trim(gap, ctx.field.degree)
                    _add_product(sums, (p, q), w.num, w.den, gap, den, ctx.field)
                memo[(r, c)] = _collect(ctx, sums)
    return known(k, j)


def _check_product(n: int, top_k: int, top_j: int) -> None:
    """The degree cap for a product whose left factor reaches y^top_k and right factor x^top_j."""
    if top_k and top_j:
        check_degree(n, top_k + top_j - 1)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Product in H(f), on kernel rows.

    (x^i g y^k)(x^j g' y^l) = sum over the terms x^p w y^q of y^k x^j of
    x^(i+p) sigma^p(g) w sigma^q(g') y^(q+l), with y^k x^j = x^j y^k when
    k = 0 or j = 0 and the memoized normal form otherwise.  The right
    factor's terms are grouped by j.  For each j, every left factor
    sigma^p(g) w is formed once, and the left factors are summed on integer
    rows by (i + p, q): each sum meets the same sigma^q(g') of every right
    term with that j, so it is multiplied by each of them once.  Each
    sigma^p(g) and sigma^q(g') is looked up once per product, and every row
    product goes through field._mul, which forms no product by 1.  Each
    output term becomes a canonical Poly once.  The x^(j-1) y^(k-1) term of
    y^k x^j has degree n^(k+j-1) exactly (n > 1), so the cap is checked
    once, for the largest k and j, before any pair is built.
    """
    ctx = a.ctx
    if b.ctx is not ctx and b.ctx != ctx:
        raise FieldMismatch("elements live over different contexts")
    _check_product(ctx.n, max(map(itemgetter(1), a.terms), default=0),
                   max(map(itemgetter(0), b.terms), default=0))
    field, phi, sigma = ctx.field, ctx.field.degree, ctx.sigma
    by_j: dict[int, list[tuple[int, Poly]]] = {}  # j -> [(l, g')]
    for (j, l), gh in b.terms.items():
        by_j.setdefault(j, []).append((l, gh))
    left: dict[tuple[int, int, int], Poly] = {}  # (i, k, p) -> sigma^p(g)
    right: dict[tuple[int, int, int], Poly] = {}  # (j, l, q) -> sigma^q(g')
    sums: dict[tuple[int, int], tuple] = {}
    for j, column in by_j.items():
        lefts: dict[tuple[int, int], tuple] = {}  # (i + p, q) -> sum of sigma^p(g) w
        for (i, k), g in a.terms.items():
            mid = _y_pow_x_pow(ctx, k, j).terms if k and j else {(j, k): ctx._one}
            for (p, q), w in mid.items():
                sg = left.get((i, k, p)) if p else g
                if sg is None:
                    sg = left[(i, k, p)] = sigma(g, p)
                _add_product(lefts, (i + p, q), sg.num, sg.den, w.num, w.den, field)
        for (s, q), (lnum, lden) in lefts.items():
            lnum = _trim(lnum, phi)
            for l, gh in column:
                sgh = right.get((j, l, q)) if q else gh
                if sgh is None:
                    sgh = right[(j, l, q)] = sigma(gh, q)
                _add_product(sums, (s, q + l), lnum, lden, sgh.num, sgh.den, field)
    return _collect(ctx, sums)


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    return multiply(a, b) - multiply(b, a)


def homogeneous_parts(a: AlgebraElement) -> dict[int, AlgebraElement]:
    """Split along the standard grading deg(x^i g y^k) = i - k; keys ascending."""
    buckets: dict[int, dict] = {}
    for (i, k), g in a.terms.items():
        buckets.setdefault(i - k, {})[(i, k)] = g
    return {l: AlgebraElement(a.ctx, buckets[l]) for l in sorted(buckets)}


def sigma_h0(theta: AlgebraElement) -> AlgebraElement:
    """sigma on the degree-0 subalgebra H_0: y * theta = sigma(theta) * y, one y taken off.

    x^k g y^k -> x^k sigma(g) y^k + x^(k-1) (sigma^k(h) - h) g y^(k-1);
    also characterized by theta * x = x * sigma(theta).
    """
    if any(i != k for (i, k) in theta.terms):
        raise UnsupportedCase("sigma is defined only on the degree-0 subalgebra")
    ctx = theta.ctx
    prod = multiply(AlgebraElement._of(ctx, {(0, 1): ctx._one}), theta)  # y * theta
    return AlgebraElement._of(ctx, {(i, k - 1): g for (i, k), g in prod.terms.items()})


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
