"""Independent cross-check for noncommutative products.

Represents elements of the free algebra K<x, h, y>, K = Q or Q(zeta_m), as
sparse maps from words (tuples over "x", "h", "y") to coefficients, each a
tuple of phi(m) Fraction coordinates, multiplies by plain concatenation,
and then rewrites to normal form with single-step rules

    h x -> x f(h)        y h -> f(h) y        y x -> x y + f(h) - h

applied leftmost-first until no redex remains.  Scalars are multiplied by
helpers.ref_mul, schoolbook mod a hand-written Phi_m, so nothing here shares
code with the package's arithmetic and agreement is meaningful evidence.
The package is used only to read the operands and build the result.
"""

from __future__ import annotations

from fractions import Fraction

from gha.core import AlgebraElement, Context
from gha.field import FieldElement
from gha.poly import Poly

from .helpers import ref_mul

Word = tuple[str, ...]
Scalar = tuple[Fraction, ...]
FreeElement = dict[Word, Scalar]


def _h_run(j: int) -> Word:
    return ("h",) * j


def _add_into(acc: FreeElement, word: Word, c: Scalar) -> None:
    """acc[word] += c, dropping the word when its coefficient cancels."""
    new = tuple(x + y for x, y in zip(acc[word], c)) if word in acc else c
    if any(new):
        acc[word] = new
    else:
        acc.pop(word, None)


def _poly_words(coeffs: list[Scalar], prefix: Word, suffix: Word) -> FreeElement:
    """Words for prefix * p(h) * suffix with p given by ascending coeffs."""
    out: FreeElement = {}
    for j, c in enumerate(coeffs):
        if any(c):
            _add_into(out, prefix + _h_run(j) + suffix, c)
    return out


def _find_redex(word: Word) -> int | None:
    for p in range(len(word) - 1):
        pair = word[p] + word[p + 1]
        if pair in ("hx", "yh", "yx"):
            return p
    return None


def _rewrite_once(word: Word, f_coeffs: list[Scalar], pos: int) -> FreeElement:
    left, right = word[:pos], word[pos + 2 :]
    pair = word[pos] + word[pos + 1]
    if pair == "hx":
        return _poly_words(f_coeffs, left + ("x",), right)
    if pair == "yh":
        return _poly_words(f_coeffs, left, ("y",) + right)
    # yx -> xy + (f(h) - h)
    zero = (Fraction(0),) * len(f_coeffs[0])
    one = (Fraction(1),) + zero[1:]
    shifted = list(f_coeffs) + [zero, zero]
    shifted[1] = (shifted[1][0] - 1,) + shifted[1][1:]
    out = _poly_words(shifted, left, right)
    _add_into(out, left + ("x", "y") + right, one)
    return out


def normalize(element: FreeElement, f_coeffs: list[Scalar], m: int) -> FreeElement:
    done: FreeElement = {}
    stack = list(element.items())
    while stack:
        word, c = stack.pop()
        pos = _find_redex(word)
        if pos is None:
            _add_into(done, word, c)
            continue
        for new_word, nc in _rewrite_once(word, f_coeffs, pos).items():
            stack.append((new_word, ref_mul(m, nc, c)))
    return done


def free_mul(a: FreeElement, b: FreeElement, m: int) -> FreeElement:
    out: FreeElement = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            _add_into(out, wa + wb, ref_mul(m, ca, cb))
    return out


def from_algebra_element(e: AlgebraElement) -> FreeElement:
    out: FreeElement = {}
    for (i, k), g in e.terms.items():
        for j, c in enumerate(g.coeffs):
            if c:
                _add_into(out, ("x",) * i + _h_run(j) + ("y",) * k, c.coords)
    return out


def to_algebra_element(element: FreeElement, ctx: Context) -> AlgebraElement:
    """Assumes every word is already in x^i h^j y^k shape."""
    buckets: dict[tuple[int, int], dict[int, Scalar]] = {}
    for word, c in element.items():
        i = 0
        while i < len(word) and word[i] == "x":
            i += 1
        j = i
        while j < len(word) and word[j] == "h":
            j += 1
        assert all(ch == "y" for ch in word[j:]), word
        buckets.setdefault((i, len(word) - j), {})[j - i] = c  # one word per (i, j, k)
    zero = (Fraction(0),) * ctx.field.degree
    terms = {
        key: Poly(ctx.field, [FieldElement(ctx.field, row.get(d, zero))
                              for d in range(max(row) + 1)])
        for key, row in buckets.items()
    }
    return AlgebraElement(ctx, terms)


def oracle_product(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    ctx = a.ctx
    f_coeffs = [c.coords for c in ctx.f.coeffs] or [(Fraction(0),) * ctx.field.degree]
    raw = free_mul(from_algebra_element(a), from_algebra_element(b), ctx.field.m)
    return to_algebra_element(normalize(raw, f_coeffs, ctx.field.m), ctx)
