"""Independent correctness oracle for the benchmark: arithmetic over F_p.

Nothing in this module imports gha.  It checks the engine's outputs with
three tools:

* The highest-weight module M(t) of H(f) over F_p.  It has basis e_0,
  e_1, ... and a parameter t, with lambda_0 = t, lambda_(n+1) =
  f(lambda_n) and

      h e_n = lambda_n e_n,  x e_n = e_(n+1),  y e_n = (lambda_n - lambda_0) e_(n-1).

  The three defining relations hold on M(t), so a normal form x^i g(h) y^k
  and the word it came from must act alike on every e_n.  On M(t) the term
  x^i g y^k sends e_n to a multiple of e_(n-k+i) that vanishes only when
  g(lambda_(n-k)) does, so a wrong coefficient shows on some e_n with
  n >= k for all but a few t.
* Evaluation: a polynomial is mapped to F_p and evaluated at random points.
* A small parser for the package's surface syntax, so that input
  expressions act on M(t) letter by letter and printed outputs can be read
  back.

Cyclotomic scalars map to F_p by sending zeta_m to omega^(N/m), where
omega has order N = lcm(1..12) in F_p.  This is a ring homomorphism from
Q(zeta_m) for every m dividing N and it is compatible with the embeddings
zeta_m -> zeta_M^(M/m), which covers every field the workloads reach.
"""

from __future__ import annotations

import random
from fractions import Fraction

ROOT_ORDER = 27720  # lcm(1, ..., 12)


class OracleError(Exception):
    """Input the oracle cannot read or cannot map to F_p."""


def _is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        out.append(n)
    return out


def _first_prime() -> int:
    p = (2**61 // ROOT_ORDER + 1) * ROOT_ORDER + 1
    while not _is_prime(p):
        p += ROOT_ORDER
    return p


P = _first_prime()


def _element_of_order(order: int) -> int:
    for a in range(2, 1000):
        w = pow(a, (P - 1) // order, P)
        if all(pow(w, order // q, P) != 1 for q in _prime_factors(order)):
            return w
    raise OracleError(f"no element of order {order} found")


_OMEGA = _element_of_order(ROOT_ORDER)


def has_order(w: int, order: int) -> bool:
    """Is w an element of exact multiplicative order `order` in F_p?"""
    if pow(w, order, P) != 1:
        return False
    return all(pow(w, order // q, P) != 1 for q in _prime_factors(order))


def root_of_unity(m: int) -> int:
    if ROOT_ORDER % m:
        raise OracleError(f"Q(zeta_{m}) does not map into F_p")
    return pow(_OMEGA, ROOT_ORDER // m, P)


def fraction_mod(q: Fraction) -> int:
    if q.denominator % P == 0:
        raise OracleError(f"denominator of {q} vanishes mod p")
    return q.numerator * pow(q.denominator, -1, P) % P


def scalar_mod(coords, m: int) -> int:
    """Image of the scalar sum_j coords[j] zeta_m^j."""
    if len(coords) == 1:
        return fraction_mod(Fraction(coords[0]))
    w = root_of_unity(m)
    acc = 0
    for c in reversed(coords):
        acc = (acc * w + fraction_mod(Fraction(c))) % P
    return acc


def poly_mod(coeffs, m: int) -> list[int]:
    """Image of a polynomial given by ascending coordinate tuples."""
    return [scalar_mod(c, m) for c in coeffs]


def element_mod(terms: dict, m: int) -> dict:
    """Image of a normal form {(i, k): ascending coordinate tuples}."""
    out = {}
    for key, coeffs in terms.items():
        img = poly_mod(coeffs, m)
        if any(img):
            out[key] = img
    return out


def horner(img: list[int], t: int) -> int:
    acc = 0
    for c in reversed(img):
        acc = (acc * t + c) % P
    return acc


def sample_points(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(2, P - 1) for _ in range(count)]


# --- the module M(t) ----------------------------------------------------------


def _clean(v: dict) -> dict:
    return {n: c for n, c in v.items() if c % P}


class Module:
    """M(t) for the defining polynomial with image f_img, field index m."""

    def __init__(self, f_img: list[int], t: int, m: int = 1):
        self.f_img = f_img
        self.m = m
        self.lam = [t % P]

    def lam_at(self, n: int) -> int:
        while len(self.lam) <= n:
            self.lam.append(horner(self.f_img, self.lam[-1]))
        return self.lam[n]

    def x(self, v: dict) -> dict:
        return {n + 1: c for n, c in v.items()}

    def y(self, v: dict) -> dict:
        lam0 = self.lam[0]
        return _clean({n - 1: c * (self.lam_at(n) - lam0) % P for n, c in v.items() if n})

    def h(self, v: dict) -> dict:
        return _clean({n: c * self.lam_at(n) % P for n, c in v.items()})

    def act_nf(self, terms_img: dict, v: dict) -> dict:
        """Action of the normal form sum x^i g_(i,k)(h) y^k on the vector v."""
        out: dict = {}
        lam0 = self.lam[0]
        for n, c in v.items():
            for (i, k), g in terms_img.items():
                if k > n:
                    continue
                coef = c
                for j in range(k):
                    coef = coef * (self.lam_at(n - j) - lam0) % P
                coef = coef * horner(g, self.lam_at(n - k)) % P
                out[n - k + i] = (out.get(n - k + i, 0) + coef) % P
        return _clean(out)

    def act_expr(self, node, v: dict) -> dict:
        """Action of a parsed expression, letter by letter."""
        kind = node[0]
        if kind == "num":
            c = fraction_mod(node[1])
            return _clean({n: a * c % P for n, a in v.items()})
        if kind == "sym":
            name = node[1]
            if name == "x":
                return self.x(v)
            if name == "y":
                return self.y(v)
            if name == "h":
                return self.h(v)
            if name == "z":  # z = x*y - h
                return add(self.x(self.y(v)), scale(self.h(v), -1))
            if name == "zeta":
                return scale(v, root_of_unity(self.m))
            raise OracleError(f"unknown symbol {name}")
        if kind in ("add", "sub"):
            right = self.act_expr(node[2], v)
            return add(self.act_expr(node[1], v), right if kind == "add" else scale(right, -1))
        if kind == "neg":
            return scale(self.act_expr(node[1], v), -1)
        if kind == "mul":
            return self.act_expr(node[1], self.act_expr(node[2], v))
        if kind == "pow":
            for _ in range(node[2]):
                v = self.act_expr(node[1], v)
            return v
        raise OracleError(f"unknown node {kind}")


def add(u: dict, v: dict) -> dict:
    out = dict(u)
    for n, c in v.items():
        out[n] = (out.get(n, 0) + c) % P
    return _clean(out)


def scale(v: dict, c: int) -> dict:
    return _clean({n: a * c % P for n, a in v.items()})


def y_degree(node) -> int:
    """An upper bound on the y-degree of an expression's normal form."""
    kind = node[0]
    if kind == "sym":
        return 1 if node[1] in ("y", "z") else 0
    if kind in ("add", "sub"):
        return max(y_degree(node[1]), y_degree(node[2]))
    if kind == "neg":
        return y_degree(node[1])
    if kind == "mul":
        return y_degree(node[1]) + y_degree(node[2])
    if kind == "pow":
        return y_degree(node[1]) * node[2]
    return 0


def acts_alike(f_img, m, terms_img, action, n_max: int, points) -> bool:
    """Does the normal form act like `action` on e_0..e_n_max of M(t), t in points?"""
    for t in points:
        module = Module(f_img, t, m)
        for n in range(n_max + 1):
            e_n = {n: 1}
            if module.act_nf(terms_img, e_n) != action(module, e_n):
                return False
    return True


def max_y(terms: dict) -> int:
    return max((k for (_, k) in terms), default=0)


# --- surface syntax -------------------------------------------------------------


def _tokens(text: str):
    out, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("int", text[i:j]))
            i = j
        elif c.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            out.append(("name", text[i:j]))
            i = j
        elif c in "+-*^()/":
            out.append(("op", c))
            i += 1
        else:
            raise OracleError(f"unexpected character {c!r}")
    out.append(("end", ""))
    return out


class _Reader:
    """Recursive descent: '+'/'-' < '*' < unary '-' < '^'; a/b is a literal."""

    def __init__(self, text: str):
        self.toks = _tokens(text)
        self.pos = 0

    def _peek(self, *ops):
        kind, val = self.toks[self.pos]
        return kind == "op" and val in ops

    def _next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self._peek("+", "-"):
            op = self._next()[1]
            node = ("add" if op == "+" else "sub", node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self._peek("*"):
            self._next()
            node = ("mul", node, self.unary())
        return node

    def unary(self):
        if self._peek("-"):
            self._next()
            return ("neg", self.unary())
        node = self.atom()
        while self._peek("^"):
            self._next()
            kind, val = self._next()
            if kind != "int":
                raise OracleError("exponent must be an integer literal")
            node = ("pow", node, int(val))
        return node

    def atom(self):
        kind, val = self._next()
        if kind == "int":
            if self._peek("/"):
                self._next()
                _, den = self._next()
                return ("num", Fraction(int(val), int(den)))
            return ("num", Fraction(int(val)))
        if kind == "name":
            return ("sym", val)
        if kind == "op" and val == "(":
            node = self.expr()
            if self._next() != ("op", ")"):
                raise OracleError("unbalanced parentheses")
            return node
        raise OracleError(f"unexpected token {val!r}")


def parse(text: str):
    reader = _Reader(text)
    node = reader.expr()
    if reader.toks[reader.pos][0] != "end":
        raise OracleError(f"trailing input in {text!r}")
    return node
