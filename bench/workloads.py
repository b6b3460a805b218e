"""The benchmark's workloads: seeded inputs, timed operations and checks.

Each workload has four parts:

* generate(seed): the inputs, as plain data (Fractions and tuples), made
  without gha so that generation stays out of every timing;
* setup(inputs): imports gha and builds every Context the workload uses;
* operations(state, inputs): the timed operations in a fixed order, as
  (label, thunk) pairs; one thunk is one request to the engine;
* checks(inputs, outputs, rng): the oracle's tests, as (indices of the
  outputs read, label, test) triples; check() runs them and returns the
  problems found, and rejects_mutant(inputs, outputs, rng) tells whether
  the same test rejects one output with a single coefficient changed.

Engine objects are read through their public attributes (AlgebraElement
.terms, Poly.coeffs, FieldElement.coords) and converted to plain data
before the oracle sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from fractions import Fraction

import oracle as O

# --- plain-data helpers (no gha) ----------------------------------------------


def euler_phi(m: int) -> int:
    return sum(1 for j in range(1, m + 1) if math.gcd(j, m) == 1)


def rand_scalar(rng: random.Random, m: int, span: int = 3, den: int = 3) -> tuple:
    """A scalar of Q(zeta_m) as its coordinate tuple, no coordinate zero.

    Zero coordinates are skipped by the field arithmetic, so allowing them
    would make the cost of a product depend on the seed.
    """
    return tuple(Fraction(rng.choice((-1, 1)) * rng.randint(1, span), rng.randint(1, den))
                 for _ in range(euler_phi(m)))


def rand_poly(rng: random.Random, m: int, deg: int) -> list:
    """Ascending coordinate tuples; every coefficient nonzero."""
    return [rand_scalar(rng, m) for _ in range(deg + 1)]


def rand_element(rng: random.Random, m: int, support, deg: int) -> dict:
    return {key: rand_poly(rng, m, deg) for key in support}


def scalar_text(coords) -> str:
    parts = []
    for j, c in enumerate(coords):
        if not c:
            continue
        mag = abs(c)
        body = str(mag) if j == 0 else ("zeta" if j == 1 else f"zeta^{j}")
        if j and mag != 1:
            body = f"{mag}*{body}"
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    if not parts:
        return "(0)"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return f"({text})"


def poly_text(poly: list, var: str = "h") -> str:
    terms = [scalar_text(c) + ("" if j == 0 else f"*{var}^{j}") for j, c in enumerate(poly)]
    return "(" + " + ".join(terms) + ")"


def trimmed(poly: list) -> list:
    poly = [tuple(c) for c in poly]
    while poly and not any(poly[-1]):
        poly.pop()
    return poly


def monic(poly: list) -> list:
    """Monic multiple of a polynomial over Q (coordinate tuples of length 1)."""
    lead = poly[-1][0]
    return [(c[0] / lead,) for c in poly]


def unit(m: int) -> tuple:
    return (Fraction(1),) + tuple(Fraction(0) for _ in range(euler_phi(m) - 1))


def cubic_zeta(m: int) -> list:
    """h^3 + zeta*h over Q(zeta_m)."""
    zero = tuple(Fraction(0) for _ in range(euler_phi(m)))
    zeta = tuple(Fraction(int(j == 1)) for j in range(euler_phi(m)))
    return [zero, zeta, zero, unit(m)]


def int_poly(coeffs) -> list:
    return [(Fraction(c),) for c in coeffs]


def int_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


# --- engine <-> plain data -----------------------------------------------------


def poly_data(p) -> list:
    return [tuple(c.coords) for c in p.coeffs]


def elem_data(e) -> dict:
    return {key: poly_data(g) for key, g in e.terms.items()}


def to_poly(gha, field, poly):
    return gha.Poly(field, [gha.FieldElement(field, c) for c in poly])


def to_element(gha, ctx, terms):
    return gha.AlgebraElement(ctx, {key: to_poly(gha, ctx.field, p) for key, p in terms.items()})


def perturb(terms: dict) -> dict:
    """Add 1 to the constant coefficient of the term with the largest y-degree."""
    key = max(terms, key=lambda ik: (ik[1], ik[0]))
    poly = [tuple(c) for c in terms[key]]
    poly[0] = (poly[0][0] + 1,) + poly[0][1:]
    return {**terms, key: poly}


# --- oracle checks shared by the workloads ----------------------------------------


def nf_vs(f_img, m, terms, action, ybound, points) -> bool:
    """Does the normal form `terms` act on M(t) like `action`?"""
    img = O.element_mod(terms, m)
    return O.acts_alike(f_img, m, img, action, max(O.max_y(img), ybound) + 1, points)


def word_action(text: str):
    node = O.parse(text)
    return (lambda mod, v: mod.act_expr(node, v)), O.y_degree(node)


def product_action(a_terms: dict, b_terms: dict, m: int):
    a_img, b_img = O.element_mod(a_terms, m), O.element_mod(b_terms, m)
    return (lambda mod, v: mod.act_nf(a_img, mod.act_nf(b_img, v))), O.max_y(a_img) + O.max_y(b_img)


def run_checks(items, failed: set) -> list[str]:
    """Run the (indices, label, test) items; return the problems found.

    A test that reads the output of a failed operation is skipped: that
    operation is counted as failed already.  Any other test that raises
    has met an output it cannot read, which is wrong.  Each test runs as
    it is yielded, so it may close over the loop variables of `checks`.
    """
    problems = []
    for indices, label, test in items:
        if failed.intersection(indices):
            continue
        try:
            ok = test()
        except Exception as exc:
            problems.append(f"{label}: unreadable output ({type(exc).__name__}: {str(exc)[:120]})")
            continue
        if not ok:
            problems.append(label)
    return problems


class Workload:
    name = ""
    module = "gha"  # the package module set-up imports
    # a trivial `python -m gha.cli` request, timed for cold_start_ms: the
    # normal form of y*x over the workload's own f (launch_f, ascending
    # coordinate tuples) and field Q(zeta_launch_m)
    launch: list[str] = []
    launch_f: list = []
    launch_m = 1

    def check(self, inputs, outputs, failed: set, rng: random.Random) -> list[str]:
        return run_checks(self.checks(inputs, outputs, rng), failed)

    def check_launch(self, rc: int, out: str, rng: random.Random) -> bool:
        if rc != 0:
            return False
        try:
            node = O.parse(out.strip())
        except O.OracleError:
            return False
        action, yb = word_action("y*x")
        f_img = O.poly_mod(self.launch_f, self.launch_m)
        for t in O.sample_points(rng, 2):
            mod = O.Module(f_img, t, self.launch_m)
            for n in range(max(yb, O.y_degree(node)) + 2):
                if mod.act_expr(node, {n: 1}) != action(mod, {n: 1}):
                    return False
        return True


# --- nf-tower -----------------------------------------------------------------------

F_CUBIC = [0, 1, 0, 1]  # h^3 + h


class NfTower(Workload):
    """Normal forms over Q with f = h^3 + h, from a cold Context."""

    name = "nf-tower"
    launch = ["--f", "h^3+h", "nf", "y*x"]
    launch_f = int_poly(F_CUBIC)
    TOWER = 4
    # enough products that the p95 request is a product rather than the
    # single y^3 x^3, whatever the number of rounds
    PRODUCTS = 74
    SUPPORT = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2))
    POLY_DEG = 1
    Z_DEG = 4

    def generate(self, seed: int) -> dict:
        rng = random.Random(seed)
        pairs = [(rand_element(rng, 1, self.SUPPORT, self.POLY_DEG),
                  rand_element(rng, 1, self.SUPPORT, self.POLY_DEG))
                 for _ in range(self.PRODUCTS)]
        return {"pairs": pairs, "pz": rand_poly(rng, 1, self.Z_DEG)}

    def setup(self, inputs):
        import gha
        ctx = gha.Context(gha.parse_poly("h^3+h"))
        return gha, ctx

    def operations(self, state, inputs):
        gha, ctx = state
        x, y, _, z = gha.generators(ctx)
        ops = [(f"y^{k} x^{k}", lambda k=k: (y ** k) * (x ** k)) for k in range(1, self.TOWER + 1)]
        for a, b in inputs["pairs"]:
            ops.append(("product", lambda a=a, b=b: to_element(gha, ctx, a) * to_element(gha, ctx, b)))
        built = {}

        def z_poly():
            acc = gha.AlgebraElement.zero(ctx)
            for j, c in enumerate(inputs["pz"]):
                acc = acc + (z ** j) * gha.FieldElement(ctx.field, c)
            built["pz"] = acc
            return acc

        ops.append(("p(z)", z_poly))
        ops.append(("center peel", lambda: gha.center_membership(built["pz"])))
        return ops

    def checks(self, inputs, outputs, rng):
        f_img = O.poly_mod(int_poly(F_CUBIC), 1)
        pts = O.sample_points(rng, 2)
        for k in range(1, self.TOWER + 1):
            action, yb = word_action(f"y^{k}*x^{k}")
            yield ([k - 1], f"y^{k} x^{k}: normal form disagrees with M(t)",
                   lambda: nf_vs(f_img, 1, elem_data(outputs[k - 1]), action, yb, pts))
        for j, (a, b) in enumerate(inputs["pairs"]):
            pos = self.TOWER + j
            action, yb = product_action(a, b, 1)
            yield ([pos], f"product {j}: (a*b)v != a(bv)",
                   lambda: nf_vs(f_img, 1, elem_data(outputs[pos]), action, yb, pts))
        pz, last = inputs["pz"], len(outputs) - 1
        action, yb = word_action(" + ".join(f"{scalar_text(c)}*z^{j}" for j, c in enumerate(pz)))
        yield ([last - 1], "p(z): normal form disagrees with M(t)",
               lambda: nf_vs(f_img, 1, elem_data(outputs[last - 1]), action, yb, pts))
        yield ([last], "center peel did not recover p",
               lambda: outputs[last] is not None and trimmed(poly_data(outputs[last])) == trimmed(pz))

    def rejects_mutant(self, inputs, outputs, rng) -> bool:
        f_img = O.poly_mod(int_poly(F_CUBIC), 1)
        action, yb = word_action(f"y^{self.TOWER}*x^{self.TOWER}")
        bad = perturb(elem_data(outputs[self.TOWER - 1]))
        return not nf_vs(f_img, 1, bad, action, yb, O.sample_points(rng, 2))


# --- poly-sigma ----------------------------------------------------------------------


class PolySigma(Workload):
    """The Poly layer alone: sigma iterates, composition, mul, divmod, gcd."""

    name = "poly-sigma"
    launch = ["--f", "h^3+h", "nf", "y*x"]
    launch_f = int_poly(F_CUBIC)
    # sigma_power_h(f, k) for k <= CHAIN, then sigma^8(h) = sigma^4 o sigma^4,
    # of degree 3^8 = 6561.  Computing sigma^8(h) a second time, as
    # f o sigma^7, would leave room for one round per run only.
    CHAIN = 7
    # (degree, k with deg sigma^k(h) = degree, sets for mul, sets for divmod
    # and gcd).  The 24 products at degree 729 put the median request in
    # the middle of a cluster of like costs, and the three divmods at 6561
    # the p95, whether a run holds one round or two; with one, the p95 was
    # the cheaper of two degree-6561 gcds and spread up to 0.19 between runs.
    SIZES = ((81, 4, 2, 2), (729, 6, 24, 3), (6561, 8, 1, 3))
    MUL_DEG = 81
    WITNESS_F = 3
    WITNESS_N = 40

    def generate(self, seed: int) -> dict:
        rng = random.Random(seed)

        def ints(deg):
            return [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(deg + 1)]

        muls, divs = [], []
        for deg, k, mul_sets, div_sets in self.SIZES:
            muls += [{"deg": deg, "k": k, "b": ints(self.MUL_DEG)} for _ in range(mul_sets)]
            for _ in range(div_sets):
                p = ints(deg - 1)
                a, b = rng.sample(range(-9, 10), 2)
                divs.append({
                    "deg": deg, "k": k,
                    "div": ints(deg - 3),
                    "gcd_p": p,
                    "gcd_u": int_mul(p, [-a, 1]),
                    "gcd_v": int_mul(p, [-b, 1]),
                })
        witness = []
        for _ in range(self.WITNESS_F):
            deg = rng.randint(2, 4)
            witness.append([0] + ints(deg - 1))
        return {"muls": muls, "divs": divs, "witness": witness}

    def setup(self, inputs):
        import gha
        f = gha.parse_poly("h^3+h")
        ctxs = [gha.Context(to_poly(gha, gha.RATIONALS, int_poly(w))) for w in inputs["witness"]]
        return gha, f, ctxs

    def operations(self, state, inputs):
        gha, f, ctxs = state
        q = gha.RATIONALS
        chain = {}

        def sigma(k):
            chain[k] = gha.sigma_power_h(f, k)
            return chain[k]

        def sigma8():
            chain[8] = chain[4].compose(chain[4])
            return chain[8]

        ops = [(f"sigma^{k}(h)", lambda k=k: sigma(k)) for k in range(1, self.CHAIN + 1)]
        ops.append(("sigma^4 o sigma^4", sigma8))
        for d in inputs["muls"]:
            ops.append((f"mul {d['deg']}", lambda d=d: chain[d["k"]] * to_poly(gha, q, int_poly(d["b"]))))
        for d in inputs["divs"]:
            ops.append((f"divmod {d['deg']}", lambda d=d: divmod(chain[d["k"]], to_poly(gha, q, int_poly(d["div"])))))
            ops.append((f"gcd {d['deg']}", lambda d=d: gha.poly_gcd(
                to_poly(gha, q, int_poly(d["gcd_u"])), to_poly(gha, q, int_poly(d["gcd_v"])))))
        for ctx in ctxs:
            ops.append(("witness", lambda ctx=ctx: gha.noetherian_witness(ctx, self.WITNESS_N)))
        return ops

    def checks(self, inputs, outputs, rng):
        f_img = O.poly_mod(int_poly(F_CUBIC), 1)
        pts = O.sample_points(rng, 2)
        images = {}

        def chain_img(k):  # outputs[k - 1] is sigma^k(h), the last by composition
            if k not in images:
                images[k] = O.poly_mod(poly_data(outputs[k - 1]), 1)
            return images[k]

        def iterate_ok(k):
            for t in pts:
                want = t
                for _ in range(k):
                    want = O.horner(f_img, want)
                if O.horner(chain_img(k), t) != want:
                    return False
            return True

        for k in range(1, self.CHAIN + 2):
            yield [k - 1], f"sigma^{k}(h)(t) != f^{k}(t)", lambda: iterate_ok(k)
        yield [3, 7], "(P o Q)(t) != P(Q(t))", lambda: all(
            O.horner(chain_img(8), t) == O.horner(chain_img(4), O.horner(chain_img(4), t)) for t in pts)
        pos = self.CHAIN + 1
        for data in inputs["muls"]:
            deg, k = data["deg"], data["k"]
            b_img = O.poly_mod(int_poly(data["b"]), 1)

            def mul_ok():
                p_img = O.poly_mod(poly_data(outputs[pos]), 1)
                return all(O.horner(p_img, t) == O.horner(chain_img(k), t) * O.horner(b_img, t) % O.P
                           for t in pts)

            yield [k - 1, pos], f"mul {deg}: (A*B)(t) != A(t)*B(t)", mul_ok
            pos += 1
        for data in inputs["divs"]:
            deg, k = data["deg"], data["k"]

            def divmod_ok():
                quo, rem = outputs[pos]
                return self._divmod_ok(poly_data(outputs[k - 1]), int_poly(data["div"]),
                                       poly_data(quo), poly_data(rem))

            yield [k - 1, pos], f"divmod {deg}: q*d + r != n or deg r >= deg d", divmod_ok
            yield [pos + 1], f"gcd {deg}: not the monic common factor", lambda: (
                trimmed(poly_data(outputs[pos + 1])) == monic(int_poly(data["gcd_p"])))
            pos += 2
        for w in inputs["witness"]:
            want = monic(int_poly(w))
            yield [pos], f"witness for {w}: a report is wrong", lambda: all(
                r.n == n and trimmed(poly_data(r.generator_gcd)) == want and r.is_member == (len(w) == 2)
                for n, r in enumerate(outputs[pos]))
            pos += 1

    @staticmethod
    def _divmod_ok(num, den, quo, rem) -> bool:
        """Exact check of q*d + r = n with deg r < deg d, over Q."""
        if len(rem) >= len(den):
            return False
        acc = [Fraction(0)] * max(len(num), len(quo) + len(den) - 1, len(rem))
        for i, (a,) in enumerate(quo):
            for j, (b,) in enumerate(den):
                acc[i + j] += a * b
        for j, (c,) in enumerate(rem):
            acc[j] += c
        return trimmed([(c,) for c in acc]) == trimmed(num)

    def rejects_mutant(self, inputs, outputs, rng) -> bool:
        f_img = O.poly_mod(int_poly(F_CUBIC), 1)
        bad = perturb({(0, 0): poly_data(outputs[self.CHAIN])})[(0, 0)]
        img = O.poly_mod(bad, 1)
        for t in O.sample_points(rng, 2):
            want = t
            for _ in range(self.CHAIN + 1):
                want = O.horner(f_img, want)
            if O.horner(img, t) != want:
                return True
        return False


# --- cyclotomic ------------------------------------------------------------------------


def aut_order_ok(f_img_q: list, group: dict, want_order: int, rng) -> bool:
    """cyclic order as expected, a of exactly that order, f(a h + b) = a f(h) + b."""
    if group["cyclic_order"] != want_order:
        return False
    m = group["m"]
    a, b = O.scalar_mod(group["a"], m), O.scalar_mod(group["b"], m)
    if not O.has_order(a, want_order):
        return False
    for t in O.sample_points(rng, 3):
        if O.horner(f_img_q, (a * t + b) % O.P) != (a * O.horner(f_img_q, t) + b) % O.P:
            return False
    return True


def aut_data(group) -> dict:
    a, b = group.generator
    return {"cyclic_order": group.cyclic_order, "m": group.field.m,
            "a": tuple(a.coords), "b": tuple(b.coords), "n": group.n}


class Cyclotomic(Workload):
    """Products and scalars over Q(zeta_7) and Q(zeta_12); aut of h^n."""

    name = "cyclotomic"
    launch = ["--field", "Q(zeta_7)", "--f", "h^3+zeta*h", "nf", "y*x"]
    launch_f = cubic_zeta(7)
    launch_m = 7
    FIELDS = (7, 12)
    # per field: as many products of the dearer field as cheap operations
    # (16 auts, 4 scalar batches), so the median falls mid-way through the
    # Q(zeta_12) products; at 14 it fell near their lower edge and spread
    # 0.08-0.17 between runs
    PRODUCTS = 20
    SUPPORT = ((0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2))
    POLY_DEG = 1
    SCALAR_MULS = 150
    INVERSES = 25
    AUT_N = range(2, 14)

    def generate(self, seed: int) -> dict:
        rng = random.Random(seed)
        fields = []
        for m in self.FIELDS:
            fields.append({
                "m": m,
                "pairs": [(rand_element(rng, m, self.SUPPORT, self.POLY_DEG),
                           rand_element(rng, m, self.SUPPORT, self.POLY_DEG))
                          for _ in range(self.PRODUCTS)],
                "muls": [(rand_scalar(rng, m, 9, 9), rand_scalar(rng, m, 9, 9))
                         for _ in range(self.SCALAR_MULS)],
                "inverses": [rand_scalar(rng, m, 9, 9) for _ in range(self.INVERSES)],
            })
        # (f as ascending rationals, expected cyclic order of the x-fixing part)
        auts = [([0] * n + [Fraction(rng.randint(1, 9), rng.randint(1, 9))], n - 1)
                for n in self.AUT_N]
        auts.append(([0, 1, 0, 1], 2))
        auts += [([1] + [0] * (n - 1) + [1], 1) for n in (3, 4, 5)]
        return {"fields": fields, "auts": auts}

    def setup(self, inputs):
        import gha
        ctxs = [gha.Context(gha.parse_poly("h^3+zeta*h", gha.FieldDesc(m))) for m in self.FIELDS]
        auts = [gha.Context(to_poly(gha, gha.RATIONALS, int_poly(f))) for f, _ in inputs["auts"]]
        return gha, ctxs, auts

    def operations(self, state, inputs):
        gha, ctxs, auts = state
        ops = []
        for ctx, data in zip(ctxs, inputs["fields"]):
            field = ctx.field
            for a, b in data["pairs"]:
                ops.append(("product", lambda a=a, b=b, ctx=ctx:
                            to_element(gha, ctx, a) * to_element(gha, ctx, b)))

            def muls(data=data, field=field):
                fe = gha.FieldElement
                return [fe(field, a) * fe(field, b) for a, b in data["muls"]]

            def inverses(data=data, field=field):
                return [gha.FieldElement(field, a).inverse() for a in data["inverses"]]

            ops.append(("scalar muls", muls))
            ops.append(("scalar inverses", inverses))
        for ctx in auts:
            ops.append(("aut", lambda ctx=ctx: gha.automorphism_group(ctx)))
        return ops

    def f_image(self, m: int) -> list:
        return O.poly_mod(cubic_zeta(m), m)

    def checks(self, inputs, outputs, rng):
        pts = O.sample_points(rng, 2)
        pos = 0
        for data in inputs["fields"]:
            m = data["m"]
            f_img = self.f_image(m)
            for j, (a, b) in enumerate(data["pairs"]):
                action, yb = product_action(a, b, m)
                yield [pos], f"Q(zeta_{m}) product {j}: (a*b)v != a(bv)", lambda: (
                    nf_vs(f_img, m, elem_data(outputs[pos]), action, yb, pts))
                pos += 1
            yield [pos], f"Q(zeta_{m}) scalar product wrong", lambda: (
                len(outputs[pos]) == len(data["muls"]) and all(
                    O.scalar_mod(c.coords, m) == O.scalar_mod(a, m) * O.scalar_mod(b, m) % O.P
                    for (a, b), c in zip(data["muls"], outputs[pos])))
            yield [pos + 1], f"Q(zeta_{m}) inverse wrong", lambda: (
                len(outputs[pos + 1]) == len(data["inverses"]) and all(
                    O.scalar_mod(c.coords, m) * O.scalar_mod(a, m) % O.P == 1
                    for a, c in zip(data["inverses"], outputs[pos + 1])))
            pos += 2
        for f, order in inputs["auts"]:
            f_img = O.poly_mod(int_poly(f), 1)
            yield [pos], f"aut of {f}: expected cyclic order {order}", lambda: (
                outputs[pos].n == len(f) - 1 and aut_order_ok(f_img, aut_data(outputs[pos]), order, rng))
            pos += 1

    def rejects_mutant(self, inputs, outputs, rng) -> bool:
        data = inputs["fields"][0]
        a, b = data["pairs"][0]
        action, yb = product_action(a, b, data["m"])
        bad = perturb(elem_data(outputs[0]))
        return not nf_vs(self.f_image(data["m"]), data["m"], bad, action, yb, O.sample_points(rng, 2))


# --- cli-batch ---------------------------------------------------------------------------

DEEP_NESTING = 5000


def _field_m(text: str) -> int:
    return 1 if text == "Q" else int(text[len("Q(zeta_"):-1])


def _json_scalar(s) -> tuple:
    return (Fraction(s),) if isinstance(s, str) else tuple(Fraction(c) for c in s)


def _json_poly(items) -> list:
    return [_json_scalar(s) for s in items]


def _json_element(doc) -> tuple[dict, int]:
    terms = {(t["i"], t["k"]): _json_poly(t["poly"]) for t in doc["terms"]}
    return terms, _field_m(doc["field"])


class CliBatch(Workload):
    """Short requests through gha.cli.run in one process."""

    name = "cli-batch"
    module = "gha.cli"
    launch = ["--f", "h^2", "nf", "y*x"]
    launch_f = int_poly([0, 0, 1])
    SETTINGS = 15
    MAX_N = 5

    # fixed letter patterns keep the work of a request the same for every
    # seed; the seed draws the scalars, and f's coefficients
    WORDS = ("y*h*x*x", "x*y*h*y", "h*y*x*h", "y*y*x*x", "x*h*y*h", "h*x*y*y", "y*x*h*x")
    SMALL_WORDS = ("y*h*x", "h*x*y", "x*h*h", "h*y*h", "y*x*h", "x*y*h")

    @staticmethod
    def _word(rng, m, patterns, start: int) -> str:
        """A sum of three monomials: the patterns after `start`, scaled."""
        return " + ".join(scalar_text(rand_scalar(rng, m)) + "*" + patterns[(start + j) % len(patterns)]
                          for j in range(3))

    def generate(self, seed: int) -> dict:
        rng = random.Random(seed)
        reqs = []
        z = "(x*y - h)"
        for s in range(self.SETTINGS):
            n = (2, 3, 4)[s % 3]
            m = 1 if s % 2 == 0 else 3
            u, c = rand_scalar(rng, m), rand_scalar(rng, m)
            zero = tuple(Fraction(0) for _ in range(euler_phi(m)))
            f = [zero, c] + [zero] * (n - 2) + [u]
            base = ["--f", f"{scalar_text(u)}*h^{n} + {scalar_text(c)}*h"]
            if m != 1:
                base = ["--field", f"Q(zeta_{m})"] + base
            js = base + ["--json"]

            def add(argv, **expect):
                reqs.append({"argv": argv, "f": f, "m": m, "n": n, **expect})

            for j, mode in enumerate((js, base, js)):
                w = self._word(rng, m, self.WORDS, s + 2 * j)
                add(mode + ["nf", w], kind="nf", expr=w)
            for j, mode in enumerate((js, base)):
                w1 = self._word(rng, m, self.SMALL_WORDS, s + j)
                w2 = self._word(rng, m, self.SMALL_WORDS, s + j + 3)
                add(mode + ["commutator", w1, w2], kind="nf", expr=f"({w1})*({w2}) - ({w2})*({w1})")
            add(js + ["classify"], kind="classify")
            pz = rand_poly(rng, m, 2)
            pz_text = " + ".join(f"{scalar_text(cf)}*{z}^{j}" for j, cf in enumerate(pz))
            add(js + ["center", pz_text], kind="center", poly=pz)
            add(js + ["center", pz_text + " + x"], kind="center", poly=None)
            comps = [rand_poly(rng, m, 2) for _ in range(3)]
            zh_text = " + ".join(f"{poly_text(p)}*{z}^{k}" for k, p in enumerate(comps))
            add(js + ["zh-member", zh_text], kind="zh", comps=comps)
            add(js + ["zh-member", "x*h*y"], kind="zh", comps=None)
            add(js + ["noetherian", "--max-n", str(self.MAX_N)], kind="witness")
            add(js + ["gradings"], kind="gradings")
            add(js + ["aut"], kind="aut", order=n - 1)
            lam = rand_scalar(rng, m)
            lt = scalar_text(lam)
            add(js + ["derivation-check", f"--dx={lt}*x", f"--dy=-{lt}*y", "--dh=0"],
                kind="bool", value=True)
            a = self._word(rng, m, self.SMALL_WORDS, s)
            inner = [f"--d{g}=({a})*{g} - {g}*({a})" for g in "xyh"]
            add(js + ["derivation-check"] + inner, kind="bool", value=True)
            add(js + ["derivation-check", "--dx=x", "--dy=y", "--dh=0"], kind="bool", value=False)
            add(js + ["derivation-classify", f"--dx={lt}*x", f"--dy=-{lt}*y", "--dh=0"],
                kind="lambda", value=lam)
            add(js + ["derivation-classify", "--dx=h*x - x*h", "--dy=h*y - y*h", "--dh=0"],
                kind="lambda", value=None)
            for mode in (js, base):
                theta = " + ".join(f"x^{k}*{poly_text(rand_poly(rng, m, 1))}*y^{k}" for k in range(3))
                add(mode + ["sigma", theta], kind="sigma", expr=theta)
        for f_text, deg in (("2", 0), ("1/2*h + 1", 1), ("-h + 3", 1), ("h^5 - h", 5)):
            reqs.append({"argv": [f"--f={f_text}", "--json", "classify"], "kind": "classify",
                         "n": deg, "m": 1, "f": None})
        # the parser recurses once per parenthesis: a documented exit-2
        # error is the expected outcome; today it raises RecursionError
        deep = "(" * DEEP_NESTING + "x" + ")" * DEEP_NESTING
        reqs.append({"argv": ["--f", "h^2", "nf", deep], "kind": "syntax", "n": 2, "m": 1, "f": None})
        return {"requests": reqs}

    def setup(self, inputs):
        import gha.cli
        return gha.cli

    def operations(self, cli, inputs):
        def request(argv, expect_rc):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run(argv)
            if rc != expect_rc:
                raise RuntimeError(f"exit {rc}: {err.getvalue().strip()}")
            return rc, out.getvalue(), err.getvalue()

        return [(r["kind"], lambda r=r: request(r["argv"], 2 if r["kind"] == "syntax" else 0))
                for r in inputs["requests"]]

    def checks(self, inputs, outputs, rng):
        pts = O.sample_points(rng, 2)
        for i, r in enumerate(inputs["requests"]):
            yield [i], f"{r['kind']}: wrong answer for {r['argv'][-1][:60]!r}", lambda: (
                self._check_one(r, outputs[i][1], pts, rng))

    def _check_one(self, r, stdout, pts, rng) -> bool:
        kind, m, n = r["kind"], r["m"], r["n"]
        f_img = O.poly_mod(r["f"], m) if r["f"] else None
        if kind == "syntax":
            return True
        if kind in ("nf", "sigma"):
            if "--json" in r["argv"]:
                terms, fm = _json_element(json.loads(stdout))
                if fm != m:
                    return False
                img = O.element_mod(terms, m)
                mine, out_yb = (lambda mod, v: mod.act_nf(img, v)), O.max_y(img)
            else:
                node = O.parse(stdout.strip())
                mine, out_yb = (lambda mod, v: mod.act_expr(node, v)), O.y_degree(node)
            action, yb = word_action(r["expr"])
            yb = max(yb, out_yb)
            if kind == "sigma":  # x * sigma(theta) must act like theta * x
                left, right = (lambda mod, v: mod.x(mine(mod, v))), (lambda mod, v: action(mod, mod.x(v)))
            else:
                left, right = mine, action
            for t in pts:
                mod = O.Module(f_img, t, m)
                for e in range(yb + 2):
                    if left(mod, {e: 1}) != right(mod, {e: 1}):
                        return False
            return True
        doc = json.loads(stdout)
        if kind == "classify":
            return doc == {
                "deg_f": n, "is_domain": n >= 1, "is_noetherian": n == 1,
                "is_generalized_down_up": n <= 1,
                "center": "not computed (deg f = 1)" if n == 1 else "C[z]",
            }
        if kind == "center":
            if r["poly"] is None:
                return doc == {"in_center": False, "poly": None}
            return doc["in_center"] is True and trimmed(_json_poly(doc["poly"])) == trimmed(r["poly"])
        if kind == "zh":
            if r["comps"] is None:
                return doc == {"member": False, "components": None}
            got = {int(k): trimmed(_json_poly(p)) for k, p in doc["components"].items()}
            want = {k: trimmed(p) for k, p in enumerate(r["comps"]) if trimmed(p)}
            return doc["member"] is True and got == want
        if kind == "witness":
            want = [tuple(c / r["f"][-1][0] for c in cf) for cf in r["f"]] if m == 1 else None
            for j, rep in enumerate(doc["reports"]):
                gcd = trimmed(_json_poly(rep["gcd"]))
                if rep["n"] != j or rep["member"] is not False or gcd[-1] != unit(m):
                    return False
                if want is not None and gcd != trimmed(want):
                    return False
                if m != 1 and O.poly_mod(gcd, m) != _monic_mod(f_img):
                    return False
            return len(doc["reports"]) == self.MAX_N + 1
        if kind == "gradings":
            return doc == {"generator": [1, -1, 0], "all_integer_multiples": True}
        if kind == "aut":
            group = {"cyclic_order": doc["cyclic_order"], "m": _field_m(doc["field"]),
                     "a": _json_scalar(doc["a"]), "b": _json_scalar(doc["b"])}
            if doc["n"] != n:
                return False
            ext = group["m"]
            f_ext = O.poly_mod([_embed(c, m, ext) for c in r["f"]], ext)
            return aut_order_ok(f_ext, group, r["order"], rng)
        if kind == "bool":
            return doc == {"is_derivation": r["value"]}
        if kind == "lambda":
            if r["value"] is None:
                return doc == {"lambda": None}
            return _json_scalar(doc["lambda"]) == tuple(r["value"])
        raise O.OracleError(f"unknown request kind {kind}")

    def rejects_mutant(self, inputs, outputs, rng) -> bool:
        for r, out in zip(inputs["requests"], outputs):
            if r["kind"] == "nf" and out is not None and "--json" in r["argv"]:
                doc = json.loads(out[1])
                terms, m = _json_element(doc)
                bad = perturb(terms)
                doc["terms"] = [{"i": i, "k": k, "poly": [
                    str(c[0]) if m == 1 else [str(q) for q in c] for c in p]}
                    for (i, k), p in bad.items()]
                return not self._check_one(r, json.dumps(doc), O.sample_points(rng, 2), rng)
        return False


def _monic_mod(img: list) -> list:
    inv = pow(img[-1], -1, O.P)
    return [c * inv % O.P for c in img]


def _embed(coords: tuple, m: int, target: int) -> tuple:
    """Coordinates of a Q(zeta_m) scalar written in Q(zeta_target), as a
    sum of powers of zeta_target before reduction mod Phi_target.

    The oracle only evaluates these coordinates at a root of unity, so the
    unreduced power basis is fine; scalar_mod takes any coordinate length.
    """
    if m == target:
        return tuple(coords)
    step = target // m
    out = [Fraction(0)] * (step * (len(coords) - 1) + 1)
    for j, c in enumerate(coords):
        out[j * step] += c
    return tuple(out)


WORKLOADS = {w.name: w for w in (NfTower(), PolySigma(), Cyclotomic(), CliBatch())}
