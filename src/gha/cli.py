"""Single-shot command line interface.

Results go to stdout, diagnostics to stderr.  Exit codes: 0 on success,
1 on domain errors (violated preconditions), 2 on syntax errors.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import os
import re
import sys

from .core import AlgebraElement, Context, commutator, sigma_h0
from .errors import GhaError, ParseError
from .field import RATIONALS, FieldDesc, _int_text, _ratio_text, _text_int, set_degree_cap
from .parser import parse_element, parse_poly
from .poly import Poly


def _field_desc(text: str) -> FieldDesc:
    if text == "Q":
        return RATIONALS
    m = re.fullmatch(r"Q\(zeta_(\d+)\)", text)
    if m and (index := _text_int(m.group(1))) >= 1:
        return FieldDesc(index)
    raise argparse.ArgumentTypeError(f"unknown field {text!r}; use Q or Q(zeta_m)")


def _count(least: int):
    """An argparse type for the integers >= least, 0 or 1, with one message for any other text."""

    def count(text: str) -> int:
        try:
            value = int(text)
            if value >= least:
                return value
        except ValueError:  # not re-raised: argparse would print "invalid count value"
            pass
        raise argparse.ArgumentTypeError(f"expected a {('nonnegative', 'positive')[least]} integer")
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gha",
        description="Exact computations in the generalized Heisenberg algebra H(f).",
    )
    parser.add_argument("--f", required=True, metavar="POLY",
                        help="defining polynomial f(h), e.g. 'h^3 + 2*h - 1'")
    parser.add_argument("--field", type=_field_desc, default=RATIONALS,
                        help="coefficient field: Q (default) or Q(zeta_m)")
    parser.add_argument("--json", action="store_true", help="emit JSON instead of text")
    parser.add_argument("--degree-cap", type=_count(1), default=None, metavar="N",
                        help="abort computations whose polynomial degree exceeds N")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="normal form of an expression")
    p.add_argument("expr")
    p.set_defaults(run=_cmd_nf)

    p = sub.add_parser("commutator", help="normal form of [e1, e2]")
    p.add_argument("expr1")
    p.add_argument("expr2")
    p.set_defaults(run=_cmd_commutator)

    sub.add_parser("classify", help="structural flags of H(f)").set_defaults(run=_cmd_classify)

    p = sub.add_parser("center", help="write an element as a polynomial in z")
    p.add_argument("expr")
    p.set_defaults(run=_cmd_center)

    p = sub.add_parser("zh-member", help="write an element as sum_k p_k(h) z^k")
    p.add_argument("expr")
    p.set_defaults(run=_cmd_zh_member)

    p = sub.add_parser("noetherian", help="ascending-chain witness reports")
    p.add_argument("--max-n", type=_count(0), required=True)
    p.set_defaults(run=_cmd_noetherian)

    sub.add_parser("gradings", help="admissible generator gradings").set_defaults(run=_cmd_gradings)

    sub.add_parser("aut", help="automorphism group").set_defaults(run=_cmd_aut)

    for name, handler in (("derivation-check", _cmd_derivation_check),
                          ("derivation-classify", _cmd_derivation_classify)):
        p = sub.add_parser(name, help=f"{name.split('-')[1]} a candidate derivation")
        p.add_argument("--dx", required=True, metavar="EXPR", help="image of x")
        p.add_argument("--dy", required=True, metavar="EXPR", help="image of y")
        p.add_argument("--dh", required=True, metavar="EXPR", help="image of h")
        p.set_defaults(run=handler)

    p = sub.add_parser("sigma", help="apply sigma on the degree-0 subalgebra")
    p.add_argument("expr")
    p.set_defaults(run=_cmd_sigma)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser run() uses: built on the first call, only read afterwards.

    parse_args builds a new Namespace per call and leaves the parser as it
    was, so one parser serves every run() in the process.
    """
    return build_parser()


# --- serialization -----------------------------------------------------------


def _scalar_json(field: FieldDesc, row, den: int):
    """The scalar row/den: a string over Q, else one string per coordinate, "0" for a zero one."""
    if field.is_rational:
        return _ratio_text(row[0], den)
    return [_ratio_text(v, den) if v else "0" for v in row]


def _poly_json(p: Poly) -> list:
    phi = p.field.degree
    return [_scalar_json(p.field, p.num[j:j + phi], p.den) for j in range(0, len(p.num), phi)]


_JSON_WORDS = {None: "null", True: "true", False: "false"}


def _json_text(value) -> str:
    """json.dumps(value) of a report, also for ints of more digits than int.__repr__ writes."""
    from json.encoder import encode_basestring_ascii as string  # once per report, only under --json

    def text(value) -> str:
        if isinstance(value, str):
            return string(value)
        if isinstance(value, dict):
            return "{" + ", ".join(f"{string(k)}: {text(v)}" for k, v in value.items()) + "}"
        if isinstance(value, list):
            return "[" + ", ".join(map(text, value)) + "]"
        if value is None or isinstance(value, bool):
            return _JSON_WORDS[value]
        return _int_text(value)
    return text(value)


# --- subcommands -------------------------------------------------------------
# Each builds and returns only the requested output: JSON data or text.  The
# ones that use structure or morphisms import them when called, so that a
# launch loads only the engine and what its subcommand runs.


def _element_out(args, e: AlgebraElement):
    if not args.json:
        return e.to_text()
    return {
        "f": _poly_json(e.ctx.f),
        "field": str(e.ctx.field),
        "terms": [
            {"i": i, "k": k, "poly": _poly_json(e.terms[(i, k)])}
            for (i, k) in sorted(e.terms)
        ],
    }


def _cmd_nf(ctx, args):
    return _element_out(args, parse_element(args.expr, ctx))


def _cmd_commutator(ctx, args):
    e = commutator(parse_element(args.expr1, ctx), parse_element(args.expr2, ctx))
    return _element_out(args, e)


def _cmd_classify(ctx, args):
    from .structure import classify

    c = classify(ctx)
    if args.json:
        return {
            "deg_f": c.deg_f,
            "is_domain": c.is_domain,
            "is_noetherian": c.is_noetherian,
            "is_generalized_down_up": c.is_generalized_down_up,
            "center": c.center_description.value,
        }
    return "\n".join([
        f"deg f: {c.deg_f}",
        f"domain: {str(c.is_domain).lower()}",
        f"noetherian: {str(c.is_noetherian).lower()}",
        f"generalized down-up: {str(c.is_generalized_down_up).lower()}",
        f"center: {c.center_description.value}",
    ])


def _cmd_center(ctx, args):
    from .structure import center_membership

    p = center_membership(parse_element(args.expr, ctx))
    if p is None:
        return {"in_center": False, "poly": None} if args.json else "none"
    return {"in_center": True, "poly": _poly_json(p)} if args.json else p.to_text("z")


def _cmd_zh_member(ctx, args):
    from .structure import zh_membership

    comps = zh_membership(parse_element(args.expr, ctx))
    if comps is None:
        return {"member": False, "components": None} if args.json else "none"
    if args.json:
        return {"member": True,
                "components": {str(k): _poly_json(p) for k, p in comps.items()}}
    return "; ".join(f"p_{k} = {p.to_text()}" for k, p in comps.items()) or "p_0 = 0"


def _cmd_noetherian(ctx, args):
    from .structure import noetherian_witness

    # the ideal is (f) for every n (see noetherian_witness): one report, its gcd formatted once
    (r,) = noetherian_witness(ctx, 0)
    if args.json:
        gcd = _poly_json(r.generator_gcd)
        return {"reports": [{"n": n, "gcd": gcd, "member": r.is_member}
                            for n in range(args.max_n + 1)]}
    tail = f": gcd = {r.generator_gcd.to_text()}, member = {str(r.is_member).lower()}"
    return "\n".join(f"n={n}{tail}" for n in range(args.max_n + 1))


def _cmd_gradings(ctx, args):
    from .structure import admissible_generator_gradings

    family = admissible_generator_gradings(ctx)
    if args.json:
        return {"generator": list(family.generator), "all_integer_multiples": True}
    return str(family)


def _cmd_aut(ctx, args):
    from .morphisms import automorphism_group

    group = automorphism_group(ctx)
    a, b = group.generator
    if args.json:
        return {
            "n": group.n,
            "cyclic_order": group.cyclic_order,
            "a": _scalar_json(a.field, a.num, a.den),
            "b": _scalar_json(b.field, b.num, b.den),
            "field": str(group.field),
            "group": group.describe(),
        }
    text = f"Aut(H(f)) ≅ {group.describe()}; generator: a={a}, b={b}"
    if not group.field.is_rational:
        text += f" (field {group.field})"
    return text


def _parse_derivation(ctx, args):
    from .morphisms import DerivationSpec

    return DerivationSpec(
        ctx,
        parse_element(args.dx, ctx),
        parse_element(args.dy, ctx),
        parse_element(args.dh, ctx),
    )


def _cmd_derivation_check(ctx, args):
    from .morphisms import check_derivation

    ok = check_derivation(_parse_derivation(ctx, args))
    return {"is_derivation": ok} if args.json else str(ok).lower()


def _cmd_derivation_classify(ctx, args):
    from .morphisms import classify_locally_finite

    lam = classify_locally_finite(_parse_derivation(ctx, args))
    if lam is None:
        return {"lambda": None} if args.json else "none"
    return {"lambda": _scalar_json(lam.field, lam.num, lam.den)} if args.json else f"lambda = {lam}"


def _cmd_sigma(ctx, args):
    return _element_out(args, sigma_h0(parse_element(args.expr, ctx)))


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints its own diagnostics
        return int(exc.code or 0)
    return contextvars.copy_context().run(_run_command, args)  # a --degree-cap ends with the call


def _run_command(args) -> int:
    if args.degree_cap is not None:
        set_degree_cap(args.degree_cap)
    try:
        f = parse_poly(args.f, args.field)
        ctx = Context(f)
        out = args.run(ctx, args)
        print(_json_text(out) if args.json else out)
        return 0
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GhaError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1


def main() -> int:
    try:
        return run()
    except BrokenPipeError:  # the reader closed stdout: the final flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
