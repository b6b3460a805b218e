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
from itertools import compress
from json.encoder import encode_basestring_ascii as _json_str

from .core import AlgebraElement, Context, commutator, sigma_h0
from .errors import GhaError, ParseError
from .field import RATIONALS, FieldDesc, FieldElement, _int_text, _ratio_text, set_degree_cap
from .morphisms import (
    DerivationSpec,
    automorphism_group,
    check_derivation,
    classify_locally_finite,
)
from .parser import parse_element, parse_poly
from .poly import Poly
from .structure import (
    admissible_generator_gradings,
    center_membership,
    classify,
    noetherian_witness,
    zh_membership,
)


def _field_desc(text: str) -> FieldDesc:
    if text == "Q":
        return RATIONALS
    m = re.fullmatch(r"Q\(zeta_(\d+)\)", text)
    if m and int(m.group(1)) >= 1:
        return FieldDesc(int(m.group(1)))
    raise argparse.ArgumentTypeError(f"unknown field {text!r}; use Q or Q(zeta_m)")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("expected a nonnegative integer")
    return value


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
    parser.add_argument("--degree-cap", type=_positive_int, default=None, metavar="N",
                        help="abort computations whose polynomial degree exceeds N")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nf", help="normal form of an expression")
    p.add_argument("expr")

    p = sub.add_parser("commutator", help="normal form of [e1, e2]")
    p.add_argument("expr1")
    p.add_argument("expr2")

    sub.add_parser("classify", help="structural flags of H(f)")

    p = sub.add_parser("center", help="write an element as a polynomial in z")
    p.add_argument("expr")

    p = sub.add_parser("zh-member", help="write an element as sum_k p_k(h) z^k")
    p.add_argument("expr")

    p = sub.add_parser("noetherian", help="ascending-chain witness reports")
    p.add_argument("--max-n", type=_nonnegative_int, required=True)

    sub.add_parser("gradings", help="admissible generator gradings")

    sub.add_parser("aut", help="automorphism group")

    for name in ("derivation-check", "derivation-classify"):
        p = sub.add_parser(name, help=f"{name.split('-')[1]} a candidate derivation")
        p.add_argument("--dx", required=True, metavar="EXPR", help="image of x")
        p.add_argument("--dy", required=True, metavar="EXPR", help="image of y")
        p.add_argument("--dh", required=True, metavar="EXPR", help="image of h")

    p = sub.add_parser("sigma", help="apply sigma on the degree-0 subalgebra")
    p.add_argument("expr")

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser run() uses: built on the first call, only read afterwards.

    parse_args builds a new Namespace per call and leaves the parser as it
    was, so one parser serves every run() in the process.
    """
    return build_parser()


# --- serialization -----------------------------------------------------------


def _scalar_json(c: FieldElement):
    """A string over Q, else one string per coordinate, "0" for a zero one."""
    if c.field.is_rational:
        return _ratio_text(c.num[0], c.den)
    out = ["0"] * len(c.num)
    for j in compress(range(len(c.num)), c.num):
        out[j] = _ratio_text(c.num[j], c.den)
    return out


def _poly_json(p: Poly) -> list:
    return [_scalar_json(c) for c in p.coeffs]


_JSON_WORDS = {None: "null", True: "true", False: "false"}


def _json_text(value) -> str:
    """json.dumps(value) of a report, also for ints of more digits than int.__repr__ writes."""
    if isinstance(value, str):
        return _json_str(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_json_str(k)}: {_json_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_json_text, value)) + "]"
    if value is None or isinstance(value, bool):
        return _JSON_WORDS[value]
    return _int_text(value)


# --- subcommands -------------------------------------------------------------
# Each builds and returns only the requested output: JSON data or text.


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
    p = center_membership(parse_element(args.expr, ctx))
    if p is None:
        return {"in_center": False, "poly": None} if args.json else "none"
    return {"in_center": True, "poly": _poly_json(p)} if args.json else p.to_text("z")


def _cmd_zh_member(ctx, args):
    comps = zh_membership(parse_element(args.expr, ctx))
    if comps is None:
        return {"member": False, "components": None} if args.json else "none"
    if args.json:
        return {"member": True,
                "components": {str(k): _poly_json(p) for k, p in comps.items()}}
    return "; ".join(f"p_{k} = {p.to_text()}" for k, p in comps.items()) or "p_0 = 0"


def _cmd_noetherian(ctx, args):
    # the ideal is (f) for every n (see noetherian_witness): one report, its gcd formatted once
    (r,) = noetherian_witness(ctx, 0)
    if args.json:
        gcd = _poly_json(r.generator_gcd)
        return {"reports": [{"n": n, "gcd": gcd, "member": r.is_member}
                            for n in range(args.max_n + 1)]}
    tail = f": gcd = {r.generator_gcd.to_text()}, member = {str(r.is_member).lower()}"
    return "\n".join(f"n={n}{tail}" for n in range(args.max_n + 1))


def _cmd_gradings(ctx, args):
    family = admissible_generator_gradings(ctx)
    if args.json:
        return {"generator": list(family.generator), "all_integer_multiples": True}
    return str(family)


def _cmd_aut(ctx, args):
    group = automorphism_group(ctx)
    a, b = group.generator
    if args.json:
        return {
            "n": group.n,
            "cyclic_order": group.cyclic_order,
            "a": _scalar_json(a),
            "b": _scalar_json(b),
            "field": str(group.field),
            "group": group.describe(),
        }
    text = f"Aut(H(f)) ≅ {group.describe()}; generator: a={a}, b={b}"
    if not group.field.is_rational:
        text += f" (field {group.field})"
    return text


def _parse_derivation(ctx, args) -> DerivationSpec:
    return DerivationSpec(
        ctx,
        parse_element(args.dx, ctx),
        parse_element(args.dy, ctx),
        parse_element(args.dh, ctx),
    )


def _cmd_derivation_check(ctx, args):
    ok = check_derivation(_parse_derivation(ctx, args))
    return {"is_derivation": ok} if args.json else str(ok).lower()


def _cmd_derivation_classify(ctx, args):
    lam = classify_locally_finite(_parse_derivation(ctx, args))
    if lam is None:
        return {"lambda": None} if args.json else "none"
    return {"lambda": _scalar_json(lam)} if args.json else f"lambda = {lam}"


def _cmd_sigma(ctx, args):
    return _element_out(args, sigma_h0(parse_element(args.expr, ctx)))


_COMMANDS = {
    "nf": _cmd_nf,
    "commutator": _cmd_commutator,
    "classify": _cmd_classify,
    "center": _cmd_center,
    "zh-member": _cmd_zh_member,
    "noetherian": _cmd_noetherian,
    "gradings": _cmd_gradings,
    "aut": _cmd_aut,
    "derivation-check": _cmd_derivation_check,
    "derivation-classify": _cmd_derivation_classify,
    "sigma": _cmd_sigma,
}


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
        out = _COMMANDS[args.command](ctx, args)
        print(_json_text(out) if args.json else out)
        return 0
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GhaError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    try:
        return run()
    except BrokenPipeError:  # the reader closed stdout: the final flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
