"""cli.run on drawn input: every request ends in exit 0, 1 or 2, never in an exception."""

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from gha import cli  # noqa: E402

# The cap bounds every request: with exponents of at most 3, a product that
# needs a sigma^k(h) above degree 64 is refused with exit 1 before any work.
CAP = ["--degree-cap", "64"]

_ints = st.integers(0, 12).map(str)
_numbers = _ints | st.tuples(_ints, st.integers(1, 12).map(str)).map("/".join)
_exponents = st.integers(0, 3).map(str)
_operators = st.sampled_from([" + ", " - ", "*"])


def _expressions(names, depth=3):
    """Expression texts over names, nested at most depth deep, exponents at most 3.

    So no exponent passes 27, and none applied to a sum passes 9.  One in
    eight texts is raw, of at most 6 characters: exponents of 4 digits at most.
    """
    leaf = _numbers | st.sampled_from(names)
    if depth == 0:
        return leaf
    inner = _expressions(names, depth - 1)
    well_formed = st.one_of(
        leaf,
        st.tuples(inner, _operators, inner).map("({0[0]}{0[1]}{0[2]})".format),
        inner.map("-{}".format),
        st.tuples(inner, _exponents).map("({0[0]})^{0[1]}".format),
    )
    if depth < 3:
        return well_formed
    return st.one_of([well_formed] * 7 + [st.text("xyhz()+-*^/0123 ", min_size=1, max_size=6)])


_elements = _expressions(["x", "y", "h", "z", "zeta"])
_polys = _expressions(["h", "zeta", "2h", "h^3"])
_fields = st.sampled_from([[], ["--field", "Q(zeta_3)"], ["--field", "Q(zeta_4)"],
                           ["--field", "Q(zeta_12)"]])


def _command(expr):
    """One subcommand with its arguments, the expressions drawn by expr."""
    images = st.tuples(expr, expr, expr).map(
        lambda e: [f"--dx={e[0]}", f"--dy={e[1]}", f"--dh={e[2]}"])
    return st.one_of(
        # "--" ends the options, so that an expression may start with "-"
        st.tuples(st.sampled_from(["nf", "center", "zh-member", "sigma"]), st.just("--"), expr)
        .map(list),
        st.tuples(st.just("commutator"), st.just("--"), expr, expr).map(list),
        st.sampled_from([["classify"], ["gradings"], ["aut"]]),
        st.integers(0, 5).map(lambda n: ["noetherian", "--max-n", str(n)]),
        st.tuples(st.sampled_from(["derivation-check", "derivation-classify"]), images)
        .map(lambda c: [c[0], *c[1]]),
    )


@settings(max_examples=300, deadline=None)
@given(_fields, _polys, st.sampled_from([[], ["--json"]]), _command(_elements))
@example([], "h^3 + h", [], ["nf", "y^3*x^3"])
@example([], "h^2", ["--json"], ["derivation-classify", "--dx=x", "--dy=-y", "--dh=0"])
@example(["--field", "Q(zeta_3)"], "zeta*h^3", [], ["aut"])
def test_run_exits_0_1_or_2_on_drawn_requests(field, f, fmt, command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run([*CAP, *field, f"--f={f}", *fmt, *command])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert (code == 0) == bool(out.getvalue()), err.getvalue()
