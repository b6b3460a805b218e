"""Command line behavior: text output, JSON output, exit codes."""

import argparse
import itertools
import json
import os
import shlex
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from gha import cli, core, field, structure
from gha.cli import build_parser, run
from gha.core import AlgebraElement, Context
from gha.parser import parse_element, parse_poly
from gha.poly import Poly
from gha.poly import degree_cap

from . import cli_corpus
from .helpers import digits, line_events


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err.rstrip("\n")


def test_nf_golden(capsys):
    code, out, _ = invoke(capsys, "--f", "h^2", "nf", "y*x")
    assert code == 0
    assert out == "(h^2 - h) + x^1 * (1) * y^1"


def test_nf_json(capsys):
    code, out, _ = invoke(capsys, "--f", "h^2", "--json", "nf", "y*x")
    assert code == 0
    doc = json.loads(out)
    assert doc["f"] == ["0", "0", "1"]
    assert doc["field"] == "Q"
    assert doc["terms"] == [
        {"i": 0, "k": 0, "poly": ["0", "-1", "1"]},
        {"i": 1, "k": 1, "poly": ["1"]},
    ]


def test_nf_cyclotomic_json(capsys):
    code, out, _ = invoke(
        capsys, "--f", "h^2", "--field", "Q(zeta_4)", "--json", "nf", "zeta*x"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["field"] == "Q(zeta_4)"
    assert doc["terms"] == [{"i": 1, "k": 0, "poly": [["0", "1"]]}]


def test_commutator_command(capsys):
    code, out, _ = invoke(capsys, "--f", "h^2", "commutator", "y", "x^2")
    assert code == 0
    assert out == "x^1 * (h^4 - h)"


def test_classify_output(capsys):
    code, out, _ = invoke(capsys, "--f", "h^2", "classify")
    assert code == 0
    assert out.splitlines() == [
        "deg f: 2",
        "domain: true",
        "noetherian: false",
        "generalized down-up: false",
        "center: C[z]",
    ]


def test_classify_json(capsys):
    code, out, _ = invoke(capsys, "--f", "3*h+1", "--json", "classify")
    doc = json.loads(out)
    assert code == 0
    assert doc == {
        "deg_f": 1,
        "is_domain": True,
        "is_noetherian": True,
        "is_generalized_down_up": True,
        "center": "not computed (deg f = 1)",
    }


def test_noetherian_output(capsys):
    code, out, _ = invoke(capsys, "--f", "h^2", "noetherian", "--max-n", "2")
    assert code == 0
    assert out.splitlines() == [
        "n=0: gcd = h^2, member = false",
        "n=1: gcd = h^2, member = false",
        "n=2: gcd = h^2, member = false",
    ]


def test_noetherian_membership_linear(capsys):
    code, out, _ = invoke(capsys, "--f", "2*h", "noetherian", "--max-n", "0")
    assert code == 0
    assert out == "n=0: gcd = h, member = true"
    code, _, err = invoke(capsys, "--f", "2*h", "noetherian", "--max-n", "-1")
    assert code == 2
    assert "expected a nonnegative integer" in err


def test_gradings_output(capsys):
    code, out, _ = invoke(capsys, "--f", "h^2", "gradings")
    assert code == 0
    assert out == "(l, -l, 0) for every integer l"


def test_aut_rational_output(capsys):
    code, out, _ = invoke(capsys, "--f", "h^3+h", "aut")
    assert code == 0
    assert out == "Aut(H(f)) ≅ C* x Z_2; generator: a=-1, b=0"


def test_aut_cyclotomic_output(capsys):
    code, out, _ = invoke(capsys, "--f", "h^4", "aut")
    assert code == 0
    assert out == "Aut(H(f)) ≅ C* x Z_3; generator: a=zeta, b=0 (field Q(zeta_3))"


def test_aut_json(capsys):
    code, out, _ = invoke(capsys, "--f", "h^7+h^4", "--json", "aut")
    doc = json.loads(out)
    assert code == 0
    assert doc["cyclic_order"] == 3
    assert doc["group"] == "C* x Z_3"
    assert doc["field"] == "Q(zeta_3)"
    assert doc["b"] == ["0", "0"]


def test_center_command(capsys):
    code, out, _ = invoke(capsys, "--f", "h^2", "center", "z^2 + h - x*y")
    assert code == 0
    assert out == "z^2 - z"
    code, out, _ = invoke(capsys, "--f", "h^2", "center", "h")
    assert code == 0
    assert out == "none"


def test_center_json(capsys):
    code, out, _ = invoke(capsys, "--f", "h^2", "--json", "center", "z^2")
    doc = json.loads(out)
    assert doc == {"in_center": True, "poly": ["0", "0", "1"]}


def test_zh_member_command(capsys):
    code, out, _ = invoke(capsys, "--f", "h^2", "zh-member", "h^3 + z")
    assert code == 0
    assert out == "p_0 = h^3; p_1 = 1"
    code, out, _ = invoke(capsys, "--f", "h^2", "zh-member", "x*h*y")
    assert code == 0
    assert out == "none"


def test_sigma_command(capsys):
    code, out, _ = invoke(capsys, "--f", "h^2", "sigma", "x*h*y")
    assert code == 0
    assert out == "(h^3 - h^2) + x^1 * (h^2) * y^1"


def test_derivation_check_command(capsys):
    code, out, _ = invoke(
        capsys, "--f", "h^2", "derivation-check", "--dx=x", "--dy=-y", "--dh=0"
    )
    assert code == 0 and out == "true"
    code, out, _ = invoke(
        capsys, "--f", "h^2", "derivation-check", "--dx=x", "--dy=0", "--dh=0"
    )
    assert code == 0 and out == "false"


def test_derivation_classify_command(capsys):
    code, out, _ = invoke(
        capsys, "--f", "h^2", "derivation-classify", "--dx=5/3*x", "--dy=-5/3*y", "--dh=0"
    )
    assert code == 0 and out == "lambda = 5/3"
    code, out, _ = invoke(
        capsys, "--f", "h^2", "derivation-classify", "--dx=x*z", "--dy=-z*y", "--dh=0"
    )
    assert code == 0 and out == "none"


def test_syntax_error_exit_code(capsys):
    code, _, err = invoke(capsys, "--f", "h^2", "nf", "y*(")
    assert code == 2
    assert "syntax error at offset 3" in err
    code, out, err = invoke(capsys, "--f", "h^2", "nf", "1/x")
    assert (code, out) == (2, "")
    assert err == "error: syntax error at offset 2: expected integer denominator, found 'x'"


def test_bad_f_polynomial_exit_code(capsys):
    code, _, err = invoke(capsys, "--f", "h^", "nf", "y")
    assert code == 2
    assert "syntax error" in err


def test_bad_field_exit_code(capsys):
    code, _, err = invoke(capsys, "--f", "h^2", "--field", "Q(zeta_0)", "nf", "y")
    assert code == 2
    assert "unknown field" in err


def test_unknown_subcommand_exit_code(capsys):
    code, _, _ = invoke(capsys, "nope")
    assert code == 2


def test_domain_error_exit_code(capsys):
    code, _, err = invoke(capsys, "--f", "h", "aut")
    assert code == 1
    assert "deg f > 1" in err
    code, _, err = invoke(capsys, "--f", "h^2", "zh-member", "x*h*y^2")
    assert code == 1


def test_degree_cap_option(capsys):
    before = degree_cap()
    code, _, err = invoke(capsys, "--f", "h^2", "--degree-cap", "10", "nf", "h^50")
    assert code == 1
    assert "exceeds the cap" in err
    assert degree_cap() == before  # the option must not leak
    code, _, err = invoke(capsys, "--f", "h^2", "--degree-cap", "0", "nf", "h")
    assert code == 2
    assert "expected a positive integer" in err


@pytest.mark.parametrize("argv, message", [
    *[(["--degree-cap", v, "--f", "h", "nf", "x"], "argument --degree-cap: expected a positive integer")
      for v in ("abc", "1.5", "", "0", "-3")],
    *[(["--f", "h", "noetherian", "--max-n", v], "argument --max-n: expected a nonnegative integer")
      for v in ("x1", "1.5", "", "-1")],
])
def test_count_options_give_one_message_for_any_bad_value(capsys, argv, message):
    # a non-integer gets the message of an out-of-range value, with no private function named
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith(message) and "invalid" not in err, err


def test_sigma_is_refused_at_the_cap_of_y_times_theta(capsys):
    # sigma on H_0 is the product y * theta with one y taken off; the product
    # checks n^K for theta's top K = 2 before any work, so the message names
    # 3^2 = 9, not the first sigma(g) of degree 6 a term-by-term rule meets
    expr = "x^2*(h^2+1)*y^2 + x*(h^3)*y + h^5"
    code, out, err = invoke(capsys, "--degree-cap", "5", "--f", "h^3+h", "sigma", expr)
    assert (code, out) == (1, "")
    assert err == "error: result degree 9 exceeds the cap 5"
    code, out, _ = invoke(capsys, "--degree-cap", "9", "--f", "h^3+h", "sigma", "x*(h^2+1)*y")
    assert code == 0 and out == "(h^5 + h^3) + x^1 * (h^6 + 2*h^4 + h^2 + 1) * y^1"


def test_degree_cap_option_holds_for_its_own_run_only(capsys, monkeypatch):
    # two runs in threads, one with --degree-cap 10, inside nf h^50 at once:
    # nf parses (and so computes) its expression after the run sets its cap
    entered, computed = threading.Barrier(2, timeout=60), threading.Barrier(2, timeout=60)
    parse = cli.parse_element

    def parse_in_step(text, ctx):
        entered.wait()  # both runs have set their cap, or not
        try:
            return parse(text, ctx)
        finally:
            computed.wait()  # neither run returns before both have computed

    monkeypatch.setattr(cli, "parse_element", parse_in_step)
    before = degree_cap()
    options = {"capped": ["--degree-cap", "10"], "free": []}
    codes = {}

    def call(name):
        codes[name] = run(["--f", "h^2", *options[name], "nf", "h^50"])

    threads = [threading.Thread(target=call, args=(name,)) for name in options]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert codes == {"capped": 1, "free": 0}
    captured = capsys.readouterr()
    assert captured.out == "(h^50)\n"
    assert "exceeds the cap 10" in captured.err
    assert degree_cap() == before


def test_zero_denominator_is_syntax_error(capsys):
    code, _, err = invoke(capsys, "--f", "h^2", "nf", "1/0")
    assert code == 2
    assert "denominator" in err


def test_missing_f_is_usage_error(capsys):
    code, _, _ = invoke(capsys, "nf", "y")
    assert code == 2


def test_parser_prog_name():
    assert build_parser().prog == "gha"


def test_module_entry_point_subprocess():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "gha.cli", "--f", "h^2", "nf", "y*x"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(h^2 - h) + x^1 * (1) * y^1"


def test_main_exits_quietly_when_the_reader_closes_stdout():
    # 2^300000 prints 90,309 digits, more than a 64 KiB pipe holds, so the
    # print is still writing, or has yet to write, when the reader leaves
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    with subprocess.Popen(
        [sys.executable, "-m", "gha.cli", "--f", "h^2", "nf", "2^300000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, bufsize=0,
    ) as proc:  # closes stderr, too, on the way out
        assert proc.stdout.read(60)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 1
    assert err == b""


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_running_out_of_memory_exits_1_with_one_line():
    # the child limits its own address space to 300 MB before it imports gha:
    # 3,000,001 witness lines, or as many dicts, do not fit, and 4 lines do
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    limited = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (300 << 20, 300 << 20)); "
               "from gha.cli import main; sys.argv[0] = 'gha'; sys.exit(main())")

    def child(*argv):
        proc = subprocess.run([sys.executable, "-c", limited, "--f", "h^2", *argv],
                              capture_output=True, env=env)
        return proc.returncode, proc.stdout, proc.stderr

    for fmt in ([], ["--json"]):
        assert child(*fmt, "noetherian", "--max-n", "3000000") == (1, b"", b"error: out of memory\n")
    code, out, err = child("noetherian", "--max-n", "3")
    assert (code, err) == (0, b"") and out.count(b"\n") == 4


def test_deep_nesting_is_syntax_error(capsys):
    deep = "(" * 5000 + "x" + ")" * 5000
    code, out, err = invoke(capsys, "--f", "h^2", "nf", deep)
    assert code == 2 and out == ""
    assert "syntax error at offset 100" in err


def test_huge_generator_exponent_is_immediate(capsys):
    code, out, _ = invoke(capsys, "--f", "h^2", "nf", "x^100000000")
    assert code == 0
    assert out == "x^100000000 * (1)"


def test_huge_h_exponent_hits_the_cap(capsys):
    code, out, err = invoke(capsys, "--f", "h^2", "nf", "h^100000000")
    assert code == 1 and out == ""
    assert "exceeds the cap" in err


def _longest_convolutions(monkeypatch) -> list[int]:
    """The longer operand's length of every field._convolve call from now on, in order."""
    longest = []
    convolve = field._convolve

    def recording(a, b):
        longest.append(max(len(a), len(b)))
        return convolve(a, b)

    monkeypatch.setattr(field, "_convolve", recording)
    return longest


def test_large_cyclotomic_field_is_fast(monkeypatch, capsys):
    # Q(zeta_2000) reduces through the 5 nonzero terms of Phi_2000, with no
    # table of zeta powers, and its rows are spread to the zeta powers they
    # hold, never to phi(2000) = 800
    longest = _longest_convolutions(monkeypatch)
    code, out, _ = invoke(capsys, "--field", "Q(zeta_2000)", "--f", "h^2 + zeta*h", "nf", "y*x")
    assert code == 0
    assert out == "(h^2 + (zeta - 1)*h) + x^1 * (1) * y^1"
    assert longest and max(longest) < 800


@pytest.mark.parametrize("expr", ["y^17*x", "y^100000000*x"])
def test_normal_form_over_the_cap_fails_before_building(monkeypatch, capsys, expr):
    # y^k x^j has a coefficient of degree exactly 2^(k+j-1) when f = h^2: the
    # request convolves only what reading f = h^2 does, as "nf y" does, and
    # builds no y^k x^j
    longest = _longest_convolutions(monkeypatch)
    assert invoke(capsys, "--f", "h^2", "nf", "y")[0] == 0
    reading_f = list(longest)

    def building(*args):
        raise AssertionError("y^k x^j built before the cap refused it")

    monkeypatch.setattr(core, "_y_pow_x_pow", building)
    longest.clear()
    code, out, err = invoke(capsys, "--f", "h^2", "nf", expr)
    assert code == 1 and out == ""
    assert "exceeds the cap" in err
    assert longest == reading_f


def test_normal_form_at_the_cap_succeeds(capsys):
    code, out, _ = invoke(capsys, "--f", "h^2", "nf", "y^16*x")
    assert code == 0
    assert out == "(h^65536 - h) * y^15 + x^1 * (1) * y^16"


@pytest.mark.parametrize("name", ["Q(zeta_1000003)", "Q(zeta_100000000000000000000)",
                                  pytest.param(f"Q(zeta_{'9' * 5000})", id="Q(zeta_5000 nines)")])
def test_field_degree_over_the_cap_fails_fast(capsys, name):
    # the prime 1000003 is refused at p = 64, not factored up to 1000; the
    # others pass 2 cap^2 and are refused before any trial division
    (code, out, err), steps = line_events(
        field._factor, lambda: invoke(capsys, "--field", name, "--f", "h^2", "nf", "y*x"))
    assert steps < 300  # about 4 lines a trial division
    assert code == 1 and out == ""
    assert "exceeds the cap" in err


def test_field_degree_under_the_cap_succeeds(monkeypatch, capsys):
    # phi(100000) = 40000; Phi_100000 and the product are built from rows
    # far shorter than that
    longest = _longest_convolutions(monkeypatch)
    code, out, _ = invoke(capsys, "--field", "Q(zeta_100000)", "--f", "h^2", "nf", "y*x")
    assert code == 0
    assert out == "(h^2 - h) + x^1 * (1) * y^1"
    assert longest and max(longest) < 40000


def test_prime_index_below_twice_the_squared_cap_is_refused(capsys):
    # m = 2^61 - 1 is prime and below 2 cap^2, so only trial division up to
    # sqrt(m) could find phi(m) exactly; it is refused once phi(m) > cap is certain
    code, out, err = invoke(capsys, "--degree-cap", "10000000000", "--field", "Q(zeta_2305843009213693951)",
                            "--f", "h", "nf", "x")
    assert (code, out) == (1, "")
    assert err == "error: field degree phi(2305843009213693951) exceeds the cap 10000000000"


def test_degree_cap_option_bounds_the_field_degree(capsys):
    code, _, err = invoke(capsys, "--degree-cap", "3", "--field", "Q(zeta_5)", "--f", "h^2", "classify")
    assert code == 1
    assert "phi(5) = 4 exceeds the cap 3" in err
    code, _, _ = invoke(capsys, "--degree-cap", "4", "--field", "Q(zeta_5)", "--f", "h^2", "classify")
    assert code == 0


# --- one parser per process ----------------------------------------------------

REUSE_REQUESTS = [
    ["--f", "h^2", "nf", "y*x"],
    ["--f", "h^3+h", "--json", "commutator", "y", "x^2"],
    ["--field", "Q(zeta_3)", "--f", "h^2 + zeta*h", "--json", "aut"],
    ["--f", "h^2", "--degree-cap", "10", "nf", "h^50"],
    ["--f", "h^2", "noetherian", "--max-n", "2"],
    ["--f", "h^2", "nf"],
    ["--f", "h^2", "--json", "derivation-classify", "--dx=5/3*x", "--dy=-5/3*y", "--dh=0"],
    ["--f", "h^2", "--json", "frobnicate"],
    ["--help"],
    ["--f", "h^2", "center", "--help"],
    ["--f", "h^2", "--json", "zh-member", "h^3 + z"],
    ["--f", "h^2", "gradings"],
]


def _run_all(capsys):
    out = []
    for argv in REUSE_REQUESTS:
        code = run(list(argv))
        captured = capsys.readouterr()
        out.append((code, captured.out, captured.err))
    return out


def test_repeated_runs_in_one_process_repeat_their_results(capsys):
    before = degree_cap()
    first = _run_all(capsys)
    assert [code for code, _, _ in first] == [0, 0, 0, 1, 0, 2, 0, 2, 0, 0, 0, 0]
    assert "exceeds the cap 10" in first[3][2]
    assert "usage: gha" in first[5][2] and "usage: gha" in first[9][1]
    assert _run_all(capsys) == first
    assert degree_cap() == before


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()


def test_changing_a_built_parser_leaves_run_alone(capsys):
    argv = ["--f", "h^2", "--extra=1", "nf", "y*x"]
    parser = build_parser()
    parser.add_argument("--extra")
    assert parser.parse_args(argv).extra == "1"
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert "unrecognized arguments: --extra" in err


def test_run_builds_the_parser_at_most_once(monkeypatch, capsys):
    calls = []

    def counting():
        calls.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for _ in range(5):
            assert run(["--f", "h^2", "nf", "y*x"]) == 0
            assert run(["--f", "h^2", "--json", "classify"]) == 0
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()
    assert len(calls) == 1


# --- golden output, long integers, one output per request --------------------------

# stdout of each request in text and in --json; Q(zeta_5) and Q(zeta_12) rows
# carry zero middle coordinates and negative and fractional ones
GOLDEN = [
    (["--f", "h^2 - 1/2*h", "nf", "3/4*y*x - h"],
     "(3/4*h^2 - 17/8*h) + x^1 * (3/4) * y^1",
     '{"f": ["0", "-1/2", "1"], "field": "Q", "terms": [{"i": 0, "k": 0, "poly": '
     '["0", "-17/8", "3/4"]}, {"i": 1, "k": 1, "poly": ["3/4"]}]}'),
    (["--f", "h^3 + 3*h^2 + 2*h - 1", "aut"],
     "Aut(H(f)) ≅ C* x Z_2; generator: a=-1, b=-2",
     '{"n": 3, "cyclic_order": 2, "a": "-1", "b": "-2", "field": "Q", "group": "C* x Z_2"}'),
    (["--f", "h^2", "derivation-classify", "--dx=-7/3*x", "--dy=7/3*y", "--dh=0"],
     "lambda = -7/3",
     '{"lambda": "-7/3"}'),
    (["--field", "Q(zeta_5)", "--f", "h^2 + zeta^3*h", "nf", "(zeta^3 - 1/2*zeta)*y*x"],
     "((zeta^3 - 1/2*zeta)*h^2 + (-1/2*zeta^3 + 1/2*zeta^2 + 2*zeta + 1/2)*h)"
     " + x^1 * (zeta^3 - 1/2*zeta) * y^1",
     '{"f": [["0", "0", "0", "0"], ["0", "0", "0", "1"], ["1", "0", "0", "0"]], '
     '"field": "Q(zeta_5)", "terms": [{"i": 0, "k": 0, "poly": [["0", "0", "0", "0"], '
     '["1/2", "2", "1/2", "-1/2"], ["0", "-1/2", "0", "1"]]}, {"i": 1, "k": 1, "poly": '
     '[["0", "-1/2", "0", "1"]]}]}'),
    (["--field", "Q(zeta_5)", "--f", "h^5 + zeta*h", "aut"],
     "Aut(H(f)) ≅ C* x Z_4; generator: a=zeta^5, b=0 (field Q(zeta_20))",
     '{"n": 5, "cyclic_order": 4, "a": ["0", "0", "0", "0", "0", "1", "0", "0"], '
     '"b": ["0", "0", "0", "0", "0", "0", "0", "0"], "field": "Q(zeta_20)", '
     '"group": "C* x Z_4"}'),
    (["--field", "Q(zeta_5)", "--f", "h^2 + zeta^3*h", "derivation-classify",
      "--dx=(zeta^3 - 2)*x", "--dy=-(zeta^3 - 2)*y", "--dh=0"],
     "lambda = zeta^3 - 2",
     '{"lambda": ["-2", "0", "0", "1"]}'),
    (["--field", "Q(zeta_12)", "--f", "h^2 - 2/3*zeta*h", "nf",
      "(-3/7*zeta^3 + 5/2*zeta - 1)*x*h"],
     "x^1 * ((-3/7*zeta^3 + 5/2*zeta - 1)*h)",
     '{"f": [["0", "0", "0", "0"], ["0", "-2/3", "0", "0"], ["1", "0", "0", "0"]], '
     '"field": "Q(zeta_12)", "terms": [{"i": 1, "k": 0, "poly": [["0", "0", "0", "0"], '
     '["-1", "5/2", "0", "-3/7"]]}]}'),
    (["--field", "Q(zeta_12)", "--f", "(h + 1/2)^4 - 2/3*zeta*(h + 1/2) - 1/2", "aut"],
     "Aut(H(f)) ≅ C* x Z_3; generator: a=zeta^2 - 1, b=1/2*zeta^2 - 1 (field Q(zeta_12))",
     '{"n": 4, "cyclic_order": 3, "a": ["-1", "0", "1", "0"], "b": ["-1", "0", "1/2", "0"], '
     '"field": "Q(zeta_12)", "group": "C* x Z_3"}'),
    (["--field", "Q(zeta_12)", "--f", "h^2", "derivation-classify",
      "--dx=(-3/4*zeta^2 + 1/5)*x", "--dy=(3/4*zeta^2 - 1/5)*y", "--dh=0"],
     "lambda = -3/4*zeta^2 + 1/5",
     '{"lambda": ["1/5", "0", "-3/4", "0"]}'),
    (["--field", "Q", "--f", "h^3+h^2", "noetherian", "--max-n", "2"],
     "n=0: gcd = h^3 + h^2, member = false\n"
     "n=1: gcd = h^3 + h^2, member = false\n"
     "n=2: gcd = h^3 + h^2, member = false",
     '{"reports": [{"n": 0, "gcd": ["0", "0", "1", "1"], "member": false}, '
     '{"n": 1, "gcd": ["0", "0", "1", "1"], "member": false}, '
     '{"n": 2, "gcd": ["0", "0", "1", "1"], "member": false}]}'),
    (["--f", "h^3+h^2", "gradings"],
     "(l, -l, 0) for every integer l",
     '{"generator": [1, -1, 0], "all_integer_multiples": true}'),
    # 3-term operands: right-hand terms that share an x-exponent, y^k x^j spliced in
    (["--f", "h^3+h", "nf", "(x*h + 2*y - 1/3)*(x*y + h^2*x - 2*y)"],
     "(2*h^9 + 4*h^7 + 2*h^5) + (2*h^3 + 2/3) * y^1 + (-4) * y^2 + x^1 * (-1/3*h^6 - 2/3*h^4 -"
     " 1/3*h^2) + x^1 * (2*h^18 + 12*h^16 + 30*h^14 + 44*h^12 + 46*h^10 + 36*h^8 + 20*h^6 + 8*h^4"
     " + 2*h^2 - 2*h - 1/3) * y^1 + x^1 * (2) * y^2 + x^2 * (h^9 + 3*h^7 + 3*h^5 + h^3) + x^2 *"
     " (h^3 + h) * y^1",
     '{"f": ["0", "1", "0", "1"], "field": "Q", "terms": [{"i": 0, "k": 0, "poly": ["0", "0", "0",'
     ' "0", "0", "2", "0", "4", "0", "2"]}, {"i": 0, "k": 1, "poly": ["2/3", "0", "0", "2"]},'
     ' {"i": 0, "k": 2, "poly": ["-4"]}, {"i": 1, "k": 0, "poly": ["0", "0", "-1/3", "0", "-2/3",'
     ' "0", "-1/3"]}, {"i": 1, "k": 1, "poly": ["-1/3", "-2", "2", "0", "8", "0", "20", "0", "36",'
     ' "0", "46", "0", "44", "0", "30", "0", "12", "0", "2"]}, {"i": 1, "k": 2, "poly": ["2"]},'
     ' {"i": 2, "k": 0, "poly": ["0", "0", "0", "1", "0", "3", "0", "3", "0", "1"]}, {"i": 2, "k":'
     ' 1, "poly": ["0", "1", "0", "1"]}]}'),
    (["--f", "h^3+h", "commutator", "x*h + 2*y - 1/3", "x*y + h^2*x - 2*y"],
     "(2*h^9 + 4*h^7 + 2*h^5 + 2*h^4) + (2*h^3) * y^1 + x^1 * (-h^4) + x^1 * (2*h^18 + 12*h^16 +"
     " 30*h^14 + 44*h^12 + 46*h^10 + 36*h^8 + 18*h^6 + 4*h^4 + 2*h^3) * y^1 + x^2 * (-h^19 -"
     " 6*h^17 - 15*h^15 - 22*h^13 - 23*h^11 - 17*h^9 - 7*h^7 - h^5)",
     '{"f": ["0", "1", "0", "1"], "field": "Q", "terms": [{"i": 0, "k": 0, "poly": ["0", "0", "0",'
     ' "0", "2", "2", "0", "4", "0", "2"]}, {"i": 0, "k": 1, "poly": ["0", "0", "0", "2"]}, {"i":'
     ' 1, "k": 0, "poly": ["0", "0", "0", "0", "-1"]}, {"i": 1, "k": 1, "poly": ["0", "0", "0",'
     ' "2", "4", "0", "18", "0", "36", "0", "46", "0", "44", "0", "30", "0", "12", "0", "2"]},'
     ' {"i": 2, "k": 0, "poly": ["0", "0", "0", "0", "0", "-1", "0", "-7", "0", "-17", "0", "-23",'
     ' "0", "-22", "0", "-15", "0", "-6", "0", "-1"]}]}'),
    (["--field", "Q(zeta_3)", "--f", "h^3+zeta*h", "nf",
      "(zeta*x*h + y - 1/2)*(x*y - zeta^2*h*x + 3*y)"],
     "((zeta + 1)*h^6 + (-zeta - 3)*h^4 + (-zeta + 1)*h^2) + (h^3 + (zeta - 1)*h - 3/2) * y^1 +"
     " (3) * y^2 + x^1 * ((-1/2*zeta - 1/2)*h^3 + 1/2*h) + x^1 * ((zeta + 1)*h^9 - 3*h^7 -"
     " 3*zeta*h^5 + zeta*h^3 + 2*zeta*h - 1/2) * y^1 + x^1 * (1) * y^2 + x^2 * (-h^6 - 2*zeta*h^4"
     " + (zeta + 1)*h^2) + x^2 * (zeta*h^3 + (-zeta - 1)*h) * y^1",
     '{"f": [["0", "0"], ["0", "1"], ["0", "0"], ["1", "0"]], "field": "Q(zeta_3)", "terms":'
     ' [{"i": 0, "k": 0, "poly": [["0", "0"], ["0", "0"], ["1", "-1"], ["0", "0"], ["-3", "-1"],'
     ' ["0", "0"], ["1", "1"]]}, {"i": 0, "k": 1, "poly": [["-3/2", "0"], ["-1", "1"], ["0", "0"],'
     ' ["1", "0"]]}, {"i": 0, "k": 2, "poly": [["3", "0"]]}, {"i": 1, "k": 0, "poly": [["0", "0"],'
     ' ["1/2", "0"], ["0", "0"], ["-1/2", "-1/2"]]}, {"i": 1, "k": 1, "poly": [["-1/2", "0"],'
     ' ["0", "2"], ["0", "0"], ["0", "1"], ["0", "0"], ["0", "-3"], ["0", "0"], ["-3", "0"], ["0",'
     ' "0"], ["1", "1"]]}, {"i": 1, "k": 2, "poly": [["1", "0"]]}, {"i": 2, "k": 0, "poly": [["0",'
     ' "0"], ["0", "0"], ["1", "1"], ["0", "0"], ["0", "-2"], ["0", "0"], ["-1", "0"]]}, {"i": 2,'
     ' "k": 1, "poly": [["0", "0"], ["-1", "-1"], ["0", "0"], ["0", "1"]]}]}'),
    (["--field", "Q(zeta_3)", "--f", "h^3+zeta*h", "commutator",
      "zeta*x*h + y - 1/2", "x*y - zeta^2*h*x + 3*y"],
     "((zeta + 1)*h^6 + (-4*zeta - 3)*h^4 + (5*zeta + 4)*h^2) + (h^3 + (zeta - 1)*h) * y^1 + x^1 *"
     " (-zeta*h^4 + (2*zeta + 1)*h^2) + x^1 * ((zeta + 1)*h^9 - 3*h^7 - 3*zeta*h^5 + (-3*zeta -"
     " 1)*h^3 + (5*zeta + 4)*h) * y^1 + x^2 * (h^10 + 3*zeta*h^8 + (-3*zeta - 4)*h^6 + (-zeta +"
     " 1)*h^4)",
     '{"f": [["0", "0"], ["0", "1"], ["0", "0"], ["1", "0"]], "field": "Q(zeta_3)", "terms":'
     ' [{"i": 0, "k": 0, "poly": [["0", "0"], ["0", "0"], ["4", "5"], ["0", "0"], ["-3", "-4"],'
     ' ["0", "0"], ["1", "1"]]}, {"i": 0, "k": 1, "poly": [["0", "0"], ["-1", "1"], ["0", "0"],'
     ' ["1", "0"]]}, {"i": 1, "k": 0, "poly": [["0", "0"], ["0", "0"], ["1", "2"], ["0", "0"],'
     ' ["0", "-1"]]}, {"i": 1, "k": 1, "poly": [["0", "0"], ["4", "5"], ["0", "0"], ["-1", "-3"],'
     ' ["0", "0"], ["0", "-3"], ["0", "0"], ["-3", "0"], ["0", "0"], ["1", "1"]]}, {"i": 2, "k":'
     ' 0, "poly": [["0", "0"], ["0", "0"], ["0", "0"], ["0", "0"], ["1", "-1"], ["0", "0"], ["-4",'
     ' "-3"], ["0", "0"], ["0", "3"], ["0", "0"], ["1", "0"]]}]}'),
    # Q(zeta_2) has phi = 1 but is not Q: its scalars print as lists of one string
    (["--field", "Q(zeta_2)", "--f", "h^2 + 3*h", "nf", "(x - 1/2*y)^2"],
     "(-1/2*h^2 - h) + (1/4) * y^2 + x^1 * (-1) * y^1 + x^2 * (1)",
     '{"f": [["0"], ["3"], ["1"]], "field": "Q(zeta_2)", "terms": [{"i": 0, "k": 0, "poly": [["0"],'
     ' ["-1"], ["-1/2"]]}, {"i": 0, "k": 2, "poly": [["1/4"]]}, {"i": 1, "k": 1, "poly": [["-1"]]},'
     ' {"i": 2, "k": 0, "poly": [["1"]]}]}'),
    (["--field", "Q(zeta_2)", "--f", "h^2 + 3*h", "derivation-classify",
      "--dx=-1/2*x", "--dy=1/2*y", "--dh=0"],
     "lambda = -1/2",
     '{"lambda": ["-1/2"]}'),
]


@pytest.mark.parametrize("argv,text,doc", GOLDEN, ids=lambda v: None)
def test_golden_output(capsys, argv, text, doc):
    assert invoke(capsys, *argv) == (0, text, "")
    assert invoke(capsys, "--json", *argv) == (0, doc, "")


def test_every_fourth_request_of_the_output_corpus_prints_its_digest():
    # tests/data/cli_corpus.json: (exit code, stdout, stderr) of each request
    # as sha256; a mismatch names its argv, and `python -m tests.cli_corpus
    # --check` runs the whole corpus
    corpus = cli_corpus.load()
    assert cli_corpus.mismatches(corpus, corpus["requests"][::4]) == []


SEVENS = "7" * 5000  # longer than the 4300 digits str() and int() allow by default


def test_long_integer_output(capsys):
    power = digits(2 ** 20000)
    assert invoke(capsys, "--f", "h^2", "nf", "2^20000") == (0, f"({power})", "")
    code, out, err = invoke(capsys, "--f", "h^2", "--json", "nf", "2^20000")
    assert (code, err) == (0, "")
    assert json.loads(out)["terms"] == [{"i": 0, "k": 0, "poly": [power]}]


def test_long_integer_literals(capsys):
    assert invoke(capsys, "--f", "h^2", "nf", f"{SEVENS}*x") == (0, f"x^1 * ({SEVENS})", "")
    code, out, err = invoke(capsys, "--f", f"h^2+{SEVENS}", "nf", "y*x")
    assert (code, err) == (0, "")
    assert out == f"(h^2 - h + {SEVENS}) + x^1 * (1) * y^1"
    code, out, _ = invoke(capsys, "--f", "h^2", "--json", "nf", f"1/{SEVENS}*x")
    assert code == 0
    assert json.loads(out)["terms"] == [{"i": 1, "k": 0, "poly": [f"1/{SEVENS}"]}]
    assert invoke(capsys, "--f", "h^2", "nf", f"x^{SEVENS}") == (0, f"x^{SEVENS} * (1)", "")
    code, out, err = invoke(capsys, "--f", "h^2", "--json", "nf", f"x^{SEVENS}*y^{SEVENS}")
    assert (code, err) == (0, "")
    big = field._text_int(SEVENS)
    assert json.loads(out, parse_int=field._text_int)["terms"] == [
        {"i": big, "k": big, "poly": ["1"]}]


def test_superscript_digit_is_a_syntax_error(capsys):
    code, out, err = invoke(capsys, "--f", "h^2", "nf", "x^²")
    assert (code, out) == (2, "")
    assert "offset 2" in err


def test_syntax_error_offset_counts_code_points(capsys):
    # "é" is one code point and two UTF-8 bytes; the offset counts code points
    code, out, err = invoke(capsys, "--f", "h", "nf", "é²")
    assert (code, out) == (2, "") and "syntax error at offset 1:" in err
    code, out, err = invoke(capsys, "--f", "h", "nf", "x + é")
    assert (code, out) == (2, "") and "syntax error at offset 4:" in err


def test_text_mode_builds_no_json(monkeypatch, capsys):
    def refuse(*_):
        raise AssertionError("JSON built in text mode")

    monkeypatch.setattr(cli, "_poly_json", refuse)
    monkeypatch.setattr(cli, "_scalar_json", refuse)
    assert invoke(capsys, "--f", "h^2", "nf", "y*x")[0] == 0
    assert invoke(capsys, "--f", "h^3 - h", "aut")[0] == 0
    assert invoke(capsys, "--f", "h^2", "noetherian", "--max-n", "1")[0] == 0


def test_json_mode_builds_no_text(monkeypatch, capsys):
    def refuse(*_):
        raise AssertionError("text built in JSON mode")

    monkeypatch.setattr(AlgebraElement, "to_text", refuse)
    monkeypatch.setattr(Poly, "to_text", refuse)
    assert invoke(capsys, "--f", "h^2", "--json", "nf", "y*x")[0] == 0
    assert invoke(capsys, "--f", "h^2", "--json", "center", "x*y - h")[0] == 0


def test_json_reads_coefficients_off_the_kernel_rows(monkeypatch):
    # as to_text does: no scalar, and so no kernel pair, is built per coefficient
    # slot; (x+y)^12 over h^2 has 45,946 of them
    ctx = Context(parse_poly("h^2"))
    e = parse_element("(x+y)^12", ctx)
    want = [[str(c.as_fraction()) for c in e.terms[key].coeffs] for key in sorted(e.terms)]
    built = []
    make = field._Pair._from_ints.__func__
    monkeypatch.setattr(field._Pair, "_from_ints",
                        classmethod(lambda cls, *args: built.append(cls) or make(cls, *args)))
    doc = cli._element_out(argparse.Namespace(json=True), e)
    assert built == []
    assert [t["poly"] for t in doc["terms"]] == want


def test_noetherian_formats_the_gcd_once(monkeypatch, capsys):
    calls = []
    to_text = Poly.to_text

    def counting(p, *args):
        calls.append(p)
        return to_text(p, *args)

    monkeypatch.setattr(Poly, "to_text", counting)
    code, out, _ = invoke(capsys, "--f", "h^3+h^2", "noetherian", "--max-n", "50")
    assert code == 0 and len(out.splitlines()) == 51
    assert len(calls) == 1


def test_noetherian_builds_one_report(monkeypatch, capsys):
    # the ideal is (f) for every n: one report serves all max_n + 1 lines
    built = []
    report = structure.WitnessReport

    def counting(*args, **kwargs):
        built.append(args)
        return report(*args, **kwargs)

    monkeypatch.setattr(structure, "WitnessReport", counting)
    for fmt in ([], ["--json"]):
        built.clear()
        code, out, _ = invoke(capsys, "--f", "h^3+h^2", *fmt, "noetherian", "--max-n", "1000")
        assert code == 0 and len(built) == 1
        assert out.count("n=" if not fmt else '"n": ') == 1001


@pytest.mark.parametrize("argv, expected", [
    (["--f", "h^3+h^2"], "".join(f"n={n}: gcd = h^3 + h^2, member = false\n" for n in range(4))),
    (["--f", "2h"], "".join(f"n={n}: gcd = h, member = true\n" for n in range(4))),
    (["--f", "h^3+h^2", "--json"], '{"reports": [' + ", ".join(
        f'{{"n": {n}, "gcd": ["0", "0", "1", "1"], "member": false}}' for n in range(4)) + "]}\n"),
    (["--f", "2h", "--json"], '{"reports": [' + ", ".join(
        f'{{"n": {n}, "gcd": ["0", "1"], "member": true}}' for n in range(4)) + "]}\n"),
])
def test_noetherian_stdout_bytes(capsys, argv, expected):
    assert run(argv + ["noetherian", "--max-n", "3"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (expected, "")


def test_large_cyclotomic_product_convolves_short_rows(monkeypatch, capsys):
    # a product of rows with low zeta powers is spread to the stride those
    # powers need, never to phi(100000) = 40000
    longest = _longest_convolutions(monkeypatch)
    code, out, _ = invoke(capsys, "--field", "Q(zeta_100000)", "--f", "h^2", "nf", "y*x")
    assert code == 0 and out == "(h^2 - h) + x^1 * (1) * y^1"
    assert longest and max(longest) < 40000


def _readme_examples():
    """(argv, stdout) of every `$ gha ...` example in README.md."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    out = []
    for i, line in enumerate(lines):
        if line.startswith("$ gha "):
            expected = list(itertools.takewhile(lambda t: t and not t.startswith("`"), lines[i + 1:]))
            out.append((shlex.split(line)[2:], "\n".join(expected)))
    return out


@pytest.mark.parametrize("argv,expected", _readme_examples(), ids=lambda v: None)
def test_readme_examples(capsys, argv, expected):
    assert invoke(capsys, *argv) == (0, expected, "")


def test_readme_python_example(capsys):
    # the one ```python block of README.md runs, and each print writes its
    # comment's text up to the first ':'
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("# ", 1)[1].split(":", 1)[0]
                for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    assert len(expected) == 3 and capsys.readouterr().out.splitlines() == expected
