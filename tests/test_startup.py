"""What a launch of gha loads, and the public names of the package under lazy loading.

`import gha` loads the engine: errors, field, poly, core and parser.
structure and morphisms load on the first access to one of their names,
and the CLI imports them, and json, only in the subcommands that use them.
The test process has long loaded every module, so each check of what a
launch loads, or of what a bare `import gha` gives, runs in a fresh child.
"""

import contextlib
import io
import os
import pickle
import re
import subprocess
import sys

import pytest

import gha
from gha import (
    Context,
    admissible_generator_gradings,
    automorphism_group,
    classify,
    noetherian_witness,
    parse_poly,
)
from gha.cli import build_parser, run

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
ENV = dict(os.environ, PYTHONPATH=SRC)

# the names without a leading underscore that dir(gha) lists, and that
# `from gha import *` binds, after a bare `import gha`
PUBLIC = [
    "AlgebraElement", "AutGroup", "CenterKind", "Classification", "Context", "DegreeCapExceeded",
    "DerivationSpec", "FieldDesc", "FieldElement", "FieldMismatch", "Generators", "GhaError",
    "GradingFamily", "NilpotencyProbe", "NoEmbedding", "ParseError", "Poly", "RATIONALS",
    "UnsupportedCase", "WitnessReport", "admissible_generator_gradings", "apply_derivation",
    "apply_iota", "apply_phi_lambda", "apply_x_fixing_automorphism", "automorphism_group",
    "center_membership", "check_derivation", "classify", "classify_locally_finite", "commutator",
    "compose_mod", "core", "cyclotomic_polynomial", "decompose_as_polynomial_in", "degree_cap",
    "derivation_homogeneous_parts", "derivation_power_bounded", "errors", "evaluate", "field",
    "find_shift_root", "generators", "homogeneous_parts", "is_admissible_grading", "morphisms",
    "multiply", "noetherian_witness", "parse", "parse_element", "parse_poly", "parser", "poly",
    "poly_gcd", "set_degree_cap", "shift_polynomial", "sigma_apply", "sigma_h0", "sigma_power_h",
    "structure", "x_fixing_pair_is_valid", "zh_membership",
]
LAZY_MODULES = ("gha.structure", "gha.morphisms")


def _child(*argv, stdin=b""):
    proc = subprocess.run([sys.executable, *argv], input=stdin, capture_output=True, env=ENV)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout.decode()


@pytest.mark.parametrize("order", ["sorted", "reversed", "submodules first", "morphisms first"])
def test_every_public_name_resolves_after_a_bare_import(order):
    names = {
        "sorted": PUBLIC,
        "reversed": PUBLIC[::-1],
        "submodules first": ["structure", "morphisms", *PUBLIC],
        "morphisms first": ["morphisms", "structure", *PUBLIC[::-1]],
    }[order]
    code = (
        "import sys, gha\n"
        f"print(sorted({LAZY_MODULES!r} & sys.modules.keys()))\n"
        "print([n for n in sys.argv[1:] if not hasattr(gha, n)])\n"
        f"print([getattr(gha, m[4:]) is sys.modules[m] for m in {LAZY_MODULES!r}])\n"
    )
    assert _child("-c", code, *names).splitlines() == ["[]", "[]", "[True, True]"]


def test_dir_and_star_import_list_the_public_names():
    code = (
        "import gha\n"
        "print(*[n for n in dir(gha) if not n.startswith('_')])\n"
        "names = {}\n"
        "exec('from gha import *', names)\n"
        "print(*sorted(set(names) - {'__builtins__'}))\n"
    )
    listed, star = _child("-c", code).splitlines()
    assert listed.split() == star.split() == PUBLIC


def test_a_missing_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'gha' has no attribute 'nope'$"):
        gha.nope
    assert not hasattr(gha, "nope")
    with pytest.raises(ImportError):
        from gha import nope  # noqa: F401


def test_records_pickled_here_load_in_a_child_that_imported_only_gha():
    ctx = Context(parse_poly("h^3+h"))
    records = [classify(ctx), automorphism_group(ctx), noetherian_witness(ctx, 1),
               admissible_generator_gradings(ctx)]
    code = "import pickle, sys, gha\nprint(repr(pickle.loads(sys.stdin.buffer.read())))"
    assert _child("-c", code, stdin=pickle.dumps(records)).strip() == repr(records)


def test_a_launch_loads_neither_structure_morphisms_json_nor_typing():
    code = ("import sys, gha.cli\n"
            "print(sorted({'gha.structure', 'gha.morphisms', 'json', 'typing'} & sys.modules.keys()))")
    assert _child("-S", "-c", code).strip() == "[]"


def test_each_subcommand_loads_only_what_it_runs():
    # requests in one child, each followed by what of structure, morphisms
    # and json is loaded so far: morphisms loads structure, which it uses
    requests = ["nf y*x", "commutator y x^2", "sigma x*h*y", "--json nf y*x", "center z", "aut"]
    code = (
        "import contextlib, io, sys\n"
        "from gha.cli import run\n"
        "for request in sys.argv[1:]:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert run(['--f', 'h^2', *request.split()]) == 0\n"
        "    print(*sorted({'gha.structure', 'gha.morphisms', 'json'} & sys.modules.keys()))\n"
    )
    assert _child("-S", "-c", code, *requests).splitlines() == [
        "", "", "", "json", "gha.structure json", "gha.morphisms gha.structure json"]


# one request per subcommand, with --json for some, so that each child loads
# what its subcommand needs in its own order (aut loads morphisms first)
LAUNCHES = [
    ["--f", "h^3+h", "nf", "y^2*x"],
    ["--f", "h^3+h", "--json", "commutator", "y", "x^2"],
    ["--f", "h^5 - h", "classify"],
    ["--f", "h^2", "--json", "center", "z^2 + h - x*y"],
    ["--f", "h^2", "zh-member", "h^3 + z"],
    ["--f", "h^2", "--json", "noetherian", "--max-n", "2"],
    ["--f", "h^2", "gradings"],
    ["--field", "Q(zeta_3)", "--f", "h^2 + zeta*h", "aut"],
    ["--f", "h^2", "derivation-check", "--dx=x", "--dy=-y", "--dh=0"],
    ["--f", "h^2", "--json", "derivation-classify", "--dx=5/3*x", "--dy=-5/3*y", "--dh=0"],
    ["--f", "h^3+h", "sigma", "x*h*y"],
]


COMMANDS = re.search(r"\{([a-z,-]+)\}", build_parser().format_usage()).group(1).split(",")


def _command(argv):
    return next(a for a in argv if a in COMMANDS)


def test_the_launches_cover_every_subcommand():
    assert sorted(map(_command, LAUNCHES)) == sorted(COMMANDS) and len(COMMANDS) == 11


@pytest.mark.parametrize("argv", LAUNCHES, ids=_command)
def test_a_launch_prints_what_run_prints_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    proc = subprocess.run([sys.executable, "-m", "gha.cli", *argv], capture_output=True, text=True,
                          env=ENV)
    assert code == 0 and out.getvalue()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.getvalue(), err.getvalue())
