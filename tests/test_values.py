"""The value classes: equality by class and fields, hash, repr, immutability, copy and pickle."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from gha import (RATIONALS, AutGroup, Classification, Context, DerivationSpec, FieldDesc,
                 GradingFamily, NilpotencyProbe, WitnessReport, automorphism_group, classify,
                 generators, noetherian_witness, parse_poly)
from gha.errors import FieldMismatch
from gha.parser import Add, Mul, Neg, Num, Pow, Sub, Sym, parse
from gha.structure import CenterKind

FIELDS = {
    FieldDesc: ("m",),
    Num: ("value",),
    Sym: ("name",),
    Add: ("left", "right"),
    Sub: ("left", "right"),
    Mul: ("left", "right"),
    Neg: ("operand",),
    Pow: ("base", "exponent"),
    Classification: ("deg_f", "is_domain", "is_noetherian", "is_generalized_down_up",
                     "center_description"),
    WitnessReport: ("n", "generator_gcd", "is_member"),
    GradingFamily: ("generator",),
    DerivationSpec: ("ctx", "im_x", "im_y", "im_h"),
    NilpotencyProbe: ("nilpotent", "steps"),
    AutGroup: ("n", "cyclic_order", "generator", "field"),
}


def _values():
    """A value of every public value class; the parser's nodes come from one tree."""
    ctx = Context(parse_poly("h^3 + h"))
    tree = parse("-(x + y)*h - 2/3*z^2")
    nodes = [tree, tree.left, tree.left.left, tree.left.left.operand, tree.left.right,
             tree.right.left, tree.right.right, tree.right.right.base]
    return [
        FieldDesc(3), RATIONALS, *nodes, classify(ctx), noetherian_witness(ctx, 1)[1],
        GradingFamily(), DerivationSpec.diagonal(ctx, 2), NilpotencyProbe(True, 3),
        automorphism_group(Context(parse_poly("h^4"))),
    ]


def test_every_value_class_is_covered():
    assert {type(v) for v in _values()} == set(FIELDS)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_match_args_name_the_fields_in_order(cls):
    assert cls.__match_args__ == FIELDS[cls]


def test_equal_values_are_equal_and_hash_alike():
    for a, b in zip(_values(), _values()):
        assert a == b and not a != b
        if not isinstance(a, DerivationSpec):  # a Context has no hash
            assert hash(a) == hash(b)
    assert hash(parse("x + 2*y")) == hash(parse("x+2 * y"))


def test_equality_is_class_sensitive():
    a, b = Sym("x"), Sym("y")
    assert parse("x+y") != parse("x-y")
    assert Add(a, b) != Mul(a, b) and Add(a, b) != Sub(a, b)
    assert Num(Fraction(1)) != Sym("x") and Neg(a) != Sym("x")
    for v in _values():
        fields = tuple(getattr(v, name) for name in FIELDS[type(v)])
        assert v != fields and fields != v
        assert len(fields) > 1 or v != fields[0]
    assert FieldDesc(3) != FieldDesc(4) and FieldDesc(3) != 3


def test_fields_refuse_assignment_and_deletion():
    for v in _values():
        name = FIELDS[type(v)][0]
        before = getattr(v, name)
        with pytest.raises(AttributeError):
            setattr(v, name, before)
        with pytest.raises(AttributeError):
            delattr(v, name)
        with pytest.raises(AttributeError):
            v.not_a_field = 1
        assert getattr(v, name) is before


def test_repr_reads_as_before():
    assert repr(parse("x-2/3*h^2")) == (
        "Sub(left=Sym(name='x'), right=Mul(left=Num(value=Fraction(2, 3)), "
        "right=Pow(base=Sym(name='h'), exponent=2)))")
    ctx = Context(parse_poly("h^3 + h"))
    assert repr(classify(ctx)) == (
        "Classification(deg_f=3, is_domain=True, is_noetherian=False, "
        "is_generalized_down_up=False, center_description=<CenterKind.POLYNOMIAL_IN_Z: 'C[z]'>)")
    assert repr(noetherian_witness(ctx, 0)) == (
        "[WitnessReport(n=0, generator_gcd=Poly(Q, h^3 + h), is_member=False)]")
    assert repr(automorphism_group(ctx)) == (
        "AutGroup(n=3, cyclic_order=2, generator=(-1, 0), field=FieldDesc(m=1))")
    assert repr(GradingFamily()) == "GradingFamily(generator=(1, -1, 0))"
    assert repr(NilpotencyProbe(False, 7)) == "NilpotencyProbe(nilpotent=False, steps=7)"
    assert repr(DerivationSpec.diagonal(ctx, 2)) == (
        "DerivationSpec(ctx=Context(f = h^3 + h over Q), im_x=<x^1 * (2)>, "
        "im_y=<(-2) * y^1>, im_h=<0>)")


def test_keyword_construction():
    ctx = Context(parse_poly("h^3 + h"))
    assert Classification(
        deg_f=3, is_domain=True, is_noetherian=False, is_generalized_down_up=False,
        center_description=CenterKind.POLYNOMIAL_IN_Z) == classify(ctx)
    group = automorphism_group(ctx)
    assert AutGroup(n=3, cyclic_order=2, generator=group.generator, field=RATIONALS) == group
    assert WitnessReport(n=1, generator_gcd=ctx.f, is_member=False) == noetherian_witness(ctx, 1)[1]
    assert GradingFamily() == GradingFamily(generator=(1, -1, 0))
    assert FieldDesc() == FieldDesc(m=1) == RATIONALS
    assert NilpotencyProbe(nilpotent=True, steps=0) == NilpotencyProbe(True, 0)
    x, y, h, _ = generators(ctx)
    assert DerivationSpec(ctx=ctx, im_x=x, im_y=-y, im_h=h - h) == DerivationSpec.diagonal(ctx)


@pytest.mark.parametrize("cls", FIELDS, ids=lambda c: c.__name__)
def test_constructor_takes_each_field_once_by_position_or_name(cls):
    value = next(v for v in _values() if type(v) is cls)
    names = FIELDS[cls]
    fields = tuple(getattr(value, name) for name in names)
    by_name = dict(zip(names, fields))
    half = len(names) // 2
    assert cls(*fields) == value
    assert cls(**by_name) == value
    assert cls(*fields[:half], **dict(zip(names[half:], fields[half:]))) == value
    if cls in (FieldDesc, GradingFamily):  # their one field has a default
        assert cls() == {FieldDesc: RATIONALS, GradingFamily: GradingFamily((1, -1, 0))}[cls]
    else:
        with pytest.raises(TypeError):
            cls(*fields[:-1])
    with pytest.raises(TypeError):
        cls(*fields, fields[-1])
    with pytest.raises(TypeError):
        cls(*fields, not_a_field=1)
    with pytest.raises(TypeError):
        cls(*fields, **{names[0]: fields[0]})


def test_generated_constructors_are_named_for_their_class():
    # records without a constructor of their own get one generated from their
    # fields; its code names the class, so tracebacks and profiles tell them apart
    own = (FieldDesc, GradingFamily, DerivationSpec)
    filenames = {cls: cls.__init__.__code__.co_filename for cls in FIELDS if cls not in own}
    assert filenames[Add] == filenames[Sub] == filenames[Mul] == "<gha.parser._Binary.__init__>"
    assert filenames[AutGroup] == "<gha.morphisms.AutGroup.__init__>"
    assert len(set(filenames.values())) == len(filenames) - 2  # Add, Sub, Mul share _Binary's
    for cls in own:
        assert cls.__init__.__code__.co_filename == sys.modules[cls.__module__].__file__


def test_positional_class_patterns():
    match parse("x-2/3*h^2"):
        case Sub(Sym(name), Mul(Num(value), Pow(Sym("h"), exponent))):
            assert (name, value, exponent) == ("x", Fraction(2, 3), 2)
        case _:
            pytest.fail("pattern did not match")
    match classify(Context(parse_poly("h"))):
        case Classification(1, True, True, True, kind):
            assert kind is CenterKind.NOT_COMPUTED_DEG_ONE
        case _:
            pytest.fail("pattern did not match")
    match FieldDesc(12):
        case FieldDesc(m):
            assert m == 12


def test_pickle_and_deepcopy_round_trip():
    for v in _values():
        for twin in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v), copy.copy(v)):
            assert type(twin) is type(v)
            assert twin == v
            assert repr(twin) == repr(v)


def test_field_degree_is_cached_and_survives_a_round_trip():
    q7 = FieldDesc(7)
    assert q7.degree == 6 and q7.degree == 6
    twin = pickle.loads(pickle.dumps(q7))
    assert twin == q7 and twin.degree == 6


def test_derivation_images_must_share_one_context():
    ctx = Context(parse_poly("h^3 + h"))
    other = Context(parse_poly("h^2"))
    x, y, h, _ = generators(ctx)
    with pytest.raises(FieldMismatch):
        DerivationSpec(ctx, x, y, generators(other).h)
    with pytest.raises(FieldMismatch):
        DerivationSpec(other, x, y, h)


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    code = "import sys, gha.cli; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
