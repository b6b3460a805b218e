"""Exact symbolic engine for generalized Heisenberg algebras H(f).

H(f) is the unital algebra on x, y, h with h*x = x*f(h), y*h = f(h)*y
and y*x - x*y = f(h) - h, for a fixed polynomial f over Q or Q(zeta_m).
Every computation is exact; equality of elements is equality of normal
forms over the basis x^i h^j y^k.

`import gha` loads the engine: errors, field, poly, core and parser.  The
classification (structure) and the derivations and automorphisms
(morphisms) load on the first access to one of their names (PEP 562).
"""

from .core import (
    AlgebraElement,
    Context,
    Generators,
    apply_iota,
    apply_phi_lambda,
    commutator,
    generators,
    homogeneous_parts,
    multiply,
    sigma_h0,
)
from .errors import (
    DegreeCapExceeded,
    FieldMismatch,
    GhaError,
    NoEmbedding,
    ParseError,
    UnsupportedCase,
)
from .field import (
    RATIONALS,
    FieldDesc,
    FieldElement,
    cyclotomic_polynomial,
    degree_cap,
    set_degree_cap,
)
from .parser import evaluate, parse, parse_element, parse_poly
from .poly import (
    Poly,
    compose_mod,
    decompose_as_polynomial_in,
    poly_gcd,
    sigma_apply,
    sigma_power_h,
)

# each lazy name, the submodule's own name included, and the submodule it comes from
_LAZY = dict.fromkeys((
    "structure",
    "CenterKind",
    "Classification",
    "GradingFamily",
    "WitnessReport",
    "admissible_generator_gradings",
    "center_membership",
    "classify",
    "find_shift_root",
    "is_admissible_grading",
    "noetherian_witness",
    "shift_polynomial",
    "zh_membership",
), "structure") | dict.fromkeys((
    "morphisms",
    "AutGroup",
    "DerivationSpec",
    "NilpotencyProbe",
    "apply_derivation",
    "apply_x_fixing_automorphism",
    "automorphism_group",
    "check_derivation",
    "classify_locally_finite",
    "derivation_homogeneous_parts",
    "derivation_power_bounded",
    "x_fixing_pair_is_valid",
), "morphisms")

__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_LAZY))

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule of a lazy name and bind all of its lazy names here."""
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{home}")  # binds the submodule's own name here
    globals().update((n, getattr(module, n)) for n, h in _LAZY.items() if h == home and n != home)
    return globals()[name]


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
