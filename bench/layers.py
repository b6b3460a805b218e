"""Per-layer figures for the traced run, measured from outside the package.

The layers are gha's modules field, poly, core, structure, morphisms,
parser and cli, plus the stdlib fractions module.  cProfile gives each
function's self time, call count and cumulative time.  Builtins,
dataclass-generated methods and other stdlib code belong to no layer;
their self time is charged to the layers that called them, split by the
self time each caller edge carries.

Two counts need more than the profile, so the tracer rebinds two names
for the traced round only:

* core's binding of sigma_apply, to count the calls made from core and how
  many of the non-trivial (g, k) pairs were distinct;
* every module's binding of core.multiply, to count term pairs.

The wrappers only append to lists and add integers.  Distinct pairs are
counted after the profiler stops, so no profiled gha code runs on the
tracer's behalf.
"""

from __future__ import annotations

import cProfile
import dataclasses
import fractions
import os
import pstats
import types
from collections import defaultdict

LAYERS = ("field", "poly", "core", "structure", "morphisms", "parser", "cli")
HARNESS = "harness"


def _key(fn) -> tuple | None:
    """The profile key of a Python function (None if fn is not one)."""
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _retag_dataclass_methods(module) -> None:
    """Give generated methods a filename of their own class.

    dataclasses compiles them with the filename '<string>', so the
    profile would merge, say, every generated __init__ into one entry.
    """
    for cls in vars(module).values():
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)
                and cls.__module__ == module.__name__):
            continue
        for fn in vars(cls).values():
            if isinstance(fn, types.FunctionType) and fn.__code__.co_filename == "<string>":
                fn.__code__ = fn.__code__.replace(
                    co_filename=f"<dataclass {cls.__module__}.{cls.__qualname__}>")


class Tracer:
    def __init__(self):
        from gha import cli, core, field, morphisms, parser, poly, structure

        self.mods = dict(field=field, poly=poly, core=core, structure=structure,
                         morphisms=morphisms, parser=parser, cli=cli)
        self.files = {os.path.realpath(m.__file__): name for name, m in self.mods.items()}
        self.files[os.path.realpath(fractions.__file__)] = "fractions"
        bench_dir = os.path.dirname(os.path.realpath(__file__))
        self.bench_dir = bench_dir + os.sep
        for m in self.mods.values():
            _retag_dataclass_methods(m)

        self.sigma_calls: list = []
        self.term_pairs = 0
        sigma_apply = core.sigma_apply
        self.multiply = multiply = core.multiply

        def sigma_apply_from_core(g, f, k):
            self.sigma_calls.append((g, f, k))
            return sigma_apply(g, f, k)

        def multiply_counted(a, b):
            self.term_pairs += len(a.terms) * len(b.terms)
            return multiply(a, b)

        core.sigma_apply = sigma_apply_from_core
        for m in self.mods.values():
            if getattr(m, "multiply", None) is multiply:
                m.multiply = multiply_counted
        self.profile = cProfile.Profile()

    def start(self):
        self.profile.enable()

    def stop(self):
        self.profile.disable()

    # --- aggregation ------------------------------------------------------------

    def _layer(self, key) -> str | None:
        filename = key[0]
        if filename == "~" or filename.startswith("<"):
            return None
        path = os.path.realpath(filename)
        if path.startswith(self.bench_dir):
            return HARNESS
        return self.files.get(path)

    def _shares(self, stats, key, memo, visiting) -> dict:
        """How the self time of `key` divides among layers."""
        layer = self._layer(key)
        if layer is not None:
            return {layer: 1.0}
        if key in memo:
            return memo[key]
        visiting.add(key)
        edges = [(caller, tt, nc) for caller, (_, nc, tt, _) in stats[key][4].items()
                 if caller not in visiting and caller in stats]
        use_time = sum(tt for _, tt, _ in edges) > 0
        acc: dict = defaultdict(float)
        for caller, tt, nc in edges:
            weight = tt if use_time else nc
            for layer, part in self._shares(stats, caller, memo, visiting).items():
                acc[layer] += weight * part
        visiting.discard(key)
        total = sum(acc.values())
        memo[key] = {layer: v / total for layer, v in acc.items()} if total else {}
        return memo[key]

    def metrics(self, scale: float = 1.0) -> dict:
        """{name: (value, unit)}; times are multiplied by `scale`."""
        stats = pstats.Stats(self.profile).stats
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        memo: dict = {}
        for key, (_, nc, tt, _, _) in stats.items():
            layer = self._layer(key)
            if layer is not None:
                calls[layer] += nc
            for owner, part in self._shares(stats, key, memo, set()).items():
                self_s[owner] += tt * part

        def count(*fns):
            return sum(stats[k][1] for k in map(_key, fns) if k in stats)

        def cumulative(*fns):
            return sum(stats[k][3] for k in map(_key, fns) if k in stats)

        m = self.mods
        fe, pl, fr = m["field"].FieldElement, m["poly"].Poly, fractions.Fraction
        nontrivial = [(g, f, k) for g, f, k in self.sigma_calls if k != 0 and g.degree > 0]
        out = {}
        for layer in LAYERS + ("fractions",):
            out[f"{layer}.self_s"] = (self_s[layer], "s")
            if layer != "fractions":
                out[f"{layer}.calls"] = (calls[layer], "count")
        out.update({
            "field.elements_created": (count(fe.__init__, fe.__new__), "count"),
            "field.mul_calls": (count(fe.__mul__), "count"),
            "field.inverse_calls": (count(fe.inverse), "count"),
            "fractions.created": (count(fr.__new__, getattr(fr, "_from_coprime_ints", None)), "count"),
            "poly.created": (count(pl.__init__, pl.__new__), "count"),
            "poly.mul_calls": (count(pl.__mul__), "count"),
            "poly.compose_calls": (count(pl.compose), "count"),
            "poly.compose_s": (cumulative(pl.compose), "s"),
            "poly.divmod_calls": (count(pl.__divmod__), "count"),
            "poly.sigma_power_s": (cumulative(m["poly"].sigma_power_h), "s"),
            "core.multiply_calls": (count(self.multiply), "count"),
            "core.term_pairs": (self.term_pairs, "count"),
            "core.multiply_s": (cumulative(self.multiply), "s"),
            "core.sigma_apply_calls": (len(self.sigma_calls), "count"),
            "core.sigma_apply_nontrivial": (len(nontrivial), "count"),
            # useful-to-attempted: 1.0 when every non-trivial call is new work
            "core.sigma_apply_unique_share": (
                len(set(nontrivial)) / len(nontrivial) if nontrivial else 1.0, "ratio"),
            "structure.center_s": (cumulative(m["structure"].center_membership), "s"),
            "structure.zh_s": (cumulative(m["structure"].zh_membership), "s"),
            "structure.witness_s": (cumulative(m["structure"].noetherian_witness), "s"),
            "morphisms.check_derivation_s": (cumulative(m["morphisms"].check_derivation), "s"),
            "morphisms.aut_s": (cumulative(m["morphisms"].automorphism_group), "s"),
            "parser.parse_s": (cumulative(m["parser"].parse, m["parser"].parse_poly), "s"),
            "cli.run_s": (cumulative(m["cli"].run), "s"),
        })
        return {name: (v * scale if unit == "s" else v, unit) for name, (v, unit) in out.items()}
