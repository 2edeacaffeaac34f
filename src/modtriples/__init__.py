"""Exact symbolic engine for modulus triples on the projective line over Q.

Public names resolve on first use (PEP 562): ``import modtriples`` loads no
engine module, and ``modtriples.<name>`` imports the name's home module and
reads the name there on every access.  Nothing is stored in this namespace,
so a name rebound in its home module is the one seen through the package.
"""

from importlib import import_module as _import_module

# home module -> the public names it owns; the keys are the public submodules
_HOMES = {
    "errors": (
        "CertificationError", "DegenerateInput", "NotAdmissible", "NotDisjoint", "NotEffective",
        "NotExcellent", "NotFiniteOverSource", "NotInteriorPreserving", "NotManClass",
        "NotMinClass", "ParseError", "SymbolicError", "TypeMismatch", "UnsupportedComposition",
    ),
    "ratpoly": (
        "FactoredPoly", "Poly", "factor", "is_irreducible", "poly_gcd", "resultant",
        "squarefree_decomposition",
    ),
    "divisors": (
        "INFINITY", "ClosedPoint", "CurveSpace", "Divisor", "RationalMap", "canonical_split",
        "compose_maps", "divisor_order", "min_divisor", "multiply_maps", "point_image",
        "principal_divisor", "pullback_divisor", "pushforward_divisor",
    ),
    "triples": (
        "ModulusPair", "ModulusTriple", "TripleSum", "classify", "dual", "fundamental_locus",
        "interior", "modulus_condition", "modulus_condition_point", "pullback_triple",
        "separation", "shift_morphism",
    ),
    "cycles": (
        "Component", "Cycle", "compose", "graph_cycle", "is_admissible", "morphism_flags",
        "position_classify", "reduce_cycle", "transpose_cycle",
    ),
    "functors": (
        "CompObject", "IYObject", "MlogObject", "NePair", "TransportCheck",
        "compactification_stage", "extend_correspondence", "g_adjunction_member", "g_shrink",
        "is_comp_object", "is_iy_morphism", "is_mlog_morphism", "iy_to_triple",
        "lambda_adjunction_member", "lambda_embed", "mcor_embed",
        "minimal_compactification_level", "mlog_to_triple", "ne_embed", "ne_hom_member",
        "omega_forget", "p_left", "phi_embed", "phi_left_transport", "phi_right_transport",
        "q_right", "separation_adjoint", "triple_to_iy", "triple_to_mlog", "tsm_member",
    ),
    "formats": ("parse_input",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOMES, *_HOME]  # what ``from modtriples import *`` binds, submodules included
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _HOMES:
        return _import_module(f"{__name__}.{name}")  # the import binds it here from now on
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
