"""The public API: names resolve through their home modules on first use (PEP 562)."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modtriples
from modtriples import cycles

# home module -> the public names it owns
HOMES = {
    "errors": [
        "CertificationError", "DegenerateInput", "NotAdmissible", "NotDisjoint", "NotEffective",
        "NotExcellent", "NotFiniteOverSource", "NotInteriorPreserving", "NotManClass", "NotMinClass",
        "ParseError", "SymbolicError", "TypeMismatch", "UnsupportedComposition",
    ],
    "ratpoly": [
        "FactoredPoly", "Poly", "factor", "is_irreducible", "poly_gcd", "resultant",
        "squarefree_decomposition",
    ],
    "divisors": [
        "INFINITY", "ClosedPoint", "CurveSpace", "Divisor", "RationalMap", "canonical_split",
        "compose_maps", "divisor_order", "min_divisor", "multiply_maps", "point_image",
        "principal_divisor", "pullback_divisor", "pushforward_divisor",
    ],
    "triples": [
        "ModulusPair", "ModulusTriple", "TripleSum", "classify", "dual", "fundamental_locus",
        "interior", "modulus_condition", "modulus_condition_point", "pullback_triple", "separation",
        "shift_morphism",
    ],
    "cycles": [
        "Component", "Cycle", "compose", "graph_cycle", "is_admissible", "morphism_flags",
        "position_classify", "reduce_cycle", "transpose_cycle",
    ],
    "functors": [
        "CompObject", "IYObject", "MlogObject", "NePair", "TransportCheck", "compactification_stage",
        "extend_correspondence", "g_adjunction_member", "g_shrink", "is_comp_object", "is_iy_morphism",
        "is_mlog_morphism", "iy_to_triple", "lambda_adjunction_member", "lambda_embed", "mcor_embed",
        "minimal_compactification_level", "mlog_to_triple", "ne_embed", "ne_hom_member", "omega_forget",
        "p_left", "phi_embed", "phi_left_transport", "phi_right_transport", "q_right",
        "separation_adjoint", "triple_to_iy", "triple_to_mlog", "tsm_member",
    ],
    "formats": ["parse_input"],
}
NAMES = [name for names in HOMES.values() for name in names]
PUBLIC = sorted([*HOMES, *NAMES])


def test_dir_of_a_fresh_import_is_the_public_api():
    code = "import json, modtriples; print(json.dumps([n for n in dir(modtriples) if not n.startswith('_')]))"
    env = dict(os.environ, PYTHONPATH=str(Path(modtriples.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=60, check=True)
    assert json.loads(out.stdout) == PUBLIC
    assert len(PUBLIC) == 94


def test_all_names_the_public_api():
    assert sorted(modtriples.__all__) == PUBLIC


@pytest.mark.parametrize("home", HOMES)
def test_each_name_is_its_home_modules_object(home):
    module = importlib.import_module(f"modtriples.{home}")
    assert getattr(modtriples, home) is module
    for name in HOMES[home]:
        assert getattr(modtriples, name) is getattr(module, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from modtriples import *", namespace)
    for name in modtriples.__all__:
        assert namespace[name] is getattr(modtriples, name), name


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        modtriples.no_such_name
    with pytest.raises(ImportError):
        exec("from modtriples import no_such_name", {})


def test_access_stores_nothing():
    for name in NAMES:
        getattr(modtriples, name)
    assert not set(NAMES) & set(vars(modtriples))


def test_a_name_rebound_in_its_home_module_is_seen_through_the_package(monkeypatch):
    original = cycles.compose
    monkeypatch.setattr(cycles, "compose", len)
    assert modtriples.compose is len
    monkeypatch.undo()
    assert modtriples.compose is original
