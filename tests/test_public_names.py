"""The package's public names are its imports: `torbound.__all__` is derived
from the names `__init__.py` imports, sorted, submodules left out."""

import types

import torbound

PUBLIC = [
    "BoundInput", "BoundReport", "BoundShape", "CapacityError", "DETERMINISTIC_LIMIT",
    "FiniteField", "FqElement", "InternalConsistencyError", "PexTerm", "SlopeChainReport",
    "TruncatedSeries", "ValidationError", "WittPair", "WittRing", "bound_shape",
    "carry_coefficients", "chern_normal", "chern_tangent", "cotangent_chern",
    "deg_abelian_bound", "deg_cotangent", "deg_pex", "frobenius_scale", "is_prime",
    "next_prime", "pex_closed_form_general", "pex_closed_form_uniform", "pex_terms",
    "segre_cotangent", "sym_complete", "sym_elementary", "threshold_debarre",
    "threshold_lemma_p", "top_integral", "torsion_bound", "verify_slope_chain",
]


def test_all_is_the_public_names_in_order():
    assert len(PUBLIC) == 36
    assert torbound.__all__ == PUBLIC


def test_every_name_resolves_and_none_is_a_module():
    for name in torbound.__all__:
        assert not isinstance(getattr(torbound, name), types.ModuleType), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from torbound import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)
