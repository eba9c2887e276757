"""Exact torsion-point bounds for complete intersections in abelian
varieties, plus the series, combinatorics, and Witt-vector machinery the
bounds are verified against."""

from types import ModuleType as _ModuleType

from .bounds import (
    BoundInput,
    BoundReport,
    BoundShape,
    PexTerm,
    SlopeChainReport,
    bound_shape,
    deg_abelian_bound,
    deg_pex,
    pex_closed_form_general,
    pex_closed_form_uniform,
    pex_terms,
    threshold_debarre,
    threshold_lemma_p,
    torsion_bound,
    verify_slope_chain,
)
from .chern import (
    chern_normal,
    chern_tangent,
    cotangent_chern,
    deg_cotangent,
    frobenius_scale,
    segre_cotangent,
    top_integral,
)
from .combinatorics import sym_complete, sym_elementary
from .errors import CapacityError, InternalConsistencyError, ValidationError
from .primes import DETERMINISTIC_LIMIT, is_prime, next_prime
from .series import TruncatedSeries
from .witt import FiniteField, FqElement, WittPair, WittRing, carry_coefficients

__version__ = "0.1.0"

# the public names are the ones imported above, less the submodules
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
