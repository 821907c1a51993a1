"""Ideal calculus in polynomial rings graded by a finitely generated
abelian group: the star operator (largest homogeneous subideal),
G-primary decomposition, Fitting ideals, and an independent truncation
oracle.
"""

from .poly import (GF, GREVLEX, LEX, PolyParseError, Polynomial,
                   PolynomialRing, QQ, ResourceLimitError, RingMismatchError,
                   TermOrder, parse_polynomial)
from .groebner import (GroebnerBasis, Ideal, buchberger, colon, eliminate,
                       exact_quotient, ideal_power, ideal_product, ideal_sum,
                       intersect, intersect_all, radical_membership, saturate,
                       saturate_ideal)
from .grading import (GradedRing, GradingGroup, Hdeg, degree_of,
                      homogeneous_components, is_g_ideal, is_homogeneous,
                      star)
from .decomposition import (Decomposition, PrimaryComponent,
                            UnsupportedClassError, associated_primes,
                            classical_decomposition, minimal_primes,
                            monomial_dimension, monomial_primary_decomposition,
                            monomial_radical, radical_ideal,
                            univariate_primary_decomposition)
from .gtheory import (g_associated_primes, g_associated_witness,
                      g_minimal_primes, g_primary_decomposition, g_radical,
                      is_g_primary, is_g_prime, is_g_radical,
                      poset_component, verify_theorem_suite)
from .fitting import (PresentationMatrix, fitting_ideal, graded_matrix_check,
                      map_entries)
from .jobs import (Job, JobError, ResultDocument, execute_job, parse_job,
                   render_result, verify_document)

__version__ = "0.1.0"

# The truncation oracle brings numpy, most of a cold import, so its names
# load on first access (PEP 562): a job that never reaches the oracle
# never imports numpy.
_ORACLE_NAMES = ("OracleVerdict", "Subspace", "TruncatedSpace",
                 "oracle_compare", "truncated_star_basis")


def __getattr__(name):
    if name == "oracle" or name in _ORACLE_NAMES:
        import importlib
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [name for name in dir() if not name.startswith("_")] + \
    ["oracle", *_ORACLE_NAMES]
