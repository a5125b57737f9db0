"""Exact arithmetic for post-Lie structures on pairs of Lie brackets.

The package works over Q and over prime fields GF(p), with one checker
vocabulary throughout: a report lists one item per identity, each item
carrying the first failing basis tuple and the difference of the two
sides.  `catalog` holds the two-dimensional classification tables and
the worked families, `search` runs exhaustive sweeps over prime fields
on the numpy kernels of `fpkernel` (which return no hits outside a
sweep's index range and raise ValueError on a phi sweep over a bracket
that is not a Lie bracket mod p), and `cli` wraps all of it for the
shell.  Importing the package does not load numpy: `fpkernel` binds it
lazily, so only a sweep does, and the exact work over Q and GF(p) never
needs it.
"""

from .errors import (DimensionError, DocumentError, FieldMismatchError,
                     GuardError, NotValidatedError, ParameterError,
                     PostLieError, StructureError, UnsupportedFieldError)
from .fields import GF, QQ, Field, Mod
from .linalg import Matrix
from .lie import (LieAlgebra, Subspace, center, check_lie_axioms,
                  classify_low_dim, derivation_algebra, direct_sum,
                  is_complete_lie, is_derivation, is_nilpotent, is_perfect,
                  is_solvable, killing_is_semisimple, nilpotency_class,
                  semidirect_with_derivations, series)
from .report import CheckItem, CheckReport
from .structures import (BilinearProduct, PostLiePair, associated_bracket,
                         all_right_multiplications_nilpotent, check_algebra,
                         check_structure, derived_identity_audit,
                         embed_semidirect, endomorphism_from_structure,
                         is_complete_structure, left_multiplications,
                         prelie_from_two_step,
                         sampled_left_mult_nilpotency, special_case_detect,
                         split_semisimple, structure_from_graph_subalgebra,
                         theorem_audit,
                         TAG_COMMUTATIVE, TAG_CYCLIC, TAG_LR_IDENTITY,
                         TAG_LR_PAIR, TAG_LSA, TAG_NOVIKOV, TAG_PRE_LIE,
                         TAG_SCALAR, TAG_ZERO)
from .catalog import (all_entries, builtin_algebra, case4_raw_family,
                      get_entry, heis_commutative, lambda_product,
                      normalize_case4, sl2_family)
from .document import (dumps_pair, loads_pair, pair_from_document,
                       pair_to_document, read_pair, write_pair)
from .search import (SearchSpec, enumerate_products, nonexistence_probe,
                     orbit_reduce, pair_from_phi, phi_ansatz_sweep)
from .fpkernel import BACKEND as KERNEL_BACKEND

__version__ = "0.1.0"

__all__ = [
    "BilinearProduct", "CheckItem", "CheckReport", "DimensionError",
    "DocumentError", "Field", "FieldMismatchError", "GF", "GuardError",
    "KERNEL_BACKEND", "LieAlgebra", "Matrix", "Mod", "NotValidatedError",
    "ParameterError", "PostLieError", "PostLiePair", "QQ", "SearchSpec",
    "StructureError", "Subspace", "UnsupportedFieldError",
    "all_entries", "all_right_multiplications_nilpotent",
    "associated_bracket", "builtin_algebra", "case4_raw_family", "center",
    "check_algebra", "check_lie_axioms", "check_structure",
    "classify_low_dim", "derivation_algebra", "derived_identity_audit",
    "direct_sum", "dumps_pair", "embed_semidirect",
    "endomorphism_from_structure", "enumerate_products", "get_entry",
    "heis_commutative", "is_complete_lie", "is_complete_structure",
    "is_derivation", "is_nilpotent", "is_perfect", "is_solvable",
    "killing_is_semisimple", "lambda_product", "left_multiplications",
    "loads_pair", "nilpotency_class", "nonexistence_probe",
    "normalize_case4", "orbit_reduce", "pair_from_document",
    "pair_from_phi", "pair_to_document", "phi_ansatz_sweep",
    "prelie_from_two_step", "read_pair",
    "sampled_left_mult_nilpotency", "search", "semidirect_with_derivations",
    "series", "sl2_family", "special_case_detect", "split_semisimple",
    "structure_from_graph_subalgebra", "theorem_audit", "write_pair",
    "TAG_COMMUTATIVE", "TAG_CYCLIC", "TAG_LR_IDENTITY", "TAG_LR_PAIR",
    "TAG_LSA", "TAG_NOVIKOV", "TAG_PRE_LIE", "TAG_SCALAR", "TAG_ZERO",
    "__version__",
]
