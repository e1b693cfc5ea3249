"""Computational toolkit for complex symmetric operators at desk scale.

Certifies complex symmetry with explicit conjugations (constructively for
nilpotents of order two), pairs arbitrary matrices against the tensor
destructor witness, builds truncated Toeplitz operators on model spaces of
finite Blaschke products, and synthesizes an analytic one unitarily
equivalent to any given nilpotent of order two.
"""

from .errors import (
    AccuracyError,
    CapacityError,
    EvaluationError,
    InputError,
    PreconditionError,
    ToolkitError,
)
from .linalg import Conjugation
from .certify import (
    CsoCertificate,
    Nilpotent2Form,
    canonical_block_decomposition,
    conjugation_for_nilpotent2,
    find_conjugation,
    polynomial_obstruction_search,
    word_obstruction_search,
)
from .indestructible import DestructorCertificate, destructor_witness, nilpotent2_tensor_conjugation
from .modelspace import (
    BlaschkeProduct,
    ModelSpace,
    Symbol,
    fn_calculus_check,
    model_conjugation,
    modelspace_decompose,
    tto_matrix,
    verify_hankel_factorization,
)
from .synthesis import SynthesisResult, synthesize_tto_for_nilpotent2
from .verify import RunConfig, run_suite_with_determinism

__version__ = "0.1.0"

# What the subcommands call, with their result types, and what callers reach
# as csokit.<name>; everything else is imported from its module.
__all__ = [
    "AccuracyError",
    "BlaschkeProduct",
    "CapacityError",
    "Conjugation",
    "CsoCertificate",
    "DestructorCertificate",
    "EvaluationError",
    "InputError",
    "ModelSpace",
    "Nilpotent2Form",
    "PreconditionError",
    "RunConfig",
    "Symbol",
    "SynthesisResult",
    "ToolkitError",
    "canonical_block_decomposition",
    "conjugation_for_nilpotent2",
    "destructor_witness",
    "find_conjugation",
    "fn_calculus_check",
    "model_conjugation",
    "modelspace_decompose",
    "nilpotent2_tensor_conjugation",
    "polynomial_obstruction_search",
    "run_suite_with_determinism",
    "synthesize_tto_for_nilpotent2",
    "tto_matrix",
    "verify_hankel_factorization",
    "word_obstruction_search",
]
