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
from .linalg import (
    Conjugation,
    conjugate_by,
    direct_sum,
    operator_norm,
    polar_decompose,
    singular_values,
    tensor,
)
from .words import eval_poly, eval_word, iter_words, words_of_length
from .certify import (
    CsoCertificate,
    Nilpotent2Form,
    canonical_block_decomposition,
    conjugation_for_nilpotent2,
    find_conjugation,
    is_c_symmetric,
    nilpotency_order,
    polynomial_obstruction_search,
    word_obstruction_search,
)
from .indestructible import (
    DestructorCertificate,
    destructor_witness,
    nilpotent2_tensor_conjugation,
    shift_coshift_truncation,
    shift_tensor_coshift_blocks,
    swap_conjugation,
)
from .modelspace import (
    BlaschkeProduct,
    ModelSpace,
    Symbol,
    blaschke_symbol,
    block_structure_check,
    cancel_common_inner_factor,
    compressed_shift,
    fn_calculus_check,
    hankel_truncation,
    model_conjugation,
    modelspace_decompose,
    tto_matrix,
    verify_hankel_factorization,
)
from .synthesis import (
    ModulusRealization,
    SynthesisResult,
    canonical_nilpotent_parts,
    realize_modulus,
    synthesize_tto_for_nilpotent2,
)
from .verify import RunConfig, run_suite, run_suite_with_determinism

__version__ = "0.1.0"

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
    "ModulusRealization",
    "Nilpotent2Form",
    "PreconditionError",
    "RunConfig",
    "Symbol",
    "SynthesisResult",
    "ToolkitError",
    "blaschke_symbol",
    "block_structure_check",
    "cancel_common_inner_factor",
    "canonical_block_decomposition",
    "canonical_nilpotent_parts",
    "compressed_shift",
    "conjugate_by",
    "conjugation_for_nilpotent2",
    "destructor_witness",
    "direct_sum",
    "eval_poly",
    "eval_word",
    "find_conjugation",
    "fn_calculus_check",
    "hankel_truncation",
    "is_c_symmetric",
    "iter_words",
    "model_conjugation",
    "modelspace_decompose",
    "nilpotency_order",
    "nilpotent2_tensor_conjugation",
    "operator_norm",
    "polar_decompose",
    "polynomial_obstruction_search",
    "realize_modulus",
    "run_suite",
    "run_suite_with_determinism",
    "shift_coshift_truncation",
    "shift_tensor_coshift_blocks",
    "singular_values",
    "swap_conjugation",
    "synthesize_tto_for_nilpotent2",
    "tensor",
    "tto_matrix",
    "verify_hankel_factorization",
    "word_obstruction_search",
    "words_of_length",
]
