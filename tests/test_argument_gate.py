"""The argument gate: a malformed matrix is an InputError at every public entry point.

Every matrix argument goes through the one converter that ``linalg.as_matrix``
and its stack form share, so a string, a ragged list, a dict, an array of the
wrong dimension and a non-finite entry fail there, never as a raw numpy
TypeError or ValueError.  Counts go through ``check_count``, whose caps refuse
a search before it loops, and a conjugation through ``_check_instance``.
"""

import contextlib
import json
import signal

import numpy as np
import pytest

from csokit.certify import (
    canonical_block_decomposition,
    find_conjugation,
    intertwiner_basis,
    is_c_symmetric,
    nilpotent2_splitting,
    trace_obstruction_search,
    word_norm_gap,
    word_norm_gaps,
    word_obstruction_search,
)
from csokit.cli import main
from csokit.errors import CapacityError, InputError, PreconditionError
from csokit.indestructible import (
    destructor_witness,
    nilpotent2_tensor_conjugation,
    shift_coshift_product,
    swap_conjugation,
)
from csokit import certify
from csokit.linalg import (
    TRACE_DIM_CAP,
    WORD_LEN_CAP,
    Conjugation,
    check_count,
    conjugate_by,
    direct_sum,
    operator_norm,
    operator_norms,
    tensor,
)
from csokit.serialize import matrix_to_json
from csokit.synthesis import synthesize_tto_for_nilpotent2
from csokit.words import eval_word, word_products

J2 = [[0.0, 0.0], [1.0, 0.0]]

MALFORMED = {
    "string": "abc",
    "ragged": [[1.0, 2.0], [3.0]],
    "dict": {"rows": 2, "cols": 2, "data": []},
    "3-d": np.zeros((2, 2, 2)),
    "nan": [[np.nan, 0.0], [0.0, 0.0]],
    "inf": [[0.0, np.inf], [0.0, 0.0]],
}

# each entry point with the malformed value in its matrix argument; the stack
# forms (operator_norms, word_norm_gaps, word_products) take a 3-d array
ENTRIES = {
    "find_conjugation": find_conjugation,
    "nilpotent2_splitting": nilpotent2_splitting,
    "destructor_witness": destructor_witness,
    "synthesize_tto_for_nilpotent2": synthesize_tto_for_nilpotent2,
    "word_obstruction_search": word_obstruction_search,
    "trace_obstruction_search": trace_obstruction_search,
    "nilpotent2_tensor_conjugation(A)": lambda M: nilpotent2_tensor_conjugation(M, np.eye(2)),
    "nilpotent2_tensor_conjugation(B)": lambda M: nilpotent2_tensor_conjugation(J2, M),
    "canonical_block_decomposition": canonical_block_decomposition,
    "intertwiner_basis": intertwiner_basis,
    "word_norm_gap": lambda M: word_norm_gap(M, "xxy"),
    "word_norm_gaps": lambda M: word_norm_gaps(M, ["xxy"]),
    "operator_norm": operator_norm,
    "operator_norms": lambda M: operator_norms([M]),
    "is_c_symmetric": lambda M: is_c_symmetric(M, Conjugation.identity(2)),
    "Conjugation": Conjugation,
    "Conjugation.apply": lambda M: Conjugation.identity(2).apply(M),
    "word_products": lambda M: word_products(["xy"], M, M),
    "eval_word": lambda M: eval_word("xy", M, M),
    "matrix_to_json": matrix_to_json,
    "direct_sum(first block)": lambda M: direct_sum(M, np.eye(2)),
    "direct_sum(second block)": lambda M: direct_sum(np.eye(2), M),
}
STACK_FORMS = {"word_norm_gaps", "operator_norms", "word_products"}


# each entry point with a malformed conjugation, which used to leak a raw
# AttributeError or ValueError
MALFORMED_ARGUMENTS = {
    "is_c_symmetric(C)": lambda: is_c_symmetric(np.eye(2), "abc"),
    "conjugate_by": lambda: conjugate_by("abc", np.eye(2)),
    "swap_conjugation": lambda: swap_conjugation("abc"),
}


# each entry point with a finite matrix whose tensor product overflows, which
# leaked a raw RuntimeWarning, "overflow encountered in multiply", and without
# the warning filter returned inf entries
BIG = [[0.0, 1.2e308], [-1.2e308, 0.0]]
OVERFLOWING_PRODUCTS = {
    "tensor": lambda: tensor(BIG, BIG),
    "shift_coshift_product": lambda: shift_coshift_product(Conjugation.identity(2), BIG),
}


@contextlib.contextmanager
def deadline(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` of wall time pass, so a hang fails."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "entry, kind",
    [
        (entry, kind)
        for entry in ENTRIES
        for kind in MALFORMED
        if not (kind == "3-d" and entry in STACK_FORMS)  # a valid stack there
    ],
)
def test_a_malformed_matrix_is_an_input_error(entry, kind):
    with pytest.raises(InputError):
        ENTRIES[entry](MALFORMED[kind])


@pytest.mark.parametrize("call", MALFORMED_ARGUMENTS)
def test_a_malformed_conjugation_is_an_input_error(call):
    with pytest.raises(InputError):
        MALFORMED_ARGUMENTS[call]()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", OVERFLOWING_PRODUCTS)
def test_an_overflowing_tensor_product_is_an_input_error(call):
    with pytest.raises(InputError, match="tensor product overflows"):
        OVERFLOWING_PRODUCTS[call]()
    with np.errstate(all="ignore"), pytest.raises(InputError, match="tensor product overflows"):
        OVERFLOWING_PRODUCTS[call]()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_word_search_past_its_length_cap_is_refused_before_it_loops():
    # it used to enumerate 2^L words for each L up to 10^9, with no end
    with deadline(1.0), pytest.raises(CapacityError, match="max_len"):
        word_obstruction_search(np.eye(2), max_len=10**9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_word_gap_that_overflows_in_the_units_of_t_is_a_precondition_error():
    # it used to raise a raw RuntimeWarning, "overflow encountered in matmul";
    # at T / 2^e the xxy gap is a rounding-level 5.6e-17, inf in T's units
    with pytest.raises(PreconditionError, match=r"\|\|T\|\| = "):
        word_norm_gap([[1e308, 1e308], [-1e308, 1e308]], "xxy")


def test_a_trace_search_past_its_dimension_cap_is_refused_before_any_exact_product(monkeypatch):
    # each exact product costs O(n^3) big-integer operations: about 8 s at n = 128
    def refuse(*args):
        raise AssertionError("multiplied out past the cap")

    monkeypatch.setattr(certify, "_exact_trace", refuse)
    monkeypatch.setattr(certify, "_float_trace_gaps", refuse)
    T = np.random.default_rng(5).standard_normal((TRACE_DIM_CAP + 1,) * 2)
    with deadline(1.0), pytest.raises(CapacityError, match=f"n <= {TRACE_DIM_CAP}"):
        trace_obstruction_search(T)


def test_a_count_at_its_cap_is_admitted_and_one_past_it_refused():
    assert WORD_LEN_CAP >= 5  # the CLI default
    assert check_count(WORD_LEN_CAP, "count", most=WORD_LEN_CAP) == WORD_LEN_CAP
    with pytest.raises(CapacityError, match="exceed the cap"):
        check_count(WORD_LEN_CAP + 1, "count", most=WORD_LEN_CAP)
    # a symmetric matrix at the trace cap takes the float pass, which decides it
    S = np.random.default_rng(6).standard_normal((TRACE_DIM_CAP,) * 2)
    assert trace_obstruction_search(S + S.T) is None


@pytest.mark.parametrize(
    "matrix, flags, named",
    [
        (np.eye(2), ["--max-len", str(10**9)], "exceed the cap"),
        (np.eye(TRACE_DIM_CAP + 1), [], f"n <= {TRACE_DIM_CAP}"),
    ],
    ids=["max-len", "dimension"],
)
def test_question1_search_past_a_cap_exits_65(matrix, flags, named, capsys):
    with deadline(5.0):
        code = main(["question1-search", "--matrix", json.dumps(matrix_to_json(matrix)), *flags])
    assert code == 65 and named in capsys.readouterr().err
