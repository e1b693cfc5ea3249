"""Tensor indestructibility: order-two nilpotents survive any tensor
partner, anything else is destroyed by the explicit 3x3 witness.

Witness oracle with (alpha, beta) = (1, 2) and the word y x x:
substituting x = B, y = B* gives B* B B with single entry alpha^2 beta = 2;
swapping the roles gives B B* B* with single entry alpha beta^2 = 4.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csokit import indestructible
from csokit.certify import find_conjugation, is_c_symmetric, nilpotent2_splitting, word_norm_gap
from csokit.ensembles import random_complex, random_nilpotent2, random_unitary, stream
from csokit.errors import AccuracyError, CapacityError, InputError, PreconditionError
from csokit.indestructible import (
    DESTRUCTOR_WORD,
    destructor_witness,
    factor_swap,
    nilpotent2_tensor_conjugation,
    shift_coshift_product,
    shift_coshift_truncation,
    shift_tensor_coshift_blocks,
    swap_conjugation,
    witness_matrix,
)
from csokit.linalg import (
    Conjugation,
    conjugate_by,
    operator_norm,
    power_of_two_scaled,
    singular_values,
    tensor,
)
from csokit.words import eval_word


def jordan(n):
    J = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        J[i + 1, i] = 1.0
    return J


def test_is_nilpotent2():
    # the destructor and the tensor conjugation read the certify decision
    assert nilpotent2_splitting(np.zeros((2, 2))).rank == 0
    assert nilpotent2_splitting(jordan(2)).rank == 1
    for T in (jordan(3), np.eye(2)):
        with pytest.raises(PreconditionError):
            nilpotent2_splitting(T)


def test_witness_matrix_layout_and_validation():
    B = witness_matrix(1.0, 2.0)
    assert B[0, 1] == 1.0 and B[1, 2] == 2.0
    assert np.count_nonzero(B) == 2
    for bad in ((0.0, 1.0), (1.0, -2.0), (1.5, 1.5)):
        with pytest.raises(InputError):
            witness_matrix(*bad)


@pytest.mark.parametrize(
    "alpha, beta, named",
    [
        (float("nan"), 2.0, "alpha"),
        (1.0, float("inf"), "beta"),
        (-float("inf"), 1.0, "alpha"),
        (1e200, 2.0, "alpha^2 beta"),
        (1.0, 1e160, "alpha beta^2"),
        ("x", 2.0, "alpha"),  # these three used to leak a raw ValueError or TypeError
        (1.0, None, "beta"),
        ([1.0], 2.0, "alpha"),
    ],
)
def test_witness_parameters_out_of_range_are_named(alpha, beta, named):
    named = f"witness parameter {re.escape(named)} = "
    with pytest.raises(InputError, match=named):
        witness_matrix(alpha, beta)
    with pytest.raises(InputError, match=named):
        destructor_witness(jordan(3), alpha, beta)


def test_a_huge_witness_parameter_fails_only_where_its_cube_is_used():
    # max(alpha, beta)^3 scales the threshold, which an order-two A never
    # reaches; products that underflow to 0 are finite
    huge = destructor_witness(jordan(2), 1e104, 1.0)
    tiny = destructor_witness(jordan(2), 1e-200, 1e-100)
    assert huge.conclusion == tiny.conclusion == "indestructible_sampled"
    assert tiny.norm_wB == 0.0
    with pytest.raises(InputError, match=re.escape("witness parameter max(alpha, beta) = 1e+104")):
        destructor_witness(jordan(3), 1e104, 1.0)


def test_destructor_word_norms_exact():
    B = witness_matrix(1.0, 2.0)
    assert DESTRUCTOR_WORD == "yxx"
    assert operator_norm(eval_word("yxx", B, B.conj().T)) == pytest.approx(2.0, abs=1e-12)
    assert operator_norm(eval_word("yxx", B.conj().T, B)) == pytest.approx(4.0, abs=1e-12)
    # the certificate takes B's norms as the products alpha^2 beta and alpha beta^2,
    # which the SVD of the word gives to a few ulps
    for alpha, beta in ((1.0, 2.0), (0.3, 1.7), (2.5, 0.75), (1e-3, 7e5)):
        cert = destructor_witness(jordan(3), alpha, beta)
        assert (cert.norm_wB, cert.norm_wB_rev) == (alpha * alpha * beta, alpha * beta * beta)
        B = witness_matrix(alpha, beta)
        for word, norm in (("yxx", cert.norm_wB), ("xyy", cert.norm_wB_rev)):
            assert operator_norm(eval_word(word, B, B.conj().T)) == pytest.approx(norm, rel=1e-15)


def test_destructor_destroys_higher_order_nilpotent():
    cert = destructor_witness(jordan(3), 1.0, 2.0)
    assert cert.conclusion == "destroyed"
    assert cert.word == "yxx"
    assert cert.norm_wB == pytest.approx(2.0, abs=1e-10)
    assert cert.norm_wB_rev == pytest.approx(4.0, abs=1e-10)
    assert cert.norm_wA == pytest.approx(1.0, abs=1e-10)


def test_destructor_refuses_a_ratio_whose_tensor_gap_cancels():
    # A = B(2, 1) has ||A*A^2|| = 4 and ||A^2 A*|| = 2, so against B(1, 2) the
    # yxx norms of A (x) B are 4 * 2 and 2 * 4: no gap, and A (x) B is in fact
    # complex symmetric.  B(1, 3) leaves a gap of |4 * 3 - 2 * 9| = 6.
    A = witness_matrix(2.0, 1.0)
    with pytest.raises(PreconditionError, match="cancels"):
        destructor_witness(A, 1.0, 2.0)
    assert word_norm_gap(np.kron(A, witness_matrix(1.0, 2.0)), "yxx") == 0.0
    assert find_conjugation(np.kron(A, witness_matrix(1.0, 2.0))).verdict == "c_symmetric"
    cert = destructor_witness(A, 1.0, 3.0)
    assert cert.conclusion == "destroyed"
    assert (cert.norm_wA, cert.norm_wA_rev) == pytest.approx((4.0, 2.0), abs=1e-12)
    kron_gap = word_norm_gap(np.kron(A, witness_matrix(1.0, 3.0)), "yxx")
    gap = abs(cert.norm_wA * cert.norm_wB - cert.norm_wA_rev * cert.norm_wB_rev)
    assert gap == pytest.approx(kron_gap, rel=1e-12) and kron_gap == pytest.approx(6.0)


def test_destructor_names_an_underflow_not_a_cancellation():
    # at 1e-110 the yxx norms of J3 are (1e-110)^3, below the smallest double
    assert destructor_witness(1e-100 * jordan(3), 1.0, 2.0).conclusion == "destroyed"
    with pytest.raises(PreconditionError, match="too small .* underflow") as info:
        destructor_witness(1e-110 * jordan(3), 1.0, 2.0)
    assert "cancels" not in str(info.value)


def test_destructor_names_the_rank_margin_not_a_ratio():
    # J2 (+) [1e-5] fails the order-two decision on its rank alone, so
    # ||A^2|| <= tol ||A||^2 keeps both yxx norms of A (x) B below the
    # threshold at every ratio
    A = np.zeros((3, 3), dtype=complex)
    A[1, 0], A[2, 2] = 1.0, 1e-5
    for alpha, beta in ((1.0, 2.0), (1.0, 3.0), (3.0, 1.0)):
        with pytest.raises(PreconditionError, match="rank 2 exceeds half the dimension 3") as info:
            destructor_witness(A, alpha, beta)
        assert "cancels" not in str(info.value)


def test_destructor_spares_order_two_nilpotent():
    rng = stream(13, 0)
    cert = destructor_witness(random_nilpotent2(rng, 4), 1.0, 2.0)
    assert cert.conclusion == "indestructible_sampled"


def test_tensor_conjugation_for_order_two_factor():
    rng = stream(13, 1)
    A = random_nilpotent2(rng, 4, rank=2)
    B = random_complex(rng, 3, 3)
    C = nilpotent2_tensor_conjugation(A, B)
    C.validate()
    ok, res = is_c_symmetric(tensor(A, B), C)
    assert ok and res <= 1e-9


def test_tensor_conjugation_requires_square_zero():
    with pytest.raises(PreconditionError):
        nilpotent2_tensor_conjugation(jordan(3), np.eye(2))


def test_tensor_conjugation_names_a_non_square_partner():
    # the shape in the error is B's, not that of A (x) B
    with pytest.raises(InputError, match=re.escape("got shape (2, 3)")):
        nilpotent2_tensor_conjugation(jordan(2), np.ones((2, 3)))


def test_factor_swap_exchanges_kron_order():
    rng = stream(13, 2)
    A = random_complex(rng, 3, 3)
    B = random_complex(rng, 3, 3)
    S = factor_swap(3)
    assert np.allclose(S @ np.kron(A, B) @ S.T, np.kron(B, A))
    assert np.allclose(S @ S.T, np.eye(9))


def test_swap_conjugation_certifies_product_with_reflected_adjoint():
    rng = stream(13, 3)
    J = Conjugation.identity(4)
    A = random_complex(rng, 4, 4)
    T = shift_coshift_product(J, A)
    C = swap_conjugation(J)
    C.validate()
    ok, res = is_c_symmetric(T, C)
    assert ok and res <= 1e-9


def test_reflected_adjoint_under_entrywise_conjugation_is_transpose():
    # with J = entrywise conjugation the partner J A* J equals A^t, so the
    # product is A kron A^t
    rng = stream(13, 4)
    A = random_complex(rng, 3, 3)
    T = shift_coshift_product(Conjugation.identity(3), A)
    assert np.allclose(T, np.kron(A, A.T))


def test_shift_coshift_truncation_blocks():
    N = 6
    blocks = shift_tensor_coshift_blocks(N)
    assert [d for d, _ in blocks] == list(range(1, N + 1))
    full = shift_coshift_truncation(N)
    stacked = np.concatenate([singular_values(M) for _, M in blocks])
    sv_blocks = np.sort(stacked)[::-1]
    sv_full = singular_values(full)
    assert sv_full.shape == sv_blocks.shape
    assert np.max(np.abs(sv_full - sv_blocks)) <= 1e-10


def test_shift_coshift_blocks_are_single_chains():
    for d, M in shift_tensor_coshift_blocks(5):
        assert M.shape == (d, d)
        # one Jordan chain: rank d-1 and M^d = 0 with M^(d-1) != 0
        assert np.linalg.matrix_rank(M, tol=1e-10) == d - 1
        P = np.eye(d, dtype=complex)
        for _ in range(d - 1):
            P = P @ M
        if d > 1:
            assert operator_norm(P) > 1e-10
        assert operator_norm(P @ M) <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), N=st.integers(1, 12))
def test_index_arithmetic_matches_the_factor_swap_and_the_monomial_action(seed, n, N):
    # the swap's row order against the permutation matrix times G_J (x) G_J
    U = random_unitary(stream(seed, 14), n)
    J = Conjugation(U @ U.T)
    G = factor_swap(n) @ np.kron(J.matrix, J.matrix)
    assert np.array_equal(swap_conjugation(J).matrix, 0.5 * (G + G.T))
    # the truncation against z^k w^m -> z^(k+1) w^(m-1) on monomials listed by degree, then k
    monomials = [(k, d - k) for d in range(N) for k in range(d + 1)]
    index = {km: i for i, km in enumerate(monomials)}
    T = np.zeros((len(monomials), len(monomials)), dtype=complex)
    for (k, m), i in index.items():
        if m >= 1:
            T[index[(k + 1, m - 1)], i] = 1.0
    assert np.array_equal(shift_coshift_truncation(N), T)
    for d, M in shift_tensor_coshift_blocks(N):
        slice_ = [index[(k, d - 1 - k)] for k in range(d)]
        assert np.array_equal(M, T[np.ix_(slice_, slice_)])


@pytest.mark.parametrize(
    "build, arg, error",
    [
        (shift_coshift_truncation, 2.5, InputError),
        (shift_coshift_truncation, 0, InputError),
        (shift_coshift_truncation, 91, CapacityError),  # 4186 monomials
        (factor_swap, 2.5, InputError),
        (factor_swap, -1, InputError),
        (factor_swap, 65, CapacityError),
        (swap_conjugation, 65, CapacityError),  # the identity conjugation on C^65
        (swap_conjugation, 1000, CapacityError),
    ],
)
def test_remark_one_builders_refuse_a_size_before_allocating(build, arg, error):
    # n = 65 used to allocate a 143 MB factor swap first, and n = 1000 ran numpy out of memory
    if build is swap_conjugation:
        arg = Conjugation.identity(arg)
    tracemalloc.start()
    try:
        with pytest.raises(error):
            build(arg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_shift_tensor_coshift_blocks_report_a_slice_that_is_not_invariant(monkeypatch):
    # one entry from the degree-0 monomial into the top degree breaks the
    # invariance check: an AccuracyError, where it used to be an AssertionError
    truncation = shift_coshift_truncation

    def broken(N):
        T = truncation(N)
        T[-1, 0] = 1.0
        return T

    monkeypatch.setattr(indestructible, "shift_coshift_truncation", broken)
    with pytest.raises(AccuracyError, match="degree 0 is not invariant"):
        shift_tensor_coshift_blocks(3)


def test_random_nilpotent2_refuses_a_rank_above_half_the_dimension():
    # an InputError, which a caller catching ValueError still catches
    with pytest.raises(InputError, match="rank 2 too large for dimension 3"):
        random_nilpotent2(stream(13, 5), 3, rank=2)


def _destructor_outcome(A):
    """The conclusion and the four norms of destructor_witness(A), or its PreconditionError."""
    try:
        cert = destructor_witness(A)
    except PreconditionError as exc:
        return str(exc)
    return cert.conclusion, cert.norm_wA, cert.norm_wA_rev, cert.norm_wB, cert.norm_wB_rev


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 9),
    log_offset=st.one_of(st.none(), st.floats(-10.0, -7.0)),
)
def test_destructor_decides_as_the_splitting_first_route(seed, n, log_offset):
    # generic A (no offset), or an order-two nilpotent pushed off order two so
    # that ||A^2|| / ||A||^2 lies in 1e-10 to 1e-7, around the splitting's tol;
    # the Frobenius screen may spare the splitting's SVD but must change
    # neither the conclusion, nor a norm, nor an error message
    rng = stream(seed, 11)
    if log_offset is None:
        A = random_complex(rng, n, n)
    else:
        N = random_nilpotent2(rng, n)
        E = random_complex(rng, n, n)
        A = N + 10.0**log_offset * operator_norm(N) * E / operator_norm(E)
    screened = _destructor_outcome(A)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(indestructible, "_order_two_ruled_out", lambda B, tol: False)
        assert _destructor_outcome(A) == screened


def test_destructor_takes_no_splitting_on_a_generic_matrix(monkeypatch):
    # the destructor takes the splitting's order-two decision, and never its frame
    calls = []
    decisions = indestructible._order_two_decisions
    monkeypatch.setattr(
        indestructible, "_order_two_decisions", lambda A, tol: calls.append(A) or decisions(A, tol)
    )
    assert destructor_witness(random_complex(stream(3, 11), 5, 5)).conclusion == "destroyed"
    assert calls == []
    N = random_nilpotent2(stream(3, 12), 5)
    assert destructor_witness(N).conclusion == "indestructible_sampled"
    assert [A.tobytes() for A in calls] == [N[None].tobytes()]
    # A fails on its rank alone, so its yxx norms decide nothing, and the
    # message embeds the splitting's own refusal
    A = np.zeros((3, 3), dtype=complex)
    A[1, 0], A[2, 2] = 1.0, 1e-6
    with pytest.raises(PreconditionError) as refusal:
        nilpotent2_splitting(A)
    calls.clear()
    with pytest.raises(PreconditionError) as exc:
        destructor_witness(A)
    assert "numerical rank 2" in str(refusal.value)
    assert str(exc.value).startswith(f"A is {refusal.value}, but the yxx norms")
    assert len(calls) == 1  # the refusal the message quotes is the one decision taken


def test_stacked_tensor_conjugations_equal_their_one_pair_calls_byte_for_byte():
    # A (x) B of size 8 from A of dimension 2 and 4 (ranks 1 and 1-2), and of size 6
    rng = stream(9, 11)
    for shapes in (((2, 4), (4, 2), (2, 4), (4, 2)), ((3, 2), (2, 3))):
        pairs = [(random_nilpotent2(rng, da), random_complex(rng, db, db)) for da, db in shapes]
        T, G, c_norms = indestructible._nilpotent2_tensor_conjugations(*zip(*pairs))
        for (A, B), t, g, c_norm in zip(pairs, T, G, c_norms):
            C = nilpotent2_tensor_conjugation(A, B)
            # the product of the factors scaled by powers of two
            scaled = tensor(power_of_two_scaled(A)[0], power_of_two_scaled(B)[0])
            assert t.tobytes() == scaled.tobytes()
            assert g.tobytes() == C.matrix.tobytes()
            # the norm is_c_symmetric divides by ||T|| for its residual
            assert c_norm == operator_norm(t - conjugate_by(C, t.conj().T))
    # an A past order two is refused with its own one-pair error
    A, B = jordan(3), random_complex(rng, 2, 2)
    with pytest.raises(PreconditionError) as one:
        nilpotent2_tensor_conjugation(A, B)
    with pytest.raises(PreconditionError) as many:
        indestructible._nilpotent2_tensor_conjugations([random_nilpotent2(rng, 3), A], [B, B])
    assert str(many.value) == str(one.value)


def test_stacked_destructor_witnesses_equal_their_one_matrix_calls_field_for_field():
    # generic (destroyed), order two (indestructible), order two only at tol, and 0,
    # at one size and at scales far apart
    rng = stream(9, 12)
    for n in (2, 3, 5):
        N = random_nilpotent2(rng, n)
        E = random_complex(rng, n, n)
        members = [
            random_complex(rng, n, n),
            N,
            1e-40 * random_complex(rng, n, n),
            N + 1e-11 * operator_norm(N) * E / operator_norm(E),
            np.zeros((n, n)),
            1e60 * random_nilpotent2(rng, n),
        ]
        for alpha, beta in ((1.0, 2.0), (2.5, 0.75)):
            certs = indestructible._destructor_witnesses(np.array(members), alpha, beta)
            assert len(certs) == len(members)
            for A, cert in zip(members, certs):
                one = destructor_witness(A, alpha, beta)
                assert cert.witness_B.tobytes() == one.witness_B.tobytes()
                assert (cert.alpha, cert.beta, cert.word, cert.conclusion) == (
                    one.alpha,
                    one.beta,
                    one.word,
                    one.conclusion,
                )
                norms = (cert.norm_wA, cert.norm_wA_rev, cert.norm_wB, cert.norm_wB_rev)
                assert norms == (one.norm_wA, one.norm_wA_rev, one.norm_wB, one.norm_wB_rev)
                assert all(type(x) is float for x in norms)


def test_a_stack_with_a_refused_matrix_raises_that_matrix_own_error():
    # a cancelling ratio, a rank-margin failure and an underflow, each behind good members
    rank_margin = np.zeros((3, 3), dtype=complex)
    rank_margin[1, 0], rank_margin[2, 2] = 1.0, 1e-5
    good = [random_complex(stream(9, 13), 3, 3), random_nilpotent2(stream(9, 14), 3)]
    for bad in (witness_matrix(2.0, 1.0), rank_margin, 1e-110 * jordan(3)):
        with pytest.raises(PreconditionError) as one:
            destructor_witness(bad, 1.0, 2.0)
        with pytest.raises(PreconditionError) as many:
            indestructible._destructor_witnesses([*good, bad, jordan(3)], 1.0, 2.0)
        assert str(many.value) == str(one.value)
