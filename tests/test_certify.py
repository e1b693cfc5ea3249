"""Complex-symmetry certificates: constructive conjugations, canonical
blocks, and word-norm obstructions.

Hand oracles used below:
  * J2 (single nilpotent 2x2 chain): G must be the 0/1 swap matrix.
  * T = [[0,0],[2,0]]: canonical block is [[1, i], [i, -1]] exactly.
  * witness B(1,2): first violating word in length-lex order is xxy,
    with gap |norm(B*BB) - norm(BB*B*)| = |4 - 2| = 2.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from csokit import certify
from csokit.certify import (
    canonical_block_decomposition,
    conjugation_for_nilpotent2,
    find_conjugation,
    hermitian_phase_conjugation,
    intertwiner_basis,
    is_c_symmetric,
    nilpotent2_splitting,
    polynomial_norm_gap,
    polynomial_obstruction_search,
    word_norm_gap,
    word_obstruction_search,
)
from csokit.ensembles import random_complex, random_cso, random_nilpotent2, random_unitary, stream
from csokit.errors import AccuracyError, InputError, PreconditionError
from csokit.indestructible import destructor_witness, nilpotent2_tensor_conjugation, witness_matrix
from csokit.linalg import DEFAULT_TOL, Conjugation, conjugate_by, direct_sum, operator_norm
from csokit.synthesis import synthesize_tto_for_nilpotent2
from csokit.words import (
    conjugate_coefficients,
    eval_poly,
    eval_word,
    iter_words,
    random_polynomial,
    random_word,
)


def jordan(n):
    J = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        J[i + 1, i] = 1.0
    return J


def order_two(T, tol=DEFAULT_TOL):
    """The order-two decision as a bool."""
    try:
        nilpotent2_splitting(T, tol)
    except PreconditionError:
        return False
    return True


def test_nilpotency_order():
    for T in (np.zeros((3, 3)), np.zeros((2, 2)), np.zeros((0, 0)), np.zeros((1, 1))):
        form = nilpotent2_splitting(T)
        assert form.rank == 0 and form.extra_kernel_dim == len(T) and form.norm == 0.0
    assert nilpotent2_splitting(jordan(2)).rank == 1
    for T in (jordan(3), jordan(4), np.eye(2), np.eye(3), np.eye(1), np.array([[2j]])):
        with pytest.raises(PreconditionError, match=r"\|\|T\^2\|\| / \|\|T\|\|\^2 = 1\.000e\+00"):
            nilpotent2_splitting(T)
    # ||(T / ||T||)^2|| is at most 1, so at tol >= 1 every T passes, with no
    # singular value above tol ||T||
    for tol in (1.0, 2.0):
        form = nilpotent2_splitting(np.eye(3), tol=tol)
        assert form.rank == 0 and form.norm == 1.0
    assert not order_two(np.eye(1), tol=0.5)
    # the square is of T / ||T||, so ||T||^2 = 4e-404 cannot underflow to 0,
    # and the division is by parts, since complex division by a subnormal
    # norm such as 3e-310 overflows to NaN
    for scale in (2e-202, 3e-310):
        assert not order_two(np.diag([0.0, scale * 1j]))
        assert order_two(np.array([[0.0, 0.0], [scale * 1j, 0.0]]))


def test_nilpotent_route_takes_each_svd_once(monkeypatch):
    # 8x8 of rank 3 with a leftover kernel: the decision's SVD (with ||T||),
    # ||T^2||, the leftover kernel, the polar factor, the c-symmetry residual,
    # unitarity and symmetry; 12 while the order was decided twice and ||T||
    # normed four times
    T = random_nilpotent2(stream(1, 1), 8, 3)
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    cert = find_conjugation(T)
    assert cert.verdict == "c_symmetric"
    assert len(calls) == 7


def test_is_c_symmetric_under_identity():
    S = np.array([[1.0, 2j], [2j, 3.0]])
    ok, res = is_c_symmetric(S, Conjugation.identity(2))
    assert ok and res <= 1e-15
    ok, res = is_c_symmetric(jordan(3), Conjugation.identity(3))
    assert not ok and res > 0.1


def test_splitting_couples_left_and_right_vectors():
    rng = stream(11, 0)
    T = random_nilpotent2(rng, 7, rank=3)
    form = nilpotent2_splitting(T)
    assert form.rank == 3 and form.extra_kernel_dim == 1
    right, left, rest = np.split(form.W.conj().T, [3, 6], axis=1)
    s = form.singular_values
    # T right_i = s_i left_i is the coupling the conjugation relies on
    assert operator_norm(T @ right - left * s) <= 1e-9 * operator_norm(T)
    frame = np.hstack([right, rest, left])
    assert operator_norm(frame.conj().T @ frame - np.eye(7)) <= 1e-9


def test_splitting_rejects_higher_order():
    with pytest.raises(PreconditionError, match="not nilpotent of order two"):
        nilpotent2_splitting(jordan(3))


def test_splitting_refuses_a_rank_above_half_the_dimension():
    # ||T^2|| = 1e-10 ||T||^2 clears the order margin, but the 1e-5 singular
    # value counts toward the rank at the same tol: rank 2 in C^3.  So T is
    # not of order two, and certify's general routes find a verified G.
    T = direct_sum(jordan(2), 1e-5)
    with pytest.raises(PreconditionError, match=r"rank 2 exceeds half the dimension 3 \(s_1 / s_0 = 1\.000e-05\)"):
        nilpotent2_splitting(T)
    cert = find_conjugation(T)
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL


def near_nilpotent(seed, dim, rel, rank=None):
    """Random T with T^2 = 0 plus a perturbation of relative norm rel."""
    rng = stream(seed, 0)
    N = random_nilpotent2(rng, dim, rank)
    E = random_complex(rng, dim, dim)
    return N + E * (rel * operator_norm(N) / operator_norm(E))


def test_near_nilpotent_rank_two_certify_destructor_synthesize():
    # the perturbation's singular values (~3e-10 ||T||) fall below the tol
    # that decides nilpotency, so the numerical rank is 2 and the splitting
    # of C^6 is square
    for seed in range(4):
        T = near_nilpotent(seed, 6, 3e-10, rank=2)
        cert = find_conjugation(T)
        assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL
        assert destructor_witness(T).conclusion == "indestructible_sampled"
        res = synthesize_tto_for_nilpotent2(T)
        assert res.W.shape == (6, 6) and res.converged
        assert res.equivalence_residual <= 1e-8 * operator_norm(T)


def test_certify_destructor_and_synthesize_share_one_nilpotency_decision():
    # perturbations from 1e-11 to 1e-7 straddle the tol, so both sides occur;
    # J2 (+) [eps] clears the order margin but fails the rank margin
    cases = [direct_sum(jordan(2), eps) for eps in (1e-8, 1e-5, 3e-5)]
    for case in range(40):
        rng = stream(23, case)
        cases.append(near_nilpotent(case, int(rng.integers(2, 9)), 10.0 ** rng.uniform(-11.0, -7.0)))
    sides = set()
    for T in cases:
        nil = order_two(T)
        sides.add(nil)
        try:
            said = destructor_witness(T).conclusion
        except PreconditionError:
            # A is not of order two, but the yxx gap of A (x) B is too small to certify
            said = None
        assert (said == "indestructible_sampled") == nil
        cert = find_conjugation(T)
        if nil:
            assert cert.verdict in ("c_symmetric", "inconclusive") and np.isfinite(cert.residual)
            assert synthesize_tto_for_nilpotent2(T).W.shape == T.shape
        else:
            assert cert.verdict != "inconclusive" or np.isnan(cert.residual)
            with pytest.raises(PreconditionError):
                nilpotent2_tensor_conjugation(T, np.eye(2))
            with pytest.raises(PreconditionError):
                synthesize_tto_for_nilpotent2(T)
    assert sides == {True, False}


def test_tensor_conjugation_refuses_a_residual_above_tol():
    # A passes the order-two decision, but the conjugation of A (x) B(1, 2)
    # built from it leaves a c-symmetry residual of 1.5e-9; it used to be
    # returned all the same
    A = near_nilpotent(8, 6, 1e-9)
    assert order_two(A)
    with pytest.raises(AccuracyError, match="c-symmetry residual 1.463e-09"):
        nilpotent2_tensor_conjugation(A, witness_matrix(1.0, 2.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 10),
    log_rel=st.floats(-11.0, -9.0),
)
def test_near_nilpotent_symmetric_verdicts_meet_tol(seed, dim, log_rel):
    cert = find_conjugation(near_nilpotent(seed, dim, 10.0**log_rel))
    assert cert.verdict != "c_symmetric" or cert.residual <= DEFAULT_TOL


@pytest.mark.parametrize("seed, dim", [(0, 8), (0, 9), (3, 6), (3, 12)])
def test_near_nilpotent_conjugation_is_unitary_to_tol(seed, dim):
    # the basis [right, left, rest] of a near-nilpotent T is orthonormal only
    # to about ||T^2|| / ||T||^2; G built from it directly was 1.2e-9 to
    # 1.8e-9 from unitary on these, and G from its polar factor is not
    cert = find_conjugation(near_nilpotent(seed, dim, 3e-10))
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL
    assert cert.conjugation.unitarity_residual() <= DEFAULT_TOL
    assert cert.conjugation.symmetry_residual() <= DEFAULT_TOL


def test_conjugation_for_j2_is_the_swap():
    form = nilpotent2_splitting(jordan(2))
    C = conjugation_for_nilpotent2(form)
    assert np.allclose(C.matrix, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
    assert is_c_symmetric(jordan(2), C)[1] <= 1e-12
    assert np.allclose(form.singular_values, [1.0])
    assert form.extra_kernel_dim == 0


def test_conjugation_for_random_nilpotents():
    rng = stream(11, 1)
    for dim in (2, 5, 9):
        T = random_nilpotent2(rng, dim)
        C = conjugation_for_nilpotent2(nilpotent2_splitting(T))
        C.validate()
        assert is_c_symmetric(T, C)[1] <= 1e-9
        assert operator_norm(conjugate_by(C, T.conj().T) - T) <= 1e-9 * operator_norm(T)


def test_canonical_block_for_rank_one():
    blocks, W = canonical_block_decomposition(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert len(blocks) == 1
    assert np.allclose(blocks[0], np.array([[1.0, 1j], [1j, -1.0]]), atol=1e-12)
    # right = e1, left = e2, so W is Q = [[1, 1], [-i, i]] / sqrt(2) itself
    assert np.allclose(W, np.array([[1.0, 1.0], [-1j, 1j]]) / np.sqrt(2.0), atol=1e-15)


def test_canonical_blocks_reach_the_operator():
    # the closed-form W is unitary and maps T exactly onto the 2x2 blocks
    # plus 1x1 kernel blocks, for ranks 1-3 with and without leftover kernel
    rng = stream(11, 2)
    for rank in (1, 2, 3):
        for extra in (0, 2):
            dim = 2 * rank + extra
            T = random_nilpotent2(rng, dim, rank=rank)
            blocks, W = canonical_block_decomposition(T)
            assert sorted(b.shape[0] for b in blocks) == [1] * extra + [2] * rank
            Y = direct_sum(*blocks)
            assert operator_norm(W @ W.conj().T - np.eye(dim)) <= 1e-12
            assert operator_norm(W @ T @ W.conj().T - Y) <= 1e-12 * operator_norm(T)


def test_intertwiner_basis_members_intertwine():
    # jordan(3) takes the Kronecker null space, diag(1, 2, 3) + a strictly
    # upper part (a simple spectrum) the eigenvector basis
    simple = np.diag([1.0, 2.0, 3.0]) + np.triu(np.full((3, 3), 0.5 + 0.5j), 1)
    for T in (jordan(3), simple):
        basis = intertwiner_basis(T)
        assert basis.size
        assert operator_norm(basis.conj().T @ basis - np.eye(basis.shape[1])) <= 1e-12
        for j in range(basis.shape[1]):
            B = basis[:, j].reshape((3, 3), order="F")
            assert operator_norm(T @ B - B @ T.T) <= 1e-12


def kronecker_null_space(T):
    """Reference basis of {X : T X = X T^t}, straight from the n^2 x n^2 matrix."""
    n = T.shape[0]
    return scipy.linalg.null_space(np.kron(np.eye(n), T) - np.kron(T, np.eye(n)))


def without_null_space(fn, *args):
    """fn(*args) with certify's null_space made to fail, so no Kronecker path runs."""

    def forbidden(*args, **kwargs):
        raise AssertionError("null_space ran on a simple spectrum")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "null_space", forbidden)
        return fn(*args)


def test_intertwiner_basis_matches_the_kronecker_null_space():
    # seeded CSO and generic matrices have simple spectra: the eigenvector
    # basis spans the same space as the reference, column count and projector
    for dim in range(1, 17):
        rng = stream(23, dim)
        for T in (random_cso(rng, dim)[0], random_complex(rng, dim, dim)):
            basis, ref = without_null_space(intertwiner_basis, T), kronecker_null_space(T)
            assert basis.shape == ref.shape == (dim * dim, dim)
            P, R = basis @ basis.conj().T, ref @ ref.conj().T
            assert np.abs(P - R).max() <= 1e-10


def test_intertwiner_basis_takes_the_null_space_off_simple_spectra():
    Q = random_unitary(stream(11, 7), 6)
    cases = [
        jordan(3),
        Q @ direct_sum(jordan(3), jordan(3)) @ Q.conj().T,
        direct_sum(2 * np.eye(3), jordan(2)),
        np.diag([1.0, 1.0, 2.0]),
        np.zeros((0, 0)),
    ]
    null_space = certify.null_space
    calls = []

    def spy(L, *args, **kwargs):
        calls.append(L.shape)
        return null_space(L, *args, **kwargs)

    for T in cases:
        calls.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certify, "null_space", spy)
            basis = intertwiner_basis(T)
        n = T.shape[0]
        assert calls == [(n * n, n * n)]
        assert basis.shape[1] == kronecker_null_space(T).shape[1]


def test_find_conjugation_at_64_builds_no_kronecker_matrix():
    T, _ = random_cso(stream(23, 64), 64)
    cert = without_null_space(find_conjugation, T)
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL
    cert.conjugation.validate()


def test_find_conjugation_order2_fast_path():
    cert = find_conjugation(jordan(2), seed=0)
    assert cert.verdict == "c_symmetric"
    assert cert.residual <= 1e-9
    cert.conjugation.validate()


def test_find_conjugation_symmetric_fast_path():
    S = np.array([[1.0, 2j], [2j, 0.5]])
    cert = find_conjugation(S, seed=0)
    assert cert.verdict == "c_symmetric"
    assert np.allclose(cert.conjugation.matrix, np.eye(2))


def test_find_conjugation_certifies_jordan_3():
    cert = find_conjugation(jordan(3), seed=0)
    assert cert.verdict == "c_symmetric"
    assert cert.residual <= 1e-9


def test_find_conjugation_certifies_random_cso():
    T, _ = random_cso(stream(11, 3), 4)
    cert = find_conjugation(T, seed=0)
    assert cert.verdict == "c_symmetric"
    assert cert.residual <= 1e-9
    assert operator_norm(conjugate_by(cert.conjugation, T.conj().T) - T) <= 1e-8


def test_find_conjugation_obstructed_witness():
    cert = find_conjugation(witness_matrix(1.0, 2.0), seed=0)
    assert cert.verdict == "obstructed"
    assert cert.obstruction_word == "xxy"
    assert cert.obstruction_gap == pytest.approx(2.0, abs=1e-12)


def test_tiny_witness_is_not_called_c_symmetric():
    # the residual is relative to ||T|| with no floor; a floor at machine eps
    # let every T below about 1e-25 pass any symmetric G
    B = witness_matrix(1.0, 2.0)
    for scale in (1e-50, 1e-100):
        assert not is_c_symmetric(scale * B, Conjugation.identity(3))[0]
        assert find_conjugation(scale * B, seed=0).verdict == "obstructed"
    # the search finds xxy on T scaled to norm about 1, but its gap is 0 in
    # T's units at 1e-150, so the search refuses rather than misreport it
    with pytest.raises(PreconditionError, match="out of range"):
        find_conjugation(1e-150 * B, seed=0)
    assert is_c_symmetric(np.zeros((3, 3)), Conjugation.identity(3)) == (True, 0.0)


def test_find_conjugation_inconclusive_when_masked():
    # balanced heavy chain hides the unbalanced one from every word norm of
    # length <= 5, and no conjugation exists, so neither route concludes
    big = np.zeros((3, 3), dtype=complex)
    big[0, 1] = 10.0
    big[1, 2] = 10.0
    T = direct_sum(big, witness_matrix(1.0, 2.0))
    cert = find_conjugation(T, seed=2026)
    assert cert.verdict == "inconclusive"
    assert np.isnan(cert.residual)
    assert cert.obstruction_word is None


def phase_accepted(T):
    return is_c_symmetric(T, hermitian_phase_conjugation(T))[0]


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(2, 64))
def test_phase_conjugation_certifies_random_cso(seed, dim):
    T, _ = random_cso(stream(seed, 0), dim)
    C = hermitian_phase_conjugation(T)
    ok, residual = is_c_symmetric(T, C)
    assert ok and residual <= DEFAULT_TOL
    assert C.unitarity_residual() <= DEFAULT_TOL and C.symmetry_residual() <= DEFAULT_TOL
    cert = find_conjugation(T)
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    entries=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
    log_scale=st.floats(-3.0, 3.0),
)
def test_every_2x2_matrix_is_certified(entries, log_scale):
    T = 10.0**log_scale * (np.array(entries[:4]) + 1j * np.array(entries[4:])).reshape(2, 2)
    cert = find_conjugation(T)
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL
    cert.conjugation.validate()


def test_2x2_cso_that_the_projection_search_missed():
    # a 2x2 CSO request of the benchmark's fixed CSO stream on which the
    # alternating-projection search alone ended inconclusive
    T = np.array(
        [
            [0.3573524837229171 - 1.5498479324036807j, -0.6204536338391257 + 0.7447355031390956j],
            [0.536895811958332 - 0.5524872561000909j, 2.947179071117767 + 0.15160292145762358j],
        ]
    )
    assert phase_accepted(T)
    cert = find_conjugation(T)
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL


@settings(derandomize=True, database=None, deadline=None, max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(3, 32))
def test_generic_matrix_is_obstructed_without_the_projection_search(seed, dim):
    def forbidden(*args, **kwargs):
        raise AssertionError("the projection search ran on a matrix with an obstruction word")

    T = random_complex(stream(seed, 0), dim, dim)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "intertwiner_basis", forbidden)
        mp.setattr(certify, "unitary_in_subspace", forbidden)
        cert = find_conjugation(T)
    assert cert.verdict == "obstructed" and cert.obstruction_word
    assert cert.obstruction_gap == pytest.approx(word_norm_gap(T, cert.obstruction_word))


def test_degenerate_spectra_are_certified():
    # J3 (+) J3 in a rotated basis: every H = Re(e^{i theta} T) has only double
    # eigenvalues, the phase G fails, and the projection search certifies it
    Q = random_unitary(stream(11, 7), 6)
    T = Q @ direct_sum(jordan(3), jordan(3)) @ Q.conj().T
    assert not phase_accepted(T)
    cert = find_conjugation(T)
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL
    # 2 I_3 (+) J2 also has a triple eigenvalue for every theta, but K is
    # scalar on that eigenspace, so its phases are free and the phase G holds
    T = direct_sum(2.0 * np.eye(3), jordan(2))
    assert phase_accepted(T)
    cert = find_conjugation(T)
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
def test_non_positive_or_non_finite_tol_is_rejected(tol):
    S = np.array([[1.0, 2j], [2j, 3.0]])
    with pytest.raises(InputError):
        find_conjugation(S, tol=tol)
    with pytest.raises(InputError):
        word_obstruction_search(S, tol=tol)
    with pytest.raises(InputError):
        polynomial_obstruction_search(S, samples=4, tol=tol)
    with pytest.raises(InputError):
        nilpotent2_splitting(S, tol=tol)


@pytest.mark.parametrize(
    "search, kwargs",
    [
        (word_obstruction_search, {"max_len": 0}),
        (word_obstruction_search, {"max_len": -2}),
        (word_obstruction_search, {"mode": "sampled", "samples": 0}),
        (word_obstruction_search, {"mode": "bogus"}),
        (polynomial_obstruction_search, {"max_len": 0}),
        (polynomial_obstruction_search, {"samples": -1}),
        (find_conjugation, {"budget": -5}),
        (find_conjugation, {"budget": 0}),
    ],
)
def test_out_of_range_counts_and_modes_are_input_errors(search, kwargs):
    with pytest.raises(InputError):
        search(np.array([[1.0, 2j], [2j, 3.0]]), **kwargs)


def test_word_norm_gap_vanishes_on_cso():
    T, _ = random_cso(stream(11, 4), 4)
    nrm = operator_norm(T)
    for w in ("x", "yxx", "xyxyx"):
        assert word_norm_gap(T, w) <= 1e-10 * nrm ** len(w)


def test_word_obstruction_search_finds_witness_violation():
    hit = word_obstruction_search(witness_matrix(1.0, 2.0), max_len=5)
    assert hit is not None
    word, gap = hit
    assert word == "xxy"
    assert gap == pytest.approx(2.0, abs=1e-12)


def test_word_obstruction_search_clean_on_cso():
    T, _ = random_cso(stream(11, 5), 3)
    assert word_obstruction_search(T, max_len=4) is None


def test_polynomial_gap_and_search_on_cso():
    T, _ = random_cso(stream(11, 6), 3)
    p = {"xy": 1.0 + 1j, "yxx": -0.5}
    assert polynomial_norm_gap(p, T) <= 1e-9
    report = polynomial_obstruction_search(T, samples=40, max_len=4, seed=5)
    assert report["violations"] == 0
    assert report["conclusion"] == "no_violation_found_within_budget"
    assert report["samples"] == 40


def test_polynomial_search_reports_witness_violation():
    report = polynomial_obstruction_search(
        witness_matrix(1.0, 2.0), samples=60, max_len=4, seed=5
    )
    assert report["violations"] > 0
    assert report["best_gap"] > 0.1
    assert report["best_polynomial"] is not None


def test_polynomial_search_agrees_with_the_word_search_on_a_tiny_witness():
    # the threshold is relative to ||T|| with no floor; a floor at machine eps
    # hid every violation of 1e-20 * B while the word search found xxy
    T = 1e-20 * witness_matrix(1.0, 2.0)
    assert word_obstruction_search(T)[0] == "xxy"
    report = polynomial_obstruction_search(T)
    assert report["violations"] > 0
    assert report["conclusion"] == "norm_identity_violated"
    assert polynomial_obstruction_search(np.zeros((3, 3)))["violations"] == 0


def per_word_gap(T, word):
    """The norm gap of one word, multiplied out and normed on its own."""
    H = T.conj().T
    return abs(operator_norm(eval_word(word, T, H)) - operator_norm(eval_word(word, H, T)))


def per_word_search(T, words, tol=DEFAULT_TOL):
    nrm = operator_norm(T)
    for w in words:
        gap = per_word_gap(T, w)
        if gap > tol * nrm ** len(w):
            return w, gap
    return None


def search_matrix(kind, seed, n):
    rng = stream(seed, 7)
    if kind == "cso":
        return random_cso(rng, n)[0]
    if kind == "witness":
        # the small CSO block leaves the witness's word norms in charge
        S = random_cso(rng, n)[0]
        return direct_sum(witness_matrix(1.0, 2.0), 0.1 * S / operator_norm(S))
    return random_complex(rng, n, n)


def test_word_norm_gap_is_the_per_word_gap_bit_for_bit():
    T = search_matrix("generic", 1, 4)
    for w in iter_words(5):
        assert word_norm_gap(T, w) == per_word_gap(T, w)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(["generic", "cso", "witness"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    mode=st.sampled_from(["exhaustive", "sampled"]),
    batch_words=st.sampled_from([1, 3, 1000]),
)
def test_word_search_equals_the_per_word_loop(kind, seed, n, mode, batch_words):
    T = search_matrix(kind, seed, n)
    if mode == "exhaustive":
        words = list(iter_words(5))
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
        words = [random_word(rng, 5) for _ in range(64)]
    with pytest.MonkeyPatch.context() as mp:
        # small batches split the levels and the samples across several tables
        mp.setattr(certify, "BATCH_ENTRIES", batch_words * len(T) ** 2)
        got = word_obstruction_search(T, max_len=5, mode=mode, seed=seed, samples=64)
    assert got == per_word_search(T, words)
    if kind == "witness":
        assert got is not None


def per_polynomial_search(T, samples, max_len, seed, tol=DEFAULT_TOL):
    """polynomial_obstruction_search with each polynomial evaluated on its own."""
    nrm = max(operator_norm(T), np.finfo(float).eps)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3,)))
    best_gap, best_poly, hits = 0.0, None, 0
    for _ in range(samples):
        p = random_polynomial(rng, max_len, max_terms=4)
        scale = sum(abs(c) * nrm ** len(w) for w, c in p.items())
        a = operator_norm(eval_poly(p, T, T.conj().T))
        gap = abs(a - operator_norm(eval_poly(conjugate_coefficients(p), T.conj().T, T)))
        hits += gap > tol * scale
        if gap > best_gap:
            best_gap, best_poly = gap, p
    return hits, best_gap, best_poly


@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(
    kind=st.sampled_from(["generic", "cso", "witness"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5),
    batch_polys=st.sampled_from([1, 7, 1000]),
)
def test_polynomial_search_report_is_unchanged(kind, seed, n, batch_polys):
    T = search_matrix(kind, seed, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "BATCH_ENTRIES", batch_polys * len(T) ** 2)
        report = polynomial_obstruction_search(T, samples=30, max_len=4, seed=seed)
    hits, best_gap, best_poly = per_polynomial_search(T, 30, 4, seed)
    assert (report["violations"], report["best_gap"], report["best_polynomial"]) == (hits, best_gap, best_poly)
    p = {"xy": 1.0 + 1j, "yxx": -0.5}
    a = operator_norm(eval_poly(p, T, T.conj().T))
    assert polynomial_norm_gap(p, T) == abs(a - operator_norm(eval_poly(conjugate_coefficients(p), T.conj().T, T)))
