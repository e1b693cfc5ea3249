"""Complex-symmetry certificates: constructive conjugations, canonical
blocks, and word-norm obstructions.

Hand oracles used below:
  * J2 (single nilpotent 2x2 chain): G must be the 0/1 swap matrix.
  * T = [[0,0],[2,0]]: canonical block is [[1, i], [i, -1]] exactly.
  * witness B(1,2): first violating word in length-lex order is xxy,
    with gap |norm(B*BB) - norm(BB*B*)| = |4 - 2| = 2.
"""

import math
from fractions import Fraction
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings, strategies as st

from csokit import certify
from csokit.certify import (
    canonical_block_decomposition,
    conjugation_for_nilpotent2,
    find_conjugation,
    hermitian_phase_conjugation,
    intertwiner_basis,
    is_c_symmetric,
    nilpotent2_splitting,
    trace_obstruction_search,
    word_norm_gap,
    word_norm_gaps,
    word_obstruction_search,
)
from csokit.ensembles import random_complex, random_cso, random_nilpotent2, random_unitary, stream
from csokit.errors import AccuracyError, CapacityError, InputError, PreconditionError
from csokit.indestructible import destructor_witness, nilpotent2_tensor_conjugation, witness_matrix
from csokit.linalg import (
    DEFAULT_TOL,
    Conjugation,
    conjugate_by,
    direct_sum,
    operator_norm,
    operator_norms,
    power_of_two_scaled,
    unitary_in_subspace,
)
from csokit.synthesis import synthesize_tto_for_nilpotent2
from csokit.words import eval_word, iter_words, swap_letters, word_products, words_of_length


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


def recording_shapes(monkeypatch, *names):
    """{name: [shape of each call's matrix argument]} for the given np.linalg routines."""
    shapes = {name: [] for name in names}

    def recording(name, fn):
        def wrapped(a, *args, **kwargs):
            shapes[name].append(np.shape(a))
            return fn(a, *args, **kwargs)

        return wrapped

    for name in names:
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    return shapes


def test_nilpotent_route_takes_each_svd_once(monkeypatch):
    # 8x8 of rank 3 with a leftover kernel: the decision's SVD (with ||T||),
    # the leftover kernel, the polar factor, and the c-symmetry residual in a
    # stack of one; ||T^2||, unitarity and symmetry are decided by their
    # Frobenius norms, with no SVD
    T = random_nilpotent2(stream(1, 1), 8, 3)
    shapes = recording_shapes(monkeypatch, "svd")
    cert = find_conjugation(T)
    assert cert.verdict == "c_symmetric"
    assert len(shapes["svd"]) == 4
    assert shapes["svd"][-1] == (1, 8, 8)


def test_cso_route_takes_a_closed_form_polar_factor_and_one_verification(monkeypatch):
    # the Frobenius bound rules order two out, so the splitting takes no SVD;
    # ||B|| = ||T / 2^e|| takes one SVD, and the xxy pair of B one of a stack
    # of two, as the Frobenius norm of B - B^t already fails the transpose
    # test; the intertwiner space takes one eigh of Re(B), whose spectrum is
    # simple here, so no angle stack and no eigvalsh, and one SVD of its R
    # factor; J(T) = span{U diag(y) U^t}, whose polar factor
    # U diag(y / |y|) U^t takes no SVD, and that factor verifies at once, by
    # one SVD of a stack of one (unitarity and symmetry pass on their
    # Frobenius norms), so the phase test's stacked eigh never runs
    T, _ = random_cso(stream(2, 1), 6)
    shapes = recording_shapes(monkeypatch, "svd", "eigvalsh", "eigh")
    verifications = []
    kernel = certify._verified_residual

    def counting_kernel(*args):
        verifications.append(1)
        return kernel(*args)

    monkeypatch.setattr(certify, "_verified_residual", counting_kernel)
    cert = find_conjugation(T)
    assert cert.verdict == "c_symmetric"
    assert shapes["eigvalsh"] == [] and shapes["eigh"] == [(6, 6)]
    assert shapes["svd"] == [(6, 6), (2, 6, 6), (6, 6), (1, 6, 6)]
    assert len(verifications) == 1


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 12),
    log_size=st.floats(-12.0, -7.0),
    symmetric=st.booleans(),
)
def test_verification_matches_svd_of_all_three_norms(seed, n, log_size, symmetric):
    # G of a CSO T pushed off by 1e-12 to 1e-7, so that the Frobenius norms of
    # GG* - I and G - G^t straddle tol; a symmetric push leaves G - G^t = 0.
    # Deciding them by Frobenius norm first must give the verdict and the
    # residual of an SVD of all three
    rng = stream(seed, 12)
    T, C = random_cso(rng, n)
    E = random_complex(rng, n, n)
    E = E + E.T if symmetric else E
    G = C.matrix + 10.0**log_size * E / np.linalg.norm(E)
    nrm = operator_norm(T)
    C = Conjugation(G)
    got = certify._verified_residual(T, C, DEFAULT_TOL, nrm)
    unitarity, symmetry, c_norm = (
        operator_norm(M)
        for M in (G @ G.conj().T - np.eye(n), G - G.T, T - conjugate_by(C, T.conj().T))
    )
    assert got == (max(unitarity, symmetry, c_norm / nrm) <= DEFAULT_TOL, c_norm / nrm)


def test_phase_test_on_real_input_matches_eigh_part_by_part(monkeypatch):
    # for a real T, H_{8-k} = -conj(H_k) ties H_k's gaps in exact arithmetic,
    # so the last bits of the eigenvalues pick k: the G must be the one that
    # eigh of each part alone gives, eigenvalues and eigenvectors both (the
    # eigenvalues of eigvalsh can differ from them in the last bit)
    eigh = np.linalg.eigh

    def part_by_part(a, *args, **kwargs):
        parts = [eigh(h, *args, **kwargs) for h in np.reshape(a, (-1, *np.shape(a)[-2:]))]
        w = np.stack([p[0] for p in parts]).reshape(np.shape(a)[:-1])
        return w, np.stack([p[1] for p in parts]).reshape(np.shape(a))

    rng = stream(4, 0)
    Ts = [rng.standard_normal((n, n)) for n in range(1, 13) for _ in range(4)]
    batched = [hermitian_phase_conjugation(T).matrix for T in Ts]
    monkeypatch.setattr(np.linalg, "eigh", part_by_part)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kwargs: part_by_part(a)[0])
    for T, G in zip(Ts, batched):
        assert hermitian_phase_conjugation(T).matrix.tobytes() == G.tobytes()


def kernel_input(kind, n, rng):
    """(A, candidate conjugations) for the verification kernel tests."""
    if kind == "cso":
        A, C = random_cso(rng, n)
        return A, [C, hermitian_phase_conjugation(A)]
    if kind == "near_nilpotent":
        N = random_nilpotent2(rng, n)
        E = random_complex(rng, n, n)
        A = N + 1e-10 * operator_norm(N) / max(operator_norm(E), 1e-300) * E
        constructive = conjugation_for_nilpotent2(nilpotent2_splitting(N))
        return A, [constructive, hermitian_phase_conjugation(A)]
    if kind == "spread":
        s = 10.0 ** np.linspace(0.0, -14.0, n)
        A = (random_unitary(rng, n) * s) @ random_unitary(rng, n).conj().T
    else:
        A = random_complex(rng, n, n)
    G = random_unitary(rng, n)
    return A, [hermitian_phase_conjugation(A), Conjugation(G @ G.T), Conjugation(G)]


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    kind=st.sampled_from(["cso", "near_nilpotent", "spread", "generic"]),
    n=st.integers(0, 7),
    log_scale=st.sampled_from([-150, 0, 150]),
    seed=st.integers(0, 2**32 - 1),
)
def test_verification_kernel_matches_the_separate_checks_bit_for_bit(kind, n, log_scale, seed):
    # 0x0 and 1x1 included; the stacked SVD runs the same LAPACK routine on
    # each matrix, so its residual and verdict are those of the three checks
    # made apart, at every tol.  The kernel takes B = A / 2^e, as its callers
    # pass it: LAPACK rescales an unscaled A of entries near 1e+-150 inside
    A, candidates = kernel_input(kind, n, stream(seed, n))
    A = A * 10.0**log_scale
    B, _ = power_of_two_scaled(A)
    nrm = operator_norm(B)
    for C in candidates:
        _, residual = is_c_symmetric(A, C)
        worst = max(C.unitarity_residual(), C.symmetry_residual(), residual)
        for tol, verdict in ((worst, True), (float(np.nextafter(worst, -1.0)), False)):
            ok, got = certify._verified_residual(B, C, tol, nrm)
            assert type(got) is float and got == residual
            assert ok is verdict


def test_an_overflowing_residual_is_an_input_error():
    # a T whose norm overflows has no decidable order: refused, not read as
    # order two of rank 0
    T = random_complex(stream(3, 0), 4, 4)
    T *= 1.7e308 / np.abs(T).max()
    with pytest.raises(InputError, match=r"\|\|T\|\| overflows"):
        find_conjugation(T)
    with pytest.raises(InputError, match=r"\|\|T\|\| overflows"):
        nilpotent2_splitting(T)
    # the same on the order-two route and on the transpose and polar routes
    N = np.array([[1e308, 1e308], [-1e308, -1e308]])  # N^2 = 0, ||N|| = 2e308
    S, _ = random_cso(stream(3, 1), 4)
    for M in (N, S * (1.7e308 / np.abs(S).max()), 1.7e308 * np.ones((3, 3))):
        with pytest.raises(InputError, match=r"\|\|T\|\| overflows"):
            find_conjugation(M)
    with pytest.raises(InputError, match=r"\|\|T\|\| overflows"):
        nilpotent2_splitting(N)


def test_matrices_near_the_top_of_the_double_range_are_certified():
    # the skew matrix is normal, so complex symmetric; (1.5e308 E_21) (x) (10 I)
    # has norm 1.5e309, yet its factors scaled by powers of two give its G
    T = np.array([[0.0, 1.5e308], [-1.5e308, 0.0]])
    cert = find_conjugation(T)
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL
    assert is_c_symmetric(np.ldexp(T, -1024), cert.conjugation)[0]
    assert cert.conjugation.unitarity_residual() <= DEFAULT_TOL
    A = np.zeros((2, 2))
    A[1, 0] = 1.5e308
    C = nilpotent2_tensor_conjugation(A, 10.0 * np.eye(2))
    assert is_c_symmetric(np.kron(np.ldexp(A, -1024), np.eye(2)), C)[0]
    assert max(C.unitarity_residual(), C.symmetry_residual()) <= DEFAULT_TOL


def scale_range(T):
    """(lo, hi): the k for which every part of 2^k T is 0 or a normal double."""
    parts = np.abs(np.concatenate([T.real.ravel(), T.imag.ravel()]))
    parts = parts[parts > 0]
    return -1021 - int(np.frexp(parts.min())[1]), 1024 - int(np.frexp(parts.max())[1])


def outcome(T):
    """find_conjugation(T) as (verdict, residual bytes, G bytes, word, gap), or the error type."""
    try:
        cert = find_conjugation(T)
    except (InputError, PreconditionError) as exc:
        return type(exc)
    G = None if cert.conjugation is None else cert.conjugation.matrix.tobytes()
    gap = cert.obstruction_gap
    residual = None if gap is not None else np.float64(cert.residual).tobytes()
    return cert.verdict, residual, G, cert.obstruction_word, gap


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(["cso", "generic", "nilpotent", "near_nilpotent"]),
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    where=st.floats(0.0, 1.0),
)
def test_a_power_of_two_scale_changes_no_certificate(kind, n, seed, where):
    # every step but the word search runs on T / 2^e, so 2^k T gets T's
    # verdict, residual and G bit for bit, at both ends of the range of k
    # whose parts stay normal and at one k between; an obstruction's gap is
    # T's times 2^(k L), refused where that leaves the doubles, and a T whose
    # norm overflows is refused
    rng = stream(seed, n)
    if kind == "cso":
        T = random_cso(rng, n)[0]
    elif kind == "generic":
        T = random_complex(rng, n, n)
    else:
        T = random_nilpotent2(rng, n)
        if kind == "near_nilpotent":
            E = random_complex(rng, n, n)
            T = T + 1e-10 * operator_norm(T) / operator_norm(E) * E
    base = outcome(T)
    assert isinstance(base, tuple)
    verdict, residual, G, word, gap = base
    B, e = power_of_two_scaled(T)
    lo, hi = scale_range(T)
    for k in sorted({lo, hi, int(lo + where * (hi - lo))}):
        got = outcome(np.ldexp(T.real, k) + 1j * np.ldexp(T.imag, k))
        if certify.times_power_of_two(operator_norm(B), e + k) == np.inf:
            assert got is InputError
        elif word is not None:
            scaled_gap = certify.times_power_of_two(gap, k * len(word))
            if 0 < scaled_gap < np.inf:
                assert got == (verdict, residual, G, word, scaled_gap)
            else:
                assert got is PreconditionError
        else:
            assert got == base


def test_is_c_symmetric_under_identity():
    S = np.array([[1.0, 2j], [2j, 3.0]])
    ok, res = is_c_symmetric(S, Conjugation.identity(2))
    assert ok and res <= 1e-15
    ok, res = is_c_symmetric(jordan(3), Conjugation.identity(3))
    assert not ok and res > 0.1


def test_is_c_symmetric_checks_the_conjugation_itself():
    # T = C T* C holds exactly for this G, but ||GG* - I|| = 24: the
    # certificate's check refuses it, and so must is_c_symmetric
    T, C = jordan(2), Conjugation([[0.0, 5.0], [1.0, 0.0]])
    assert is_c_symmetric(T, C) == (False, 0.0)
    assert certify._verified_residual(T, C, DEFAULT_TOL, operator_norm(T)) == (False, 0.0)


def test_an_overflowing_difference_or_defect_is_refused_with_an_infinite_residual():
    # T and G are finite, but GG* - I and C T* C overflow: each exceeds every
    # tol, so the verdict is False with residual +inf, where both were an
    # InputError for the inf entries, and no RuntimeWarning is raised
    G = Conjugation(1e200 * np.eye(2))
    assert is_c_symmetric(np.eye(2), G) == (False, math.inf)
    assert is_c_symmetric(np.zeros((2, 2)), G) == (False, 0.0)
    # ||A|| = 1.5e308 is a double, but A - C A* C = 2A under the flip is not;
    # find_conjugation passes T / 2^e, where no difference overflows
    A = np.diag([1.5e308, -1.5e308]).astype(complex)
    flip = Conjugation(np.eye(2, dtype=complex)[::-1])
    assert certify._verified_residual(A, flip, DEFAULT_TOL, operator_norm(A)) == (False, math.inf)
    # in a stack only the overflowed matrix's norm is +inf
    checks, c_norms = certify._verified_residuals(
        np.array([A, np.eye(2)]), np.array([flip.matrix, np.eye(2)]), DEFAULT_TOL, [1.0, 1.0]
    )
    assert checks == [(False, math.inf), (True, 0.0)] and c_norms == [math.inf, 0.0]


def test_is_c_symmetric_scales_t_before_it_subtracts():
    # T - T^t = 2T overflows: it raised a raw RuntimeWarning, and without the
    # warning filter an InputError for the inf entries it left
    T = np.array([[0.0, 1.2e308], [-1.2e308, 0.0]])
    assert is_c_symmetric(T, Conjugation.identity(2)) == (False, 2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert is_c_symmetric(T, Conjugation.identity(2)) == (False, 2.0)


def test_is_c_symmetric_repeats_the_certificate_of_the_largest_skew_matrix():
    # the CLI's +-1.5e308 check: the residual was 5.280777248392151e-16 in
    # the certificate and 5.280777248392149e-16 from is_c_symmetric
    T = np.array([[0.0, 1.5e308], [-1.5e308, 0.0]])
    cert = find_conjugation(T)
    assert cert.verdict == "c_symmetric"
    assert is_c_symmetric(T, cert.conjugation) == (True, cert.residual)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 10),
    k=st.sampled_from([-540, -500, 0, 500, 520]),
)
def test_is_c_symmetric_repeats_the_certificate_bit_for_bit(seed, n, k):
    # beyond about 2^+-459 LAPACK rescales an unscaled matrix inside its
    # SVD, so only a check on T / 2^e can give the certificate's bits
    T, _ = random_cso(stream(seed, n), n)
    T = np.ldexp(T.real, k) + 1j * np.ldexp(T.imag, k)
    cert = find_conjugation(T)
    assume(cert.verdict == "c_symmetric")
    assert is_c_symmetric(T, cert.conjugation) == (True, cert.residual)


def test_an_underflowing_square_is_not_read_as_order_two():
    # (T / ||T||)^2 has the one entry 2e-170, whose square underflows in the
    # Frobenius sum; the floor sends it to the SVD, which refuses it
    T = [[1e-170, 0.0], [1.0, 1e-170]]
    with pytest.raises(PreconditionError, match=r"\|\|T\^2\|\| / \|\|T\|\|\^2 = 2\.000e-170"):
        nilpotent2_splitting(T, tol=1e-200)


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


def stack_members(n, seed, size):
    """Order-two matrices of dimension n and mixed rank: 0, random, n // 2, near order two."""
    rng = stream(seed, 13)
    members = [np.zeros((n, n), dtype=complex)]
    members += [random_nilpotent2(rng, n) for _ in range(size)]
    members.append(random_nilpotent2(rng, n, n // 2))  # n = 2r for even n
    N = random_nilpotent2(rng, n)
    E = random_complex(rng, n, n)
    members.append(N + 1e-10 * operator_norm(N) / operator_norm(E) * E)  # order two only at tol
    return members


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), size=st.integers(0, 5))
def test_stacked_order_two_kernel_equals_its_one_matrix_calls_byte_for_byte(n, seed, size):
    members = stack_members(n, seed, size)
    T = np.array(members)
    forms = certify._nilpotent2_forms(T, DEFAULT_TOL)
    W = np.array([form.W for form in forms])
    G = certify._nilpotent2_conjugations(W, [form.rank for form in forms])
    checks, _ = certify._verified_residuals(T, G, DEFAULT_TOL, [form.norm for form in forms])
    assert len(forms) == len(G) == len(checks) == len(members)
    for M, form, g, check in zip(members, forms, G, checks):
        one = nilpotent2_splitting(M)
        assert form.W.tobytes() == one.W.tobytes()
        assert form.singular_values.tobytes() == one.singular_values.tobytes()
        assert form.extra_kernel_dim == one.extra_kernel_dim
        assert type(form.norm) is float and form.norm == one.norm
        C = conjugation_for_nilpotent2(one)
        assert g.tobytes() == C.matrix.tobytes()
        assert check == certify._verified_residual(M, C, DEFAULT_TOL, one.norm)


def test_a_stack_with_one_refused_member_raises_its_one_matrix_error():
    good = [random_nilpotent2(stream(5, 13), 6) for _ in range(3)]
    # past order two, and of order two at tol but of rank 5 in C^6
    for bad in (jordan(6), direct_sum(jordan(2), 1e-5 * np.eye(4))):
        with pytest.raises(PreconditionError) as one:
            nilpotent2_splitting(bad)
        for position in range(len(good) + 1):
            stack = np.array(good[:position] + [bad] + good[position:])
            with pytest.raises(PreconditionError) as many:
                certify._nilpotent2_forms(stack, DEFAULT_TOL)
            assert str(many.value) == str(one.value)


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


@pytest.mark.parametrize("seed, dim", [(0, 6), (10, 4)])
def test_order_two_route_falls_back_to_the_phase_conjugation(seed, dim):
    # the constructive G misses tol (residual 1.30e-9 and 1.25e-9) while the
    # phase G verifies; these used to end inconclusive
    T = near_nilpotent(seed, dim, 1e-9)
    form = nilpotent2_splitting(T)  # T passes the order-two decision
    assert is_c_symmetric(T, conjugation_for_nilpotent2(form))[1] > DEFAULT_TOL
    cert = find_conjugation(T)
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL
    assert np.array_equal(cert.conjugation.matrix, hermitian_phase_conjugation(T).matrix)
    assert cert.conjugation.unitarity_residual() <= DEFAULT_TOL
    assert cert.conjugation.symmetry_residual() <= DEFAULT_TOL


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


def intertwiners(T):
    """The (k, n, n) stack of the members U Y_j U^t of ``intertwiner_basis(T)``."""
    U, Y = intertwiner_basis(T)
    return U @ Y @ U.T


def test_intertwiner_basis_members_intertwine():
    # jordan(3) and a random CSO matrix: each member of the basis solves both
    # equations of J(T), and U is unitary
    for T in (jordan(3), random_cso(stream(11, 13), 3)[0]):
        U, _ = intertwiner_basis(T)
        assert operator_norm(U @ U.conj().T - np.eye(3)) <= 1e-14
        basis = intertwiners(T)
        assert basis.size
        gram = np.einsum("iab,jab->ij", basis.conj(), basis)
        assert operator_norm(gram - np.eye(len(basis))) <= 1e-12
        for B in basis:
            assert operator_norm(T @ B - B @ T.T) <= 1e-12
            assert operator_norm(T.conj().T @ B - B @ T.conj()) <= 1e-12


def kronecker_joint_space(T):
    """Reference basis of J(T) in column-major vec, from the stacked 2n^2 x n^2 Kronecker system.

    The null cut is intertwiner_basis's: DEFAULT_TOL ||T||_F, on T scaled by
    the same power of two.
    """
    A, _ = power_of_two_scaled(T)
    n, I = len(A), np.eye(len(A))
    L = np.vstack([np.kron(I, B) - np.kron(B, I) for B in (A, A.conj().T)])
    top = np.linalg.norm(L, 2)
    if top == 0:
        return np.eye(n * n, dtype=complex)
    return scipy.linalg.null_space(L, rcond=DEFAULT_TOL * np.linalg.norm(A) / top)


def rotated(rng, M):
    Q = random_unitary(rng, len(M))
    return Q @ M @ Q.conj().T


def reducible(kind, n, rng):
    """A rotated reducible CSO matrix of one of seven classes, of dimension about n."""
    sym = lambda m: random_cso(rng, m)[0]
    gauss = lambda m: random_complex(rng, m, m)
    h, t = n // 2, n // 3
    if kind == "S+S":
        S = sym(h)
        M = direct_sum(S, S)
    elif kind == "A+At":
        A = gauss(h)
        M = direct_sum(A, A.T)
    elif kind == "SxI2":
        M = np.kron(sym(h), np.eye(2))
    elif kind == "S+S+S2":
        S = sym(t)
        M = direct_sum(S, S, sym(n - 2 * t))
    elif kind == "A+At+B+Bt":
        A, B = gauss(n // 4), gauss(h - n // 4)
        M = direct_sum(A, A.T, B, B.T)
    elif kind == "A+At+S":
        A = gauss(t)
        M = direct_sum(A, A.T, sym(n - 2 * t))
    else:
        M = direct_sum(jordan(h), jordan(n - h))
    return rotated(rng, M)


def as_vectors(basis):
    """A (k, n, n) stack of J(T) as the n^2 x k matrix of its column-major vecs."""
    k, n, _ = basis.shape
    return basis.transpose(0, 2, 1).reshape(k, n * n).T


REDUCIBLE = ["S+S", "A+At", "SxI2", "S+S+S2", "A+At+B+Bt", "A+At+S", "J+J"]


def test_intertwiner_basis_matches_the_kronecker_null_space():
    # CSO, generic and reducible matrices up to n = 8: the reduced solve spans
    # the reference's space, column count and projector
    for dim in range(1, 9):
        rng = stream(23, dim)
        cases = [random_cso(rng, dim)[0], random_complex(rng, dim, dim)]
        cases += [reducible(kind, dim, rng) for kind in REDUCIBLE if dim >= 4]
        for T in cases:
            basis, ref = as_vectors(intertwiners(T)), kronecker_joint_space(T)
            assert basis.shape == ref.shape
            P, R = basis @ basis.conj().T, ref @ ref.conj().T
            assert P.size == 0 or np.abs(P - R).max() <= 1e-8


def reduced_system_shapes(T):
    """(members, shapes of the systems whose QR the reduced solve takes) for T."""
    shapes = []
    qr = np.linalg.qr

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return qr(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "qr", spy)
        basis = intertwiners(T)
    return basis, shapes


def test_intertwiner_basis_takes_the_null_space_off_simple_spectra():
    # one 2 n^2 x sum m_i^2 system over the clusters of Re(e^{i theta} T):
    # rotated J3 (+) J3 has three pairs, 2 I_3 (+) J2 a triple, diag(1, 1, 2)
    # a pair at every theta; jordan(3) has a simple one, whose n(n - 1) x n
    # system keeps the rows i < j; n <= 1 takes no system at all
    Q = random_unitary(stream(11, 7), 6)
    cases = [
        (jordan(3), (6, 3)),
        (Q @ direct_sum(jordan(3), jordan(3)) @ Q.conj().T, (72, 12)),
        (direct_sum(2 * np.eye(3), jordan(2)), (50, 11)),
        (np.diag([1.0, 1.0, 2.0]), (18, 5)),
    ]
    for T, shape in cases:
        basis, shapes = reduced_system_shapes(T)
        assert shapes == [shape]
        assert len(basis) == kronecker_joint_space(T).shape[1]
    for n in (0, 1):
        basis, shapes = reduced_system_shapes(np.full((n, n), 3.0))
        assert basis.shape == (n, n, n) and np.array_equal(basis, np.ones((n, n, n))) and shapes == []


def full_system_null_dimension(T):
    """dim J(T) from the full 2 n^2 x n system on Y = diag(y), at the cut DEFAULT_TOL ||T||_F.

    It takes U from ``intertwiner_basis`` and every row (a, b) of
    P diag(y) - diag(y) P^t for P = U* T' U and its adjoint, T' scaled and
    shifted by its trace as the solve takes it; the half system drops the
    rows a >= b.
    """
    A, _ = power_of_two_scaled(T)
    n = len(A)
    null_cut = DEFAULT_TOL * np.linalg.norm(A)
    U, _ = intertwiner_basis(T)
    Tp = U.conj().T @ (A - np.trace(A) / n * np.eye(n)) @ U
    a, b = np.divmod(np.arange(n * n), n)
    rows = []
    for P in (Tp, Tp.conj().T):
        block = np.zeros((n * n, n), dtype=complex)
        block[np.arange(n * n), b] += P[a, b]
        block[np.arange(n * n), a] -= P[b, a]
        rows.append(block)
    return int(np.count_nonzero(np.linalg.svd(np.vstack(rows), compute_uv=False) <= null_cut))


def test_the_half_system_keeps_the_null_space_of_the_full_one():
    # on simple spectra, at and near the null cut: random CSO and generic
    # matrices, jordan(3), the trace-shifted CSO of the shift test, and the
    # CSO of the near-CSO test plus 1e-10 of noise (J(T) kept) and 1e-8
    # (J(T) empty, as that test has it)
    rng = stream(11, 15)
    T6, _ = random_cso(stream(11, 10), 6)
    rng8 = stream(11, 12)
    C8, _ = random_cso(rng8, 8)
    E8 = random_complex(rng8, 8, 8)
    cases = [
        (random_cso(rng, 5)[0], 1),
        (random_complex(rng, 5, 5), 0),
        (jordan(3), 1),
        (1e8 * operator_norm(T6) * np.eye(6) + T6, 1),
        (C8 + 1e-10 * operator_norm(C8) / operator_norm(E8) * E8, 1),
        (C8 + 1e-8 * operator_norm(C8) / operator_norm(E8) * E8, 0),
    ]
    for T, dim in cases:
        _, shapes = reduced_system_shapes(T)
        n = len(T)
        assert shapes == [(n * (n - 1), n)]  # a simple spectrum: the half system
        assert len(intertwiner_basis(T)[1]) == full_system_null_dimension(T) == dim
        assert kronecker_joint_space(T).shape[1] == dim


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(n=st.integers(2, 16), seed=st.integers(0, 2**32 - 1))
def test_the_closed_form_polar_factor_is_the_svd_one(n, seed):
    # a rotated CSO matrix has a simple spectrum and J(T) = span{U diag(y) U^t}:
    # its candidate U diag(y / |y|) U^t verifies at DEFAULT_TOL and is the
    # polar factor the SVDs of the symmetric half and of the combination give
    # (asked of the same member in the standard basis), up to one unimodular factor
    T, _ = random_cso(stream(seed, 16), n)
    U, Y = intertwiner_basis(T)
    assert len(Y) == 1 and np.count_nonzero(Y[0]) == np.count_nonzero(np.diagonal(Y[0])) == n
    (W,) = unitary_in_subspace(U, Y)
    ok, residual = is_c_symmetric(T, Conjugation(W))
    assert ok and residual <= DEFAULT_TOL
    (P,) = unitary_in_subspace(np.eye(n), U @ Y @ U.T)
    c = np.vdot(P, W) / n
    assert abs(abs(c) - 1) <= 1e-12
    assert np.abs(W - c / abs(c) * P).max() <= 1e-12


def test_intertwiner_basis_cuts_the_null_space_relative_to_t():
    # next to s, the entries of T - (tr T / n) I and of the system are
    # rounding, which a cut relative to the system's own largest singular
    # value would read as nonzero, leaving no intertwiner
    Q = random_unitary(stream(11, 9), 3)
    for s in (1.0, 1e3, 1e8):
        T = Q @ (s * np.eye(3)) @ Q.conj().T
        basis = intertwiners(T)
        assert len(basis) >= 1
        G = basis[0]
        assert operator_norm(T @ G - G @ T.T) <= 1e-12 * s * operator_norm(G)
        # diag(s, s, s + 1) rotated: J is M_2 (+) C in the eigenbasis, dimension 5
        T = Q @ np.diag([s, s, s + 1.0]) @ Q.conj().T
        assert len(intertwiner_basis(T)[1]) == kronecker_joint_space(T).shape[1] == 5


def test_intertwiner_basis_shifts_out_the_trace():
    # J(T) = J(T - c I); unshifted, T = c I + N with c = 1e8 ||N|| would put
    # every eigenvalue of Re(T) within 1e-6 ||T|| of the next, one n^2 cluster
    T, _ = random_cso(stream(11, 10), 6)
    basis, shapes = reduced_system_shapes(1e8 * operator_norm(T) * np.eye(6) + T)
    assert shapes == [(30, 6)]
    assert len(basis) == 1


def test_intertwiner_basis_merges_a_gap_in_doubt():
    # a gap of 1e-7 ||T|| is below the cluster cut: the pair is one cluster,
    # which adds unknowns but no solution, so J(T) keeps its dimension 3
    Q = random_unitary(stream(11, 11), 3)
    T = Q @ np.diag([0.0, 1e-7, 1.0]) @ Q.conj().T
    basis, shapes = reduced_system_shapes(T)
    assert shapes == [(18, 5)]
    assert len(basis) == kronecker_joint_space(T).shape[1] == 3


def test_only_a_clustered_spectrum_takes_the_angle_stack(monkeypatch):
    # the eight Hermitian parts and their eigvalsh are built only when Re(T)
    # has a cluster: CI's rotated S (+) S, and a rotated J2 (+) J2 (+) J2 (+)
    # J2, whose Re(e^{i theta} T) has two fourfold eigenvalues at every
    # theta; a random CSO matrix has a simple Re(T), forms that part alone
    # and calls no eigvalsh
    shapes = recording_shapes(monkeypatch, "eigvalsh")
    stacked = []
    parts = certify._hermitian_parts

    def recording_parts(A, phases=certify._PHASES):
        stacked.append(len(phases))
        return parts(A, phases)

    monkeypatch.setattr(certify, "_hermitian_parts", recording_parts)
    rng = np.random.default_rng(2026)
    Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    Q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    s_plus_s = Q @ np.kron(np.eye(2), Z + Z.T) @ Q.conj().T
    assert len(intertwiner_basis(s_plus_s)[1]) == 4
    assert shapes["eigvalsh"] == [(8, 8, 8)]
    assert find_conjugation(s_plus_s).verdict == "c_symmetric"
    shapes["eigvalsh"].clear()
    J2 = jordan(2)
    assert len(intertwiner_basis(rotated(stream(11, 8), direct_sum(J2, J2, J2, J2)))[1]) == 16
    assert shapes["eigvalsh"] == [(8, 8, 8)]
    shapes["eigvalsh"].clear()
    stacked.clear()
    T, _ = random_cso(stream(11, 14), 8)
    assert len(intertwiner_basis(T)[1]) == 1
    assert find_conjugation(T).verdict == "c_symmetric"
    assert shapes["eigvalsh"] == [] and stacked == [1, 1]


def test_intertwiner_basis_refuses_a_system_past_the_cap_before_building_it():
    # 2 I_60 (+) J5 rotated: a 60-fold eigenvalue at every theta, so the system
    # would be 8450 x 3605, 30.5M entries (490 MB)
    Q = random_unitary(stream(11, 65), 65)
    T = Q @ direct_sum(2 * np.eye(60), jordan(5)) @ Q.conj().T
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="8450 x 3605 system .* exceeds the dimension cap"):
            intertwiner_basis(T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@settings(derandomize=True, database=None, deadline=None, max_examples=35)
@given(kind=st.sampled_from(REDUCIBLE), dim=st.integers(4, 32), seed=st.integers(0, 2**32 - 1))
def test_reducible_cso_matrices_are_certified(kind, dim, seed):
    # every Re(e^{i theta} T) is degenerate, so the phase G fails; J(T) has
    # dimension 2-9 and the polar factor of its symmetric half certifies
    T = reducible(kind, dim, stream(seed, dim))
    cert = find_conjugation(T)
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL
    cert.conjugation.validate()


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(["cso", *REDUCIBLE]),
    dim=st.integers(2, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_cso_matrices_are_certified_without_the_phase_test(kind, dim, seed):
    # random CSO matrices of dimension 2-64 and the reducible classes at
    # 4-32: the polar factor of the symmetric intertwiner alone certifies them
    def forbidden(*args, **kwargs):
        raise AssertionError("the phase test ran")

    rng = stream(seed, dim)
    T = random_cso(rng, dim)[0] if kind == "cso" else reducible(kind, max(dim // 2, 4), rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "hermitian_phase_conjugation", forbidden)
        cert = find_conjugation(T)
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL
    cert.conjugation.validate()


def test_near_cso_matrices_keep_their_verified_phase_conjugation():
    # a CSO matrix plus 1e-8 of noise, at tol 1e-6: its phase G verifies and
    # no word separates it, but J(T) is empty at the null cut DEFAULT_TOL
    # ||T||_F, so the search has no candidate and the phase G is the answer
    rng = stream(11, 12)
    T, _ = random_cso(rng, 8)
    E = random_complex(rng, 8, 8)
    T = T + 1e-8 * operator_norm(T) / operator_norm(E) * E
    assert intertwiner_basis(T)[1].shape == (0, 8, 8)
    cert = find_conjugation(T, tol=1e-6)
    assert cert.verdict == "c_symmetric" and cert.residual <= 1e-6
    assert np.array_equal(cert.conjugation.matrix, hermitian_phase_conjugation(T).matrix)


def test_a_nilpotent_just_past_order_two_is_certified_by_the_second_polar_candidate():
    # a rotated order-two nilpotent plus 2e-9 of noise: ||T^2|| / ||T||^2 =
    # 1.5e-9 sends it to the general routes, where the first polar candidate
    # (residual 1.2e-9) and the phase G (1.05e-9) miss tol but the second
    # candidate verifies (8.0e-10); without it the reply is "inconclusive"
    rng = stream(91, 9)
    N = random_nilpotent2(rng, 9)
    E = random_complex(rng, 9, 9)
    T = N + 2e-9 * operator_norm(N) / operator_norm(E) * E
    first, second = unitary_in_subspace(*intertwiner_basis(T))
    assert not is_c_symmetric(T, Conjugation(first))[0]
    assert not is_c_symmetric(T, hermitian_phase_conjugation(T))[0]
    cert = find_conjugation(T)
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL
    assert np.array_equal(cert.conjugation.matrix, second)


def without_kronecker(fn, *args):
    """fn(*args) with np.kron made to fail, so no Kronecker matrix is built."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a Kronecker matrix was built")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "kron", forbidden)
        return fn(*args)


def test_find_conjugation_at_64_builds_no_kronecker_matrix():
    T, _ = random_cso(stream(23, 64), 64)
    cert = without_kronecker(find_conjugation, T)
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL
    cert.conjugation.validate()


def test_find_conjugation_past_the_tensor_cap_reports_the_phase_conjugation():
    # the rotated 2 I_60 (+) J5 of the cap test: its system is past the cap,
    # and its phase G holds (K is scalar on the 60-fold eigenspace), so the
    # verified phase G is the answer
    Q = random_unitary(stream(11, 65), 65)
    T = Q @ direct_sum(2 * np.eye(60), jordan(5)) @ Q.conj().T
    cert = without_kronecker(find_conjugation, T)
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL
    cert.conjugation.validate()
    assert np.array_equal(cert.conjugation.matrix, hermitian_phase_conjugation(T).matrix)


def test_find_conjugation_past_the_tensor_cap_without_a_phase_conjugation_raises():
    # 2 I_60 (+) A (+) A^T is complex symmetric, but its doubled spectrum
    # defeats the phase test, and the 60-fold eigenvalue puts its 8712 x 3612
    # system past the cap, so the search cannot run and the CapacityError stands
    rng = np.random.default_rng(5)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    Q = random_unitary(stream(11, 66), 66)
    T = Q @ direct_sum(2 * np.eye(60), A, A.T) @ Q.conj().T
    with pytest.raises(CapacityError, match="dimension cap"):
        without_kronecker(find_conjugation, T)


def test_a_66_dimensional_a_plus_a_transpose_is_certified():
    # its Re(T) has 33 double eigenvalues: a 8712 x 132 system, far inside
    # the cap
    rng = np.random.default_rng(5)
    A = rng.standard_normal((33, 33)) + 1j * rng.standard_normal((33, 33))
    Q = random_unitary(stream(11, 66), 66)
    cert = find_conjugation(Q @ direct_sum(A, A.T) @ Q.conj().T)
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL


def test_huge_entries_raise_no_warning():
    # ||T|| = 1.2e308: Z + Z* and Z - Z* of the Hermitian parts are formed of T
    # scaled by a power of two, so they cannot overflow, and G does not
    # depend on the scale
    T = np.array([[1.2e308, 1e307], [0.0, -1.2e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = find_conjugation(T)
        G = hermitian_phase_conjugation(T)
        basis = intertwiners(T)
    assert cert.verdict == "c_symmetric" and cert.residual <= DEFAULT_TOL
    assert np.array_equal(G.matrix, hermitian_phase_conjugation(np.ldexp(T, -1000)).matrix)
    assert basis.shape == (1, 2, 2)


def test_find_conjugation_order2_fast_path():
    cert = find_conjugation(jordan(2))
    assert cert.verdict == "c_symmetric"
    assert cert.residual <= 1e-9
    cert.conjugation.validate()


def test_find_conjugation_symmetric_fast_path():
    S = np.array([[1.0, 2j], [2j, 0.5]])
    cert = find_conjugation(S)
    assert cert.verdict == "c_symmetric"
    assert np.allclose(cert.conjugation.matrix, np.eye(2))


def test_find_conjugation_certifies_jordan_3():
    cert = find_conjugation(jordan(3))
    assert cert.verdict == "c_symmetric"
    assert cert.residual <= 1e-9


def test_find_conjugation_certifies_random_cso():
    T, _ = random_cso(stream(11, 3), 4)
    cert = find_conjugation(T)
    assert cert.verdict == "c_symmetric"
    assert cert.residual <= 1e-9
    assert operator_norm(conjugate_by(cert.conjugation, T.conj().T) - T) <= 1e-8


def test_find_conjugation_obstructed_witness():
    cert = find_conjugation(witness_matrix(1.0, 2.0))
    assert cert.verdict == "obstructed"
    assert cert.obstruction_word == "xxy"
    assert cert.obstruction_gap == pytest.approx(2.0, abs=1e-12)


def test_tiny_witness_is_not_called_c_symmetric():
    # the residual is relative to ||T|| with no floor; a floor at machine eps
    # let every T below about 1e-25 pass any symmetric G
    B = witness_matrix(1.0, 2.0)
    for scale in (1e-50, 1e-100):
        assert not is_c_symmetric(scale * B, Conjugation.identity(3))[0]
        assert find_conjugation(scale * B).verdict == "obstructed"
    # the search finds xxy on T scaled to norm about 1, but its gap is 0 in
    # T's units at 1e-150, so the search refuses rather than misreport it
    with pytest.raises(PreconditionError, match="out of range"):
        find_conjugation(1e-150 * B)
    assert is_c_symmetric(np.zeros((3, 3)), Conjugation.identity(3)) == (True, 0.0)


def test_find_conjugation_obstructs_by_a_trace_word_when_masked():
    # balanced heavy chain hides the unbalanced one from every word norm of
    # length <= 5, but traces add over the direct sum: x^2yxy^2 clears its
    # bound, and the word search is not on the route
    big = np.zeros((3, 3), dtype=complex)
    big[0, 1] = 10.0
    big[1, 2] = 10.0
    T = direct_sum(big, witness_matrix(1.0, 2.0))
    assert word_obstruction_search(T) is None
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "word_obstruction_search", must_not_run("the word search"))
        cert = find_conjugation(T)
    assert cert.verdict == "obstructed" and cert.obstruction_word is None
    assert cert.trace == trace_obstruction_search(T)
    word, gap, bound = cert.trace
    assert word == "xxyxyy" and cert.residual == gap and gap > 9 * bound
    assert bound == 6 * 6 * (4e-9 + 1e-18)


def noisy_cso_whose_xxyx_gap_a_verified_g_allows():
    """The 236th draw of a seeded noisy-CSO stream (6 x 6, noise 7.4e-7 ||T||) and its C."""
    rng = np.random.default_rng(5)
    for _ in range(236):
        n = int(rng.integers(3, 9))
        T, C = random_cso(rng, n)
        E = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        eps = 10 ** rng.uniform(-8, -6)
    return T + eps * np.linalg.norm(T, 2) * E / np.linalg.norm(E, 2), C


def test_a_word_gap_that_a_verified_g_allows_is_no_obstruction():
    # the word search's cut, 1e-6 ||T||^4 for xxyx, lies below the
    # 4 (4t + t^2) ||T||^4 that a G verifying at 1e-6 leaves: the search
    # finds xxyx, yet C and the phase G both verify, and certify says so
    T, C = noisy_cso_whose_xxyx_gap_a_verified_g_allows()
    assert T.shape == (6, 6)
    word, gap = word_obstruction_search(T, tol=1e-6)
    assert word == "xxyx" and 1e-6 < gap / operator_norm(T) ** 4 < 4 * 4e-6
    assert is_c_symmetric(T, C, 1e-6)[0]
    cert = find_conjugation(T, 1e-6)
    assert cert.verdict == "c_symmetric" and cert.residual <= 1e-6
    assert is_c_symmetric(T, cert.conjugation, 1e-6) == (True, cert.residual)


def test_an_xxy_gap_between_12t_and_16t_is_obstructed_at_the_screen():
    # a rotated order-two nilpotent plus noise 5.5e-8 of its norm, past
    # order two at the default tol: its xxy gap, 14.3 t ||T||^3, exceeds the
    # 3 (4t + t^2) ||T||^3 that a verifying G leaves, so the screen claims it
    # before J(T), with the word search's own certificate, which the reply
    # was when the screen cut at 16 t and the search ran after J(T)
    rng = stream(74, 7)
    n = int(rng.integers(3, 13))
    T = random_nilpotent2(rng, n)
    E = random_complex(rng, n, n)
    T = T + 10.0 ** rng.uniform(-9, -7) * operator_norm(T) / operator_norm(E) * E
    assert not order_two(T)
    B, _ = power_of_two_scaled(T)
    ratio = word_norm_gap(B, "xxy") / operator_norm(B) ** 3 / DEFAULT_TOL
    assert 12 < ratio <= 16
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "intertwiner_basis", must_not_run("intertwiner_basis"))
        cert = find_conjugation(T)
    word, gap = word_obstruction_search(T)
    assert (cert.verdict, cert.obstruction_word, cert.obstruction_gap, cert.residual) == (
        "obstructed",
        word,
        gap,
        gap,
    )
    assert word == "xxy" and cert.conjugation is None and cert.trace is None


def test_a_rotated_skew_uet_matrix_past_the_trace_cap_is_inconclusive():
    # n = 66 > TRACE_DIM_CAP: the trace step is skipped, with no
    # CapacityError, the word search is not on the route, and no conjugation
    # verifies
    rng = stream(4, 84)
    A, B, D = (random_complex(rng, 33, 33) for _ in range(3))
    Q = random_unitary(rng, 66)
    T = Q @ np.block([[A, B - B.T], [D - D.T, A.T]]) @ Q.conj().T
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "trace_obstruction_search", must_not_run("the trace search"))
        mp.setattr(certify, "word_obstruction_search", must_not_run("the word search"))
        cert = find_conjugation(T)
    assert cert.verdict == "inconclusive" and np.isnan(cert.residual)


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


def must_not_run(what):
    def fail(*args, **kwargs):
        raise AssertionError(f"{what} ran")

    return fail


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(3, 64),
    log_scale=st.sampled_from([-100, 0, 100]),
    tol=st.sampled_from([1e-20, 1e-12, DEFAULT_TOL, 1e-4]),
)
def test_generic_matrix_is_obstructed_without_the_projection_search(seed, dim, log_scale, tol):
    # the Frobenius bound rules order two out and the xxy screen returns the
    # word search's certificate bit for bit, so neither the order-two SVD,
    # nor J(T) and its candidates, nor the phase test is taken
    T = 10.0**log_scale * random_complex(stream(seed, 0), dim, dim)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(certify, "intertwiner_basis", must_not_run("intertwiner_basis"))
        mp.setattr(certify, "nilpotent2_splitting", must_not_run("the order-two split"))
        mp.setattr(certify, "hermitian_phase_conjugation", must_not_run("the phase test"))
        cert = find_conjugation(T, tol)
    word, gap = word_obstruction_search(T, tol=tol)
    assert cert.verdict == "obstructed"
    assert (cert.obstruction_word, cert.obstruction_gap, cert.residual) == ("xxy", gap, gap)
    assert word == "xxy"


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(["nilpotent", "near_nilpotent", "cso", "generic", "jordan3"]),
    dim=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    log_noise=st.floats(-16.0, -1.0),
    tol=st.sampled_from([1e-20, 1e-12, DEFAULT_TOL, 1e-6, 0.1]),
)
def test_the_order_two_screen_skips_only_what_the_split_refuses(kind, dim, seed, log_noise, tol):
    rng = stream(seed, dim)
    if kind in ("nilpotent", "near_nilpotent"):
        T = random_nilpotent2(rng, dim)
    elif kind == "cso":
        T = random_cso(rng, dim)[0]
    elif kind == "jordan3":
        Q = random_unitary(rng, dim + 2)
        T = Q @ direct_sum(jordan(3), np.zeros((dim - 1, dim - 1))) @ Q.conj().T
    else:
        T = random_complex(rng, dim, dim)
    if kind == "near_nilpotent":
        E = random_complex(rng, dim, dim)
        T = T + 10.0**log_noise * max(operator_norm(T), 1.0) / operator_norm(E) * E
    B, _ = power_of_two_scaled(T)
    if certify._order_two_ruled_out(B, tol):
        assert not order_two(T, tol)


def test_the_order_two_screen_passes_order_two_inputs_to_the_split():
    for T in (np.zeros((3, 3)), jordan(2), random_nilpotent2(stream(5, 1), 9)):
        assert not certify._order_two_ruled_out(power_of_two_scaled(T)[0], DEFAULT_TOL)
    # a near-nilpotent T goes on to the split; J3 is ruled out
    near = jordan(2) + 1e-12 * np.eye(2)
    assert not certify._order_two_ruled_out(power_of_two_scaled(near)[0], DEFAULT_TOL)
    assert certify._order_two_ruled_out(power_of_two_scaled(jordan(3))[0], DEFAULT_TOL)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 24),
    log_noise=st.floats(-13.0, -3.0),
    perturb_g=st.booleans(),
)
def test_near_cso_matrices_with_a_verified_g_never_take_the_xxy_screen(
    seed, dim, log_noise, perturb_g
):
    # a CSO matrix plus noise, and its G (made slightly non-unitary and
    # non-symmetric at will), at the tol at which that G just verifies: the
    # screen must leave the decision to J(T)
    rng = stream(seed, dim)
    T, C = random_cso(rng, dim)
    E = random_complex(rng, dim, dim)
    T = T + 10.0**log_noise * operator_norm(T) / operator_norm(E) * E
    if perturb_g:
        C = Conjugation(C.matrix + 10.0**log_noise * random_complex(rng, dim, dim))
    _, residual = is_c_symmetric(T, C)
    tol = max(residual, C.unitarity_residual(), C.symmetry_residual())
    assert certify._verified_residual(T, C, tol, operator_norm(T))[0]
    B, e = power_of_two_scaled(T)
    gap = certify._screen_norms(B, tol, operator_norm(B))[1]
    assert certify._xxy_obstruction(gap, e, operator_norm(B), tol, dim) is None


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    kind=st.sampled_from(["cso", "generic", "near_nilpotent"]),
    n=st.integers(2, 16),
    log_scale=st.sampled_from([-150, 0, 150]),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_screen_batch_gives_the_word_search_xxy_gap_bit_for_bit(kind, n, log_scale, seed):
    # ||B - B^t|| and the xxy pair of B = T / 2^e share one SVD batch; each
    # value must be the one its own call gives, so that an xxy certificate
    # from the screen is the word search's bit for bit; at a tol whose cut
    # the Frobenius norm of B - B^t leaves open it is normed, and it is
    # +inf only where its norm is past the cut
    rng = stream(seed, n)
    if kind == "cso":
        T = random_cso(rng, n)[0]
    elif kind == "generic":
        T = random_complex(rng, n, n)
    else:
        N = random_nilpotent2(rng, n)
        E = random_complex(rng, n, n)
        T = N + 1e-10 * operator_norm(N) / operator_norm(E) * E
    T = 10.0**log_scale * T
    B, _ = power_of_two_scaled(T)
    nrm = operator_norm(B)
    skew, gap = certify._screen_norms(B, 1.0, nrm)
    assert skew == operator_norm(B - B.T)
    assert gap == word_norm_gaps(B, ["xxy"])[0]
    skew, gap = certify._screen_norms(B, DEFAULT_TOL, nrm)
    if skew == math.inf:
        assert operator_norm(B - B.T) > DEFAULT_TOL * nrm
    else:
        assert skew == operator_norm(B - B.T)
    assert gap == word_norm_gaps(B, ["xxy"])[0]


def test_the_screen_norms_skew_only_where_the_transpose_test_is_open():
    # B = S + d K with S symmetric and K skew, d across the cut: the screen
    # takes ||B - B^t|| by SVD only where its Frobenius norm leaves
    # ||B - B^t|| <= tol ||B|| open, and its +inf elsewhere gives the SVD's
    # decision; G = I is the certificate exactly where that decision passes
    rng = stream(11, 16)
    for n in (2, 3, 8, 16):
        S, K = random_complex(rng, n, n), random_complex(rng, n, n)
        S, K = S + S.T, (K - K.T) / operator_norm(K - K.T)
        for log_d in np.arange(-11.0, -7.0, 0.25):
            B, _ = power_of_two_scaled(S + 10.0**log_d * operator_norm(S) * K)
            nrm = operator_norm(B)
            skew = certify._screen_norms(B, DEFAULT_TOL, nrm)[0]
            passes = operator_norm(B - B.T) <= DEFAULT_TOL * nrm
            assert (skew <= DEFAULT_TOL * nrm) == passes
            assert skew == operator_norm(B - B.T) or skew == math.inf
            C = find_conjugation(B).conjugation
            assert (C is not None and np.array_equal(C.matrix, np.eye(n))) == passes


def test_the_c_differences_are_the_conjugate_by_differences_bit_for_bit():
    # conj(A*) is A^t bit for bit, so G A^t conj(G) is what conjugate_by
    # multiplies out of A*, on a stack and on each matrix alone
    rng = stream(11, 17)
    A = random_complex(rng, 5, 7, 7)
    G = np.array([random_cso(rng, 7)[1].matrix for _ in range(5)])
    stacked = certify._c_differences(A, G)
    for j in range(5):
        want = A[j] - conjugate_by(Conjugation(G[j]), A[j].conj().T)
        assert stacked[j].tobytes() == want.tobytes()
        assert certify._c_differences(A[j][None], G[j][None])[0].tobytes() == want.tobytes()


def rotated_cso_2026():
    """The rotated 6 x 6 Q (Z + Z^t) Q* of default_rng(2026)."""
    rng = np.random.default_rng(2026)
    Z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    return Q @ (Z + Z.T) @ Q.conj().T


def test_a_rounding_gap_is_no_obstruction_at_any_tol():
    # ||T^2|| = ||T*^2|| for every T: the xx gap of 2.1e-14 that tol 1e-20
    # once reported is rounding, below the floor GAP_FLOOR L n ||T||^L
    T = rotated_cso_2026()
    for tol in (1e-16, 1e-20, 1e-300):
        assert word_obstruction_search(T, tol=tol) is None
        assert find_conjugation(T, tol).verdict != "obstructed"
        assert trace_obstruction_search(T, tol=tol) is None
    for seed in range(20):
        S, _ = random_cso(stream(seed, 31), 2 + seed)
        assert word_obstruction_search(S, tol=1e-20) is None
        assert find_conjugation(S, 1e-16).verdict != "obstructed"
    # a gap above the floor still counts at a tol below it
    B = witness_matrix(1.0, 2.0)
    assert word_obstruction_search(B, tol=1e-20) == ("xxy", 2.0)
    assert find_conjugation(B, 1e-20).obstruction_word == "xxy"


def test_the_gap_floor_stays_below_the_default_tol():
    assert certify._gap_cut(DEFAULT_TOL, 5, 4096) == DEFAULT_TOL
    assert certify._gap_cut(1e-20, 3, 6) == 3 * 6 * certify.GAP_FLOOR


def test_degenerate_spectra_are_certified():
    # J3 (+) J3 in a rotated basis: every H = Re(e^{i theta} T) has only double
    # eigenvalues, the phase G fails, and the polar factor certifies it
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
        trace_obstruction_search(S, tol=tol)
    with pytest.raises(InputError):
        nilpotent2_splitting(S, tol=tol)


@pytest.mark.parametrize(
    "search, kwargs",
    [
        (word_obstruction_search, {"max_len": 0}),
        (word_obstruction_search, {"max_len": -2}),
        (word_obstruction_search, {"max_len": 2.5}),
        (word_obstruction_search, {"max_len": None}),
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


def per_word_gap(T, word):
    """The norm gap | ||w|| - ||rev w|| | of one word at (T, T*), each norm taken at
    the canonical member min(v, swap(rev v)) of its adjoint class, multiplied out
    and normed on its own."""
    H = T.conj().T

    def norm(v):
        return operator_norm(eval_word(min(v, swap_letters(v[::-1])), T, H))

    return abs(norm(word) - norm(word[::-1]))


def swapped_word_gap(T, word):
    """The norm gap | ||w(T,T*)|| - ||w(T*,T)|| | as the definition states it."""
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
)
def test_word_norm_gaps_stay_within_rounding_of_the_swapped_word_gaps(kind, seed, n):
    # one norm per adjoint class moves a gap only by the rounding of the two products
    T = search_matrix(kind, seed, n)
    words = list(iter_words(5))
    nrm = operator_norm(T)
    for w, gap in zip(words, word_norm_gaps(T, words).tolist()):
        assert abs(gap - swapped_word_gap(T, w)) <= 8 * np.finfo(float).eps * nrm ** len(w)


def record_norm_batches(monkeypatch):
    """The shapes of the stacks that certify's operator_norms is given, as a growing list."""
    shapes = []

    def recording(M):
        shapes.append(np.shape(M))
        return operator_norms(M)

    monkeypatch.setattr(certify, "operator_norms", recording)
    return shapes


def test_palindromes_have_gap_exactly_zero_and_take_no_norm(monkeypatch):
    T = search_matrix("generic", 2, 5)
    palindromes = [w for w in iter_words(5) if w == w[::-1]]
    norms = record_norm_batches(monkeypatch)
    assert word_norm_gaps(T, palindromes).tolist() == [0.0] * 20
    assert word_norm_gaps(T[None].repeat(3, axis=0), palindromes).tolist() == [[0.0] * 3] * 20
    assert norms == [(0, 5, 5), (0, 3, 5, 5)]


def test_the_62_words_take_one_batch_of_24_norms(monkeypatch):
    T = search_matrix("cso", 3, 4)
    norms = record_norm_batches(monkeypatch)
    word_norm_gaps(T, list(iter_words(5)))
    assert norms == [(24, 4, 4)]


def test_stacked_word_gaps_equal_their_one_matrix_gaps_byte_for_byte():
    words = list(iter_words(5))
    for kind in ("generic", "cso", "witness"):
        S = np.array([search_matrix(kind, seed, 5) for seed in range(4)])
        gaps = word_norm_gaps(S, words)
        for j, T in enumerate(S):
            assert gaps[:, j].tobytes() == word_norm_gaps(T, words).tobytes()
        # a word's gap does not depend on the other words in its call
        for i, w in enumerate(words):
            assert gaps[i].tobytes() == word_norm_gaps(S, [w])[0].tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(["generic", "cso", "witness"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    batch_words=st.sampled_from([1, 3, 1000]),
)
def test_word_search_equals_the_per_word_loop(kind, seed, n, batch_words):
    T = search_matrix(kind, seed, n)
    with pytest.MonkeyPatch.context() as mp:
        # small batches split the levels across several tables
        mp.setattr(certify, "BATCH_ENTRIES", batch_words * len(T) ** 2)
        got = word_obstruction_search(T, max_len=5)
    assert got == per_word_search(T, iter_words(5))
    if kind == "witness":
        assert got is not None


def aat_b3():
    """A (+) A^t (+) B(1, 2) with A the 3 x 3 complex Gaussian of default_rng(1): the
    complex symmetric A (+) A^t hides the witness's word gaps up to length 5."""
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return direct_sum(A, A.T, witness_matrix(1.0, 2.0))


def exact_trace_gaps(T):
    """D_w(T) = tr w - tr rev w of each trace word, exactly, as complex (exact for small ints)."""
    R, I = certify._gaussian_integers(T)
    letters = {"x": (R, I), "y": (R.T, -I.T)}
    gaps = []
    for w in certify.TRACE_WORDS:
        (a, b), (c, d) = certify._exact_trace(w, letters), certify._exact_trace(w[::-1], letters)
        gaps.append((a - c, b - d))
    return gaps


def test_the_trace_words_are_one_per_chiral_class_of_lengths_6_to_8():
    def rotations(w):
        return {w[i:] + w[:i] for i in range(len(w))}

    # every word up to length 5 is a rotation of its reversal, so its trace gap is 0
    assert all(w[::-1] in rotations(w) for w in iter_words(5))
    firsts = [
        w
        for length in (6, 7, 8)
        for w in words_of_length(length)
        if w[::-1] not in rotations(w) and w == min(rotations(w) | rotations(w[::-1]))
    ]
    assert certify.TRACE_WORDS == tuple(firsts)
    assert [len(w) for w in firsts] == [6, 7, 7] + [8] * 6 and firsts[0] == "xxyxyy"


def five_times_unitary(n, shift):
    """V with V V* = 25 I: [[3, 4i], [4i, 3]] on the pairs (shift + 2k, shift + 2k + 1), 5 elsewhere."""
    V = 5.0 * np.eye(n, dtype=complex)
    for i in range(shift, n - 1, 2):
        V[i : i + 2, i : i + 2] = [[3, 4j], [4j, 3]]
    return V


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_trace_gaps_are_exactly_zero_on_a_unitary_conjugate_of_a_symmetric_integer_matrix(n, seed):
    rng = stream(seed, 83)
    M = rng.integers(-3, 4, (n, n)) + 1j * rng.integers(-3, 4, (n, n))
    V = five_times_unitary(n, 0) @ five_times_unitary(n, 1)  # 25 times a unitary
    for S, symmetric in ((M + M.T, True), (M, False)):
        T = V @ S @ V.conj().T  # Gaussian integers, exact in doubles
        exact = exact_trace_gaps(T)
        floats = certify._float_trace_gaps(T, certify.TRACE_WORDS)
        frob = np.linalg.norm(T)
        for (re, im), got, w in zip(exact, floats, certify.TRACE_WORDS):
            if symmetric:
                assert re == im == 0
            # the float gap is the exact one to rounding: each product errs by n eps |T|^L entrywise
            assert abs(got - abs(complex(re, im))) <= 8 * len(w) * n * np.finfo(float).eps * frob ** len(w)
        if symmetric:
            assert trace_obstruction_search(T) is None


def test_an_unrotated_skew_uet_matrix_has_exactly_zero_trace_gaps():
    # T = [[A, B], [D, A^t]] with B, D skew: T = U T^t U* for U = [[0, I], [-I, 0]],
    # so every trace identity holds, though T is not complex symmetric
    rng = stream(3, 84)
    A, B, D = (random_complex(rng, 4, 4) for _ in range(3))
    T = np.block([[A, B - B.T], [D - D.T, A.T]])
    assert exact_trace_gaps(T) == [(0, 0)] * 9
    assert trace_obstruction_search(T) is None


def test_a_float_gap_alone_makes_no_trace_certificate(monkeypatch):
    # the float pass only picks the word: forced to claim a huge gap on a
    # matrix whose exact gaps are 0, the exact step still refuses
    V = five_times_unitary(4, 0) @ five_times_unitary(4, 1)
    T = V @ np.diag([1.0, 2.0, 3.0j, -1.0 + 1j]) @ V.conj().T
    monkeypatch.setattr(certify, "_float_trace_gaps", lambda B, words: np.full(len(words), 1e6))
    assert trace_obstruction_search(T) is None


def test_the_trace_search_proves_what_no_word_separates():
    T = aat_b3()
    assert word_obstruction_search(T) is None
    word, gap, bound = trace_obstruction_search(T)
    assert word == "xxyxyy" and gap > 1e4 * bound
    assert bound == 9 * 6 * (4e-9 + 1e-18)
    cert = find_conjugation(T)
    assert cert.verdict == "obstructed" and cert.trace == (word, gap, bound)


def test_the_trace_search_decides_at_any_scale_with_no_overflow():
    # the exact step reads each double as an integer over a power of two, so
    # 2^600 T, 2^-600 T and entries spread over 1e-300..1e300 with
    # subnormals decide as T does, in the same scale-free numbers
    T = aat_b3()
    hit = trace_obstruction_search(T)
    for scale in (2.0**600, 2.0**-600):
        assert trace_obstruction_search(scale * T) == hit
    wide = 1e300 * T
    wide[0, 8], wide[8, 0], wide[5, 6] = 1e-300, 5e-324, -4e-320j
    assert trace_obstruction_search(wide)[0] == "xxyxyy"
    D = np.diag([1e300, 1.0, 1e-300, 5e-324])
    R, I = certify._gaussian_integers(D)
    assert [R[k, k] for k in (0, 2, 3)] == [R[1, 1] * Fraction(d) for d in (1e300, 1e-300, 5e-324)]
    assert not I.any() and exact_trace_gaps(D) == [(0, 0)] * 9


def test_the_trace_search_tries_no_tol_above_one_in_32(monkeypatch):
    calls = []
    gaps = certify._float_trace_gaps
    monkeypatch.setattr(certify, "_float_trace_gaps", lambda B, words: calls.append(B) or gaps(B, words))
    T = aat_b3()
    for tol in (0.04, 1.0, 1e300):
        assert trace_obstruction_search(T, tol=tol) is None
    assert trace_obstruction_search(np.zeros((3, 3))) is None
    assert calls == []
    assert trace_obstruction_search(T, tol=1 / 32) is None and len(calls) == 1
