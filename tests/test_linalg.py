"""Dense-kernel checks against numpy references and hand values."""

import numpy as np
import pytest
import scipy.linalg

from csokit.ensembles import random_complex, random_unitary, stream
from csokit.errors import CapacityError, InputError
from csokit.linalg import (
    Conjugation,
    as_matrix,
    check_seed,
    conjugate_by,
    direct_sum,
    null_space,
    operator_norm,
    polar_decompose,
    singular_values,
    tensor,
    unitary_in_subspace,
)


def test_check_seed_accepts_non_negative_integers_only():
    assert check_seed(np.int64(7)) == 7 and check_seed(0) == 0
    for bad in (-1, 1.5, "3", None):
        with pytest.raises(InputError):
            check_seed(bad)


def test_operator_norm_matches_spectral_norm():
    rng = stream(1, 0)
    for n in (1, 3, 7):
        A = random_complex(rng, n, n)
        assert operator_norm(A) == pytest.approx(np.linalg.norm(A, 2), rel=1e-12)
    assert operator_norm(np.zeros((0, 0))) == 0.0


def test_singular_values_descending():
    s = singular_values(random_complex(stream(1, 1), 5, 3))
    assert s.shape == (3,)
    assert np.all(np.diff(s) <= 0)


def test_as_matrix_validation():
    with pytest.raises(InputError):
        as_matrix(np.zeros((2, 3)), square=True)
    with pytest.raises(InputError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(InputError):
        as_matrix(np.array([[np.inf, 0], [0, 0]]))


def test_tensor_matches_kron_and_caps_dimension():
    rng = stream(1, 2)
    A, B = random_complex(rng, 2, 3), random_complex(rng, 3, 2)
    assert np.array_equal(tensor(A, B), np.kron(A, B))
    with pytest.raises(CapacityError):
        tensor(np.zeros((70, 70)), np.zeros((70, 70)))  # 4900 > 4096


def test_direct_sum_places_blocks():
    S = direct_sum(np.array([[1.0]]), np.diag([2.0, 3.0]))
    assert S.shape == (3, 3)
    assert np.array_equal(np.diag(S), [1.0, 2.0, 3.0])
    assert np.count_nonzero(S) == 3
    assert direct_sum().shape == (0, 0)


def test_direct_sum_equals_scipy_block_diag():
    rng = stream(1, 9)
    cases = [
        (2.5, 1j, -3),
        (np.array([[4.0]]), np.zeros((0, 0)), np.arange(6.0).reshape(2, 3)),
        (random_complex(rng, 3, 1), np.eye(2, dtype=int), random_complex(rng, 1, 4)),
        (np.zeros((0, 0)),),
        (np.zeros((0, 3)), random_complex(rng, 2, 2), np.zeros((2, 0))),
        ([[1.0, 2.0], [3.0, 4.0]], [[1j]], np.float32(0.5)),
    ]
    for blocks in cases:
        got = direct_sum(*blocks)
        want = scipy.linalg.block_diag(*blocks).astype(complex)
        assert got.dtype == complex and got.shape == want.shape
        assert np.array_equal(got, want)


def rank_deficient(rng, m, n, r):
    return random_complex(rng, m, r) @ random_complex(rng, r, n)


@pytest.mark.parametrize(
    "A",
    [
        rank_deficient(stream(1, 10), 6, 6, 3),
        rank_deficient(stream(1, 11), 9, 9, 1),
        np.zeros((4, 4)),
        np.zeros((3, 5)),
        np.zeros((0, 0)),
        np.zeros((0, 3)),
        np.zeros((3, 0)),
        np.array([[0.0]]),
        np.array([[2.0 - 1j]]),
        random_complex(stream(1, 12), 3, 7),
        rank_deficient(stream(1, 13), 4, 8, 2),
        random_complex(stream(1, 14), 7, 3),
        rank_deficient(stream(1, 15), 8, 4, 2),
        np.kron(np.eye(3), np.diag([1.0, 1.0, 2.0])) - np.kron(np.diag([1.0, 1.0, 2.0]), np.eye(3)),
    ],
)
def test_null_space_matches_scipy_null_space(A):
    got, want = null_space(A), scipy.linalg.null_space(A)
    assert got.shape == want.shape
    P, R = got @ got.conj().T, want @ want.conj().T
    assert P.size == 0 or np.abs(P - R).max() <= 1e-12
    assert operator_norm(A @ got) <= 1e-12 * max(1.0, operator_norm(A))


def test_polar_decompose_properties():
    A = random_complex(stream(1, 3), 4, 4)
    V, P = polar_decompose(A)
    assert operator_norm(V @ V.conj().T - np.eye(4)) <= 1e-12
    assert operator_norm(P - P.conj().T) <= 1e-12
    assert np.min(np.linalg.eigvalsh(P)) >= -1e-12
    assert operator_norm(V @ P - A) <= 1e-12 * operator_norm(A)


def test_identity_conjugation_is_entrywise_conjugation():
    C = Conjugation.identity(3)
    v = np.array([1 + 2j, 0.0, -1j])
    assert np.array_equal(C.apply(v), v.conj())
    assert C.unitarity_residual() == 0.0
    assert C.symmetry_residual() == 0.0
    C.validate()


def test_conjugation_is_conjugate_linear_isometric_involution():
    rng = stream(1, 4)
    Q = random_unitary(rng, 4)
    C = Conjugation(Q @ Q.T)
    C.validate()
    v, w = random_complex(rng, 4), random_complex(rng, 4)
    lam = 2.0 - 1.5j
    assert np.allclose(C.apply(lam * v + w), np.conj(lam) * C.apply(v) + C.apply(w))
    assert np.allclose(C.apply(C.apply(v)), v, atol=1e-12)
    assert np.linalg.norm(C.apply(v)) == pytest.approx(np.linalg.norm(v), rel=1e-12)


def test_conjugation_validate_rejects_antisymmetric_unitary():
    G = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    with pytest.raises(InputError):
        Conjugation(G).validate()


def test_conjugate_by_definition():
    rng = stream(1, 5)
    Q = random_unitary(rng, 3)
    G = Q @ Q.T
    M = random_complex(rng, 3, 3)
    assert np.allclose(conjugate_by(Conjugation(G), M), G @ M.conj() @ G.conj())
    with pytest.raises(InputError):
        conjugate_by(Conjugation(G), np.eye(4))


def test_unitary_in_subspace_finds_member():
    # span{I, flip} contains unitaries; every yielded candidate must be
    # unitary and the best one must lie in the subspace as well
    n = 4
    vecs = np.stack(
        [
            np.eye(n, dtype=complex).reshape(-1, order="F"),
            np.eye(n, dtype=complex)[::-1].reshape(-1, order="F"),
        ],
        axis=1,
    )
    basis = np.linalg.qr(vecs)[0]
    best = np.inf
    for W in unitary_in_subspace(basis, n, iters=200, rng=stream(1, 6)):
        assert operator_norm(W @ W.conj().T - np.eye(n)) <= 1e-9
        v = W.reshape(-1, order="F")
        off = np.linalg.norm(v - basis @ (basis.conj().T @ v))
        best = min(best, off)
    assert best <= 1e-9


def test_unitary_in_subspace_draws_a_start_only_when_it_reaches_it():
    # a caller that takes only the initial candidate leaves the rng untouched
    n = 3
    basis = np.eye(n, dtype=complex).reshape(-1, 1, order="F") / np.sqrt(n)
    rng = stream(1, 8)
    before = rng.bit_generator.state
    search = unitary_in_subspace(basis, n, initial=(np.eye(n, dtype=complex),), rng=rng)
    W = next(search)
    assert operator_norm(W - np.eye(n)) <= 1e-12
    assert rng.bit_generator.state == before
    next(search)
    assert rng.bit_generator.state != before


def test_unitary_in_subspace_symmetric_mode():
    n = 3
    vecs = np.stack(
        [
            np.eye(n, dtype=complex).reshape(-1, order="F"),
            np.eye(n, dtype=complex)[::-1].reshape(-1, order="F"),
        ],
        axis=1,
    )
    basis = np.linalg.qr(vecs)[0]
    got = list(
        unitary_in_subspace(basis, n, iters=300, rng=stream(1, 7))
    )
    assert got
    sym = min(operator_norm(W - W.T) for W in got)
    assert sym <= 1e-9
