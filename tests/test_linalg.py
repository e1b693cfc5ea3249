"""Dense-kernel checks against numpy references and hand values."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from csokit.certify import is_c_symmetric
from csokit.ensembles import random_complex, random_unitary, stream
from csokit.errors import CapacityError, InputError
from csokit.linalg import (
    Conjugation,
    as_matrix,
    check_count,
    check_positive,
    column_phases,
    conjugate_by,
    direct_sum,
    operator_norm,
    power_of_two_scaled,
    singular_values,
    tensor,
    unitary_in_subspace,
)


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_positive("x", "tol"),  # a raw ValueError from float
        lambda: check_positive(None, "tol"),  # a raw TypeError from float
        lambda: check_positive([1e-9], "tol"),
        lambda: check_positive(10**400, "tol"),  # a raw OverflowError from float
        lambda: check_positive(0.0, "tol"),
        lambda: check_positive(float("inf"), "tol"),
        lambda: is_c_symmetric(np.eye(2), Conjugation.identity(2), float("nan")),  # was (False, 0.0)
        lambda: is_c_symmetric(np.eye(2), Conjugation.identity(2), "x"),
        lambda: Conjugation.identity(2.5),
        lambda: Conjugation.identity(-1),
    ],
)
def test_argument_checks_raise_input_error(call):
    with pytest.raises(InputError):
        call()


def test_check_seed_accepts_non_negative_integers_only():
    # a seed is a count from 0: check_count(seed, "seed", least=0)
    assert check_count(np.int64(7), "seed", least=0) == 7 and check_count(0, "seed", least=0) == 0
    for bad in (-1, 1.5, "3", None):
        with pytest.raises(InputError):
            check_count(bad, "seed", least=0)


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
    assert singular_values(np.zeros((0, 3))).shape == (0,)


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


def column_phases_reference(cols):
    """The scalar loop: one argmax, one pivot and one scalar abs per column."""
    phases = np.ones(cols.shape[1], dtype=complex)
    for i in range(cols.shape[1]):
        pivot = cols[int(np.argmax(np.abs(cols[:, i]))), i]
        if abs(pivot) > 0:
            phases[i] = np.conj(pivot) / abs(pivot)
    return phases


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    kind=st.sampled_from(["gauss", "unitary", "zero_column", "tied"]),
    scale=st.sampled_from([1e-300, 1e-150, 1.0, 1e150, 1e300]),
    seed=st.integers(0, 2**32 - 1),
)
def test_column_phases_matches_the_scalar_loop_bit_for_bit(rows, cols, kind, scale, seed):
    rng = stream(seed, 41)
    X = random_complex(rng, rows, cols)
    if kind == "unitary":
        X = random_unitary(rng, rows)[:, : min(rows, cols)]
    elif kind == "zero_column":
        X[:, rng.integers(cols)] = 0
    elif kind == "tied":  # a, -a, i a, conj(a), ... have one magnitude, bit for bit
        a = X[0, 0]
        X[:, 0] = np.resize([a, -a, 1j * a, np.conj(a)], rows)
    X = X * scale
    got = column_phases(X)
    assert got.tobytes() == column_phases_reference(X).tobytes()
    if kind == "tied":
        assert got[0] == np.conj(X[0, 0]) / abs(X[0, 0])


def test_column_phases_of_no_columns():
    for shape in ((0, 0), (5, 0)):
        phases = column_phases(np.zeros(shape, dtype=complex))
        assert phases.shape == (0,) and phases.dtype == complex


@pytest.mark.parametrize("scale", [1e-300, 0.75, 1.0, 1e300])
def test_power_of_two_scaled_takes_its_exponent_from_the_largest_part(scale):
    M = random_complex(stream(43, 1), 6, 4) * scale
    A, e = power_of_two_scaled(M)
    top = max(np.abs(M.real).max(), np.abs(M.imag).max())
    assert 2.0 ** (e - 1) <= top < 2.0**e
    assert np.array_equal(np.ldexp(A.real, e), M.real) and np.array_equal(np.ldexp(A.imag, e), M.imag)
    assert 0.5 <= operator_norm(A) < np.sqrt(2) * 6


def test_power_of_two_scaled_keeps_zero_and_empty_at_exponent_zero():
    for M in (np.zeros((3, 3)), np.zeros((0, 0)), np.zeros((4, 0))):
        A, e = power_of_two_scaled(M)
        assert e == 0 and A.shape == M.shape and not A.any()


def test_identity_conjugation_is_entrywise_conjugation():
    C = Conjugation.identity(3)
    v = np.array([1 + 2j, 0.0, -1j])
    assert np.array_equal(C.apply(v), v.conj())
    assert C.unitarity_residual() == 0.0
    assert Conjugation.identity(0).dim == 0
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


def orthonormal_stack(*Ms):
    """A (k, n, n) stack of an orthonormal basis of span{Ms}."""
    Q = np.linalg.qr(np.stack([M.ravel() for M in Ms], axis=1))[0]
    return Q.T.reshape(len(Ms), *Ms[0].shape)


def in_span(members, W):
    """Distance of W from the span of an orthonormal (k, n, n) stack."""
    V = members.reshape(len(members), -1)
    w = W.ravel()
    return np.linalg.norm(w - V.T @ (V.conj() @ w))


def test_unitary_in_subspace_yields_a_symmetric_unitary_in_the_span():
    # the polar factor of a fixed combination of I and the flip is itself a
    # combination of them: a symmetric unitary that lies in the span
    for n in (2, 3, 4):
        I = np.eye(n, dtype=complex)
        members = orthonormal_stack(I, I[::-1])
        W = next(unitary_in_subspace(members))
        assert operator_norm(W @ W.conj().T - np.eye(n)) <= 1e-12
        assert operator_norm(W - W.T) <= 1e-12
        assert in_span(members, W) <= 1e-12


def test_unitary_in_subspace_yields_nothing_from_a_skew_subspace():
    # span{i (E_12 - E_21)} has symmetric half 0
    n = 3
    skew = np.zeros((n, n), dtype=complex)
    skew[0, 1], skew[1, 0] = 1j, -1j
    assert list(unitary_in_subspace(skew[None] / np.sqrt(2))) == []
    assert list(unitary_in_subspace(np.zeros((0, n, n), dtype=complex))) == []


def test_unitary_in_subspace_yields_a_second_candidate_only_when_asked(monkeypatch):
    # the symmetric half of span{I, flip, skew} is 2-dimensional: one SVD for
    # its basis and one per candidate, the second only on a second request;
    # a 1-dimensional half yields one candidate
    n = 4
    skew = np.zeros((n, n), dtype=complex)
    skew[0, 1], skew[1, 0] = 1.0, -1.0
    I = np.eye(n, dtype=complex)
    members = orthonormal_stack(I, I[::-1], skew)
    svd = np.linalg.svd
    calls = []
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
    search = unitary_in_subspace(members)
    first = next(search)
    assert len(calls) == 2
    second = next(search)
    assert len(calls) == 3
    assert next(search, None) is None
    for W in (first, second):
        assert operator_norm(W @ W.conj().T - np.eye(n)) <= 1e-12 and in_span(members, W) <= 1e-12
    assert len(list(unitary_in_subspace(I[None] / np.sqrt(n)))) == 1
