"""Modulus realization and the synthesis round trip."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from csokit.ensembles import random_nilpotent2, stream
from csokit.errors import PreconditionError
from csokit.linalg import operator_norm, singular_values
from csokit.synthesis import (
    _lower_toeplitz,
    _modulus_jacobian,
    canonical_nilpotent_parts,
    realize_modulus,
    synthesize_tto_for_nilpotent2,
)


def jordan(n):
    J = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        J[i + 1, i] = 1.0
    return J


def test_canonical_parts_shape():
    rng = stream(19, 0)
    N = random_nilpotent2(rng, 6, rank=2)
    B, extra, W0 = canonical_nilpotent_parts(N)
    assert B.shape == (2, 2) and extra == 2
    assert operator_norm(W0 @ W0.conj().T - np.eye(6)) <= 1e-9
    M = W0 @ N @ W0.conj().T
    # canonical shape [[0,0,0],[0,0,0],[B,0,0]] with B positive diagonal
    assert operator_norm(M[:4]) <= 1e-9 * operator_norm(N)
    assert np.allclose(M[4:, :2], B, atol=1e-9)
    assert np.all(np.diag(B).real > 0)


def test_realize_modulus_monomial_shortcut():
    m = realize_modulus([1.5, 1.5, 1.5], 3)
    assert m.converged and m.residual <= 1e-10
    assert m.u.zeros == (0j, 0j, 0j)
    assert np.allclose(m.phi.poly, [1.5])


def test_realize_modulus_rank_two_closed_form():
    m = realize_modulus([2.0, 1.0], 2)
    assert m.converged and m.residual <= 1e-10
    assert m.u.zeros == (0j, 0j)
    assert np.allclose(m.phi.poly, [np.sqrt(2.0), 1.0], atol=1e-12)
    assert np.allclose(np.sort(m.achieved_singular_values), [1.0, 2.0], atol=1e-10)


def test_realize_modulus_rank_three_search():
    m = realize_modulus([2.5, 1.3, 0.4], seed=1)
    assert m.converged
    got = np.sort(m.achieved_singular_values)[::-1]
    assert np.max(np.abs(got - [2.5, 1.3, 0.4])) <= 1e-6 * 2.5


def test_realize_modulus_wide_spread_reaches_machine_precision():
    # ranks 3-6 with largest/smallest target up to ~3000: the Newton fit
    # must reach the 1e-12 relative stopping threshold, not just converge
    rng = stream(19, 3)
    for case in range(24):
        rank = 3 + case % 4
        spread = 3000.0 ** rng.random() if case % 3 else 3000.0
        t = np.exp(rng.uniform(0.0, np.log(spread), rank))
        t[:2] = 1.0, spread  # pin both ends of the spread
        m = realize_modulus(t, seed=case)
        got = np.sort(m.achieved_singular_values)[::-1]
        assert m.converged
        assert np.max(np.abs(got - np.sort(t)[::-1])) <= 1e-12 * spread, (rank, spread)


def test_lower_toeplitz_equals_scipy_toeplitz():
    rng = stream(23, 9)
    for c in (
        np.zeros(0),
        np.array([2.5]),
        rng.standard_normal(4),
        rng.standard_normal(7) + 1j * rng.standard_normal(7),
    ):
        got, want = _lower_toeplitz(c), scipy.linalg.toeplitz(c, np.zeros_like(c))
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_modulus_jacobian_matches_central_differences(r):
    rng = stream(23, r)
    c = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    s, J = _modulus_jacobian(c)
    assert np.allclose(s, singular_values(_lower_toeplitz(c)), rtol=1e-14, atol=0)
    h = 1e-6
    fd = np.empty_like(J)
    for j in range(2 * r):
        dc = np.zeros(r, dtype=complex)
        dc[j % r] = h if j < r else 1j * h
        plus = singular_values(_lower_toeplitz(c + dc))
        minus = singular_values(_lower_toeplitz(c - dc))
        fd[:, j] = (plus - minus) / (2 * h)
    assert np.max(np.abs(J - fd)) <= 1e-6 * max(1.0, np.max(np.abs(J)))


def test_realize_modulus_wide_rank_three_target():
    # realizable, with c1/c0 = 14.17 and c2/c0 = 200.6 - 0.38i
    m = realize_modulus([3000.0, 1.098, 1.0])
    assert m.converged
    assert m.residual <= 1e-12 * 3000.0


@settings(derandomize=True, database=None, deadline=None, max_examples=48)
@given(
    rank=st.integers(3, 8),
    log_spread=st.floats(0.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_realize_modulus_converges_to_rounding_level(rank, log_spread, seed):
    spread = 10.0**log_spread
    t = np.exp(stream(seed, 6).uniform(0.0, np.log(spread), rank))
    t[:2] = 1.0, spread
    m = realize_modulus(t, seed=seed)
    assert m.converged
    assert m.residual <= 1e-12 * spread, (rank, spread)


def test_realize_modulus_is_deterministic():
    # the first start stalls on this target, so the seeded starts decide phi
    t = [872.765, 65.927, 22.63, 1.374, 1.086, 1.044, 1.0]
    a, b = realize_modulus(t, seed=5), realize_modulus(t, seed=5)
    assert np.array_equal(a.phi.poly, b.phi.poly)


def test_synthesize_exact_rank_one():
    N = np.array([[0.0, 0.0], [2.0, 0.0]])
    res = synthesize_tto_for_nilpotent2(N, seed=0)
    assert res.converged
    assert res.equivalence_residual <= 1e-10
    assert res.u_total.zeros == (0j, 0j)
    assert np.allclose(res.symbol_total.poly, [0.0, 2.0], atol=1e-10)
    # returned unitary conjugates the model operator onto N
    W = res.W
    assert operator_norm(W @ W.conj().T - np.eye(2)) <= 1e-9
    assert operator_norm(W @ res.tto - N @ W) <= 1e-9


def test_synthesize_zero_operator():
    res = synthesize_tto_for_nilpotent2(np.zeros((3, 3)), seed=0)
    assert res.converged
    assert res.equivalence_residual <= 1e-12
    assert operator_norm(res.tto) <= 1e-12
    assert res.tto.shape == (3, 3)


def test_synthesize_jordan_block_with_kernel_padding():
    N = np.zeros((3, 3), dtype=complex)
    N[2, 0] = 1.0
    res = synthesize_tto_for_nilpotent2(N, seed=0)
    assert res.converged
    assert res.equivalence_residual <= 1e-8
    assert res.u_total.degree == 3
    W = res.W
    assert operator_norm(W @ res.tto - N @ W) <= 1e-8


def test_synthesize_random_rank_three():
    rng = stream(19, 1)
    N = random_nilpotent2(rng, 7, rank=3)
    res = synthesize_tto_for_nilpotent2(N, seed=3)
    assert res.converged
    nrm = operator_norm(N)
    assert res.equivalence_residual <= 1e-6 * nrm
    W = res.W
    assert operator_norm(W @ W.conj().T - np.eye(7)) <= 1e-8
    assert operator_norm(W @ res.tto - N @ W) <= 2e-6 * nrm
    # the synthesized operator is genuinely an analytic model operator
    assert res.u_total.degree == 7
    assert res.symbol_total.is_polynomial


def test_synthesize_rejects_higher_order():
    with pytest.raises(PreconditionError):
        synthesize_tto_for_nilpotent2(jordan(3), seed=0)

