"""Model spaces, truncated Toeplitz matrices, and the Hankel route.

Monomial oracles (u = z^n makes everything exact):
  * tto(z^2, z) = [[0,0],[1,0]] in the monomial basis.
  * model conjugation of z^n is the antidiagonal flip.
  * for u = z^2, phi = z the boundary symbol conj(u) phi has the single
    Fourier mode -1, so the Hankel section is 1 at (0,0) and 0 elsewhere.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from csokit import modelspace

from csokit.certify import is_c_symmetric
from csokit.ensembles import random_blaschke, random_poly_symbol, stream
from csokit.errors import AccuracyError, CapacityError, EvaluationError, InputError
from csokit.linalg import operator_norm
from csokit.modelspace import (
    BlaschkeProduct,
    QUAD_CAP,
    ModelSpace,
    Symbol,
    blaschke_symbol,
    block_structure_check,
    compressed_shift,
    fn_calculus_check,
    model_conjugation,
    modelspace_decompose,
    tto_matrix,
    verify_hankel_factorization,
    _fine_space,
    _hankel_route_residual,
    _hankel_section,
)


def test_blaschke_eval_and_degree():
    u = BlaschkeProduct((0.5, 0.0))
    assert u.degree == 2
    # factor for zero a is (a - z)/(1 - conj(a) z), except a = 0 gives z
    z = 0.3 + 0.1j
    want = ((0.5 - z) / (1 - 0.5 * z)) * z
    assert u.eval(z) == pytest.approx(want, abs=1e-14)
    assert abs(u.eval(np.exp(0.7j))) == pytest.approx(1.0, abs=1e-14)


def test_blaschke_zero_bound_and_pole_guard():
    with pytest.raises(InputError):
        BlaschkeProduct((1.0,))
    u = BlaschkeProduct((0.5,))
    with pytest.raises(EvaluationError):
        u.eval(2.0)  # pole of the factor at 1/conj(a)


def test_blaschke_product_concatenates():
    u = BlaschkeProduct((0.5,)) * BlaschkeProduct((0.0, -0.2j))
    assert u.zeros == (0.5, 0.0, -0.2j)


def test_symbol_polynomial_and_rational():
    phi = Symbol(poly=[1.0, 2.0])
    assert phi.is_polynomial and phi.degree == 1
    assert phi.eval(0.5j) == pytest.approx(1.0 + 1.0j)
    psi = Symbol(num=[1.0], den=[1.0, -0.5])
    assert not psi.is_polynomial
    assert psi.eval(0.0) == pytest.approx(1.0)
    with pytest.raises(InputError):
        Symbol(num=[1.0], den=[1.0, -1.0])  # pole on the boundary


def test_symbol_product_and_shift():
    phi = Symbol.shift() * Symbol(poly=[3.0])
    assert np.allclose(phi.poly, [0.0, 3.0])
    assert Symbol.constant(2.0).eval(0.9) == 2.0
    assert Symbol.zero().degree == 0


def test_blaschke_symbol_agrees_with_eval():
    u = BlaschkeProduct((0.4, 0.0, -0.3j))
    phi = blaschke_symbol(u)
    for z in (0.2, -0.5j, 0.6 + 0.2j, np.exp(1.3j)):
        assert phi.eval(z) == pytest.approx(u.eval(z), abs=1e-12)


def test_modelspace_dim_and_gram():
    ms = ModelSpace(BlaschkeProduct((0.5, -0.3, 0.2j)), 256)
    assert ms.dim == 3
    assert ms.gram_residual <= 1e-10
    ms.require_resolved()


def test_modelspace_raises_when_unresolved():
    zeros = (0.97, -0.97, 0.97j, -0.97j, 0.95, -0.95, 0.95j, -0.95j)
    with pytest.raises(AccuracyError):
        ModelSpace(BlaschkeProduct(zeros), 64).require_resolved()
    with pytest.raises(InputError):
        ModelSpace(BlaschkeProduct((0.5,)), 32)  # node floor is 64


def test_tto_matrix_monomial_oracle():
    A = tto_matrix(BlaschkeProduct((0.0, 0.0)), Symbol.shift())
    assert np.allclose(A, [[0.0, 0.0], [1.0, 0.0]], atol=1e-12)
    B = tto_matrix(BlaschkeProduct((0.0,) * 3), Symbol(poly=[0.0, 0.0, 1.0]))
    want = np.zeros((3, 3))
    want[2, 0] = 1.0
    assert np.allclose(B, want, atol=1e-12)


def test_tto_matrix_is_exact_for_any_symbol_degree():
    # z^12 maps K_{z^4} into z^4 H^2, so its compression is exactly zero, at
    # any quad_points and without sampling the circle
    ms = ModelSpace(BlaschkeProduct((0.0,) * 4), 64)
    A = ms.tto(Symbol(poly=[0.0] * 12 + [1.0]))
    assert np.array_equal(A, np.zeros((4, 4)))
    assert "basis_samples" not in vars(ms)
    assert np.array_equal(
        tto_matrix(BlaschkeProduct((0.0,) * 4), Symbol(poly=[0.0] * 12 + [1.0]), 64), A
    )


def test_compressed_shift_is_the_z_operator():
    u = BlaschkeProduct((0.3, -0.5j))
    assert np.allclose(compressed_shift(u), tto_matrix(u, Symbol.shift()), atol=1e-13)


SEEDS = st.integers(0, 2**32 - 1)


def seeded_zeros(seed, degree, radius, at_origin=0.2):
    """Seeded zeros with moduli below radius, a share of them at 0."""
    rng = np.random.default_rng(seed)
    r = radius * np.sqrt(rng.random(degree))
    r[rng.random(degree) < at_origin] = 0.0
    return r * np.exp(2j * np.pi * rng.random(degree))


def max_entry(M):
    return float(np.max(np.abs(M), initial=0.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(seed=SEEDS, degree=st.integers(0, 32))
def test_compressed_shift_closed_form_matches_quadrature(seed, degree):
    u = BlaschkeProduct(seeded_zeros(seed, degree, 0.9))
    A = compressed_shift(u)
    assert np.array_equal(A, np.tril(A))
    assert np.array_equal(np.diag(A), np.asarray(u.zeros, dtype=complex).reshape(-1))
    assert operator_norm(A) <= 1.0 + 1e-12
    ms = ModelSpace(u, 4096)
    assert max_entry(A - ms.compress(ms.nodes)) <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=8)
@given(seed=SEEDS, degree=st.integers(1, 4))
def test_compressed_shift_with_zeros_near_the_circle(seed, degree):
    rng = np.random.default_rng(seed)
    zeros = 0.999 * np.exp(2j * np.pi * rng.random(degree))
    zeros[rng.random(degree) < 0.2] = 0.0
    u = BlaschkeProduct(zeros)
    A = tto_matrix(u, Symbol.shift())  # default quad_points, far too few to resolve u
    assert operator_norm(A) <= 1.0 + 1e-12
    ms = ModelSpace(u, 2**17)
    assert max_entry(A - ms.compress(ms.nodes)) <= 1e-12


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(seed=SEEDS, degree=st.integers(1, 16), pole_modulus=st.floats(1.2, 3.0))
def test_rational_symbol_tto_matches_quadrature(seed, degree, pole_modulus):
    rng = np.random.default_rng(seed)
    pole = pole_modulus * np.exp(2j * np.pi * rng.random())
    phi = Symbol(num=rng.standard_normal(3) + 1j * rng.standard_normal(3), den=[1.0, -1.0 / pole])
    u = BlaschkeProduct(seeded_zeros(seed, degree, 0.8))
    A = tto_matrix(u, phi)
    ms = ModelSpace(u, 4096)
    assert max_entry(A - ms.compress(phi.eval(ms.nodes))) <= 1e-12 * max(1.0, operator_norm(A))


def test_tto_is_c_symmetric_under_model_conjugation():
    rng = stream(17, 0)
    u = random_blaschke(rng, 5, max_modulus=0.8)
    phi = random_poly_symbol(rng, 4)
    C = model_conjugation(u)
    C.validate()
    ok, res = is_c_symmetric(tto_matrix(u, phi), C, tol=1e-8)
    assert ok and res <= 1e-8


def test_model_conjugation_of_monomial_is_flip():
    C = model_conjugation(BlaschkeProduct((0.0,) * 3))
    assert np.allclose(C.matrix, np.eye(3)[::-1], atol=1e-12)


def test_fn_calculus_matches_polynomial_in_shift():
    rng = stream(17, 1)
    u = random_blaschke(rng, 4, max_modulus=0.7)
    phi = random_poly_symbol(rng, 3)
    assert fn_calculus_check(u, phi) <= 1e-8
    with pytest.raises(InputError):
        fn_calculus_check(u, Symbol(num=[1.0], den=[1.0, -0.5]))


def test_quadrature_size_is_capped_before_any_sample():
    # 1e11 nodes used to reach numpy's allocator and fail with a raw memory error
    u = BlaschkeProduct((0.5,))
    assert QUAD_CAP >= 2**17
    for quad in (QUAD_CAP + 1, 10**11):
        with pytest.raises(CapacityError, match="exceed the cap"):
            ModelSpace(u, quad)
    with pytest.raises(InputError):
        ModelSpace(u, 63)


def test_hankel_truncation_monomial_oracle():
    H = _hankel_section(_fine_space(ModelSpace(BlaschkeProduct((0.0, 0.0))), 64), Symbol.shift(), 64)
    want = np.zeros((64, 64))
    want[0, 0] = 1.0
    assert np.allclose(H, want, atol=1e-12)
    with pytest.raises(InputError):
        _hankel_section(_fine_space(ModelSpace(BlaschkeProduct((0.0,))), 32), Symbol.shift(), 32)


@pytest.mark.parametrize("M", [64, 100, 300])
def test_hankel_section_equals_scipy_hankel(M):
    rng = stream(17, 9)
    u = random_blaschke(rng, 5, max_modulus=0.9)
    phi = random_poly_symbol(rng, 3)
    fine = _fine_space(ModelSpace(u, 256), M)
    coeffs = np.fft.fft(np.conj(fine.u_samples) * phi.eval(fine.nodes)) / fine.quad_points
    v = coeffs[-1 : -2 * M : -1]
    H = _hankel_section(fine, phi, M)
    assert H.flags.writeable
    assert np.array_equal(H, scipy.linalg.hankel(v[:M], v[M - 1 :]))


def test_hankel_route_reproduces_tto():
    rng = stream(17, 2)
    u = random_blaschke(rng, 6, max_modulus=0.8)
    phi = random_poly_symbol(rng, 4)
    assert verify_hankel_factorization(u, phi, 256) <= 1e-6


def test_hankel_residual_collapses_when_truncation_doubles():
    # moduli 0.9 keep the M = 64 tail above the noise floor, so the decay
    # of the truncation error is observable between M = 64 and M = 128
    u = BlaschkeProduct((0.9, -0.9, 0.9j))
    phi = Symbol(poly=[1.0, 0.5])
    direct = tto_matrix(u, phi)
    ms = ModelSpace(u, 1024)
    r64 = _hankel_route_residual(ms, phi, 64, direct)
    r128 = _hankel_route_residual(ms, phi, 128, direct)
    assert r64 > 1e-8
    assert r128 <= 1e-3 * r64


def polyval_hankel_route(u, phi, M, quad_points):
    """The Hankel route's model-space matrix, with the image evaluated by polyval."""
    ms = ModelSpace(u, quad_points)
    fine = ModelSpace(u, max(4 * M, quad_points, 1024))
    taylor = (np.fft.fft(fine.basis_samples) / fine.quad_points)[:, :M]
    negative = taylor @ _hankel_section(_fine_space(ModelSpace(u, quad_points), M), phi, M).T
    w = np.conj(ms.nodes)
    return ms.project(ms.u_samples * w * npoly.polyval(w, negative.T))


@settings(derandomize=True, database=None, deadline=None, max_examples=16)
@given(
    seed=st.integers(0, 2**32 - 1),
    degree=st.integers(1, 8),
    case=st.sampled_from(
        [(64, 1024, 0.9), (256, 256, 0.9), (512, 256, 0.9), (1024, 128, 0.85), (300, 128, 0.85)]
    ),
)
def test_hankel_fft_route_matches_the_polyval_oracle(seed, degree, case):
    # (M, Q): fewer modes than nodes, as many, and more (folded modulo Q).
    # At Q = 128, zeros up to 0.85 keep the basis resolved while the modes
    # beyond Q (about 0.85^128 ~ 1e-9) are far above the tolerance.
    M, Q, max_modulus = case
    rng = stream(seed, 5)
    u = random_blaschke(rng, degree, max_modulus=max_modulus)
    phi = random_poly_symbol(rng, int(rng.integers(0, 5)))
    oracle = polyval_hankel_route(u, phi, M, Q)
    # the residual against the oracle is the distance between the two routes
    assert _hankel_route_residual(ModelSpace(u, Q), phi, M, oracle) <= 1e-13 * operator_norm(oracle)


def test_hankel_check_retries_at_doubled_truncation():
    u = BlaschkeProduct((0.9, -0.9, 0.9j))
    phi = Symbol(poly=[1.0, 0.5])
    direct = tto_matrix(u, phi)
    r64 = _hankel_route_residual(ModelSpace(u, 1024), phi, 64, direct)
    # above the cap at M = 64, lower at M = 128: the M = 64 residual stands
    assert verify_hankel_factorization(u, phi, 64, residual_cap=1e-9) == r64
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modelspace, "_hankel_route_residual", lambda ms, phi, M, direct: 1e-3)
        with pytest.raises(AccuracyError):
            verify_hankel_factorization(u, phi, 64)


def test_modelspace_decompose_blocks_and_unitarity():
    u = BlaschkeProduct((0.3, -0.2))
    v = BlaschkeProduct((0.1j,))
    Q, blocks = modelspace_decompose(u, v, u)
    assert blocks == [("K_u", 2), ("u*K_v", 1), ("u*v*K_w", 2)]
    assert Q.shape == (5, 5)
    assert operator_norm(Q.conj().T @ Q - np.eye(5)) <= 1e-8


def test_block_structure_of_inner_times_analytic():
    rng = stream(17, 3)
    u = random_blaschke(rng, 3, max_modulus=0.6)
    v = random_blaschke(rng, 2, max_modulus=0.6)
    phi = random_poly_symbol(rng, 2)
    assert block_structure_check(u, v, phi) <= 1e-7


def test_hankel_check_builds_each_grid_once(monkeypatch):
    # the node space serves the direct matrix, both truncations and, when its
    # grid is fine enough, the Taylor and Hankel FFTs
    built = []

    class CountingSpace(ModelSpace):
        def __init__(self, u, quad_points=1024):
            built.append(quad_points)
            super().__init__(u, quad_points)

    monkeypatch.setattr(modelspace, "ModelSpace", CountingSpace)
    u = BlaschkeProduct((0.9, -0.9, 0.9j))
    phi = Symbol(poly=[1.0, 0.5])
    verify_hankel_factorization(u, phi, 64, residual_cap=1e-9)  # retries at M = 128
    assert built == [1024]
    built.clear()
    verify_hankel_factorization(u, phi, 512)
    assert built == [1024, 2048]
