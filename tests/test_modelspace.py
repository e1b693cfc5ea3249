"""Model spaces, truncated Toeplitz matrices, and the Hankel route.

Monomial oracles (u = z^n makes everything exact):
  * tto(z^2, z) = [[0,0],[1,0]] in the monomial basis.
  * model conjugation of z^n is the antidiagonal flip.
  * for u = z^2, phi = z the boundary symbol conj(u) phi has the single
    Fourier mode -1, so the Hankel section is 1 at (0,0) and 0 elsewhere.
"""

import numpy as np
import pytest

from csokit.certify import is_c_symmetric
from csokit.ensembles import random_blaschke, random_poly_symbol, stream
from csokit.errors import AccuracyError, EvaluationError, InputError
from csokit.linalg import operator_norm
from csokit.modelspace import (
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
    _hankel_route_residual,
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


def test_tto_matrix_quad_floor():
    with pytest.raises(InputError):
        tto_matrix(BlaschkeProduct((0.0,) * 4), Symbol(poly=[0.0] * 12 + [1.0]), 64)


def test_compressed_shift_is_the_z_operator():
    u = BlaschkeProduct((0.3, -0.5j))
    assert np.allclose(compressed_shift(u), tto_matrix(u, Symbol.shift()), atol=1e-13)


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


def test_hankel_truncation_monomial_oracle():
    H = hankel_truncation(BlaschkeProduct((0.0, 0.0)), Symbol.shift(), 64)
    want = np.zeros((64, 64))
    want[0, 0] = 1.0
    assert np.allclose(H, want, atol=1e-12)
    with pytest.raises(InputError):
        hankel_truncation(BlaschkeProduct((0.0,)), Symbol.shift(), 32)


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
    r64 = _hankel_route_residual(u, phi, 64, 1024, direct)
    r128 = _hankel_route_residual(u, phi, 128, 1024, direct)
    assert r64 > 1e-8
    assert r128 <= 1e-3 * r64


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


def test_cancel_common_inner_factor():
    a = 0.5
    u = BlaschkeProduct((a, -0.3))
    # phi = (z - a)(2 + z) shares the zero a with u
    phi = Symbol(poly=np.polynomial.polynomial.polymul([-a, 1.0], [2.0, 1.0]))
    u2, phi2 = cancel_common_inner_factor(u, phi)
    assert u2.zeros == (-0.3,)
    assert phi2.degree == phi.degree
    # removed Blaschke factor times the new symbol reproduces the old one
    b = BlaschkeProduct((a,))
    for z in (0.2, -0.4j, 0.7 + 0.1j):
        assert b.eval(z) * phi2.eval(z) == pytest.approx(phi.eval(z), abs=1e-12)
    # operators agree after moving the inner factor across
    A_old = tto_matrix(u, phi)
    A_new = tto_matrix(u, blaschke_symbol(b) * phi2)
    assert operator_norm(A_old - A_new) <= 1e-10
