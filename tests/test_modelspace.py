"""Model spaces, truncated Toeplitz matrices, and the Hankel route.

Monomial oracles (u = z^n makes everything exact):
  * tto(z^2, z) = [[0,0],[1,0]] in the monomial basis.
  * model conjugation of z^n is the antidiagonal flip.
  * for u = z^2, phi = z the boundary symbol conj(u) phi has the single
    Fourier mode -1, so the Hankel section is 1 at (0,0) and 0 elsewhere.
"""

import tracemalloc
from functools import reduce

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from csokit import modelspace

from csokit.certify import is_c_symmetric
from csokit.ensembles import random_blaschke, random_poly_symbol, stream
from csokit.errors import AccuracyError, CapacityError, EvaluationError, InputError
from csokit.linalg import _screened_norms, operator_norm
from csokit.modelspace import (
    BlaschkeProduct,
    GRAM_TOL,
    QUAD_CAP,
    STEIN_TAIL,
    ModelSpace,
    Symbol,
    compressed_shift,
    fn_calculus_check,
    model_conjugation,
    modelspace_decompose,
    tto_matrix,
    verify_hankel_factorization,
    _aliasing,
    _fine_grid,
    _hankel_route_residual,
)
from csokit.synthesis import realize_modulus
from csokit.verify import RunConfig


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


@pytest.mark.parametrize(
    "zeros, message",
    [
        ((0.5, float("nan"), 1.0), "must be finite"),
        ((0.5, 1.0, float("nan")), r"zero \(1\+0j\) too close"),
        ((complex(0.0, float("inf")),), "must be finite"),
        ((0.3, -(1.0 - 1e-9)), r"zero \(-0\.999999999\+0j\) too close"),
        ((0.5, 0.2j, float("inf")), "must be finite"),
        ((0.5, complex(0.0, -1.0)), r"zero -1j too close"),
        # a 1-d array is converted by one tolist and checked alike
        (np.array([0.5, float("nan"), 1.0]), "must be finite"),
        (np.array([0.5, 0.2j, float("inf")]), "must be finite"),
        (np.array([0.5, 1.0, float("nan")]), r"zero \(1\+0j\) too close"),
        (np.array([0.5, complex(0.0, -1.0)]), r"zero -1j too close"),
    ],
)
def test_blaschke_zero_checks_name_the_first_bad_zero(zeros, message):
    with pytest.raises(InputError, match=message):
        BlaschkeProduct(zeros)
    assert BlaschkeProduct((0.3, 1.0 - 2e-8)).degree == 2


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
    with pytest.raises(InputError, match="rational, not polynomial"):
        psi.poly
    with pytest.raises(InputError):
        Symbol(num=[1.0], den=[1.0, -1.0])  # pole on the boundary
    with pytest.raises(InputError, match="identically zero"):
        Symbol(num=[1.0], den=[0.0])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    scale=st.floats(-300, 300),
    log_modulus=st.one_of(st.floats(-3, 3), st.floats(-1e-5, 1e-5)),
    angles=st.tuples(st.floats(0, 2 * np.pi), st.floats(0, 2 * np.pi)),
)
def test_a_linear_denominator_is_decided_without_np_roots(scale, log_modulus, angles):
    # the pole of d0 + d1 z is -d0/d1; np.roots (about 20 us) is left to the
    # quotients that overflow and to higher degrees.  Away from the margin,
    # where np.roots' own rounding decides, both refuse the same symbols
    d1 = 10.0**scale * np.exp(1j * angles[0])
    d0 = d1 * np.exp(log_modulus + 1j * angles[1])
    den = np.array([d0, d1])
    with np.errstate(all="ignore"):
        modulus = np.abs(np.roots(den[::-1]))[0]
    if abs(modulus / (1.0 + modelspace.POLE_MARGIN) - 1.0) <= 1e-12:
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "roots", None)
        try:
            Symbol(num=[1.0], den=den)
        except InputError:
            assert not modulus >= 1.0 + modelspace.POLE_MARGIN
        else:
            assert modulus >= 1.0 + modelspace.POLE_MARGIN


def test_a_linear_denominator_past_the_closed_form_still_raises_input_errors():
    # a quotient d0/d1 that overflows goes to np.roots, as before; a finite
    # pole whose modulus overflows is accepted without a warning
    for den in ([1.0, 1e-320], [1e300 + 1e300j, 1e-300]):
        with pytest.raises(InputError, match="too badly scaled"):
            Symbol(num=[1.0], den=den)
    for den in ([0.0, 1.0], [1.0, -1.0], [1.0, -1.0 / (1.0 + 0.5e-6)]):
        with pytest.raises(InputError, match="pole on or too close"):
            Symbol(num=[1.0], den=den)
    assert not Symbol(num=[1.0], den=[1.5e308 + 1.5e308j, 1.0]).is_polynomial


def test_symbol_product_and_shift():
    phi = Symbol.shift() * Symbol(poly=[3.0])
    assert np.allclose(phi.poly, [0.0, 3.0])
    assert Symbol.constant(2.0).eval(0.9) == 2.0
    assert Symbol.zero().degree == 0


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


def test_a_resolved_space_takes_no_svd_for_its_gram_check(monkeypatch):
    # require_resolved decides GRAM_TOL by the Frobenius norm first, as the
    # model conjugation does: each check below takes only its residual's SVD
    u = BlaschkeProduct((0.5, -0.3, 0.2j))
    phi = Symbol(poly=[1.0, 0.5])
    calls = {"svd": 0}
    monkeypatch.setattr(np.linalg, "svd", counting(calls, "svd", np.linalg.svd))
    for check in (fn_calculus_check, lambda u, phi: verify_hankel_factorization(u, phi, 64)):
        assert check(u, phi) <= 1e-8
        assert calls == {"svd": 1}
        calls["svd"] = 0
    ms = ModelSpace(u, 256)
    assert ms.require_resolved() is ms and calls == {"svd": 0}
    assert ms.gram_residual <= 1e-10 and calls == {"svd": 1}


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
    assert "_samples" not in vars(ms)
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


def reference_samples(u, Q):
    """Basis samples by the plain per-zero recursion with two complex
    divisions per zero, and u samples by BlaschkeProduct.eval."""
    nodes = np.exp(2j * np.pi * np.arange(Q) / Q)
    E = np.empty((u.degree, Q), dtype=complex)
    prefix = np.ones(Q, dtype=complex)
    for k, a in enumerate(u.zeros):
        if a == 0:
            E[k] = prefix
            prefix = prefix * nodes
        else:
            den = 1.0 - np.conj(a) * nodes
            E[k] = np.sqrt(1.0 - abs(a) ** 2) / den * prefix
            prefix = prefix * (a - nodes) / den
    return nodes, E, u.eval(nodes)


def reference_conjugation(u, Q):
    """The model conjugation's matrix by the plain quadrature, symmetrized."""
    nodes, E, us = reference_samples(u, Q)
    G = E.conj() @ (us * np.conj(nodes * E)).T / Q
    return 0.5 * (G + G.T)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    seed=SEEDS,
    degree=st.integers(0, 24),
    radius=st.sampled_from([0.5, 0.9, 0.99, 0.999]),
    quad=st.integers(64, 4096),
)
def test_one_pass_samples_match_the_plain_recursion(seed, degree, radius, quad):
    # zeros up to the given modulus, a share of them exactly at 0
    u = BlaschkeProduct(seeded_zeros(seed, degree, radius, at_origin=0.3))
    nodes, E, us = reference_samples(u, quad)
    ms = ModelSpace(u, quad)
    assert np.array_equal(ms.nodes, nodes) and not ms.nodes.flags.writeable
    assert max_entry(ms.basis_samples - E) <= 1e-13 * max(1.0, max_entry(E))
    assert max_entry(ms.u_samples - us) <= 1e-13
    assert_same_reply_as_the_plain_sums(u, quad, 1e-13)


def assert_same_reply_as_the_plain_sums(u, quad, tol):
    """model_conjugation, which reaches the quad-node sums through the
    aliasing identity, refuses exactly where the plain sums would (their Gram
    residual or G's unitarity residual above GRAM_TOL) and otherwise gives
    their G to tol."""
    _, E, _ = reference_samples(u, quad)
    eye = np.eye(u.degree)
    G = reference_conjugation(u, quad)
    refused = (
        operator_norm(E @ E.conj().T / quad - eye) > GRAM_TOL
        or operator_norm(G @ G.conj().T - eye) > GRAM_TOL
    )
    try:
        C = model_conjugation(u, quad)
    except AccuracyError:
        assert refused
        return
    assert not refused
    assert max_entry(C.matrix - G) <= tol


@pytest.mark.parametrize(
    "zeros, quad",
    [
        ((), 64),
        ((), 1024),
        ((0.0,) * 40, 64),
        (seeded_zeros(5, 8, 0.8), 64),
        (seeded_zeros(6, 8, 0.8), 100),
        (seeded_zeros(7, 12, 0.9), 1000),
        (seeded_zeros(8, 12, 0.9), 5000),
        (seeded_zeros(9, 3, 0.9), 65536),
        ((0.95, -0.97j, 0.99), 4096),
        ((0.999, 0.999j), 65536),
    ],
)
def test_model_conjugation_edge_inputs_match_the_plain_sums(zeros, quad):
    # grids below, between and above the powers 64 2^k, and spaces refused
    # or resolved only on fine grids.  Near the circle the plain sums err
    # in proportion to the largest basis sample: at |a| = 0.999 on 65536
    # nodes they differ from the Stein sum by 8.9e-14
    u = BlaschkeProduct(zeros)
    largest = max_entry(reference_samples(u, quad)[1])
    assert_same_reply_as_the_plain_sums(u, quad, 1e-13 * max(1.0, largest))


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    seed=SEEDS,
    degree=st.integers(0, 24),
    radius=st.sampled_from([0.5, 0.9, 0.99, 0.999]),
    quad=st.one_of(st.sampled_from([64, 128, 1024, 4096]), st.integers(64, 4096)),
)
def test_aliasing_identity_gives_the_sampled_gram_matrix(seed, degree, radius, quad):
    # the Q-node Gram matrix is I + D_Q^T.  The bound scales with the largest
    # basis sample: at radius 0.999 the plain sums themselves err by up to
    # 8e-14 (an extended-precision sum puts D_Q within 4e-15 of the truth)
    u = BlaschkeProduct(seeded_zeros(seed, degree, radius, at_origin=0.3))
    _, E, _ = reference_samples(u, quad)
    gram = E @ E.conj().T / quad
    D = _aliasing(np.linalg.matrix_power(compressed_shift(u), quad))
    assert max_entry(D.T - (gram - np.eye(degree))) <= 1e-14 * max(1.0, max_entry(E))


@pytest.mark.parametrize("seed", range(5))
def test_model_conjugation_samples_only_a_coarse_grid(monkeypatch, seed):
    # the Stein sum samples nothing: no ModelSpace is constructed at all
    # (before, the 4096-node sums came from a 64- or 128-node space)
    grids = []
    init = ModelSpace.__init__

    def recording(self, u, quad_points=1024):
        grids.append(quad_points)
        init(self, u, quad_points)

    monkeypatch.setattr(ModelSpace, "__init__", recording)
    model_conjugation(BlaschkeProduct(seeded_zeros(seed, 24, 0.9)), 4096)
    assert grids == []


def test_model_conjugation_memory_does_not_grow_with_the_grid():
    # the plain sums on 2^18 nodes held 8 basis rows of 4 MB each
    u = BlaschkeProduct(seeded_zeros(11, 8, 0.9))
    tracemalloc.start()
    try:
        model_conjugation(u, 1 << 18)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def counting(calls, name, fn):
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return wrapped


def test_model_space_lapack_work(monkeypatch):
    # tto_matrix and model_conjugation of one u share one A_u (each built
    # its own); a polynomial symbol takes no solve; at zeros of modulus
    # <= 0.9 the Stein sum stops before Q/2, so D_Q is never formed and the
    # unitarity check is settled by its Frobenius norm (3 solves per
    # conjugation before: D_Q, the coarse D_k and (I + D_k)^{-1} G_k)
    calls = {"svd": 0, "solve": 0, "shift": 0}
    for name in ("svd", "solve"):
        monkeypatch.setattr(np.linalg, name, counting(calls, name, getattr(np.linalg, name)))
    monkeypatch.setattr(modelspace, "_shift_matrix", counting(calls, "shift", modelspace._shift_matrix))
    for seed, quad in [(0, 1024), (1, 1024), (2, 4096), (3, 4096)]:
        u = BlaschkeProduct(seeded_zeros(seed, 24, 0.9))
        tto_matrix(u, Symbol(poly=[1.0, 2.0, 0.5j]), quad)
        assert calls["solve"] == 0
        model_conjugation(u, quad)
        assert calls == {"svd": 0, "solve": 0, "shift": 1}, (seed, quad, calls)
        calls.update(svd=0, solve=0, shift=0)


def test_compressed_shift_is_built_once_and_read_only():
    u = BlaschkeProduct(seeded_zeros(4, 6, 0.9))
    A = compressed_shift(u)
    assert compressed_shift(u) is A and not A.flags.writeable
    with pytest.raises(ValueError):
        A[0, 0] = 1.0
    assert np.array_equal(A, compressed_shift(BlaschkeProduct(u.zeros)))


def test_degree_past_the_cap_is_refused_before_the_shift_is_built():
    # 4097 zeros would allocate a 268 MB compressed shift (1e5 zeros, 160 GB)
    u = BlaschkeProduct((0.0,) * 4097)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="dimension cap"):
            tto_matrix(u, Symbol.shift())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sampling_past_the_cap_is_refused_before_any_sample():
    # degree 32 on 2^20 nodes is 2^25 basis samples, several 512 MB arrays
    u = BlaschkeProduct(seeded_zeros(12, 32, 0.9))
    ms = ModelSpace(u, 1 << 20)  # a space that is never sampled costs nothing
    assert ms.tto(Symbol.shift()).shape == (32, 32)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="sampling cap"):
            fn_calculus_check(u, Symbol.shift(), 1 << 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_sampling_memory_is_bounded_by_a_few_basis_arrays():
    # 8 x 2^16 samples are 8 MB per array.  The per-zero recursion peaked at
    # 27 MB; the broadcast holds one more such array (the factors), but
    # frees it before the compression's peak
    u = BlaschkeProduct(seeded_zeros(13, 8, 0.9))
    tracemalloc.start()
    try:
        fn_calculus_check(u, Symbol(poly=[1.0, 0.5, 0.25]), 1 << 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 << 20


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


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=SEEDS, degree=st.integers(1, 24), radius=st.sampled_from([0.5, 0.9, 0.99]))
def test_model_conjugation_matrix_is_exactly_symmetric(seed, degree, radius):
    # 0.5 (G + G^T) adds the same two numbers at (i, j) and (j, i), so G is
    # symmetric bit for bit and needs no symmetry residual
    u = BlaschkeProduct(seeded_zeros(seed, degree, radius))
    try:
        G = model_conjugation(u, 1024).matrix
    except AccuracyError:
        return
    assert np.array_equal(G, G.T)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(
    seed=SEEDS,
    degree=st.integers(0, 32),
    radius=st.sampled_from([0.5, 0.9, 0.99]),
    repeats=st.integers(1, 4),
    quad=st.sampled_from([64, 100, 1024, 4096]),
)
def test_stein_conjugation_is_exact_and_matches_the_plain_sums(seed, degree, radius, repeats, quad):
    # zeros with a share at 0, each repeated up to `repeats` times.  The
    # reply is the quad-node matrix (I + D_Q) G: it refuses exactly where
    # the plain sums on the ModelSpace samples are unresolved, and otherwise
    # matches them; G itself is the exact conjugation of A_u
    zeros = np.repeat(seeded_zeros(seed, -(-degree // repeats), radius, 0.3), repeats)[:degree]
    u = BlaschkeProduct(zeros)
    ms = ModelSpace(u, quad)
    E, X = ms.basis_samples, ms._conj_basis
    plain = X @ ((ms.u_samples * np.conj(ms.nodes)) * X).T / quad
    plain = 0.5 * (plain + plain.T)
    eye = np.eye(degree)
    refused = (
        operator_norm(E @ X.T / quad - eye) > GRAM_TOL
        or operator_norm(plain @ plain.conj().T - eye) > GRAM_TOL
    )
    try:
        reply = model_conjugation(u, quad).matrix
    except AccuracyError:
        assert refused
        return
    assert not refused
    assert np.array_equal(reply, reply.T)
    assert max_entry(reply - plain) <= 1e-13
    A = compressed_shift(u)
    G = np.linalg.solve(eye + _aliasing(np.linalg.matrix_power(A, quad)), reply)
    assert max_entry(G @ G.conj().T - eye) <= 1e-13
    assert max_entry(A @ G - G @ A.T) <= 1e-13
    if degree:
        a0, an = zeros[0], zeros[-1]
        eps = 1.0 if an == 0 else -1.0
        corner = eps * np.sqrt((1 - abs(a0) ** 2) * (1 - abs(an) ** 2)) / (1 - a0 * np.conj(an))
        assert abs(G[-1, 0] - corner) <= 1e-13


def doubling_conjugation(u, Q):
    """The model conjugation by full doubling, G += P^H G P^T for every power
    of the squaring chain up to ||A^K||_F <= STEIN_TAIL, or None where it
    refuses the space."""
    A = compressed_shift(u)
    powers, DQ = [A], None
    while True:
        P, K = powers[-1], 1 << (len(powers) - 1)
        if DQ is None and 2 * K > Q:
            DQ = _aliasing(reduce(np.matmul, [X for i, X in enumerate(powers) if Q >> i & 1]))
            if _screened_norms(DQ[None], GRAM_TOL)[0] > GRAM_TOL:
                return None
        if np.vdot(P, P).real <= STEIN_TAIL**2:
            break
        powers.append(P @ P)
    a = np.asarray(u.zeros, dtype=complex)
    c = np.sqrt(1.0 - np.abs(a) ** 2)
    d = c * np.cumprod(np.append(1.0, a.conj()))[:-1]
    w = np.where(a == 0, c, -c) * np.cumprod(np.append(1.0, a[::-1]))[-2::-1]
    G = np.outer(w, d)
    for P in powers:
        G += P.conj().T @ G @ P.T
    eye = np.eye(u.degree)
    if DQ is not None:
        G = (eye + DQ) @ G
    G = 0.5 * (G + G.T)
    return None if _screened_norms((G @ G.conj().T - eye)[None], GRAM_TOL)[0] > GRAM_TOL else G


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    seed=SEEDS,
    degree=st.integers(0, 32),
    radius=st.one_of(st.sampled_from([0.5, 0.9, 0.99, 0.999]), st.floats(0.5, 0.999)),
    repeats=st.integers(1, 4),
    quad=st.one_of(st.sampled_from([64, 100, 1024, 4096, 65536]), st.integers(64, 65536)),
)
def test_rank_one_start_and_fourth_power_stop_match_the_full_doubling(
    seed, degree, radius, repeats, quad
):
    # zeros with a share at 0, each repeated up to `repeats` times
    zeros = np.repeat(seeded_zeros(seed, -(-degree // repeats), radius, 0.3), repeats)[:degree]
    u = BlaschkeProduct(zeros)
    reference = doubling_conjugation(u, quad)
    try:
        G = model_conjugation(u, quad).matrix
    except AccuracyError:
        assert reference is None
        return
    assert reference is not None
    assert max_entry(G - reference) <= 1e-14 * max(1.0, max_entry(reference))


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
    assert ModelSpace(u, np.int64(64)).quad_points == 64


QUAD_CHECKED = {
    "ModelSpace": lambda quad: ModelSpace(BlaschkeProduct((0.5,)), quad),
    "model_conjugation": lambda quad: model_conjugation(BlaschkeProduct((0.5,)), quad),
    # the Hankel truncation M is checked as a node count is (it was a bare TypeError)
    "verify_hankel_factorization": lambda M: verify_hankel_factorization(
        BlaschkeProduct((0.5,)), Symbol.shift(), M
    ),
    "RunConfig": lambda quad: RunConfig(quad=quad),
}


@pytest.mark.parametrize("caller", list(QUAD_CHECKED))
@pytest.mark.parametrize(
    "quad, error",
    [
        (float("nan"), InputError),  # was a bare ValueError
        ("1024", InputError),  # was a bare TypeError
        (None, InputError),
        (100.7, InputError),  # was truncated to 100
        (1024.0, InputError),
        (63, InputError),
        (QUAD_CAP + 1, CapacityError),
    ],
)
def test_quad_points_must_be_an_integer_in_range(caller, quad, error):
    with pytest.raises(error):
        QUAD_CHECKED[caller](quad)


@pytest.mark.parametrize(
    "build",
    [
        lambda: BlaschkeProduct(["a"]),  # was a bare ValueError
        lambda: BlaschkeProduct(None),  # was a bare TypeError
        lambda: Symbol(poly=[float("nan"), 1.0]),  # was accepted, with a NaN TTO
        lambda: Symbol(poly=[1.0, float("nan")]),  # was trimmed to the constant 1
        lambda: Symbol(poly=["a"]),  # was a bare ValueError
        lambda: Symbol(num=[1.0], den=[1.0, float("inf")]),
        lambda: Symbol(num=[1.0], den=[1.0, 1e-320]),  # np.roots raised LinAlgError
        lambda: tto_matrix(BlaschkeProduct((0.5,)), Symbol(num=[1e300], den=[1e-300, 1e-301])),
    ],
    ids=[
        "string-zero",
        "no-zeros",
        "nan-coefficient",
        "nan-leading-coefficient",
        "string-coefficient",
        "inf-coefficient",
        "subnormal-lead",
        "overflow",
    ],
)
def test_malformed_model_space_input_is_an_input_error(build):
    with pytest.raises(InputError):
        build()


def hankel_section(fine, phi, M):
    """The dense M x M section of the Hankel operator with symbol conj(u) phi,
    on the grid of ``fine``: columns are the monomials z^0..z^{M-1}, rows the
    conjugate monomials z^{-1}..z^{-M}, and entry (r, c) is the symbol's
    Fourier coefficient -(r+c+1)."""
    coeffs = np.fft.fft(np.conj(fine.u_samples) * phi.eval(fine.nodes)) / fine.quad_points
    v = coeffs[-1 : -2 * M : -1]
    return scipy.linalg.hankel(v[:M], v[M - 1 :])


def test_hankel_truncation_monomial_oracle():
    H = hankel_section(ModelSpace(BlaschkeProduct((0.0, 0.0)), _fine_grid(1024, 64)), Symbol.shift(), 64)
    want = np.zeros((64, 64))
    want[0, 0] = 1.0
    assert np.allclose(H, want, atol=1e-12)
    with pytest.raises(InputError):
        verify_hankel_factorization(BlaschkeProduct((0.0,)), Symbol.shift(), 32)


@pytest.mark.parametrize("M", [64, 100, 300])
def test_hankel_section_equals_scipy_hankel(M):
    # the oracle's section, entry by entry from the symbol's coefficients
    rng = stream(17, 9)
    u = random_blaschke(rng, 5, max_modulus=0.9)
    phi = random_poly_symbol(rng, 3)
    fine = ModelSpace(u, _fine_grid(256, M))
    coeffs = np.fft.fft(np.conj(fine.u_samples) * phi.eval(fine.nodes)) / fine.quad_points
    r, c = np.indices((M, M))
    assert np.array_equal(hankel_section(fine, phi, M), coeffs[-(r + c + 1)])


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
    """The Hankel route's model-space matrix, with the negative modes taken by
    the dense Hankel section and the image evaluated by polyval."""
    ms = ModelSpace(u, quad_points)
    fine = ModelSpace(u, max(4 * M, quad_points, 1024))
    taylor = (np.fft.fft(fine.basis_samples) / fine.quad_points)[:, :M]
    negative = taylor @ hankel_section(fine, phi, M).T
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
    with pytest.MonkeyPatch.context() as mp:
        # above the cap at M = 64, lower at M = 128: the M = 64 residual stands
        mp.setattr(modelspace, "HANKEL_RESIDUAL_CAP", 1e-9)
        assert verify_hankel_factorization(u, phi, 64) == r64
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(modelspace, "_hankel_route_residual", lambda *args: 1e-3)
        with pytest.raises(AccuracyError):
            verify_hankel_factorization(u, phi, 64)


def test_modelspace_decompose_blocks_and_unitarity():
    u = BlaschkeProduct((0.3, -0.2))
    v = BlaschkeProduct((0.1j,))
    Q, blocks = modelspace_decompose(u, v, u)
    assert blocks == [("K_u", 2), ("u*K_v", 1), ("u*v*K_w", 2)]
    assert np.array_equal(Q, np.eye(5))
    Q, blocks = modelspace_decompose(u, v)
    assert blocks == [("K_u", 2), ("u*K_v", 1)] and np.array_equal(Q, np.eye(3))
    for quad in (63, QUAD_CAP + 1):  # range-checked as by the quadrature routes
        with pytest.raises((InputError, CapacityError)):
            modelspace_decompose(u, v, quad_points=quad)


def test_modelspace_decompose_refuses_a_factor_that_is_not_a_blaschke_product():
    # u.degree on None used to leak an AttributeError
    u = BlaschkeProduct((0.3,))
    for args in ((u, None), (None, u), (u, u, [0.5]), ((0.3,), u)):
        with pytest.raises(InputError, match="BlaschkeProduct"):
            modelspace_decompose(*args)


_U = BlaschkeProduct((0.3,))
_PHI = Symbol(poly=[0.0, 1.0])


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: realize_modulus(["a"]), id="realize_modulus-str"),
        pytest.param(lambda: realize_modulus([1.0, 2j]), id="realize_modulus-complex"),
        pytest.param(lambda: tto_matrix((0.3,), _PHI), id="tto_matrix-u"),
        pytest.param(lambda: tto_matrix(_U, [0.0, 1.0]), id="tto_matrix-phi"),
        pytest.param(lambda: ModelSpace(None), id="ModelSpace-u"),
        pytest.param(lambda: ModelSpace(_U).tto("z"), id="ModelSpace.tto-phi"),
        pytest.param(lambda: model_conjugation([0.3]), id="model_conjugation-u"),
        pytest.param(lambda: compressed_shift(0.3), id="compressed_shift-u"),
        pytest.param(lambda: fn_calculus_check((0.3,), _PHI), id="fn_calculus_check-u"),
        pytest.param(lambda: fn_calculus_check(_U, [0.0, 1.0]), id="fn_calculus_check-phi"),
        pytest.param(lambda: verify_hankel_factorization((0.3,), _PHI, 64), id="hankel-u"),
        pytest.param(lambda: verify_hankel_factorization(_U, None, 64), id="hankel-phi"),
    ],
)
def test_targets_blaschke_products_and_symbols_of_the_wrong_type_are_input_errors(call):
    # each of these used to leak a raw ValueError, TypeError or AttributeError
    with pytest.raises(InputError):
        call()


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(seed=SEEDS, degrees=st.tuples(*[st.integers(0, 8)] * 3))
def test_frame_of_a_product_is_its_basis_by_quadrature(seed, degrees):
    # the oracle: project sampled K_u, u K_v and u v K_w onto the basis of
    # uvw at 1024 nodes; the frame coordinates are the identity
    u, v, w = (BlaschkeProduct(seeded_zeros(seed + k, d, 0.8)) for k, d in enumerate(degrees))
    big = ModelSpace(u * v * w, 1024)
    ms_u, ms_v, ms_w = (ModelSpace(f, 1024) for f in (u, v, w))
    frame = np.vstack(
        [
            ms_u.basis_samples,
            ms_u.u_samples * ms_v.basis_samples,
            ms_u.u_samples * ms_v.u_samples * ms_w.basis_samples,
        ]
    )
    Q, _ = modelspace_decompose(u, v, w)
    assert operator_norm(big.project(frame) - Q) <= 1e-12


def test_a_row_of_samples_projects_as_it_does_among_rows():
    # project swapped the last two axes of its samples, so one 1-D row leaked a raw AxisError
    assert ModelSpace(BlaschkeProduct((0.5,)), 64).project(np.ones(64)) == pytest.approx([0.75**0.5])
    rng = stream(23, 1)
    for _ in range(20):
        ms = ModelSpace(random_blaschke(rng, int(rng.integers(0, 9)), max_modulus=0.8), 256)
        rows = rng.standard_normal((3, 256)) + 1j * rng.standard_normal((3, 256))
        coefficients = ms.project(rows)
        assert coefficients.shape == (ms.dim, 3)
        for k, row in enumerate(rows):
            one = ms.project(row)
            assert one.shape == (ms.dim,)
            # one row and three take different BLAS kernels, equal up to rounding
            assert max_entry(one - coefficients[:, k]) <= 1e-14 * max(1.0, max_entry(coefficients))


@pytest.mark.parametrize(
    "call, samples",
    [
        ("compress", np.ones(65)),
        ("project", np.ones(65)),
        ("project", np.ones((2, 65))),
        ("project", np.ones((1, 2, 64))),
        ("compress", np.ones((2, 64))),
        ("compress", 1.0),
    ],
)
def test_samples_off_the_grid_are_an_input_error(call, samples):
    # a last axis other than the grid's leaked numpy's broadcast ValueError
    ms = ModelSpace(BlaschkeProduct((0.5, 0.1j)), 64)
    with pytest.raises(InputError, match="samples on the 64 nodes"):
        getattr(ms, call)(samples)


def test_hankel_check_builds_each_grid_once(monkeypatch):
    # the node space serves the direct matrix, both truncations and, when its
    # grid is fine enough, the Taylor and Hankel FFTs
    built = []

    class CountingSpace(ModelSpace):
        def __init__(self, u, quad_points=1024):
            built.append(quad_points)
            super().__init__(u, quad_points)

    monkeypatch.setattr(modelspace, "ModelSpace", CountingSpace)
    monkeypatch.setattr(modelspace, "HANKEL_RESIDUAL_CAP", 1e-9)
    u = BlaschkeProduct((0.9, -0.9, 0.9j))
    phi = Symbol(poly=[1.0, 0.5])
    verify_hankel_factorization(u, phi, 64)  # retries at M = 128
    assert built == [1024]
    built.clear()
    verify_hankel_factorization(u, phi, 512)
    assert built == [1024, 2048]


def test_a_degree_zero_product_has_zero_cross_check_residuals():
    # the Hankel fold reshaped its (0, M) modes with an inferred axis and leaked a raw ValueError
    u, phi = BlaschkeProduct([]), Symbol(poly=[1, 2])
    assert tto_matrix(u, phi).shape == (0, 0)
    assert fn_calculus_check(u, phi) == 0.0
    for M in (64, 256, 4096):
        assert verify_hankel_factorization(u, phi, M) == 0.0
        assert verify_hankel_factorization(u, phi, M, 64) == 0.0


def every_level_conjugation(u, quad):
    """model_conjugation as it read before its chain skipped levels: the norm
    of every power of the chain, w and d from one append and cumprod each,
    and the unitarity defect against np.eye.  Returns the matrix, or the
    AccuracyError's message."""
    Q = modelspace._check_quad_points(quad)
    A = compressed_shift(u)
    powers, DQ = [A], None
    try:
        while True:
            P, K = powers[-1], 1 << (len(powers) - 1)
            if DQ is None and 2 * K > Q:
                DQ = _aliasing(reduce(np.matmul, [X for i, X in enumerate(powers) if Q >> i & 1]))
                modelspace._require_gram_residual(_screened_norms(DQ[None], GRAM_TOL)[0])
            tail = np.vdot(P, P).real
            if tail <= STEIN_TAIL**2 or (tail <= STEIN_TAIL and 4 * K <= Q):
                break
            powers.append(P @ P)
    except AccuracyError as exc:
        return str(exc)
    a, c, eps = u._zero_arrays
    n = u.degree
    X = np.empty((n, max(2 * n, 1)), dtype=complex)
    Y = np.empty_like(X)
    X[:, 0] = eps * c * np.cumprod(np.append(1.0, a[::-1]))[-2::-1]
    Y[:, 0] = c * np.cumprod(np.append(1.0, a.conj()))[:-1]
    k = 1
    for P in powers:
        if k >= n:
            break
        np.matmul(P.conj().T, X[:, :k], out=X[:, k : 2 * k])
        np.matmul(P, Y[:, :k], out=Y[:, k : 2 * k])
        k *= 2
    G = X[:, :k] @ Y[:, :k].T
    for P in powers[k.bit_length() - 1 :]:
        G += P.conj().T @ G @ P.T
    eye = np.eye(n)
    if DQ is not None:
        G = (eye + DQ) @ G
    G = 0.5 * (G + G.T)
    if _screened_norms((G @ G.conj().T - eye)[None], GRAM_TOL)[0] > GRAM_TOL:
        return "conjugation matrix failed its unitarity check; raise quad_points"
    return G


def assert_same_bytes_as_every_level(u, quad):
    reference = every_level_conjugation(u, quad)
    try:
        G = model_conjugation(u, quad).matrix
    except AccuracyError as exc:
        assert str(exc) == reference
        return
    assert not isinstance(reference, str), reference
    assert G.tobytes() == reference.tobytes()


@pytest.mark.parametrize(
    "zeros, quad",
    [
        ((), 64),
        ((), 1024),
        ((0.5,), 1024),
        ((0.999j,), 64),
        ((0.0,) * 7, 1024),
        ((0.0,) * 40, 64),
        ((0.6, 0.6, 0.6, -0.3j, -0.3j), 1024),
        ((0.999, 0.999), 64),
        ((0.999, 0.999), 1024),
        ((0.999, -0.5, 0.999j, 0.0), 1024),
        ((0.999,) * 3, 1024),
    ],
)
def test_model_conjugation_is_the_every_level_chain_bit_for_bit(zeros, quad):
    # degree 0 and 1, all zeros at 0, repeated zeros, and zeros of modulus
    # 0.999, which some grids refuse: the levels whose norm is skipped
    # (rho^{2K} > 2 STEIN_TAIL) could not have stopped the chain
    assert_same_bytes_as_every_level(BlaschkeProduct(zeros), quad)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    seed=SEEDS,
    degree=st.integers(0, 32),
    radius=st.one_of(st.sampled_from([0.5, 0.9, 0.99, 0.999]), st.floats(0.0, 0.999)),
    repeats=st.integers(1, 4),
    quad=st.one_of(st.sampled_from([64, 1024, 4096]), st.integers(64, 65536)),
)
def test_model_conjugation_matches_the_every_level_chain_on_seeded_products(
    seed, degree, radius, repeats, quad
):
    zeros = np.repeat(seeded_zeros(seed, -(-degree // repeats), radius, 0.3), repeats)[:degree]
    assert_same_bytes_as_every_level(BlaschkeProduct(zeros), quad)


def horner_from_zero(coeffs, A):
    """_horner as it read before it started from the leading coefficient:
    P = 0, then P @ A plus each coefficient, highest first."""
    n = A.shape[0]
    P = np.zeros((n, n), dtype=complex)
    for c in coeffs[::-1]:
        P = P @ A
        P.reshape(-1)[:: n + 1] += c
    P += 0.0
    return P


@pytest.mark.parametrize(
    "coeffs",
    [
        [2.0 - 1.0j],
        [0.0],
        [-0.0 - 0.0j],
        [0.0, 0.0, 1.0],
        [1.5, 0.0, -0.0, 0.0, -2.0j],
        [complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0), -3.0],
    ],
)
@pytest.mark.parametrize("zeros", [(), (0.0,), (0.0,) * 6, (0.5, -0.3j, 0.0, 0.8), (0.9,) * 4])
def test_horner_from_the_leading_coefficient_keeps_every_byte(coeffs, zeros):
    # zero coefficients and signed zeros, a degree-0 symbol and a degree-0
    # product, and a nilpotent shift whose powers are exactly zero
    c = np.array(coeffs, dtype=complex)
    A = compressed_shift(BlaschkeProduct(zeros))
    assert modelspace._horner(c, A).tobytes() == horner_from_zero(c, A).tobytes()


@pytest.mark.parametrize("num", [[1.0, -0.0, 2.0], [complex(-0.0, 1.0), 0.0, complex(2.0, -0.0)], [0.0]])
def test_a_polynomial_tto_skips_the_division_by_one_and_keeps_every_byte(num):
    # num / 1 flips the sign of some zeros; the Horner sum's final + 0.0
    # leaves only +0 where an entry is exactly zero
    u = BlaschkeProduct((0.5, 0.0, -0.2j, 0.0))
    for den in (None, [1.0], [2.0]):
        phi = Symbol(num=num, den=den)
        T = tto_matrix(u, phi)
        assert T.tobytes() == horner_from_zero(phi.poly, compressed_shift(u)).tobytes()


SIGNED_ZEROS = (0.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0))
NILPOTENT_SYMBOL_COEFFS = [
    [2.0 - 1.0j],
    [0.0],
    [-0.0 - 0.0j],
    [0.0, 0.0, 1.0],
    [1.5, 0.0, -0.0, 0.0, -2.0j],
    [complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0), -3.0],
    [1e308, -1e308j, complex(-1e308, 1e308), -0.0],
    [5e-324, complex(-0.0, -5e-324), 1.0],
    list(np.linspace(-3.0, 3.0, 45) * (1 - 0.5j)),  # longer than every n below
]


def horner_tto(coeffs, A):
    """tto's Horner path on A: the matrix, or an InputError where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        T = modelspace._horner(coeffs, A)
        assert T.tobytes() == horner_from_zero(coeffs, A).tobytes()
    if not np.isfinite(T).all():
        raise InputError("symbol too badly scaled: its truncated Toeplitz matrix overflows")
    return T


def outcome(f, *args):
    try:
        T = f(*args)
    except InputError as exc:
        return str(exc)
    return T.dtype, T.shape, T.tobytes()


@pytest.mark.parametrize("n", range(41))
def test_the_nilpotent_tto_is_horner_s_matrix_byte_for_byte(n):
    # degrees 0-40 with zeros 0, -0 and their complex signed forms, symbols
    # longer than n, signed-zero, subnormal and +-1e308 coefficients, divided
    # by 1, 2 and -0.5j (1e308 / -0.5j overflows): the closed form gives
    # Horner's bytes on the product's own A_u, or Horner's InputError
    u = BlaschkeProduct([SIGNED_ZEROS[k % 4] for k in range(n)])
    A = compressed_shift(BlaschkeProduct([SIGNED_ZEROS[(k + 1) % 4] for k in range(n)]))
    for coeffs in NILPOTENT_SYMBOL_COEFFS:
        for den in (None, [1.0], [2.0], [-0.5j]):
            phi = Symbol(num=coeffs, den=den)
            with np.errstate(over="ignore", invalid="ignore"):
                poly = phi.poly
            assert outcome(tto_matrix, u, phi) == outcome(horner_tto, poly, A), (coeffs, den)
            assert outcome(tto_matrix, u, phi) == outcome(horner_tto, poly, compressed_shift(u))


def test_a_nilpotent_tto_builds_no_shift_and_runs_no_horner(monkeypatch):
    calls = {"shift": 0, "horner": 0}
    monkeypatch.setattr(modelspace, "_shift_matrix", counting(calls, "shift", modelspace._shift_matrix))
    monkeypatch.setattr(modelspace, "_horner", counting(calls, "horner", modelspace._horner))
    for n in (0, 1, 8, 32, 100):
        u = BlaschkeProduct([0.0] * n)
        T = tto_matrix(u, Symbol(poly=[1.0, 2.0, 0.5j]))
        assert T.shape == (n, n) and "_compressed_shift" not in vars(u)
    assert calls == {"shift": 0, "horner": 0}
    # a rational symbol on z^n still solves in A_u
    tto_matrix(BlaschkeProduct([0.0] * 4), Symbol(num=[1.0], den=[1.0, -0.5]))
    assert calls == {"shift": 1, "horner": 2}


def test_an_overflowing_nilpotent_symbol_is_an_input_error():
    # 1e308 / 0.5 overflows: the InputError of Horner's path, not a raw
    # RuntimeWarning, also where the overflowed coefficient is past n; a
    # degree-0 product has an empty matrix, as Horner's
    for n, num in ((2, [1e308]), (1, [1.0, 1e308]), (3, [1.0, 0.0, 0.0, 0.0, 1e308])):
        with pytest.raises(InputError, match="symbol too badly scaled"):
            tto_matrix(BlaschkeProduct([0.0] * n), Symbol(num=num, den=[0.5]))
    assert tto_matrix(BlaschkeProduct(()), Symbol(num=[1e308], den=[0.5])).shape == (0, 0)


def test_a_monomial_tto_holds_little_more_than_its_matrix():
    # the index table and mask that every size above 64 built took the peak
    # of z^1024 to 24 MiB, against the 16 MiB of the matrix itself
    u = BlaschkeProduct([0.0] * 1024)
    phi = Symbol(num=[1.0, 2.0 - 1j, 0.5j])
    tracemalloc.start()
    try:
        T = tto_matrix(u, phi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert T.nbytes == 16 << 20 and peak < T.nbytes + (1 << 20)
    want = scipy.linalg.toeplitz(np.r_[phi.num, np.zeros(1021)], np.zeros(1024))
    assert np.array_equal(T, want)


def test_array_zeros_are_converted_like_a_list():
    zeros = np.array([0.5, -0.25j, 0.0])
    u = BlaschkeProduct(zeros)
    assert u.zeros == BlaschkeProduct(list(zeros)).zeros
    assert all(type(a) is complex for a in u.zeros)
    assert BlaschkeProduct(zeros.real).zeros == (0.5 + 0j, 0j, 0j)
    with pytest.raises(InputError, match="must be complex numbers"):
        BlaschkeProduct(np.zeros((2, 2)))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(
    scale=st.floats(-300, 300),
    log_moduli=st.tuples(*[st.one_of(st.floats(-3, 3), st.floats(-1e-5, 1e-5))] * 2),
    angles=st.tuples(*[st.floats(0, 2 * np.pi)] * 3),
)
def test_a_quadratic_denominator_is_decided_without_np_roots(scale, log_moduli, angles):
    # d2 (z - p)(z - q); away from the margin, where np.roots' own rounding
    # decides, the closed form refuses the same symbols
    d2 = 10.0**scale * np.exp(1j * angles[0])
    p, q = (np.exp(m + 1j * t) for m, t in zip(log_moduli, angles[1:]))
    den = np.array([d2 * p * q, -d2 * (p + q), d2])
    if not np.all(np.isfinite(den)) or den[0] == 0:
        return
    with np.errstate(all="ignore"):
        moduli = np.abs(np.roots(den[::-1]))
    if np.any(np.abs(moduli / (1.0 + modelspace.POLE_MARGIN) - 1.0) <= 1e-6):
        return
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "roots", None)
        try:
            Symbol(num=[1.0], den=den)
        except InputError:
            assert not np.all(moduli >= 1.0 + modelspace.POLE_MARGIN)
        else:
            assert np.all(moduli >= 1.0 + modelspace.POLE_MARGIN)


def test_quadratic_pole_moduli_match_np_roots():
    rng = np.random.default_rng(2026)
    for _ in range(200):
        d = (rng.standard_normal(3) + 1j * rng.standard_normal(3)) * 10.0 ** rng.uniform(-50, 50, 3)
        got = np.sort(modelspace._pole_moduli(d))
        want = np.sort(np.abs(np.roots(d[::-1])))
        assert np.all(np.abs(got - want) <= 1e-13 * want)
    assert modelspace._pole_moduli(np.array([0.0, 0.0, 1.0 + 0j])) == [0.0, 0.0]  # z^2
    assert modelspace._pole_moduli(np.array([1.0, 0.0, 1.0 + 0j])) == [1.0, 1.0]
    # b^2 overflows: np.roots decides, and a companion that overflows is refused
    with pytest.raises(InputError, match="too badly scaled"):
        Symbol(num=[1.0], den=[1e300, 1e300, 1e-300])
    assert not Symbol(num=[1.0], den=[1e250, 1e200, 1.0]).is_polynomial  # poles near -1e200 and -1e50
