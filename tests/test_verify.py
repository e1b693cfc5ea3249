"""The verification suite's entries: how they batch their work."""

import subprocess
import sys

import numpy as np
import pytest

from csokit import indestructible, modelspace, serialize, verify
from csokit.certify import (
    _nilpotent2_forms,
    canonical_block_decomposition,
    conjugation_for_nilpotent2,
    is_c_symmetric,
    nilpotent2_splitting,
    word_norm_gaps,
)
from csokit.ensembles import (
    random_blaschke,
    random_complex,
    random_cso,
    random_nilpotent2,
    random_poly_symbol,
    stream,
)
from csokit.errors import AccuracyError, CapacityError
from csokit.indestructible import (
    _destructor_witnesses,
    _shift_coshift_products,
    destructor_witness,
    nilpotent2_tensor_conjugation,
    shift_coshift_product,
    swap_conjugation,
)
from csokit.linalg import Conjugation, direct_sum, operator_norm, tensor
from csokit.modelspace import (
    BlaschkeProduct,
    fn_calculus_check,
    model_conjugation,
    tto_matrix,
    verify_hankel_factorization,
)
from csokit.synthesis import _syntheses, synthesize_tto_for_nilpotent2
from csokit.words import iter_words


def one_pass_per_dimension(shapes, dims):
    assert [shape[1:] for shape in shapes] == [(n, n) for n in dict.fromkeys(dims)]
    assert [shape[0] for shape in shapes] == [dims.count(n) for n in dict.fromkeys(dims)]


def test_word_identities_take_one_word_pass_per_dimension(monkeypatch):
    cfg = verify.RunConfig(seed=7)
    stacks = []

    def recording(T, words):
        stacks.append(np.shape(T))
        return word_norm_gaps(T, words)

    monkeypatch.setattr(verify, "word_norm_gaps", recording)
    entry = verify.entry_word_identities(cfg)

    # the same draws, one matrix at a time, as the entry made them before it stacked them
    rng = stream(cfg.seed, 108)
    words = list(iter_words(5))
    dims, worst = [], 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        T, _ = random_cso(rng, n)
        nrm = operator_norm(T)
        dims.append(n)
        worst = max(worst, float((word_norm_gaps(T, words) / np.array([nrm ** len(w) for w in words])).max()))
    assert [shape[1:] for shape in stacks] == [(n, n) for n in dict.fromkeys(dims)]
    assert sorted(shape[0] for shape in stacks) == sorted(dims.count(n) for n in set(dims))
    assert entry["residuals"]["worst_scaled_gap"] == worst


def test_order_two_entries_take_one_splitting_pass_per_dimension(monkeypatch):
    cfg = verify.RunConfig(seed=7)
    stacks = []

    def recording(T, tol):
        stacks.append(np.shape(T))
        return _nilpotent2_forms(T, tol)

    monkeypatch.setattr(verify, "_nilpotent2_forms", recording)
    monkeypatch.setattr(indestructible, "_nilpotent2_forms", recording)

    def passes(entry):
        stacks.clear()
        return entry(cfg)["residuals"], list(stacks)

    # the same draws, one matrix at a time through the public k = 1 calls
    residuals, shapes = passes(verify.entry_order2_conjugations)
    rng = stream(cfg.seed, 101)
    dims, worst_sym, worst_inv = [], 0.0, 0.0
    for _ in range(200):
        T = random_nilpotent2(rng, int(rng.integers(2, 13)))
        form = nilpotent2_splitting(T)
        C = conjugation_for_nilpotent2(form)
        nrm = operator_norm(T)
        canonical = operator_norm(form.W @ T @ form.W.conj().T - form.canonical_matrix())
        dims.append(len(T))
        worst_sym = max(worst_sym, is_c_symmetric(T, C)[1])
        worst_inv = max(worst_inv, C.unitarity_residual(), C.symmetry_residual(), canonical / nrm)
    one_pass_per_dimension(shapes, dims)
    assert (residuals["symmetry"], residuals["invariants"]) == (worst_sym, worst_inv)

    residuals, shapes = passes(verify.entry_explicit_blocks)
    rng = stream(cfg.seed, 102)
    dims, worst = [], 0.0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        T = np.zeros((2 * k, 2 * k), dtype=complex)
        T[k:, :k] = np.diag(np.sort(0.2 + 2.8 * rng.random(k))[::-1])
        blocks, W = canonical_block_decomposition(T)
        dims.append(2 * k)
        mapped = operator_norm(W @ T @ W.conj().T - direct_sum(*blocks)) / operator_norm(T)
        worst = max(worst, mapped, operator_norm(W @ W.conj().T - np.eye(2 * k)))
    one_pass_per_dimension(shapes, dims)
    assert residuals["equivalence"] == worst

    residuals, shapes = passes(verify.entry_indestructibility)
    rng = stream(cfg.seed, 103)
    dims, worst = [], 0.0
    for _ in range(100):
        da, db = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        A, B = random_nilpotent2(rng, da), random_complex(rng, db, db)
        dims.append(da * db)
        worst = max(worst, is_c_symmetric(tensor(A, B), nilpotent2_tensor_conjugation(A, B))[1])
    one_pass_per_dimension(shapes, dims)
    assert residuals["forward_conjugation"] == worst


def test_destructor_and_reflected_adjoint_entries_take_one_pass_per_dimension(monkeypatch):
    cfg = verify.RunConfig(seed=7)
    stacks = []

    def witnesses(As, alpha, beta):
        stacks.append(np.shape(As))
        return _destructor_witnesses(As, alpha, beta)

    def products(J, A):
        stacks.append(np.shape(A))
        return _shift_coshift_products(J, A)

    monkeypatch.setattr(verify, "_destructor_witnesses", witnesses)
    monkeypatch.setattr(verify, "_shift_coshift_products", products)

    # the converse half's draws, one matrix at a time through the public k = 1 call, with the
    # redraw test decided by SVD alone
    residuals = verify.entry_indestructibility(cfg)["residuals"]
    rng = stream(cfg.seed, 103)
    for _ in range(100):
        da, db = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        random_nilpotent2(rng, da), random_complex(rng, db, db)
    dims, worst, min_wA, destroyed = [], 0.0, np.inf, True
    for _ in range(100):
        n = int(rng.integers(2, 6))
        while True:
            A = random_complex(rng, n, n)
            if operator_norm(A @ A) > 0.1 * operator_norm(A) ** 2:
                break
        cert = destructor_witness(A, 1.0, 2.0)
        dims.append(n)
        worst = max(worst, abs(cert.norm_wB - 2.0), abs(cert.norm_wB_rev - 4.0))
        min_wA = min(min_wA, cert.norm_wA)
        destroyed = destroyed and cert.conclusion == "destroyed"
    one_pass_per_dimension(stacks, dims)
    assert (residuals["witness_norm_error"], residuals["min_norm_wA"]) == (worst, min_wA)
    assert destroyed

    stacks.clear()
    residuals = verify.entry_tensor_reflected_adjoint(cfg)["residuals"]
    rng = stream(cfg.seed, 104)
    dims, worst = [], 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        J = Conjugation.identity(n)
        T = shift_coshift_product(J, random_complex(rng, n, n))
        dims.append(n)
        worst = max(worst, is_c_symmetric(T, swap_conjugation(J, n))[1])
    one_pass_per_dimension(stacks, dims)
    assert residuals["symmetry"] == worst


def per_case_tto_suite(cfg):
    """entry_tto_suite's residuals, each case through the public k = 1 calls in draw order."""
    rng = stream(cfg.seed, 106)
    worst_sym = worst_calc = worst_h256 = worst_h512 = 0.0
    hankel_error = ""
    for _ in range(30):
        u = random_blaschke(rng, int(rng.integers(1, 9)), max_modulus=0.8)
        phi = random_poly_symbol(rng, int(rng.integers(0, 5)))
        A = tto_matrix(u, phi)
        worst_sym = max(worst_sym, is_c_symmetric(A, model_conjugation(u, cfg.quad), tol=1e-8)[1])
        worst_calc = max(worst_calc, fn_calculus_check(u, phi, cfg.quad))
        try:
            worst_h256 = max(worst_h256, verify_hankel_factorization(u, phi, 256, cfg.quad))
            worst_h512 = max(worst_h512, verify_hankel_factorization(u, phi, 512, cfg.quad))
        except AccuracyError as exc:
            hankel_error = str(exc)
    return {
        "c_symmetry": worst_sym,
        "fn_calculus": worst_calc,
        "hankel_M256": worst_h256,
        "hankel_M512": worst_h512,
        "hankel_error": hankel_error,
        "cases": 30,
    }


def test_model_space_checks_equal_their_per_case_calls_byte_for_byte():
    # a mixed-degree stream, degree 0 included, stacked by degree as the entry stacks it
    rng = stream(31, 4)
    cases = []
    for _ in range(40):
        u = random_blaschke(rng, int(rng.integers(0, 9)), max_modulus=0.9)
        cases.append((u, random_poly_symbol(rng, int(rng.integers(0, 5)))))
    for quad in (256, 1024):
        for group in verify._by_dimension(cases, lambda case: case[0].degree):
            us, phis = [u for u, _ in group], [phi for _, phi in group]
            checks = verify._model_space_checks(us, phis, quad)
            for (u, phi), check in zip(group, checks):
                t = tto_matrix(u, phi)
                C = model_conjugation(u, quad)
                assert check[0].matrix.tobytes() == C.matrix.tobytes()
                assert check[1] == is_c_symmetric(t, C, tol=1e-8)[1]
                assert check[2] <= modelspace.GRAM_TOL
                assert check[3] == fn_calculus_check(u, phi, quad)
                assert check[4:] == (
                    verify_hankel_factorization(u, phi, 256, quad),
                    verify_hankel_factorization(u, phi, 512, quad),
                )
    assert verify._model_space_checks([], [], 1024) == []


def test_tto_suite_equals_the_per_case_loop():
    for cfg in (verify.RunConfig(seed=7), verify.RunConfig(seed=2026, quad=256)):
        assert verify.entry_tto_suite(cfg)["residuals"] == per_case_tto_suite(cfg)
    # an unresolved grid raises the first failing case's own error
    cfg = verify.RunConfig(seed=2026, quad=64)
    with pytest.raises(AccuracyError) as stacked:
        verify.entry_tto_suite(cfg)
    with pytest.raises(AccuracyError) as per_case:
        per_case_tto_suite(cfg)
    assert str(stacked.value) == str(per_case.value)


def test_a_hankel_accuracy_error_leaves_the_entry_as_the_per_case_loop_does(monkeypatch):
    # with no cap every residual retries at doubled truncation, and each case
    # whose doubled residual does not fall raises
    monkeypatch.setattr(modelspace, "HANKEL_RESIDUAL_CAP", 0.0)
    cfg = verify.RunConfig(seed=7)
    residuals = verify.entry_tto_suite(cfg)["residuals"]
    assert "did not decrease" in residuals["hankel_error"]
    assert residuals == per_case_tto_suite(cfg)


def test_degree_groups_past_the_sampling_cap_are_split_into_stacks_within_it(monkeypatch):
    # at quad 1024 the finest grid, the M = 512 retry's, has 4096 nodes: this
    # cap takes one degree-8 case per stack and eight degree-1 cases
    cap = 8 * 4096
    monkeypatch.setattr(modelspace, "SAMPLE_CAP", cap)
    stacks = []

    class Recording(modelspace._ModelSpaces):
        def __init__(self, us, quad_points):
            super().__init__(us, quad_points)
            stacks.append((len(self.us), self.dim))

    monkeypatch.setattr(verify, "_ModelSpaces", Recording)
    cfg = verify.RunConfig(seed=7)
    assert verify.entry_tto_suite(cfg)["residuals"] == per_case_tto_suite(cfg)
    assert sum(k for k, _ in stacks) == 30
    assert max(k * dim * 4096 for k, dim in stacks) <= cap
    assert max(k for k, _ in stacks) > 1
    # a stack past the cap is refused before it is sampled
    u = BlaschkeProduct((0.5,) * 8)
    with pytest.raises(CapacityError, match="16 basis functions on 4096 nodes"):
        modelspace._ModelSpaces([u, u], 4096).basis_samples


def test_synthesis_entry_equals_its_per_case_calls_byte_for_byte(monkeypatch):
    # a mixed-dimension, mixed-rank stream, rank 0 included
    rng = stream(37, 2)
    cases = []
    for _ in range(30):
        dim = int(rng.integers(1, 9))
        cases.append(random_nilpotent2(rng, dim, int(rng.integers(0, dim // 2 + 1))))
    for group in verify._by_dimension(cases, len):
        for got, N in zip(_syntheses(np.array(group)), group):
            want = synthesize_tto_for_nilpotent2(N)
            for name in ("W", "tto"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert got.equivalence_residual == want.equivalence_residual
            assert got.converged == want.converged
            assert got.u_total == want.u_total
            assert got.symbol_total.num.tobytes() == want.symbol_total.num.tobytes()
            assert (got.modulus is None) == (want.modulus is None)
    assert _syntheses(np.zeros((0, 3, 3))) == []

    stacks = []

    def recording(A):
        stacks.append(np.shape(A))
        return _syntheses(A)

    monkeypatch.setattr(verify, "_syntheses", recording)
    cfg = verify.RunConfig(seed=7)
    residuals = verify.entry_synthesis_roundtrip(cfg)["residuals"]
    rng = stream(cfg.seed, 107)
    dims, successes, worst = [], 0, 0.0
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        N = random_nilpotent2(rng, dim, int(rng.integers(1, min(3, dim // 2) + 1)))
        res, nrm = synthesize_tto_for_nilpotent2(N), operator_norm(N)
        dims.append(dim)
        if res.equivalence_residual <= 1e-6 * nrm:
            successes += 1
            worst = max(worst, res.equivalence_residual / nrm)
    one_pass_per_dimension(stacks, dims)
    assert (residuals["successes"], residuals["worst_relative_residual"]) == (successes, worst)


def test_two_suite_runs_in_one_process_equal_a_fresh_process():
    cfg = verify.RunConfig(seed=7)
    first, second = (serialize.dumps(verify.run_suite(cfg)) for _ in range(2))
    probe = (
        "from csokit import serialize, verify\n"
        "print(serialize.dumps(verify.run_suite(verify.RunConfig(seed=7))), end='')"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=300
    )
    assert fresh.returncode == 0, fresh.stderr
    assert first == second == fresh.stdout
