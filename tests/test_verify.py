"""The verification suite's entries: how they batch their work."""

import numpy as np

from csokit import indestructible, verify
from csokit.certify import (
    _nilpotent2_forms,
    canonical_block_decomposition,
    conjugation_for_nilpotent2,
    is_c_symmetric,
    nilpotent2_splitting,
    word_norm_gaps,
)
from csokit.ensembles import random_complex, random_cso, random_nilpotent2, stream
from csokit.indestructible import (
    _destructor_witnesses,
    _shift_coshift_products,
    destructor_witness,
    nilpotent2_tensor_conjugation,
    shift_coshift_product,
    swap_conjugation,
)
from csokit.linalg import Conjugation, direct_sum, operator_norm, tensor
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
