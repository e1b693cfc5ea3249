"""The verification suite's entries: how they batch their work."""

import functools
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from csokit.errors import AccuracyError
from csokit.indestructible import (
    _destructor_witnesses,
    _shift_coshift_products,
    destructor_witness,
    nilpotent2_tensor_conjugation,
    shift_coshift_product,
    swap_conjugation,
)
from csokit.linalg import (
    Conjugation,
    _screened_norms,
    direct_sum,
    operator_norm,
    operator_norms,
    tensor,
)
from csokit.modelspace import (
    fn_calculus_check,
    model_conjugation,
    tto_matrix,
    verify_hankel_factorization,
)
from csokit.synthesis import _syntheses, synthesize_tto_for_nilpotent2
from csokit.words import NORM_WORDS


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
    words = NORM_WORDS
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


def drawn_matrix(rng, kind, shape, exponent):
    """A matrix of the given kind and shape, scaled by 2^exponent: a Gaussian
    one, a rank-one one (||M|| = ||M||_F), an isometry (||M|| = ||M||_F /
    sqrt(min(m, n))) or zero."""
    m, n = shape
    if kind == "zero":
        return np.zeros(shape, dtype=complex)
    if kind == "rank_one":
        M = random_complex(rng, m, 1) @ random_complex(rng, 1, n)
    elif kind == "isometry":
        Q = np.linalg.qr(random_complex(rng, max(m, n), min(m, n)))[0]
        M = (0.5 + rng.random()) * (Q if m >= n else Q.conj().T)
    else:
        M = random_complex(rng, m, n)
    return np.ldexp(M.real, exponent) + 1j * np.ldexp(M.imag, exponent)


KINDS = st.sampled_from(["general", "rank_one", "isometry", "zero"])
EXPONENTS = st.sampled_from([-540, -500, 0, 500, 520])
# a stack's shape, its form, and each case's kinds, its exponents about the
# stacks' and whether it repeats the case before it
STACKS = st.tuples(
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    st.sampled_from(["ratio", "given numerators", "norm"]),
    st.lists(
        st.tuples(KINDS, st.integers(-1, 1), KINDS, st.integers(-1, 1), st.booleans()),
        min_size=1,
        max_size=12,
    ),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    stacks=st.lists(STACKS, min_size=1, max_size=3),
    exponents=st.tuples(EXPONENTS, EXPONENTS),
)
def test_the_largest_norm_is_the_maximum_of_the_full_batch_bit_for_bit(seed, stacks, exponents):
    # rank-one numerators and isometric denominators meet the Frobenius
    # bounds; zero matrices, ties, and norms whose Frobenius sums overflow
    # (2^520) or underflow (2^-540) are included
    rng = stream(seed, 5)
    terms, want = [], 0.0
    for shape, form, cases in stacks:
        N, D = [], []
        for num_kind, num_shift, den_kind, den_shift, tie in cases:
            if tie and N:
                N.append(N[-1])
                D.append(D[-1])
            else:
                N.append(drawn_matrix(rng, num_kind, shape, exponents[0] + num_shift))
                D.append(drawn_matrix(rng, den_kind, shape, exponents[1] + den_shift))
        N, D = np.array(N), np.array(D)
        numerators = operator_norms(N).tolist()
        if form == "norm":
            want = max([want, *numerators])
            terms.append((N, None))
        else:
            for c_norm, nrm in zip(numerators, operator_norms(D).tolist()):
                want = max(want, c_norm / nrm if nrm > 0 else 0.0)
            terms.append((numerators if form == "given numerators" else N, D))
    got = verify._largest_norm(terms)
    assert type(got) is float and got.hex() == want.hex()


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    cases=st.lists(st.tuples(KINDS, EXPONENTS, st.integers(-1, 1)), min_size=1, max_size=12),
    cut=st.one_of(st.sampled_from([1e-300, 1e-150, 2.0**-480, 1e-9, 1e-8]), st.floats(1e-300, 1.0)),
)
def test_the_norm_screen_decides_each_norm_against_its_cut(seed, shape, cases, cut):
    # linalg's screen, on the stacks of _largest_norm's test: rank-one
    # matrices have ||M|| = ||M||_F, and at 2^-540 the Frobenius sum of
    # squares underflows, where only the floor keeps the value an upper bound
    # it is screened as drawn, one matrix at a time (k = 1), and as a stack
    # of 60 cases that ends in a finite matrix of entries 1e160, whose sum of
    # squares overflows but which keeps its SVD value
    rng = stream(seed, 6)
    M = np.array([drawn_matrix(rng, kind, shape, e + shift) for kind, e, shift in cases])
    big = np.full((1, *shape), 1e160, dtype=complex)
    for stack in (M, *M[:, None], np.concatenate([np.resize(M, (59, *shape)), big])):
        got, want = _screened_norms(stack, cut), operator_norms(stack)
        above = got > cut
        assert got[above].tolist() == want[above].tolist()
        assert np.all(got[~above] >= want[~above] * (1 - 1e-13))
    assert got[-1] == want[-1] == operator_norms(big)[0]


def test_the_largest_norm_norms_each_case_that_its_bound_cannot_rule_out():
    # a rank-one N_0 whose SVD norm exceeds its Frobenius norm by rounding,
    # behind a case whose norm is that Frobenius norm exactly: only the
    # margin keeps N_0
    rng = stream(18, 9)
    N0 = random_complex(rng, 3, 1) @ random_complex(rng, 1, 3)
    fro = float(np.linalg.norm(N0))
    assert operator_norm(N0) > fro
    N1 = np.diag([fro, 1e-3, 0.0]).astype(complex)
    assert verify._largest_norm([(np.array([N0, N1]), None)]) == operator_norm(N0)
    # a rank-one N over an isometry has ratio ||N||_F sqrt(4) / ||D||_F = 1,
    # which only the sqrt(rank) factor bounds; it sits behind a case bounded
    # by 2 - 2^-29 whose ratio is 1 - 2^-30
    e = np.zeros((4, 4), dtype=complex)
    e[0, 0] = 1.0
    N = np.array([e, (1 - 2.0**-30) * e])
    D = np.array([np.eye(4), e])
    assert verify._largest_norm([(N, D)]) == 1.0
    assert verify._largest_norm([(N[1:], D[1:]), (N[:1], D[:1])]) == 1.0
    assert verify._largest_norm([]) == 0.0


def test_the_order_two_entry_norms_only_the_cases_that_can_set_its_maxima(monkeypatch):
    # its 200 cases have 1000 norms: T, the c-symmetry difference, unitarity,
    # symmetry and the canonical form
    normed = []

    def recording(Ms):
        normed.append(int(np.prod(np.shape(Ms)[:-2])))
        return operator_norms(Ms)

    monkeypatch.setattr(verify, "operator_norms", recording)
    verify.entry_order2_conjugations(verify.RunConfig(seed=2026))
    assert sum(normed) < 200


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
        worst = max(worst, is_c_symmetric(T, swap_conjugation(J))[1])
    one_pass_per_dimension(stacks, dims)
    assert residuals["symmetry"] == worst


def per_case_tto_suite(cfg):
    """entry_tto_suite's residuals, each case through the public calls in draw order."""
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


def recorded_samplings(monkeypatch):
    """The (zeros, node count) of each space that samples, and of each
    _boundary_samples pass, recorded as they happen."""
    spaces, passes = [], []
    take, sample = modelspace.ModelSpace._samples.func, modelspace._boundary_samples

    def recording(ms):
        spaces.append((ms.u.zeros, ms.quad_points))
        return take(ms)

    def sampling(u, z):
        passes.append((u.zeros, len(z)))
        return sample(u, z)

    samples = functools.cached_property(recording)
    samples.__set_name__(modelspace.ModelSpace, "_samples")
    monkeypatch.setattr(modelspace.ModelSpace, "_samples", samples)
    monkeypatch.setattr(modelspace, "_boundary_samples", sampling)
    return spaces, passes


def test_the_tto_suite_samples_each_case_on_its_quad_grid_and_the_fine_grid_only(monkeypatch):
    # one space on the quad grid serves the Gram check, the fn-calculus and
    # M = 256; M = 512 runs on a 2048-node space, which samples all its nodes
    spaces, passes = recorded_samplings(monkeypatch)
    assert verify.entry_tto_suite(verify.RunConfig(seed=7))["status"] == "pass"
    assert len(set(spaces)) == len(spaces) == 60
    assert sorted(Counter(zeros for zeros, _ in spaces).values()) == [2] * 30
    assert sorted(Q for _, Q in spaces) == [1024] * 30 + [2048] * 30
    assert sorted(Counter(zeros for zeros, _ in passes).values()) == [2] * 30
    assert sorted(size for _, size in passes) == [1024] * 30 + [2048] * 30


def test_the_tto_suite_evaluates_each_symbol_once_on_its_quad_grid(monkeypatch):
    # the fn-calculus and every Hankel check whose fine grid is the quad grid
    # share one evaluation of phi there: M = 256 at quad 1024, and every
    # truncation at quad 65536; M = 512 at quad 1024 evaluates phi on 2048
    # nodes, as verify_hankel_factorization does
    evaluated = []
    evaluate = modelspace.Symbol.eval

    def recording(phi, z):
        evaluated.append((phi, np.size(z)))  # phi held, so no id is reused
        return evaluate(phi, z)

    monkeypatch.setattr(modelspace.Symbol, "eval", recording)
    for quad, fine in ((1024, [2048]), (65536, [])):
        evaluated.clear()
        assert verify.entry_tto_suite(verify.RunConfig(seed=7, quad=quad))["status"] == "pass"
        counts = Counter(evaluated)
        assert len(counts) == 30 * (1 + len(fine)) and set(counts.values()) == {1}
        assert sorted(Counter(size for _, size in evaluated)) == sorted([quad, *fine])


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
