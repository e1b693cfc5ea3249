"""Desk-scale regression suite replaying every certified claim.

Each entry draws its own seeded ensemble, exercises one construction, and
reports a status with the residuals that justify it.  The suite is the
substance behind the `verify-paper` CLI subcommand and the acceptance tests;
entry order is fixed, and a whole report serializes byte-identically for a
fixed configuration.

A reported residual is the largest of a norm, or a ratio of norms, over
an entry's cases, with the bits that a batched SVD of every case gives it.
The order-two entry and the forward half of indestructibility take theirs
by ``_largest_norm``, over all their dimensions at once: Frobenius bounds
rule out every case that cannot pass the largest value so far, and only
the rest take an SVD (at seed 2026, 110 of the order-two entry's 1000
norms and 6 of the forward half's 100).  The other entries norm every
case, one batch per dimension; the words entry divides its gaps by
||T||^len(w) in one broadcast.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, ToolkitError
from . import serialize
from .certify import (
    _block_decomposition,
    _c_differences,
    _nilpotent2_conjugations,
    _nilpotent2_forms,
    _order_two_ruled_out,
    is_c_symmetric,
    word_norm_gaps,
)
from .ensembles import (
    _cso_draw,
    _nilpotent2_draw,
    _rotated,
    random_blaschke,
    random_complex,
    random_poly_symbol,
    stream,
)
from .indestructible import (
    _destructor_witnesses,
    _nilpotent2_tensor_conjugations,
    _shift_coshift_products,
    shift_coshift_truncation,
    shift_tensor_coshift_blocks,
    swap_conjugation,
)
from .linalg import (
    DEFAULT_TOL,
    FROBENIUS_FLOOR,
    Conjugation,
    check_count,
    direct_sum,
    operator_norm,
    operator_norms,
    singular_values,
)
from .modelspace import (
    DEFAULT_QUAD,
    ModelSpace,
    _check_quad_points,
    _fn_calculus_residual,
    _hankel_check,
    model_conjugation,
)
from .synthesis import _syntheses, synthesize_tto_for_nilpotent2
from .words import NORM_WORDS


@dataclass
class RunConfig:
    seed: int = 2026
    quad: int = DEFAULT_QUAD

    def __post_init__(self):
        self.seed = check_count(self.seed, "seed", least=0)
        self.quad = _check_quad_points(self.quad)


def _entry(name: str, claim: str, ok: bool, residuals: dict) -> dict:
    return {
        "name": name,
        "claim": claim,
        "status": "pass" if ok else "fail",
        "residuals": residuals,
    }


#: The relative margin on _largest_norm's bounds, far above the rounding of a
#: Frobenius norm, of LAPACK's largest singular value and of the bound's own
#: arithmetic, a few n eps each at these sizes.
_BOUND_MARGIN = 1e-6


def _bounds(N: np.ndarray, D) -> np.ndarray:
    """Upper bounds of the ratios ||N_j|| / ||D_j||, or of ||N_j|| for D None (see _largest_norm)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # inf bounds every case
        bound = N if N.ndim == 1 else np.maximum(np.linalg.norm(N, axis=(-2, -1)), FROBENIUS_FLOOR)
        if D is not None:
            fro = np.linalg.norm(D, axis=(-2, -1))
            bound = bound * math.sqrt(min(D.shape[-2:])) / fro
            bound[~((fro >= 2 * FROBENIUS_FLOOR) & (fro < math.inf))] = math.inf
        return bound * (1 + _BOUND_MARGIN)


def _norms(N: np.ndarray, D, cases) -> np.ndarray:
    """The ratios ||N_j|| / ||D_j|| (0 where ||D_j|| = 0), or ||N_j|| for D None, of the cases j."""
    if D is None:
        return operator_norms(N[cases])
    if N.ndim == 1:
        numerators, denominators = N[cases], operator_norms(D[cases])
    else:
        numerators, denominators = operator_norms([N[cases], D[cases]])
    with np.errstate(over="ignore"):  # inf, as the float quotient overflows
        return np.divide(numerators, denominators, out=np.zeros(len(cases)), where=denominators > 0)


def _largest_norm(terms) -> float:
    """The largest ||N_j|| / ||D_j|| (0 where ||D_j|| = 0), or ||N_j|| where D
    is None, over every case j of the (N, D) stacks of terms; 0 for no case.

    N is a (k, m, n) stack, or with D also the k numerator norms themselves,
    and D a stack of k matrices of N's shape.  Since ||M|| <= ||M||_F <=
    sqrt(min(m, n)) ||M||, case j is bounded above by ||N_j||_F
    sqrt(min(m, n)) / ||D_j||_F, times 1 + _BOUND_MARGIN.  In a numerator a
    Frobenius norm below FROBENIUS_FLOOR counts as that floor; below twice
    it in a denominator, or past the largest double, the case is unbounded.
    The case with the largest bound over all the stacks is normed first;
    then each stack, in one batch, norms its cases whose bound exceeds the
    largest value so far.  operator_norms of a sub-stack gives each matrix
    the bits of the full batch, and a ratio is the float quotient of two
    norms, so the value has the bits of the maximum over the full batches.
    """
    terms = [(np.asarray(N), D) for N, D in terms]
    bounds = [_bounds(N, D) for N, D in terms]
    first = max(range(len(terms)), key=lambda g: bounds[g].max(initial=-1.0), default=None)
    if first is None or not bounds[first].size:
        return 0.0
    top = int(bounds[first].argmax())
    value = bounds[first][top] = float(_norms(*terms[first], [top])[0])  # normed: no longer above
    for (N, D), bound in zip(terms, bounds):
        cases = np.flatnonzero(bound > value)
        if cases.size:
            value = max(value, float(_norms(N, D, cases).max()))
    return value


def _by_dimension(cases, dim) -> list[list]:
    """The cases grouped by dim(case), in draw order within and across the groups."""
    groups: dict[int, list] = {}
    for case in cases:
        groups.setdefault(dim(case), []).append(case)
    return list(groups.values())


def entry_order2_conjugations(cfg: RunConfig) -> dict:
    rng = stream(cfg.seed, 101)
    draws = [_nilpotent2_draw(rng, int(rng.integers(2, 13))) for _ in range(200)]
    cases = [T for T, _ in _rotated(draws)]
    c_symmetry, invariants = [], []
    for group in _by_dimension(cases, len):  # one kernel pass per dimension
        T = np.array(group)
        forms = _nilpotent2_forms(T, DEFAULT_TOL)
        W = np.array([form.W for form in forms])
        ranks = np.array([form.rank for form in forms])
        G = _nilpotent2_conjugations(W, ranks.tolist())
        # each form's canonical_matrix, by one scatter: s_i at row r + i, column i
        case = np.repeat(np.arange(len(forms)), ranks)
        i = np.arange(len(case)) - np.repeat(np.cumsum(ranks) - ranks, ranks)
        canonical = np.zeros_like(T)
        canonical[case, ranks[case] + i, i] = np.concatenate([form.singular_values for form in forms])
        # is_c_symmetric's residual, unitarity, symmetry and the canonical form of each case
        c_symmetry.append((_c_differences(T, G), T))
        unitarity = G @ G.conj().swapaxes(-1, -2) - np.eye(T.shape[-1])
        invariants.append((np.concatenate([unitarity, G - G.swapaxes(-1, -2)]), None))
        invariants.append((W @ T @ W.conj().swapaxes(-1, -2) - canonical, T))
    worst_sym, worst_inv = _largest_norm(c_symmetry), _largest_norm(invariants)
    ok = worst_sym <= 1e-9 and worst_inv <= 1e-9
    return _entry(
        "order2_conjugations",
        "every T with T^2 = 0 carries an explicit conjugation with T = C T* C",
        ok,
        {"symmetry": worst_sym, "invariants": worst_inv, "cases": 200},
    )


def entry_explicit_blocks(cfg: RunConfig) -> dict:
    rng = stream(cfg.seed, 102)
    cases = []
    for _ in range(50):
        k = int(rng.integers(1, 4))
        lam = np.sort(0.2 + 2.8 * rng.random(k))[::-1]
        T = np.zeros((2 * k, 2 * k), dtype=complex)
        T[k:, :k] = np.diag(lam)
        cases.append(T)
    worst = 0.0
    for group in _by_dimension(cases, len):  # one kernel pass and one norm batch per dimension
        T = np.array(group)
        decompositions = [_block_decomposition(form) for form in _nilpotent2_forms(T, DEFAULT_TOL)]
        W = np.array([unitary for _, unitary in decompositions])
        blocks = np.array([direct_sum(*blocks) for blocks, _ in decompositions])
        Wh = W.conj().swapaxes(-1, -2)
        norms = operator_norms([W @ T @ Wh - blocks, T, W @ Wh - np.eye(T.shape[-1])])
        for mapped, nrm, unitarity in norms.T.tolist():
            worst = max(worst, mapped / nrm, unitarity)
    ok = worst <= 1e-7
    return _entry(
        "explicit_2x2_blocks",
        "T^2 = 0 is unitarily equivalent to a direct sum of (s/2)[[1,i],[i,-1]] blocks",
        ok,
        {"equivalence": worst, "cases": 50},
    )


def entry_indestructibility(cfg: RunConfig) -> dict:
    rng = stream(cfg.seed, 103)
    draws, partners = [], []
    for _ in range(100):
        da = int(rng.integers(2, 5))
        db = int(rng.integers(1, 5))
        draws.append(_nilpotent2_draw(rng, da))
        partners.append(random_complex(rng, db, db))
    pairs = [(A, B) for (A, _), B in zip(_rotated(draws), partners)]
    forward = []
    # one kernel pass per size of A (x) B
    for group in _by_dimension(pairs, lambda pair: len(pair[0]) * len(pair[1])):
        T, _, c_norms = _nilpotent2_tensor_conjugations(*zip(*group))
        # is_c_symmetric's residual of each case, over the norms that verified it
        forward.append((c_norms, T))
    worst_forward = _largest_norm(forward)

    cases = []
    for _ in range(100):
        n = int(rng.integers(2, 6))
        while True:  # redraw until ||A^2|| > 0.1 ||A||^2
            A = random_complex(rng, n, n)
            # a Frobenius bound that rules order two out at 0.1 puts the ratio above 0.1
            if _order_two_ruled_out(A, 0.1):
                break
            square, nrm = operator_norms([A @ A, A]).tolist()
            if square > 0.1 * nrm**2:
                break
        cases.append(A)
    worst_exact = 0.0
    min_wA = np.inf
    all_destroyed = True
    for group in _by_dimension(cases, len):  # one word pass and one norm batch per dimension
        for cert in _destructor_witnesses(group, 1.0, 2.0):
            worst_exact = max(worst_exact, abs(cert.norm_wB - 2.0), abs(cert.norm_wB_rev - 4.0))
            min_wA = min(min_wA, cert.norm_wA)
            all_destroyed = all_destroyed and cert.conclusion == "destroyed"
    ok = worst_forward <= 1e-9 and worst_exact <= 1e-10 and min_wA > 1e-6 and all_destroyed
    return _entry(
        "indestructibility",
        "A (x) B stays complex symmetric for every B exactly when A^2 = 0; "
        "otherwise the 3x3 witness with word yx^2 destroys it",
        ok,
        {
            "forward_conjugation": worst_forward,
            "witness_norm_error": worst_exact,
            "min_norm_wA": min_wA,
            "cases": 200,
        },
    )


def entry_tensor_reflected_adjoint(cfg: RunConfig) -> dict:
    rng = stream(cfg.seed, 104)
    cases = []
    for _ in range(50):
        n = int(rng.integers(2, 6))
        cases.append(random_complex(rng, n, n))
    worst = 0.0
    for group in _by_dimension(cases, len):  # one product pass and one norm batch per dimension
        J = Conjugation.identity(len(group[0]))
        T = _shift_coshift_products(J, np.array(group))
        # is_c_symmetric's two norms of each case
        differences = _c_differences(T, swap_conjugation(J).matrix)
        for nrm, c_norm in operator_norms([T, differences]).T.tolist():
            worst = max(worst, c_norm / nrm if nrm > 0 else 0.0)
    ok = worst <= 1e-9
    return _entry(
        "tensor_with_reflected_adjoint",
        "A (x) (J A* J) is complex symmetric under the factor-swap conjugation",
        ok,
        {"symmetry": worst, "cases": 50},
    )


def entry_shift_coshift_blocks(cfg: RunConfig) -> dict:
    N = 8
    blocks = shift_tensor_coshift_blocks(N)
    sizes_ok = [d for d, _ in blocks] == list(range(1, N + 1))
    chains_ok = True
    for d, b in blocks:
        powers = np.linalg.matrix_power(b, d - 1) if d > 1 else np.eye(1)
        chains_ok = chains_ok and (
            operator_norm(np.linalg.matrix_power(b, d)) < 1e-12
            and (d == 1 or operator_norm(powers) > 1e-12)
            and bool(np.linalg.matrix_rank(b) == d - 1)
        )
    full = shift_coshift_truncation(N)
    sv_gap = float(
        np.max(
            np.abs(
                np.sort(singular_values(direct_sum(*(b for _, b in blocks))))
                - np.sort(singular_values(full))
            )
        )
    )
    ok = sizes_ok and chains_ok and sv_gap <= 1e-10
    return _entry(
        "shift_coshift_blocks",
        "the truncated shift (x) co-shift splits into one Jordan chain per "
        "homogeneous degree",
        ok,
        {"block_sizes_1_to_8": sizes_ok, "single_chains": chains_ok, "sv_gap": sv_gap},
    )


def entry_tto_suite(cfg: RunConfig) -> dict:
    rng = stream(cfg.seed, 106)
    worst_sym = worst_calc = worst_h256 = worst_h512 = 0.0
    hankel_error = ""
    # case by case in draw order, each raising as its own public calls would:
    # T is phi(A_u) on the case's one space (tto_matrix would build another),
    # which on the quad grid is sampled once, for its Gram check, the
    # fn-calculus and the M = 256 check, whose fine grid it is at quad >= 1024,
    # and phi once on its nodes, for the fn-calculus and every Hankel check
    # that runs on that grid
    for _ in range(30):
        u = random_blaschke(rng, int(rng.integers(1, 9)), max_modulus=0.8)
        phi = random_poly_symbol(rng, int(rng.integers(0, 5)))
        ms = ModelSpace(u, cfg.quad)
        T = ms.tto(phi)
        worst_sym = max(worst_sym, is_c_symmetric(T, model_conjugation(u, cfg.quad), tol=1e-8)[1])
        ms.require_resolved()
        on_nodes = phi.eval(ms.nodes)
        worst_calc = max(worst_calc, _fn_calculus_residual(ms, on_nodes, T))
        try:
            worst_h256 = max(worst_h256, _hankel_check(ms, phi, 256, T, on_nodes))
            worst_h512 = max(worst_h512, _hankel_check(ms, phi, 512, T, on_nodes))
        except AccuracyError as exc:
            hankel_error = str(exc)
    ok = (
        worst_sym <= 1e-8
        and worst_calc <= 1e-8
        and worst_h256 <= 1e-6
        and worst_h512 < 1e-6
        and not hankel_error
    )
    return _entry(
        "tto_model_space",
        "analytic truncated Toeplitz operators are symmetric under the model "
        "conjugation, obey the polynomial calculus, and factor through a "
        "Hankel section",
        ok,
        {
            "c_symmetry": worst_sym,
            "fn_calculus": worst_calc,
            "hankel_M256": worst_h256,
            "hankel_M512": worst_h512,
            "hankel_error": hankel_error,
            "cases": 30,
        },
    )


def entry_synthesis_roundtrip(cfg: RunConfig) -> dict:
    rng = stream(cfg.seed, 107)
    successes = 0
    false_success = False
    worst_success = 0.0
    draws = []
    for _ in range(50):
        dim = int(rng.integers(2, 9))
        rank = int(rng.integers(1, min(3, dim // 2) + 1))
        draws.append(_nilpotent2_draw(rng, dim, rank))
    cases = [N for N, _ in _rotated(draws)]
    for group in _by_dimension(cases, len):  # one synthesis pass and one norm batch per dimension
        N = np.array(group)
        for res, nrm in zip(_syntheses(N), operator_norms(N).tolist()):
            good = res.equivalence_residual <= 1e-6 * nrm
            if good:
                successes += 1
                worst_success = max(worst_success, res.equivalence_residual / nrm)
            if res.converged and not good:
                false_success = True

    s = 0.5 + 2.5 * rng.random()
    exact = synthesize_tto_for_nilpotent2(np.array([[0, 0], [s, 0]]))
    exact_ok = (
        exact.equivalence_residual <= 1e-10
        and exact.u_total.zeros == (0j, 0j)
        and np.allclose(exact.symbol_total.poly, [0.0, s], atol=1e-12)
    )
    # a fixed rank-4 round trip, whose modulus has a closed form
    N4 = np.zeros((8, 8))
    N4[4:, :4] = np.diag([4.0, 3.0, 2.0, 1.0])
    rank4 = synthesize_tto_for_nilpotent2(N4).equivalence_residual
    ok = successes == 50 and not false_success and exact_ok and rank4 <= 1e-10
    return _entry(
        "synthesis_roundtrip",
        "a nilpotent of order two is unitarily equivalent to an analytic "
        "truncated Toeplitz operator built on a doubled model space",
        ok,
        {
            "successes": successes,
            "cases": 50,
            "false_success": false_success,
            "worst_relative_residual": worst_success,
            "rank1_exact_residual": exact.equivalence_residual,
            "rank4_exact_residual": rank4,
        },
    )


def entry_word_identities(cfg: RunConfig) -> dict:
    rng = stream(cfg.seed, 108)
    cases = [T for T, _ in _rotated([_cso_draw(rng, int(rng.integers(2, 7))) for _ in range(100)])]
    lengths = np.array([len(w) for w in NORM_WORDS])
    worst = 0.0
    for Ts in _by_dimension(cases, len):  # one word pass and one norm batch per dimension
        gaps = word_norm_gaps(np.array(Ts), NORM_WORDS)
        # ||T||^L for L = 1..5 as Python's float power takes it (numpy's may differ
        # in the last bit), broadcast to each word's row
        nrms = operator_norms(Ts).tolist()
        powers = np.array([[nrm**length for nrm in nrms] for length in range(1, 6)])
        worst = max(worst, float((gaps / powers[lengths - 1]).max()))
    ok = worst <= 1e-8
    return _entry(
        "word_norm_identities",
        "a complex symmetric T satisfies ||w(T,T*)|| = ||w(T*,T)|| for all 62 "
        "words of length at most 5",
        ok,
        {"worst_scaled_gap": worst, "cases": 100, "words": len(NORM_WORDS)},
    )


ENTRIES = (
    entry_order2_conjugations,
    entry_explicit_blocks,
    entry_indestructibility,
    entry_tensor_reflected_adjoint,
    entry_shift_coshift_blocks,
    entry_tto_suite,
    entry_synthesis_roundtrip,
    entry_word_identities,
)


def run_suite(cfg: RunConfig | None = None) -> dict:
    """Run all entries once and assemble the canonical report."""
    cfg = cfg or RunConfig()
    entries = [fn(cfg) for fn in ENTRIES]
    return {
        "config": {"seed": cfg.seed, "quad": cfg.quad},
        "entries": entries,
        "all_pass": all(e["status"] == "pass" for e in entries),
    }


def _fresh_global_rng() -> None:
    """Reseed numpy's legacy global RNG from fresh entropy.

    A forked worker starts from its parent's RNG state, so without this a
    pass that read the global generator would draw the same values in both
    passes and still compare byte-identical.  Python's ``random`` reseeds
    itself in a forked child.
    """
    np.random.seed()


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1


def _concurrent_passes(cfg: RunConfig) -> tuple[dict, dict]:
    """Two suite runs: one here, one at the same time in a one-worker process pool.

    The worker is forked where the platform allows, so it inherits the
    imported modules.  A ToolkitError in its pass re-raises here; a worker
    that dies without a result is reported as a ToolkitError.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if fork else None)
    with ProcessPoolExecutor(1, mp_context=context, initializer=_fresh_global_rng) as pool:
        rerun = pool.submit(run_suite, cfg)
        first = run_suite(cfg)
        try:
            return first, rerun.result()
        except BrokenProcessPool as exc:
            raise ToolkitError(f"the determinism worker died without a result: {exc}") from None


def run_suite_with_determinism(cfg: RunConfig | None = None) -> dict:
    """Run the suite twice; append an entry certifying byte-identical reports.

    With two or more usable CPUs the second pass runs in a worker process
    while this one runs the first.  On one CPU the two passes could only
    time-share, which measured slower than running them one after the other
    here, so they run here in turn.
    """
    cfg = cfg or RunConfig()
    if _usable_cpus() < 2:
        first, second = run_suite(cfg), run_suite(cfg)
    else:
        first, second = _concurrent_passes(cfg)
    identical = serialize.dumps(first) == serialize.dumps(second)
    first["entries"].append(
        _entry(
            "determinism",
            "an identical run configuration yields a byte-identical report",
            identical,
            {"identical": identical},
        )
    )
    first["all_pass"] = first["all_pass"] and identical
    return first
