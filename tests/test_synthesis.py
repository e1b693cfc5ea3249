"""Modulus realization and the synthesis round trip."""

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from csokit import modelspace, synthesis
from csokit.ensembles import random_nilpotent2, random_unitary, stream
from csokit.errors import InputError, PreconditionError
from csokit.linalg import operator_norm, singular_values
from csokit.modelspace import tto_matrix
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
    m = realize_modulus([1.5, 1.5, 1.5])
    assert m.converged and m.residual <= 1e-10
    assert m.u.zeros == (0j, 0j, 0j)
    assert np.allclose(m.phi.poly, [1.5])


def test_realize_modulus_refuses_targets_that_are_not_1d():
    # np.frexp of a row used to leak a TypeError; np.sort of a scalar an AxisError
    for targets in ([[1.0, 2.0], [3.0, 4.0]], 2.0):
        with pytest.raises(InputError, match="1-d"):
            realize_modulus(targets)


def test_realize_modulus_rank_two_closed_form():
    m = realize_modulus([2.0, 1.0])
    assert m.converged and m.residual <= 1e-10
    assert m.u.zeros == (0j, 0j)
    assert np.allclose(m.phi.poly, [np.sqrt(2.0), 1.0], atol=1e-12)
    assert np.allclose(np.sort(m.achieved_singular_values), [1.0, 2.0], atol=1e-10)


def test_realize_modulus_rank_three_search():
    m = realize_modulus([2.5, 1.3, 0.4])
    assert m.converged
    got = np.sort(m.achieved_singular_values)[::-1]
    assert np.max(np.abs(got - [2.5, 1.3, 0.4])) <= 1e-6 * 2.5


def test_realize_modulus_wide_spread_reaches_machine_precision():
    # ranks 3-6 with largest/smallest target up to ~3000: the closed form or
    # the Newton fit must reach the 1e-12 relative stopping threshold, not
    # just converge
    rng = stream(19, 3)
    for case in range(24):
        rank = 3 + case % 4
        spread = 3000.0 ** rng.random() if case % 3 else 3000.0
        t = np.exp(rng.uniform(0.0, np.log(spread), rank))
        t[:2] = 1.0, spread  # pin both ends of the spread
        m = realize_modulus(t)
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
    c = rng.standard_normal(r)
    s, J = _modulus_jacobian(c)
    assert J.shape == (r, r) and J.dtype == np.float64
    # the complex SVD of the same real matrix agrees to rounding in ||L||
    assert np.allclose(s, singular_values(_lower_toeplitz(c)), rtol=0, atol=1e-14 * s[0])
    h = 1e-6
    fd = np.empty_like(J)
    for j in range(r):
        dc = np.zeros(r)
        dc[j] = h
        plus = singular_values(_lower_toeplitz(c + dc))
        minus = singular_values(_lower_toeplitz(c - dc))
        fd[:, j] = (plus - minus) / (2 * h)
    assert np.max(np.abs(J - fd)) <= 1e-6 * max(1.0, np.max(np.abs(J)))


def modulus_jacobian_reference(c):
    """The r-term loop: column j of D sums U[j:] * V[:r - j] over rows."""
    r = c.size
    U, s, Vh = np.linalg.svd(_lower_toeplitz(c))
    V = Vh.T
    D = np.array([np.sum(U[j:] * V[: r - j], axis=0) for j in range(r)]).T
    return s, D


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(r=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_modulus_jacobian_matches_the_r_term_loop_bit_for_bit(r, seed):
    c = stream(seed, 37).standard_normal(r)
    s, J = _modulus_jacobian(c)
    s_ref, J_ref = modulus_jacobian_reference(c)
    assert J.shape == (r, r) and J.dtype == np.float64
    assert s.tobytes() == s_ref.tobytes() and J.tobytes() == J_ref.tobytes()


def test_newton_fit_forms_a_jacobian_only_where_a_step_reads_it(monkeypatch):
    # tmax in [1/2, 1), so the fit runs on t itself; the direct fit
    # converges, so the continuation takes no step (rank 5: ranks 3 and 4
    # take the closed form)
    t = np.array([0.9, 0.6, 0.35, 0.1, 0.05])
    residuals, toeplitz, jacobians = [], [], []
    svd, lower_toeplitz, jacobian = np.linalg.svd, synthesis._lower_toeplitz, synthesis._jacobian_from_svd

    def recording_svd(a, *args, **kwargs):
        out = svd(a, *args, **kwargs)
        residuals.append(float(np.linalg.norm(out[1] - t)))
        return out

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    monkeypatch.setattr(synthesis, "_lower_toeplitz", lambda c: toeplitz.append(1) or lower_toeplitz(c))
    monkeypatch.setattr(synthesis, "_jacobian_from_svd", lambda U, Vh: jacobians.append(1) or jacobian(U, Vh))
    m = realize_modulus(t)
    assert m.converged and m.residual <= 1e-12
    # one SVD per trial point; the first is the start, every later one a trial
    assert len(residuals) == len(toeplitz)
    current, reads = residuals[0], 1
    for res in residuals[1:]:
        polish = current <= 1e-12 * t[0]
        if res < current:
            current, reads = res, reads + (not polish)
    assert current == m.residual
    assert len(jacobians) == reads < len(residuals)


def no_generator(*args, **kwargs):
    raise AssertionError("realize_modulus made a random generator")


@pytest.mark.parametrize(
    "t",
    [
        [1.0, 0.995, 0.992, 0.935, 0.93],
        [729945.2367, 519634.2726, 49835.1642, 47.8184, 29.6265, 27.5378, 12.8885, 7.9328, 1.0],
    ],
    ids=["close", "rank-9-wide"],
)
def test_stalling_targets_converge_by_continuation(monkeypatch, t):
    # the direct fit from the fixed start stalls on both; the continuation
    # fits them to rounding level and draws no random number
    monkeypatch.setattr(np.random, "SeedSequence", no_generator)
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    fits = []
    fit = synthesis._newton_fit
    monkeypatch.setattr(synthesis, "_newton_fit", lambda c, ts, **kw: fits.append(1) or fit(c, ts, **kw))
    m = realize_modulus(t)
    assert len(fits) >= 2
    assert m.converged
    assert m.residual <= 1e-12 * max(t)


@pytest.mark.parametrize(
    "t",
    [
        [0.9, 0.6, 0.35, 0.1, 0.05],
        [2.5, 1.3, 0.4, 0.2, 0.1],
        [3000.0, 1.098, 1.0, 0.9, 0.8],
        [7.0, 5.0, 2.0, 1.5, 0.25],
    ],
)
def test_a_direct_fit_is_the_reply_bit_for_bit(t):
    # a target of rank 5 or more whose first fit reaches 1e-12 gets the phi
    # of one Newton fit from tmax (1, 1/2, ..., 1/2), on the targets scaled
    # by 2^-e
    t = np.array(t)
    e = int(np.frexp(t[0])[1])
    ts = np.ldexp(t, -e)
    c0 = np.full(t.size, 0.5 * ts[0])
    c0[0] = ts[0]
    c, s, res = synthesis._newton_fit(c0, ts)
    assert res <= 1e-12 * ts[0]
    m = realize_modulus(t)
    assert m.phi.poly.tobytes() == np.ldexp(c, e).astype(complex).tobytes()
    assert m.achieved_singular_values.tobytes() == np.ldexp(s, e).tobytes()


def no_fit(*args, **kwargs):
    raise AssertionError("realize_modulus ran the Newton fit")


def scaled(t):
    t = np.sort(np.asarray(t, dtype=float))[::-1]
    e = int(np.frexp(t[0])[1])
    return e, np.ldexp(t, -e)


@pytest.mark.parametrize("t", [[0.9, 0.6, 0.35, 0.1], [2.5, 1.3, 0.4], [3000.0, 1.098, 1.0]])
def test_ranks_three_and_four_reply_with_the_closed_form_bit_for_bit(monkeypatch, t):
    # the closed form passes the direct fit's 1e-12 acceptance, its singular
    # values are the reply's, and no Newton fit runs; of the real solutions
    # it takes the one the direct fit from tmax (1, 1/2, ..., 1/2) reaches
    e, ts = scaled(t)
    c = synthesis._alternating_hankel(ts.tolist())
    s = np.linalg.svd(_lower_toeplitz(c), compute_uv=False)
    assert np.linalg.norm(s - ts) <= 1e-12 * ts[0]
    start = np.full(ts.size, 0.5 * ts[0])
    start[0] = ts[0]
    fit, _, res = synthesis._newton_fit(start, ts)
    assert res <= 1e-12 * ts[0] and np.max(np.abs(c - fit)) <= 1e-8 * ts[0]
    monkeypatch.setattr(synthesis, "_newton_fit", no_fit)
    m = realize_modulus(t)
    assert m.phi.poly.tobytes() == np.ldexp(c, e).astype(complex).tobytes()
    assert m.achieved_singular_values.tobytes() == np.ldexp(s, e).tobytes()


@pytest.mark.parametrize("t", [[1.0, 1.0, 1.0, 0.5], [1.0, 1 - 1e-12, 1 - 2e-12, 1 - 3e-12]])
def test_a_closed_form_that_misses_the_gate_leaves_the_fit_reply(monkeypatch, t):
    e, ts = scaled(t)
    c = synthesis._alternating_hankel(ts.tolist())
    assert c is None or np.linalg.norm(
        np.linalg.svd(_lower_toeplitz(c), compute_uv=False) - ts
    ) > 1e-12 * ts[0]
    got = realize_modulus(t)
    monkeypatch.setattr(synthesis, "_alternating_hankel", lambda t: None)
    want = realize_modulus(t)
    assert got.converged and got.residual <= 1e-12 * max(t)
    assert got.phi.poly.tobytes() == want.phi.poly.tobytes()
    assert got.achieved_singular_values.tobytes() == want.achieved_singular_values.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(rank=st.integers(3, 4), log_spread=st.floats(0.0, 9.0), seed=st.integers(0, 2**32 - 1))
def test_ranks_three_and_four_converge_on_wide_spreads(rank, log_spread, seed):
    # whichever answers, the closed form or the fit after a gate miss
    spread = 10.0**log_spread
    t = spread ** stream(seed, 67).random(rank)
    t[:2] = 1.0, spread
    m = realize_modulus(t)
    assert m.converged
    assert m.residual <= 1e-12 * spread, (rank, spread)


@pytest.mark.parametrize("rank", [3, 4])
def test_the_closed_form_matches_an_extended_precision_svd(rank):
    # the singular values of the closed form's L, taken in 50 digits, lie
    # within 1e-13 t0 of the targets (Gaussian singular values)
    rng = stream(71, rank)
    for _ in range(20):
        B = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
        t = singular_values(B)
        e, ts = scaled(t)
        c = synthesis._alternating_hankel(ts.tolist())
        assert c is not None
        with mpmath.workdps(50):
            got = mpmath.svd_r(mpmath.matrix(_lower_toeplitz(c).tolist()), compute_uv=False)
            err = max(abs(x - y) for x, y in zip(sorted(got, reverse=True), ts.tolist()))
        assert err <= 1e-13 * ts[0], t


def test_a_stalled_corrector_gives_up_and_the_direct_fit_does_not(monkeypatch):
    # the rank-7 target at index 128 of the wide-spread probe (rank 3-16,
    # spread 10^U(6, 9)): its continuation ran 150 correctors and 27392
    # SVDs when each failed corrector ran on until a step failed every
    # halving; giving up once the residual stops halving over
    # _STALL_STEPS steps leaves about 5200
    rng = np.random.default_rng(20261020)
    for _ in range(129):
        r = int(rng.integers(3, 17))
        spread = 10 ** rng.uniform(6, 9)
        t = spread ** rng.random(r)
        t[:2] = 1.0, spread
    assert t.size == 7
    fits, svds = [], []
    fit, svd = synthesis._newton_fit, np.linalg.svd
    monkeypatch.setattr(synthesis, "_newton_fit", lambda c, ts, **kw: fits.append(kw) or fit(c, ts, **kw))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(1) or svd(*a, **kw))
    m = realize_modulus(t)
    assert m.converged and m.residual <= 1e-12 * max(t)
    assert fits[0] == {} and all(kw == {"stall": True} for kw in fits[1:])  # only correctors stall
    assert len(fits) > 100 and len(svds) < 10000


def test_realize_modulus_wide_rank_three_target():
    # realizable by real coefficients, with c1/c0 = 14.18 and c2/c0 = 200.62
    m = realize_modulus([3000.0, 1.098, 1.0])
    assert m.converged
    assert m.residual <= 1e-12 * 3000.0


@settings(derandomize=True, database=None, deadline=None, max_examples=48)
@given(
    rank=st.integers(3, 12),
    log_spread=st.floats(0.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_realize_modulus_converges_to_rounding_level(rank, log_spread, seed):
    spread = 10.0**log_spread
    t = np.exp(stream(seed, 6).uniform(0.0, np.log(spread), rank))
    t[:2] = 1.0, spread
    m = realize_modulus(t)
    assert m.converged
    assert m.residual <= 1e-12 * spread, (rank, spread)


@settings(derandomize=True, database=None, deadline=None, max_examples=48)
@given(
    rank=st.integers(3, 12),
    log_spread=st.floats(0.0, 6.0),
    repeats=st.integers(0, 11),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_fit_runs_in_real_arithmetic(rank, log_spread, repeats, seed):
    # repeated targets bring the Jacobian closest to singular; every SVD the
    # fit takes is of a float64 matrix, no least-squares solve is made, and
    # phi comes back with imaginary part exactly 0
    rng = stream(seed, 61)
    spread = 10.0**log_spread
    t = np.exp(rng.uniform(0.0, np.log(spread), rank))
    t[:2] = 1.0, spread
    k = min(repeats, rank - 1)
    t[rng.integers(rank, size=k)] = t[rng.integers(rank, size=k)]
    dtypes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return svd(a, *args, **kwargs)

    def no_lstsq(*args, **kwargs):
        raise AssertionError("realize_modulus called lstsq")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "svd", recording_svd)
        mp.setattr(np.linalg, "lstsq", no_lstsq)
        m = realize_modulus(t)
    assert dtypes and all(d == np.float64 for d in dtypes)
    assert not np.any(m.phi.poly.imag)
    assert m.converged
    assert m.residual <= 1e-12 * spread, (rank, spread)


def test_a_singular_jacobian_ends_the_fit_and_the_continuation_recovers(monkeypatch):
    # an exactly singular Jacobian makes np.linalg.solve raise; that fit ends
    # at its best point, as a step that fails every halving does, and the
    # continuation still fits the targets
    t = [0.9, 0.6, 0.35, 0.1, 0.05]
    calls = []
    solve = np.linalg.solve

    def singular_once(a, b):
        calls.append(1)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_once)
    m = realize_modulus(t)
    assert len(calls) > 1
    assert m.converged
    assert m.residual <= 1e-12 * max(t)


def test_realize_modulus_is_deterministic():
    # the direct fit stalls on this target, so the continuation decides phi
    t = [872.765, 65.927, 22.63, 1.374, 1.086, 1.044, 1.0]
    a, b = realize_modulus(t), realize_modulus(t)
    assert np.array_equal(a.phi.poly, b.phi.poly)


def test_synthesize_exact_rank_one():
    N = np.array([[0.0, 0.0], [2.0, 0.0]])
    res = synthesize_tto_for_nilpotent2(N)
    assert res.converged
    assert res.equivalence_residual <= 1e-10
    assert res.u_total.zeros == (0j, 0j)
    assert np.allclose(res.symbol_total.poly, [0.0, 2.0], atol=1e-10)
    # returned unitary conjugates the model operator onto N
    W = res.W
    assert operator_norm(W @ W.conj().T - np.eye(2)) <= 1e-9
    assert operator_norm(W @ res.tto - N @ W) <= 1e-9


def test_synthesize_zero_operator():
    res = synthesize_tto_for_nilpotent2(np.zeros((3, 3)))
    assert res.converged
    assert res.equivalence_residual <= 1e-12
    assert operator_norm(res.tto) <= 1e-12
    assert res.tto.shape == (3, 3)


def test_synthesize_jordan_block_with_kernel_padding():
    N = np.zeros((3, 3), dtype=complex)
    N[2, 0] = 1.0
    res = synthesize_tto_for_nilpotent2(N)
    assert res.converged
    assert res.equivalence_residual <= 1e-8
    assert res.u_total.degree == 3
    W = res.W
    assert operator_norm(W @ res.tto - N @ W) <= 1e-8


def test_synthesize_random_rank_three():
    rng = stream(19, 1)
    N = random_nilpotent2(rng, 7, rank=3)
    res = synthesize_tto_for_nilpotent2(N)
    assert res.converged
    nrm = operator_norm(N)
    assert res.equivalence_residual <= 1e-6 * nrm
    W = res.W
    assert operator_norm(W @ W.conj().T - np.eye(7)) <= 1e-8
    assert operator_norm(W @ res.tto - N @ W) <= 2e-6 * nrm
    # the synthesized operator is genuinely an analytic model operator
    assert res.u_total.degree == 7
    assert res.symbol_total.is_polynomial


def test_synthesize_seed_is_range_checked_and_read_by_nothing():
    N = coupled([1.0, 0.995, 0.992, 0.935])  # a target the continuation fits
    a, b = synthesize_tto_for_nilpotent2(N), synthesize_tto_for_nilpotent2(N, seed=7)
    assert a.W.tobytes() == b.W.tobytes() and a.tto.tobytes() == b.tto.tobytes()
    with pytest.raises(InputError):
        synthesize_tto_for_nilpotent2(N, seed=-1)


def test_synthesize_rejects_higher_order():
    with pytest.raises(PreconditionError):
        synthesize_tto_for_nilpotent2(jordan(3))



def coupled(targets, extra=0, scale=1.0):
    """[[0,0],[B,0]] (+) 0 with B = scale diag(targets), the leftover kernel last."""
    r = len(targets)
    N = np.zeros((2 * r + extra, 2 * r + extra), dtype=complex)
    N[r : 2 * r, :r] = np.diag(targets) * scale
    return N


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1.0, 1e160, 1e300])
def test_synthesize_is_scale_invariant(rank, scale):
    # the fit runs at unit scale, so neither tiny nor huge singular values
    # over- or underflow or pass on an absolute residual floor
    N = coupled([3.0, 1.7, 1.1, 0.2][:rank], scale=scale)
    res = synthesize_tto_for_nilpotent2(N)
    W, nrm = res.W, operator_norm(N)
    assert res.converged
    assert operator_norm(W @ res.tto @ W.conj().T - N) <= 1e-12 * nrm
    assert res.equivalence_residual <= 1e-12 * nrm
    assert res.modulus.residual <= 1e-12 * nrm


@pytest.mark.parametrize("rank, extra", [(1, 0), (2, 2)])
def test_synthesis_lapack_work(monkeypatch, rank, extra):
    # the splitting's SVD, its leftover kernel's only where there is one
    # (||T^2|| is decided by its Frobenius norm), the closed form's achieved
    # singular values, the frame's one SVD and the residual; no eigh, no
    # solve and no model space (7 SVDs, 1 eigh, 3 solves and 3 model spaces
    # while T was built through tto_matrix)
    N = random_nilpotent2(stream(29, rank), 2 * rank + extra, rank)
    calls = {"svd": 0, "eigh": 0, "solve": 0, "ModelSpace": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    for name in ("svd", "eigh", "solve"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    init = modelspace.ModelSpace.__init__
    monkeypatch.setattr(modelspace.ModelSpace, "__init__", counting("ModelSpace", init))
    assert synthesize_tto_for_nilpotent2(N).converged
    assert calls["svd"] == 4 + (extra > 0)
    assert calls["eigh"] == calls["solve"] == calls["ModelSpace"] == 0


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    rank=st.integers(1, 4),
    extra=st.integers(0, 2),
    equal=st.sampled_from(["all", "two", "none"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_svd_frame_on_degenerate_spectra(rank, extra, equal, seed):
    # repeated singular values leave the SVD's frame free within each
    # eigenspace; any choice must still conjugate T onto N
    rng = stream(seed, 31)
    t = rng.uniform(0.5, 3.0, rank)
    if equal == "all":
        t[:] = t[0]
    elif equal == "two" and rank >= 2:
        t[1] = t[0]
    Q = random_unitary(rng, 2 * rank + extra)
    N = Q @ coupled(t, extra) @ Q.conj().T
    res = synthesize_tto_for_nilpotent2(N)
    W = res.W
    assert res.converged
    assert operator_norm(W @ W.conj().T - np.eye(len(N))) <= 1e-12
    assert operator_norm(W @ res.tto @ W.conj().T - N) <= 1e-12 * operator_norm(N)
    assert np.array_equal(res.tto, tto_matrix(res.u_total, res.symbol_total))
