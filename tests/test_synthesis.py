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
    # np.frexp of a row used to leak a TypeError; np.sort of a scalar an AxisError;
    # an empty list and non-positive or non-finite values are refused as well
    for targets, match in (
        ([[1.0, 2.0], [3.0, 4.0]], "1-d"),
        (2.0, "1-d"),
        ([], "at least one"),
        ([1.0, 0.0], "positive finite"),
        ([2.0, -1.0], "positive finite"),
        ([np.inf, 1.0], "positive finite"),
        ([1.0, np.nan], "positive finite"),
    ):
        with pytest.raises(InputError, match=match):
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


def gathered_toeplitz(c, n):
    """The lower-triangular Toeplitz matrix of c as a gather by the index
    table i - j (-1 above the diagonal) from c padded to n with a +0 after it."""
    padded = np.zeros(c.shape[:-1] + (n + 1,), dtype=c.dtype)
    m = min(n, c.shape[-1])
    padded[..., :m] = c[..., :m]
    i = np.arange(n)
    return padded[..., np.where(i[:, None] >= i, i[:, None] - i, -1)]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 63, 64, 65, 128])
def test_lower_toeplitz_is_the_index_gather_byte_for_byte(n):
    # the strided view must copy each coefficient, its sign of zero included,
    # and +0 above the diagonal, on both sides of the old table size of 64
    rng = stream(23, 10, n)
    c = rng.standard_normal(n)
    c[::3] = -0.0
    z = c + 1j * rng.standard_normal(n)
    for coeffs, size in ((c, n), (z, n), (c[: n // 2 + 1], n), (z, n // 2 + 1), (np.array([c, -c]), n)):
        got, want = _lower_toeplitz(coeffs, size), gathered_toeplitz(coeffs, size)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("r", [1, 2, 3, 8, 20, 64])
def test_spectral_jacobian_is_the_gathered_shift_sum_bit_for_bit(r):
    # the shifts S^j q_k used to be gathered from Q with a zero row below it
    c = stream(23, 11, r).standard_normal(r)
    _, _, Q = synthesis._spectrum(c)
    padded = np.vstack([Q, np.zeros((1, r))])
    i = np.arange(r)
    shifted = padded[np.where(i[:, None] >= i, i[:, None] - i, -1)]
    want = (Q[::-1, None, :] * shifted).sum(axis=0).T
    assert np.array_equal(synthesis._spectral_jacobian(Q), want)


def scaled(t):
    t = np.sort(np.asarray(t, dtype=float))[::-1]
    e = int(np.frexp(t[0])[1])
    return e, np.ldexp(t, -e)


def alternating(ts):
    """The fit's goal: the descending targets with alternating signs, ascending."""
    return np.sort(ts * (-1.0) ** np.arange(ts.size))


def fixed_start(ts):
    """The fit's start c0 = tmax (1, 1/2, ..., 1/2)."""
    c0 = np.full(ts.size, 0.5 * ts[0])
    c0[0] = ts[0]
    return c0


def spectral_fit(c, ts):
    """One spectral Newton fit from c to the alternating goal: its coefficients and whether it met it."""
    (c, _, _), met = synthesis._spectral_newton(synthesis._spectrum(c), alternating(ts))
    return c, met


@pytest.mark.parametrize("r", range(1, 9))
def test_modulus_jacobian_matches_central_differences(r):
    # the fit's Jacobian is that of the ascending eigenvalues of J L (J the
    # flip) in c, read off the eigenvectors of the eigh that gives them
    rng = stream(23, r)
    c = rng.standard_normal(r)
    _, lam, Q = synthesis._spectrum(c)
    J = synthesis._spectral_jacobian(Q)
    assert J.shape == (r, r) and J.dtype == np.float64
    # J L is symmetric, and its eigenvalues are the singular values of L up to sign
    JL = _lower_toeplitz(c)[::-1]
    assert np.array_equal(JL, JL.T)
    s = singular_values(_lower_toeplitz(c))
    assert np.allclose(np.sort(np.abs(lam))[::-1], s, rtol=0, atol=1e-14 * s[0])
    h = 1e-6
    fd = np.empty_like(J)
    for j in range(r):
        dc = np.zeros(r)
        dc[j] = h
        plus = np.linalg.eigvalsh(_lower_toeplitz(c + dc)[::-1])
        minus = np.linalg.eigvalsh(_lower_toeplitz(c - dc)[::-1])
        fd[:, j] = (plus - minus) / (2 * h)
    assert np.max(np.abs(J - fd)) <= 1e-6 * max(1.0, np.max(np.abs(J)))


def modulus_jacobian_reference(Q):
    """The r-term loop: column j of D sums (J Q)[j:] * Q[:r - j] over rows."""
    r = len(Q)
    return np.array([np.sum(Q[::-1][j:] * Q[: r - j], axis=0) for j in range(r)]).T


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(r=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_modulus_jacobian_matches_the_r_term_loop_bit_for_bit(r, seed):
    c = stream(seed, 37).standard_normal(r)
    _, _, Q = synthesis._spectrum(c)
    J = synthesis._spectral_jacobian(Q)
    assert J.shape == (r, r) and J.dtype == np.float64
    assert J.tobytes() == modulus_jacobian_reference(Q).tobytes()


def test_newton_fit_forms_a_jacobian_only_where_a_step_reads_it(monkeypatch):
    # tmax in [1/2, 1), so the fit runs on t itself; the first step, s = 1,
    # meets the goal, so the continuation takes no other (rank 5: ranks 3 and
    # 4 take the closed form)
    t = np.array([0.9, 0.6, 0.35, 0.1, 0.05])
    goal = alternating(t)
    residuals, toeplitz, jacobians, svds = [], [], [], []
    eigh, svd = np.linalg.eigh, np.linalg.svd
    lower_toeplitz, jacobian = synthesis._lower_toeplitz, synthesis._spectral_jacobian

    def recording_eigh(a, *args, **kwargs):
        out = eigh(a, *args, **kwargs)
        residuals.append(float(np.linalg.norm(out[0] - goal)))
        return out

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(1) or svd(*a, **kw))
    monkeypatch.setattr(synthesis, "_lower_toeplitz", lambda c: toeplitz.append(1) or lower_toeplitz(c))
    monkeypatch.setattr(synthesis, "_spectral_jacobian", lambda Q: jacobians.append(1) or jacobian(Q))
    m = realize_modulus(t)
    assert m.converged and m.residual <= 1e-12
    # one eigh per point, the first the start c0 and every later one a trial,
    # and one SVD for the reply's singular values; each Jacobian builds its
    # shifts as one more Toeplitz stack
    assert len(svds) == 1 and len(toeplitz) == len(residuals) + 1 + len(jacobians)
    # a Jacobian before each step: at the start and after each accepted trial
    # but the one that meets the goal
    current, accepted = residuals[0], 0
    for res in residuals[1:]:
        if res < current:
            current, accepted = res, accepted + 1
    assert current <= 1e-12 * t[0]
    assert len(jacobians) == accepted < len(residuals)


def no_generator(*args, **kwargs):
    raise AssertionError("realize_modulus made a random generator")


def recording_fits(monkeypatch):
    """Record whether each spectral Newton fit that realize_modulus runs meets its goal."""
    fits = []
    fit = synthesis._spectral_newton

    def recording(point, goal):
        out = fit(point, goal)
        fits.append(out[1])
        return out

    monkeypatch.setattr(synthesis, "_spectral_newton", recording)
    return fits


@pytest.mark.parametrize(
    "t, first_step_meets",
    [
        ([1.0, 0.995, 0.992, 0.935, 0.93], True),
        ([729945.2367, 519634.2726, 49835.1642, 47.8184, 29.6265, 27.5378, 12.8885, 7.9328, 1.0], True),
        (
            [1.7137, 1.6993, 1.6747, 1.6739, 1.6685, 1.6288, 1.5057, 1.3443]
            + [1.3173, 1.3011, 1.2236, 1.2193, 1.2119, 1.0361, 1.0],
            False,
        ),
    ],
    ids=["close", "rank-9-wide", "close-rank-15"],
)
def test_stalling_targets_converge_by_continuation(monkeypatch, t, first_step_meets):
    # the singular-value fit's direct fit stalled on the first two; the
    # spectral continuation meets them in its first step, s = 1.  Its first
    # step fails on the third, which the later steps from the start fit.  All
    # reach rounding level, and no random number is drawn
    monkeypatch.setattr(np.random, "SeedSequence", no_generator)
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    fits = recording_fits(monkeypatch)
    m = realize_modulus(t)
    assert fits[0] == first_step_meets and fits[-1]
    assert len(fits) == 1 or not first_step_meets
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
    # a target of rank 5 or more whose first step meets its goal gets the phi
    # of one spectral Newton fit from tmax (1, 1/2, ..., 1/2) to the
    # alternating goal, on the targets scaled by 2^-e, and the singular values
    # of one SVD of its L
    e, ts = scaled(t)
    c, met = spectral_fit(fixed_start(ts), ts)
    assert met
    s = np.linalg.svd(_lower_toeplitz(c), compute_uv=False)
    assert np.linalg.norm(s - ts) <= 1e-12 * ts[0]
    m = realize_modulus(t)
    assert m.phi.poly.tobytes() == np.ldexp(c, e).astype(complex).tobytes()
    assert m.achieved_singular_values.tobytes() == np.ldexp(s, e).tobytes()


def no_fit(*args, **kwargs):
    raise AssertionError("realize_modulus ran the Newton fit")


@pytest.mark.parametrize("t", [[0.9, 0.6, 0.35, 0.1], [2.5, 1.3, 0.4], [3000.0, 1.098, 1.0]])
def test_ranks_three_and_four_reply_with_the_closed_form_bit_for_bit(monkeypatch, t):
    # the closed form passes the fit's 1e-12 acceptance, its singular values
    # are the reply's, and no Newton fit runs; of the real solutions it takes
    # the one the spectral fit from tmax (1, 1/2, ..., 1/2) reaches
    e, ts = scaled(t)
    c = synthesis._alternating_hankel(ts.tolist())
    s = np.linalg.svd(_lower_toeplitz(c), compute_uv=False)
    assert np.linalg.norm(s - ts) <= 1e-12 * ts[0]
    fit, met = spectral_fit(fixed_start(ts), ts)
    assert met and np.max(np.abs(c - fit)) <= 1e-8 * ts[0]
    monkeypatch.setattr(synthesis, "_spectral_newton", no_fit)
    m = realize_modulus(t)
    assert m.phi.poly.tobytes() == np.ldexp(c, e).astype(complex).tobytes()
    assert m.achieved_singular_values.tobytes() == np.ldexp(s, e).tobytes()


@pytest.mark.parametrize("t", [[1.0, 1.0, 1.0, 0.5], [1.0, 1 - 1e-12, 1 - 2e-12, 1 - 3e-12]])
def test_a_closed_form_that_misses_the_gate_leaves_the_fit_reply(monkeypatch, t):
    # the closed form misses the gate, and the fit starts from it: its first
    # step meets the goal, and the reply is that fit's
    e, ts = scaled(t)
    c = synthesis._alternating_hankel(ts.tolist())
    assert c is not None
    assert np.linalg.norm(np.linalg.svd(_lower_toeplitz(c), compute_uv=False) - ts) > 1e-12 * ts[0]
    fit, met = spectral_fit(c, ts)
    assert met
    fits = recording_fits(monkeypatch)
    m = realize_modulus(t)
    assert fits == [True]
    assert m.phi.poly.tobytes() == np.ldexp(fit, e).astype(complex).tobytes()
    assert m.converged and m.residual <= 1e-12 * max(t)


def test_rank_four_gate_misses_converge_from_the_closed_form(monkeypatch):
    # rank-4 targets with a log-uniform spread of 10^U(0, 9): every closed
    # form that misses the gate is the fit's start, and the first step from it
    # meets the targets, in one or two trials
    starts, eighs = [], []
    fit, eigh = synthesis._spectral_newton, np.linalg.eigh

    def recording(point, goal):
        out = fit(point, goal)
        starts.append((point[0], out[1]))
        return out

    monkeypatch.setattr(synthesis, "_spectral_newton", recording)
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: eighs.append(1) or eigh(*a, **kw))
    rng = stream(7, 4)
    misses = 0
    for _ in range(300):
        spread = 10 ** rng.uniform(0, 9)
        t = spread ** rng.random(4)
        t[:2] = 1.0, spread
        starts.clear()
        eighs.clear()
        m = realize_modulus(t)
        assert m.converged and m.residual <= 1e-12 * spread
        if starts:
            misses += 1
            c = synthesis._alternating_hankel(scaled(t)[1].tolist())
            assert len(starts) == 1 and starts[0][0].tobytes() == c.tobytes() and starts[0][1]
            assert len(eighs) <= 3
    assert misses >= 10


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


def test_a_wide_rank_seven_target_converges_in_few_eighs(monkeypatch):
    # the rank-7 target at index 128 of the wide-spread probe (rank 3-16,
    # spread 10^U(6, 9)); the singular-value fit took 150 correctors and about
    # 5200 SVDs on it with a stall rule, 27392 without; the spectral fit's
    # first step ends on its halving budget, and two correctors meet it, in
    # 144 eigh calls in all
    rng = np.random.default_rng(20261020)
    for _ in range(129):
        r = int(rng.integers(3, 17))
        spread = 10 ** rng.uniform(6, 9)
        t = spread ** rng.random(r)
        t[:2] = 1.0, spread
    assert t.size == 7
    eighs = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: eighs.append(1) or eigh(*a, **kw))
    m = realize_modulus(t)
    assert m.converged and m.residual <= 1e-12 * max(t)
    assert len(eighs) < 300


def test_paired_targets_are_simple_eigenvalues_and_converge():
    # equal adjacent singular values are a double singular value of L, with no
    # derivative, but the eigenvalues +t and -t of J L, which stay simple
    t = np.array([1.0, 1.0, 0.5, 0.5, 0.25, 0.25])
    assert np.all(np.diff(alternating(t)) > 0)
    m = realize_modulus(t)
    assert m.converged and m.residual <= 1e-12
    got = np.linalg.eigvalsh(_lower_toeplitz(m.phi.poly.real)[::-1])
    assert np.max(np.abs(got - alternating(t))) <= 1e-12


@pytest.mark.parametrize("t", [[1e300, 1e-300, 1e-300, 1e-300, 1.0], [1e300] + [1e-300] * 5])
def test_targets_that_underflow_to_zero_raise_no_warning(t):
    # scaled by 2^-e with e = 997, each 1e-300 underflows to 0; the
    # continuation's goals take no log of it, so the suite's
    # error::RuntimeWarning filter does not turn it into a raw exception
    m = realize_modulus(t)
    assert m.target_singular_values.tobytes() == np.sort(t)[::-1].tobytes()
    assert m.converged


def test_a_step_too_small_to_move_the_continuation_is_a_halving(monkeypatch):
    # near s = 1 the halved steps fall below the rounding of s; a corrector
    # there meets the unchanged goal at once, and counted as an accepted step
    # it reset the halving count, so the continuation never ended (it ran on
    # past 5000 correctors); counted as a halving, 124 correctors end it
    fits = []
    fit = synthesis._spectral_newton

    def bounded(point, goal):
        fits.append(1)
        assert len(fits) <= 2000, "the continuation does not end"
        return fit(point, goal)

    monkeypatch.setattr(synthesis, "_spectral_newton", bounded)
    m = realize_modulus([1e300, 1e-320, 1e-310, 5e-324, 1e-300, 1.0, 2.0])
    assert m.converged


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
    # the first step fails on this target, so the continuation decides phi
    t = [1.7137, 1.6993, 1.6747, 1.6739, 1.6685, 1.6288, 1.5057, 1.3443]
    t += [1.3173, 1.3011, 1.2236, 1.2193, 1.2119, 1.0361, 1.0]
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
    N = coupled([1.0, 0.995, 0.992, 0.935])  # a target the closed form fits
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
