"""Synthesis of analytic truncated Toeplitz operators for order-two nilpotents.

Pipeline: split N into its canonical [[0,0,0],[0,0,0],[B,0,0]] shape, realize
the r singular values of B as the modulus of the operator with a polynomial
symbol phi on the model space of u = z^r (a lower-triangular Toeplitz matrix
L with real coefficients; closed forms at r <= 2, otherwise a damped Newton
fit whose every step is one square solve with the real r x r Jacobian of the
singular values, continued from one fixed start when the direct fit stalls,
so no step is random), pad the leftover kernel with an inner factor v = z^m,
and assemble the operator with symbol u v phi on the model space of u^2 v,
whose three-way frame K_u + u K_v + u v K_u makes the matrix reproduce the
canonical shape exactly.  Every inner function is a power of z, so that
frame is the monomial basis of the big space in order, and the operator is
the lower-triangular Toeplitz matrix of u v phi's coefficients, built by
index with L as its corner block.  One SVD of L gives both frame blocks of
the unitary W conjugating the built operator onto N, which is returned with
a recomputable equivalence residual.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .certify import _nilpotent2_forms, _per_rank, nilpotent2_splitting
from .linalg import DEFAULT_TOL, as_matrix, check_seed, column_phases, operator_norms
from .modelspace import BlaschkeProduct, Symbol

# realize_modulus: Newton steps per fit, step halvings per Newton step (and
# per continuation step), and the relative residual that counts as converged.
_NEWTON_STEPS = 100
_NEWTON_HALVINGS = 40
_CONVERGED_REL = 1e-6


def __getattr__(name):
    # The benchmark's tracer (perfbench/tracing.py) wraps scipy.optimize as
    # csokit.synthesis.scipy.optimize.  scipy is imported only on that access,
    # so csokit itself never loads it.  This shim goes when the benchmark drops
    # its scipy.optimize wrapping (ROADMAP item 1).
    if name == "scipy":
        import scipy

        return scipy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class ModulusRealization:
    """Best-effort match of target singular values by a model-space operator."""

    u: BlaschkeProduct
    phi: Symbol
    target_singular_values: np.ndarray
    achieved_singular_values: np.ndarray
    residual: float
    converged: bool


@dataclass
class SynthesisResult:
    """An analytic operator on a model space unitarily equivalent to N."""

    u_total: BlaschkeProduct
    symbol_total: Symbol
    W: np.ndarray
    equivalence_residual: float
    converged: bool
    tto: np.ndarray
    modulus: ModulusRealization | None


def canonical_nilpotent_parts(N):
    """(B, extra_kernel_dim, W0) with W0 N W0* = [[0,0,0],[0,0,0],[B,0,0]].

    The three blocks live on (ker N)-perp, the leftover kernel, and ran N;
    B is the positive diagonal of singular values, size rank(N).
    """
    form = nilpotent2_splitting(N)
    return np.diag(form.singular_values), form.extra_kernel_dim, _canonical_rows(form.W, form.rank)


def _canonical_rows(W: np.ndarray, r: int) -> np.ndarray:
    """W0 from the W of a rank-r order-two form, or from a stack of them: its rows
    [right, left, rest] reordered as [right, rest, left]."""
    return np.concatenate([W[..., :r, :], W[..., 2 * r :, :], W[..., r : 2 * r, :]], axis=-2)


# few sizes recur (the fit's r and the operator's 2r + m), and each entry
# holds 9 n^2 bytes, so only the 16 most recently used sizes are kept
@functools.lru_cache(maxsize=16)
def _toeplitz_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.subtract.outer(np.arange(n), np.arange(n))  # entry (i, j) is c[i - j]
    mask = k >= 0
    k.flags.writeable = mask.flags.writeable = False
    return k, mask


def _lower_toeplitz(c: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrix of c, or of each row of a (k, n) c as a stack."""
    k, mask = _toeplitz_index(c.shape[-1])
    return np.where(mask, c[..., k], 0)


def realize_modulus(targets) -> ModulusRealization:
    """Analytic operator on the model space of u = z^r with the r given singular values.

    On that space the operator with symbol phi is the lower-triangular
    Toeplitz matrix of phi's coefficients, and real coefficients suffice.
    Equal targets t give phi = t exactly and two targets have a closed form;
    otherwise the coefficients are fit by damped Newton steps on the singular
    values, each the solution of the square real r x r system whose matrix is
    their Jacobian, read in closed form off the factors of the SVD that gives
    them (_jacobian_from_svd).  The one start c0 is tmax (1, 1/2, ..., 1/2):
    its singular values s0 are distinct, hence differentiable, whereas at a
    multiple of the identity they all coincide and give no usable gradient.
    At a real c the Jacobian in Im c is 0, so over complex c the
    minimum-norm Newton step is real; the fit therefore has r real unknowns,
    and phi is complex only in the returned Symbol.

    The fit is a homotopy continuation from c0 along the targets
    log t(lam) = (1 - lam) log s0 + lam log t, lam from 0 to 1, with the
    Newton fit as its corrector from the last accepted point.  Its first
    step is lam = 1 with the goal exactly t, a direct fit from c0, and s0 is
    computed only if that fails.  A corrector that matches its goal to 1e-12
    of the goal's largest value accepts its step and doubles the next one,
    capped at 1 - lam; any other corrector halves the step, and
    _NEWTON_HALVINGS halvings in a row end the continuation at the point of
    lowest residual against t.  Two distinct targets keep the path strictly
    decreasing, so its singular values stay simple.  The result is flagged
    converged when the achieved singular values match to 1e-6 of the largest
    target; an unconverged fit is returned flagged, never raised.

    The fit runs on the targets scaled by the power of two 2^-e that puts
    tmax in [1/2, 1), so that no square over- or underflows; the
    coefficients, achieved values and residual are scaled back by 2^e, which
    is exact.
    """
    t = np.asarray(targets, dtype=float)
    if t.ndim != 1:
        raise InputError(f"targets must be a 1-d list of singular values, got ndim {t.ndim}")
    t = np.sort(t)[::-1]
    if t.size < 1:
        raise InputError("need at least one target singular value")
    if np.any(t <= 0) or not np.all(np.isfinite(t)):
        raise InputError("targets must be positive finite reals")
    r = t.size
    e = int(np.frexp(t[0])[1])
    ts = np.ldexp(t, -e)

    def finish(c: np.ndarray, achieved: np.ndarray | None = None) -> ModulusRealization:
        if achieved is None:
            achieved = np.linalg.svd(_lower_toeplitz(c), compute_uv=False)
        residual = float(np.linalg.norm(achieved - ts))
        return ModulusRealization(
            u=BlaschkeProduct([0.0] * r),
            phi=Symbol(poly=np.ldexp(c, e)),
            target_singular_values=t.copy(),
            achieved_singular_values=np.ldexp(achieved, e),
            residual=float(np.ldexp(residual, e)),
            converged=residual <= _CONVERGED_REL * ts[0],
        )

    if np.all(ts == ts[0]):
        c = np.zeros(r)
        c[0] = ts[0]
        return finish(c)
    if r == 2:
        # closed form: [[c0,0],[c1,c0]] has |A|^2 with trace 2c0^2 + c1^2 and
        # determinant c0^4, so c0 = sqrt(t0 t1), c1 = t0 - t1 hits (t0, t1)
        return finish(np.array([np.sqrt(ts[0] * ts[1]), ts[0] - ts[1]]))

    c0 = np.full(r, 0.5 * ts[0])
    c0[0] = ts[0]
    c, s, res = _newton_fit(c0, ts)
    if res <= 1e-12 * ts[0]:
        return finish(c, s)
    # continuation from (c0, s0) along log t(lam) = (1 - lam) log s0 + lam log ts;
    # the fit above was its first step, lam = 1, and it failed
    best = (res, c, s)
    log_s0, log_ts = np.log(np.linalg.svd(_lower_toeplitz(c0), compute_uv=False)), np.log(ts)
    c, lam, step, halvings = c0, 0.0, 0.5, 1
    while halvings < _NEWTON_HALVINGS:
        goal_lam = min(lam + step, 1.0)
        goal = ts if goal_lam == 1.0 else np.exp((1 - goal_lam) * log_s0 + goal_lam * log_ts)
        c_new, s, res = _newton_fit(c, goal)
        res_t = float(np.linalg.norm(s - ts))
        if res_t < best[0]:
            best = (res_t, c_new, s)
        if res <= 1e-12 * goal[0]:
            if goal is ts:
                return finish(c_new, s)
            c, lam, step, halvings = c_new, goal_lam, min(2 * step, 1 - goal_lam), 0
        else:
            step, halvings = step / 2, halvings + 1
    return finish(best[1], best[2])


def _modulus_jacobian(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of lower-Toeplitz(c) for real c, descending, and their
    real r x r Jacobian in c."""
    U, s, Vh = np.linalg.svd(_lower_toeplitz(c))
    return s, _jacobian_from_svd(U, Vh)


def _jacobian_from_svd(U: np.ndarray, Vh: np.ndarray) -> np.ndarray:
    """The real r x r Jacobian D of the singular values of the real
    L = U diag(s) V^T = sum_j c_j S^j (S the down shift) in c.

    A simple singular value moves by d s_k = u_k^T dL v_k, so
    D[k, j] = u_k^T S^j v_k = sum_{l >= j} U[l, k] V[l - j, k].  All r
    shifts S^j V are gathered at once by L's own Toeplitz index, and the
    products are summed over l in order, so each entry is bit for bit the
    sum over its r - j terms alone (the leading zero terms change nothing).
    """
    index, mask = _toeplitz_index(U.shape[0])
    shifted = np.where(mask[:, :, None], Vh.T[index], 0)  # entry (l, j) is row l of S^j V
    return (U[:, None, :] * shifted).sum(axis=0).T


def _newton_fit(c: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Damped Newton for the singular values of lower-Toeplitz(c) = t, c real.

    Each step solves the square system D dc = t - s with the real r x r
    Jacobian D, and is halved until the residual ||s - t|| decreases.  Once
    the residual is at or below 1e-12 of the largest target, one more full
    step is kept if it lowers the residual, and the fit stops.  A step that
    fails every halving, or an exactly singular D, ends the fit.  Returns the
    best coefficients, their singular values and their residual.

    Every trial point costs one real SVD, which gives its singular values;
    the Jacobian is formed from that SVD's factors only where the next step
    reads it: at the start and after each accepted step but the polish step.
    """
    s, J = _modulus_jacobian(c)
    res = float(np.linalg.norm(s - t))
    for _ in range(_NEWTON_STEPS):
        try:
            step = np.linalg.solve(J, t - s)
        except np.linalg.LinAlgError:  # exactly singular: no Newton step exists
            break
        polish = res <= 1e-12 * t[0]
        for _ in range(1 if polish else _NEWTON_HALVINGS):
            U, s_new, Vh = np.linalg.svd(_lower_toeplitz(c + step))
            res_new = float(np.linalg.norm(s_new - t))
            if res_new < res:
                c, s, res = c + step, s_new, res_new
                break
            step = step / 2
        else:
            break
        if polish:
            break
        J = _jacobian_from_svd(U, Vh)
    return c, s, res


def synthesize_tto_for_nilpotent2(N, seed: int = 0) -> SynthesisResult:
    """Analytic model-space operator unitarily equivalent to N (N^2 = 0).

    No step is random: seed is range-checked and not used.  It stays while
    the benchmark passes it, and goes with the benchmark refresh (ROADMAP
    item 1).  The k = 1 call of ``_syntheses``.
    """
    check_seed(seed)
    return _syntheses(as_matrix(N, square=True)[None])[0]


def _syntheses(A: np.ndarray) -> list[SynthesisResult]:
    """``synthesize_tto_for_nilpotent2`` of each matrix of a (k, n, n) stack.

    Each result equals its own k = 1 call's bit for bit, and a stack raises
    the error of its first refused matrix.  The splittings come from one
    ``_nilpotent2_forms`` pass, and W0, with W0 N W0* = [[0,0,0],[0,0,0],
    [B,0,0]], reorders the rows of each form's W (``_canonical_rows``).
    ``realize_modulus`` fits each matrix's singular values in turn.  The
    operators, the frame SVDs of the matrices of each rank (one
    ``_per_rank`` call), W and the equivalence norms are stacked.  A matrix
    of rank 0 takes the zero operator on the model space of z^n and W = I.
    """
    if not len(A):
        return []
    n = A.shape[-1]
    forms = _nilpotent2_forms(A, DEFAULT_TOL)
    ranks = [form.rank for form in forms]
    realizations = [realize_modulus(form.singular_values) if form.rank else None for form in forms]

    # Symbol u v phi = z^(r+m) phi on the model space of z^(2r+m): T is the
    # lower-triangular Toeplitz matrix of its coefficients, and its block
    # from K_u into u v K_u is L = phi(A_u), the realized r x r operator.
    coeffs = np.zeros((len(forms), n), dtype=complex)
    for row, r, realization in zip(coeffs, ranks, realizations):
        if r:
            phi = realization.phi.poly
            row[n - r : n - r + phi.size] = phi
    T = _lower_toeplitz(coeffs)
    W = np.array([form.W for form in forms])

    def frame(r, members):  # W0* times the block unitary that takes T onto W0 N W0*
        if r == 0:
            return np.zeros_like(T[members]) + np.eye(n)
        # With L = U S V*, Omega = D V* takes L*L to S^2 (descending, each row's
        # phase fixed by D) and Omega times the polar factor U V* of L is D U*.
        U, _, Vh = np.linalg.svd(T[members, n - r :, :r])
        D = column_phases(Vh.conj().swapaxes(-1, -2)).conj()[..., None]
        blocks = np.zeros((len(U), n, n), dtype=complex)
        blocks[:, :r, :r] = D * Vh
        blocks[:, r : n - r, r : n - r] = np.eye(n - 2 * r)
        blocks[:, n - r :, n - r :] = D * U.conj().swapaxes(-1, -2)
        return _canonical_rows(W[members], r).conj().swapaxes(-1, -2) @ blocks

    W = _per_rank(ranks, frame)
    residuals = operator_norms(W @ T @ W.conj().swapaxes(-1, -2) - A).tolist()
    return [
        SynthesisResult(
            u_total=BlaschkeProduct([0.0] * n),
            symbol_total=Symbol(poly=row) if r else Symbol.zero(),
            W=w,
            equivalence_residual=residual,
            # s_0 is ||N|| (the splitting's Nilpotent2Form.norm), positive as r >= 1
            converged=not r
            or bool(realization.converged and residual <= 1e-6 * form.singular_values[0]),
            tto=t,
            modulus=realization,
        )
        for form, r, realization, row, w, t, residual in zip(
            forms, ranks, realizations, coeffs, W, T, residuals
        )
    ]
