"""Synthesis of analytic truncated Toeplitz operators for order-two nilpotents.

Pipeline: split N into its canonical [[0,0,0],[0,0,0],[B,0,0]] shape, realize
the r singular values of B as the modulus of the operator with a polynomial
symbol phi on the model space of u = z^r (a lower-triangular Toeplitz matrix L
with real coefficients; closed forms at r <= 4, otherwise, or where the closed
form misses the fit's own 1e-12 acceptance, a damped Newton fit of the
eigenvalues of the symmetric Hankel matrix J L, J the flip, to the targets
with alternating signs, a homotopy continuation from the closed form or one
fixed start, so no step is random), pad the leftover kernel with an inner
factor v = z^m, and assemble the operator with symbol u v phi on the model
space of u^2 v, whose three-way frame K_u + u K_v + u v K_u makes the matrix
reproduce the canonical shape exactly.  Every inner function is a power of z,
so that frame is the monomial basis of the big space in order, and the
operator is the lower-triangular Toeplitz matrix of u v phi's coefficients,
copied from one strided view with L as its corner block.  One SVD of L
gives both frame blocks of the unitary W conjugating the built operator
onto N, which is returned with a recomputable equivalence residual.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .certify import _nilpotent2_forms, _per_rank, nilpotent2_splitting
from .linalg import DEFAULT_TOL, as_matrix, check_count, column_phases, operator_norms
from .modelspace import BlaschkeProduct, Symbol, _lower_toeplitz

# realize_modulus: Newton steps per fit, step halvings per fit (and in a row
# per continuation), and the relative residual that counts as converged.
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


def realize_modulus(targets) -> ModulusRealization:
    """Analytic operator on the model space of u = z^r with the r given singular values.

    On that space the operator with symbol phi is the lower-triangular
    Toeplitz matrix L of phi's coefficients, and real coefficients suffice.
    Equal targets t give phi = t exactly and two targets have a closed form.
    Three or four targets have one too (_alternating_hankel), taken when its
    singular values match the targets to 1e-12 of the largest, the fit's
    acceptance, with its one singular-value pass as the reply's achieved
    values.

    Otherwise c is fit to a spectrum.  With J the flip and S the down shift,
    J L = sum_j c_j J S^j is real symmetric and linear in c, and its
    eigenvalues are the singular values of L up to sign.  Damped Newton
    steps (_spectral_newton) take them, ascending, to the goal
    sort(t0, -t1, t2, ...) that the closed forms realize.  A simple
    eigenvalue lam_k = q_k^T J L q_k moves by q_k^T J dL q_k (q_k^T dq_k = 0
    for a unit q_k), so the Jacobian D[k, j] = q_k^T J S^j q_k comes from
    the eigenvectors of the eigh that gives lam, and each step is one
    square real r x r solve.  Two equal targets become the simple
    eigenvalues t_k and -t_k, where as a double singular value they have
    no derivative.  At a real c the Jacobian in Im c is 0, so the
    minimum-norm complex step is real: the fit has r real unknowns, and phi
    is complex only in the returned Symbol.

    The start is the closed form where that missed its check, and otherwise
    c0 = tmax (1, 1/2, ..., 1/2), whose J L has the goal's inertia, ceil(r/2)
    positive and floor(r/2) negative eigenvalues, all of modulus at least
    3/4 tmax (checked for r <= 64).  The fit is a homotopy continuation from
    the start's spectrum lam0 along |goal(s)| = |lam0|^(1 - s) |goal|^s,
    s from 0 to 1, with the goal's signs held fixed, so the path keeps their
    order and takes no log of a target that underflows to 0; the Newton fit
    is its corrector from the last accepted point, and its first step is
    s = 1, a direct fit from the start.  A corrector that matches its goal
    to 1e-12 of the goal's largest magnitude accepts its step and doubles
    the next one, capped at 1 - s; any other corrector, or a step too small
    to move s, halves the step, and _NEWTON_HALVINGS halvings in a row end
    the continuation at the point of lowest residual against the goal.  One
    SVD of the reply's L gives its achieved singular values, flagged
    converged when they match to 1e-6 of the largest target; an unconverged
    fit is returned flagged, never raised.

    No polish step is needed: ||sort |lam| - t|| <= ||lam - goal||, so the
    acceptance bounds the reply's residual, up to its SVD's rounding, 10^6
    times below the converged flag's.  Nor is a stall rule: a fit's halvings
    are counted over all its steps, so one that creeps towards a singular
    Jacobian on ever shorter steps ends after _NEWTON_HALVINGS failed
    trials, and the direct fit and the correctors keep the one rule.

    The closed forms and the fit run on the targets scaled by the power of
    two 2^-e that puts tmax in [1/2, 1), so that no square over- or
    underflows; the coefficients, achieved values and residual are scaled
    back by 2^e, which is exact.  The targets are checked here once, and
    _fit_modulus does the rest.
    """
    try:
        t = np.asarray(targets, dtype=float)
    except (TypeError, ValueError):
        raise InputError(f"targets must be real numbers, got {targets!r}") from None
    if t.ndim != 1:
        raise InputError(f"targets must be a 1-d list of singular values, got ndim {t.ndim}")
    t = np.sort(t)[::-1]
    if t.size < 1:
        raise InputError("need at least one target singular value")
    if np.any(t <= 0) or not np.all(np.isfinite(t)):
        raise InputError("targets must be positive finite reals")
    return _fit_modulus(t)


def _fit_modulus(t: np.ndarray) -> ModulusRealization:
    """realize_modulus of targets t that are already descending, positive
    and finite, as the singular values of an order-two splitting are."""
    r = t.size
    e = int(np.frexp(t[0])[1])
    ts = np.ldexp(t, -e)

    def finish(
        c: np.ndarray, achieved: np.ndarray | None = None, residual: float | None = None
    ) -> ModulusRealization:
        if achieved is None:
            achieved = np.linalg.svd(_lower_toeplitz(c), compute_uv=False)
        if residual is None:
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
    c = _alternating_hankel(ts.tolist()) if r <= 4 else None
    if c is not None:
        s = np.linalg.svd(_lower_toeplitz(c), compute_uv=False)
        residual = float(np.linalg.norm(s - ts))
        if residual <= 1e-12 * ts[0]:  # the fit's acceptance
            return finish(c, s, residual)
    if c is None:
        c = np.full(r, 0.5 * ts[0])
        c[0] = ts[0]

    # goals |goal(s)| = |lam0|^(1 - s) |target|^s with the target's signs
    point = _spectrum(c)
    target = np.sort(ts * (-1.0) ** np.arange(r))
    base = np.abs(point[1])
    best = (np.inf, c)
    at, step, halvings = 0.0, 1.0, 0
    while halvings < _NEWTON_HALVINGS:
        to = min(at + step, 1.0)
        goal = np.copysign(base ** (1 - to) * np.abs(target) ** to, target)
        new, met = _spectral_newton(point, goal)
        res_t = float(np.linalg.norm(new[1] - target))
        if res_t < best[0]:
            best = (res_t, new[0])
        if met and to > at:  # a step below at's rounding leaves the goal as it was
            if to == 1.0:
                return finish(new[0])
            point, at, step, halvings = new, to, min(2 * step, 1 - to), 0
        else:
            step, halvings = step / 2, halvings + 1
    return finish(best[1])


def _alternating_hankel(t: list[float]) -> np.ndarray | None:
    """Real c at r = 3 or 4 whose lower-Toeplitz L has the descending targets t
    as singular values, in closed form; None where no admissible root exists.

    With J the flip, J L is the real symmetric Hankel matrix whose entry
    (i, j) is c[r - 1 - i - j] (0 below the anti-diagonal), so the singular
    values of L are the absolute values of its eigenvalues.  Take those
    eigenvalues alternating, lam = (t0, -t1, t2, -t3)[:r].  By Newton's
    identities the power sums tr (J L)^k, k < r, and det (J L) fix the
    characteristic polynomial of J L, so matching them to lam's makes lam its
    eigenvalues.  det (J L) = det J c0^r, and det J = -1 at r = 3, +1 at
    r = 4, the sign of prod lam; so c0 = prod t_k^(1/r), each root taken
    separately so that the product can neither under- nor overflow.  (r = 2
    is the same construction: c1 = tr (J L) = t0 - t1.)

    r = 3: tr = c0 + c2 and ||J L||_F^2 = 3c0^2 + 2c1^2 + c2^2, so
    c2 = t0 - t1 + t2 - c0 and c1 = sqrt((sum t^2 - 3c0^2 - c2^2) / 2), with
    no solution where the radicand is negative.

    r = 4: tr = c1 + c3, ||J L||_F^2 = 4c0^2 + 3c1^2 + 2c2^2 + c3^2 and
    tr (J L)^3 = 3c0^2 (c1 + c3) + 6c0c1c2 + c1^3 + 3c1^2c3 + 3c1c2^2
    + 3c2^2c3 + c3^3.  With e1 = t0 - t1 + t2 - t3 and
    p3 = t0^3 - t1^3 + t2^3 - t3^3 the first two give c3 = e1 - c1 and
    c2^2 = q0 + e1c1 - 2c1^2, q0 = (sum t^2 - 4c0^2 - e1^2) / 2; the third
    then gives 6c0c1c2 = a0 + 3c1^3, a0 = p3 - 3c0^2e1 - e1^3 - 3e1q0.
    Squaring it leaves the sextic
    9c1^6 + 72c0^2c1^4 + (6a0 - 36c0^2e1)c1^3 - 36c0^2q0c1^2 + a0^2 = 0,
    whose largest real root c1 > 0 with c2^2 >= 0 is taken; then
    c2 = (a0 + 3c1^3) / (6c0c1) and c3 = e1 - c1.

    The formulas are exact, but their rounding is not bounded, so the caller
    checks the singular values they give.
    """
    r = len(t)
    c0 = math.prod(x ** (1 / r) for x in t)
    sum_sq = sum(x * x for x in t)
    if r == 3:
        c2 = t[0] - t[1] + t[2] - c0
        radicand = (sum_sq - 3 * c0 * c0 - c2 * c2) / 2
        return None if radicand < 0 else np.array([c0, math.sqrt(radicand), c2])
    e1 = t[0] - t[1] + t[2] - t[3]
    p3 = t[0] ** 3 - t[1] ** 3 + t[2] ** 3 - t[3] ** 3
    c0_sq = c0 * c0
    q0 = (sum_sq - 4 * c0_sq - e1 * e1) / 2
    a0 = p3 - 3 * c0_sq * e1 - e1**3 - 3 * e1 * q0
    roots = np.roots([9, 0, 72 * c0_sq, 6 * a0 - 36 * c0_sq * e1, -36 * c0_sq * q0, 0, a0 * a0])
    real = roots[roots.imag == 0].real.tolist()
    c1 = max((x for x in real if x > 0 and q0 + e1 * x - 2 * x * x >= 0), default=None)
    if c1 is None:
        return None
    return np.array([c0, c1, (a0 + 3 * c1**3) / (6 * c0 * c1), e1 - c1])


def _spectrum(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c with the ascending eigenvalues and eigenvectors of J L, J the flip."""
    lam, Q = np.linalg.eigh(_lower_toeplitz(c)[::-1])
    return c, lam, Q


def _spectral_jacobian(Q: np.ndarray) -> np.ndarray:
    """The Jacobian D[k, j] = q_k^T J S^j q_k = sum_{l >= j} Q[r - 1 - l, k] Q[l - j, k]
    in c of the eigenvalues of J L (realize_modulus), from its eigenvectors Q.
    All r shifts S^j q_k are built at once as the lower-triangular Toeplitz
    matrices of Q's columns, as L is built from c."""
    shifted = _lower_toeplitz(Q.T)  # entry (k, l, j) is row l of S^j q_k
    return (Q[::-1].T[:, :, None] * shifted).sum(axis=1)


def _spectral_newton(point: tuple, goal: np.ndarray) -> tuple[tuple, bool]:
    """Damped Newton for the ascending eigenvalues of J lower-Toeplitz(c) = goal.

    point is (c, lam, Q), real c with the eigenvalues and eigenvectors of its
    J L, and so is the returned point, the last accepted one, with whether
    its residual ||lam - goal|| is at most 1e-12 of the goal's largest
    magnitude, where the fit stops.  Each step solves the square system
    D dc = goal - lam with the Jacobian D (_spectral_jacobian) and is halved
    until the residual decreases.  The fit ends at _NEWTON_HALVINGS halvings
    over all its steps, or at an exactly singular D.  Every trial point costs
    one eigh, and the start's comes with it.
    """
    c, lam, Q = point
    tol = 1e-12 * np.max(np.abs(goal))
    res, halvings = float(np.linalg.norm(lam - goal)), 0
    for _ in range(_NEWTON_STEPS):
        if res <= tol:
            break
        try:
            step = np.linalg.solve(_spectral_jacobian(Q), goal - lam)
        except np.linalg.LinAlgError:  # exactly singular: no Newton step exists
            break
        while halvings < _NEWTON_HALVINGS:
            trial = _spectrum(c + step)
            res_new = float(np.linalg.norm(trial[1] - goal))
            if res_new < res:
                (c, lam, Q), res = trial, res_new
                break
            step, halvings = step / 2, halvings + 1
        else:
            break
    return (c, lam, Q), res <= tol


def synthesize_tto_for_nilpotent2(N, seed: int = 0) -> SynthesisResult:
    """Analytic model-space operator unitarily equivalent to N (N^2 = 0).

    No step is random: seed is range-checked and not used.  It stays while
    the benchmark passes it, and goes with the benchmark refresh (ROADMAP
    item 1).  The k = 1 call of ``_syntheses``.
    """
    check_count(seed, "seed", least=0)
    return _syntheses(as_matrix(N, square=True)[None])[0]


def _syntheses(A: np.ndarray) -> list[SynthesisResult]:
    """``synthesize_tto_for_nilpotent2`` of each matrix of a (k, n, n) stack.

    Each result equals its own k = 1 call's bit for bit, and a stack raises
    the error of its first refused matrix.  The splittings come from one
    ``_nilpotent2_forms`` pass, and W0, with W0 N W0* = [[0,0,0],[0,0,0],
    [B,0,0]], reorders the rows of each form's W (``_canonical_rows``).
    ``_fit_modulus`` fits each matrix's singular values in turn; they are
    descending, positive and finite, so ``realize_modulus``'s checks are not
    repeated.  The operators, the frame SVDs of the matrices of each rank
    (one ``_per_rank`` call), W and the equivalence norms are stacked.  A
    matrix of rank 0 takes the zero operator on the model space of z^n and
    W = I.
    """
    if not len(A):
        return []
    n = A.shape[-1]
    forms = _nilpotent2_forms(A, DEFAULT_TOL)
    ranks = [form.rank for form in forms]
    realizations = [_fit_modulus(form.singular_values) if form.rank else None for form in forms]

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
