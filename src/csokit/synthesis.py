"""Synthesis of analytic truncated Toeplitz operators for order-two nilpotents.

Pipeline: split N into its canonical [[0,0,0],[0,0,0],[B,0,0]] shape, realize
the r singular values of B as the modulus of the operator with a polynomial
symbol phi on the model space of u = z^r (a lower-triangular Toeplitz matrix,
fit by least squares; closed forms at r <= 2), pad the leftover kernel with an
inner factor v = z^m, and assemble the operator with symbol u v phi on the
model space of u^2 v, whose three-way frame K_u + u K_v + u v K_u makes the
matrix reproduce the canonical shape exactly.  A unitary W conjugating the
built operator onto N is returned with a recomputable equivalence residual.

unitary_equivalence_check is the generic verification backend: an invariant
screen on singular values, then a search for an exact intertwiner.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .errors import InputError
from .certify import nilpotent2_splitting
from .linalg import (
    as_matrix,
    column_phases,
    direct_sum,
    operator_norm,
    polar_decompose,
    singular_values,
    unitary_in_subspace,
)
from .modelspace import (
    DEFAULT_QUAD,
    BlaschkeProduct,
    Symbol,
    blaschke_symbol,
    modelspace_decompose,
    tto_matrix,
)

# realize_modulus: multi-start budget, and the relative residual that counts
# as converged.
_MODULUS_STARTS = 16
_CONVERGED_REL = 1e-6
# unitary_equivalence_check: alternating-projection starts and iterations, and
# the relative residual below which the intertwiner is returned.
_EQUIV_STARTS = 24
_EQUIV_ITERS = 400
_EQUIV_SUCCESS = 1e-7


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


def canonical_nilpotent_parts(N, tol: float = 1e-9):
    """(B, extra_kernel_dim, W0) with W0 N W0* = [[0,0,0],[0,0,0],[B,0,0]].

    The three blocks live on (ker N)-perp, the leftover kernel, and ran N;
    B is the positive diagonal of singular values, size rank(N).
    """
    A = as_matrix(N, square=True)
    right, left, rest, s = nilpotent2_splitting(A, tol)
    cols = np.hstack([right, rest, left])
    W0 = cols.conj().T
    return np.diag(s), rest.shape[1], W0


def _lower_toeplitz(c: np.ndarray) -> np.ndarray:
    return scipy.linalg.toeplitz(c, np.zeros_like(c))


def _complex_from_params(p: np.ndarray) -> np.ndarray:
    return p[0::2] + 1j * p[1::2]


def realize_modulus(targets, seed: int = 0, quad: int = DEFAULT_QUAD) -> ModulusRealization:
    """Analytic operator on the model space of u = z^r with the r given singular values.

    On that space the operator with symbol phi is the lower-triangular
    Toeplitz matrix of phi's coefficients.  Equal targets t give phi = t
    exactly and two targets have a closed form; otherwise the coefficients
    are fit by nonlinear least squares, from a fixed start and then seeded
    random ones, stopping at the first start whose singular values match to
    1e-12 of the largest target.  The result is flagged converged when the
    matrix rebuilt at ``quad`` points matches to 1e-6 of the largest target;
    an unconverged fit is returned flagged, never raised.
    """
    t = np.sort(np.asarray(targets, dtype=float))[::-1]
    if t.size < 1:
        raise InputError("need at least one target singular value")
    if np.any(t <= 0) or not np.all(np.isfinite(t)):
        raise InputError("targets must be positive finite reals")
    r = t.size
    tmax = float(t[0])
    u = BlaschkeProduct([0.0] * r)

    def finish(phi: Symbol) -> ModulusRealization:
        achieved = singular_values(tto_matrix(u, phi, quad))
        residual = float(np.linalg.norm(achieved - t))
        return ModulusRealization(
            u=u,
            phi=phi,
            target_singular_values=t.copy(),
            achieved_singular_values=achieved,
            residual=residual,
            converged=residual <= _CONVERGED_REL * tmax,
        )

    if np.all(t == tmax):
        return finish(Symbol(poly=[tmax]))
    if r == 2:
        # closed form: [[c0,0],[c1,c0]] has |A|^2 with trace 2c0^2 + c1^2 and
        # determinant c0^4, so c0 = sqrt(t0 t1), c1 = t0 - t1 hits (t0, t1)
        return finish(Symbol(poly=[np.sqrt(t[0] * t[1]), t[0] - t[1]]))

    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(4,)))

    def gap(x: np.ndarray) -> np.ndarray:
        return singular_values(_lower_toeplitz(_complex_from_params(x))) - t

    start0 = np.zeros(2 * r)
    start0[0] = tmax
    best = None
    for idx in range(_MODULUS_STARTS):
        x0 = start0 if idx == 0 else rng.standard_normal(2 * r) * tmax
        sol = scipy.optimize.least_squares(
            gap, x0, method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15
        )
        res = float(np.linalg.norm(sol.fun))
        if best is None or res < best[0]:
            best = (res, sol.x)
        if res <= 1e-12 * tmax:
            break
    return finish(Symbol(poly=_complex_from_params(best[1])))


def _descending_eig_frame(P: np.ndarray) -> np.ndarray:
    """Unitary Omega with Omega P Omega* diagonal descending, phases fixed."""
    _, vecs = np.linalg.eigh(P)
    vecs = vecs[:, ::-1]
    return (vecs * column_phases(vecs)).conj().T


def synthesize_tto_for_nilpotent2(N, seed: int = 0, quad: int = DEFAULT_QUAD) -> SynthesisResult:
    """Analytic model-space operator unitarily equivalent to N (N^2 = 0)."""
    A = as_matrix(N, square=True)
    dim = A.shape[0]
    B, extra, W0 = canonical_nilpotent_parts(A)
    r = B.shape[0]

    if r == 0:
        u_total = BlaschkeProduct([0.0] * dim)
        zero = Symbol.zero()
        T = np.zeros((dim, dim), dtype=complex)
        W = np.eye(dim, dtype=complex)
        return SynthesisResult(
            u_total=u_total,
            symbol_total=zero,
            W=W,
            equivalence_residual=operator_norm(T - A),
            converged=True,
            tto=T,
            modulus=None,
        )

    realization = realize_modulus(np.diag(B).real, seed, quad)
    u, phi = realization.u, realization.phi

    A_small = tto_matrix(u, phi, quad)
    V, P = polar_decompose(A_small)
    Omega = _descending_eig_frame(P)

    v = BlaschkeProduct([0.0] * extra)
    u_total = u * u * v
    symbol_total = blaschke_symbol(u) * blaschke_symbol(v) * phi
    T = tto_matrix(u_total, symbol_total, quad)
    Q, _ = modelspace_decompose(u, v, u, quad)

    blocks = direct_sum(Omega, np.eye(extra), Omega @ V.conj().T)
    W = W0.conj().T @ blocks @ Q.conj().T
    residual = operator_norm(W @ T @ W.conj().T - A)
    return SynthesisResult(
        u_total=u_total,
        symbol_total=symbol_total,
        W=W,
        equivalence_residual=float(residual),
        converged=bool(realization.converged and residual <= max(1e-6 * operator_norm(A), 1e-12)),
        tto=T,
        modulus=realization,
    )


def _screen_gap(X: np.ndarray, Y: np.ndarray) -> float:
    """Lower bound on min_W ||W X W* - Y|| from unitary invariants."""
    sX, sY = singular_values(X), singular_values(Y)
    gap1 = float(np.max(np.abs(sX - sY))) if sX.size else 0.0
    s2X, s2Y = singular_values(X @ X), singular_values(Y @ Y)
    denom = operator_norm(X) + operator_norm(Y) + np.finfo(float).eps
    gap2 = float(np.max(np.abs(s2X - s2Y))) / denom if s2X.size else 0.0
    return max(gap1, gap2)


def _order_key(M: np.ndarray):
    s = np.round(singular_values(M), 9)
    flat = np.round(M, 9).reshape(-1)
    return (s.tobytes(), flat.real.tobytes(), flat.imag.tobytes())


def _intertwiner_candidates(X, Y, n, rng, search=True):
    """Candidate unitaries W aiming at W X = Y W."""
    Ux, _, Vhx = np.linalg.svd(X)
    Uy, _, Vhy = np.linalg.svd(Y)
    frames = (Uy @ Ux.conj().T, Vhy.conj().T @ Vhx, np.eye(n, dtype=complex))
    yield from frames
    if not search:
        return
    eye = np.eye(n)
    sylv = np.kron(X.T, eye) - np.kron(eye, Y)
    # Unitary intertwiners also satisfy W X* = Y* W, and the polar factor of
    # any invertible element of the joint nullspace intertwines exactly
    # (W*W commutes with the algebra generated by X), so these candidates
    # need no iteration.
    adj = np.kron(X.conj(), eye) - np.kron(eye, Y.conj().T)
    joint = scipy.linalg.null_space(np.vstack([sylv, adj]))
    for j in range(joint.shape[1]):
        yield joint[:, j].reshape((n, n), order="F")
    for _ in range(4 if joint.size else 0):
        coeff = rng.standard_normal(joint.shape[1]) + 1j * rng.standard_normal(joint.shape[1])
        yield (joint @ coeff).reshape((n, n), order="F")
    basis = scipy.linalg.null_space(sylv)
    if basis.size:
        yield from unitary_in_subspace(
            basis,
            n,
            symmetric=False,
            initial=frames,
            starts=_EQUIV_STARTS,
            iters=_EQUIV_ITERS,
            rng=rng,
        )


def unitary_equivalence_check(X, Y, seed: int = 0):
    """(residual, W or None): best found value of ||W X - Y W|| over unitaries.

    A singular-value screen gives a certified lower bound first; if it already
    rules the pair far apart, only the cheap frame-matching candidates are
    scored.  Otherwise candidates from alternating projection onto the
    intertwiner space are scored.  The computation is symmetrized by
    canonicalizing the argument order, so residual(X, Y) = residual(Y, X).
    """
    X = as_matrix(X, square=True)
    Y = as_matrix(Y, square=True)
    if X.shape != Y.shape:
        raise InputError(f"shape mismatch {X.shape} vs {Y.shape}")
    n = X.shape[0]
    if n == 0:
        return 0.0, np.zeros((0, 0), dtype=complex)
    scale = max(operator_norm(X), operator_norm(Y), np.finfo(float).eps)

    swapped = _order_key(Y) < _order_key(X)
    A, Bm = (Y, X) if swapped else (X, Y)

    lb = _screen_gap(A, Bm)
    hopeless = lb > 1e-3 * scale
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(5,)))

    best_res, best_W = np.inf, None
    for direction, (S, T) in enumerate(((A, Bm), (Bm, A))):
        for W in _intertwiner_candidates(S, T, n, rng, search=not hopeless):
            U, _, Vh = np.linalg.svd(W)
            W = U @ Vh
            res = operator_norm(W @ S - T @ W)
            if res < best_res:
                best_res, best_W = res, (W if direction == 0 else W.conj().T)
            if best_res <= _EQUIV_SUCCESS * scale * 1e-3:
                break
        if best_res <= _EQUIV_SUCCESS * scale * 1e-3:
            break

    if swapped and best_W is not None:
        best_W = best_W.conj().T
    W_out = best_W if best_res <= _EQUIV_SUCCESS * scale else None
    return float(best_res), W_out
