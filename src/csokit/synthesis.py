"""Synthesis of analytic truncated Toeplitz operators for order-two nilpotents.

Pipeline: split N into its canonical [[0,0,0],[0,0,0],[B,0,0]] shape, realize
the r singular values of B as the modulus of the operator with a polynomial
symbol phi on the model space of u = z^r (a lower-triangular Toeplitz matrix;
closed forms at r <= 2, otherwise a damped Newton fit on the analytic
Jacobian of the singular values), pad the leftover kernel with an
inner factor v = z^m, and assemble the operator with symbol u v phi on the
model space of u^2 v, whose three-way frame K_u + u K_v + u v K_u makes the
matrix reproduce the canonical shape exactly.  Every inner function is a
power of z, so that frame is the monomial basis of the big space in order and
every matrix is exact.  A unitary W conjugating the built operator onto N is
returned with a recomputable equivalence residual.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .certify import nilpotent2_splitting
from .linalg import (
    DEFAULT_TOL,
    as_matrix,
    check_seed,
    column_phases,
    direct_sum,
    operator_norm,
    polar_decompose,
    singular_values,
)
from .modelspace import BlaschkeProduct, Symbol, blaschke_symbol, tto_matrix

# realize_modulus: multi-start budget, Newton steps per start and step
# halvings per Newton step, and the relative residual that counts as converged.
_MODULUS_STARTS = 16
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


def canonical_nilpotent_parts(N, tol: float = DEFAULT_TOL):
    """(B, extra_kernel_dim, W0) with W0 N W0* = [[0,0,0],[0,0,0],[B,0,0]].

    The three blocks live on (ker N)-perp, the leftover kernel, and ran N;
    B is the positive diagonal of singular values, size rank(N).
    """
    form = nilpotent2_splitting(N, tol)
    r, W = form.rank, form.W
    W0 = np.vstack([W[:r], W[2 * r :], W[r : 2 * r]])
    return np.diag(form.singular_values), form.extra_kernel_dim, W0


def _lower_toeplitz(c: np.ndarray) -> np.ndarray:
    k = np.subtract.outer(np.arange(c.size), np.arange(c.size))  # entry (i, j) is c[i - j]
    return np.where(k >= 0, c[k], 0)


def realize_modulus(targets, seed: int = 0) -> ModulusRealization:
    """Analytic operator on the model space of u = z^r with the r given singular values.

    On that space the operator with symbol phi is the lower-triangular
    Toeplitz matrix of phi's coefficients.  Equal targets t give phi = t
    exactly and two targets have a closed form; otherwise the coefficients
    are fit by damped minimum-norm Newton steps on the singular values,
    whose Jacobian one SVD gives in closed form (_modulus_jacobian).  The
    first start is tmax (1, 1/2, ..., 1/2): its singular values are
    distinct, hence differentiable, whereas at a multiple of the identity
    they all coincide and give no usable gradient.  Seeded random starts
    follow only if a fit stalls; the search stops at the first start whose
    singular values match to 1e-12 of the largest target.  The result is
    flagged converged when the rebuilt matrix matches to 1e-6 of the largest
    target; an unconverged fit is returned flagged, never raised.
    """
    seed = check_seed(seed)
    t = np.sort(np.asarray(targets, dtype=float))[::-1]
    if t.size < 1:
        raise InputError("need at least one target singular value")
    if np.any(t <= 0) or not np.all(np.isfinite(t)):
        raise InputError("targets must be positive finite reals")
    r = t.size
    tmax = float(t[0])
    u = BlaschkeProduct([0.0] * r)

    def finish(phi: Symbol) -> ModulusRealization:
        achieved = singular_values(tto_matrix(u, phi))
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
    start0 = np.full(r, 0.5 * tmax, dtype=complex)
    start0[0] = tmax
    best = None
    for idx in range(_MODULUS_STARTS):
        c = start0 if idx == 0 else (rng.standard_normal(2 * r) * tmax).view(complex)
        c, res = _newton_fit(c, t)
        if best is None or res < best[0]:
            best = (res, c)
        if res <= 1e-12 * tmax:
            break
    return finish(Symbol(poly=best[1]))


def _modulus_jacobian(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of lower-Toeplitz(c), descending, and their r x 2r
    Jacobian in (Re c, Im c).

    With L = sum_j c_j S^j = U diag(s) V*, S the down shift, a simple
    singular value moves by d s_k = Re(u_k* dL v_k), so
    ds_k/dRe c_j = Re(u_k* S^j v_k) and ds_k/dIm c_j = -Im(u_k* S^j v_k).
    """
    r = c.size
    U, s, Vh = np.linalg.svd(_lower_toeplitz(c))
    Uc, V = U.conj(), Vh.conj().T
    D = np.array([np.sum(Uc[j:] * V[: r - j], axis=0) for j in range(r)]).T
    return s, np.hstack([D.real, -D.imag])


def _newton_fit(c: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, float]:
    """Damped minimum-norm Newton for the singular values of lower-Toeplitz(c) = t.

    Each step is the minimum-norm least-squares solution of J dc = t - s,
    halved until the residual ||s - t|| decreases.  Once the residual is at
    or below 1e-12 of the largest target, one more full step is kept if it
    lowers the residual, and the fit stops.  Returns the best coefficients
    and their residual.
    """
    r = t.size
    s, J = _modulus_jacobian(c)
    res = float(np.linalg.norm(s - t))
    for _ in range(_NEWTON_STEPS):
        step = np.linalg.lstsq(J, t - s, rcond=None)[0]
        step = step[:r] + 1j * step[r:]
        polish = res <= 1e-12 * t[0]
        for _ in range(1 if polish else _NEWTON_HALVINGS):
            s_new, J_new = _modulus_jacobian(c + step)
            res_new = float(np.linalg.norm(s_new - t))
            if res_new < res:
                c, s, J, res = c + step, s_new, J_new, res_new
                break
            step = step / 2
        else:
            break
        if polish:
            break
    return c, res


def _descending_eig_frame(P: np.ndarray) -> np.ndarray:
    """Unitary Omega with Omega P Omega* diagonal descending, phases fixed."""
    _, vecs = np.linalg.eigh(P)
    vecs = vecs[:, ::-1]
    return (vecs * column_phases(vecs)).conj().T


def synthesize_tto_for_nilpotent2(N, seed: int = 0) -> SynthesisResult:
    """Analytic model-space operator unitarily equivalent to N (N^2 = 0)."""
    seed = check_seed(seed)
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

    realization = realize_modulus(np.diag(B).real, seed)
    u, phi = realization.u, realization.phi

    A_small = tto_matrix(u, phi)
    V, P = polar_decompose(A_small)
    Omega = _descending_eig_frame(P)

    v = BlaschkeProduct([0.0] * extra)
    u_total = u * u * v
    symbol_total = blaschke_symbol(u) * blaschke_symbol(v) * phi
    T = tto_matrix(u_total, symbol_total)

    blocks = direct_sum(Omega, np.eye(extra), Omega @ V.conj().T)
    W = W0.conj().T @ blocks
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
