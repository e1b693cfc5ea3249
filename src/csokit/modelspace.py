"""Finite Blaschke products, model spaces, and truncated Toeplitz operators.

The model space of a degree-n Blaschke product u carries the orthonormal
rational basis

    e_k(z) = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) * prod_{j<k} b_{a_j}(z)

which reduces to the monomials when every zero is 0.  In this basis the
compression A_u of multiplication by z has a closed form, and every analytic
truncated Toeplitz operator (the compression f -> P(phi f)) is phi(A_u), so
tto_matrix involves no quadrature.

The quadrature routes (model conjugation, frame identification, and the
independent cross-checks) use uniform trapezoid sums over the unit circle;
that rule is exact for trigonometric polynomials below the node count and
spectrally accurate for the rational integrands appearing here, and they
monitor the basis Gram residual so underresolution surfaces as an error
instead of wrong numbers.

With the conjugation (C f)(z) = u(z) conj(z f(z)) every analytic truncated
Toeplitz operator is complex symmetric, and the Hankel identity (compress
phi f through the negative Fourier modes of conj(u) phi f, then multiply back
by u) gives an independent route to the same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import AccuracyError, CapacityError, EvaluationError, InputError
from .linalg import Conjugation, operator_norm, singular_values

DEFAULT_QUAD = 1024
QUAD_CAP = 1 << 20  # quadrature nodes; at least 64, at most this (16 MB per sampled row)
ZERO_MARGIN = 1e-8  # Blaschke zeros stay this far inside the disk
POLE_MARGIN = 1e-6  # rational symbol poles stay this far outside
GRAM_TOL = 1e-8


def _trim(coeffs) -> np.ndarray:
    c = np.atleast_1d(np.asarray(coeffs, dtype=complex)).ravel()
    if c.size == 0:
        return np.zeros(1, dtype=complex)
    nz = np.nonzero(np.abs(c) > 0)[0]
    return c[: nz[-1] + 1] if nz.size else np.zeros(1, dtype=complex)


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product, stored as its zero multiset in the open disk.

    Factor convention: b_a(z) = (a - z) / (1 - conj(a) z), except that the
    factor for a = 0 is taken as plain z, so all-zero products are exactly
    z^n.  The product is therefore fixed only up to a unimodular constant.
    """

    zeros: tuple

    def __init__(self, zeros=()):
        zs = tuple(complex(a) for a in zeros)
        for a in zs:
            if not np.isfinite(a):
                raise InputError("Blaschke zero must be finite")
            if abs(a) > 1.0 - ZERO_MARGIN:
                raise InputError(f"Blaschke zero {a} too close to the unit circle")
        object.__setattr__(self, "zeros", zs)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __mul__(self, other: "BlaschkeProduct") -> "BlaschkeProduct":
        return BlaschkeProduct(self.zeros + other.zeros)

    def eval(self, z):
        pts = np.asarray(z, dtype=complex)
        out = np.ones_like(pts)
        for a in self.zeros:
            if a == 0:
                out = out * pts
                continue
            den = 1.0 - np.conj(a) * pts
            if np.any(np.abs(den) < 1e-13):
                raise EvaluationError(f"evaluation at a pole of the factor with zero {a}")
            out = out * (a - pts) / den
        return out if pts.shape else complex(out)


@dataclass(frozen=True, eq=False)
class Symbol:
    """Analytic symbol: polynomial in z, or rational with poles off the
    closed disk (modulus > 1 + 1e-6)."""

    num: np.ndarray
    den: np.ndarray

    def __init__(self, poly=None, *, num=None, den=None):
        if poly is not None:
            num, den = poly, (1.0,)
        n = _trim(num)
        d = _trim(den if den is not None else (1.0,))
        if np.all(d == 0):
            raise InputError("symbol denominator is identically zero")
        if d.size > 1:
            poles = np.roots(d[::-1])
            if np.any(np.abs(poles) < 1.0 + POLE_MARGIN):
                raise InputError("symbol has a pole on or too close to the closed unit disk")
        object.__setattr__(self, "num", n)
        object.__setattr__(self, "den", d)

    @classmethod
    def zero(cls) -> "Symbol":
        return cls(poly=(0.0,))

    @classmethod
    def constant(cls, c) -> "Symbol":
        return cls(poly=(c,))

    @classmethod
    def shift(cls) -> "Symbol":
        return cls(poly=(0.0, 1.0))

    @property
    def is_polynomial(self) -> bool:
        return self.den.size == 1

    @property
    def poly(self) -> np.ndarray:
        if not self.is_polynomial:
            raise InputError("symbol is rational, not polynomial")
        return self.num / self.den[0]

    @property
    def degree(self) -> int:
        return max(self.num.size, self.den.size) - 1

    def eval(self, z):
        pts = np.asarray(z, dtype=complex)
        vals = npoly.polyval(pts, self.num) / npoly.polyval(pts, self.den)
        return vals if pts.shape else complex(vals)

    def __mul__(self, other: "Symbol") -> "Symbol":
        return Symbol(num=npoly.polymul(self.num, other.num), den=npoly.polymul(self.den, other.den))

    def scaled(self, c) -> "Symbol":
        return Symbol(num=self.num * c, den=self.den)


def blaschke_symbol(u: BlaschkeProduct) -> Symbol:
    """u as a rational Symbol, matching eval's convention factor for zero at 0."""
    num = np.ones(1, dtype=complex)
    den = np.ones(1, dtype=complex)
    for a in u.zeros:
        if a == 0:
            num = npoly.polymul(num, np.array([0.0, 1.0], dtype=complex))
        else:
            num = npoly.polymul(num, np.array([a, -1.0], dtype=complex))
            den = npoly.polymul(den, np.array([1.0, -np.conj(a)], dtype=complex))
    return Symbol(num=num, den=den)


class ModelSpace:
    """Orthonormal rational basis of H^2 minus u H^2.

    Exact operators come from the compressed shift; the circle nodes and the
    boundary samples of u and of the basis, used only by the quadrature
    routes, are computed on first use.
    """

    def __init__(self, u: BlaschkeProduct, quad_points: int = DEFAULT_QUAD):
        if quad_points < 64:
            raise InputError("need at least 64 quadrature nodes")
        if quad_points > QUAD_CAP:
            raise CapacityError(f"{quad_points} quadrature nodes exceed the cap {QUAD_CAP}")
        self.u = u
        self.quad_points = int(quad_points)

    @property
    def dim(self) -> int:
        return self.u.degree

    def tto(self, phi: Symbol) -> np.ndarray:
        """phi(A_u) = num(A_u) den(A_u)^{-1}, exactly.

        den(A_u) is invertible: its eigenvalues are den at the zeros of u,
        and the poles of phi lie outside the closed disk.
        """
        A = compressed_shift(self.u)
        return np.linalg.solve(_horner(phi.den, A), _horner(phi.num, A))

    @cached_property
    def nodes(self) -> np.ndarray:
        return np.exp(2j * np.pi * np.arange(self.quad_points) / self.quad_points)

    @cached_property
    def u_samples(self) -> np.ndarray:
        return self.u.eval(self.nodes)

    @cached_property
    def basis_samples(self) -> np.ndarray:
        E = np.empty((self.dim, self.quad_points), dtype=complex)
        prefix = np.ones(self.quad_points, dtype=complex)
        for k, a in enumerate(self.u.zeros):
            if a == 0:
                E[k] = prefix
                prefix = prefix * self.nodes
            else:
                den = 1.0 - np.conj(a) * self.nodes
                E[k] = np.sqrt(1.0 - abs(a) ** 2) / den * prefix
                prefix = prefix * (a - self.nodes) / den
        return E

    @cached_property
    def gram_residual(self) -> float:
        G = self.basis_samples @ self.basis_samples.conj().T / self.quad_points
        return operator_norm(G - np.eye(self.dim))

    def require_resolved(self, tol: float = GRAM_TOL) -> "ModelSpace":
        if self.gram_residual > tol:
            raise AccuracyError(
                f"basis Gram residual {self.gram_residual:.3e} above {tol:.1e}; "
                "raise quad_points"
            )
        return self

    def project(self, samples: np.ndarray) -> np.ndarray:
        """Coefficients of the projection of boundary samples onto the basis."""
        return self.basis_samples.conj() @ np.asarray(samples, dtype=complex).T / self.quad_points

    def compress(self, multiplier_samples: np.ndarray) -> np.ndarray:
        """Matrix of f -> P(m f) on the basis, for boundary samples of m."""
        E = self.basis_samples
        return (E.conj() * multiplier_samples) @ E.T / self.quad_points


def _horner(coeffs: np.ndarray, A: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] A^k."""
    eye = np.eye(A.shape[0], dtype=complex)
    P = np.zeros_like(eye)
    for c in coeffs[::-1]:
        P = P @ A + c * eye
    return P


def compressed_shift(u: BlaschkeProduct) -> np.ndarray:
    """The compression A_u of multiplication by z, in closed form.

    A_u is a contraction generating all analytic truncated Toeplitz operators
    on the space.  In the basis above it is lower triangular with diagonal
    a_i and, for i > j,

        A_ij = c_i c_j eps_j prod_{j<k<i} (-conj(a_k) eps_k),

    where c = sqrt(1 - |a|^2) and eps_k = +1 when a_k = 0 (factor z), else -1
    (factor (a - z) / (1 - conj(a) z)).  Built one sub-diagonal at a time.
    """
    a = np.asarray(u.zeros, dtype=complex)
    n = a.size
    c = np.sqrt(1.0 - np.abs(a) ** 2)
    eps = np.where(a == 0, 1.0, -1.0)
    step = -np.conj(a) * eps
    A = np.diag(a)
    run = (c * eps)[:-1]  # run[j] = c_j eps_j prod_{j<k<j+d} step_k on sub-diagonal d
    for d in range(1, n):
        rows = np.arange(d, n)
        A[rows, rows - d] = c[d:] * run
        run = run[:-1] * step[d:-1]
    return A


def tto_matrix(u: BlaschkeProduct, phi: Symbol, quad_points: int = DEFAULT_QUAD) -> np.ndarray:
    """Matrix of f -> P(phi f) on the orthonormal basis of the model space.

    Computed exactly as phi(A_u) (see ModelSpace.tto); the result does not
    depend on quad_points, which sizes only the space's quadrature grid.
    """
    return ModelSpace(u, quad_points).tto(phi)


def fn_calculus_check(u: BlaschkeProduct, phi: Symbol, quad_points: int = DEFAULT_QUAD) -> float:
    """|| phi(A_u) - quadrature compression of phi || for polynomial phi.

    Compares the exact functional calculus of tto_matrix against the
    independent circle-quadrature route at quad_points nodes.
    """
    if not phi.is_polynomial:
        raise InputError("functional calculus check requires a polynomial symbol")
    ms = ModelSpace(u, quad_points).require_resolved()
    return operator_norm(ms.tto(phi) - ms.compress(phi.eval(ms.nodes)))


def model_conjugation(u: BlaschkeProduct, quad_points: int = DEFAULT_QUAD) -> Conjugation:
    """The conjugation (C f)(z) = u(z) conj(z f(z)) of the model space.

    Every truncated Toeplitz operator on the space, analytic or not, is
    symmetric under it.  For u = z^n it is the basis flip z^k -> z^{n-1-k}.
    """
    ms = ModelSpace(u, quad_points).require_resolved()
    CE = ms.u_samples * np.conj(ms.nodes * ms.basis_samples)
    G = ms.basis_samples.conj() @ CE.T / ms.quad_points
    G = 0.5 * (G + G.T)
    C = Conjugation(G)
    if C.unitarity_residual() > GRAM_TOL or C.symmetry_residual() > GRAM_TOL:
        raise AccuracyError("conjugation matrix failed its invariants; raise quad_points")
    return C


def _fourier_coefficients(samples: np.ndarray) -> np.ndarray:
    """f_hat(k) for k = 0..Q-1 along the last axis, negative modes aliased to Q + k."""
    return np.fft.fft(samples) / samples.shape[-1]


def _fine_space(ms: ModelSpace, M: int) -> ModelSpace:
    """The space of ms.u on a grid fine enough for M Fourier modes (ms itself
    when its grid already is)."""
    Q = max(4 * M, ms.quad_points, DEFAULT_QUAD)
    return ms if Q == ms.quad_points else ModelSpace(ms.u, Q)


def _hankel_section(fine: ModelSpace, phi: Symbol, M: int) -> np.ndarray:
    """M x M finite section of the Hankel operator with symbol conj(u) phi.

    Columns are the monomials z^0..z^{M-1}, rows the conjugate monomials
    z^{-1}..z^{-M}; the (r, c) entry is Fourier coefficient -(r+c+1) of the
    symbol, computed by FFT on the grid of ``fine`` (see _fine_space), fine
    enough that aliasing sits far below the truncation error.
    """
    if M < 64:
        raise InputError("Hankel truncation needs M >= 64")
    coeffs = _fourier_coefficients(np.conj(fine.u_samples) * phi.eval(fine.nodes))
    v = coeffs[-1 : -2 * M : -1]  # psi_hat(-(k+1)) for k = 0..2M-2
    return np.lib.stride_tricks.sliding_window_view(v, M).copy()  # row r is v[r : r + M]


def verify_hankel_factorization(
    u: BlaschkeProduct,
    phi: Symbol,
    M: int,
    quad_points: int = DEFAULT_QUAD,
    residual_cap: float = 1e-6,
) -> float:
    """Residual of the factorization (TTO) = (multiply by u) o (Hankel section).

    Each basis function is expanded in its first M Taylor coefficients (one
    FFT of its samples on the fine grid), pushed through the finite Hankel
    section of conj(u) phi into negative modes, evaluated on the
    quad_points nodes by one FFT (see _hankel_route_residual), multiplied
    back by u, and compressed to the model space by the trapezoid rule; the
    result is compared against tto_matrix.  If the residual exceeds
    residual_cap and does not decrease when M doubles, the truncation is not
    converging and an accuracy error is raised.
    """
    ms = ModelSpace(u, quad_points).require_resolved()
    direct = ms.tto(phi)
    residual = _hankel_route_residual(ms, phi, M, direct)
    if residual > residual_cap:
        again = _hankel_route_residual(ms, phi, 2 * M, direct)
        if again >= residual:
            raise AccuracyError(
                f"Hankel residual {residual:.3e} did not decrease at doubled truncation"
            )
    return residual


def _hankel_route_residual(ms: ModelSpace, phi: Symbol, M: int, direct) -> float:
    """Residual of the Hankel route on the space ms against direct, at truncation M.

    Row j of ``negative`` holds the modes -(r+1), r = 0..M-1, of the Hankel
    image of e_j, so on the Q = ms.quad_points nodes z_q the image is
    u(z_q) conj(z_q) sum_r negative[j, r] conj(z_q)^r.  That sum is a DFT:
    conj(z_q)^r depends only on r mod Q, so the modes are folded modulo Q and
    evaluated by one FFT of length Q.
    """
    Q = ms.quad_points
    fine = _fine_space(ms, M)
    taylor = _fourier_coefficients(fine.basis_samples)[:, :M]
    H = _hankel_section(fine, phi, M)
    negative = taylor @ H.T
    padded = np.zeros((len(negative), -(-M // Q) * Q), dtype=complex)
    padded[:, :M] = negative
    folded = padded.reshape(len(negative), -1, Q).sum(axis=1)
    images = ms.u_samples * np.conj(ms.nodes) * np.fft.fft(folded)
    return operator_norm(ms.project(images) - direct)


def _frame_coordinates(big: ModelSpace, parts) -> np.ndarray:
    """Coordinates in big's basis of m * e, for each (m, space) in parts and
    each basis function e of that space, in order: one column per function."""
    return big.project(np.vstack([m * space.basis_samples for m, space in parts]))


def modelspace_decompose(
    u: BlaschkeProduct,
    v: BlaschkeProduct,
    w: BlaschkeProduct | None = None,
    quad_points: int = DEFAULT_QUAD,
):
    """Unitary identification of the model space of uv (or uvw) with the
    orthogonal frame K_u, u K_v (and u v K_w).

    Returns (Q, blocks): Q's columns are the frame functions in the
    coordinates of the big space's own basis, so Q maps frame coordinates to
    basis coordinates; blocks lists (label, dimension) in frame order.
    """
    total = u * v if w is None else u * v * w
    big = ModelSpace(total, quad_points).require_resolved()
    ms_u = ModelSpace(u, quad_points)
    ms_v = ModelSpace(v, quad_points)
    parts = [(1.0, ms_u), (ms_u.u_samples, ms_v)]
    blocks = [("K_u", u.degree), ("u*K_v", v.degree)]
    if w is not None:
        parts.append((ms_u.u_samples * ms_v.u_samples, ModelSpace(w, quad_points)))
        blocks.append(("u*v*K_w", w.degree))
    Q = _frame_coordinates(big, parts)
    if operator_norm(Q.conj().T @ Q - np.eye(total.degree)) > GRAM_TOL:
        raise AccuracyError("frame identification is not unitary; raise quad_points")
    return Q, blocks


def block_structure_check(
    u: BlaschkeProduct, v: BlaschkeProduct, phi: Symbol, quad_points: int = DEFAULT_QUAD
) -> float:
    """Residual of the block form of the v phi operator on the uv space.

    In the domain frame K_u + u K_v and codomain frame v K_u + K_v the matrix
    must be [[A, 0], [0, 0]] where A is exactly the phi operator on K_u
    (multiplication by inner v is isometric).  Returns the largest violation:
    off-block norms, lower-right norm, and the singular value mismatch of the
    live block against tto_matrix(u, phi).
    """
    total = u * v
    A_big = tto_matrix(total, blaschke_symbol(v) * phi, quad_points)
    big = ModelSpace(total, quad_points)
    ms_u = ModelSpace(u, quad_points)
    ms_v = ModelSpace(v, quad_points)
    Q1 = _frame_coordinates(big, [(1.0, ms_u), (ms_u.u_samples, ms_v)])
    Q2 = _frame_coordinates(big, [(ms_v.u_samples, ms_u), (1.0, ms_v)])
    M = Q2.conj().T @ A_big @ Q1
    du = u.degree
    live = M[:du, :du]
    small = tto_matrix(u, phi, quad_points)
    sv_gap = 0.0
    if du:
        sv_gap = float(np.max(np.abs(singular_values(live) - singular_values(small))))
    return max(
        operator_norm(M[:du, du:]),
        operator_norm(M[du:, :du]),
        operator_norm(M[du:, du:]),
        sv_gap,
    )
