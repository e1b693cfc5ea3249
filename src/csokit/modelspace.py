"""Finite Blaschke products, model spaces, and truncated Toeplitz operators.

The model space of a degree-n Blaschke product u carries the orthonormal
rational basis

    e_k(z) = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) * prod_{j<k} b_{a_j}(z)

which reduces to the monomials when every zero is 0.  All inner products are
uniform trapezoid sums over the unit circle; that rule is exact for
trigonometric polynomials below the node count and spectrally accurate for
the rational integrands appearing here, and every construction monitors the
basis Gram residual so underresolution surfaces as an error instead of wrong
numbers.

A truncated Toeplitz operator is the compression f -> P(phi f) of
multiplication to the model space; with the conjugation
(C f)(z) = u(z) conj(z f(z)) every analytic one is complex symmetric, and
the Hankel identity (compress phi f through the negative Fourier modes of
conj(u) phi f, then multiply back by u) gives an independent route to the
same matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg
from numpy.polynomial import polynomial as npoly

from .errors import AccuracyError, EvaluationError, InputError
from .linalg import Conjugation, operator_norm, singular_values

DEFAULT_QUAD = 1024
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
    """Orthonormal rational basis of H^2 minus u H^2, sampled on the circle."""

    def __init__(self, u: BlaschkeProduct, quad_points: int = DEFAULT_QUAD):
        if quad_points < 64:
            raise InputError("need at least 64 quadrature nodes")
        self.u = u
        self.quad_points = int(quad_points)
        self.nodes = np.exp(2j * np.pi * np.arange(self.quad_points) / self.quad_points)
        self.u_samples = u.eval(self.nodes)
        E = np.empty((u.degree, self.quad_points), dtype=complex)
        prefix = np.ones(self.quad_points, dtype=complex)
        for k, a in enumerate(u.zeros):
            if a == 0:
                E[k] = prefix
                prefix = prefix * self.nodes
            else:
                den = 1.0 - np.conj(a) * self.nodes
                E[k] = np.sqrt(1.0 - abs(a) ** 2) / den * prefix
                prefix = prefix * (a - self.nodes) / den
        self.basis_samples = E

    @property
    def dim(self) -> int:
        return self.u.degree

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


def tto_matrix(u: BlaschkeProduct, phi: Symbol, quad_points: int = DEFAULT_QUAD) -> np.ndarray:
    """Matrix of f -> P(phi f) on the orthonormal basis of the model space."""
    if quad_points < 8 * (u.degree + phi.degree):
        raise InputError(
            f"quad_points {quad_points} < 8 * (deg u + deg phi) = {8 * (u.degree + phi.degree)}"
        )
    ms = ModelSpace(u, quad_points).require_resolved()
    return ms.compress(phi.eval(ms.nodes))


def compressed_shift(u: BlaschkeProduct, quad_points: int = DEFAULT_QUAD) -> np.ndarray:
    """The compression of multiplication by z; a contraction generating all
    analytic truncated Toeplitz operators on the space."""
    return tto_matrix(u, Symbol.shift(), quad_points)


def fn_calculus_check(u: BlaschkeProduct, phi: Symbol, quad_points: int = DEFAULT_QUAD) -> float:
    """|| phi(compressed shift) - tto_matrix(u, phi) || for polynomial phi."""
    if not phi.is_polynomial:
        raise InputError("functional calculus check requires a polynomial symbol")
    Az = compressed_shift(u, quad_points)
    direct = tto_matrix(u, phi, quad_points)
    P = np.zeros_like(Az)
    for c in phi.poly[::-1]:
        P = P @ Az + c * np.eye(Az.shape[0])
    return operator_norm(P - direct)


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
    """f_hat(k) for k = 0..Q-1 with negative modes aliased to Q + k."""
    return np.fft.fft(samples) / samples.size


def _fine_nodes(M: int, quad_points: int) -> np.ndarray:
    Q = max(4 * M, quad_points, DEFAULT_QUAD)
    return np.exp(2j * np.pi * np.arange(Q) / Q)


def hankel_truncation(
    u: BlaschkeProduct, phi: Symbol, M: int, quad_points: int = DEFAULT_QUAD
) -> np.ndarray:
    """M x M finite section of the Hankel operator with symbol conj(u) phi.

    Columns are the monomials z^0..z^{M-1}, rows the conjugate monomials
    z^{-1}..z^{-M}; the (r, c) entry is Fourier coefficient -(r+c+1) of the
    symbol, computed by FFT on a grid fine enough that aliasing sits far
    below the truncation error.
    """
    if M < 64:
        raise InputError("Hankel truncation needs M >= 64")
    nodes = _fine_nodes(M, quad_points)
    psi = np.conj(u.eval(nodes)) * phi.eval(nodes)
    coeffs = _fourier_coefficients(psi)
    v = coeffs[-1 : -2 * M : -1]  # psi_hat(-(k+1)) for k = 0..2M-2
    return scipy.linalg.hankel(v[:M], v[M - 1 :])


def verify_hankel_factorization(
    u: BlaschkeProduct,
    phi: Symbol,
    M: int,
    quad_points: int = DEFAULT_QUAD,
    residual_cap: float = 1e-6,
) -> float:
    """Residual of the factorization (TTO) = (multiply by u) o (Hankel section).

    Each basis function is expanded in its first M Taylor coefficients, pushed
    through the finite Hankel section of conj(u) phi into negative modes,
    multiplied back by u on the boundary, and compressed to the model space;
    the result is compared against tto_matrix.  If the residual exceeds
    residual_cap and does not decrease when M doubles, the truncation is not
    converging and an accuracy error is raised.
    """
    direct = tto_matrix(u, phi, quad_points)
    residual = _hankel_route_residual(u, phi, M, quad_points, direct)
    if residual > residual_cap:
        again = _hankel_route_residual(u, phi, 2 * M, quad_points, direct)
        if again >= residual:
            raise AccuracyError(
                f"Hankel residual {residual:.3e} did not decrease at doubled truncation"
            )
    return residual


def _hankel_route_residual(u, phi, M, quad_points, direct) -> float:
    ms = ModelSpace(u, quad_points).require_resolved()
    fine = _fine_nodes(M, quad_points)
    taylor = np.empty((ms.dim, M), dtype=complex)
    for j in range(ms.dim):
        taylor[j] = _fourier_coefficients(_samples(ms.u, j, fine))[:M]
    H = hankel_truncation(u, phi, M, quad_points)
    negative = taylor @ H.T  # row j: modes -(r+1) of the Hankel image of e_j
    w = np.conj(ms.nodes)
    images = np.empty((ms.dim, ms.quad_points), dtype=complex)
    for j in range(ms.dim):
        images[j] = ms.u_samples * w * npoly.polyval(w, negative[j])
    B = ms.basis_samples.conj() @ images.T / ms.quad_points
    return operator_norm(B - direct)


def _samples(u: BlaschkeProduct, k: int, nodes: np.ndarray) -> np.ndarray:
    """Samples of the k-th basis function of the model space of u."""
    prefix = np.ones_like(nodes)
    for j, a in enumerate(u.zeros):
        if j == k:
            if a == 0:
                return prefix
            return np.sqrt(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * nodes) * prefix
        if a == 0:
            prefix = prefix * nodes
        else:
            prefix = prefix * (a - nodes) / (1.0 - np.conj(a) * nodes)
    raise InputError(f"basis index {k} out of range for degree {u.degree}")


def _frame(parts, quad_points: int) -> np.ndarray:
    """Stack row-sample matrices (multiplier * basis of each part space)."""
    rows = []
    for multiplier_samples, space in parts:
        rows.append(multiplier_samples * space.basis_samples)
    return np.vstack(rows) if rows else np.zeros((0, quad_points), dtype=complex)


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
    ones = np.ones(quad_points, dtype=complex)
    ms_u = ModelSpace(u, quad_points)
    ms_v = ModelSpace(v, quad_points)
    parts = [(ones, ms_u), (ms_u.u_samples, ms_v)]
    blocks = [("K_u", u.degree), ("u*K_v", v.degree)]
    if w is not None:
        parts.append((ms_u.u_samples * ms_v.u_samples, ModelSpace(w, quad_points)))
        blocks.append(("u*v*K_w", w.degree))
    F = _frame(parts, quad_points)
    Q = big.basis_samples.conj() @ F.T / quad_points
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
    ones = np.ones(quad_points, dtype=complex)
    F1 = _frame([(ones, ms_u), (ms_u.u_samples, ms_v)], quad_points)
    F2 = _frame([(ms_v.u_samples, ms_u), (ones, ms_v)], quad_points)
    Q1 = big.basis_samples.conj() @ F1.T / quad_points
    Q2 = big.basis_samples.conj() @ F2.T / quad_points
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


def cancel_common_inner_factor(
    u: BlaschkeProduct, phi: Symbol, tol: float = 1e-8
) -> tuple[BlaschkeProduct, Symbol]:
    """Divide shared disk zeros out of both u and a polynomial phi.

    Each shared zero a is removed from u and the Blaschke factor with zero a
    is divided out of phi (phi / b_a = -(1 - conj(a) z) * phi / (z - a),
    again a polynomial).  The returned pair satisfies b_a ... * phi' = phi.
    """
    if not phi.is_polynomial:
        raise InputError("cancellation applies to polynomial symbols")
    poly = _trim(phi.poly)
    remaining = list(u.zeros)
    changed = True
    while changed and poly.size > 1:
        changed = False
        roots = np.roots(poly[::-1])
        for a in remaining:
            if np.any(np.abs(roots - a) < tol):
                quotient, rem = npoly.polydiv(poly, np.array([-a, 1.0], dtype=complex))
                if np.max(np.abs(rem)) > tol * max(np.max(np.abs(poly)), 1.0):
                    continue
                poly = _trim(npoly.polymul(quotient, np.array([-1.0, np.conj(a)])))
                remaining.remove(a)
                changed = True
                break
    return BlaschkeProduct(remaining), Symbol(poly=poly)
