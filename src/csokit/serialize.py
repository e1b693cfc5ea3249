"""JSON forms for matrices, Blaschke products, symbols, and certificates.

Matrices travel as {"rows": n, "cols": m, "data": [[re, im], ...]} with the
entries flattened row-major; every other object mirrors its dataclass fields.
Serialization is canonical (sorted keys, fixed separators) so identical
inputs produce byte-identical output.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import InputError
from .certify import CsoCertificate
from .indestructible import DestructorCertificate
from .linalg import as_matrix
from .modelspace import BlaschkeProduct, Symbol
from .synthesis import ModulusRealization, SynthesisResult


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _pairs(values) -> list:
    return [[float(np.real(v)), float(np.imag(v))] for v in np.asarray(values).ravel()]


def _complexes(pairs) -> np.ndarray:
    try:
        return np.array([complex(re, im) for re, im in pairs], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InputError(f"expected a list of [re, im] pairs: {exc}") from None


def matrix_to_json(M) -> dict:
    A = as_matrix(M)
    return {"rows": A.shape[0], "cols": A.shape[1], "data": _pairs(A)}


def matrix_from_json(obj) -> np.ndarray:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed matrix object: {exc}") from None
    if rows < 0 or cols < 0:
        raise InputError(f"matrix dimensions must be non-negative, got {rows} x {cols}")
    flat = _complexes(data)
    if flat.size != rows * cols:
        raise InputError(f"matrix data length {flat.size} != rows*cols {rows * cols}")
    return flat.reshape(rows, cols)


def blaschke_to_json(u: BlaschkeProduct) -> dict:
    return {"zeros": _pairs(u.zeros)}


def blaschke_from_json(obj) -> BlaschkeProduct:
    try:
        zeros = obj["zeros"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed Blaschke object: {exc}") from None
    return BlaschkeProduct(_complexes(zeros))


def symbol_to_json(phi: Symbol) -> dict:
    if phi.is_polynomial:
        return {"poly": _pairs(phi.poly)}
    return {"rational": {"num": _pairs(phi.num), "den": _pairs(phi.den)}}


def symbol_from_json(obj) -> Symbol:
    if not isinstance(obj, dict):
        raise InputError("malformed symbol object")
    if "poly" in obj:
        return Symbol(poly=_complexes(obj["poly"]))
    if "rational" in obj:
        rat = obj["rational"]
        try:
            return Symbol(num=_complexes(rat["num"]), den=_complexes(rat["den"]))
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed rational symbol: {exc}") from None
    raise InputError("symbol object needs a 'poly' or 'rational' key")


def _finite_or_none(x: float | None):
    if x is None or math.isnan(x):
        return None
    return float(x)


def cso_certificate_to_json(cert: CsoCertificate) -> dict:
    out = {
        "verdict": cert.verdict,
        "residual": _finite_or_none(cert.residual),
    }
    if cert.conjugation is not None:
        out["G"] = matrix_to_json(cert.conjugation.matrix)
    if cert.obstruction_word is not None:
        out["word"] = cert.obstruction_word
        out["gap"] = _finite_or_none(cert.obstruction_gap)
    return out


def destructor_to_json(cert: DestructorCertificate) -> dict:
    return {
        "witness_B": matrix_to_json(cert.witness_B),
        "alpha": cert.alpha,
        "beta": cert.beta,
        "word": cert.word,
        "norm_wA": cert.norm_wA,
        "norm_wA_rev": cert.norm_wA_rev,
        "norm_wB": cert.norm_wB,
        "norm_wB_rev": cert.norm_wB_rev,
        "conclusion": cert.conclusion,
    }


def modulus_to_json(m: ModulusRealization) -> dict:
    return {
        "u": blaschke_to_json(m.u),
        "phi": symbol_to_json(m.phi),
        "targets": [float(x) for x in m.target_singular_values],
        "achieved": [float(x) for x in m.achieved_singular_values],
        "residual": float(m.residual),
        "converged": bool(m.converged),
    }


def synthesis_to_json(res: SynthesisResult) -> dict:
    out = {
        "u_total": blaschke_to_json(res.u_total),
        "symbol_total": symbol_to_json(res.symbol_total),
        "W": matrix_to_json(res.W),
        "tto": matrix_to_json(res.tto),
        "equivalence_residual": float(res.equivalence_residual),
        "converged": bool(res.converged),
    }
    if res.modulus is not None:
        out["modulus"] = modulus_to_json(res.modulus)
    return out
