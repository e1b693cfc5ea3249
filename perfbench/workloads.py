"""What each request calls in csokit, and how its reply is judged.

``execute`` is the timed part: it calls csokit's public API only, looking each
function up on the module at call time so that a traced run sees the wrapped
functions.  ``judge`` runs afterwards, outside the timing, and returns None
for a reply that holds up or the failure cause for one that does not.
"""

from __future__ import annotations

import json
import os

import numpy as np

import recheck

# failure causes, in the order the metrics list them
CAUSES = ("toolkit_error", "raw_exception", "recheck", "verdict", "inconclusive")


def is_wrong(req, cause) -> bool:
    """A wrong answer, as opposed to no answer (an error or an inconclusive end).

    A certificate the recheck rejects is wrong, except on a near-nilpotent
    input (truth "either"): that input lies within 1e-9 of both verdicts, so a
    certificate that misses the 1e-9 tolerance there counts as a failure only.
    """
    return cause == "verdict" or (cause == "recheck" and req.truth != "either")


def _u(cs, zeros):
    return cs.BlaschkeProduct(zeros)


def _phi(cs, phi):
    return cs.Symbol(num=phi["num"], den=phi["den"])


def execute(cs, req, tmpdir: str):
    """Send one request to csokit and return its raw reply."""
    d = req.data
    cls = req.cls
    if cls in ("nilpotent", "near_nilpotent", "cso", "generic"):
        return cs.find_conjugation(d["T"])
    if cls == "destructor":
        cert = cs.destructor_witness(d["A"], d["alpha"], d["beta"])
        G = None
        if cert.conclusion == "indestructible_sampled":
            G = cs.nilpotent2_tensor_conjugation(d["A"], cert.witness_B).matrix
        return cert, G
    if cls.startswith("rank"):
        return cs.synthesize_tto_for_nilpotent2(d["N"], seed=d["seed"])
    if cls in ("random", "near_circle"):
        u = _u(cs, d["zeros"])
        A = cs.tto_matrix(u, _phi(cs, d["phi"]), d["quad"])
        return A, cs.model_conjugation(u, d["quad"]).matrix
    if cls == "monomial":
        return cs.tto_matrix(_u(cs, [0.0] * d["degree"]), _phi(cs, d["phi"]), 1024)
    if cls == "crosscheck":
        kind = d["kind"]
        us = [_u(cs, d[k]) for k in sorted(d) if k.startswith("zeros")]
        if kind == "fn_calculus":
            return cs.fn_calculus_check(us[0], _phi(cs, d["phi"]), 1024)
        if kind == "hankel":
            return cs.verify_hankel_factorization(us[0], _phi(cs, d["phi"]), 256, 1024)
        return cs.modelspace_decompose(*us, quad_points=1024)
    if cls == "replay":
        out = os.path.join(tmpdir, f"replay-{req.rid}.json")
        code = cs.cli.main(["verify-paper", "--seed", str(d["suite_seed"]), "--out", out])
        return code, out
    if cls == "cli_certify":
        out = os.path.join(tmpdir, f"certify-{req.rid}.json")
        return cs.cli.main(["certify", "--matrix", d["matrix"], "--out", out]), out
    raise ValueError(f"unknown input class {cls!r}")


def judge(req, reply) -> str | None:
    d = req.data
    cls = req.cls
    if cls in ("nilpotent", "near_nilpotent", "cso", "generic"):
        if reply.verdict == "inconclusive":
            return "inconclusive"
        if reply.verdict == "c_symmetric":
            G = None if reply.conjugation is None else reply.conjugation.matrix
            if G is None or recheck.conjugation_problem(d["T"], G):
                return "recheck"
        elif reply.verdict == "obstructed":
            if recheck.obstruction_problem(d["T"], reply.obstruction_word, reply.obstruction_gap):
                return "recheck"
        else:
            return "verdict"
        return None if req.truth in ("either", reply.verdict) else "verdict"
    if cls == "destructor":
        cert, G = reply
        said = {"destroyed": "destroyed", "indestructible_sampled": "indestructible"}.get(cert.conclusion)
        if said != req.truth:
            return "verdict"
        if said == "indestructible" and G is None:
            return "recheck"
        return "recheck" if recheck.destructor_problem(d["A"], d["alpha"], d["beta"], cert, G) else None
    if cls.startswith("rank"):
        res = reply
        if not res.converged:
            return "inconclusive"
        bad = recheck.synthesis_problem(
            d["N"], res.W, res.tto, res.u_total.zeros, res.symbol_total.num, res.symbol_total.den
        )
        return "recheck" if bad else None
    if cls in ("random", "near_circle"):
        A, G = reply
        phi = d["phi"]
        if recheck.tto_problem(A, d["zeros"], phi["num"], phi["den"]):
            return "recheck"
        return "recheck" if recheck.model_symmetry_problem(A, G) else None
    if cls == "monomial":
        L = recheck.toeplitz_oracle(d["phi"]["num"], d["degree"])
        err = recheck.norm2(np.asarray(reply) - L)
        return "recheck" if err > 1e-10 * max(1.0, recheck.norm2(L)) else None
    if cls == "crosscheck":
        kind = d["kind"]
        if kind == "fn_calculus":
            return None if reply <= 1e-8 else "verdict"
        if kind == "hankel":
            return None if reply <= 1e-6 else "verdict"
        Q, blocks = reply
        degrees = [len(d[k]) for k in sorted(d) if k.startswith("zeros")]
        if [dim for _, dim in blocks] != degrees:
            return "recheck"
        return "recheck" if recheck.unitary_problem(Q) else None
    if cls == "replay":
        code, path = reply
        with open(path) as fh:
            report = json.load(fh)
        os.remove(path)
        if len(report.get("entries", ())) != 9:
            return "recheck"
        passed = code == 0 and report["all_pass"] and all(e["status"] == "pass" for e in report["entries"])
        return None if passed else "verdict"
    if cls == "cli_certify":
        code, path = reply
        with open(path) as fh:
            verdict = json.load(fh)["verdict"]
        os.remove(path)
        return None if code == 0 and verdict == req.truth else "verdict"
    raise ValueError(f"unknown input class {cls!r}")
