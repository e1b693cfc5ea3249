"""Metric names and units, and the per-layer metrics computed from spans.

The lists here and the ``end_to_end`` / ``per_layer`` lists in BENCHMARK.json
name the same metrics; the benchmark's tests check that they agree.
"""

from __future__ import annotations

import statistics

import numpy as np
from scipy.stats.mstats import hdquantiles

import tracing
from tracing import ATTRS, END, NAME, PARENT, START
from workloads import CAUSES

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "suite_s": "s",
}

VERIFY_ENTRIES = (
    "order2_conjugations",
    "explicit_blocks",
    "indestructibility",
    "tensor_reflected_adjoint",
    "shift_coshift_blocks",
    "tto_suite",
    "synthesis_roundtrip",
    "word_identities",
)
ROUTES = ("nilpotent2", "transpose", "intertwiner", "words", "inconclusive")
RANKS = (1, 2, 3, 4)

# inclusive seconds ("s"), self seconds ("self_s") or call counts ("calls") of one span name
_SPAN_METRICS = (
    ("certify.find_conjugation", "self_s"),
    ("certify.intertwiner_basis", "s"),
    ("linalg.unitary_in_subspace", "s"),
    ("certify.word_obstruction_search", "s"),
    ("words.eval_word", "calls"),
    ("certify.nilpotency_order", "s"),
    ("certify.conjugation_for_nilpotent2", "s"),
    ("indestructible.destructor_witness", "s"),
    ("indestructible.nilpotent2_tensor_conjugation", "s"),
    ("synthesis.realize_modulus", "s"),
    ("synthesis.least_squares", "calls"),
    ("synthesis.nelder_mead", "calls"),
    ("certify.nilpotent2_splitting", "s"),
    ("synthesis.unitary_equivalence_check", "s"),
    ("modelspace.tto_matrix", "calls"),
    ("modelspace.tto_matrix", "s"),
    ("modelspace.ModelSpace", "calls"),
    ("modelspace.ModelSpace", "s"),
    ("modelspace.model_conjugation", "s"),
    ("modelspace.modelspace_decompose", "s"),
    ("modelspace.fn_calculus_check", "s"),
    ("modelspace.verify_hankel_factorization", "s"),
    ("linalg.operator_norm", "calls"),
    ("linalg.operator_norm", "s"),
    ("serialize.dumps", "s"),
    ("cli.main", "self_s"),
)
_UNIT = {"s": "s", "self_s": "s", "calls": "count"}

PER_LAYER = {f"{name}.{kind}": _UNIT[kind] for name, kind in _SPAN_METRICS}
PER_LAYER.update(
    {
        "certify.intertwiner_basis.kron_bytes": "bytes",
        "linalg.unitary_in_subspace.candidates": "count",
        "certify.candidate_accept_ratio": "ratio",
        **{f"certify.route.{r}": "count" for r in ROUTES},
        **{f"synthesis.realize_modulus.rank{r}.s": "s" for r in RANKS},
        "synthesis.least_squares.nfev": "count",
        "modelspace.basis_samples": "count",
        "modelspace.accuracy_errors": "count",
        **{f"verify.entry.{e}.s": "s" for e in VERIFY_ENTRIES},
        "verify.determinism_rerun.s": "s",
        **{f"fail.{c}": "count" for c in CAUSES},
        "trace.overhead_frac": "ratio",
        "trace.coverage": "ratio",
    }
)


def _route(spans, idx, children) -> str:
    names = {spans[c][NAME] for c in children.get(idx, ())}
    verdict = (spans[idx][ATTRS] or {}).get("verdict")
    if "certify.conjugation_for_nilpotent2" in names:
        return "nilpotent2"
    if verdict == "c_symmetric":
        return "intertwiner" if "certify.intertwiner_basis" in names else "transpose"
    return "words" if verdict == "obstructed" else "inconclusive"


def layer_metrics(spans, causes, untraced_s: float, traced_s: float, traced_latency: dict) -> dict:
    """Every per-layer metric, from the spans of one traced pass.

    ``causes`` holds the failure cause (or None) of each traced request,
    ``traced_latency`` maps request id to its traced wall time, and
    ``untraced_s`` / ``traced_s`` are the speed-scaled totals of both passes.
    """
    table = tracing.summarize(spans)
    out = {f"{name}.{kind}": table[name][kind] if name in table else 0.0 for name, kind in _SPAN_METRICS}
    children: dict = {}
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append(i)

    routes = dict.fromkeys(ROUTES, 0)
    candidates = 0
    ranks = dict.fromkeys(RANKS, 0.0)
    rerun = 0.0
    for i, s in enumerate(spans):
        if s[NAME] == "certify.find_conjugation":
            routes[_route(spans, i, children)] += 1
        elif s[NAME] == "linalg.unitary_in_subspace" and tracing.has_ancestor(spans, i, "certify.find_conjugation"):
            candidates += (s[ATTRS] or {}).get("candidates", 0)
        elif s[NAME] == "synthesis.realize_modulus":
            rank = s[ATTRS]["rank"] if s[ATTRS] else None
            if rank in ranks:
                ranks[rank] += s[END] - s[START]
        elif s[NAME] == "verify.run_suite_with_determinism":
            suites = [c for c in children.get(i, ()) if spans[c][NAME] == "verify.run_suite"]
            rerun += sum(spans[c][END] - spans[c][START] for c in suites[1:])

    out["certify.intertwiner_basis.kron_bytes"] = table.get("certify.intertwiner_basis", {}).get("kron_bytes", 0)
    out["linalg.unitary_in_subspace.candidates"] = candidates
    out["certify.candidate_accept_ratio"] = routes["intertwiner"] / candidates if candidates else 0.0
    out.update({f"certify.route.{r}": n for r, n in routes.items()})
    out.update({f"synthesis.realize_modulus.rank{r}.s": t for r, t in ranks.items()})
    out["synthesis.least_squares.nfev"] = table.get("synthesis.least_squares", {}).get("nfev", 0)
    out["modelspace.basis_samples"] = table.get("modelspace.ModelSpace", {}).get("basis_samples", 0)
    out["modelspace.accuracy_errors"] = tracing.error_origins(spans, "AccuracyError")
    for e in VERIFY_ENTRIES:
        row = table.get(f"verify.entry_{e}")
        out[f"verify.entry.{e}.s"] = row["s"] if row else 0.0
    out["verify.determinism_rerun.s"] = rerun
    out.update({f"fail.{c}": sum(1 for x in causes if x == c) for c in CAUSES})
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0
    covered = tracing.root_time_by_request(spans)
    total = sum(traced_latency.values())
    out["trace.coverage"] = sum(min(covered.get(r, 0.0), t) for r, t in traced_latency.items()) / total if total else 0.0
    return {k: float(v) for k, v in out.items()}


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics rather than one or two of them, so
    it moves smoothly when a run's latencies cluster (certify-mix has a 6-10 ms
    and a 15-25 ms cluster of CSO requests right at its median).
    """
    return float(hdquantiles(np.asarray(values, dtype=float), prob=[q])[0])


def end_to_end(latencies, decks, ok: int, setup_s: float, peak_rss_mb: float) -> dict:
    """End-to-end metrics of one untraced run (setup_s and peak RSS given).

    ``decks`` holds the latencies of each complete deck of the run.
    """
    lat = np.asarray(latencies)
    return {
        "setup_s": setup_s,
        "ops_per_s": lat.size / lat.sum(),
        "latency_p50_ms": 1e3 * quantile(lat, 0.5),
        "latency_p90_ms": 1e3 * quantile(lat, 0.9),
        "ok_frac": ok / lat.size,
        "peak_rss_mb": peak_rss_mb,
        "suite_s": statistics.fmean(sum(d) for d in decks),
    }
