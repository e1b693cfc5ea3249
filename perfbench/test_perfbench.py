"""Tests of the benchmark itself: inputs, independent rechecks, span arithmetic.

    python3 -m pytest perfbench -q
"""

import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import metrics  # noqa: E402
import recheck  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _encoded(workload, seed, count):
    stream = inputs.request_stream(workload, seed)
    return b"".join(next(stream).encode() for _ in range(count))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload):
    count = 2 * inputs.deck_size(workload)
    assert _encoded(workload, 7, count) == _encoded(workload, 7, count)
    warm = [r.encode() for r in inputs.warmup_requests(workload)]
    assert warm == [r.encode() for r in inputs.warmup_requests(workload)]
    if workload != "verify-paper":  # the replay's suite seed is fixed on purpose
        assert _encoded(workload, 7, count) != _encoded(workload, 8, count)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_every_deck_holds_the_specified_mix(workload):
    size = inputs.deck_size(workload)
    stream = inputs.request_stream(workload, 3)
    want = dict(inputs.DECKS[workload])
    for deck in range(3):
        reqs = [next(stream) for _ in range(size)]
        assert {r.deck for r in reqs} == {deck}
        got = {}
        for r in reqs:
            got[r.cls] = got.get(r.cls, 0) + 1
        assert got == want


@pytest.mark.parametrize("workload", ["certify-mix", "model-space"])
def test_a_run_attempts_the_same_failing_inputs_whatever_its_seed(workload):
    count = inputs.deck_count(workload, 25) * inputs.deck_size(workload)

    def fixed(seed):
        stream = inputs.request_stream(workload, seed)
        reqs = [next(stream) for _ in range(count)]
        # the same content, wherever the seed puts it in the run
        fixed = [r for r in reqs if r.cls in inputs.FIXED_CONTENT]
        return sorted(inputs.Request(0, 0, r.cls, r.truth, r.data).encode() for r in fixed)

    assert fixed(7) == fixed(8)
    assert inputs.deck_count(workload, 25) >= 1 and inputs.deck_count(workload, 0.001) == 1


def test_near_nilpotent_perturbation_is_in_range():
    stream = inputs.request_stream("certify-mix", 5)
    for req in (r for r in (next(stream) for _ in range(100)) if r.cls == "near_nilpotent"):
        T = req.data["T"]
        # T = N + E with N^2 = 0 and ||E|| in [1e-10, 1e-9] ||N||, so ||T^2|| is O(1e-9) ||T||^2
        rel = np.linalg.norm(T @ T, 2) / np.linalg.norm(T, 2) ** 2
        assert 1e-13 < rel < 1e-8


def _cso(n, seed=0):
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q @ (Z + Z.T) @ Q.conj().T, Q @ Q.T


def test_recheck_rejects_a_corrupted_conjugation():
    T, G = _cso(5)
    assert recheck.conjugation_problem(T, G) is None
    bad = G.copy()
    bad[0, 1] += 1e-6
    bad[1, 0] += 1e-6
    assert recheck.conjugation_problem(T, bad) is not None  # no longer unitary
    assert recheck.conjugation_problem(T, np.eye(5)) is not None  # unitary, wrong
    assert recheck.conjugation_problem(T, G @ np.diag([1, 1, 1, 1, -1])) is not None  # not symmetric


def test_recheck_rejects_a_corrupted_word():
    rng = np.random.default_rng(1)
    T = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    gap = recheck.word_gap(T, "xxy")
    assert recheck.obstruction_problem(T, "xxy", gap) is None
    assert recheck.obstruction_problem(T, "x", recheck.word_gap(T, "x")) is not None  # ||T|| = ||T*||
    assert recheck.obstruction_problem(T, "xxy", 2 * gap) is not None  # gap does not reproduce
    assert recheck.obstruction_problem(T, "xzy", gap) is not None
    S, _ = _cso(4)
    assert recheck.obstruction_problem(S, "xxy", recheck.word_gap(S, "xxy")) is not None


def test_recheck_rejects_a_corrupted_synthesis():
    import csokit

    _, U = _cso(3, seed=2)  # any unitary will do
    N = U @ np.array([[0, 0, 0], [0, 0, 0], [2.5, 0, 0]], dtype=complex) @ U.conj().T
    res = csokit.synthesize_tto_for_nilpotent2(N)
    req = inputs.Request(0, 0, "rank1", "equivalent", {"N": N, "seed": 0})
    assert workloads.judge(req, res) is None
    phase = np.diag(np.exp(1j * np.array([0.3, 0.0, 0.0])))
    for W in (res.W @ phase, 1.001 * res.W):
        bad = SimpleNamespace(**{**vars(res), "W": W})
        assert workloads.judge(req, bad) == "recheck"  # a false success
        assert workloads.judge(req, SimpleNamespace(**{**vars(bad), "converged": False})) == "inconclusive"
    wrong_tto = SimpleNamespace(**{**vars(res), "tto": N, "W": np.eye(3)})
    assert workloads.judge(req, wrong_tto) == "recheck"  # W T W* = N, but T is not the named TTO


def test_a_missed_tolerance_on_a_near_nilpotent_is_a_failure_not_a_wrong_answer():
    near = inputs.Request(0, 0, "near_nilpotent", "either", {})
    cso = inputs.Request(1, 0, "cso", "c_symmetric", {})
    assert not workloads.is_wrong(near, "recheck")
    assert workloads.is_wrong(cso, "recheck") and workloads.is_wrong(cso, "verdict")
    assert not any(workloads.is_wrong(cso, c) for c in ("toolkit_error", "raw_exception", "inconclusive", None))


def test_toeplitz_oracle_and_tto_reference_agree():
    coeffs = np.array([1.0, 2.0 - 1j, 0.5j])
    L = recheck.toeplitz_oracle(coeffs, 4)
    assert np.allclose(L, [[1, 0, 0, 0], [2 - 1j, 1, 0, 0], [0.5j, 2 - 1j, 1, 0], [0, 0.5j, 2 - 1j, 1]])
    ref = recheck.tto_reference([0.0] * 4, coeffs, np.ones(1))
    assert np.allclose(ref, L, atol=1e-13)


def test_speed_scale_uses_the_samples_during_or_around_a_request():
    meter = speed.Speedometer()
    meter.times, meter.values, meter.costs = [0.0, 10.0], [1e-3, 2e-3], [1e-3, 2e-3]
    assert meter.scale(1.0, 2.0) == pytest.approx(speed.REFERENCE_S / 1.5e-3)
    assert meter.scale(11.0, 12.0) == pytest.approx(speed.REFERENCE_S / 2e-3)  # nothing after it
    meter.times, meter.values, meter.costs = [0.0, 0.5, 1.0, 1.5, 9.0], [9.0, 1.0, 2.0, 3.0, 9.0], [0.1] * 5
    assert meter.scale(0.4, 1.6) == pytest.approx(speed.REFERENCE_S / 2.0)  # the three inside
    assert meter.cost(0.4, 1.5) == pytest.approx(0.2)  # samples that began inside [0.4, 1.5)


def _span(name, start, end, parent=None, rid=0, attrs=None, error=None):
    return [name, start, end, parent, rid, attrs, error]


def test_self_time_arithmetic_on_synthetic_spans():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.child", 2.0, 3.0, parent=1, error="AccuracyError"),
        _span("b", 5.0, 6.5, parent=0, error="AccuracyError"),
        _span("a", 7.0, 8.0, parent=0, error="AccuracyError"),
        _span("root", 20.0, 21.0, rid=1),
    ]
    spans[0][tracing.ERROR] = "AccuracyError"
    assert tracing.self_times(spans) == pytest.approx([4.5, 2.0, 1.0, 1.5, 1.0, 1.0])
    table = tracing.summarize(spans)
    assert table["a"]["calls"] == 2
    assert table["a"]["s"] == pytest.approx(4.0)
    assert table["a"]["self_s"] == pytest.approx(3.0)
    assert table["root"]["self_s"] == pytest.approx(5.5)
    # a.child, b and the second a raised it first; root only passed it on
    assert tracing.error_origins(spans, "AccuracyError") == 3
    assert tracing.root_time_by_request(spans) == {0: 10.0, 1: 1.0}
    assert tracing.has_ancestor(spans, 2, "root") and not tracing.has_ancestor(spans, 0, "root")


def test_tracer_wraps_every_binding_and_restores_them():
    import csokit
    import csokit.certify
    import csokit.cli
    import csokit.verify

    import scipy.optimize

    originals = (csokit.find_conjugation, csokit.certify.operator_norm, csokit.verify.ENTRIES, csokit.cli.COMMANDS)
    optimizers = (scipy.optimize.least_squares, scipy.optimize.minimize)
    init = csokit.ModelSpace.__init__
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert csokit.find_conjugation is csokit.certify.find_conjugation is csokit.cli.find_conjugation
        assert csokit.find_conjugation is not originals[0]
        assert all(f is not g for f, g in zip(csokit.verify.ENTRIES, originals[2]))
        assert scipy.optimize.least_squares is not optimizers[0] and scipy.optimize.minimize is not optimizers[1]
        tracer.rid = 5
        T, _ = _cso(3)
        cert = csokit.find_conjugation(T)
        csokit.tto_matrix(csokit.BlaschkeProduct([0.5]), csokit.Symbol(poly=[0.0, 1.0]), 256)
    finally:
        tracer.uninstall()
    assert (csokit.find_conjugation, csokit.certify.operator_norm, csokit.verify.ENTRIES, csokit.cli.COMMANDS) == originals
    assert csokit.ModelSpace.__init__ is init
    assert (scipy.optimize.least_squares, scipy.optimize.minimize) == optimizers
    names = [s[tracing.NAME] for s in tracer.spans]
    assert names[0] == "certify.find_conjugation" and "certify.intertwiner_basis" in names
    assert "modelspace.ModelSpace" in names and "linalg.operator_norm" in names
    assert all(s[tracing.RID] == 5 for s in tracer.spans)
    out = metrics.layer_metrics(tracer.spans, [None], 1.0, 1.0, {5: 1.0})
    assert cert.verdict == "c_symmetric"
    assert out["certify.route.intertwiner"] == 1
    assert out["linalg.unitary_in_subspace.candidates"] >= 1
    assert 0 < out["certify.candidate_accept_ratio"] <= 1
    assert out["certify.intertwiner_basis.kron_bytes"] == 16 * 3**4
    assert out["modelspace.basis_samples"] == 256


def test_benchmark_json_names_the_emitted_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(inputs.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
