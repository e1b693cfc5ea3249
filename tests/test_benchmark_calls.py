"""The benchmark's calls into csokit, judged as the benchmark judges them.

perfbench (``perfbench/workloads.py``) calls the public API with fixed
arguments, among them ``quad_points`` and ``seed``.  This runs its warm-up
requests and the first seed-1 deck of each timed workload, and requires what
its ``correct`` gate requires: no raw exception and no wrong answer.  A
toolkit error or an inconclusive end is a failure the benchmark counts, not
a wrong answer.
"""

import os
import sys

import pytest

import csokit
import csokit.cli  # noqa: F401  (the warm-up certify request enters through the CLI)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import inputs  # noqa: E402
import workloads  # noqa: E402


def requests(workload):
    reqs = inputs.warmup_requests(workload)
    if workload != "verify-paper":  # a replay is a whole verify-paper run
        stream = inputs.request_stream(workload, 1)
        reqs += [next(stream) for _ in range(inputs.deck_size(workload))]
    return reqs


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_benchmark_requests_raise_nothing_raw_and_answer_nothing_wrong(workload, tmp_path):
    for req in requests(workload):
        try:
            reply = workloads.execute(csokit, req, str(tmp_path))
        except csokit.ToolkitError:
            continue
        cause = workloads.judge(req, reply)
        assert not workloads.is_wrong(req, cause), (req.cls, req.rid, cause)


def test_model_conjugation_refuses_the_same_near_circle_requests():
    # the refusals set the model-space workload's ok_frac; the thresholds are
    # close (the largest accepted Gram residual is 4.4e-9, and some refusals
    # come from G's unitarity check), so a change to the sampling arithmetic
    # must leave exactly these 45 of the first 60 refused (by request id)
    stream = inputs.request_stream("model-space", 1)
    near_circle = []
    while len(near_circle) < 60:
        req = next(stream)
        if req.cls == "near_circle":
            near_circle.append(req)
    refused = []
    for req in near_circle:
        try:
            csokit.model_conjugation(csokit.BlaschkeProduct(req.data["zeros"]), 1024)
        except csokit.AccuracyError:
            refused.append(req.rid)
    assert refused == [
        5, 11, 17, 30, 41, 47, 54, 70, 84, 90, 98, 104, 110, 117, 120,
        127, 134, 144, 157, 162, 168, 183, 190, 197, 203, 210, 216, 221, 234, 251,
        258, 271, 277, 290, 297, 301, 315, 320, 327, 334, 365, 371, 379, 384, 390,
    ]  # fmt: skip
