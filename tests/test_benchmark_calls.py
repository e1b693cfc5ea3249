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
