"""One benchmark process: set csokit up, run one workload, print one JSON line.

Started by run.py with the BLAS/OpenMP thread count fixed.  Set-up is timed
from before ``import csokit`` to the end of one warm-up request of each input
class, with the speed kernel already sampling (see speed.py).  With
``--setup-only`` the process stops there.  Otherwise it runs a fixed number of
the workload's decks (about ``--seconds`` of work) as a closed loop: a single
client sends the next request only after the previous reply has been received
and checked.  Only the csokit call is timed; input generation
and the independent recheck are not.  A speed kernel is sampled every 0.1 s,
also during csokit calls; its own time is taken out of every request's time,
and every time is reported both unscaled and scaled to the reference speed.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from collections import Counter

# Requests in a traced run: a fixed list, so that counts repeat exactly.
TRACE_REQUESTS = {"certify-mix": 20, "synthesize-mix": 20, "model-space": 200, "verify-paper": 1}
# A timed run starts no request after this many times --seconds.
GUARD_FACTOR = 3.0


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--src", required=True)
    p.add_argument("--tmpdir", required=True)
    args = p.parse_args()

    t0 = time.perf_counter()
    # The speed kernel samples from the start; numpy, which it imports, is also csokit's first import.
    from speed import Speedometer

    speed = Speedometer()
    speed.start()
    import csokit
    import csokit.cli  # noqa: F401  (verify-paper enters through the CLI)

    import_s = time.perf_counter() - t0
    if not os.path.abspath(csokit.__file__).startswith(os.path.abspath(args.src) + os.sep):
        print(f"csokit imported from {csokit.__file__}, not from {args.src}", file=sys.stderr)
        return 3

    import inputs
    import workloads

    client = Client(csokit, workloads, args.tmpdir)
    warm_s = sum(client.send(req)[1] for req in inputs.warmup_requests(args.workload))
    setup_end = time.perf_counter()
    if args.trace or args.setup_only:
        speed.stop()  # a traced run samples between requests only, so spans hold csokit's time alone
    speed.sample()
    setup_wall_s = import_s + warm_s - speed.cost(t0, setup_end)
    setup = {"setup_s": setup_wall_s * speed.scale(t0, setup_end), "setup_wall_s": setup_wall_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    stream = inputs.request_stream(args.workload, args.seed)
    if args.trace:
        out = _traced(client, speed, stream, args.workload)
    else:
        out = _timed(client, speed, stream, inputs.deck_count(args.workload, args.seconds), args.seconds)
        out.update(setup, deck_size=inputs.deck_size(args.workload))
    import numpy
    import scipy

    out["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(out))
    return 0


class Client:
    """Sends requests one at a time and judges each reply."""

    def __init__(self, cs, workloads, tmpdir):
        self.cs = cs
        self.workloads = workloads
        self.tmpdir = tmpdir

    def send(self, req):
        """(start, seconds inside csokit, failure cause or None) for one request."""
        t = time.perf_counter()
        try:
            reply = self.workloads.execute(self.cs, req, self.tmpdir)
        except self.cs.ToolkitError:
            return t, time.perf_counter() - t, "toolkit_error"
        except Exception:
            return t, time.perf_counter() - t, "raw_exception"
        latency = time.perf_counter() - t
        try:
            return t, latency, self.workloads.judge(req, reply)
        except Exception:  # a reply that cannot even be checked is rejected
            traceback.print_exc()
            return t, latency, "recheck"


def _summary(reqs, causes) -> dict:
    """Counts that every result carries: attempted, failed, causes, by class."""
    from workloads import is_wrong

    by_class: dict = {}
    for req, cause in zip(reqs, causes):
        row = by_class.setdefault(req.cls, {"attempted": 0, "failed": 0})
        row["attempted"] += 1
        row["failed"] += cause is not None
    return {
        "attempted": len(causes),
        "failed": sum(c is not None for c in causes),
        "wrong": sum(is_wrong(r, c) for r, c in zip(reqs, causes)),
        "fail": dict(Counter(c for c in causes if c)),
        "by_class": by_class,
    }


def _timed(client, speed, stream, decks, seconds) -> dict:
    """Closed loop over ``decks`` whole decks; latencies as measured and speed-scaled.

    A fixed request list, rather than a deadline, makes a seed attempt the same
    requests in every run, so its failures repeat exactly.  Past
    GUARD_FACTOR x ``seconds`` no further request starts, so that a much slower
    csokit still ends the run within its time limit.
    """
    reqs, starts, latencies, causes = [], [], [], []
    guard = time.perf_counter() + GUARD_FACTOR * seconds
    for req in stream:
        if req.deck >= decks or time.perf_counter() >= guard:
            break
        start, latency, cause = client.send(req)
        reqs.append(req)
        starts.append(start)
        latencies.append(latency)
        causes.append(cause)
    speed.stop()
    out = _summary(reqs, causes)
    wall = [t - speed.cost(s, s + t) for s, t in zip(starts, latencies)]
    out["wall_latencies"] = wall
    out["latencies"] = [w * speed.scale(s, s + t) for s, t, w in zip(starts, latencies, wall)]
    out["speed_samples"] = len(speed.values)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _traced(client, speed, stream, workload) -> dict:
    """Each request untraced, then traced, so both see the same machine state.

    The overhead compares speed-scaled times: a replay lasts about 8 s, long
    enough for the machine's speed to change between the two passes.  The
    kernel is sampled between requests only, so spans hold csokit's time alone.
    """
    import metrics
    import tracing

    reqs = [next(stream) for _ in range(TRACE_REQUESTS[workload])]
    tracer = tracing.Tracer()
    untraced_s, traced_s, latency, causes = 0.0, 0.0, {}, []
    for req in reqs:
        start, wall, _ = client.send(req)
        speed.sample()
        untraced_s += wall * speed.scale(start, start + wall)
        tracer.install()
        tracer.rid = req.rid
        try:
            start, latency[req.rid], cause = client.send(req)
        finally:
            tracer.rid = None
            tracer.uninstall()
        speed.sample()
        traced_s += latency[req.rid] * speed.scale(start, start + latency[req.rid])
        causes.append(cause)
    out = _summary(reqs, causes)
    out["metrics"] = metrics.layer_metrics(tracer.spans, causes, untraced_s, traced_s, latency)
    out["samples"] = {"requests": len(reqs), "spans": len(tracer.spans)}
    return out


if __name__ == "__main__":
    sys.exit(main())
