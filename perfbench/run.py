"""csokit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload certify-mix --seed 1 --seconds 20 --trace 0

Run from the root of a csokit checkout; csokit is imported from its ``src``.
Each workload runs in its own worker process with one BLAS/OpenMP thread.
With ``--trace 0`` the worker measures the end-to-end metrics over a fixed
number of decks, about ``--seconds`` seconds of work, and set-up is measured in that worker and in
``SETUP_SAMPLES - 1`` more set-up-only processes; ``setup_s`` is their median.
Timings are scaled to a reference machine speed (speed.py); the report line
also gives them unscaled, under ``wall``.
With ``--trace 1`` the worker runs a fixed request list untraced, then again
with every csokit function wrapped in a span, and reports per-layer metrics.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}``.
The line before it holds the environment and the counts behind the result.
``correct`` is false when any reply was wrong (a verdict that contradicts how
the input was built, or a certificate the independent recheck rejects; see
workloads.is_wrong); ``failed`` counts every failed request, including
replies that raised or ended inconclusive.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, HERE)
from inputs import WORKLOADS  # noqa: E402
from metrics import END_TO_END, PER_LAYER, end_to_end  # noqa: E402


def _worker(args, env, tmpdir, deadline, setup_only=False) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--src", SRC,
        "--tmpdir", tmpdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=max(1.0, deadline - time.monotonic()), check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def _commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return None


def _source_digest():
    import hashlib

    h = hashlib.sha256()
    pkg = os.path.join(SRC, "csokit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _environment(env, seed, versions) -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas_threads": {k: env[k] for k in THREAD_VARS},
        "python": platform.python_version(),
        **versions,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _end_to_end(out, setups) -> dict:
    """End-to-end metrics from the worker's timings; moves the raw data out of ``out``.

    The metrics use speed-scaled times (see speed.py); the same figures from
    wall-clock times go into the report line as ``wall``.
    """
    latencies = out.pop("latencies")
    wall = out.pop("wall_latencies")
    size = out.pop("deck_size")
    full = len(latencies) // size
    setups.append((out.pop("setup_s"), out.pop("setup_wall_s")))
    ok = out["attempted"] - out["failed"]
    rss = out.pop("peak_rss_mb")
    out["samples"] = {
        "requests": len(latencies),
        "beyond_p90": len(latencies) - int(0.9 * len(latencies)),
        "complete_decks": full,
        "setup": len(setups),
        "speed": out.pop("speed_samples"),
    }

    def metrics_of(lat, setup):
        decks = [lat[k * size : (k + 1) * size] for k in range(max(full, 1))]
        return end_to_end(lat, decks, ok, statistics.median(setup), rss)

    out["wall"] = metrics_of(wall, [w for _, w in setups])
    return metrics_of(latencies, [s for s, _ in setups])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "csokit", "__init__.py")):
        print(f"no csokit sources under {SRC}; run from a csokit checkout", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + TIME_LIMIT_S
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(x for x in (SRC, HERE, env.get("PYTHONPATH")) if x)
    env["PYTHONHASHSEED"] = "0"
    tmpdir = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(tmpdir, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                sample = _worker(args, env, tmpdir, deadline, setup_only=True)
                setups.append((sample["setup_s"], sample["setup_wall_s"]))
        out = _worker(args, env, tmpdir, deadline)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmpdir))
        except OSError:
            pass

    if args.trace:
        units, values = PER_LAYER, out.pop("metrics")
    else:
        units, values = END_TO_END, _end_to_end(out, setups)
    environment = _environment(env, args.seed, out.pop("versions"))
    report = {"workload": args.workload, "trace": args.trace, "environment": environment, **out}
    report["fail_frac"] = out["failed"] / out["attempted"]
    print(json.dumps(report, sort_keys=True))
    result = {
        "correct": out["wrong"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
