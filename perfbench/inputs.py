"""Seeded request generator for the benchmark workloads.

Every request carries its input class and the verdict the input was built to
have (its ground truth).  Requests come in decks: one deck holds every input
class of the workload in its fixed share, evenly interleaved, so any prefix of
a run is close to the specified mix.  Sizes such as dimension, degree and rank
are drawn from per-class bags (each value once per round, in an evenly spread
order), which keeps the size spread the same from seed to seed while the
matrix entries stay random.

Only numpy is used here.  csokit's own ``ensembles`` module is deliberately
not used: a change to it would change the workload.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

# Input classes and their count per deck.
DECKS = {
    "certify-mix": (
        ("nilpotent", 2),
        ("near_nilpotent", 1),
        ("destructor", 1),
        ("cso", 4),
        ("generic", 2),
    ),
    "synthesize-mix": (("rank1", 4), ("rank2", 3), ("rank3", 7), ("rank4", 6)),
    "model-space": (("random", 10), ("monomial", 3), ("near_circle", 3), ("crosscheck", 4)),
    "verify-paper": (("replay", 1),),
}
WORKLOADS = tuple(DECKS)

# verify-paper replays the ROADMAP's named command with its named seed.  The
# replay's content (how many rank-3 synthesis cases it draws) moves its time by
# about 25% from one suite seed to another, which would swamp any bound.
REPLAY_SEED = 2026

# Classes whose matrices come from one fixed stream instead of the run's seed,
# and the seed of that stream.  Their cost per request is heavy-tailed (a CSO
# matrix takes 6 ms, 200 ms, or 1.3 s when the search ends inconclusive; a
# generic one 0.5 to 2.7 s), and a 20 s run holds only 24 and 12 of them, so
# with seeded matrices the certify-mix p50 moved by about 27% and throughput by
# about 19% from seed to seed.  The seed still sets the order of the deck and
# every other class.
#
# The CSO stream must end inconclusive as often as seeded CSO matrices do, or
# the figures would show that defect at the wrong rate.  Over 46 streams of 45
# requests (seeds 1-8 and 2026-2063), 172 of 2070 ended inconclusive (8.3%).
# 2041 is the first seed from 2026 up whose stream matches that rate: 4 of its
# first 45 requests and 3 of its first 35 (2026 had 1 of 45).
#
# The classes on which csokit fails today (near-nilpotent and near-circle
# inputs, besides the inconclusive CSO matrices) are fixed too, so that every
# run attempts the same failing inputs and two sets of runs of the same code
# fail exactly as often, whatever their seeds.  Their streams fail at the
# population rate: near-nilpotent inputs failed 217 times in 240 (seeds
# 2026-2045, 12 each; 90%), and 2028 is the first seed from 2026 up whose
# stream has the nearest counts to that rate in its first 2 requests (2, a
# traced run), first 6 (5, a 20 s run) and first 12 (11).  Near-circle inputs
# failed 3168 times in 4000 (79%); stream 2026 has 156 in its first 200.
FIXED_CONTENT = {"cso": 2041, "generic": 2026, "near_nilpotent": 2028, "near_circle": 2026}

# Nominal wall time of one deck on the 2-core VM the bounds were set on.  A
# run holds a fixed number of whole decks, --seconds / DECK_S rounded, so that
# the same seed always attempts the same requests.
DECK_S = {"certify-mix": 3.3, "synthesize-mix": 3.1, "model-space": 0.075, "verify-paper": 6.7}

WARMUP_SEED = 20260
CLI_WARMUP_MATRIX = '{"rows":2,"cols":2,"data":[[0,0],[0,0],[2,0],[0,0]]}'

# model-space cross-checks and how many Blaschke products each one takes
CROSSCHECK_SPACES = {"fn_calculus": 1, "decompose2": 2, "decompose3": 3, "hankel": 1}


@dataclass
class Request:
    rid: int
    deck: int
    cls: str
    truth: str
    data: dict

    def encode(self) -> bytes:
        """Canonical bytes of the request, for reproducibility checks."""
        head = json.dumps(
            [self.rid, self.deck, self.cls, self.truth, sorted(self.data)], sort_keys=True
        )
        parts = [head.encode()]
        for key in sorted(self.data):
            v = self.data[key]
            if isinstance(v, np.ndarray):
                parts.append(v.tobytes())
            elif isinstance(v, dict):
                parts.extend(v[k].tobytes() for k in sorted(v))
            else:
                parts.append(repr(v).encode())
        return b"|".join(parts)


def _spread_order(n: int) -> list[int]:
    """0..n-1 in van der Corput order: every prefix covers the range evenly."""

    def radical_inverse(i):
        x, f = 0.0, 0.5
        while i:
            x += f * (i & 1)
            i >>= 1
            f /= 2
        return x

    return sorted(range(n), key=radical_inverse)


class _Bag:
    """Draws each value once per round, in an evenly spread order.

    Each round visits the values in van der Corput order, cyclically shifted
    by a seeded random offset, so a run that stops anywhere has still seen
    small and large sizes in nearly their nominal shares.
    """

    def __init__(self, rng: np.random.Generator, values):
        self.rng = rng
        self.values = list(values)
        self.order = _spread_order(len(self.values))
        self.pending: list = []

    def draw(self):
        if not self.pending:
            shift = int(self.rng.integers(len(self.values)))
            self.pending = [self.values[(i + shift) % len(self.values)] for i in reversed(self.order)]
        return self.pending.pop()


def _gauss(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _haar_unitary(rng, n):
    Q, R = np.linalg.qr(_gauss(rng, n, n))
    d = np.diag(R)
    return Q * (d / np.abs(d))


def _nilpotent2(rng, dim, rank):
    """U [[0,0],[R,0]] (+) 0 U* with a Gaussian R and a Haar U."""
    T = np.zeros((dim, dim), dtype=complex)
    T[rank : 2 * rank, :rank] = _gauss(rng, rank, rank)
    U = _haar_unitary(rng, dim)
    return U @ T @ U.conj().T


def _zeros(rng, degree, lo, hi):
    """Blaschke zeros with moduli uniform in area between lo and hi."""
    radii = np.sqrt(lo**2 + (hi**2 - lo**2) * rng.random(degree))
    return radii * np.exp(2j * np.pi * rng.random(degree))


def _poly(rng, degree):
    return {"num": _gauss(rng, degree + 1), "den": np.ones(1, dtype=complex)}


def _rational(rng):
    """Numerator of degree <= 2 over one or two poles of modulus 1.2 to 3."""
    num = _gauss(rng, int(rng.integers(1, 4)))
    den = np.ones(1, dtype=complex)
    for _ in range(int(rng.integers(1, 3))):
        p = (1.2 + 1.8 * rng.random()) * np.exp(2j * np.pi * rng.random())
        den = np.convolve(den, np.array([1.0, -1.0 / p]))
    return {"num": num, "den": den}


class _Classes:
    """Builders for every input class; each class has its own seeded stream."""

    def __init__(self, workload: str, seed: int):
        w = WORKLOADS.index(workload)
        self.rngs = {}
        self.bags = {}
        for c, (cls, _) in enumerate(DECKS[workload]):
            class_seed = FIXED_CONTENT.get(cls, seed)
            self.rngs[cls] = np.random.default_rng(np.random.SeedSequence(class_seed, spawn_key=(w, 1 + c)))

    def bag(self, cls, key, values):
        if (cls, key) not in self.bags:
            self.bags[cls, key] = _Bag(self.rngs[cls], values)
        return self.bags[cls, key].draw()

    def build(self, cls: str, warmup: bool = False) -> tuple[str, dict]:
        """(truth, data) for the next request of a class.

        A warm-up request uses the class's smallest size.
        """
        rng = self.rngs[cls]
        pick = (lambda key, values: values[0]) if warmup else (lambda key, values: self.bag(cls, key, values))
        if cls in ("nilpotent", "near_nilpotent"):
            dim = pick("dim", range(2, 17))
            T = _nilpotent2(rng, dim, int(rng.integers(1, dim // 2 + 1)))
            if cls == "nilpotent":
                return "c_symmetric", {"T": T}
            # relative perturbation 1e-10 to 1e-9: either certified verdict stands
            E = _gauss(rng, dim, dim)
            rel = 10.0 ** rng.uniform(-10.0, -9.0)
            E *= rel * np.linalg.norm(T, 2) / np.linalg.norm(E, 2)
            return "either", {"T": T + E}
        if cls == "destructor":
            kind = pick("kind", ("nilpotent", "generic"))
            dim = pick("dim", range(2, 9))
            if kind == "nilpotent":
                A = _nilpotent2(rng, dim, int(rng.integers(1, dim // 2 + 1)))
            else:
                A = _gauss(rng, dim, dim)
            alpha = 0.5 + 2.5 * rng.random()
            beta = alpha + (0.25 + rng.random()) * (1 if alpha < 1.75 else -1)
            truth = "indestructible" if kind == "nilpotent" else "destroyed"
            return truth, {"A": A, "alpha": float(alpha), "beta": float(beta)}
        if cls == "cso":
            n = pick("dim", range(2, 17))
            Z = _gauss(rng, n, n)
            Q = _haar_unitary(rng, n)
            return "c_symmetric", {"T": Q @ (0.5 * (Z + Z.T)) @ Q.conj().T}
        if cls == "generic":
            n = pick("dim", range(3, 11))
            return "obstructed", {"T": _gauss(rng, n, n)}
        if cls.startswith("rank"):
            r = int(cls[4:])
            dim = 2 * r + pick("extra", range(4))
            return "equivalent", {"N": _nilpotent2(rng, dim, r), "seed": int(rng.integers(2**31))}
        if cls == "random":
            degree = pick("degree", range(1, 33))
            phi = _poly(rng, int(rng.integers(0, 5))) if pick("symbol", (0, 1)) else _rational(rng)
            quad = pick("quad", (1024, 1024, 1024, 1024, 4096))
            return "c_symmetric", {"zeros": _zeros(rng, degree, 0.0, 0.9), "phi": phi, "quad": quad}
        if cls == "monomial":
            degree = pick("degree", range(1, 33))
            return "toeplitz", {"degree": degree, "phi": _poly(rng, pick("phi_degree", range(7)))}
        if cls == "near_circle":
            degree = pick("degree", range(1, 9))
            zeros = _zeros(rng, degree, 0.95, 0.999)
            return "c_symmetric", {"zeros": zeros, "phi": _poly(rng, int(rng.integers(0, 5))), "quad": 1024}
        if cls == "crosscheck":
            kind = pick("kind", tuple(CROSSCHECK_SPACES))
            data = {"kind": kind, "phi": _poly(rng, int(rng.integers(0, 5)))}
            for i in range(CROSSCHECK_SPACES[kind]):
                data[f"zeros{i}"] = _zeros(rng, pick("degree", range(1, 9)), 0.0, 0.8)
            return "identity_holds", data
        if cls == "replay":
            return "all_pass", {"suite_seed": REPLAY_SEED}
        raise ValueError(f"unknown input class {cls!r}")


def request_stream(workload: str, seed: int):
    """Endless, seeded sequence of requests for one workload, deck by deck.

    Within a deck the classes are interleaved evenly (each class's slots sit
    at seeded random phases of an even grid), so every prefix of the stream
    holds each class in close to its share.
    """
    if workload not in DECKS:
        raise ValueError(f"unknown workload {workload!r}")
    classes = _Classes(workload, seed)
    order_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(WORKLOADS.index(workload), 0)))
    rid = 0
    for deck in itertools.count():
        slots = []
        for cls, count in DECKS[workload]:
            phase = order_rng.random()
            slots.extend(((j + phase) / count, cls) for j in range(count))
        for _, cls in sorted(slots):
            truth, data = classes.build(cls)
            yield Request(rid, deck, cls, truth, data)
            rid += 1


def deck_size(workload: str) -> int:
    return sum(count for _, count in DECKS[workload])


def deck_count(workload: str, seconds: float) -> int:
    """Whole decks in a run of about ``seconds`` at today's speed."""
    return max(1, round(seconds / DECK_S[workload]))


def warmup_requests(workload: str) -> list[Request]:
    """One request of each input class at its smallest size.

    The same for every seed, so that set-up does the same work in every run.
    """
    classes = _Classes(workload, WARMUP_SEED)
    out = []
    for cls, _ in DECKS[workload]:
        if cls == "replay":
            # A replay is a whole request (~8 s); warm the CLI path with a small one instead.
            out.append(Request(-1 - len(out), -1, "cli_certify", "c_symmetric", {"matrix": CLI_WARMUP_MATRIX}))
        else:
            out.append(Request(-1 - len(out), -1, cls, *classes.build(cls, warmup=True)))
    return out
