"""In-memory spans around csokit's functions, and the arithmetic on them.

``Tracer.install`` replaces every public csokit function at every place a
module has bound its name (module globals, and the function tables
``verify.ENTRIES`` and ``cli.COMMANDS``), wraps ``ModelSpace.__init__``, and
wraps scipy's ``least_squares`` and ``minimize`` as ``synthesis`` sees them.
Each wrapped call appends one span: name, start, end, parent span, request id
and a few annotations.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

# Validation helpers called on nearly every operation; wrapping them would
# mostly measure the wrapper.
SKIP = {"as_matrix", "validate_word"}

NAME, START, END, PARENT, RID, ATTRS, ERROR = range(7)


def _annotate(name, args, kwargs, result, self_obj=None) -> dict | None:
    """Counts recorded at the layer boundary, by span name."""
    if name == "certify.find_conjugation":
        return {"verdict": result.verdict}
    if name == "certify.intertwiner_basis":
        n = len(args[0])
        return {"kron_bytes": 16 * n**4}
    if name == "synthesis.realize_modulus":
        targets = args[0] if args else kwargs["targets"]
        return {"rank": len(targets)}
    if name == "synthesis.least_squares":
        return {"nfev": int(result.nfev)}
    if name == "modelspace.ModelSpace":
        return {"basis_samples": self_obj.u.degree * self_obj.quad_points}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rid = None
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.rid, None, None])
        self.stack.append(idx)
        return idx

    def _close(self, idx, attrs=None, error=None):
        span = self.spans[idx]
        span[END] = time.perf_counter()
        span[ATTRS] = attrs
        span[ERROR] = error
        self.stack.pop()

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, error=type(exc).__name__)
                raise
            self._close(idx, _annotate(name, args, kwargs, result))
            return result

        return traced

    def _wrap_generator(self, name, fn):
        """Each resumption of the generator is one span; each yield one candidate."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            try:
                while True:
                    idx = self._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        self._close(idx)
                        return
                    except BaseException as exc:
                        self._close(idx, error=type(exc).__name__)
                        raise
                    self._close(idx, {"candidates": 1})
                    yield item
            finally:
                gen.close()

        return traced

    def _wrap_init(self, name, init):
        @functools.wraps(init)
        def traced(obj, *args, **kwargs):
            idx = self._open(name)
            try:
                init(obj, *args, **kwargs)
            except BaseException as exc:
                self._close(idx, error=type(exc).__name__)
                raise
            self._close(idx, _annotate(name, args, kwargs, None, obj))

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._restore.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k == "csokit" or k.startswith("csokit.")]
        wrapped: dict = {}

        def wrapper_for(fn):
            if fn not in wrapped:
                short = fn.__module__.split(".", 1)[-1]
                wrapped[fn] = self.wrap(f"{short}.{fn.__name__}", fn)
            return wrapped[fn]

        def ours(obj):
            return (
                inspect.isfunction(obj)
                and (obj.__module__ or "").startswith("csokit.")
                and not obj.__name__.startswith("_")
                and obj.__name__ not in SKIP
            )

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if ours(obj):
                    self._set(mod.__dict__, attr, wrapper_for(obj))
                elif isinstance(obj, tuple) and any(ours(x) for x in obj):
                    self._set(mod.__dict__, attr, tuple(wrapper_for(x) if ours(x) else x for x in obj))
                elif isinstance(obj, dict) and any(ours(x) for x in obj.values()):
                    self._set(mod.__dict__, attr, {k: wrapper_for(x) if ours(x) else x for k, x in obj.items()})

        modelspace = sys.modules["csokit.modelspace"]
        self._set(modelspace.ModelSpace, "__init__", self._wrap_init("modelspace.ModelSpace", modelspace.ModelSpace.__init__))

        # synthesis calls scipy.optimize.least_squares and .minimize through the
        # module attribute, and nothing else in the process does.
        optimize = sys.modules["csokit.synthesis"].scipy.optimize
        self._set(optimize, "least_squares", self.wrap("synthesis.least_squares", optimize.least_squares))
        self._set(optimize, "minimize", self.wrap("synthesis.nelder_mead", optimize.minimize))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)


# -- analysis ----------------------------------------------------------------


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def summarize(spans) -> dict:
    """Per span name: calls, inclusive seconds, self seconds, summed annotations."""
    selfs = self_times(spans)
    table: dict = defaultdict(lambda: defaultdict(float))
    for s, own in zip(spans, selfs):
        row = table[s[NAME]]
        row["calls"] += 1
        row["s"] += s[END] - s[START]
        row["self_s"] += own
        for k, v in (s[ATTRS] or {}).items():
            if k not in ("rank", "verdict"):
                row[k] += v
    return table


def has_ancestor(spans, idx, name) -> bool:
    p = spans[idx][PARENT]
    while p is not None:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def error_origins(spans, error: str) -> int:
    """Spans that raised ``error`` while none of their children did."""
    raised_below = set()
    for s in spans:
        if s[ERROR] == error and s[PARENT] is not None:
            raised_below.add(s[PARENT])
    return sum(1 for i, s in enumerate(spans) if s[ERROR] == error and i not in raised_below)


def root_time_by_request(spans) -> dict:
    """Per request id, seconds covered by spans that have no parent."""
    out: dict = defaultdict(float)
    for s in spans:
        if s[PARENT] is None:
            out[s[RID]] += s[END] - s[START]
    return out
