"""In-memory spans, self-time arithmetic and call wrappers.

Apart from the kernel proxies, which speak the sweep-kernel API, nothing
here knows about postlie: `layers.py` names what to wrap.  A span
is one call across a layer boundary; it records its name, start and end
(perf_counter seconds), the span that was open when it started, the trace
it belongs to (one per pass), and optional integer counters such as hits
or bytes.  Spans stay in memory until the run writes them out.
"""

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._trace = None

    def begin_trace(self, trace_id, name):
        """Open the root span of one pass; every span until `end_trace`
        shares its trace id."""
        self._trace = trace_id
        return self.open(name)

    def end_trace(self, sid):
        self.close(sid)
        self._trace = None

    def open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None, "parent": parent,
                           "trace": self._trace, "counts": {}})
        self._stack.append(sid)
        return sid

    def close(self, sid, **counts):
        span = self.spans[sid]
        span["end"] = time.perf_counter()
        if counts:
            span["counts"] = counts
        if self._stack.pop() != sid:
            raise RuntimeError("span %d closed out of order" % sid)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for sid, span in enumerate(self.spans):
                handle.write(json.dumps(dict(span, id=sid)) + "\n")


def covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span: its duration minus the part its child spans cover.

    Children may nest or overlap; overlapping time is subtracted once.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    return [span["end"] - span["start"]
            - covered(children[sid], span["start"], span["end"])
            for sid, span in enumerate(spans)]


def aggregate(spans, trace_id):
    """{span name: {"calls", "self_s", <summed counters>}} for one trace."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        if span["trace"] != trace_id:
            continue
        row = out.setdefault(span["name"], {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        for key, value in span["counts"].items():
            row[key] = row.get(key, 0) + value
    return out


def traced(tracer, name, fn, counts=None):
    """`fn` wrapped in a span; `counts(result)` gives the span's counters.
    A call that raises is closed with failed=1."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(sid, failed=1)
            raise
        tracer.close(sid, **(counts(result) if counts else {}))
        return result

    return wrapper


def counted(counter, key, fn):
    """`fn` wrapped to add one to counter[key] per call, with no span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counter[key] += 1
        return fn(*args, **kwargs)

    return wrapper


class Patch:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def everywhere(self, modules, original, replacement):
        """Replace every module-global binding of `original`, under any
        name, so that callers which imported it by name see the wrapper."""
        hits = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    hits += 1
        if not hits:
            raise LookupError("%r is bound in no module" % (original,))

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _memo_key(method, args):
    return method, repr(args)


class TracingKernel:
    """A sweep backend that forwards to the implementation module
    `backend` (one of `fpkernel.backends()`) inside spans.

    Passed through the `kernel=` argument of the sweep APIs.  Each sweep
    span counts the candidates scanned (hi - lo) and the hits returned,
    and every result is kept so that `ReplayKernel` can answer the same
    calls again without sweeping.
    """

    SWEEPS = ("phi_sweep", "product_sweep", "gl_invariance_sweep")

    def __init__(self, backend, tracer):
        self.BACKEND = self.NAME = backend.NAME
        self.memo = {}
        for method in self.SWEEPS:
            setattr(self, method, self._sweep(backend, method, tracer))

    def _sweep(self, backend, method, tracer):
        fn = getattr(backend, method)
        name = "fpkernel." + method

        def sweep(*args):
            lo, hi = args[-2], args[-1]
            sid = tracer.open(name)
            try:
                hits = fn(*args)
            except BaseException:
                tracer.close(sid, failed=1)
                raise
            tracer.close(sid, scanned=hi - lo, hits=len(hits))
            self.memo[_memo_key(method, args)] = list(hits)
            return hits

        return sweep


class ReplayKernel:
    """Answers the sweeps a `TracingKernel` recorded, without sweeping.

    Used by the count-only pass: the kernels do plain-int and numpy work,
    so replaying their hits leaves every exact-arithmetic count the same.
    A call that was not recorded goes to `backend`.
    """

    def __init__(self, backend, memo):
        self.BACKEND = self.NAME = backend.NAME
        for method in TracingKernel.SWEEPS:
            setattr(self, method, self._replay(backend, method, memo))

    @staticmethod
    def _replay(backend, method, memo):
        fn = getattr(backend, method)

        def sweep(*args):
            hits = memo.get(_memo_key(method, args))
            return list(hits) if hits is not None else fn(*args)

        return sweep
