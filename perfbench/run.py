"""postlie benchmark: three workloads through the public API, every result
checked, end-to-end metrics by default and per-layer metrics with --trace 1.

    python3 perfbench/run.py                               # every workload
    python3 perfbench/run.py --workload catalog-q --seed 3
    python3 perfbench/run.py --workload products-orbits --trace 1

Run from the root of a source tree: postlie is imported from ./src, with
no install step.  Each workload of a full run gets its own process.  The
last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics; the lines above it give every
metric with its unit and the environment.  The exit code is 0 only when
every check passed.  See perfbench/README.md for the metrics.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("phi-gf3", "products-orbits", "catalog-q")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# The end-to-end metrics of BENCHMARK.json: every workload reports them.
END_TO_END = ("wall_rel", "setup_s", "peak_rss_mb")
# Set-up is timed once in the benchmark process and again in fresh
# processes; setup_s is the median of all of them.
SETUP_SAMPLES = 11
# Iterations of the reference loop: 15 to 60 ms on a shared 2-vCPU x86-64
# VM, depending on how busy the host is.
REFERENCE_ITERATIONS = 250_000
# A pass is timed in segments of at least this many seconds, with the
# reference loop timed between them.
SEGMENT_S = 0.4
# Candidates per kernel call in the timed passes: a multiple of the python
# backend's chunk, so the backend does the same work as in one call.
SWEEP_PIECE = 1 << 15


def run_seconds():
    """How long one run measures: BENCHMARK.json's run_seconds."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["run_seconds"]


def nproc():
    return len(os.sched_getaffinity(0))


def cap_threads():
    """Cap numpy's thread pools at nproc unless the caller capped them."""
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(nproc()))


def set_up(name, seed, workdir):
    """Import postlie, select the kernel backend and build every input.

    Returns (seconds, workload, inputs); the import is part of the time.
    """
    begin = time.perf_counter()
    sys.path.insert(0, str(SRC))
    postlie = importlib.import_module("postlie")
    if not Path(postlie.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError("postlie was imported from %s, not from %s"
                          % (postlie.__file__, SRC))
    importlib.import_module("postlie.fpkernel")
    import workloads
    workload = workloads.WORKLOADS[name]
    inputs = workload.setup(seed, workdir)
    return time.perf_counter() - begin, workload, inputs


def setup_in_fresh_process(name, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=False, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("set-up process failed: %s" % proc.stderr.strip())
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def environment(seed):
    import numpy
    from postlie import fpkernel
    return {"backend": fpkernel.BACKEND,
            "backends": [b.NAME for b in fpkernel.backends()],
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": nproc(),
            "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
            "machine": platform.machine(),
            "seed": seed}


def active_backend():
    from postlie import fpkernel
    return next(b for b in fpkernel.backends() if b.NAME == fpkernel.BACKEND)


def reference_s():
    """Wall time of a fixed pure-Python loop that does not use postlie."""
    begin = time.perf_counter()
    total = 0
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        total += i * i % 7
        table[i & 1023] = total
    return time.perf_counter() - begin


class SpeedClock:
    """Times passes in seconds and in units of the reference loop.

    The speed of a shared machine drifts by tens of percent within
    seconds, so a pass is cut into segments: a workload calls tick()
    between the steps of a pass, and once the current segment has run
    SEGMENT_S, the reference loop is timed.  Each segment's time is then
    divided by the mean of the reference times just before and just after
    it, and a pass's relative time is the sum over its segments.  The
    reference loop's own time is not pass time.
    """

    def __init__(self):
        self.walls = []
        self.relative = []
        self.refs = [reference_s()]
        self._wall = self._relative = self._begin = None

    def start_pass(self):
        self._wall = self._relative = 0.0
        self._begin = time.perf_counter()

    def tick(self):
        if time.perf_counter() - self._begin >= SEGMENT_S:
            self._close_segment()

    def end_pass(self):
        self._close_segment()
        self.walls.append(self._wall)
        self.relative.append(self._relative)

    def _close_segment(self):
        segment = time.perf_counter() - self._begin
        before = self.refs[-1]
        self.refs.append(reference_s())
        self._wall += segment
        self._relative += segment / ((before + self.refs[-1]) / 2)
        self._begin = time.perf_counter()


class SegmentingKernel:
    """The active backend, with every sweep cut into ranges of SWEEP_PIECE
    candidates and `tick()` called between them, so that one long kernel
    call is timed in segments too.  The hits are the backend's, in the
    same order.  Passed through the `kernel=` argument of the sweep APIs.
    """

    def __init__(self, backend, tick):
        from tracing import TracingKernel
        self.BACKEND = self.NAME = backend.NAME
        for method in TracingKernel.SWEEPS:
            setattr(self, method, self._sweep(getattr(backend, method), tick))

    @staticmethod
    def _sweep(fn, tick):
        def sweep(*args):
            *head, lo, hi = args
            hits = []
            for begin in range(lo, hi, SWEEP_PIECE):
                hits += fn(*head, begin, min(hi, begin + SWEEP_PIECE))
                tick()
            return hits

        return sweep


def measure(workload, inputs, seconds, tallies):
    """Untraced passes for `seconds` (at least one); every pass is checked.

    Returns the SpeedClock that timed the passes and the last pass's
    result.
    """
    clock = SpeedClock()
    kernel = SegmentingKernel(active_backend(), clock.tick)
    start = time.perf_counter()
    while not clock.walls or time.perf_counter() - start < seconds:
        clock.start_pass()
        result = workload.run(inputs, kernel=kernel, tick=clock.tick)
        clock.end_pass()
        tallies.append(workload.check(inputs, result))
    return clock, result


def compare_backends(workload, inputs, result, tallies):
    """Run the pass again on every other importable backend; the hit lists
    must be identical."""
    from workloads import Tally
    reference = workload.hit_lists(result)
    if reference is None:
        return
    from postlie import fpkernel
    tally = Tally()
    for backend in fpkernel.backends():
        if backend.NAME == fpkernel.BACKEND:
            continue
        other = workload.hit_lists(workload.run(inputs, kernel=backend))
        tally.op(other == reference, "backend %s disagrees on the hit lists"
                 % backend.NAME)
    tallies.append(tally)


def traced_layers(workload, seed, workdir, untraced_wall, reference, tallies,
                  spans_path):
    """One traced set-up and pass, then one count-only pass."""
    import layers
    from tracing import ReplayKernel, Tracer, TracingKernel, aggregate
    from workloads import Tally
    tracer = Tracer()
    patch = layers.install_spans(tracer)
    try:
        sid = tracer.begin_trace(0, "setup")
        inputs = workload.setup(seed, workdir)
        tracer.end_trace(sid)
        kernel = TracingKernel(active_backend(), tracer)
        sid = tracer.begin_trace(1, "pass")
        begin = time.perf_counter()
        result = workload.run(inputs, kernel=kernel)
        traced_wall = time.perf_counter() - begin
        tracer.end_trace(sid)
    finally:
        patch.restore()
    tallies.append(workload.check(inputs, result))
    counter = Counter()
    patch = layers.install_mod_counter(counter)
    try:
        counted = workload.run(inputs, kernel=ReplayKernel(active_backend(),
                                                           kernel.memo))
    finally:
        patch.restore()
    tallies.append(workload.check(inputs, counted))
    tally = Tally()
    for label, other in (("traced", result), ("count-only", counted)):
        tally.op(workload.hit_lists(other) == reference,
                 "%s pass changed the hit lists" % label)
    tallies.append(tally)
    tracer.dump(spans_path)
    return layers.per_layer(aggregate(tracer.spans, 1),
                            aggregate(tracer.spans, 0),
                            counter["fields.mod_ops"],
                            traced_wall - untraced_wall, len(tracer.spans))


def end_to_end(clock, setups, tallies):
    """{name: (value, unit, note)}: END_TO_END, then the metrics that only
    some workloads have."""
    import stats
    wall = statistics.median(clock.walls)
    work = next(t for t in tallies if t.tables)
    note = "median of %d passes" % len(clock.walls)
    out = {
        "wall_rel": (statistics.median(clock.relative), "ratio",
                     note + " in reference-loop times"),
        "setup_s": (statistics.median(setups), "s",
                    "median of %d set-ups" % len(setups)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB", "this process"),
        "wall_s": (wall, "s", note),
        "reference_s": (statistics.median(clock.refs), "s",
                        "median of %d reference loops" % len(clock.refs)),
        "tables_per_s": (work.tables / wall, "1/s",
                         "%d tables per pass" % work.tables),
    }
    if work.candidates:
        out["candidates_per_s"] = (work.candidates / wall, "1/s",
                                   "%d candidates per pass" % work.candidates)
    op_ms = [ms for t in tallies for ms in t.op_ms]
    if op_ms:
        note = "%d CLI ops" % len(op_ms)
        out["op_ms.p50"] = (statistics.median(op_ms), "ms", note)
        tail = stats.tail_percentile(op_ms)
        if tail and tail[0] > 50:
            out["op_ms.p%g" % tail[0]] = (tail[1], "ms", note)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(len(t.failures) for t in tallies)
    out["failed_frac"] = (failed / attempted, "ratio",
                          "%d of %d ops" % (failed, attempted))
    return out


def run_one(args):
    if not (SRC / "postlie" / "__init__.py").is_file():
        print("error: no postlie source under %s; run from the root of a "
              "source tree" % SRC, file=sys.stderr)
        return 2
    cap_threads()
    if args.setup_only:
        seconds, _, _ = set_up(args.workload, args.seed, OUT / "unused")
        print(json.dumps({"setup_s": seconds}))
        return 0
    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("work-%d" % os.getpid())
    workdir.mkdir()
    try:
        return measure_and_report(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_and_report(args, workdir):
    setup_s, workload, inputs = set_up(args.workload, args.seed, workdir)
    from workloads import Tally
    setups = [setup_s] + [setup_in_fresh_process(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]
    env = environment(args.seed)
    tallies = []
    samples = {"setup_s": setups}
    try:
        clock, result = measure(workload, inputs, args.seconds, tallies)
        samples.update(wall_s=clock.walls, wall_rel=clock.relative,
                       reference_s=clock.refs)
        compare_backends(workload, inputs, result, tallies)
        report = end_to_end(clock, setups, tallies)
        if args.trace:
            name = "%s-seed%d" % (args.workload, args.seed)
            layer = traced_layers(workload, args.seed, workdir,
                                  statistics.median(clock.walls),
                                  workload.hit_lists(result), tallies,
                                  OUT / ("spans-%s.jsonl" % name))
            report.update((k, (v, unit, "traced pass"))
                          for k, (v, unit) in layer.items())
            wanted = list(layer)
        else:
            wanted = END_TO_END
    except Exception as exc:  # any exception is a failed op
        tally = Tally()
        tally.op(False, "exception %s: %s" % (type(exc).__name__, exc))
        tallies.append(tally)
        report, wanted = {}, []
    attempted = sum(t.attempted for t in tallies)
    failures = [m for t in tallies for m in t.failures]
    details = {k: v for t in tallies for k, v in t.details.items()}

    print("workload %s  seed %d  trace %d" % (args.workload, args.seed,
                                              args.trace))
    print("env %s" % json.dumps(env, sort_keys=True))
    for key, value in sorted(details.items()):
        print("detail %s: %s" % (key, value))
    for key, (value, unit, note) in report.items():
        print("  %-40s %16.6f %-6s %s" % (key, value, unit, note))
    for message in failures[:20]:
        print("FAIL %s" % message)
    saved = {"workload": args.workload, "env": env, "details": details,
             "attempted": attempted, "failures": failures,
             "samples": samples,
             "metrics": {k: {"value": v, "unit": u, "note": n}
                         for k, (v, u, n) in report.items()}}
    (OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(saved, indent=1, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": len(failures),
        "metrics": {k: {"value": report[k][0], "unit": report[k][1]}
                    for k in wanted}}))
    return 0 if not failures else 1


def run_all(args):
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False, cwd=ROOT)
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long the untraced passes run (at least "
                             "one pass); default: run_seconds of "
                             "BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 adds a traced pass and a count-only pass "
                             "and reports per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
