"""Measurement primitives of the dotwire benchmark.

Percentiles, per-job medians, span self time, the failed-job fraction,
an in-memory tracer that wraps library bindings, the speed sampler that
corrects times for other load on the machine, the set-up timer and the
run environment record. Only the speed sampler's probe uses numpy;
the rest is standard library. The workloads live in ``workloads.py`` and
the command line in ``run.py``.
"""

from __future__ import annotations

import bisect
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, namedtuple
from contextlib import contextmanager

Span = namedtuple("Span", "name start end parent job error")
"""One timed call: parent is the index of the enclosing span (-1 for a
root), job the id of the job it ran in, error the exception type name or
None."""

# Thread-count variables of the BLAS builds numpy ships with. The benchmark
# sets unset ones to 1: on the small matrix-vector products of the lattice
# a second BLAS thread measured no faster and spent a second core.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear between order statistics.

    Matches ``statistics.median`` at q = 50.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median_per_job(passes, value=float) -> list[float]:
    """Each job's median ``value`` over the passes that ran it.

    ``passes`` holds one list per pass whose item i is job i; a pass cut
    short at the deadline simply has fewer items.
    """
    per_job: list[list[float]] = []
    for batch in passes:
        for index, item in enumerate(batch):
            if index == len(per_job):
                per_job.append([])
            per_job[index].append(value(item))
    if not per_job:
        raise ValueError("no job was run")
    return [statistics.median(values) for values in per_job]


_PROBE_Z = [complex(math.cos(i), math.sin(i)) for i in range(64)]


def _probe(vector) -> None:
    """A fixed piece of work shaped like the library's: scalar complex
    arithmetic in Python, then small numpy vector updates. It never calls
    the library, so no change to the library can move it."""
    acc = 0j
    for _ in range(4):
        for z in _PROBE_Z:
            acc = acc * 0.5 + z / (z + 2.0)
    v = vector
    for _ in range(10):
        v = v * (0.999 - 0.001j) + vector * 0.001


class SpeedSampler:
    """Measures how slowly this CPU runs, moment by moment, so that a job's
    time can be corrected for other load on the machine.

    A timer signal interrupts the process every ``interval`` seconds and
    times one run of a fixed probe (after one untimed run to warm the
    caches), about 0.7 % of the run's time. ``slowdown(start, end)`` is the
    mean probe time of the samples taken while a job ran, over
    ``reference``. A job's time divided by its slowdown is its time on a
    CPU that runs the probe in ``reference`` seconds.

    The reference is a constant, not a fast time measured in the run: in
    minutes of heavy load the probe's fastest times rise too, and a
    measured reference would hide that part of the slowdown.
    """

    MIN_SAMPLES = 8
    REFERENCE = 80e-6
    """The probe's time on an uncontended 2.0 GHz Intel Xeon vCPU (Python
    3.11, numpy 2.4): its 5th percentile in runs at quiet times."""

    def __init__(self, interval: float = 0.025) -> None:
        import numpy

        self.interval = interval
        self.reference = self.REFERENCE
        self.times: list[float] = []
        self.costs: list[float] = []
        self._vector = numpy.exp(1j * numpy.linspace(0.0, 3.0, 1000))
        self._previous = None

    def _sample(self, signum, frame) -> None:
        _probe(self._vector)
        start = time.perf_counter()
        _probe(self._vector)
        end = time.perf_counter()
        self.times.append(end)
        self.costs.append(end - start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def fast_cost(self) -> float:
        """The probe's 5th-percentile time in this run, for the record."""
        return percentile(self.costs, 5)

    def slowdown(self, start: float, end: float) -> float:
        """Mean probe cost over [start, end], widened on both sides to at
        least MIN_SAMPLES samples, over the reference; 1 with no samples."""
        if not self.costs:
            return 1.0
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        while hi - lo < self.MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return statistics.fmean(self.costs[lo:hi]) / self.reference


def failed_frac(failed: int, attempted: int) -> float:
    """Failed jobs over attempted jobs; a run attempts at least one job."""
    if attempted < 1:
        raise ValueError("no job was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return failed / attempted


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Calls are synchronous and single-threaded, so children never overlap
    and their durations sum to the covered part of the parent interval.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_of(name: str) -> str:
    """Layer of a span name: the part before the first dot."""
    return name.split(".", 1)[0]


class Tracer:
    """Wraps library bindings so each call records a span in memory.

    A binding is patched where its caller looks it up (``dotwire.spectra``
    calls ``solve_two_dot`` through its own module global, for example), so
    the span carries the caller's view. A binding that no longer exists is
    listed in ``missing`` instead of failing the run. ``observe`` callbacks
    turn return values into counters at the same boundary.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self.installed: set[str] = set()
        self._stack: list[int] = []
        self._job = -1
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, observe=None) -> None:
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module.__name__}.{attr}")
            return
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            error = None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self._job, error)
            if observe is not None:
                observe(counters, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))
        self.installed.add(name)

    @contextmanager
    def job(self, job_id: int):
        """Root span of one job; spans opened inside carry its id."""
        self._job = job_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span("bench.job", start, end, -1, job_id,
                                     None)
            self._job = -1

    def close(self) -> None:
        """Restore every patched binding."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write_csv(self, path) -> None:
        """Write the spans, one line each, after the measured passes."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start,end,parent,job,error\n")
            for i, s in enumerate(self.spans):
                handle.write(f"{i},{s.name},{s.start:.9f},{s.end:.9f},"
                             f"{s.parent},{s.job},{s.error or ''}\n")


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        kib /= 1024.0
    return kib / 1024.0


def measure_setup(src_dir, code: str, repeats: int) -> list[float]:
    """Seconds from starting a fresh interpreter to it printing 'ready'.

    ``code`` imports the package and makes the warm-up call. Each child is
    waited for before the next starts; a child that fails aborts the run.
    """
    env = dict(os.environ, PYTHONPATH=str(src_dir), PYTHONUNBUFFERED="1")
    program = f"{code}\nprint('ready')\n"
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", program],
                              stdout=subprocess.PIPE, env=env) as proc:
            try:
                line = proc.stdout.readline()
                ready = time.perf_counter()
                proc.wait(timeout=120)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(
                f"set-up child exited {proc.returncode} before ready"
            )
        times.append(ready - started)
    return times


def environment() -> dict:
    """Interpreter, library and machine facts recorded with each run."""
    import numpy
    import scipy

    info = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "machine": platform.machine(),
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS
                            if k in os.environ},
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info
