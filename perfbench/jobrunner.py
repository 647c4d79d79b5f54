"""Job runner of the benchmark worker (see worker.py for the protocol).

Runs CLI jobs in-process through ``khoarrow.cli.main`` with a time limit
per job, captures their output and streams one JSON line per event.
"""

import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np


# After each untraced pass the worker times the reference kernel for about
# this share of the pass's time (at least once), so that the samples follow
# the host's speed through the run.
REF_SHARE = 0.15


def reference_kernel(n=60000):
    """Fixed work independent of khoarrow: fill and walk a tuple-keyed dict.

    Dicts keyed by tuples of small ints, holding short lists, are what the
    chain-complex code builds and looks up most.  Of the kernels tried
    (list-of-int elimination, numpy matmul, smaller dicts), this one's
    time followed the jobs' times most closely when the host slowed.  It
    holds about 16 MB, which is why it runs in a child process.
    """
    table = {}
    for i in range(n):
        table[(i % 977, i // 977)] = [i, i + 1]
    total = 0
    for key, value in table.items():
        total += value[0] ^ key[0]
    return total


def time_reference(pass_s):
    """Reference kernel times, one per run, filling REF_SHARE of `pass_s`.

    The kernel runs in a forked child, so that neither its memory nor its
    garbage reaches the worker, whose peak RSS stays the program's own.
    The child inherits the worker's CPU pinning: it measures the CPU that
    runs the jobs.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            samples = []
            while not samples or sum(samples) < REF_SHARE * pass_s:
                t0 = perf_counter()
                reference_kernel()
                samples.append(perf_counter() - t0)
            with os.fdopen(write_fd, "w") as fh:
                json.dump(samples, fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"reference kernel child exited with {status}")
    return json.loads(data)


class JobTimeout(BaseException):
    """Raised inside a job that outlives its limit.

    A BaseException, so that no handler in the program swallows it.
    """


class JobLimit:
    """Raise JobTimeout in the main thread after `seconds`."""

    def __init__(self, seconds):
        self.seconds = seconds
        self.armed = False

    def _fire(self, signum, frame):
        if self.armed:
            raise JobTimeout

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._fire)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        return False


def emit(obj):
    print(json.dumps(obj), flush=True)


def run_job(cli, argv, limit):
    """Run one CLI call; returns (exit code or None, stdout, error, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    rc = None
    t0 = perf_counter()
    try:
        with JobLimit(limit), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except JobTimeout:
        error = f"exceeded its {limit:.0f} s limit"
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash of the program is a failed job
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - t0
    if error is None and rc != 0:
        error = f"exit code {rc}: {err.getvalue().strip()[-200:]}"
    return rc, out.getvalue(), error, seconds


def run_pass(cli, spec, index, deadline, tracer=None):
    """Run every job once; returns the pass's wall time."""
    traced = tracer is not None
    t0 = perf_counter()
    for job in spec["jobs"]:
        limit = min(spec["job_limit_s"], deadline - perf_counter())
        if limit <= 0:
            emit({"pass": index, "traced": traced, "id": job["id"],
                  "rc": None, "out": "", "s": 0.0,
                  "error": "not started: run budget spent"})
            continue
        if traced:
            tracer.job = job["id"]
        rc, out, error, seconds = run_job(cli, job["argv"], limit)
        emit({"pass": index, "traced": traced, "id": job["id"], "rc": rc,
              "out": out, "s": seconds, "error": error})
    return perf_counter() - t0


def main(cli, src, argv):
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"khoarrow was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    emit({"env": {
        "snf_kernel": sys.modules["khoarrow.snf"].KERNEL,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }})
    if "--ready-only" in argv:
        return 0
    spec = json.loads(sys.stdin.read())
    # one CPU for the jobs and the reference kernel's child alike
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    start = perf_counter()
    deadline = start + spec["budget_s"]
    # whole passes, each followed by reference runs, as many as fit in the
    # measured time; at least one
    walls = []
    while True:
        pass_s = run_pass(cli, spec, len(walls), deadline)
        emit({"ref_s": time_reference(pass_s)})
        now = perf_counter()
        walls.append(now - start - sum(walls))
        if (now - start + statistics.median(walls) > spec["seconds"]
                or now >= deadline):
            break
    emit({"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    if spec["trace"]:
        import spans
        tracer = spans.Tracer()
        restore = spans.install(tracer)
        try:
            run_pass(cli, spec, 0, deadline, tracer)
        finally:
            restore()
        emit({"phase": "traced", "self_s": tracer.self_s,
              "calls": tracer.calls, "counts": tracer.counts,
              "absent": tracer.absent,
              "count_errors": sorted(tracer.count_errors),
              "jobs": tracer.jobs})
    return 0
