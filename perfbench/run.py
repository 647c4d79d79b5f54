"""Pipeline benchmark of khoarrow: time-to-table, peak RSS, per-layer time.

Run from the repository root:

    python3 perfbench/run.py --workload torus-unreduced --seed 1 \
        --seconds 38 --trace 0

``--workload all`` runs every workload, untraced and then traced.

Each run starts fresh single-threaded worker processes that import
``khoarrow`` from ``src/`` of this checkout.  A few of them only time
set-up (interpreter start plus ``import khoarrow.cli``); one runs the
workload's jobs through ``khoarrow.cli.main`` in-process, one after
another (a closed loop with one client), in whole passes, for about
``--seconds``.  Every output is checked against an
oracle that does not use the chain-complex code (``oracles.py``).
After each pass the worker times a fixed reference kernel that does
not use khoarrow; ``wall_s`` and ``max_job_s`` are the job times scaled
by how fast that kernel ran in this run (see ``REF_WEIGHT``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the worker runs one more pass with every layer's
entry points wrapped (``spans.py``) and the line carries the per-layer
metrics.  Each run also appends a record, environment included, to
``perfbench/results/<workload>.jsonl``; ``compare.py`` compares two
such files.
"""

import argparse
import collections
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# set-up is timed this many times before the workload worker and as many
# after it, so that the median spans two moments of the host's speed
SETUP_SAMPLES = 6
# Job times are scaled towards the host speed at which the worker's
# reference kernel takes REF_NOMINAL_S (roughly its time on one core of a
# 2.1 GHz Xeon server), by the factor (REF_NOMINAL_S / reference median)
# ** REF_WEIGHT.  A shared host's speed drifts by tens of percent for
# minutes at a time, and the reference, timed after each pass, drifts
# with it, but further: over 40 s windows on a shared 2-vCPU VM the log
# of the job times moved 0.35 to 0.8 times as far as the log of the
# reference's, so only half of the reference's deviation is taken out
# (the reference serves as a control variate).  Raw times are printed and
# kept in the results file.
REF_NOMINAL_S = 0.05
REF_WEIGHT = 0.5
# a job slower than this fails; about 2.5x the slowest job at the seed
JOB_LIMIT_S = 75.0
# the worker and all before it end within this; with the set-up timing
# after it the run stays well inside its 180 s limit
RUN_LIMIT_S = 150.0


class Outcome(NamedTuple):
    traced: bool
    pass_index: int
    id: str
    seconds: float
    reason: str | None        # why the job failed; None if it passed


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


class Worker:
    """A worker process whose stdout lines a thread reads and timestamps."""

    def __init__(self, args, spec=None):
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.events = []          # (arrival time, decoded line)
        self.start = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
            env=env, text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._reader = threading.Thread(target=self._read)
        self._reader.start()
        try:
            if spec is not None:
                self.proc.stdin.write(json.dumps(spec))
            self.proc.stdin.close()
        except BrokenPipeError:
            pass                  # the worker died; finish() reports it

    def _read(self):
        for line in self.proc.stdout:
            try:
                event = json.loads(line)
            except ValueError:
                event = {"raw": line.rstrip()}
            self.events.append((perf_counter(), event))

    def finish(self, timeout):
        """Wait for the worker, killing it after `timeout` s; True if killed."""
        killed = False
        try:
            self.proc.wait(timeout=max(timeout, 0.1))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            killed = True
        self._reader.join()
        return killed

    def ready_s(self):
        for t, event in self.events:
            if event.get("ready"):
                return t - self.start
        return None

    def env(self):
        return next((e["env"] for _, e in self.events if "env" in e), None)


def measure_setup():
    samples = []
    env = None
    for _ in range(SETUP_SAMPLES):
        w = Worker(["--ready-only"])
        w.finish(timeout=30)
        ready = w.ready_s()
        if ready is None or w.proc.returncode != 0:
            raise BenchError("a worker did not start; see its stderr")
        samples.append(ready)
        env = w.env()
    return samples, env


def self_check():
    from khoarrow import corpus
    from khoarrow.cube import check_planarity
    from khoarrow.diagram import parse_pd
    problems = workloads.self_check(corpus.CORPUS["trefoil"],
                                    check_planarity, parse_pd)
    if problems:
        raise BenchError("torus generator: " + "; ".join(problems))


def jones_oracle():
    from khoarrow.diagram import parse_pd
    from khoarrow.jones import jones
    cache = {}

    def jones_of(pd):
        if pd not in cache:
            cache[pd] = dict(jones(parse_pd(pd)).coeffs)
        return cache[pd]

    return jones_of


def judge(jobs, events, trace, jones_of):
    """Per-job outcomes and the attempted/failed counts of the run.

    Jobs of a pass that was due but never reported (the worker died or
    was killed) count as attempted and failed.
    """
    by_id = {job.id: job for job in jobs}
    outcomes = []
    for e in events:
        if "id" not in e:
            continue
        reason = e["error"] or oracles.check(by_id[e["id"]], e["rc"], e["out"],
                                             jones_of)
        outcomes.append(Outcome(e["traced"], e["pass"], e["id"], e["s"], reason))
    passes = {(o.traced, o.pass_index) for o in outcomes} | {(False, 0)}
    if trace:
        passes.add((True, 0))
    missing = len(passes) * len(jobs) - len(outcomes)
    failed = sum(1 for o in outcomes if o.reason) + missing
    return outcomes, len(outcomes) + missing, failed


def raw_times(outcomes, events, worker_s):
    """Unscaled (wall, slowest job, reference median) of the untraced passes.

    Each job's time is its median over the passes; the wall time is the
    sum of these medians.  A failed job counts with the time it took, a
    timed-out one with its limit.  Without a single job, the worker's
    whole life stands for both times.
    """
    times = {}
    for o in outcomes:
        if not o.traced:
            times.setdefault(o.id, []).append(o.seconds)
    refs = [s for e in events for s in e.get("ref_s", ())]
    medians = [statistics.median(v) for v in times.values()]
    return (sum(medians) if medians else worker_s,
            max(medians, default=worker_s),
            statistics.median(refs) if refs else REF_NOMINAL_S)


def ref_scale(ref):
    """Factor on the job times of a run whose reference median is `ref`."""
    return (REF_NOMINAL_S / ref) ** REF_WEIGHT


def end_to_end(outcomes, events, setup, raw, jobs):
    """Metrics of the untraced passes, times scaled by the reference.

    Peak RSS is the worker's own over its untraced passes (the reference
    kernel runs in a child of its own); if the worker never got that far,
    the largest of all children's.
    """
    wall, slowest, ref = raw
    scale = ref_scale(ref)
    untraced = [o for o in outcomes if not o.traced]
    attempted = max(len(untraced), len(jobs))
    ok = sum(1 for o in untraced if not o.reason)
    rss_kb = next((e["peak_rss_kb"] for e in events if "peak_rss_kb" in e),
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall * scale, "s"),
        "max_job_s": (slowest * scale, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ok_ratio": (ok / attempted, "ratio"),
    }


def unit_of(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "ratio" if name == "trace.coverage" else "count"


def per_layer(outcomes, events, untraced_wall):
    """Metrics of the traced pass; all zero if it never ran."""
    traced = next((e for e in events if e.get("phase") == "traced"),
                  {"self_s": {}, "calls": {}, "counts": {}})
    self_s, calls, counts = (collections.defaultdict(int, traced[k])
                             for k in ("self_s", "calls", "counts"))
    wall = sum(o.seconds for o in outcomes if o.traced)
    values = {
        "snf.snf_s": self_s["snf"], "snf.calls": calls["snf"],
        "snf.entries": counts["snf.entries"],
        "snf.max_entries": counts["snf.max_entries"],
        "homology.d2_s": self_s["homology.d2"],
        "homology.d2_calls": calls["homology.d2"],
        "homology.self_s": self_s["homology"],
        "chain.solve_signs_s": self_s["chain.solve_signs"],
        "chain.edge_map_s": self_s["chain.edge_map"],
        "chain.edge_map_calls": calls["chain.edge_map"],
        "chain.build_s": self_s["chain.build"],
        "chain.generators": counts["chain.generators"],
        "chain.boundary_nnz": counts["chain.boundary_nnz"],
        "chain.boundary_mb": counts["chain.boundary_bytes"] / 2 ** 20,
        "reduced.lattice_s": self_s["reduced.lattice"],
        "reduced.lattice_calls": calls["reduced.lattice"],
        "reduced.lattice_rank": counts["reduced.lattice_rank"],
        "reduced.ev_s": self_s["reduced.ev"],
        "reduced.ev_calls": calls["reduced.ev"],
        "reduced.differential_s": self_s["reduced.differential"],
        "reduced.build_s": self_s["reduced.build"],
        "reduced.checks_s": self_s["reduced.checks"],
        "jones.s": self_s["jones"],
        "cube.resolve_s": self_s["cube.resolve"],
        "cube.resolve_calls": calls["cube.resolve"],
        "diagram.parse_s": self_s["diagram.parse"],
        "cli.self_s": self_s["cli"],
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.coverage": sum(self_s.values()) / wall if wall else 0.0,
    }
    return {name: (value, unit_of(name)) for name, value in values.items()}


def _entries(shape):
    m, n = shape.split("x")
    return int(m) * int(n)


def report(args, jobs, env, outcomes, metrics, structure, raw):
    print(f"khoarrow pipeline benchmark: workload={args.workload} "
          f"seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for job in jobs:
        mine = [o for o in outcomes if o.id == job.id]
        times = [o.seconds for o in mine if not o.traced]
        reasons = sorted({o.reason for o in mine if o.reason})
        med = f"{statistics.median(times):8.3f} s" if times else "     n/a"
        print(f"  {job.id:24s} {med}  x{len(times)}  "
              + ("FAIL: " + "; ".join(reasons) if reasons else "ok"))
        complexes = structure.get(job.id, {}).get("complexes", [])
        if len(complexes) == 1:
            rec = complexes[0]
            gens = " ".join(f"{h}:{n}" for h, n in rec["generators"].items())
            print(f"      {rec['theory']} generators by h [{gens}] "
                  f"nnz {rec['boundary_nnz']} "
                  f"dense {rec['boundary_bytes'] / 2 ** 20:.2f} MB")
        elif complexes:
            gens = sum(sum(r["generators"].values()) for r in complexes)
            print(f"      {len(complexes)} complexes, {gens} generators, "
                  f"nnz {sum(r['boundary_nnz'] for r in complexes)}, dense "
                  f"{sum(r['boundary_bytes'] for r in complexes) / 2 ** 20:.2f}"
                  " MB")
        blocks = structure.get(job.id, {}).get("snf_blocks")
        if blocks:
            print(f"      snf blocks: {sum(blocks.values())} calls, "
                  f"{len(blocks)} shapes, largest "
                  f"{max(blocks, key=_entries)}")
    wall, slowest, ref = raw
    print(f"raw: wall {wall:.3f} s, slowest job {slowest:.3f} s; reference "
          f"median {ref:.4f} s, scale {ref_scale(ref):.3f}")
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:14.6f} {unit}")


def run(args):
    if not (SRC / "khoarrow" / "cli.py").is_file():
        raise BenchError(f"no khoarrow sources under {SRC}")
    t_start = perf_counter()
    sys.path.insert(0, str(SRC))
    self_check()
    jones_of = jones_oracle()
    jobs = workloads.jobs(args.workload, args.seed)
    setup, env = measure_setup()

    spec = {
        "jobs": [{"id": j.id, "argv": list(j.argv)} for j in jobs],
        "seconds": args.seconds, "trace": bool(args.trace),
        "job_limit_s": JOB_LIMIT_S,
        "budget_s": RUN_LIMIT_S - (perf_counter() - t_start),
    }
    worker = Worker([], spec)
    killed = worker.finish(timeout=spec["budget_s"] + 10)
    worker_s = perf_counter() - worker.start
    setup += measure_setup()[0]
    events = [e for _, e in worker.events]
    env = worker.env() or env
    outcomes, attempted, failed = judge(jobs, events, args.trace, jones_of)
    if killed or worker.proc.returncode != 0:
        print(f"worker {'killed' if killed else 'exited'} with code "
              f"{worker.proc.returncode}", file=sys.stderr)
        failed = max(failed, 1)
    raw = raw_times(outcomes, events, worker_s)
    metrics = (per_layer(outcomes, events, raw[0]) if args.trace
               else end_to_end(outcomes, events, setup, raw, jobs))
    traced = next((e for e in events if e.get("phase") == "traced"), {})
    structure = traced.get("jobs", {})

    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"{args.workload}.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "env": env,
            "attempted": attempted, "failed": failed,
            "raw": dict(zip(("wall_s", "max_job_s", "ref_s"), raw)),
            "setup_samples": setup,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "jobs": [o._asdict() for o in outcomes],
            "structure": structure,
        }) + "\n")
    report(args, jobs, env, outcomes, metrics, structure, raw)
    for path in traced.get("absent", []):
        print(f"not traced, absent from the program: {path}")
    for error in traced.get("count_errors", []):
        print(f"counter could not read a result: {error}")
    print(f"fail_ratio {failed / attempted:.3f} ({failed} of {attempted} jobs)")
    return {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",),
                        help="'all' runs every workload untraced, then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one fresh parent per run, so that each peak RSS is its own
        codes = [subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", t],
            check=False).returncode
            for w in workloads.WORKLOADS for t in ("0", "1")]
        return 0 if not any(codes) else 1
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
