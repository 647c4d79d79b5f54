"""Benchmark worker: one fresh process per run, jobs run in-process.

Protocol, one JSON object per stdout line: ``{"ready": true}`` as soon as
``khoarrow.cli`` is imported (the parent times start-to-ready as
set-up), then the environment; unless started with ``--ready-only`` it
then reads a job spec as JSON from stdin, writes one line per job run,
the reference kernel's times after each untraced pass, its peak RSS
after the untraced passes and, when the spec asks for tracing, a
``phase`` line with the span totals of the traced pass.

Usage: python3 perfbench/worker.py [--ready-only] < spec.json
"""

import os
import sys

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

if __name__ == "__main__":
    sys.path.insert(0, SRC)
    import khoarrow.cli  # set-up ends when this import returns
    print('{"ready": true}', flush=True)
    import jobrunner
    sys.exit(jobrunner.main(khoarrow.cli, SRC, sys.argv[1:]))
