"""Compare two sets of benchmark runs, workload by workload.

Usage: python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds records that run.py appends to
``perfbench/results/<workload>.jsonl``.  For every workload and metric
found on both sides this prints each side's median and quartiles and
the change of the medians.  It flags runs whose environments differ: a
different SNF kernel (compiled or pure Python) alone changes the SNF
time several-fold, so such timings are not comparable.
"""

import json
import statistics
import sys

ENV_KEYS = ("snf_kernel", "python", "numpy", "nproc")


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def env_warnings(base, new):
    out = []
    for key in ENV_KEYS:
        a = sorted({str(r["env"].get(key)) for r in base if r.get("env")})
        b = sorted({str(r["env"].get(key)) for r in new if r.get("env")})
        if a != b:
            note = "; timings are not comparable" if key == "snf_kernel" else ""
            out.append(f"WARNING: {key} differs: base {a}, new {b}{note}")
    return out


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    for line in env_warnings(base, new):
        print(line)
    groups = sorted({(r["workload"], r["trace"]) for r in base}
                    & {(r["workload"], r["trace"]) for r in new})
    for workload, trace in groups:
        print(f"{workload} (trace {trace})")
        sides = [[r for r in runs if (r["workload"], r["trace"])
                  == (workload, trace)] for runs in (base, new)]
        for name in sides[0][0]["metrics"]:
            values = [[r["metrics"][name] for r in runs
                       if name in r["metrics"]] for runs in sides]
            if not all(values):
                continue
            (b1, bm, b3), (n1, nm, n3) = map(quartiles, values)
            change = f"{(nm - bm) / bm:+8.1%}" if bm else "     n/a"
            print(f"  {name:24s} base {bm:12.4f} [{b1:.4f}, {b3:.4f}] n={len(values[0])}"
                  f"  new {nm:12.4f} [{n1:.4f}, {n3:.4f}] n={len(values[1])}"
                  f"  {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
