"""Benchmark launcher for brepcodec.

    python3 bench/run.py --workload roundtrip --seed 1 --seconds 30 --trace 0

Workloads: ``roundtrip``, ``encode``, ``generate``, or ``all`` to run the
three in one process.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics, the per-layer self-time table,
and writes every span to ``bench/results/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).

The package is imported from ``src/`` of the checkout this file sits in;
without it the launcher exits with status 2 and prints no result.  BLAS
and OpenMP are pinned to one thread here, before numpy is first imported.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("roundtrip", "encode", "generate", "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "brepcodec" / "__init__.py").is_file():
        print(f"error: no brepcodec package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (numpy loads here, after the pinning)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    env = workloads.environment()
    print(f"# brepcodec benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# environment: {json.dumps(env)}")
    results = {}
    for name in names:
        trace_path = (str(ROOT / "bench" / "results" / f"trace-{name}-seed{args.seed}.json")
                      if args.trace else None)
        res = workloads.run_workload(name, args.seed, args.seconds, bool(args.trace),
                                     trace_path=trace_path)
        print(f"## {name}")
        print("\n".join(res.pop("lines")), flush=True)
        results[name] = res

    if len(names) == 1:
        res = results[names[0]]
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {}}
        for name, res in results.items():
            for metric, v in {**res["metrics"], **res.get("ungated", {})}.items():
                label = workloads.ALIASES[name].get(metric, metric)
                final["metrics"][f"{name}.{label}"] = v
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
