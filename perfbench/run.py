"""Benchmark entry point.

    python3 perfbench/run.py --workload train-quick --seed 1 --seconds 20 --trace 0

Run from the repository root.  It imports the program from ``src/`` of the
same checkout, generates the workload's inputs from the seed under
``.perfbench/work/`` (removed afterwards), measures for about ``--seconds``
and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` they are the per-layer metrics of a traced run.  The line
before it is a JSON report with the environment, the input distribution,
sample counts and the output digest; the same report, and on traced runs
all spans, are kept under ``.perfbench/``.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def limit_blas_threads():
    """At most one BLAS thread per usable core; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    n = int(current) if current.isdigit() and int(current) > 0 else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(n, nproc))
    return nproc


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(nproc):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:   # numpy before 1.26 only prints its config
        blas = {}
    return {"nproc": nproc, "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": blas_threads(), "machine": platform.machine()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "melformer").is_dir():
        print(f"error: no program source at {ROOT / 'src' / 'melformer'}", file=sys.stderr)
        return 2
    nproc = limit_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import metrics
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{tag}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    bench = workloads.Bench(args.workload, args.seed, args.seconds, work, tracer)
    try:
        result = bench.run(bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    counts = defaultdict(float, bench.counts)
    if tracer:
        counts.update(tracer.counts)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(nproc),
              **{k: result[k] for k in ("inputs", "samples", "units", "digest")},
              "failed_share": result["failed"] / max(1, result["attempted"]),
              "end_to_end": result["e2e"]}
    if tracer:
        summary = tracing.Summary(tracer, "train" if bench.w.harness else "request")
        layer = metrics.layer_metrics(summary, counts)
        report.update(per_layer=layer, ops=summary.op_table(),
                      backward_by_shape=summary.shape_table(),
                      counts=dict(counts))
        (OUT / "traces").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "traces" / f"{tag}.jsonl.gz")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps(report))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": layer if tracer else result["e2e"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
