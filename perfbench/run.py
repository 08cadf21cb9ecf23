"""irkit stepping benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload heat-n1024-gauss4 --seed 1 --seconds 20 --trace 0

A single-process closed loop: one client steps one problem sequentially,
with BLAS pinned to one thread, calling only irkit's public API with the
default ``SolverConfig()``.  irkit is imported from ``src/`` beside this
directory; without it the script exits with an error and prints no result.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
alternates untraced and traced episodes and reports per-layer self times
and counts from spans recorded around irkit's public entry points (see
``tracing.py``), plus the tracing overhead.  The last stdout line is the
JSON result; the line before it is a provenance record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_irkit():
    """Import irkit from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "irkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: irkit sources not found under {src}")
    sys.path.insert(0, str(src))
    import irkit

    if Path(irkit.__file__).resolve().parent != src / "irkit":
        sys.exit(f"perfbench: imported irkit from {irkit.__file__}, not {src}")
    return irkit


def git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    args = parse_args(argv)
    # Pin BLAS before numpy is first imported (by irkit).
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    irkit = import_irkit()

    import numpy as np
    import scipy

    import harness
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"available: {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    bench = harness.Bench(irkit, wl, args.seed, Tracer(irkit) if args.trace else None)
    run = harness.run_traced if args.trace else harness.run_untraced
    metrics, info = run(bench, args.seconds)

    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "config_hash": harness.config_hash(wl, bench.cfg, args.seed),
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        **info,
        "failures": bench.failures[:20],
    }
    print(json.dumps({"record": record}))
    if metrics is None:
        sys.exit("perfbench: no episode passed its checks; no metrics to report")
    failed = len(bench.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
