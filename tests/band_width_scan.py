"""Band storage width scan: LAPACK banded LU at a band's true half-bandwidth
``k`` against the same band stored ``K`` wide, ``K`` the next multiple of
the BLAS kernel's row width.

For every ``k`` in ``1..--kmax`` and every ``n`` in ``--sizes`` it builds one
random ``n x n`` band matrix of half-bandwidth ``k`` (with a diagonal shift,
so the factorization pivots only sometimes, as a shifted operator's does)
and times ``dgbtrf`` (factor, copying the band) and ``dgbtrs`` (one vector
solve) with the band stored ``k`` wide and ``K`` wide.  The two storages
alternate within every repetition, so drifting machine load falls on both.
It prints the median microseconds per call of each, their ratio, and the
width ``irkit.sparsela.storage_width(k)`` stores ``k`` at, so the rule there
can be measured again on another CPU or BLAS:

    PYTHONPATH=src python tests/band_width_scan.py
    PYTHONPATH=src python tests/band_width_scan.py --sizes 256 --kmax 32 --reps 9

BLAS is pinned to one thread, as ``perfbench`` pins it.  The storages give
the same pivots and the same bits on the CPUs this was measured on (the
extra diagonals are exact zeros); the script checks that on each matrix,
prints ``differs`` in the last column where they do not, and then exits with
status 1 (0 when every row reads ``same``), so a CI job can run it as a
bit-identity check:

    PYTHONPATH=src python tests/band_width_scan.py --sizes 256 --kmax 33 --reps 1
"""

from __future__ import annotations

import argparse
import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from scipy.linalg import lapack  # noqa: E402

from irkit.sparsela import BLAS_KERNEL_ROWS, storage_width  # noqa: E402


def band_storage(a, k, width):
    """LAPACK ``ab`` of the band of ``a`` (half-bandwidth ``k``) stored ``width`` wide."""
    n = len(a)
    ab = np.zeros((3 * width + 1, n), order="F")
    for d in range(-k, k + 1):
        j = np.arange(max(0, -d), min(n, n - d))
        ab[2 * width + d, j] = a[j + d, j]
    return ab


def per_call(fn, number):
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - t0) / number


def scan_one(n, k, reps, rng):
    width = -(-k // BLAS_KERNEL_ROWS) * BLAS_KERNEL_ROWS
    a = rng.standard_normal((n, n))
    i, j = np.indices((n, n))
    a[np.abs(i - j) > k] = 0.0
    a[i == j] += 0.5 * k
    b = rng.standard_normal(n)
    cases = []
    for w in (k, width):
        ab = band_storage(a, k, w)
        lu, piv, info = lapack.dgbtrf(ab, w, w)
        cases.append((w, ab, lu, piv))
    (_, _, lu0, piv0), (_, _, lu1, piv1) = cases
    same = (np.array_equal(piv0, piv1)
            and lapack.dgbtrs(lu0, k, k, b, piv0)[0].tobytes()
            == lapack.dgbtrs(lu1, width, width, b, piv1)[0].tobytes())
    t_one = per_call(lambda: lapack.dgbtrf(cases[1][1], width, width), 3)
    number = max(3, int(2e-3 / t_one))
    times = {w: ([], []) for w in (k, width)}
    for r in range(reps):
        for w, ab, lu, piv in (cases if r % 2 == 0 else cases[::-1]):
            times[w][0].append(per_call(lambda: lapack.dgbtrf(ab, w, w), number))
            times[w][1].append(per_call(lambda: lapack.dgbtrs(lu, w, w, b, piv), 4 * number))
    med = {w: [1e6 * float(np.median(t)) for t in ts] for w, ts in times.items()}
    return width, med[k], med[width], same


def main(argv=None):
    parser = argparse.ArgumentParser(description="Time LAPACK banded LU at widths k and K.")
    parser.add_argument("--sizes", type=int, nargs="+", default=[256, 1024])
    parser.add_argument("--kmax", type=int, default=64)
    parser.add_argument("--reps", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    print(f"{'n':>5} {'k':>3} {'K':>3} {'factor k':>9} {'factor K':>9} {'ratio':>6} "
          f"{'solve k':>8} {'solve K':>8} {'ratio':>6} {'rule':>4}  bits")
    differs = 0
    for n in args.sizes:
        for k in range(1, args.kmax + 1):
            width, (fk, sk), (fw, sw), same = scan_one(n, k, args.reps, rng)
            differs += not same
            print(f"{n:5d} {k:3d} {width:3d} {fk:9.1f} {fw:9.1f} {fw / fk:6.2f} "
                  f"{sk:8.1f} {sw:8.1f} {sw / sk:6.2f} {storage_width(k):4d}  "
                  f"{'same' if same else 'differs'}", flush=True)
    if differs:
        print(f"band_width_scan: {differs} row(s) differ in bits", file=sys.stderr)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
