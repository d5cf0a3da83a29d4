#!/usr/bin/env python3
"""Run the point counts behind the maximality claims and print a timing table.

Counts are orbit-reduced: one x per orbit of x -> lam*x + a is evaluated
(the `elems` column).  The degree-6 Ree count over F_{3^18} is included; it
evaluates 551,882 representatives in about 0.51 s on one thread (median of
20 warm runs, 5 rounds of 4 in fresh processes, `count_stages` of
BENCH_537bd13d613b+cf2c8a066636.json; 2-core x86_64, Python 3.11.7, numpy
2.4.6).  Times are in
milliseconds, split by stage of `CountReport.stages`: `tables` builds the
field's lazy tables for the count (the exp/log tables, or past
`gf.TABLE_LIMIT` the Frobenius tables, and the half tables of the
trace to F_q and of the representatives' index map), and only the first
count over each field and F_q pays it; `kernel` cuts the representatives'
ranks into jobs, turns each job's ranks into indices and codes through the
index map's tables, evaluates them and sums their fibres; `wall` is the
whole count.
"""

import argparse
import sys

from maxcurve.counting import count_points, default_threads, positive_threads
from maxcurve.curves import params_from_s

JOBS = [
    ("suzuki-cover", 1, (1, 2, 4)),
    ("suzuki-base", 1, (4,)),
    ("suzuki-cover", 2, (4,)),
    ("ree-cover", 1, (1, 2, 3, 6)),
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads (default: MAXCURVE_THREADS or the CPU count)")
    args = parser.parse_args()
    try:
        threads = default_threads() if args.threads is None else positive_threads(args.threads, "--threads")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)

    print(f"threads: {threads}")
    print(f"{'family':14} {'s':>2} {'ext':>3} {'field':>8} {'points':>12} {'target':>12} {'max':>5} "
          f"{'elems':>7} {'tables':>9} {'kernel':>9} {'wall':>9}")
    for family, s, exts in JOBS:
        params = params_from_s(family, s)
        for r in exts:
            rep = count_points(family, params, r, threads=threads)
            target = rep.hw_target if rep.hw_target is not None else "-"
            print(
                f"{family:14} {s:>2} {r:>3} {f'{rep.ell:.0e}' if rep.ell > 10**7 else rep.ell:>8} "
                f"{rep.n_points:>12} {target:>12} {str(rep.is_maximal):>5} "
                f"{rep.elements_evaluated:>7} {rep.stages['tables'] * 1e3:>7.2f}ms {rep.stages['kernel'] * 1e3:>7.2f}ms "
                f"{rep.wall_time * 1e3:>7.2f}ms"
            )


if __name__ == "__main__":
    main()
