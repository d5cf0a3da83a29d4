"""Orbit-reduced rational-point counts for the four curve families.

Counts never materialize points.  The kernel evaluates, for an array of x
codes, the fibre count f(x): the product of the Artin-Schreier solution
counts (trace conditions) and the Kummer root count (power-residue
condition).  f is invariant under x -> lam*x + a (lam in F_q^*, a in F_q),
maps that lift to automorphisms fixing the infinite place, so one x per
orbit suffices:

    N = 1 + q f(0) + q(q-1) * sum of f(x_P) over P in P^{r-2}(F_q),

where x_P = sum_{i=1}^{r-1} c_i g^i with c_i in F_q, g = x the generator of
the residue basis, and the last nonzero c_i equal to 1.  The x_P are the
images of integer indices under one GF(p)-linear map (FieldSpec.vspan).
With b_0 = 1, b_1, ..., b_{d-1} a GF(p)-basis of F_q, d = 2s+1, index n maps
to

    x_n = sum_{i=1}^{r-1} sum_{l<d} n_{(i-1)d+l} b_l g^i,

n_j the j-th base-p digit of n.  The indices in [q^{j-1}, 2 q^{j-1}) have
digit 1 at b_0 g^j and none above, so they give the x_P whose last nonzero
c_i is c_j = 1; with index 0 for x = 0 the count evaluates the indices

    {0} u [1, 2) u [q, 2q) u ... u [q^{r-2}, 2 q^{r-2}).

They are cut into jobs of CHUNK indices, and each job turns its indices into
codes, evaluates them and sums their fibres, so neither the representatives
nor their fibres are ever listed.  One kernel, _fibres, evaluates every
family on FieldSpec's array arithmetic.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .curves import CurveParams, Family, InvariantError, genus, hasse_weil_target, resolve_curve
from .gf import FieldSpec, make_field

CHUNK = 1 << 16


@dataclass(frozen=True)
class CountReport:
    family: Family
    params: CurveParams
    r: int
    ell: int
    n_points: int
    hw_target: int | None
    is_maximal: bool
    note: str
    wall_time: float
    modulus: tuple[int, ...]
    t0_affine: int
    elements_evaluated: int
    threads: int
    stages: dict[str, float]  # seconds per stage: tables, representatives, kernel, reduction


def positive_threads(value, source: str) -> int:
    """value as a thread count; ValueError unless it is a positive integer."""
    try:
        n = int(value)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{source} must be a positive integer, got {value!r}")
    return n


def default_threads() -> int:
    env = os.environ.get("MAXCURVE_THREADS")
    if env:
        return positive_threads(env, "MAXCURVE_THREADS")
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# the kernel: x codes in, per-x (f(x), f(x) at t = 0) out


def _fibres(field: FieldSpec, params: CurveParams, x, with_t: bool):
    """Per x code: (f(x), f(x) where u = x^q - x vanishes, else 0).

    The p-1 Artin-Schreier equations w^q - w = x^(j q0) u, j = 1..p-1, have q
    solutions each iff the trace to GF(q) of the right side vanishes, and
    none otherwise.  The cover's t^m = u then has gcd(m, ell-1) roots iff u
    is a power of that order; the power-residue test, the costliest step on
    digit arrays, runs only on rows with a nonzero fibre so far.
    """
    q, d = params.q, 2 * params.s + 1
    u = field.vsub(field.vpow(x, q), x)
    xq0 = field.vpow(x, params.q0)
    f = np.ones_like(u)
    c = u
    for _ in range(field.p - 1):
        c = field.vmul(xq0, c)
        f *= np.where(field.vtrace(c, d) == 0, q, 0)
    t0 = np.where(u == 0, f, 0)
    if with_t:
        dk = math.gcd(params.m, field.order - 1)
        live = (f != 0) & (u != 0)
        f[live] *= np.where(field.vpow(u[live], (field.order - 1) // dk) == 1, dk, 0)
    return f, t0


def _prepare(family: Family | str, params: CurveParams, r: int, modulus):
    """Resolve the family, build the field, and bind the kernel for it.  The
    field of degree (2s+1) r over GF(p) must be one that gf supports, or
    make_field raises FieldError."""
    family, params = resolve_curve(family, params)
    field = make_field(family.char, (2 * params.s + 1) * r, modulus)
    return family, params, field, partial(_fibres, field, params, with_t=family.is_cover)


def _index_ranges(q: int, r: int) -> list[tuple[int, int]]:
    """The index ranges [lo, hi) whose vspan images are 0 and the x_P."""
    return [(0, 1)] + [(q**j, 2 * q**j) for j in range(r - 1)]


def _jobs(ranges: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """The ranges, in order, cut and merged into jobs of at most CHUNK
    indices, so that small ranges share one kernel call."""
    jobs, job, room = [], [], CHUNK
    for lo, hi in ranges:
        while lo < hi:
            step = min(hi - lo, room)
            job.append((lo, lo + step))
            lo, room = lo + step, room - step
            if not room:
                jobs.append(job)
                job, room = [], CHUNK
    return jobs + [job] if job else jobs


def _indices(ranges: list[tuple[int, int]]) -> np.ndarray:
    return np.concatenate([np.arange(lo, hi, dtype=np.int64) for lo, hi in ranges])


def _streamed_count(family: Family | str, params: CurveParams, r: int, modulus=None):
    """(n_points, t0_affine) summed over every x of the field: the reference
    that the orbit-reduced count is tested against."""
    _, _, field, kernel = _prepare(family, params, r, modulus)
    parts = [kernel(np.arange(lo, min(lo + CHUNK, field.order), dtype=np.int64))
             for lo in range(0, field.order, CHUNK)]
    return 1 + sum(int(f.sum()) for f, _ in parts), sum(int(t.sum()) for _, t in parts)


def count_points(
    family: Family | str,
    params: CurveParams,
    r: int,
    threads: int | None = None,
    modulus=None,
) -> CountReport:
    """Count rational places over the degree-r extension of the base field,
    including the single infinite place."""
    family, params, field, kernel = _prepare(family, params, r, modulus)
    threads = default_threads() if threads is None else positive_threads(threads, "threads")
    d = 2 * params.s + 1
    t_start = time.perf_counter()
    field.precompute(d)  # before threads share the field
    t_tables = time.perf_counter()
    ranges = _index_ranges(params.q, r)
    jobs = _jobs(ranges)
    t_reps = time.perf_counter()

    def evaluate(job):  # (sum of f, f and t0 at the job's first x)
        f, t0 = kernel(field.vspan(_indices(job), d))
        return int(f.sum()), int(f[0]), int(t0[0])

    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(evaluate, jobs))
    else:
        results = [evaluate(job) for job in jobs]
    t_kernel = time.perf_counter()
    q = params.q
    _, f0, t0 = results[0]  # x = 0, the first index of job 0
    n_points = 1 + q * f0 + q * (q - 1) * (sum(total for total, _, _ in results) - f0)
    t0_affine = q * t0  # t = 0 needs x in F_q, the orbit of 0

    ell = field.order
    g = genus(params)
    root = math.isqrt(ell)
    if root * root == ell:
        target = hasse_weil_target(ell, g)
        if n_points > target:
            raise InvariantError(f"count {n_points} exceeds the Hasse-Weil bound {target}")
        is_max = n_points == target
        note = ""
    else:
        target = None
        is_max = False
        note = "field size is not a perfect square; maximality not applicable"
    t_end = time.perf_counter()
    return CountReport(
        family=family,
        params=params,
        r=r,
        ell=ell,
        n_points=n_points,
        hw_target=target,
        is_maximal=is_max,
        note=note,
        wall_time=t_end - t_start,
        modulus=field.modulus,
        t0_affine=t0_affine,
        elements_evaluated=sum(hi - lo for lo, hi in ranges),
        threads=threads,
        stages={"tables": t_tables - t_start, "representatives": t_reps - t_tables,
                "kernel": t_kernel - t_reps, "reduction": t_end - t_kernel},
    )
