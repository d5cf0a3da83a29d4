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
c_i is c_j = 1.  The count numbers its 1 + (q^(r-1) - 1)/(q - 1)
representatives by rank: rank 0 is index 0, x = 0, and the ranks that
follow run through the blocks [1, 2), [q, 2q), ..., [q^{r-2}, 2 q^{r-2}) in
order (_indices).  A job is CHUNK consecutive ranks: it turns them into
indices and codes, evaluates them and sums their fibres, so neither the
representatives nor their fibres are ever listed.  One kernel, _fibres,
evaluates every family on FieldSpec's array arithmetic; t = 0 needs
u = x^q - x = 0, that is x in F_q, the orbit of 0, so the t = 0 places are
q f(0) in number.
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
    stages: dict[str, float]  # seconds per stage: tables, kernel, reduction


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
# the kernel: x codes in, per-x fibre counts f(x) out


def _fibres(field: FieldSpec, params: CurveParams, x, e: int):
    """Per x code, the fibre count f(x) of the curve whose Kummer degree is
    e: m for a cover (t^m = u), 1 for a base curve.

    The p-1 Artin-Schreier equations w^q - w = x^(j q0) u, j = 1..p-1, have q
    solutions each iff the trace to GF(q) of the right side vanishes, and
    none otherwise.  t^e = u then has gcd(e, ell-1) roots iff u is a power of
    that order, and one root, t = 0, where u = 0.  The power-residue test,
    the costliest step on digit arrays, runs only when that gcd exceeds 1
    (otherwise t -> t^e is a bijection of F_ell^*) and only on rows with a
    nonzero fibre so far.
    """
    q, d = params.q, 2 * params.s + 1
    u = field.vsub(field.vpow(x, q), x)
    xq0 = field.vpow(x, params.q0)
    f = np.ones_like(u)
    c = u
    for _ in range(field.p - 1):
        c = field.vmul(xq0, c)
        f *= np.where(field.vtrace(c, d) == 0, q, 0)
    dk = math.gcd(e, field.order - 1)
    if dk > 1:
        live = (f != 0) & (u != 0)
        f[live] *= np.where(field.vpow(u[live], (field.order - 1) // dk) == 1, dk, 0)
    return f


def _prepare(family: Family | str, params: CurveParams, r: int, modulus):
    """Resolve the family, build the field, and bind the kernel for it.  The
    field of degree (2s+1) r over GF(p) must be one that gf supports, or
    make_field raises FieldError."""
    family, params = resolve_curve(family, params)
    field = make_field(family.char, (2 * params.s + 1) * r, modulus)
    return family, params, field, partial(_fibres, field, params, e=params.m if family.is_cover else 1)


def _indices(lo: int, hi: int, q: int) -> np.ndarray:
    """The indices of the representatives of ranks lo..hi-1: rank 0 is
    index 0, and the ranks after it run through the blocks [q^j, 2 q^j),
    j = 0, 1, ..., in order."""
    idx = np.arange(lo, hi, dtype=np.int64)
    start, size = 1, 1  # block j holds the ranks [start, start + size), size = q^j
    while start < hi:
        end = start + size
        if end > lo:
            idx[max(start, lo) - lo:min(end, hi) - lo] += size - start
        start, size = end, size * q
    return idx


def _streamed_count(family: Family | str, params: CurveParams, r: int, modulus=None):
    """(n_points, t0_affine) summed over every x of the field, and over F_q
    for t = 0: the reference that the orbit-reduced count is tested
    against."""
    _, params, field, kernel = _prepare(family, params, r, modulus)
    n_points = 1 + sum(int(kernel(np.arange(lo, min(lo + CHUNK, field.order), dtype=np.int64)).sum())
                       for lo in range(0, field.order, CHUNK))
    fq = np.array(field.subfield_codes(2 * params.s + 1), dtype=np.int64)
    return n_points, int(kernel(fq).sum())


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
    q, d = params.q, 2 * params.s + 1
    t_start = time.perf_counter()
    field.precompute(d)  # before threads share the field
    t_tables = time.perf_counter()
    reps = 1 + (q ** (r - 1) - 1) // (q - 1)
    jobs = range(0, reps, CHUNK)

    def evaluate(lo):  # (sum of f, f at the job's first x)
        f = kernel(field.vspan(_indices(lo, min(lo + CHUNK, reps), q), d))
        return int(f.sum()), int(f[0])

    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(evaluate, jobs))
    else:
        results = [evaluate(lo) for lo in jobs]
    t_kernel = time.perf_counter()
    f0 = results[0][1]  # x = 0, rank 0
    n_points = 1 + q * f0 + q * (q - 1) * (sum(total for total, _ in results) - f0)

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
        t0_affine=q * f0,  # t = 0 needs x in F_q, the orbit of 0
        elements_evaluated=reps,
        threads=threads,
        stages={"tables": t_tables - t_start, "kernel": t_kernel - t_tables, "reduction": t_end - t_kernel},
    )
