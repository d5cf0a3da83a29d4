"""Orbit-reduced rational-point counts for the four curve families.

Counts never materialize points.  The kernels evaluate, for an array of x
codes, the fibre count f(x): the product of the Artin-Schreier solution
counts (trace conditions) and the Kummer root count (power-residue
condition).  f is invariant under x -> lam*x + a (lam in F_q^*, a in F_q),
maps that lift to automorphisms fixing the infinite place, so one x per
orbit suffices:

    N = 1 + q f(0) + q(q-1) * sum of f(x_P) over P in P^{r-2}(F_q),

where x_P = sum_{i=1}^{r-1} c_i g^i with c_i in F_q, g the generator of the
residue basis, and the last nonzero c_i equal to 1.  Fields up to
TABLE_LIMIT run the kernels through exp/log tables; the degree-6 Ree field
runs them on digit matrices.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .curves import CurveParams, Family, InvariantError, genus, hasse_weil_target, params_from_s
from .gf import TABLE_LIMIT, FieldSpec, _code_to_digits, make_field

CHUNK = 1 << 16

SUPPORTED_EXTENSIONS = {
    Family.SUZUKI_COVER: (1, 2, 4),
    Family.SUZUKI_BASE: (1, 2, 4),
    Family.REE_COVER: (1, 2, 3, 6),
    Family.REE_BASE: (1, 2, 3, 6),
}
SUPPORTED_Q = {2: (8, 32), 3: (27,)}


class UnsupportedCountError(ValueError):
    pass


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


def _check_supported(family: Family, params: CurveParams, r: int) -> None:
    if params.q not in SUPPORTED_Q[family.char]:
        raise UnsupportedCountError(f"q={params.q} outside desk scale for {family.value}")
    if r not in SUPPORTED_EXTENSIONS[family]:
        raise UnsupportedCountError(f"extension degree {r} unsupported for {family.value}")


# ---------------------------------------------------------------------------
# table-driven kernels: x codes in, per-x (f(x), f(x) at t = 0) out


def _vmul(a, b, exp, log, n):
    out = np.zeros_like(a)
    nz = (a != 0) & (b != 0)
    out[nz] = exp[(log[a[nz]] + log[b[nz]]) % n]
    return out


def _vfrob_pow(codes, pe, exp, log, n):
    """codes^(p^e) via exponent multiplication in the log domain."""
    out = np.zeros_like(codes)
    nz = codes != 0
    out[nz] = exp[(log[codes[nz]] * pe) % n]
    return out


def _digits(codes, k, p=3):
    mat = np.empty((codes.shape[0], k), dtype=np.int64)
    c = codes.copy()
    for i in range(k):
        c, mat[:, i] = np.divmod(c, p)
    return mat


def _suzuki_chunk(field: FieldSpec, params: CurveParams, x, with_t: bool):
    exp, log = field.tables()
    n = field.order - 1
    k, d = field.k, 2 * params.s + 1
    q, q0, m = params.q, params.q0, params.m
    xq = _vfrob_pow(x, q, exp, log, n)
    s = xq ^ x
    xq0 = _vfrob_pow(x, q0, exp, log, n)
    c = _vmul(xq0, s, exp, log, n)
    acc = c.copy()
    t = c
    for _ in range(k // d - 1):
        t = _vfrob_pow(t, q, exp, log, n)
        acc ^= t
    n_y = np.where(acc == 0, q, 0).astype(np.int64)
    if with_t:
        dk = math.gcd(m, field.order - 1)
        n_t = np.where(s == 0, 1, 0).astype(np.int64)
        nz = s != 0
        n_t[nz] = np.where(log[s[nz]] % dk == 0, dk, 0)
        contrib = n_y * n_t
    else:
        contrib = n_y
    return contrib, np.where(s == 0, n_y, 0)


def _ree_chunk(field: FieldSpec, params: CurveParams, x, with_t: bool):
    exp, log = field.tables()
    n = field.order - 1
    k, d = field.k, 2 * params.s + 1
    q, q0, m = params.q, params.q0, params.m
    xq = _vfrob_pow(x, q, exp, log, n)
    u_digits = (_digits(xq, k) - _digits(x, k)) % 3
    u = (u_digits * (3 ** np.arange(k, dtype=np.int64))).sum(axis=1)
    xq0 = _vfrob_pow(x, q0, exp, log, n)
    t1 = _vmul(xq0, u, exp, log, n)          # x^q0 * u
    t2 = _vmul(xq0, t1, exp, log, n)         # x^(2q0) * u

    def trace_zero(c):
        acc = _digits(c, k)
        t = c
        for _ in range(k // d - 1):
            t = _vfrob_pow(t, q, exp, log, n)
            acc += _digits(t, k)
        return (acc % 3 == 0).all(axis=1)

    n_y = np.where(trace_zero(t1), q, 0).astype(np.int64)
    n_z = np.where(trace_zero(t2), q, 0).astype(np.int64)
    contrib = n_y * n_z
    if with_t:
        dk = math.gcd(m, field.order - 1)
        n_t = np.where(u == 0, 1, 0).astype(np.int64)
        nz = u != 0
        n_t[nz] = np.where(log[u[nz]] % dk == 0, dk, 0)
        contrib = contrib * n_t
    return contrib, np.where(u == 0, n_y * n_z, 0)


# ---------------------------------------------------------------------------
# tableless digit-matrix engine for the degree-6 Ree extension


class _DigitField:
    """GF(3^k) on digit matrices, for fields too large for exp/log tables."""

    def __init__(self, field: FieldSpec):
        self.field = field
        self.k = k = field.k
        self.frob = self._frobenius_matrix()
        # row j: digits of x^(k+j) mod the modulus, folding product column k+j
        x = field.gen.code
        self.fold = np.array(
            [_code_to_digits(field.pow(x, k + j), k, 3) for j in range(k - 1)], dtype=np.int16
        ).reshape(k - 1, k)

    def _frobenius_matrix(self):
        f, k = self.field, self.k
        mat = np.zeros((k, k), dtype=np.int64)
        for i in range(k):
            xi = f.pow(f.gen.code, 3 * i)  # (x^i)^3 mod modulus
            mat[:, i] = _code_to_digits(xi, k, 3)
        return mat

    def matpow(self, mat, e):
        out = np.eye(self.k, dtype=np.int64)
        base = mat.copy()
        while e:
            if e & 1:
                out = (out @ base) % 3
            base = (base @ base) % 3
            e >>= 1
        return out

    def apply(self, mat, D):
        return (D @ mat.T) % 3

    def mul(self, A, B):
        # product columns stay unreduced until one fold: entries reach at most
        # 4k before it and 4k(2k-1) after, within int16 for k <= 18
        k = self.k
        A, B = A.astype(np.int16, copy=False), B.astype(np.int16, copy=False)
        C = np.zeros((A.shape[0], 2 * k - 1), dtype=np.int16)
        for i in range(k):
            C[:, i : i + k] += A[:, i : i + 1] * B
        return (C[:, :k] + C[:, k:] @ self.fold) % 3

    def power(self, D, e):
        result = np.zeros_like(D)
        result[:, 0] = 1
        base = D % 3
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


def _ree_long_chunk(df: _DigitField, params: CurveParams, x, with_t: bool):
    k = df.k
    q, m = params.q, params.m
    D = _digits(x, k)
    Fq = df.matpow(df.frob, 2 * params.s + 1)  # x -> x^q
    Dq = df.apply(Fq, D)
    U = (Dq - D) % 3
    Dq0 = df.apply(df.matpow(df.frob, params.s), D)  # x -> x^q0
    T1 = df.mul(Dq0, U)
    T2 = df.mul(Dq0, T1)
    # Tr to GF(q) as one digit matrix: sum of Fq powers
    TR = np.zeros((k, k), dtype=np.int64)
    P = np.eye(k, dtype=np.int64)
    for _ in range(k // (2 * params.s + 1)):
        TR = (TR + P) % 3
        P = (Fq @ P) % 3
    tr1 = (T1 @ TR.T) % 3
    tr2 = (T2 @ TR.T) % 3
    n_y = np.where((tr1 == 0).all(axis=1), q, 0).astype(np.int64)
    n_z = np.where((tr2 == 0).all(axis=1), q, 0).astype(np.int64)
    u_zero = (U == 0).all(axis=1)
    contrib = n_y * n_z
    if with_t:
        # the power-residue test dominates the cost; run it only where the
        # trace conditions leave a nonzero fibre
        dk = math.gcd(m, 3**k - 1)
        live = (contrib != 0) & ~u_zero
        P = df.power(U[live], (3**k - 1) // dk)
        n_t = np.ones_like(contrib)
        n_t[live] = np.where((P[:, 0] == 1) & (P[:, 1:] == 0).all(axis=1), dk, 0)
        contrib = contrib * n_t
    return contrib, np.where(u_zero, n_y * n_z, 0)


# ---------------------------------------------------------------------------


def _prepare(family: Family | str, params: CurveParams, r: int, modulus):
    """Resolve the family, check support, and bind the kernel for the field."""
    family = Family(family)
    if params.family is not family:
        params = params_from_s(family, params.s)
    _check_supported(family, params, r)
    field = make_field(family.char, (2 * params.s + 1) * r, modulus)
    with_t = family.is_cover
    if field.order <= TABLE_LIMIT:
        field.tables()
        chunk = _suzuki_chunk if field.p == 2 else _ree_chunk

        def kernel(x):
            return chunk(field, params, x, with_t)

    else:
        if field.p == 2:
            raise UnsupportedCountError("no tableless kernel for characteristic 2")
        df = _DigitField(field)

        def kernel(x):
            return _ree_long_chunk(df, params, x, with_t)

    return family, params, field, kernel


def _orbit_codes(field: FieldSpec, q: int, r: int) -> np.ndarray:
    """Code 0, then one x_P per point P of P^{r-2}(F_q)."""
    p, k = field.p, field.k
    powers = p ** np.arange(k, dtype=np.int64)
    sub = field.subfield_codes(k // r)
    reps = [np.zeros((1, k), dtype=np.int8)]
    span = reps[0]  # every sum of c_i g^i over 1 <= i < j
    for j in range(1, r):
        gj = field.pow(field.gen.code, j)
        reps.append((span + np.array(_code_to_digits(gj, k, p), dtype=np.int8)) % p)
        if j < r - 1:
            line = _digits(np.array([field.mul(c, gj) for c in sub]), k, p).astype(np.int8)
            span = ((span[:, None, :] + line[None, :, :]) % p).reshape(-1, k)
    return np.concatenate(reps) @ powers


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
    t_start = time.perf_counter()
    codes = _orbit_codes(field, params.q, r)
    jobs = [codes[lo : lo + CHUNK] for lo in range(0, len(codes), CHUNK)]
    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(kernel, jobs))
    else:
        results = [kernel(job) for job in jobs]
    f = np.concatenate([c for c, _ in results])
    q = params.q
    n_points = 1 + q * int(f[0]) + q * (q - 1) * int(f[1:].sum())
    t0_affine = q * int(results[0][1][0])  # t = 0 needs x in F_q, the orbit of 0

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
    return CountReport(
        family=family,
        params=params,
        r=r,
        ell=ell,
        n_points=n_points,
        hw_target=target,
        is_maximal=is_max,
        note=note,
        wall_time=time.perf_counter() - t_start,
        modulus=field.modulus,
        t0_affine=t0_affine,
        elements_evaluated=len(codes),
    )


def verify_maximal(family: Family | str, params: CurveParams, r: int, **kw) -> bool:
    return count_points(family, params, r, **kw).is_maximal
