"""Exact arithmetic in GF(2^k) (k <= 20) and GF(3^k) (k <= 18).

Elements are stored as integer codes: the little-endian base-p expansion of a
code gives the coefficient vector in the residue basis {1, x, ..., x^(k-1)}.
Code order therefore coincides with lexicographic order on coefficient
vectors, which is the iteration order used by every exhaustive loop here.

FieldSpec does arithmetic on single codes and, through its v* methods, on
int64 arrays of codes.  The array layer adds in characteristic 3 on the codes
themselves, on every field, through the tritwise sums of 5-trit chunks.  It
multiplies through int32 exp/log tables up to TABLE_LIMIT (8.4 MB for both
on F_{2^20}), and only beyond it on digit arrays, whose product folds its
high rows into the low ones through the modulus itself; there a power is
Frobenius steps times such products.  Each GF(p)-linear map
(Frobenius, traces, the index map of vspan, multiplication by a constant)
is kept as the codes of its images of x^0, ..., x^(k-1), from which one
builder makes two lookup tables, one for each half of a code.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Sequence

import numpy as np

SUPPORTED_DEGREES = {2: 20, 3: 18}

# Fields up to this order get exp/log tables, and their array arithmetic
# runs through them; larger fields run it on digit arrays.
TABLE_LIMIT = 1 << 21

# The table build maps at most this many codes per step, which keeps its
# temporaries, and so the peak memory of a count, small.
TABLE_CHUNK = 1 << 16

# Characteristic-3 addition splits codes into chunks of TRITS base-3 digits:
# 3^5 = 243 chunk codes fit a byte, and the tables over pairs of chunks,
# 3^10 bytes each, stay in cache.
TRITS = 5
TRIT_CHUNK = 3**TRITS


class FieldError(ValueError):
    pass


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), little-endian coefficient tuples


def _poly_trim(a: Sequence[int]) -> tuple[int, ...]:
    a = tuple(a)
    n = len(a)
    while n > 0 and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _poly_sub(a, b, p):
    n = max(len(a), len(b))
    return _poly_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, f, p):
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) - 1 >= df and _poly_trim(a):
        a = list(_poly_trim(a))
        if len(a) - 1 < df:
            break
        shift = len(a) - 1 - df
        factor = (a[-1] * inv_lead) % p
        for i, fi in enumerate(f):
            a[shift + i] = (a[shift + i] - factor * fi) % p
    return _poly_trim(a)


def _poly_mulmod(a, b, f, p):
    return _poly_mod(_poly_mul(a, b, p), f, p)


def _poly_powmod(a, e, f, p):
    result = (1,)
    base = _poly_mod(a, f, p)
    while e > 0:
        if e & 1:
            result = _poly_mulmod(result, base, f, p)
        base = _poly_mulmod(base, base, f, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_mod(a, b, p)
    if a:
        inv_lead = pow(a[-1], p - 2, p)
        a = tuple((c * inv_lead) % p for c in a)
    return a


def is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Monic-degree-k irreducibility: x^(p^k) = x mod f, and for every proper
    divisor d of k, gcd(x^(p^d) - x, f) = 1."""
    f = _poly_trim(modulus)
    k = len(f) - 1
    if k < 1 or f[-1] != 1:
        return False
    if k == 1:
        return True
    x = (0, 1)
    t = x
    for d in range(1, k + 1):
        t = _poly_powmod(t, p, f, p)   # t = x^(p^d) mod f
        if d < k and k % d == 0:
            g = _poly_gcd(_poly_sub(t, x, p), f, p)
            if len(g) - 1 != 0:
                return False
    return _poly_sub(t, x, p) == ()


# Miller-Rabin to the 13 prime bases up to 41 is deterministic below
# MR_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster, 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981

# _factorize divides out the primes below this bound one by one, and splits
# what is left by Pollard's rho.
TRIAL_BOUND = 1 << 8


class FactorizationError(ValueError):
    """A factor passed every Miller-Rabin base at or above MR_BOUND, where
    that proves nothing: no factorization is given rather than an unproven
    one."""


def _is_prime(n: int) -> bool:
    """Whether n, odd and prime to every base, is prime: Miller-Rabin to
    MR_BASES, which proves a composite n composite on any size, and a prime
    n prime only below MR_BOUND."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MR_BOUND:
        raise FactorizationError(f"{n} passes Miller-Rabin to bases up to 41, a proof only below {MR_BOUND}")
    return True


def _rho(n: int) -> int:
    """A proper factor of the odd composite n: Pollard's rho on
    y -> y^2 + c with Brent's cycle search, the gcds batched over up to 128
    steps; a batch that overshoots to n is stepped through again one by one,
    and a cycle with no proper factor moves on to the next c."""
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            done = 0
            while done < r and g == 1:
                ys, prod = y, 1
                for _ in range(min(128, r - done)):
                    y = (y * y + c) % n
                    prod = prod * abs(x - y) % n
                g = math.gcd(prod, n)
                done += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factorize(n: int) -> dict[int, int]:
    """{prime: exponent} of n >= 1 in ascending primes ({} for n < 2): trial
    division below TRIAL_BOUND, then Miller-Rabin and Pollard's rho on what
    is left.  Raises FactorizationError if a factor cannot be proven prime."""
    out: dict[int, int] = {}
    d = 2
    while d < TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < TRIAL_BOUND * TRIAL_BOUND or _is_prime(m):  # no factor below TRIAL_BOUND
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            stack += [d, m // d]
    return dict(sorted(out.items()))


@lru_cache(maxsize=None)
def _trit_tables() -> tuple[np.ndarray, np.ndarray]:
    """(SUM, DIFF), uint8: SUM[x * TRIT_CHUNK + y] and DIFF[x * TRIT_CHUNK + y]
    are the codes of the tritwise sum x + y and difference x - y of two
    chunk codes.  Built on the first characteristic-3 addition in a process,
    with no temporary larger than one table."""
    chunk = np.arange(TRIT_CHUNK)
    sums = np.zeros((TRIT_CHUNK, TRIT_CHUNK), dtype=np.uint8)
    diffs = np.zeros_like(sums)
    for i in range(TRITS):
        trit = (chunk // 3**i % 3).astype(np.uint8)
        sums += (trit[:, None] + trit) % 3 * np.uint8(3**i)
        diffs += (trit[:, None] + 2 * trit) % 3 * np.uint8(3**i)
    return sums.reshape(-1), diffs.reshape(-1)


# ---------------------------------------------------------------------------


def _code_to_digits(code: int, k: int, p: int) -> tuple[int, ...]:
    if p == 2:
        return tuple((code >> i) & 1 for i in range(k))
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return tuple(out)


def _digits_to_code(digits: Sequence[int], p: int) -> int:
    code = 0
    for d in reversed(digits):
        code = code * p + (d % p)
    return code


class FieldSpec:
    """A concrete GF(p^k) with a fixed monic irreducible modulus.

    Immutable after construction; the lazily built exp/log tables and half
    tables (Frobenius, traces, vspan) are read-only caches, so instances are
    safe to share across threads once precompute(d) has built those that a
    count at subfield degree d reads.
    """

    def __init__(self, p: int, k: int, modulus: Sequence[int]):
        if p not in SUPPORTED_DEGREES:
            raise FieldError(f"unsupported characteristic {p}")
        if not 1 <= k <= SUPPORTED_DEGREES[p]:
            raise FieldError(f"unsupported degree {k} for p={p}")
        mod = _poly_trim(modulus)
        if len(mod) - 1 != k or mod[-1] != 1:
            raise FieldError("modulus must be monic of degree k")
        if not is_irreducible(mod, p):
            raise FieldError(f"modulus {mod} is reducible over GF({p})")
        self.p = p
        self.k = k
        self.modulus = mod
        self.order = p**k
        self.gen = p if k > 1 else (-mod[0]) % p  # the code of the residue class of x
        self._mod_int = _digits_to_code(mod, p) if p == 2 else None
        self._tables: tuple[np.ndarray, np.ndarray] | None = None
        self._generator_code: int | None = None
        self._frobenius: tuple[np.ndarray, np.ndarray] | None = None  # half tables of a -> a^p
        self._traces: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # d -> half tables of the trace
        self._spans: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # d -> half tables of vspan

    # -- scalar arithmetic on codes ------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        da, db = _code_to_digits(a, self.k, 3), _code_to_digits(b, self.k, 3)
        return _digits_to_code([x + y for x, y in zip(da, db)], 3)

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        da, db = _code_to_digits(a, self.k, 3), _code_to_digits(b, self.k, 3)
        return _digits_to_code([x - y for x, y in zip(da, db)], 3)

    def mul(self, a: int, b: int) -> int:
        if self.p == 2:
            return self._mul2(a, b)
        pa = _poly_trim(_code_to_digits(a, self.k, 3))
        pb = _poly_trim(_code_to_digits(b, self.k, 3))
        prod = _poly_mod(_poly_mul(pa, pb, 3), self.modulus, 3)
        return _digits_to_code(list(prod) + [0] * (self.k - len(prod)), 3)

    def _mul2(self, a: int, b: int) -> int:
        k, mod = self.k, self._mod_int
        top = 1 << k
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mod
        return r

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return self.pow(self.inv(a), -n)
        if a == 0:
            return 0 if n else 1
        n %= self.order - 1
        result, base = 1, a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.pow(a, self.order - 2)

    def frobenius(self, a: int, j: int = 1) -> int:
        return self.pow(a, self.p**j)

    # -- array arithmetic on int64 code arrays -------------------------
    #
    # The operands of vadd, vsub and vmul broadcast; either may be one scalar
    # code.  In characteristic 3, vadd and vsub work on codes on every field,
    # chunk by chunk through _trit_tables.  Fields up to TABLE_LIMIT multiply
    # through the exp/log tables.  Only products in larger ones work on digit
    # arrays: uint8, with the k base-p digits of each code along a new first
    # axis, so every step acts on whole rows.  Powers there are Frobenius
    # steps times products.

    def vadd(self, a, b) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self._tritwise(_trit_tables()[0], a, b)

    def vsub(self, a, b) -> np.ndarray:
        if self.p == 2:
            return np.bitwise_xor(a, b)
        return self._tritwise(_trit_tables()[1], a, b)

    def _tritwise(self, table: np.ndarray, a, b) -> np.ndarray:
        """table, SUM or DIFF of _trit_tables, on each pair of TRITS-digit
        chunks of the codes a and b: the chunks are peeled off from the
        bottom, and the result is put together from the top, in int64 (a
        uint8 entry times a scale beyond 255 would wrap)."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        pairs = []
        for _ in range((self.k - 1) // TRITS):
            a, x = np.divmod(a, TRIT_CHUNK)
            b, y = np.divmod(b, TRIT_CHUNK)
            pairs.append(x * TRIT_CHUNK + y)
        out = table[a * TRIT_CHUNK + b].astype(np.int64)  # the top chunk
        for pair in reversed(pairs):
            out *= TRIT_CHUNK
            out += table[pair]
        return out

    def vmul(self, a, b) -> np.ndarray:
        """a b elementwise, as int64 codes."""
        a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
        if self.order > TABLE_LIMIT:
            # the schoolbook product of the digit arrays; its rows 2k - 2 down
            # to k, each reduced mod p just before, fold into the k rows below
            # through x^k = -(f_0 + f_1 x + ... + f_(k-1) x^(k-1))
            a, b = np.broadcast_arrays(a, b)
            A, B, k, p = self._digits(a), self._digits(b), self.k, self.p
            C = np.zeros((2 * k - 1,) + a.shape, dtype=np.uint8)
            for i in range(k):
                C[i : i + k] += A[i] * B
            low = [-f % p for f in self.modulus[:k]]
            for j in range(2 * k - 2, k - 1, -1):
                C[j] %= p
                for i, c in enumerate(low):
                    if c:
                        C[j - k + i] += c * C[j]
            return self._codes(C[:k])
        exp, log = self.tables()
        # log[a] + log[b] lies in [-2, 2n - 2], within int32, so the wrap
        # takes one step; the entries it reads for a zero operand are then
        # set to 0 in the int64 copy of the gather (a mask assignment, which
        # is faster than an np.where that also widens; the take method skips
        # the np.take wrapper, which costs a microsecond on small arrays)
        out = np.asarray(exp.take(log[a] + log[b], mode="wrap"), dtype=np.int64)
        out[(a == 0) | (b == 0)] = 0
        return out

    def vpow(self, a, e: int) -> np.ndarray:
        """a^e elementwise as int64 codes, with 0^0 = 1; e < 0 needs every
        entry nonzero.  Up to TABLE_LIMIT a gather from the exp/log tables;
        beyond it, for r = e mod (order - 1), one Frobenius step per base-p
        digit position of r and one vmul per unit of a digit, so a^(p^j)
        takes j steps and no product."""
        a = np.asarray(a, dtype=np.int64)
        zero = a == 0
        if e < 0 and zero.any():
            raise ZeroDivisionError("inverse of zero")
        n = self.order - 1
        r = e % n
        if self.order <= TABLE_LIMIT:
            exp, log = self.tables()
            # log[a] r reaches n^2 > 2^31: the product is taken in int64, and
            # reduced in place (np.take's wrap mode would reduce by repeated
            # subtraction)
            idx = np.multiply(log[a], r, dtype=np.int64)
            idx %= n
            out = np.asarray(exp[idx], dtype=np.int64)
        else:
            out, conjugate = None, a  # conjugate = a^(p^i) at digit position i
            while r:
                r, digit = divmod(r, self.p)
                for _ in range(digit):
                    out = conjugate if out is None else self.vmul(out, conjugate)
                if r:
                    conjugate = self._half_lookup(self._frobenius_tables(), conjugate)
            # a fresh array, as it is written below
            out = np.ones_like(a) if out is None else np.array(out)
        out[zero] = 0 if e else 1
        return out

    def vtrace(self, a, d: int) -> np.ndarray:
        """The trace of each entry down to GF(p^d): the sum of its conjugates
        a^(p^(d j)), applied as one GF(p)-linear map through half tables.
        The trace to the field itself is the identity, and reads no table."""
        self._check_subfield(d)
        if d == self.k:
            return np.asarray(a, dtype=np.int64)
        return self._half_lookup(self._trace_tables(d), a)

    def vspan(self, n, d: int) -> np.ndarray:
        """x_n for each index 0 <= n < p^(k-d): the sum of n_((i-1) d + l) b_l x^i
        over 1 <= i < k/d and l < d, where n_j is the j-th base-p digit of n
        and b_l = w^l, for the generator w of GF(p^d)^* that subfield_codes
        lists, is a GF(p)-basis of GF(p^d) with b_0 = 1.

        So n runs through the GF(p^d)-span of x, ..., x^(k/d - 1), and the
        n in [p^(d (j-1)), 2 p^(d (j-1))) are the sums of c_i x^i with c_j = 1
        and c_i = 0 beyond j.  One GF(p)-linear map, through half tables.
        At d = k the only index is 0 and x_0 = 0: zeros, read from no table."""
        self._check_subfield(d)
        if d == self.k:
            return np.zeros(np.shape(n), dtype=np.int64)
        return self._half_lookup(self._span_tables(d), n)

    def _check_subfield(self, d: int) -> None:
        if self.k % d != 0:
            raise FieldError(f"{d} does not divide {self.k}")

    # -- GF(p)-linear maps -----------------------------------------------

    def _half_tables(self, cols) -> tuple[np.ndarray, np.ndarray]:
        """The GF(p)-linear map whose columns, the codes of its images of x^0,
        ..., x^(k-1), are cols, as two lookup tables: the image of each code
        of the low h = ceil(k/2) digits, from cols[:h], and of each code of
        the high k - h digits, from cols[h:].  Built digit by digit: the codes
        whose new digit is j are the table so far plus j times its column."""
        h = (self.k + 1) // 2
        out = []
        for part in (cols[:h], cols[h:]):
            table = np.zeros(1, dtype=np.int64)
            for col in part:
                blocks = [table]
                for _ in range(self.p - 1):
                    blocks.append(self.vadd(blocks[-1], col))
                table = np.concatenate(blocks)
            out.append(table)
        return out[0], out[1]

    def _half_lookup(self, tables: tuple[np.ndarray, np.ndarray], a) -> np.ndarray:
        """The map of _half_tables on codes: the images of both halves, added."""
        low, high = tables
        hi, lo = np.divmod(np.asarray(a, dtype=np.int64), len(low))
        return self.vadd(low[lo], high[hi])

    def _frobenius_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The half tables of a -> a^p: its columns are the codes of x^(i p).
        Read by vpow past TABLE_LIMIT only."""
        if self._frobenius is None:
            self._frobenius = self._half_tables([self.pow(self.p**i, self.p) for i in range(self.k)])
        return self._frobenius

    def _trace_tables(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The half tables of the trace to GF(p^d), d | k: its columns are the
        sums of the conjugates (x^i)^(p^(d j)) of the basis, formed by vpow."""
        if d not in self._traces:
            conjugate = total = self.p ** np.arange(self.k, dtype=np.int64)
            for _ in range(self.k // d - 1):
                conjugate = self.vpow(conjugate, self.p**d)
                total = self.vadd(total, conjugate)
            self._traces[d] = self._half_tables(total)
        return self._traces[d]

    def _span_tables(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """The half tables of vspan at d: column (i-1) d + l holds b_l x^i,
        with b_l = w^l for the generator w of GF(p^d)^* of subfield_codes,
        and the last d columns are zero."""
        if d not in self._spans:
            e = (self.order - 1) // (self.p**d - 1)  # w = g^e
            basis = [self.pow(self.generator_code(), e * l) for l in range(d)]
            cols = [self.mul(b, self.p**i) for i in range(1, self.k // d) for b in basis]
            self._spans[d] = self._half_tables(cols + [0] * d)
        return self._spans[d]

    # -- digit arrays ----------------------------------------------------
    #
    # A reduced digit array holds values up to p - 1.  Unreduced ones stay
    # below 256: a row of vmul's product takes at most k digit products and
    # k - 1 folds of reduced rows, each at most (p - 1)^2, so it holds at
    # most (p - 1)^2 (2k - 1), which is 140 on F_{3^18} and 236 on F_{3^30}.
    # So a digit array of p = 3 needs k <= 32.

    def _digits(self, a) -> np.ndarray:
        """Digits of codes, shape (k,) + a.shape, by repeated floor division
        by p: each digit is the code less p times its quotient."""
        a = np.asarray(a, dtype=np.int64)
        out = np.empty((self.k,) + a.shape, dtype=np.uint8)
        for i in range(self.k):
            quotient = a // self.p
            out[i] = a - quotient * self.p
            a = quotient
        return out

    def _codes(self, digits: np.ndarray) -> np.ndarray:
        """Codes of digit arrays, reducing each digit mod p first: Horner's
        rule from the top row."""
        out = (digits[-1] % self.p).astype(np.int64)
        for row in digits[-2::-1]:
            out *= self.p
            out += row % self.p
        return out

    # -- multiplicative structure ----------------------------------------

    def generator_code(self) -> int:
        """Code of a fixed generator of the multiplicative group."""
        if self._generator_code is None:
            factors = list(_factorize(self.order - 1))
            for cand in range(1, self.order):
                if all(self.pow(cand, (self.order - 1) // f) != 1 for f in factors):
                    self._generator_code = cand
                    break
            else:  # pragma: no cover
                raise FieldError("no generator found (impossible)")
        return self._generator_code

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log): exp[i] = g^i for 0 <= i < order-1, log[exp[i]] = i.

        log[0] is set to -1 and must never be used as an exponent.  Both are
        int32, as every code and exponent lies below TABLE_LIMIT < 2^31: on
        F_{2^20}, the largest table field, they take 8.4 MB together.  The
        v* methods gather from them and return int64 codes.

        exp is built by block doubling, exp[b:2b] = exp[:b] * g^b, for any
        characteristic and any generator g.  Multiplication by the constant
        g^b is GF(p)-linear, with the columns g^b x^i, and runs through their
        _half_tables.  The columns start as g x^i, and each step maps them
        through its own tables, g^(2b) x^i = g^b (g^b x^i).  Each block, and
        its entries of log, go through in chunks of at most TABLE_CHUNK
        codes, which bounds the temporaries.
        """
        if self.order > TABLE_LIMIT:
            raise FieldError(f"field of order {self.order} too large for tables")
        if self._tables is None:
            n = self.order - 1
            cols = [self.mul(self.generator_code(), self.p**i) for i in range(self.k)]
            exp = np.empty(n, dtype=np.int32)
            log = np.full(self.order, -1, dtype=np.int32)
            exp[0], log[1] = 1, 0
            b = 1
            while b < n:
                half_tables = self._half_tables(cols)
                end = min(2 * b, n)
                for start in range(b, end, TABLE_CHUNK):
                    block = self._half_lookup(half_tables, exp[start - b : min(start + TABLE_CHUNK, end) - b])
                    exp[start : start + len(block)] = block
                    log[block] = np.arange(start, start + len(block), dtype=np.int32)
                cols = self._half_lookup(half_tables, cols)
                b = end
            self._tables = (exp, log)
        return self._tables

    def precompute(self, d: int) -> None:
        """Build the lazy caches that a count at subfield degree d reads: in
        characteristic 3 the chunk sum tables, the exp/log tables up to
        TABLE_LIMIT and beyond it the Frobenius tables of vpow (vmul reads no
        table there), then the half tables of vtrace at d, whose conjugates
        vpow forms, and of vspan at d (neither at d = k).
        Afterwards threads running that count share the field, and the chunk
        sum tables, read-only."""
        self._check_subfield(d)
        if self.p == 3:
            _trit_tables()
        if self.order <= TABLE_LIMIT:
            self.tables()
        else:
            self._frobenius_tables()
        if d < self.k:
            self._trace_tables(d)
            self._span_tables(d)

    def subfield_codes(self, d: int) -> list[int]:
        """All codes fixed by the d-th Frobenius power, i.e. GF(p^d): 0 and
        the powers of a generator w of GF(p^d)^*, the first 2b of them taken
        as the first b and their products with w^b."""
        self._check_subfield(d)
        sub = self.p**d - 1
        w = self.pow(self.generator_code(), (self.order - 1) // sub)  # generates GF(p^d)^*
        powers = np.ones(1, dtype=np.int64)
        while len(powers) < sub:
            powers = np.concatenate([powers, self.vmul(powers, self.pow(w, len(powers)))])
        return sorted([0, *powers[:sub].tolist()])

    def __repr__(self):
        return f"FieldSpec(GF({self.p}^{self.k}), modulus={self.modulus})"


@lru_cache(maxsize=None)
def default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Fixed modulus for GF(p^k): the monic irreducible of degree k with the
    smallest coefficient code among those whose root x generates the
    multiplicative group.  Deterministic, so all counts are reproducible."""
    if p not in SUPPORTED_DEGREES or not 1 <= k <= SUPPORTED_DEGREES[p]:
        raise FieldError(f"unsupported field GF({p}^{k})")
    factors = list(_factorize(p**k - 1))
    for code in range(p**k):
        try:
            field = FieldSpec(p, k, _code_to_digits(code, k, p) + (1,))
        except FieldError:  # reducible
            continue
        x = field.gen
        if x != 0 and all(field.pow(x, (p**k - 1) // f) != 1 for f in factors):
            return field.modulus
    raise FieldError(f"no primitive modulus for GF({p}^{k})")  # pragma: no cover


@lru_cache(maxsize=None)
def _cached_default_field(p: int, k: int) -> FieldSpec:
    return FieldSpec(p, k, default_modulus(p, k))


def make_field(p: int, k: int, modulus: Sequence[int] | None = None) -> FieldSpec:
    """Field context for GF(p^k); p in {2, 3}, k within supported range.

    With no modulus the fixed default for (p, k) is used, so repeated calls
    share one cached FieldSpec and its tables.
    """
    if modulus is None:
        return _cached_default_field(p, k)
    return FieldSpec(p, k, tuple(modulus))


def subfield_trace(field: FieldSpec, a: int, sub_degree: int) -> int:
    """Trace of the code a down to GF(p^sub_degree): the sum of its conjugates
    a^(p^(sub_degree*j)), one scalar Frobenius step at a time.  The reference
    that vtrace is tested against."""
    field._check_subfield(sub_degree)
    acc = cur = a
    for _ in range(field.k // sub_degree - 1):
        cur = field.frobenius(cur, sub_degree)
        acc = field.add(acc, cur)
    return acc
