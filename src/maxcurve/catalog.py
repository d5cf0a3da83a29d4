"""Quotient-genus catalog: every direct-product subgroup family H x C_n gets
a kind id, a displayed closed genus formula, and an independent genus via the
class-composition different degree plus Riemann-Hurwitz.

Each kind is defined once, and KINDS lists the 32 kinds in sweep order.  Its
sweep yields the args of H, and the sweep times the divisors n of m is its
parameter domain: a spec outside it is invalid.  Its class counts are the
class census of H minus the identity, so the class equation gives the order,
|H x C_n| = n (1 + sum of the counts), and the different degree is affine in
n apart from a gcd term (see _composition).  The 16 kinds whose H is C_r . C_f
inside the normalizer of a cyclic torus share one census and sweep
(_normalizer_kind); their factories state only the displayed formula.  The
11 involution kinds RE-C1..8 and RE-Q1..3, whose H is K or K<iota> for an
involution iota, share one coset rule (_involution_kind); each states only
the census of K, and RE-C2..5 share that too.  SZ-E and RE-S, whose H is the
Suzuki or Ree group over a subfield, share one subfield rule
(_subfield_kind) that places its two Singer tori; each states only the
census outside them.  SZ-B2, SZ-B3 and RE-B state their census by hand.

A spec is a QuotientSpec and its result a GenusRecord, both immutable,
hashable named tuples.  Both genus paths of an H are forms of five integers
(top, slope, c, d, den), whose value at n is (top + slope n - c gcd(d, n)) /
(den n).  A sweep computes 2g - 2, the class table (ramification.class_table)
and the divisors n of m once.  Per H it makes one pass over the class census
for the composition form (_composition) and tests Riemann-Hurwitz
integrality on it inline for each n; most specs fail.  Only an H with a
valid n gets its certificate, sorted args and display form, and only a
valid spec a spec and a record.  The sweep keeps records only: the specs
swept are the H swept times the divisors of m, and SpectrumResult.invalid
sweeps again, on first read, for the (spec, reason) rows of the rejected.

Dual-path policy: the composition path is authoritative.  A kind's
closed(params, H args) returns its display's form, so what depends on H
alone (the powers of q, 2^u and 3^u, the subfield branch, a census) is
computed once per H.  The verbatim displays live in the tests.  Where a
display disagrees with its own class assembly the kind carries a
known-mismatch note and the composition value is adopted (the bundled
reference genera confirm the composition side in every such case).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import gcd
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple

from .curves import CurveParams, Family, genus, params_from_s, require, resolve_curve
from .gf import _factorize
from .ramification import ClassTable, census_different, class_table, solve_rh


def divisors(n: int) -> list[int]:
    """Positive divisors of n in ascending order (none for n < 1), as a fresh
    list."""
    return list(_divisor_tuple(n))


@lru_cache(maxsize=1024)
def _divisor_tuple(n: int) -> tuple[int, ...]:
    """The divisors of n, generated from its prime factorization."""
    if n < 1:
        return ()
    out = [1]
    for prime, e in _factorize(n).items():
        out = [d * prime**i for d in out for i in range(e + 1)]
    return tuple(sorted(out))


def _two_g_minus_2(params: CurveParams) -> int:
    return 2 * genus(params) - 2


class QuotientSpec(NamedTuple):
    kind: str
    params: CurveParams
    args: tuple[tuple[str, int], ...]

    @property
    def arg_dict(self) -> dict[str, int]:
        return dict(self.args)

    @staticmethod
    def make(kind: str, params: CurveParams, **args: int) -> "QuotientSpec":
        return QuotientSpec(kind, params, tuple(sorted(args.items())))


@dataclass(frozen=True)
class Validation:
    valid: bool
    existence_certified: bool
    reason: str


class GenusRecord(NamedTuple):
    spec: QuotientSpec
    order: int
    delta: int
    genus_delta: int
    genus_closed: int | None
    certified: bool
    mismatch: bool
    note: str

    @property
    def genus(self) -> int:
        return self.genus_delta


@dataclass(frozen=True)
class KindDef:
    id: str
    char: int
    # H args -> (class census of H minus the identity, (c, d)): H x C_n has
    # c (gcd(d, n) - 1) special (sigma, tau^j) pairs
    counts: Callable
    closed: Callable            # H args -> the displayed formula's form (top, slope, c, d, den), den > 0
    certified: Callable         # H args -> (bool, reason)
    sweep: Callable             # params -> iterator of H arg dicts
    known_mismatch: str | None = None


NO_SPECIAL_PAIRS = (0, 1)


def _normalizer_kind(kid: str, char: int, torus: str, rs: Callable, factor: int, closed: Callable,
                     reason: str, known_mismatch: str | None = None) -> KindDef:
    """The kind whose H is C_r . C_f inside the normalizer of a cyclic torus,
    for r in rs(params): r - 1 torus elements, r involutions for even f, and
    2r elements of order 4 (f = 4), 3 (3 | f) or 6 (f = 6), so that
    |H| = r f.  Only the order-m torus has special pairs, (1, r)."""
    def counts(cp, a):
        r = a["r"]
        census = {torus: r - 1}
        if factor % 2 == 0:
            census["order2"] = r
        if factor == 4:
            census["order4"] = 2 * r
        if factor % 3 == 0:
            census["order3_noncentral"] = 2 * r
        if factor == 6:
            census["order6"] = 2 * r
        return census, (1, r) if torus == "div_m_plain" else NO_SPECIAL_PAIRS

    def sweep(cp):
        for r in rs(cp):
            yield {"r": r}

    return KindDef(kid, char, counts, closed, lambda cp, a: (True, reason), sweep, known_mismatch)


def _involution_kind(kid: str, census: Callable, sweep: Callable, central: bool, closed: Callable,
                     reason: str, known_mismatch: str | None = None) -> KindDef:
    """The kind whose H is K (j = 1) or K<iota> (j = 2) for an involution
    iota, where census(cp, a) is the class census of K minus the identity.
    The coset K iota has one element over each element of K: an involution
    over 1 and over each involution, one of order 6 over each
    order3_noncentral element, and over a torus element one of the same
    torus class when iota centralizes K (central), an involution otherwise.
    So |H| = j |K|.  K has no other classes: a census key outside these
    raises KeyError."""
    def counts(cp, a):
        k = census(cp, a)
        extra = a["j"] - 1
        out = dict(k, order2=k.get("order2", 0) + extra)
        for cls, c in k.items():
            if cls.startswith("div_"):
                over = cls if central else "order2"
            else:
                over = {"order2": "order2", "order3_noncentral": "order6"}[cls]
            out[over] = out.get(over, 0) + extra * c
        return out, NO_SPECIAL_PAIRS

    return KindDef(kid, 3, counts, closed, lambda cp, a: (True, reason), sweep, known_mismatch)


def _subfield_branch(cp: CurveParams, shat: int) -> int:
    """Where the two Singer tori of G(q^) lie, q^ = p q^0^2 and q^0 = p^s^:
    0 if both lie in the (q+1)-tori, 1 if the minus torus lies in the
    order-m torus, 2 if the plus torus does.  Read off h = (2s+1)/(2s^+1)
    modulo 4p, 8 for Suzuki and 12 for Ree: h = +-1 gives 1, 3 | h (Ree
    only) gives 0, and the other residues (3, 5 resp. 5, 7) give 2.
    Cross-checked by direct divisibility."""
    p = cp.p
    qh0 = p**shat
    qh = p * qh0 * qh0
    h = (2 * cp.s + 1) // (2 * shat + 1)
    branch = 0 if h % p == 0 else 1 if h % (4 * p) in (1, 4 * p - 1) else 2
    plus = cp.q + p * cp.q0 + 1
    big_minus, big_plus = {0: (cp.q + 1, cp.q + 1), 1: (cp.m, plus), 2: (plus, cp.m)}[branch]
    ok = big_minus % (qh - p * qh0 + 1) == 0 and big_plus % (qh + p * qh0 + 1) == 0
    require(ok, f"{'Suzuki' if p == 2 else 'Ree'} subfield branch {branch} fails at s^ = {shat}")
    return branch


def _subfield_kind(kid: str, p: int, census: Callable, closed: Callable, sweep: Callable) -> KindDef:
    """The kind whose H is the Suzuki (p = 2) or Ree (p = 3) group G(q^)
    over a subfield, q^ = p q^0^2 and q^0 = p^s^.  census(q^) is |G(q^)| and
    its class census outside its two Singer tori.  The torus of order
    t = q^ -+ p q^0 + 1 has |G(q^)| / (2p t) conjugates, and their t - 1
    nonidentity elements each go to the class that _subfield_branch names;
    the one inside the order-m torus gives the special pairs (conjugates, t)."""
    plus_class = "div_q_plus_2q0_plus_1" if p == 2 else "div_q_plus_3q0_plus_1"

    def counts(cp, a):
        qh0 = p ** a["shat"]
        qh = p * qh0 * qh0
        order, out = census(qh)
        branch = _subfield_branch(cp, a["shat"])
        pairs = NO_SPECIAL_PAIRS
        for t, in_m in ((qh - p * qh0 + 1, branch == 1), (qh + p * qh0 + 1, branch == 2)):
            conjugates = order // (2 * p * t)
            cls = "div_q_plus_1" if branch == 0 else "div_m_plain" if in_m else plus_class
            out[cls] = out.get(cls, 0) + conjugates * (t - 1)
            if in_m:
                pairs = (conjugates, t)
        return out, pairs

    return KindDef(kid, p, counts, closed, lambda cp, a: (True, "subfield subgroup"), sweep)


# ---------------------------------------------------------------------------
# Suzuki kinds


def _mk_sz_b1():
    def closed(cp, h):
        q, den = cp.q, 2 * h["r"]
        top, slope = (q - 1) * (q * q + 1), -(q - 1) * (q + 1)
        return top, slope, 0, 1, den

    return _normalizer_kind("SZ-B1", 2, "div_q_minus_1", lambda cp: divisors(cp.q - 1), 1, closed,
                            "cyclic subgroup of a split torus")


def _mk_sz_b2():
    def counts(cp, a):
        u, v = a["u"], a["v"]
        return {"order2": (1 << u) - 1, "order4": (1 << v) - (1 << u)}, NO_SPECIAL_PAIRS

    def closed(cp, h):
        q, q0, m = cp.q, cp.q0, cp.m
        u, v = h["u"], h["v"]
        top = m * (q * q + 2 * q0 * q - (1 << (u + 1)) * q0 - (1 << v))
        slope, den = (1 << (v + 1)) - (1 << v) - q * q, 1 << (v + 1)
        return top, slope, 0, 1, den

    def certified(cp, a):
        s, u, v = cp.s, a["u"], a["v"]
        if not (v >= u >= 0 and v - u <= s and u <= 2 * s + 1):
            return False, "outside the certified parameter region"
        if v <= 2 * u and (v == u or (2 * s + 1) % (v - u) == 0):
            return True, "subfield-compatible 2-group"
        if (v - u) * (v - u + 1) <= 2 * u:
            return True, "small-defect 2-group"
        return False, "no existence certificate applies"

    def sweep(cp):
        s = cp.s
        for u in range(1, 2 * s + 1 + 1):
            # the squaring map forces v <= 2u; v stays within the wild part
            for v in range(u, min(2 * u, 2 * (2 * s + 1)) + 1):
                yield {"u": u, "v": v}

    return KindDef("SZ-B2", 2, counts, closed, certified, sweep)


def _mk_sz_b3():
    def counts(cp, a):
        u, v, r = a["u"], a["v"], a["r"]
        return {
            "order2": (1 << u) - 1,
            "order4": (1 << v) - (1 << u),
            "div_q_minus_1": (1 << v) * (r - 1),
        }, NO_SPECIAL_PAIRS

    def closed(cp, h):
        q, q0, m = cp.q, cp.q0, cp.m
        u, v = h["u"], h["v"]
        top = m * (q * q + 2 * q0 * q - (1 << (u + 1)) * q0 - (1 << v))
        slope = (1 << (v + 1)) - (1 << v) + 1 - m * (q + 2 * q0 + 1)
        den = (1 << (v + 1)) * h["r"]
        return top, slope, 0, 1, den

    def certified(cp, a):
        s, u, v, r = cp.s, a["u"], a["v"], a["r"]
        if not (v >= u >= 0 and v - u <= s and u <= 2 * s + 1):
            return False, "outside the certified parameter region"
        torus_cond = cp.q // (1 << u) - 1
        if torus_cond != 0 and torus_cond % a["r"] != 0:
            return False, "r must divide q/2^u - 1"
        if (1 << (v - u)) <= u + 1 or (v == u or (2 * s + 1) % (v - u) == 0):
            return True, "normalized 2-group with torus"
        return False, "no existence certificate applies"

    def sweep(cp):
        s = cp.s
        for u in range(1, 2 * s + 1 + 1):
            # the squaring map forces v <= 2u; v stays within the wild part
            for v in range(max(2, u), min(2 * u, 2 * (2 * s + 1)) + 1):
                for r in divisors(cp.q - 1):
                    if r == 1:
                        continue
                    yield {"u": u, "v": v, "r": r}

    return KindDef("SZ-B3", 2, counts, closed, certified, sweep)


def _mk_sz_b4():
    def closed(cp, h):
        q, q0, m, r = cp.q, cp.q0, cp.m, h["r"]
        top = m * (q * q + 2 * q0 * q - (r + 1) * (2 * q0 + 1))
        slope, den = r + 2 - m * (q + 2 * q0 + 1), 4 * r
        return top, slope, 0, 1, den

    return _normalizer_kind("SZ-B4", 2, "div_q_minus_1", lambda cp: divisors(cp.q - 1)[1:], 2, closed,
                            "dihedral over a split torus")


def _mk_sz_c(kid: str, factor: int):
    def closed(cp, h):
        q, q0, m, r = cp.q, cp.q0, cp.m, h["r"]
        den = 2 * factor * r
        top, slope = (q * q + 1) * (q - 1), den - (q * q + 1)
        if factor == 2:
            top, slope = top - r * m * (2 * q0 + 1), slope - r
        elif factor == 4:
            top, slope = top - r * m * (2 * q0 + 3), slope - 3 * r
        return top, slope, 0, 1, den

    return _normalizer_kind(kid, 2, "div_q_plus_2q0_plus_1", lambda cp: divisors(cp.q + 2 * cp.q0 + 1),
                            factor, closed, "inside a Singer normalizer")


def _mk_sz_d(kid: str, factor: int):
    def closed(cp, h):
        q, q0, m, r = cp.q, cp.q0, cp.m, h["r"]
        den, special = 2 * factor * r, 4 * m
        if factor == 1:
            top, slope = m * (q * q + 2 * q0 * q - 2 * q0 + 3), den - m * (q + 2 * q0 + 1)
        elif factor == 2:
            top, slope = q**3 - q * q + q - (2 * q0 + 1) * r * m + 4 * m - 1, 3 * r - q * q - 1
        else:
            top, slope = (q * q + 1) * (q - 1) - m * (2 * r * q0 + 3 * r - 4), 5 * r - q * q - 1
        return top, slope, special, r, den

    return _normalizer_kind(kid, 2, "div_m_plain", lambda cp: divisors(cp.m), factor, closed,
                            "inside the second Singer normalizer")


def _mk_sz_e():
    def census(qh):
        return qh * qh * (qh * qh + 1) * (qh - 1), {
            "order2": (qh * qh + 1) * (qh - 1),
            "order4": (qh * qh + 1) * (qh * qh - qh),
            "div_q_minus_1": qh * qh * (qh * qh + 1) * (qh - 2) // 2,
        }

    def closed(cp, h):
        q, m = cp.q, cp.m
        qh0 = 2 ** h["shat"]
        qh = 2 * qh0 * qh0
        dm, dp = qh - 2 * qh0 + 1, qh + 2 * qh0 + 1
        # the display is 1 + (2g - 2 - D) / (den n) with D = (n - 1)(q^2 + 1)
        # + (qh^2 + 1)(qh^2 (qh - 2) n + (qh - 1)(q^2 - m q + 1 + m qh + n qh
        # + n)) + special (gcd(period, n) - 1)
        period, other = (dm, dp) if _subfield_branch(cp, h["shat"]) == 1 else (dp, dm)
        special = qh * qh * other * (qh - 1) * m
        den = 2 * qh * qh * (qh * qh + 1) * (qh - 1)
        top = _two_g_minus_2(cp) + q * q + 1 - (qh * qh + 1) * (qh - 1) * (q * q - m * q + 1 + m * qh) + special
        slope = den - q * q - 1 - (qh * qh + 1) * (qh * qh * (qh - 2) + (qh - 1) * (qh + 1))
        return top, slope, special, period, den

    def sweep(cp):
        for shat in range(0, cp.s):
            if (2 * cp.s + 1) % (2 * shat + 1) == 0:
                yield {"shat": shat}

    return _subfield_kind("SZ-E", 2, census, closed, sweep)


# ---------------------------------------------------------------------------
# Ree kinds


def _mk_re_b():
    def counts(cp, a):
        u, v, w, r = a["u"], a["v"], a["w"], a["r"]
        base = {
            "order3_central": 3**u - 1,
            "order3_noncentral": 3**v - 3**u,
            "order9": 3**w - 3**v,
        }
        if r % 2 == 0:
            base["order2"] = 3 ** (w - v + u)
            base["order6"] = 3 ** (w - v + u) * (3 ** (v - u) - 1)
            base["div_q_minus_1"] = (r - 2) * 3**w
        else:
            base["div_q_minus_1"] = (r - 1) * 3**w
        return base, NO_SPECIAL_PAIRS

    def closed(cp, h):
        q, m = cp.q, cp.m
        u, v, w, r = h["u"], h["v"], h["w"], h["r"]
        three_v, three_w = 3**v, 3**w
        top = (q**4 - q**3 - (three_v - 1) * q * q + (m * (three_v - 3**u) + three_v) * q
               - three_w * m + three_v * (m - 1))
        slope = three_w - q**3
        if r % 2 == 0:
            # the displayed even-r correction 3^(w-v+u) n (q + 3^(v-u))
            slope += 3 ** (w - v + u) * (q + 3 ** (v - u))
        den = 2 * three_w * r
        return top, slope, 0, 1, den

    def certified(cp, a):
        u, v, w, r = a["u"], a["v"], a["w"], a["r"]
        s = cp.s
        if w == v >= u >= 0 and u <= 2 * s + 1 and v - u <= 2 * s + 1:
            g = gcd(3 ** (2 * s + 1) - 1, 3**u - 1)
            g = gcd(g, 3 ** (v - u) - 1)
            if g == 0 or g % r == 0:
                return True, "stabilizer subgroup from subfield data"
        return False, "no existence certificate applies"

    def sweep(cp):
        s = cp.s
        for u in range(0, 2 * s + 1 + 1):
            # the derived part bounds v - u by 2s+1
            for v in range(u, min(u + 2 * s + 1, 2 * (2 * s + 1)) + 1):
                # the cube map forces v <= w <= v+u
                for w in range(v, min(v + u, 3 * (2 * s + 1)) + 1):
                    if (u, v, w) == (0, 0, 0):
                        continue  # torus-only; covered by the centralizer kinds
                    for r in divisors(cp.q - 1):
                        yield {"u": u, "v": v, "w": w, "r": r}

    return KindDef(
        "RE-B", 3, counts, closed, certified, sweep,
        known_mismatch="displayed even-r correction disagrees with the proof's class assembly",
    )


def _mk_re_c1():
    def closed(cp, h):
        q, m = cp.q, cp.m
        three_v, j = 3 ** h["v"], h["j"]
        top = q**4 - q**3 - (three_v - 1) * q * q + (m * (three_v - 1) + three_v) * q - three_v
        slope, den = three_v * j - (j - 1) * q - q**3, 2 * j * three_v
        return top, slope, 0, 1, den

    return _involution_kind(
        "RE-C1", lambda cp, a: {"order3_noncentral": 3 ** a["v"] - 1},
        lambda cp: ({"v": v, "j": j} for v in range(1, 2 * cp.s + 1 + 1) for j in (1, 2)),
        True, closed, "elementary abelian in an involution centralizer")


def _mk_re_c_torus(kid: str, torus: str, dihedral: bool):
    """K is C_r, or D_r if dihedral, in the (q+1)- or (q-1)-torus of the
    involution centralizer, for r | (q+1)/2 resp. (q-1)/2."""
    plus = torus == "div_q_plus_1"

    def census(cp, a):
        r = a["r"]
        # an even r puts the torus involution in C_r; only the (q+1)-torus
        # has one, since every r | (q-1)/2 is odd
        inv = 1 - r % 2
        return {"order2": inv + (r if dihedral else 0), torus: r - 1 - inv}

    def closed(cp, h):
        q, r, j = cp.q, h["r"], h["j"]
        if plus and not dihedral:
            den = 2 * r * j
            top, slope = (q**3 + 1) * (q - 1), den - (q + 1) * (q * q - q + j * gcd(r, 2))
        elif not dihedral:
            top, slope, den = (q - 1) * (q**3 + 1), -(q - 1) * (q * q + q + j), 2 * r * j
        elif plus:
            den = 4 * r * j
            top, slope = (q**3 + 1) * (q - 1), den - (q + 1) * ((q - 1) * q + j * (r + gcd(r, 2)))
        else:
            top, slope, den = (q * q - 1) * (q * q - q + 1), -(q * q - 1) * q - j * (r + 1) * (q - 1), 4 * r * j
        return top, slope, 0, 1, den

    return _involution_kind(
        kid, census,
        lambda cp: ({"r": r, "j": j} for r in divisors((cp.q + 1 if plus else cp.q - 1) // 2) for j in (1, 2)),
        True, closed, f"{'dihedral' if dihedral else 'cyclic'} in an involution centralizer")


def _mk_re_c6():
    def closed(cp, h):
        q, q0, m, j = cp.q, cp.q0, cp.m, h["j"]
        top = m * ((q * q - 1) * (q + 3 * q0) + q * q - 9 - 24 * q0)
        den = 24 * j
        slope = den - 4 * j * (q + 3) - q * (q * q - 1)
        return top, slope, 0, 1, den

    return _involution_kind(
        "RE-C6", lambda cp, a: {"order2": 3, "order3_noncentral": 8}, lambda cp: ({"j": j} for j in (1, 2)),
        True, closed, "tetrahedral in an involution centralizer")


def _mk_re_c7():
    def census(cp, a):
        v, r = a["v"], a["r"]
        return {"order3_noncentral": 3**v - 1, "div_q_minus_1": 3**v * (r - 1)}

    def closed(cp, h):
        q, m = cp.q, cp.m
        three_v, r, j = 3 ** h["v"], h["r"], h["j"]
        top = q**4 - q**3 - (three_v - 1) * q * q + (three_v * m + three_v - m) * q - three_v * (4 * r - 3)
        den = 2 * j * three_v * r
        slope = den - q**3 + (1 - j) * q - three_v * (2 * j * r - j - 2 * r + 2)
        return top, slope, 0, 1, den

    def sweep(cp):
        for v in range(1, 2 * cp.s + 1 + 1):
            for r in divisors(gcd((cp.q - 1) // 2, 3**v - 1)):
                for j in (1, 2):
                    yield {"v": v, "r": r, "j": j}

    return _involution_kind(
        "RE-C7", census, sweep, True, closed, "3-group normalized by a torus",
        known_mismatch="displayed constant term differs from the class assembly by 2*3^v*(r-1)*(n-2)",
    )


def _mk_re_c8():
    def census(cp, a):
        qh = 3 ** a["d"]
        return {
            "order3_noncentral": qh * qh - 1,
            "div_q_minus_1": (qh * (qh + 1) // 2) * ((qh - 3) // 2),
            "order2": qh * (qh - 1) // 2,
            "div_q_plus_1": (qh * (qh - 1) // 2) * ((qh + 1) // 2 - 2),
        }

    def closed(cp, h):
        q, m = cp.q, cp.m
        qh, j = 3 ** h["d"], h["j"]
        top = 2 * (q**4 - q**3 - (qh * qh - 1) * q * q) + 2 * (qh * qh - m) * q - 2 * qh * qh
        den = 2 * j * qh * (qh * qh - 1)
        slope = den - 2 * q**3 - (qh * qh * (j - 2) - qh * j + 2 * (j - 1)) * q - qh * j * (qh * qh * (qh + 1) - 4)
        return top, slope, 0, 1, den

    return _involution_kind(
        "RE-C8", census, lambda cp: ({"d": d, "j": j} for d in divisors(2 * cp.s + 1) for j in (1, 2)),
        True, closed, "linear fractional subgroup of an involution centralizer",
        known_mismatch="displayed closed form is not integral at valid parameters; class assembly adopted",
    )


def _mk_re_p(kid: str, factor: int):
    def closed(cp, h):
        q, m, r = cp.q, cp.m, h["r"]
        den = 2 * factor * r
        if factor == 1:
            top, slope = (q**3 + 1) * (q - 1), den - q**3 - 1
        elif factor == 2:
            top, slope = (q**3 + 1) * (q - 1), den - q**3 - 1 - (q + 1) * r
        elif factor == 3:
            top = q**4 - q**3 - 2 * r * q * q + (2 * r * (m + 1) + 1) * q - 2 * r - 1
            slope = den - q**3 - 2 * r - 1
        else:
            top, slope = _two_g_minus_2(cp) - r * (2 * q * q - (2 * m + 2) * q + 2), den - r * (q + 5)
        return top, slope, 0, 1, den

    # the order-6r display's leading (q-2) should read (q-n-1): it disagrees
    # with its own class assembly for n > 1 while the parallel second-Singer
    # kind carries the (q-n-1) form
    mismatch = (
        "displayed leading term (q-2) should be (q-n-1) per the class assembly"
        if factor == 6
        else None
    )
    return _normalizer_kind(kid, 3, "div_q_plus_3q0_plus_1", lambda cp: divisors(cp.q + 3 * cp.q0 + 1),
                            factor, closed, "inside a Singer normalizer", mismatch)


def _mk_re_m(kid: str, factor: int):
    def closed(cp, h):
        q, m, r = cp.q, cp.m, h["r"]
        den, special = 2 * factor * r, 6 * m
        top, slope = (q**3 + 1) * (q - 1) + special, den - q**3 - 1
        if factor == 2:
            slope -= r * (q + 1)
        elif factor == 3:
            top, slope = top - 2 * r * (q * q - q + 1 - m * q), slope - 2 * r
        elif factor == 6:
            top, slope = top - r * (2 * q * q - (2 * m + 2) * q + 2), slope - r * (q + 5)
        return top, slope, special, r, den

    return _normalizer_kind(kid, 3, "div_m_plain", lambda cp: divisors(cp.m), factor, closed,
                            "inside the second Singer normalizer")


def _mk_re_q1():
    def census(cp, a):
        i, r = a["i"], a["r"]
        return {"order2": i - 1, "div_q_plus_1": i * (r - 1)}

    def closed(cp, h):
        q, i, j, r = cp.q, h["i"], h["j"], h["r"]
        den = 2 * i * j * r
        top, slope = (q**3 + 1) * (q - 1), den - q**3 - 1 - (q + 1) * (i * (j - 1) * r + i - 1)
        return top, slope, 0, 1, den

    def sweep(cp):
        for i in (1, 2, 4):
            for j in (1, 2):
                for r in divisors((cp.q + 1) // 4):
                    yield {"i": i, "j": j, "r": r}

    return _involution_kind("RE-Q1", census, sweep, False, closed, "inside the quartic-torus normalizer")


def _quartic_j_r(cp):
    """The sweep of RE-Q2 and RE-Q3: j, then r | (q+1)/4."""
    for j in (1, 2):
        for r in divisors((cp.q + 1) // 4):
            yield {"j": j, "r": r}


def _mk_re_q2():
    def census(cp, a):
        r = a["r"]
        return {"order2": 3, "order3_noncentral": 8 * r, "div_q_plus_1": 4 * (r - 1)}

    def closed(cp, h):
        q, q0, m, j, r = cp.q, cp.q0, cp.m, h["j"], h["r"]
        top = (q**3 + 1) * (q - 1) - 8 * r * m * (3 * q0 + 1)
        slope, den = 16 * j * r - q**3 - 1 - (q + 1) * (3 + 4 * (j - 1) * r), 24 * j * r
        return top, slope, 0, 1, den

    return _involution_kind("RE-Q2", census, _quartic_j_r, False, closed, "inside the quartic-torus normalizer")


def _mk_re_q3():
    def census(cp, a):
        r = a["r"]
        return {"order3_noncentral": 2 * r, "div_q_plus_1": r - 1}

    def closed(cp, h):
        q, q0, m, j, r = cp.q, cp.q0, cp.m, h["j"], h["r"]
        den = 6 * j * r
        top = (q**3 + 1) * (q - 1) - 2 * r * m * (3 * q0 + 1)
        slope = den - q**3 - 1 - (q + 1) * (j - 1) * r - 2 * j * r
        return top, slope, 0, 1, den

    return _involution_kind("RE-Q3", census, _quartic_j_r, False, closed, "inside the quartic-torus normalizer")


def _mk_re_s():
    def census(qh):
        return qh**3 * (qh**3 + 1) * (qh - 1), {
            "order2": qh * qh * (qh * qh - qh + 1),
            "order3_central": (qh**3 + 1) * (qh - 1),
            "order3_noncentral": (qh**3 + 1) * (qh * qh - qh),
            "order9": (qh**3 + 1) * (qh**3 - qh * qh),
            "order6": qh * qh * (qh * qh - qh + 1) * (qh + 1) * (qh - 1),
            "div_q_minus_1": (qh**3 + 1) * qh**3 // 2 * (qh - 3),
            # the (qh+1)-tori elements that are neither the identity nor an involution
            "div_q_plus_1": qh**3 * (qh * qh - qh + 1) * (qh - 1) // 6 * (qh - 3),
        }

    def closed(cp, h):
        # the statement's different degree is its own class assembly, so the
        # two paths coincide by construction
        return _composition(kind.counts(cp, h), class_table(cp), _two_g_minus_2(cp))

    def sweep(cp):
        for shat in range(0, cp.s):
            h, rem = divmod(2 * cp.s + 1, 2 * shat + 1)
            # the extension degree h must be prime
            if rem == 0 and _factorize(h) == {h: 1}:
                yield {"shat": shat}

    kind = _subfield_kind("RE-S", 3, census, closed, sweep)
    return kind


# ---------------------------------------------------------------------------
# the kinds in sweep order

KINDS: dict[str, KindDef] = {kind.id: kind for kind in (
    _mk_sz_b1(), _mk_sz_b2(), _mk_sz_b3(), _mk_sz_b4(),
    _mk_sz_c("SZ-C1", 1), _mk_sz_c("SZ-C2", 2), _mk_sz_c("SZ-C3", 4),
    _mk_sz_d("SZ-D1", 1), _mk_sz_d("SZ-D2", 2), _mk_sz_d("SZ-D3", 4),
    _mk_sz_e(),
    _mk_re_b(),
    _mk_re_c1(),
    _mk_re_c_torus("RE-C2", "div_q_plus_1", False), _mk_re_c_torus("RE-C3", "div_q_minus_1", False),
    _mk_re_c_torus("RE-C4", "div_q_plus_1", True), _mk_re_c_torus("RE-C5", "div_q_minus_1", True),
    _mk_re_c6(), _mk_re_c7(), _mk_re_c8(),
    _mk_re_p("RE-P1", 1), _mk_re_p("RE-P2", 2), _mk_re_p("RE-P3", 3), _mk_re_p("RE-P4", 6),
    _mk_re_m("RE-M1", 1), _mk_re_m("RE-M2", 2), _mk_re_m("RE-M3", 3), _mk_re_m("RE-M4", 6),
    _mk_re_q1(), _mk_re_q2(), _mk_re_q3(),
    _mk_re_s(),
)}


# ---------------------------------------------------------------------------
# evaluation


def _composition(counts, table: ClassTable, two_g_minus_2: int) -> tuple[int, int, int, int, int]:
    """H's composition form (top, slope, c, d, den), a display of its
    different-degree path (see KindDef.closed).  census_different gives |H|
    and the different degrees A of H, B of a coset H tau^k (k != 0) and C of
    H's special pairs, of period d: delta = A + (n - 1) B + (gcd(d, n) - 1) C.
    RH over |H x C_n| = n |H| gives the genus as the form's value num / (den n)
    with top = 2g - 2 - A + B + C, slope = 2 |H| - B and den = 2 |H|: (H, n)
    is valid when num >= 0 and den n | num, and its delta is 2g - 2 + den n - num."""
    census, (pairs, period) = counts
    size, plain, cross, special = census_different(census, pairs, table)
    return two_g_minus_2 - plain + cross + special, 2 * size - cross, special, period, 2 * size


def _assess(kind: KindDef, cp: CurveParams, h: dict, ns: Iterable[tuple[int, tuple[str, int]]],
            two_g_minus_2: int, table: ClassTable) -> list[GenusRecord]:
    """The records of the valid specs (H, n), (n, ("n", n)) in ns, in the
    order of ns; two_g_minus_2 and table are those of cp.  Only an H with a
    valid n gets its certificate, sorted args and display form (_rejections
    builds the rejected specs).  H must come from the kind's sweep and each
    n must divide m."""
    records: list[GenusRecord] = []
    top, slope, c, d, den = _composition(kind.counts(cp, h), table, two_g_minus_2)
    display = None
    for n, n_item in ns:
        dn = den * n
        # `c and` skips the gcd for an H without special pairs
        num = top + slope * n - (c and c * gcd(d, n))
        if num < 0 or num % dn:
            continue
        if display is None:
            # QuotientSpec.make(kind.id, cp, **h, n=n), sorted once per H
            args = sorted({**h, "n": 0}.items())
            n_at = args.index(("n", 0))
            certified = kind.certified(cp, h)[0]
            display = d_top, d_slope, d_c, d_d, d_den = kind.closed(cp, h)
        args[n_at] = n_item
        gd = num // dn
        g, rem = divmod(d_top + d_slope * n - (d_c and d_c * gcd(d_d, n)), d_den * n)
        gc = None if rem else g
        mismatch = gc != gd
        note = (kind.known_mismatch or "") if mismatch else ""
        # the NamedTuples without their Python-level __new__
        spec = tuple.__new__(QuotientSpec, (kind.id, cp, tuple(args)))
        records.append(tuple.__new__(GenusRecord, (spec, dn // 2, two_g_minus_2 + dn - num, gd, gc, certified,
                                                   mismatch, note)))
    return records


def _rejections(kind: KindDef, cp: CurveParams, h: dict, ns: Iterable[int], two_g_minus_2: int,
                table: ClassTable) -> list[tuple[QuotientSpec, str]]:
    """The (spec, reason) rows of the specs (H, n), n in ns, that RH
    rejects (those _assess makes no record of), in the order of ns."""
    top, slope, c, d, den = _composition(kind.counts(cp, h), table, two_g_minus_2)
    rows = []
    for n in ns:
        dn = den * n
        num = top + slope * n - c * gcd(d, n)
        if num < 0 or num % dn:
            reason = solve_rh(two_g_minus_2, dn // 2, two_g_minus_2 + dn - num)[1]
            rows.append((QuotientSpec.make(kind.id, cp, **h, n=n), "composition fails the RH oracle: " + reason))
    return rows


def _assess_spec(spec: QuotientSpec) -> tuple[Validation, GenusRecord | None]:
    """_assess for a spec that did not come from the sweep: its kind must be
    known, its params those of a cover curve of the kind's family, and its
    args must be sorted by name with each name once, as QuotientSpec.make
    builds them, and lie in the kind's parameter domain: int H args that
    the sweep yields, and n dividing m."""
    kind = KINDS.get(spec.kind)
    cp, h = spec.params, spec.arg_dict
    if kind is None:
        return Validation(False, False, "unknown kind"), None
    if not cp.family.is_cover:
        covers = ", ".join(f.value for f in Family if f.is_cover)
        return Validation(False, False, f"quotient specs are defined on the cover families ({covers}), "
                                        f"not {cp.family.value}"), None
    if kind.char != cp.p:
        return Validation(False, False, "kind belongs to the other family"), None
    if spec.args != tuple(sorted(h.items())):
        return Validation(False, False, "args are not sorted by name with each name once"), None
    n = h.pop("n", None)
    if not (all(type(v) is int for v in (n, *h.values())) and n in divisors(cp.m) and h in kind.sweep(cp)):
        return Validation(False, False, f"outside the {spec.kind} parameter domain"), None
    two_g_minus_2, table = _two_g_minus_2(cp), class_table(cp)
    records = _assess(kind, cp, h, ((n, ("n", n)),), two_g_minus_2, table)
    if not records:
        return Validation(False, False, _rejections(kind, cp, h, (n,), two_g_minus_2, table)[0][1]), None
    return Validation(True, *kind.certified(cp, h)), records[0]._replace(spec=spec)


def validate(spec: QuotientSpec) -> Validation:
    return _assess_spec(spec)[0]


def evaluate(spec: QuotientSpec) -> GenusRecord:
    """The record of a valid spec; ValueError names the reason otherwise."""
    val, rec = _assess_spec(spec)
    if rec is None:
        raise ValueError(f"invalid spec {spec}: {val.reason}")
    return rec


@dataclass
class SpectrumResult:
    """The records of a sweep, sorted by genus, and its mismatches.
    `n_subgroups` counts the H swept, and `n_specs` the specs (H, n): every
    H meets every divisor n of m.  The sweep keeps no rejected spec;
    `invalid` sweeps again on first read for their (spec, reason) rows.
    `stages` holds the seconds spent in the sweep and in the sort."""

    family: Family
    params: CurveParams
    records: list[GenusRecord]
    mismatches: list[GenusRecord]
    unexplained_mismatches: list[GenusRecord]
    n_subgroups: int
    stages: dict[str, float] = field(compare=False)

    @property
    def n_specs(self) -> int:
        return self.n_subgroups * len(divisors(self.params.m))

    @cached_property
    def invalid(self) -> list[tuple[QuotientSpec, str]]:
        """The rejected specs with their reasons, in sweep order."""
        cp = self.params
        two_g_minus_2, table, ns = _two_g_minus_2(cp), class_table(cp), divisors(cp.m)
        return [row for kind in KINDS.values() if kind.char == cp.p for h in kind.sweep(cp)
                for row in _rejections(kind, cp, h, ns, two_g_minus_2, table)]

    def genera(self) -> list[int]:
        return sorted({rec.genus for rec in self.records})


# the spectrum order: genus, then kind, then args
_SPECTRUM_ORDER = attrgetter("genus_delta", "spec.kind", "spec.args")


def spectrum(family: Family | str, params: CurveParams,
             progress: Callable[[str, int, int, float], None] | None = None) -> SpectrumResult:
    """Enumerate all valid specs of every kind over its parameter domain (its
    sweep of H times the divisors n of m), with the dual-path comparison
    applied to each.  Rejected specs are not kept; SpectrumResult.invalid
    sweeps again for them on first read.  progress, if given, gets after each
    kind its id, the H and records so far, and the seconds since the start."""
    family, params = resolve_curve(family, params)
    if not family.is_cover:
        raise ValueError("spectra are computed for the cover families")
    started = time.perf_counter()
    # the per-curve constants, once per sweep
    two_g_minus_2 = _two_g_minus_2(params)
    table = class_table(params)
    ns = [(n, ("n", n)) for n in divisors(params.m)]
    records: list[GenusRecord] = []
    n_subgroups = 0
    for kind in KINDS.values():
        if kind.char != params.p:
            continue
        for h in kind.sweep(params):
            n_subgroups += 1
            records += _assess(kind, params, h, ns, two_g_minus_2, table)
        if progress is not None:
            progress(kind.id, n_subgroups, len(records), time.perf_counter() - started)
    mismatches = [rec for rec in records if rec.mismatch]
    # a mismatch carries its kind's known-mismatch note, if the kind has one
    unexplained = [rec for rec in mismatches if not rec.note]
    swept = time.perf_counter()
    records.sort(key=_SPECTRUM_ORDER)
    stages = {"sweep": swept - started, "sort": time.perf_counter() - swept}
    return SpectrumResult(family, params, records, mismatches, unexplained, n_subgroups, stages)


# ---------------------------------------------------------------------------
# bundled reference genera (new-genera table rows, as published)

TABLE1 = {
    "F_2^12": frozenset({13, 19, 45, 196}),
    "F_2^20": frozenset({
        77, 86, 106, 125, 146, 205, 247, 314, 324, 376, 422, 447, 526, 616,
        650, 735, 856, 906, 1322, 1482, 1824, 1874, 2666, 3076, 3760, 3810,
        7632, 15376,
    }),
    "F_3^18": frozenset({
        337, 347, 445, 455, 675, 694, 891, 910, 1075, 1429, 1431, 1459, 1469,
        2125, 2154, 2862, 2866, 2919, 2938, 4254, 4381, 4387, 4471, 4501,
        4511, 4725, 5825, 6651, 8775, 8781, 8787, 8946, 9003, 9022, 9457,
        9463, 10217, 11654, 12951, 13507, 13597, 13627, 17575, 18927, 20438,
        27027, 27198, 27255, 30745, 35151, 40885, 40975, 61503, 81783, 81954,
    }),
}

TABLE1_PARAMS = {
    "F_2^12": (Family.SUZUKI_COVER, 1),
    "F_2^20": (Family.SUZUKI_COVER, 2),
    "F_3^18": (Family.REE_COVER, 1),
}


def table1_check(field_label: str, genera: list[int] | None = None) -> tuple[bool, list[int]]:
    """Containment of the bundled reference row in the computed spectrum;
    returns (contained, sorted missing values)."""
    if field_label not in TABLE1:
        raise ValueError(f"unknown field label {field_label!r}; know {sorted(TABLE1)}")
    if genera is None:
        family, s = TABLE1_PARAMS[field_label]
        genera = spectrum(family, params_from_s(family, s)).genera()
    missing = sorted(TABLE1[field_label] - set(genera))
    return (not missing, missing)
