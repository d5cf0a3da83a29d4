import hashlib
import json
import math
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest

from maxcurve import catalog as cat
from maxcurve.catalog import KINDS, QuotientSpec, evaluate, spectrum, table1_check, validate
from maxcurve.curves import genus as curve_genus, params_from_s
from maxcurve.ramification import class_table

P8 = params_from_s("suzuki-cover", 1)
P32 = params_from_s("suzuki-cover", 2)
P27 = params_from_s("ree-cover", 1)


def at(form, n) -> tuple[int, int]:
    """The (numerator, denominator) of a five-integer form (top, slope, c, d,
    den) at n: (top + slope n - c gcd(d, n), den n)."""
    top, slope, c, d, den = form
    return top + slope * n - c * math.gcd(d, n), den * n


def composition(kind, cp, args):
    """The composition form of H x C_n, from the counts of H."""
    return cat._composition(kind.counts(cp, args), class_table(cp), cat._two_g_minus_2(cp))


def frac_delta_genus(kind, cp, args) -> Fraction:
    """Genus as an exact fraction straight from the class assembly, without
    any integrality requirement (for identity testing).  The order comes from
    the class equation, so the closed formulas' denominators also check the
    class census."""
    return Fraction(*at(composition(kind, cp, args), args["n"]))


SUZUKI_SPOT = [
    ("SZ-B1", dict(r=7, n=5), 2),
    ("SZ-B1", dict(r=1, n=1), 196),
    ("SZ-B1", dict(r=1, n=5), 14),
    ("SZ-B2", dict(u=1, v=1, n=1), 92),
    ("SZ-B2", dict(u=1, v=2, n=1), 45),
    ("SZ-B2", dict(u=2, v=3, n=1), 19),
    ("SZ-B2", dict(u=3, v=3, n=1), 14),
    ("SZ-B2", dict(u=2, v=3, n=5), 1),
    ("SZ-B3", dict(u=3, v=3, r=7, n=1), 2),
    ("SZ-B4", dict(r=7, n=1), 8),
    ("SZ-B4", dict(r=7, n=5), 0),
    ("SZ-C1", dict(r=13, n=1), 16),
    ("SZ-C1", dict(r=13, n=5), 2),
    ("SZ-C2", dict(r=13, n=1), 2),
    ("SZ-C3", dict(r=13, n=1), 0),
    ("SZ-D1", dict(r=5, n=1), 40),
    ("SZ-D1", dict(r=5, n=5), 2),
    ("SZ-D2", dict(r=5, n=1), 14),
    ("SZ-D3", dict(r=5, n=1), 6),
    ("SZ-E", dict(shat=0, n=1), 6),
    ("SZ-E", dict(shat=0, n=5), 0),
]

REE_SPOT = [
    ("RE-P1", dict(r=1, n=1), 246051),
    ("RE-P1", dict(r=1, n=19), 3627),
    ("RE-P1", dict(r=37, n=1), 6651),
    ("RE-P2", dict(r=37, n=1), 3319),
    ("RE-P3", dict(r=37, n=1), 2154),
    ("RE-P4", dict(r=37, n=1), 1075),
    ("RE-M1", dict(r=19, n=1), 12951),
    ("RE-M2", dict(r=19, n=1), 6469),
    ("RE-M3", dict(r=19, n=19), 60),
    ("RE-C1", dict(v=1, j=1, n=1), 81954),
    ("RE-C1", dict(v=3, j=2, n=1), 4511),
    ("RE-C2", dict(r=7, j=1, n=1), 35151),
    ("RE-C2", dict(r=14, j=1, n=1), 17575),
    ("RE-C3", dict(r=13, j=1, n=1), 18927),
    ("RE-C4", dict(r=7, j=1, n=1), 17569),
    ("RE-C5", dict(r=13, j=2, n=1), 4725),
    ("RE-C6", dict(j=1, n=1), 20438),
    ("RE-C6", dict(j=2, n=1), 10217),
    ("RE-Q1", dict(i=4, j=1, r=1, n=1), 61503),
    ("RE-Q1", dict(i=2, j=2, r=7, n=1), 8781),
    ("RE-Q2", dict(j=2, r=7, n=1), 1431),
    ("RE-Q3", dict(j=2, r=7, n=1), 5825),
    ("RE-S", dict(shat=0, n=1), 136),
    ("RE-S", dict(shat=0, n=19), 1),
]


@pytest.mark.parametrize("kid,args,expected", SUZUKI_SPOT)
def test_suzuki_spot_values(kid, args, expected):
    rec = evaluate(QuotientSpec.make(kid, P8, **args))
    assert rec.genus_delta == expected
    assert rec.genus_closed == expected
    assert not rec.mismatch


@pytest.mark.parametrize("kid,args,expected", REE_SPOT)
def test_ree_spot_values(kid, args, expected):
    rec = evaluate(QuotientSpec.make(kid, P27, **args))
    assert rec.genus_delta == expected
    assert rec.genus_closed == expected
    assert not rec.mismatch


@pytest.mark.parametrize(
    "kid,args,expected",
    [
        ("RE-B", dict(u=3, v=3, w=3, r=26, n=1), 337),
        ("RE-B", dict(u=3, v=3, w=3, r=13, n=1), 675),
        ("RE-B", dict(u=3, v=6, w=9, r=1, n=1), 0),
        ("RE-B", dict(u=1, v=1, w=2, r=1, n=1), 27255),
        ("RE-C7", dict(v=3, r=13, j=1, n=1), 694),
        ("RE-C7", dict(v=3, r=13, j=2, n=1), 347),
        ("RE-C8", dict(d=1, j=1, n=1), 20438),
        ("RE-C8", dict(d=3, j=1, n=1), 18),
        ("RE-P4", dict(r=1, n=19), 601),
    ],
)
def test_composition_values_for_flagged_kinds(kid, args, expected):
    rec = evaluate(QuotientSpec.make(kid, P27, **args))
    assert rec.genus_delta == expected
    if rec.mismatch:
        assert rec.note  # every mismatch carries its documentation


class TestDualPathIdentities:
    """The displayed formula and the class assembly agree as rational
    functions of the parameters; checked over grids wide enough to pin
    every coefficient the formulas can carry."""

    def check_kind(self, kid, params_list, arg_grids):
        kind = KINDS[kid]
        for cp in params_list:
            for args in arg_grids(cp):
                closed = Fraction(*at(kind.closed(cp, args), args["n"]))
                viadelta = frac_delta_genus(kind, cp, args)
                assert closed == viadelta, (kid, cp.s, args)

    def test_suzuki_rn_kinds(self):
        params = [params_from_s("suzuki-cover", s) for s in (1, 2, 3)]
        grid = lambda cp: [dict(r=r, n=n) for r in range(1, 8) for n in range(1, 8)]
        for kid in ("SZ-B1", "SZ-C1", "SZ-C2", "SZ-C3", "SZ-D1", "SZ-D2", "SZ-D3"):
            self.check_kind(kid, params, grid)
        grid_r2 = lambda cp: [dict(r=r, n=n) for r in range(2, 8) for n in range(1, 8)]
        self.check_kind("SZ-B4", params, grid_r2)

    def test_suzuki_two_group_kinds(self):
        params = [params_from_s("suzuki-cover", s) for s in (1, 2)]
        grid = lambda cp: [
            dict(u=u, v=v, n=n)
            for u in range(1, 2 * cp.s + 2)
            for v in range(u, 2 * (2 * cp.s + 1) + 1)
            for n in range(1, 6)
        ]
        self.check_kind("SZ-B2", params, grid)
        grid3 = lambda cp: [
            dict(u=u, v=v, r=r, n=n)
            for u in range(1, 2 * cp.s + 2)
            for v in range(u, 2 * (2 * cp.s + 1) + 1)
            for r in (2, 3, 7)
            for n in range(1, 5)
        ]
        self.check_kind("SZ-B3", params, grid3)

    def test_suzuki_subfield_kind_both_branches(self):
        # (s, shat) pairs exercising both divisibility branches; at (10, 1)
        # the first branch has special pairs (dm = 5 divides m)
        cases = [(1, 0), (2, 0), (3, 0), (4, 0), (4, 1), (10, 1)]
        for s, shat in cases:
            cp = params_from_s("suzuki-cover", s)
            for n in range(1, 8):
                args = dict(shat=shat, n=n)
                closed = Fraction(*at(KINDS["SZ-E"].closed(cp, args), n))
                assert closed == frac_delta_genus(KINDS["SZ-E"], cp, args), (s, shat, n)

    def test_ree_simple_kinds(self):
        params = [params_from_s("ree-cover", s) for s in (1, 2)]
        grid = lambda cp: [dict(r=r, n=n) for r in range(1, 8) for n in range(1, 8)]
        for kid in ("RE-P1", "RE-P2", "RE-P3", "RE-M1", "RE-M2", "RE-M3", "RE-M4"):
            self.check_kind(kid, params, grid)
        # r divides (q+1)/2 for RE-C2 and RE-C4, and (q-1)/2, which is odd,
        # for RE-C3 and RE-C5: no subgroup has an even r there
        for kid, rs in (("RE-C2", range(1, 7)), ("RE-C3", (1, 3, 5)), ("RE-C4", range(1, 7)),
                        ("RE-C5", (1, 3, 5))):
            self.check_kind(kid, params, lambda cp: [
                dict(r=r, n=n, j=j) for r in rs for n in range(1, 7) for j in (1, 2)
            ])
        grid_c6 = lambda cp: [dict(j=j, n=n) for j in (1, 2) for n in range(1, 8)]
        self.check_kind("RE-C6", params, grid_c6)
        grid_c1 = lambda cp: [
            dict(v=v, j=j, n=n) for v in range(1, 2 * cp.s + 2) for j in (1, 2) for n in range(1, 6)
        ]
        self.check_kind("RE-C1", params, grid_c1)
        grid_q1 = lambda cp: [
            dict(i=i, j=j, r=r, n=n)
            for i in (1, 2, 4) for j in (1, 2) for r in range(1, 5) for n in range(1, 5)
        ]
        self.check_kind("RE-Q1", params, grid_q1)
        grid_q = lambda cp: [
            dict(j=j, r=r, n=n) for j in (1, 2) for r in range(1, 6) for n in range(1, 6)
        ]
        self.check_kind("RE-Q2", params, grid_q)
        self.check_kind("RE-Q3", params, grid_q)

    def test_ree_stabilizer_kind_odd_r(self):
        params = [params_from_s("ree-cover", s) for s in (1, 2)]
        grid = lambda cp: [
            dict(u=u, v=v, w=w, r=r, n=n)
            for u in range(0, 2 * cp.s + 2)
            for v in range(u, u + 2 * cp.s + 2)
            for w in range(v, v + u + 1)
            for r in (1, 3, 5)
            for n in range(1, 5)
        ]
        self.check_kind("RE-B", params, grid)

    def test_ree_stabilizer_kind_even_r_discrepancy(self):
        # the displayed even-r correction differs from the assembly by
        # exactly q / (3^(v-u) r)
        for s in (1, 2):
            cp = params_from_s("ree-cover", s)
            for u in range(0, 2 * s + 2):
                for v in range(u, u + 2 * s + 2):
                    for w in range(v, v + u + 1):
                        for r in (2, 4, 26):
                            for n in (1, 2, 3, 19):
                                args = dict(u=u, v=v, w=w, r=r, n=n)
                                closed = Fraction(*at(KINDS["RE-B"].closed(cp, args), n))
                                viadelta = frac_delta_genus(KINDS["RE-B"], cp, args)
                                assert closed - viadelta == Fraction(cp.q, 3 ** (v - u) * r)

    def test_ree_c7_discrepancy(self):
        # displayed constant differs from the assembly by (r-1)(n-2)/(j r n)
        for s in (1, 2):
            cp = params_from_s("ree-cover", s)
            for v in range(1, 2 * s + 2):
                for r in (1, 2, 5, 13):
                    for j in (1, 2):
                        for n in range(1, 6):
                            args = dict(v=v, r=r, j=j, n=n)
                            closed = Fraction(*at(KINDS["RE-C7"].closed(cp, args), n))
                            viadelta = frac_delta_genus(KINDS["RE-C7"], cp, args)
                            assert closed - viadelta == Fraction((r - 1) * (n - 2), j * r * n)

    def test_ree_p4_discrepancy(self):
        # displayed leading (q-2) instead of (q-n-1): off by (q^3+1)(n-1)/(12rn)
        for s in (1, 2):
            cp = params_from_s("ree-cover", s)
            for r in range(1, 8):
                for n in range(1, 8):
                    args = dict(r=r, n=n)
                    closed = Fraction(*at(KINDS["RE-P4"].closed(cp, args), n))
                    viadelta = frac_delta_genus(KINDS["RE-P4"], cp, args)
                    assert closed - viadelta == Fraction((cp.q**3 + 1) * (n - 1), 12 * r * n)

    def test_ree_subfield_kind_all_branches(self):
        # (s, shat=0) with extension degrees 3, 5, 7, 11 covers the zero
        # branch and both divisibility branches
        for s in (1, 2, 3, 5):
            cp = params_from_s("ree-cover", s)
            for n in range(1, 6):
                args = dict(shat=0, n=n)
                assert Fraction(*at(KINDS["RE-S"].closed(cp, args), n)) == frac_delta_genus(KINDS["RE-S"], cp, args)


def _swept(kid, cp):
    """The args of every spec (H, n) of the kind's sweep at cp."""
    for h in KINDS[kid].sweep(cp):
        for n in cat.divisors(cp.m):
            yield {**h, "n": n}


# The 12 nested displays as the paper states them, transcribed verbatim
# with Fraction; each kind's closed formula gives the same exact value as
# an integer pair.


def _display_sz_b1(cp, a):
    q, r, n = cp.q, a["r"], a["n"]
    return Fraction(1, 2) * Fraction(q - 1, r) * (Fraction(q * q + 1, n) - q - 1)


def _display_sz_c(factor, cp, a):
    q, q0, m = cp.q, cp.q0, cp.m
    r, n = a["r"], a["n"]
    if factor == 1:
        return 1 + Fraction(q * q + 1, r * n) * Fraction(q - 1 - n, 2)
    if factor == 2:
        return 1 + Fraction(q * q + 1, r * n) * Fraction(q - n - 1, 4) - Fraction(Fraction(m, n) * (2 * q0 + 1) + 1, 4)
    return 1 + Fraction(q * q + 1, r * n) * Fraction(q - n - 1, 8) - Fraction(Fraction(m, n) * (2 * q0 + 3) + 3, 8)


def _display_re_c_torus(plus, dihedral, cp, a):
    q = cp.q
    r, j, n = a["r"], a["j"], a["n"]
    if plus and not dihedral:
        return 1 + Fraction(q + 1, 2 * r) * (
            Fraction((q * q - q + 1) * (q - 1), j * n) - Fraction(q * q - q, j) - math.gcd(r, 2)
        )
    if not dihedral:
        return Fraction(q - 1, 2 * r) * (Fraction(q**3 + 1, j * n) - Fraction(q * q + q, j) - 1)
    if plus:
        return 1 + Fraction(q + 1, 2 * r) * (
            Fraction(q - 1, 2) * Fraction(q * q - (n + 1) * q + 1, j * n) - Fraction(r + math.gcd(r, 2), 2)
        )
    return Fraction(q * q - 1, 4 * j * r) * (Fraction(q * q - q + 1, n) - q) - Fraction((r + 1) * (q - 1), 4 * r)


def _display_re_c6(cp, a):
    q, q0, m = cp.q, cp.q0, cp.m
    j, n = a["j"], a["n"]
    mn = Fraction(m, n)
    inner = (
        mn * (q * q - 1) * (q + 3 * q0)
        - 4 * j * (q + 3)
        + mn * (q * q - 9)
        - 24 * (mn * q0 + 3)
        + 8 * (9 - Fraction(q * (q * q - 1), 8))
    )
    return 1 + Fraction(1, 24 * j) * inner


def _display_re_c8(cp, a):
    q, m = cp.q, cp.m
    qh, j, n = 3 ** a["d"], a["j"], a["n"]
    term1 = Fraction(
        q**4
        - (n + 1) * q**3
        - (qh * qh - 1) * q * q
        - (qh * qh * (Fraction(n * j, 2) - n - 1) - Fraction(qh * n * j, 2) + n * (j - 1) + m) * q,
        j * (qh + 1) * qh * (qh - 1) * n,
    )
    term2 = Fraction(
        Fraction(qh * qh * n * j * (qh + 1), 2) + qh - 2 * n * j,
        j * (qh + 1) * (qh - 1) * n,
    )
    return 1 + term1 - term2


def _display_re_p(factor, cp, a):
    q, r, n = cp.q, a["r"], a["n"]
    if factor == 1:
        return 1 + Fraction(q + 1, 2) * Fraction(q * q - q + 1, r * n) * (q - n - 1)
    return 1 + Fraction(q + 1, 4) * (Fraction(q * q - q + 1, r * n) * (q - n - 1) - 1)


NESTED_DISPLAYS = {
    "SZ-B1": _display_sz_b1,
    "SZ-C1": partial(_display_sz_c, 1),
    "SZ-C2": partial(_display_sz_c, 2),
    "SZ-C3": partial(_display_sz_c, 4),
    "RE-C2": partial(_display_re_c_torus, True, False),
    "RE-C3": partial(_display_re_c_torus, False, False),
    "RE-C4": partial(_display_re_c_torus, True, True),
    "RE-C5": partial(_display_re_c_torus, False, True),
    "RE-C6": _display_re_c6,
    "RE-C8": _display_re_c8,
    "RE-P1": partial(_display_re_p, 1),
    "RE-P2": partial(_display_re_p, 2),
}


@pytest.mark.parametrize("kid", list(NESTED_DISPLAYS))
def test_closed_pair_equals_the_verbatim_display(kid):
    # RE-C8's display is never integral at a valid spec, so no spectrum pin
    # reads it; this is the test that pins its value
    kind, display = KINDS[kid], NESTED_DISPLAYS[kid]
    for s in (1, 2, 3):
        cp = params_from_s("suzuki-cover" if kind.char == 2 else "ree-cover", s)
        for h in kind.sweep(cp):
            for n in sorted(set(range(1, 8)) | set(cat.divisors(cp.m))):
                args = {**h, "n": n}
                assert Fraction(*at(kind.closed(cp, h), n)) == display(cp, args), (kid, s, args)


@pytest.mark.parametrize("family,n_values,digest", [
    ("suzuki-cover", 1423, "071f1f7f525f4b4a4a53409160f6b9519ebecfd0dc7132853f5f431ab66170f0"),
    ("ree-cover", 23444, "dea2f4de5d1220c61ac423e637f857ebd6cdc7503da9b1002673fab72cd7bc41"),
])
def test_closed_values_pinned(family, n_values, digest):
    # sha256 of str(Fraction) of every kind's display over s=1..3, every
    # swept H and n in 1..7 and the divisors of m, in KINDS order, sweep
    # order and ascending n; the specs that RH rejects are included, whose
    # closed value no spectrum pin reads
    values = []
    for s in (1, 2, 3):
        cp = params_from_s(family, s)
        ns = sorted(set(range(1, 8)) | set(cat.divisors(cp.m)))
        for kind in KINDS.values():
            if kind.char == cp.p:
                for h in kind.sweep(cp):
                    form = kind.closed(cp, h)
                    values += [str(Fraction(*at(form, n))) for n in ns]
    assert len(values) == n_values
    assert hashlib.sha256("\n".join(values).encode()).hexdigest() == digest


@pytest.mark.parametrize("family", ["suzuki-cover", "ree-cover"])
def test_closed_returns_five_ints(family):
    for s in (1, 2):
        cp = params_from_s(family, s)
        for kind in KINDS.values():
            if kind.char != cp.p:
                continue
            for h in kind.sweep(cp):
                form = kind.closed(cp, h)
                assert type(form) is tuple and len(form) == 5, (kind.id, s, h, form)
                assert all(type(v) is int for v in form) and form[4] > 0, (kind.id, s, h, form)


def _named_orders():
    """(kind, params, args, named |H x C_n|) for the kinds whose group has a
    name: SZ-E, RE-S and RE-C8 over every swept spec of s=1..7, RE-C1..7
    over every swept spec of s=1..3, and RE-Q1/2/3 at r = (q+1)/4 for
    s=1..3."""
    for s in range(1, 8):
        cp = params_from_s("suzuki-cover", s)
        for a in _swept("SZ-E", cp):
            qh = 2 * 4 ** a["shat"]
            yield "SZ-E", cp, a, qh**2 * (qh**2 + 1) * (qh - 1) * a["n"]
        cp = params_from_s("ree-cover", s)
        for a in _swept("RE-S", cp):
            qh = 3 * 9 ** a["shat"]
            yield "RE-S", cp, a, qh**3 * (qh**3 + 1) * (qh - 1) * a["n"]
        for a in _swept("RE-C8", cp):
            qh = 3 ** a["d"]
            yield "RE-C8", cp, a, a["j"] * qh * (qh * qh - 1) // 2 * a["n"]
    for s in (1, 2, 3):
        cp = params_from_s("ree-cover", s)
        for kid, named in (
            ("RE-C1", lambda a: a["j"] * 3 ** a["v"]),
            ("RE-C2", lambda a: a["j"] * a["r"]),
            ("RE-C3", lambda a: a["j"] * a["r"]),
            ("RE-C4", lambda a: 2 * a["j"] * a["r"]),
            ("RE-C5", lambda a: 2 * a["j"] * a["r"]),
            ("RE-C6", lambda a: 12 * a["j"]),
            ("RE-C7", lambda a: a["j"] * 3 ** a["v"] * a["r"]),
        ):
            for a in _swept(kid, cp):
                yield kid, cp, a, named(a) * a["n"]
        r = (cp.q + 1) // 4
        for kid in ("RE-Q1", "RE-Q2", "RE-Q3"):
            for a in _swept(kid, cp):
                if a["r"] == r:
                    factor = {"RE-Q1": a.get("i"), "RE-Q2": 12, "RE-Q3": 3}[kid]
                    yield kid, cp, a, factor * a["j"] * r * a["n"]


def test_class_census_gives_the_group_order():
    seen = set()
    for kid, cp, args, named in _named_orders():
        den = composition(KINDS[kid], cp, args)[4]
        assert args["n"] * den == 2 * named, (kid, cp.s, args)
        seen.add(kid)
    assert seen == {"SZ-E", "RE-S", "RE-C8", "RE-Q1", "RE-Q2", "RE-Q3",
                    "RE-C1", "RE-C2", "RE-C3", "RE-C4", "RE-C5", "RE-C6", "RE-C7"}


# |H| / r of the kinds whose H is C_r . C_f inside a torus normalizer
NORMALIZER_FACTORS = {
    "SZ-B1": 1, "SZ-B4": 2, "SZ-C1": 1, "SZ-C2": 2, "SZ-C3": 4, "SZ-D1": 1, "SZ-D2": 2, "SZ-D3": 4,
    "RE-P1": 1, "RE-P2": 2, "RE-P3": 3, "RE-P4": 6, "RE-M1": 1, "RE-M2": 2, "RE-M3": 3, "RE-M4": 6,
}

# the kinds whose H is K (j = 1) or K<iota> (j = 2) for an involution iota
INVOLUTION_KINDS = {f"RE-C{i}" for i in range(1, 9)} | {"RE-Q1", "RE-Q2", "RE-Q3"}


@pytest.mark.parametrize("family,s,n_rows,digest", [
    ("suzuki-cover", 1, 33, "2caa1110b3b2a2c42fb13a4ec786049b62229d2267592a5c7b9536f9e85b6ce9"),
    ("suzuki-cover", 2, 58, "6b63e1fc5e6a05a5417d09fbe03ecf00a445127323abfcf8ea1f6485db752e59"),
    ("suzuki-cover", 3, 91, "b3843f793bc12287bffba97c1609dc7966f2de9f6d88009c40f1193f1c7b5814"),
    ("ree-cover", 1, 237, "dc29203f318e4859142e81890d332c9e26c23d3ce1fbe51dbd112fc9b42603ee"),
    ("ree-cover", 2, 853, "5e2d1813228dd19e021f52554d395842544652ff76db80d741cf029072d238eb"),
    ("ree-cover", 3, 1261, "c2cbd46c5d16ec535fed457957029acdc62400a27de7bbbca6d31b23652bf8db"),
    # s = 4 (h = 9, 1 mod 8) and ree-cover s = 5, 6 (h = 11, 13) reach the
    # subfield branch residues that smaller s never reach
    ("suzuki-cover", 4, 246, "7140eb30fa90c932b9368d714a07e18a3bcb7eecd4a760d6756f29557bfe8ad6"),
    ("ree-cover", 5, 7649, "86953807b467330aba1bd38d14a17acd440121d5759062383d1ece8948975b89"),
    ("ree-cover", 6, 6029, "41e83a8488af8636e3f202dacbdc522cffe388f48489f10f52422cca4230fbe3"),
])
def test_sweep_sequence_pinned(family, s, n_rows, digest):
    # sha256 of the [kind, H args, census, special pairs, certified] rows of
    # every swept H, in KINDS order and sweep order; the torus-normalizer
    # kinds' census is the group order r f, and only the order-m torus
    # brings special pairs; an involution kind's coset K iota doubles |K|
    cp = params_from_s(family, s)
    rows = []
    k_orders = {}
    for kind in KINDS.values():
        if kind.char != cp.p:
            continue
        for h in kind.sweep(cp):
            census, pairs = kind.counts(cp, h)
            rows.append([kind.id, sorted(h.items()), sorted(census.items()), list(pairs),
                         kind.certified(cp, h)[0]])
            if kind.id in NORMALIZER_FACTORS:
                assert 1 + sum(census.values()) == h["r"] * NORMALIZER_FACTORS[kind.id], (kind.id, h)
                order_m = kind.id[:4] in ("SZ-D", "RE-M")
                assert pairs == ((1, h["r"]) if order_m else cat.NO_SPECIAL_PAIRS), (kind.id, h)
            if kind.id in INVOLUTION_KINDS:
                k_args = (kind.id, tuple(sorted((k, v) for k, v in h.items() if k != "j")))
                size = 1 + sum(census.values())
                if h["j"] == 1:
                    k_orders[k_args] = size
                else:
                    assert size == 2 * k_orders[k_args], (kind.id, h)
    assert len(rows) == n_rows
    assert hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest() == digest


class TestCrossKindAgreement:
    def test_smallest_suzuki_subfield_group_is_singer_normalizer(self):
        # the order-20 subfield subgroup coincides with the full second
        # Singer normalizer, reached through two different kinds
        for n in (1, 5):
            e = evaluate(QuotientSpec.make("SZ-E", P8, shat=0, n=n))
            d = evaluate(QuotientSpec.make("SZ-D3", P8, r=5, n=n))
            assert e.genus_delta == d.genus_delta
            assert e.delta == d.delta
        for n in (1, 5, 25):
            e = evaluate(QuotientSpec.make("SZ-E", P32, shat=0, n=n))
            d = evaluate(QuotientSpec.make("SZ-D3", P32, r=5, n=n))
            assert e.genus_delta == d.genus_delta

    def test_tetrahedral_group_reached_three_ways(self):
        for j in (1, 2):
            for n in (1, 19):
                a = evaluate(QuotientSpec.make("RE-C6", P27, j=j, n=n)).genus_delta
                b = evaluate(QuotientSpec.make("RE-Q2", P27, j=j, r=1, n=n)).genus_delta
                c = evaluate(QuotientSpec.make("RE-C8", P27, d=1, j=j, n=n)).genus_delta
                assert a == b == c

    def test_elementary_abelian_matches_q3(self):
        for n in (1, 19):
            a = evaluate(QuotientSpec.make("RE-C1", P27, v=1, j=1, n=n)).genus_delta
            b = evaluate(QuotientSpec.make("RE-Q3", P27, j=1, r=1, n=n)).genus_delta
            assert a == b


class TestValidate:
    def test_certified_example(self):
        val = validate(QuotientSpec.make("SZ-B2", P8, u=1, v=1, n=1))
        assert val.valid and val.existence_certified

    def test_structurally_impossible_two_group(self):
        # a 2-group with a single involution and order 8 would be quaternion
        val = validate(QuotientSpec.make("SZ-B2", P8, u=1, v=3, n=1))
        assert not val.valid
        assert val.reason == "outside the SZ-B2 parameter domain"

    def test_rh_oracle_rejects(self):
        val = validate(QuotientSpec.make("SZ-B2", P8, u=2, v=4, n=1))
        assert not val.valid
        assert "RH oracle" in val.reason

    def test_valid_but_uncertified(self):
        val = validate(QuotientSpec.make("SZ-B2", P32, u=2, v=4, n=1))
        assert val.valid and not val.existence_certified
        assert evaluate(QuotientSpec.make("SZ-B2", P32, u=2, v=4, n=1)).genus_delta == 931

    def test_divisibility_guards(self):
        assert not validate(QuotientSpec.make("SZ-B1", P8, r=3, n=1)).valid
        assert not validate(QuotientSpec.make("SZ-B1", P8, r=7, n=3)).valid
        assert not validate(QuotientSpec.make("RE-C7", P27, v=1, r=13, j=1, n=1)).valid
        assert validate(QuotientSpec.make("RE-C7", P27, v=3, r=13, j=1, n=1)).valid

    def test_wrong_family(self):
        assert not validate(QuotientSpec.make("RE-C1", P8, v=1, j=1, n=1)).valid

    @pytest.mark.parametrize("kid,params,args", [
        ("SZ-B1", P8, dict(r=7)),                   # n missing
        ("SZ-B1", P8, dict(r=7, n=1, x=3)),         # an argument the kind does not take
        ("RE-B", P27, dict(u=0, v=0, w=0, r=2, n=1)),  # torus only: left to the centralizer kinds
        ("SZ-B1", P8, dict(r=7.0, n=1)),            # equal to a swept int, but not an int
        ("SZ-B1", P8, dict(r=7, n=1.0)),
        ("SZ-B1", P8, dict(r=True, n=1)),           # a bool is not an int argument
        ("SZ-B1", P8, dict(r=7, n=True)),
    ])
    def test_outside_the_sweep(self, kid, params, args):
        spec = QuotientSpec.make(kid, params, **args)
        val = validate(spec)
        assert (val.valid, val.existence_certified) == (False, False)
        assert val.reason == f"outside the {kid} parameter domain"
        with pytest.raises(ValueError, match="parameter domain"):
            evaluate(spec)

    @pytest.mark.parametrize("args", [
        (("n", 5), ("n", 1), ("r", 7)),             # n twice: dict() keeps the last
        (("r", 7), ("n", 1)),                        # a valid spec's args, unsorted
        (("n", 1), ("r", 7), ("r", 7)),
    ])
    def test_args_not_as_make_builds_them(self, args):
        spec = QuotientSpec("SZ-B1", P8, args)
        assert validate(QuotientSpec("SZ-B1", P8, tuple(sorted(dict(args).items())))).valid
        val = validate(spec)
        assert (val.valid, val.existence_certified) == (False, False)
        assert val.reason == "args are not sorted by name with each name once"
        with pytest.raises(ValueError, match="not sorted by name"):
            evaluate(spec)

    def test_unknown_kind(self):
        spec = QuotientSpec.make("XX", P8, n=1)
        val = validate(spec)
        assert (val.valid, val.existence_certified, val.reason) == (False, False, "unknown kind")
        with pytest.raises(ValueError, match="unknown kind"):
            evaluate(spec)

    @pytest.mark.parametrize("family,kid,args", [
        ("suzuki-base", "SZ-B1", dict(r=7, n=1)),
        ("ree-base", "RE-C1", dict(v=1, j=1, n=1)),
    ])
    def test_base_curve_params(self, family, kid, args):
        # the kinds are subgroups of the cover's automorphism group: on base
        # params the sweep's formulas would give a cover quotient's genus
        spec = QuotientSpec.make(kid, params_from_s(family, 1), **args)
        val = validate(spec)
        assert (val.valid, val.existence_certified) == (False, False)
        assert "suzuki-cover" in val.reason and "ree-cover" in val.reason
        with pytest.raises(ValueError, match="cover families"):
            evaluate(spec)

    @pytest.mark.parametrize("kid,params,args,reason", [
        ("XX", P8, dict(n=1), "unknown kind"),
        ("SZ-B1", params_from_s("suzuki-base", 1), dict(r=7, n=1), "cover families"),
        ("SZ-B1", P8, dict(r=3, n=1), "parameter domain"),
    ])
    def test_genus_closed_rejects_invalid(self, kid, params, args, reason):
        with pytest.raises(ValueError, match=reason):
            evaluate(QuotientSpec.make(kid, params, **args)).genus_closed

    def test_genus_closed_of_valid_spec(self):
        assert evaluate(QuotientSpec.make("SZ-B1", P8, r=7, n=1)).genus_closed == 28

    def test_ree_b_certificate(self):
        assert validate(QuotientSpec.make("RE-B", P27, u=3, v=3, w=3, r=13, n=1)).existence_certified
        assert not validate(QuotientSpec.make("RE-B", P27, u=3, v=6, w=9, r=1, n=1)).existence_certified


class TestSpectrum:
    def test_q8_full_list(self):
        res = spectrum("suzuki-cover", P8)
        assert res.genera() == [0, 1, 2, 3, 6, 8, 14, 16, 19, 28, 40, 45, 92, 196]
        assert not res.unexplained_mismatches

    def test_q8_boundaries(self):
        res = spectrum("suzuki-cover", P8)
        cover = curve_genus(P8)
        assert all(0 <= rec.genus <= cover for rec in res.records)
        assert max(rec.genus for rec in res.records) == cover
        assert 14 in res.genera()  # base-curve genus from the full torus

    def test_q32(self):
        res = spectrum("suzuki-cover", P32)
        genera = res.genera()
        cover = curve_genus(P32)
        assert cover in genera
        assert 124 in genera  # base-curve genus
        assert all(0 <= g <= cover for g in genera)
        assert not res.unexplained_mismatches

    def test_q27(self):
        res = spectrum("ree-cover", P27)
        genera = res.genera()
        assert curve_genus(P27) in genera
        assert 3627 in genera
        assert all(0 <= g <= curve_genus(P27) for g in genera)
        assert not res.unexplained_mismatches
        for rec in res.mismatches:
            assert rec.note, rec.spec

    def test_deterministic(self):
        a = spectrum("suzuki-cover", P8)
        b = spectrum("suzuki-cover", P8)
        assert [(r.spec, r.genus) for r in a.records] == [(r.spec, r.genus) for r in b.records]

    def test_rejects_base_family(self):
        with pytest.raises(ValueError):
            spectrum("suzuki-base", params_from_s("suzuki-base", 1))

    def test_params_of_the_other_family_are_rebuilt(self):
        # the spectrum belongs to the named family's curve, as in count_points
        res = spectrum("suzuki-cover", params_from_s("suzuki-base", 1))
        assert res.params == P8
        assert res.genera() == spectrum("suzuki-cover", P8).genera()
        assert len(res.genera()) == 14

    @pytest.mark.parametrize("family,s,n_invalid,digest", [
        ("suzuki-cover", 7, 7268, "db6fcaf6a6f8181c3bff0cb09ee848b0b5f060aac892565de875067bbf968581"),
        ("ree-cover", 3, 4362, "7fb4abec1c7d1a21f0d7ed808f256babef74133e7a6408c0ce5d8806e1c71d17"),
        ("suzuki-cover", 10, 21625, "d875a4addd41eb4b0f5cd3399c915acf56c734026f129a62a46331df906fa22e"),
    ])
    def test_invalid_list_pinned(self, family, s, n_invalid, digest):
        # sha256 of the (kind, args, reason) rows of the specs the sweep
        # rejects, in sweep order
        invalid = spectrum(family, params_from_s(family, s)).invalid
        rows = [[spec.kind, [list(a) for a in spec.args], reason] for spec, reason in invalid]
        assert len(rows) == n_invalid
        assert hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest() == digest

    @pytest.mark.parametrize("family,s,n_records,digest", [
        ("suzuki-cover", 7, 1796, "19883e4cc149438b548ce6559aea48219ff5a9803094362e7f60d4cac54f059e"),
        ("ree-cover", 3, 3204, "48dd13ec984a12f78cf3679206c74039d5f452fb7dd7ebaf7db3368f9ac111a7"),
    ])
    def test_full_rows_pinned(self, family, s, n_records, digest):
        # sha256 of every field of every record, in spectrum order: the CSV
        # pins leave out certified, mismatch and note
        records = spectrum(family, params_from_s(family, s)).records
        rows = [[r.spec.kind, [list(a) for a in r.spec.args], r.order, r.delta, r.genus, r.genus_closed,
                 r.certified, r.mismatch, r.note] for r in records]
        assert len(rows) == n_records
        assert hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest() == digest

    def test_sweep_builds_no_rejected_specs(self):
        # 21,625 of the 24,696 specs at s=10 are rejected; building them in
        # the sweep took the peak past 11 MB; keeping only their n, under 3 MB
        params = params_from_s("suzuki-cover", 10)
        spectrum("suzuki-cover", params)
        tracemalloc.start()
        try:
            res = spectrum("suzuki-cover", params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "invalid" not in vars(res)
        assert peak < 5_000_000

    def test_invalid_is_built_once(self):
        res = spectrum("ree-cover", P27)
        first = res.invalid
        assert res.invalid is first
        assert first == spectrum("ree-cover", P27).invalid

    def test_tame_records(self):
        # tame quotients over the small orbit and those containing the central
        # cyclic factor: the full torus, the order-7 torus, and their product
        for params, kid, args, expected in [
            (P8, "SZ-B1", dict(r=1, n=5), (5, 260, 14)),
            (P8, "SZ-B1", dict(r=7, n=1), (7, 12, 28)),
            (P8, "SZ-B1", dict(r=7, n=5), (35, 320, 2)),
            (P27, "RE-C3", dict(r=1, j=1, n=19), (19, 354312, 3627)),
        ]:
            rec = evaluate(QuotientSpec.make(kid, params, **args))
            assert (rec.order, rec.delta, rec.genus) == expected, (kid, args)
            assert rec in spectrum(params.family, params).records, (kid, args)

    @pytest.mark.parametrize("params", [P8, P27], ids=["P8", "P27"])
    def test_sweep_agrees_with_single_specs(self, params):
        # the sweep steps through n per H; validate and evaluate take one
        # spec at a time, and both give the same verdicts and records
        res = spectrum(params.family, params)
        for spec, reason in res.invalid:
            assert validate(spec) == cat.Validation(False, False, reason)
        for rec in res.records:
            assert evaluate(rec.spec) == rec


class TestRecordTypes:
    """QuotientSpec and GenusRecord are immutable, hashable tuples
    (TestSpectrum.test_sweep_agrees_with_single_specs checks that evaluate
    rebuilds every swept record)."""

    def test_fields_cannot_be_assigned(self):
        rec = evaluate(QuotientSpec.make("SZ-B1", P8, r=7, n=1))
        for obj, name in ((rec, "genus_delta"), (rec, "note"), (rec.spec, "kind"), (rec.spec, "args")):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
        with pytest.raises(AttributeError):
            rec.genus = 0
        assert rec.genus == rec.genus_delta == 28

    def test_both_hash(self):
        rec = evaluate(QuotientSpec.make("SZ-B1", P8, r=7, n=1))
        again = evaluate(QuotientSpec.make("SZ-B1", P8, n=1, r=7))
        assert hash(rec) == hash(again) and hash(rec.spec) == hash(again.spec)
        assert len({rec, again}) == 1 and len({rec.spec, again.spec}) == 1
        assert rec.spec.arg_dict == {"n": 1, "r": 7}
        records = spectrum("ree-cover", P27).records
        assert len(set(records)) == len({rec.spec for rec in records}) == len(records)


class TestGenericTameEvaluators:
    """The displayed genus of a tame L whose fixed places lie over the small
    orbit, from the order l of its cyclic part and the genus of the induced
    base-curve quotient, against the swept records of TestSpectrum.test_tame_records."""

    @staticmethod
    def displayed(cp, order, l, g_bar):
        q, q0 = cp.q, cp.q0
        if cp.p == 2:
            num = (q * q + 1) * (q - l - 1) - 2 * l * (q0 * q - q0 - 1)
        else:
            num = (q**3 + 1) * (q - 1) - l * (q**3 + 3 * q0 * q * q + q * q - q + 3 * q0 - 1)
        return g_bar + Fraction(num, 2 * order)

    def test_small_orbit_suzuki(self):
        # full torus: the display gives the base genus, as the record does
        assert self.displayed(P8, order=5, l=5, g_bar=14) == 14
        assert evaluate(QuotientSpec.make("SZ-B1", P8, r=1, n=5)).genus == 14
        # order-7 torus: base quotient has genus 2, lifted quotient 28
        assert self.displayed(P8, order=7, l=1, g_bar=2) == 28
        assert evaluate(QuotientSpec.make("SZ-B1", P8, r=7, n=1)).genus == 28

    def test_small_orbit_ree_sign_slip(self):
        assert evaluate(QuotientSpec.make("RE-C3", P27, r=1, j=1, n=19)).genus == 3627
        # the Ree constant's 3 q0 term carries a sign slip: 3618, not 3627
        shown = self.displayed(P27, order=19, l=19, g_bar=3627)
        assert shown == 3618
        # -3 q0 in place of +3 q0 adds l 6 q0 / 2|L| and gives the record's genus
        assert shown + Fraction(19 * 6 * P27.q0, 2 * 19) == 3627


class TestTable1:
    def test_f3_18_contained(self):
        contained, missing = table1_check("F_3^18")
        assert contained and missing == []

    def test_f2_12_known_gap(self):
        # exhaustive analysis shows genus 13 is not a quotient genus at q=8;
        # the bundled row retains the published value and the gap is reported
        contained, missing = table1_check("F_2^12")
        assert missing == [13]

    def test_f2_20_known_gap(self):
        contained, missing = table1_check("F_2^20")
        assert missing == [247]

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            table1_check("F_5^4")


def test_divisors_match_trial_division():
    for n in range(-2, 5001):
        got = cat.divisors(n)
        assert got == [d for d in range(1, n + 1) if n % d == 0]
    first, second = cat.divisors(12), cat.divisors(12)
    first.append(0)
    assert second == [1, 2, 3, 4, 6, 12]
