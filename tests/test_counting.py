import functools
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from maxcurve import counting, gf
from maxcurve.cli import count_results
from maxcurve.counting import CountReport, _fibres, _indices, _streamed_count, count_points
from maxcurve.curves import Family, genus, hasse_weil_target, params_from_s
from maxcurve.gf import FieldError, default_modulus, is_irreducible, make_field

P8 = params_from_s("suzuki-cover", 1)
P32 = params_from_s("suzuki-cover", 2)
P27 = params_from_s("ree-cover", 1)


def brute_force_suzuki(r: int) -> int:
    """Independent oracle: count solutions of each defining equation by
    direct enumeration over the extension field, no trace or residue logic."""
    q, q0, m = 8, 2, 5
    f = make_field(2, 3 * r)
    n_y = np.zeros(f.order, dtype=np.int64)
    n_t = np.zeros(f.order, dtype=np.int64)
    s = {x: f.pow(x, q) ^ x for x in range(f.order)}
    rhs = {x: f.mul(f.pow(x, q0), s[x]) for x in range(f.order)}
    for x in range(f.order):
        for y in range(f.order):
            if f.pow(y, q) ^ y == rhs[x]:
                n_y[x] += 1
        for t in range(f.order):
            if f.pow(t, m) == s[x]:
                n_t[x] += 1
    return 1 + int((n_y * n_t).sum())


def brute_force_ree_base_field() -> int:
    q, q0, m = 27, 3, 19
    f = make_field(3, 3)
    total = 0
    for x in range(f.order):
        u = f.sub(f.pow(x, q), x)
        c_y = f.mul(f.pow(x, q0), u)
        c_z = f.mul(f.pow(x, 2 * q0), u)
        ny = sum(1 for y in range(f.order) if f.sub(f.pow(y, q), y) == c_y)
        nz = sum(1 for z in range(f.order) if f.sub(f.pow(z, q), z) == c_z)
        nt = sum(1 for t in range(f.order) if f.pow(t, m) == u)
        total += ny * nz * nt
    return 1 + total


class TestSuzukiCounts:
    def test_base_field(self):
        rep = count_points("suzuki-cover", P8, 1)
        assert rep.n_points == 65 == P8.q**2 + 1
        assert rep.t0_affine == 64

    def test_quadratic_extension(self):
        assert count_points("suzuki-cover", P8, 2).n_points == 65

    def test_maximal_extension(self):
        rep = count_points("suzuki-cover", P8, 4)
        assert rep.n_points == 29185 == hasse_weil_target(4096, 196)
        assert rep.is_maximal
        assert rep.t0_affine == 64 == P8.q**2

    def test_brute_force_oracle_r1(self):
        assert brute_force_suzuki(1) == 65

    def test_brute_force_oracle_r2(self):
        assert brute_force_suzuki(2) == 65

    def test_base_curve_is_maximal_too(self):
        rep = count_points("suzuki-base", P8, 4)
        assert rep.n_points == 4096 + 1 + 2 * 14 * 64 == 5889
        assert rep.is_maximal

    def test_q32(self):
        rep = count_points("suzuki-cover", P32, 4, threads=1)
        assert rep.n_points == 2**20 + 1 + 2 * 15376 * 2**10
        assert rep.is_maximal

    def test_non_square_extension_not_applicable(self):
        rep = count_points("suzuki-cover", P8, 1)
        assert rep.hw_target is None
        assert not rep.is_maximal
        assert "not a perfect square" in rep.note


class TestReeCounts:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_small_extensions(self, r):
        rep = count_points("ree-cover", P27, r)
        assert rep.n_points == 19684 == P27.q**3 + 1

    def test_t0_plane(self):
        rep = count_points("ree-cover", P27, 3)
        assert rep.t0_affine == P27.q**3

    def test_brute_force_oracle(self):
        assert brute_force_ree_base_field() == 19684

    def test_base_curve_base_field(self):
        assert count_points("ree-base", P27, 1).n_points == 19684


class TestGuards:
    """gf's SUPPORTED_DEGREES is the one limit: a count over F_{q^r} needs
    GF(p^((2s+1) r)), and make_field refuses a field beyond it."""

    def test_unsupported_extension(self):
        with pytest.raises(FieldError, match=r"unsupported field GF\(2\^21\)"):
            count_points("suzuki-cover", P8, 7)

    @pytest.mark.parametrize("family", ["ree-cover", "ree-base"])
    def test_degree_six_supported(self, family):
        params = params_from_s(family, 1)
        assert count_points(family, params, 5).ell == 3**15
        with pytest.raises(FieldError, match=r"unsupported field GF\(3\^21\)"):
            count_points(family, params, 7)

    def test_desk_scale_guard(self):
        with pytest.raises(FieldError, match=r"unsupported field GF\(2\^28\)"):
            count_points("suzuki-cover", params_from_s("suzuki-cover", 3), 4)


def test_thread_count_invariance():
    values = {count_points("suzuki-cover", P8, 4, threads=t).n_points for t in (1, 2, 4)}
    assert values == {29185}
    values = {count_points("ree-cover", P27, 3, threads=t).n_points for t in (1, 3)}
    assert values == {19684}


def _alternative_modulus_2_12():
    code_default = default_modulus(2, 12)
    for cand in range(1, 4096):
        tail = tuple((cand >> i) & 1 for i in range(12))
        mod = tail + (1,)
        if mod != code_default and is_irreducible(mod, 2):
            return mod


def test_alternative_modulus_reproduces_count():
    alt = _alternative_modulus_2_12()
    rep = count_points("suzuki-cover", P8, 4, modulus=alt)
    assert rep.modulus == alt
    assert rep.n_points == 29185


DESK_JOBS = [
    ("suzuki-cover", 1, 1),
    ("suzuki-cover", 1, 2),
    ("suzuki-cover", 1, 4),
    ("suzuki-base", 1, 4),
    ("suzuki-cover", 2, 4),
    ("suzuki-base", 2, 4),
    ("ree-cover", 1, 1),
    ("ree-cover", 1, 2),
    ("ree-cover", 1, 3),
    ("ree-base", 1, 3),
]


# every (family, s, r) whose field GF(p^((2s+1) r)) gf supports: 72 counts
ADMITTED_JOBS = [
    (family.value, s, r)
    for family in Family
    for s in range(1, (gf.SUPPORTED_DEGREES[family.char] - 1) // 2 + 1)
    for r in range(1, gf.SUPPORTED_DEGREES[family.char] // (2 * s + 1) + 1)
]
# streaming every x beyond this field order would take tier-1 too long
STREAMED_ORDER_LIMIT = 1 << 21
# test_ree_maximal_over_degree_six counts these two and checks more; their
# fields lie above STREAMED_ORDER_LIMIT, so test_matches_streamed_sum would
# only count them a second time
DEGREE_SIX_JOBS = [("ree-cover", 1, 6), ("ree-base", 1, 6)]


# test_representatives_match_span_oracle covers the jobs with at most this
# many representatives
REPRESENTATIVE_LIMIT = 1 << 16


def t0_oracle(family: str, s: int, r: int) -> int:
    """The sum of f over every x of the field where u = x^q - x vanishes,
    u formed with FieldSpec's array ops: the t = 0 places, found without
    the orbit argument that u = 0 exactly on F_q."""
    params = params_from_s(family, s)
    field = make_field(Family(family).char, (2 * s + 1) * r)
    xs = np.arange(field.order, dtype=np.int64)
    zero = xs[field.vsub(field.vpow(xs, params.q), xs) == 0]
    return int(_fibres(field, params, zero, params.m if Family(family).is_cover else 1).sum())


def span_oracle(field, q: int, r: int) -> np.ndarray:
    """Code 0, then one x_P per point P of P^{r-2}(F_q), built as spans:
    for each j, g^j plus every sum of c_i g^i over i < j, with g^j by scalar
    pow and F_q listed by subfield_codes.  The reference for the index map
    of count_points (FieldSpec.vspan over the indices of every rank)."""
    sub = np.array(field.subfield_codes(field.k // r), dtype=np.int64) if r > 2 else None
    reps = [np.zeros(1, dtype=np.int64)]
    span = reps[0]  # every sum of c_i g^i over 1 <= i < j
    for j in range(1, r):
        gj = field.pow(field.gen, j)
        reps.append(field.vadd(span, gj))
        if j < r - 1:
            span = field.vadd(span[:, None], field.vmul(sub, gj)).reshape(-1)
    return np.concatenate(reps)


def _representatives(family, s, r) -> int:
    q = Family(family).char ** (2 * s + 1)
    return _reps(q, r)


def _reps(q: int, r: int) -> int:
    return 1 + (q ** (r - 1) - 1) // (q - 1)


def rank_oracle(q: int, r: int) -> np.ndarray:
    """The indices of count_points' representatives in rank order: 0, then
    the blocks [q^j, 2 q^j) for j = 0..r-2."""
    return np.concatenate([[0]] + [np.arange(q**j, 2 * q**j) for j in range(r - 1)]).astype(np.int64)


# the covers whose Kummer factor is 1 at every x: gcd(m, ell - 1) = 1, so
# t -> t^m is a bijection of F_ell^* and _fibres skips the power-residue test
BIJECTIVE_KUMMER_JOBS = [
    (family, s, r) for family, s, r in ADMITTED_JOBS
    if Family(family).is_cover
    and math.gcd(params_from_s(family, s).m, Family(family).char ** ((2 * s + 1) * r) - 1) == 1
]


@functools.cache
def admitted_count(family: str, s: int, r: int) -> CountReport:
    """count_points of an admitted job on one thread, once per session: the
    streamed-sum test and the zeta test read the same reports."""
    return count_points(family, params_from_s(family, s), r, threads=1)


class TestOrbitReduction:
    """The orbit-reduced count against the streamed sum over every x."""

    @pytest.mark.parametrize("family,s,r", [job for job in ADMITTED_JOBS if job not in DEGREE_SIX_JOBS])
    def test_matches_streamed_sum(self, family, s, r):
        """Every admitted count runs; up to STREAMED_ORDER_LIMIT elements it
        equals the streamed sum (count_points itself checks Hasse-Weil)."""
        rep = admitted_count(family, s, r)
        if rep.ell <= STREAMED_ORDER_LIMIT:
            streamed = _streamed_count(family, params_from_s(family, s), r)
            assert (rep.n_points, rep.t0_affine) == streamed
            assert streamed[1] == t0_oracle(family, s, r)

    @pytest.mark.parametrize("family,s,r", DESK_JOBS)
    def test_digit_path_matches_tables(self, family, s, r, monkeypatch):
        params = params_from_s(family, s)
        tabled = count_points(family, params, r, threads=1)
        monkeypatch.setattr(gf, "TABLE_LIMIT", 0)
        digits = count_points(family, params, r, threads=1)
        assert (digits.n_points, digits.t0_affine) == (tabled.n_points, tabled.t0_affine)

    def test_matches_streamed_sum_alternative_modulus(self):
        alt = _alternative_modulus_2_12()
        for family in ("suzuki-cover", "suzuki-base"):
            rep = count_points(family, P8, 4, modulus=alt)
            assert (rep.n_points, rep.t0_affine) == _streamed_count(family, P8, 4, modulus=alt)

    @pytest.mark.parametrize("family,s,r", [job for job in ADMITTED_JOBS
                                            if _representatives(*job) <= REPRESENTATIVE_LIMIT])
    def test_representatives_match_span_oracle(self, family, s, r):
        """The index map gives the span construction's representatives, each
        once, with 0 first, and the count evaluates as many."""
        params = params_from_s(family, s)
        field = make_field(Family(family).char, (2 * s + 1) * r)
        codes = field.vspan(_indices(0, _reps(params.q, r), params.q), 2 * s + 1)
        oracle = span_oracle(field, params.q, r)
        assert codes[0] == 0 and len(np.unique(codes)) == len(codes)
        assert np.array_equal(np.sort(codes), np.sort(oracle))
        assert count_points(family, params, r, threads=1).elements_evaluated == len(oracle)

    def test_representatives_match_span_oracle_alternative_modulus(self):
        field = make_field(2, 12, _alternative_modulus_2_12())
        codes = field.vspan(_indices(0, _reps(8, 4), 8), 3)
        assert codes[0] == 0 and len(np.unique(codes)) == len(codes) == 74
        assert np.array_equal(np.sort(codes), np.sort(span_oracle(field, 8, 4)))

    @pytest.mark.parametrize("r", range(1, 7))
    @pytest.mark.parametrize("q", [8, 27, 32])
    def test_rank_map(self, q, r, monkeypatch):
        """Rank 0 maps to index 0 and the ranks after it to the blocks
        [q^j, 2 q^j) in order, also job by job: with CHUNK = 100 the cuts fall
        inside blocks, and with CHUNK = q + 2 the first cut falls at the end
        of the block [q, 2q)."""
        reps = _reps(q, r)
        expected = rank_oracle(q, r)
        assert len(expected) == reps
        assert np.array_equal(_indices(0, reps, q), expected)
        for chunk in (100, q + 2):
            monkeypatch.setattr(counting, "CHUNK", chunk)
            jobs = [_indices(lo, min(lo + counting.CHUNK, reps), q) for lo in range(0, reps, counting.CHUNK)]
            assert np.array_equal(np.concatenate(jobs), expected)

    @pytest.mark.parametrize("family,s,r", BIJECTIVE_KUMMER_JOBS)
    def test_bijective_kummer_factor_is_one(self, family, s, r):
        """Where gcd(m, ell - 1) = 1 the cover has as many places as the base
        curve, at t = 0 and in all."""
        base = family.replace("cover", "base")
        cover_rep = count_points(family, params_from_s(family, s), r, threads=1)
        base_rep = count_points(base, params_from_s(base, s), r, threads=1)
        assert (cover_rep.n_points, cover_rep.t0_affine) == (base_rep.n_points, base_rep.t0_affine)

    def test_bijective_kummer_jobs(self):
        # the three covers left out are maximal, and their m divides ell - 1
        assert len(BIJECTIVE_KUMMER_JOBS) == 33
        assert {job for job in ADMITTED_JOBS if Family(job[0]).is_cover} - set(BIJECTIVE_KUMMER_JOBS) == {
            ("suzuki-cover", 1, 4), ("suzuki-cover", 2, 4), ("ree-cover", 1, 6)}

    @pytest.mark.parametrize("modulus", [None, "alt"])
    def test_orbits_partition_the_field(self, modulus):
        """F_8 and the orbits of the x_P under x -> lam*x + a tile GF(2^12)."""
        f = make_field(2, 12, _alternative_modulus_2_12() if modulus else None)
        sub = f.subfield_codes(3)
        codes = [int(c) for c in f.vspan(_indices(0, _reps(8, 4), 8), 3)]
        assert codes[0] == 0 and len(codes) == 1 + 73
        seen = set(sub)
        for x in codes[1:]:
            orbit = {f.mul(lam, x) ^ a for lam in sub[1:] for a in sub}
            assert len(orbit) == 8 * 7 and not orbit & seen
            seen |= orbit
        assert len(seen) == f.order

    def test_elements_evaluated(self):
        assert count_points("suzuki-cover", P32, 4, threads=1).elements_evaluated == 1058
        assert count_points("ree-cover", P27, 3).elements_evaluated == 29

    def test_jobs_split_across_threads(self, monkeypatch):
        monkeypatch.setattr(counting, "CHUNK", 100)
        for t in (1, 2):
            rep = count_points("suzuki-cover", P32, 4, threads=t)
            assert (rep.n_points, rep.t0_affine) == (32538625, 1024)

    @pytest.mark.parametrize("family,n_points", [("ree-cover", 10073464156), ("ree-base", 530200972)])
    def test_ree_maximal_over_degree_six(self, family, n_points):
        rep = count_points(family, params_from_s(family, 1), 6, threads=2)
        assert rep.n_points == n_points == rep.hw_target
        assert rep.is_maximal and rep.t0_affine == 27**3
        assert rep.elements_evaluated == 1 + (27**5 - 1) // 26
        # the count record's `results`, hashed as in test_cli's results pins
        results = json.dumps(count_results(rep), sort_keys=True) + "\n"
        digest = {"ree-cover": "9e7581e908e7", "ree-base": "92675ee11ed8"}[family]
        assert hashlib.sha256(results.encode()).hexdigest()[:12] == digest


# Maximality over F_{q^4} (Suzuki) or F_{q^6} (Ree) leaves Frobenius the
# eigenvalues sqrt(q) z with z^4 = -1 resp. z^6 = -1, in conjugate pairs.
# One of each pair, divided by 2^s resp. 3^s, as (a, b): the Gaussian
# integers a + b i for z = e^(i pi/4), e^(3i pi/4), and the Eisenstein
# integers a + b w, w = e^(2i pi/3), for z = e^(i pi/6), e^(i pi/2), e^(5i pi/6).
EIGENVALUES = {2: [(1, 1), (-1, 1)], 3: [(2, 1), (1, 2), (-1, 1)]}
# the curves whose first len(EIGENVALUES) - 1 counts are admitted, so that
# they fix the multiplicities: every Suzuki s, and Ree up to s = 4 (N_2 of
# ree s >= 5 lies past SUPPORTED_DEGREES)
ZETA_CURVES = sorted({(family, s) for family, s, _ in ADMITTED_JOBS
                      if (family, s, len(EIGENVALUES[Family(family).char]) - 1) in ADMITTED_JOBS})
ZETA_MULTIPLICITIES = {
    ("suzuki-base", 1): (0, 14),
    ("suzuki-base", 2): (0, 124),
    ("suzuki-cover", 1): (91, 105),
    ("suzuki-cover", 2): (7626, 7750),
    ("ree-base", 1): (0, 1443, 2184),
    ("ree-base", 2): (0, 295119, 531432),
    ("ree-cover", 1): (80808, 82251, 82992),
    ("ree-cover", 2): (576072288, 576367407, 576603720),
}


def eigenvalue_trace(p: int, s: int, alpha: tuple[int, int], r: int) -> int:
    """(p^s alpha)^r plus its conjugate, alpha = a + b i (p = 2) or a + b w
    (p = 3), in integer arithmetic: i^2 = -1, w^2 = -1 - w."""
    a, b = 1, 0
    c, d = alpha
    for _ in range(r):
        a, b = a * c - b * d, a * d + b * c - (b * d if p == 3 else 0)
    return p ** (s * r) * (2 * a - (b if p == 3 else 0))


def solve_exact(rows: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """The solution of a square nonsingular integer system, by Gauss-Jordan
    elimination over the rationals."""
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(rows, rhs)]
    for c in range(len(m)):
        pivot = next(r for r in range(c, len(m)) if m[r][c])
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(len(m)):
            if r != c:
                m[r] = [x - m[r][c] * y for x, y in zip(m[r], m[c])]
    return [row[-1] for row in m]


@pytest.mark.parametrize("family,s", ZETA_CURVES)
def test_counts_match_the_zeta_function_of_maximality(family, s):
    """N_1 (Suzuki), or N_1 and N_2 (Ree), and the genus fix the
    multiplicities of the eigenvalues, which must be nonnegative integers;
    then every other admitted N_r is q^r + 1 - sum of m Tr(alpha^r)."""
    p, params = Family(family).char, params_from_s(family, s)
    q, alphas = params.q, EIGENVALUES[p]
    counts = {r: admitted_count(family, s, r).n_points
              for fam, s_, r in ADMITTED_JOBS if (fam, s_) == (family, s)}
    fixed = range(1, len(alphas))
    mults = solve_exact([[1] * len(alphas)] + [[eigenvalue_trace(p, s, a, r) for a in alphas] for r in fixed],
                        [genus(params)] + [q**r + 1 - counts[r] for r in fixed])
    assert all(x.denominator == 1 and x >= 0 for x in mults), mults
    mults = tuple(int(x) for x in mults)
    assert sum(mults) == genus(params)
    if (family, s) in ZETA_MULTIPLICITIES:
        assert mults == ZETA_MULTIPLICITIES[(family, s)]
    for r, n in counts.items():
        assert n == q**r + 1 - sum(x * eigenvalue_trace(p, s, a, r) for x, a in zip(mults, alphas)), r


@pytest.mark.parametrize("family,s,r,tabled", [
    pytest.param(family, s, r, tabled, id=f"{family}-{s}-{r}" + ("" if tabled else "-past-limit"))
    for tabled in (True, False)
    for family, s, r in (("suzuki-cover", 2, 4), ("ree-cover", 1, 3), ("ree-cover", 1, 1))])
def test_threaded_count_builds_no_cache(family, s, r, tabled, monkeypatch):
    """After precompute(d), the threads of a count share the field read-only:
    no lazy cache (exp/log tables, Frobenius tables, trace tables, span
    tables, and in characteristic 3 the chunk sum tables) is created or
    replaced during the count, on F_{2^20} and F_{3^9}, and on F_27, where
    d = k and no trace tables are built; on the exp/log tables and, with
    TABLE_LIMIT forced to 0, on the past-limit path."""
    if not tabled:
        monkeypatch.setattr(gf, "TABLE_LIMIT", 0)
    monkeypatch.setattr(counting, "CHUNK", 8)  # many jobs, so the pool runs
    params = params_from_s(family, s)
    field = make_field(Family(family).char, (2 * s + 1) * r)
    field.precompute(2 * s + 1)
    before, traces, spans = dict(vars(field)), dict(field._traces), dict(field._spans)
    sums_built = gf._trit_tables.cache_info().misses
    count_points(family, params, r, threads=2)
    assert gf._trit_tables.cache_info().misses == sums_built
    after = vars(field)
    assert after.keys() == before.keys() and all(after[name] is value for name, value in before.items())
    assert field._traces.keys() == traces.keys()
    assert all(field._traces[d] is tables for d, tables in traces.items())
    assert field._spans.keys() == spans.keys()
    assert all(field._spans[d] is tables for d, tables in spans.items())


def test_report_fields():
    rep = count_points("suzuki-cover", P8, 4)
    assert isinstance(rep, CountReport)
    assert rep.ell == 4096
    assert rep.n_points <= rep.hw_target  # Hasse-Weil upper bound
    assert rep.wall_time >= 0
    assert genus(rep.params) == 196
    assert rep.threads == counting.default_threads()
    assert list(rep.stages) == ["tables", "kernel", "reduction"]


class TestDigitFieldEngine:
    """The digit-array arithmetic of tableless fields, which runs the
    degree-6 Ree count, validated against scalar field arithmetic."""

    def test_long_kernel_slice_matches_scalar(self):
        f = make_field(3, 18)
        q, q0, m = 27, 3, 19
        orbit = f.vspan(_indices(0, _reps(q, 6), q), 3)
        assert len(orbit) == 1 + 1 + 27 + 27**2 + 27**3 + 27**4
        # a streamed range, the first and last orbit representatives, and a
        # block of the orbit set: every x of the first 105 and every x with a
        # nonzero fibre is checked.  The block is centred on position 20441,
        # where the indices [27^3, 2 27^3) give way to [27^4, 2 27^4)
        lo = 3**9 + 12345
        xs = np.concatenate([np.arange(lo, lo + 60), orbit[:3], orbit[-2:], orbit[18393:22489]])
        contrib = _fibres(f, P27, xs, m)
        checked = [i for i in range(len(xs)) if i < 105 or contrib[i]]
        assert len(checked) > 110
        expected = []
        exp_kummer = (f.order - 1) // 19
        for x in xs[checked].tolist():
            u = f.sub(f.pow(x, q), x)
            cy = f.mul(f.pow(x, q0), u)
            cz = f.mul(f.pow(x, 2 * q0), u)
            ty = cy
            acc_y, acc_z = cy, cz
            tz = cz
            for _ in range(5):
                ty, tz = f.pow(ty, q), f.pow(tz, q)
                acc_y, acc_z = f.add(acc_y, ty), f.add(acc_z, tz)
            ny = q if acc_y == 0 else 0
            nz = q if acc_z == 0 else 0
            if u == 0:
                nt = 1
            else:
                nt = 19 if f.pow(u, exp_kummer) == 1 else 0
            expected.append(ny * nz * nt)
        assert contrib[checked].tolist() == expected
