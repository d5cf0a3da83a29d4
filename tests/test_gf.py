import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcurve import gf
from maxcurve.gf import FieldError, default_modulus, is_irreducible, make_field, subfield_trace

F2_12 = make_field(2, 12)
F3_6 = make_field(3, 6)


def test_make_field_examples():
    assert make_field(2, 1).order == 2
    assert F2_12.order == 4096
    assert make_field(3, 18).order == 3**18


def test_make_field_rejects_bad_parameters():
    with pytest.raises(FieldError):
        make_field(5, 3)
    with pytest.raises(FieldError):
        make_field(2, 21)
    with pytest.raises(FieldError):
        make_field(3, 19)
    # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(FieldError):
        make_field(2, 2, modulus=(1, 0, 1))


def test_field_spec_rejects_bad_parameters():
    # make_field checks p and k before it builds a FieldSpec, so call the
    # constructor directly
    with pytest.raises(FieldError, match="unsupported characteristic 5"):
        gf.FieldSpec(5, 1, (0, 1))
    for k in (0, 21):
        with pytest.raises(FieldError, match=f"unsupported degree {k} for p=2"):
            gf.FieldSpec(2, k, (1,) * (k + 1))
    # 2x^2 + 1 over GF(3) has degree 2 but is not monic
    with pytest.raises(FieldError, match="monic of degree k"):
        gf.FieldSpec(3, 2, (1, 0, 2))


def test_tables_refuse_fields_above_the_table_limit():
    big = make_field(3, 18)
    assert big.order > gf.TABLE_LIMIT
    with pytest.raises(FieldError, match="too large for tables"):
        big.tables()


def test_default_moduli_are_irreducible():
    for p, kmax in ((2, 20), (3, 18)):
        for k in range(1, kmax + 1):
            mod = default_modulus(p, k)
            assert len(mod) == k + 1 and mod[-1] == 1
            assert is_irreducible(mod, p)


@given(st.integers(0, 4095), st.integers(0, 4095), st.integers(0, 4095))
@settings(max_examples=300, deadline=None)
def test_axioms_char2(a, b, c):
    f = F2_12
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.mul(a, b) == f.mul(b, a)


@given(st.integers(0, 728), st.integers(0, 728), st.integers(0, 728))
@settings(max_examples=150, deadline=None)
def test_axioms_char3(a, b, c):
    f = F3_6
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.sub(a, a) == 0
    assert f.add(a, f.sub(0, a)) == 0


@pytest.mark.parametrize("f", [F2_12, F3_6], ids=["GF(2^12)", "GF(3^6)"])
def test_axioms_bulk_random(f):
    # 10^4 random triples per field: associativity, commutativity,
    # distributivity, all through the scalar arithmetic
    rng = np.random.default_rng(7)
    triples = rng.integers(0, f.order, size=(10_000, 3))
    for a, b, c in map(tuple, triples):
        a, b, c = int(a), int(b), int(c)
        ab = f.mul(a, b)
        assert ab == f.mul(b, a)
        assert f.mul(ab, c) == f.mul(a, f.mul(b, c))
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(ab, f.mul(a, c))


def test_inverse_and_lagrange():
    rng = np.random.default_rng(11)
    for f in (F2_12, F3_6):
        for _ in range(200):
            a = int(rng.integers(1, f.order))
            assert f.mul(a, f.inv(a)) == 1
            assert f.pow(a, f.order - 1) == 1
            assert f.pow(a, f.order) == a  # Frobenius power of the full field
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_frobenius_is_additive_and_multiplicative():
    rng = np.random.default_rng(3)
    for f in (F2_12, F3_6):
        p = f.p
        for _ in range(200):
            a, b = int(rng.integers(0, f.order)), int(rng.integers(0, f.order))
            assert f.frobenius(f.add(a, b)) == f.add(f.frobenius(a), f.frobenius(b))
            assert f.frobenius(f.mul(a, b)) == f.mul(f.frobenius(a), f.frobenius(b))
            assert f.frobenius(a) == f.pow(a, p)


@pytest.mark.parametrize("f,divs", [(F2_12, (1, 2, 3, 4, 6, 12)), (F3_6, (1, 2, 3, 6))])
def test_fixed_field_sizes(f, divs):
    for d in divs:
        fixed = [c for c in range(f.order) if f.frobenius(c, d) == c]
        assert len(fixed) == f.p**d
        assert sorted(fixed) == f.subfield_codes(d)


def test_subfield_codes_reject_a_non_subfield_degree():
    with pytest.raises(FieldError, match="5 does not divide 12"):
        F2_12.subfield_codes(5)


def test_tableless_subfield_codes():
    f = make_field(3, 18)
    for d in (1, 2, 3, 6):
        codes = f.subfield_codes(d)
        assert len(set(codes)) == 3**d and codes == sorted(codes)
        assert all(f.frobenius(c, d) == c for c in codes[:30])


class TestSubfieldTrace:
    def test_trace_of_zero(self):
        assert subfield_trace(F2_12, 0, 3) == 0

    def test_linearity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = int(rng.integers(0, 4096)), int(rng.integers(0, 4096))
            assert subfield_trace(F2_12, a ^ b, 3) == subfield_trace(F2_12, a, 3) ^ subfield_trace(F2_12, b, 3)

    def test_lands_in_subfield(self):
        for code in range(0, 4096, 37):
            t = subfield_trace(F2_12, code, 3)
            assert F2_12.frobenius(t, 3) == t

    def test_zero_trace_count_exhaustive(self):
        # oracle: full enumeration; the trace-zero set is a hyperplane
        count = sum(1 for c in range(F2_12.order) if subfield_trace(F2_12, c, 3) == 0)
        assert count == 2**9

    def test_bad_degree(self):
        with pytest.raises(FieldError):
            subfield_trace(F2_12, 1, 5)


def artin_schreier_histogram(f, d):
    """Per c, the number of y with y^q - y = c, q = p^d: the scalar map run
    over the whole field."""
    q = f.p**d
    return np.bincount([f.sub(f.pow(y, q), y) for y in range(f.order)], minlength=f.order)


def power_histogram(f, m):
    """Per s, the number of t with t^m = s: the scalar map run over the
    whole field."""
    return np.bincount([f.pow(t, m) for t in range(f.order)], minlength=f.order)


def artin_schreier_counts(f, d):
    """Per c, the solution count of y^q - y = c, q = p^d, as counting._fibres
    takes it: q where vtrace(c, d) vanishes, else 0."""
    return np.where(f.vtrace(np.arange(f.order), d) == 0, f.p**d, 0)


def root_counts(f, m):
    """Per s, the root count of t^m = s as counting._fibres takes it: for
    s != 0, gcd(m, l-1) where vpow(s, (l-1)/gcd(m, l-1)) == 1, else 0."""
    dk = math.gcd(m, f.order - 1)
    codes = np.arange(f.order)
    return np.where(codes == 0, 1, np.where(f.vpow(codes, (f.order - 1) // dk) == 1, dk, 0))


class TestArtinSchreierCount:
    def test_kernel_value(self):
        assert artin_schreier_counts(F2_12, 3)[0] == 8
        assert artin_schreier_counts(F3_6, 3)[0] == 27

    def test_total_mass(self):
        # the map y -> y^q - y is q-to-1 onto its image
        assert artin_schreier_counts(F2_12, 3).sum() == 4096
        assert artin_schreier_counts(F3_6, 3).sum() == 729

    def test_exhaustive_oracle_gf2(self):
        # oracle: the histogram of y -> y^8 + y, every y of the field
        images = artin_schreier_histogram(F2_12, 3)
        assert np.array_equal(artin_schreier_counts(F2_12, 3), images)
        assert int((images == 8).sum()) == 2**9

    def test_exhaustive_oracle_gf3(self):
        assert np.array_equal(artin_schreier_counts(F3_6, 3), artin_schreier_histogram(F3_6, 3))

    def test_bad_subfield(self):
        with pytest.raises(FieldError):
            artin_schreier_counts(F2_12, 5)  # q = 32 = 2^5, and 5 does not divide 12


class TestMthRootCount:
    def test_zero_and_one(self):
        assert root_counts(F2_12, 5)[0] == 1
        assert root_counts(F2_12, 5)[1] == 5

    def test_total_mass(self):
        assert root_counts(F2_12, 5).sum() == 4096

    def test_exhaustive_oracle(self):
        # oracle: the histogram of t -> t^m, every t of the field
        for f, m in ((F2_12, 5), (F3_6, 7)):
            assert np.array_equal(root_counts(f, m), power_histogram(f, m)), (f, m)

    def test_m_prime_to_order(self):
        # gcd(11, 4095) = 1: t -> t^11 permutes the field
        counts = root_counts(F2_12, 11)
        assert np.array_equal(counts, power_histogram(F2_12, 11)) and (counts == 1).all()


def _alternative_modulus_2_12():
    """The next irreducible of degree 12 after the default modulus."""
    code = default_modulus(2, 12)
    start = sum(c << i for i, c in enumerate(code[:-1])) + 1
    for cand in range(start, 4096):
        tail = tuple((cand >> i) & 1 for i in range(12))
        mod = tail + (1,)
        if is_irreducible(mod, 2):
            return mod
    return None


def test_alternative_modulus_same_counts():
    # the counting results are basis independent; rerun the exhaustive
    # Artin-Schreier and Kummer checks under a different irreducible
    alt = _alternative_modulus_2_12()
    assert alt is not None and alt != default_modulus(2, 12)
    f = make_field(2, 12, alt)
    images = artin_schreier_histogram(f, 3)
    assert np.array_equal(artin_schreier_counts(f, 3), images)
    assert int((images == 8).sum()) == 2**9
    assert np.array_equal(root_counts(f, 5), power_histogram(f, 5))


class TestArrayLayer:
    """FieldSpec's array arithmetic against its scalar arithmetic, on the
    exp/log tables and, with TABLE_LIMIT forced to 0, on digit arrays."""

    @staticmethod
    def check(f, n, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, f.order, n, dtype=np.int64)
        b = rng.integers(0, f.order, n, dtype=np.int64)
        a[:3], b[3:6] = 0, 0
        # every pair of the code whose digits are all p - 1 and its products
        # with x^(k-1): on digit arrays, the largest unreduced rows of a product
        top, x_top = f.order - 1, f.p ** (f.k - 1)
        extreme = [top, f.mul(top, x_top), f.mul(f.mul(top, x_top), x_top)]
        a = np.concatenate([a, np.repeat(extreme, len(extreme))])
        b = np.concatenate([b, np.tile(extreme, len(extreme))])
        pairs = list(zip(a.tolist(), b.tolist()))
        assert f.vmul(a, b).tolist() == [f.mul(x, y) for x, y in pairs]
        assert f.vmul(a, int(b[7])).tolist() == [f.mul(x, int(b[7])) for x, _ in pairs]
        assert f.vadd(a, b).tolist() == [f.add(x, y) for x, y in pairs]
        assert f.vsub(a, b).tolist() == [f.sub(x, y) for x, y in pairs]
        units = np.where(a == 0, 1, a)
        frobenius = [f.p**j for j in range(f.k)]
        for e in (0, 1, 2, *frobenius, 7, (f.order - 1) // 2, f.order - 1, f.order, -1, -5):
            base = a if e >= 0 else units
            assert f.vpow(base, e).tolist() == [f.pow(x, e) for x in base.tolist()], e
        x, y = int(a[7]), int(b[8])
        assert (int(f.vmul(x, y)), int(f.vpow(x, 5)), int(f.vsub(x, y))) == (f.mul(x, y), f.pow(x, 5), f.sub(x, y))
        for d in range(1, f.k + 1):
            if f.k % d == 0:
                assert f.vtrace(a, d).tolist() == [subfield_trace(f, x, d) for x in a.tolist()], d

    @pytest.mark.parametrize("p,k", [(2, 12), (3, 9)])
    def test_tabled(self, p, k):
        self.check(make_field(p, k), 200, k)

    def test_tableless_gf3_18_sample(self):
        f = make_field(3, 18)
        self.check(f, 40, 18)
        # the Kummer exponent of the degree-6 Ree count: 16 base-3 digits,
        # which sum to 18, so 15 Frobenius steps and 17 products
        a = np.random.default_rng(19).integers(1, f.order, 40, dtype=np.int64)
        e = (f.order - 1) // 19
        assert f.vpow(a, e).tolist() == [f.pow(x, e) for x in a.tolist()]

    @pytest.mark.parametrize("p,k", [(2, 12), (3, 6), (2, 20)])
    def test_digit_path_of_tabled_fields(self, p, k, monkeypatch):
        monkeypatch.setattr(gf, "TABLE_LIMIT", 0)
        self.check(make_field(p, k), 300, k + 1)

    def test_broadcasting(self):
        f = F3_6
        a, b = np.arange(5)[:, None], np.arange(100, 103)
        assert f.vadd(a, b).tolist() == [[f.add(x, y) for y in range(100, 103)] for x in range(5)]
        assert f.vmul(a, b).tolist() == [[f.mul(x, y) for y in range(100, 103)] for x in range(5)]

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            F2_12.vpow(np.array([3, 0]), -1)

    def test_bad_trace_degree(self):
        with pytest.raises(FieldError):
            F2_12.vtrace(np.arange(4), 5)

    @pytest.mark.parametrize("p", [2, 3])
    def test_trace_to_the_field_itself_is_the_identity(self, p):
        f = gf.FieldSpec(p, 6, default_modulus(p, 6))  # fresh, so no cache is shared
        codes = np.arange(f.order)
        assert f.vtrace(codes, 6).tolist() == codes.tolist()
        assert f._traces == {}

    @pytest.mark.parametrize("d,traced", [(3, [3]), (12, [])])
    def test_precompute_builds_only_the_count_tables(self, d, traced):
        f = gf.FieldSpec(2, 12, default_modulus(2, 12))
        f.precompute(d)
        assert list(f._traces) == traced and list(f._spans) == traced
        assert f._frobenius is None  # read past TABLE_LIMIT only
        with pytest.raises(FieldError):
            f.precompute(5)


class TestArrayLayerExhaustive:
    """vadd, vsub, vmul, vpow and vtrace on every element of F_{2^6} and
    F_{3^4}, on the exp/log tables and, with TABLE_LIMIT forced to 0, on
    digit arrays, element by element against the scalar add, sub, mul, pow
    and subfield_trace."""

    @pytest.fixture(params=[(2, 6), (3, 4)], ids=["gf2_6", "gf3_4"])
    def field(self, request):
        return make_field(*request.param)

    @pytest.fixture(params=["tables", "digits"], autouse=True)
    def path(self, request, monkeypatch):
        if request.param == "digits":
            monkeypatch.setattr(gf, "TABLE_LIMIT", 0)

    def test_vadd_vsub(self, field):
        codes = np.arange(field.order)
        for vop, op in ((field.vadd, field.add), (field.vsub, field.sub)):
            table = [[op(x, y) for y in codes.tolist()] for x in codes.tolist()]
            assert vop(codes[:, None], codes).tolist() == table
            for y in (0, 1, field.order - 1):
                assert vop(codes, y).tolist() == [row[y] for row in table]
                assert vop(y, codes).tolist() == table[y]

    def test_vmul(self, field):
        codes = np.arange(field.order)
        table = [[field.mul(x, y) for y in codes.tolist()] for x in codes.tolist()]
        assert field.vmul(codes[:, None], codes).tolist() == table
        for y in (0, 1, field.gen, field.order - 1):
            assert field.vmul(codes, y).tolist() == [row[y] for row in table]
            assert field.vmul(y, codes).tolist() == table[y]
            for x in (0, 1, field.order - 2):
                out = field.vmul(np.int64(x), y)
                assert np.shape(out) == () and int(out) == table[x][y]

    def test_vpow(self, field):
        codes, n, p = np.arange(field.order), field.order - 1, field.p
        for e in (0, 1, -1, *(p**j for j in range(1, field.k + 1)), n, n + 1, -n):
            base = codes if e >= 0 else codes[1:]
            assert field.vpow(base, e).tolist() == [field.pow(x, e) for x in base.tolist()], e

    def test_vtrace(self, field):
        codes = np.arange(field.order)
        for d in range(1, field.k + 1):
            if field.k % d == 0:
                ref = [subfield_trace(field, x, d) for x in codes.tolist()]
                assert field.vtrace(codes, d).tolist() == ref, d


class TestCharThreeAddition:
    """vadd and vsub of F_{3^k} work on the codes, TRITS base-3 digits at a
    time: checked against the scalar add and sub at the degrees around the
    chunk boundaries, and on F_{3^18} by the group laws."""

    @pytest.mark.parametrize("k", [1, 4, 5, 6, 10, 11, 15, 16])
    def test_chunk_boundary_degrees(self, k):
        f = make_field(3, k)
        rng = np.random.default_rng(k)
        a = rng.integers(0, f.order, 300, dtype=np.int64)
        b = rng.integers(0, f.order, 300, dtype=np.int64)
        a[:3], b[3:6], b[6] = 0, 0, a[6]
        a[7], b[8] = f.order - 1, f.order - 1
        for vop, op in ((f.vadd, f.add), (f.vsub, f.sub)):
            assert vop(a, b).tolist() == [op(x, y) for x, y in zip(a.tolist(), b.tolist())]
            x, y = int(a[9]), int(b[9])
            assert vop(a, y).tolist() == [op(z, y) for z in a.tolist()]
            assert vop(x, b).tolist() == [op(x, z) for z in b.tolist()]
            block = vop(a[:4, None], b[:5])
            assert block.shape == (4, 5)
            assert block.tolist() == [[op(u, v) for v in b[:5].tolist()] for u in a[:4].tolist()]
            for out in (vop(x, y), vop(np.int64(x), y), vop(np.array(x), np.array(y))):
                assert np.shape(out) == () and int(out) == op(x, y)

    def test_group_laws_on_gf3_18(self):
        f = make_field(3, 18)
        rng = np.random.default_rng(18)
        a = rng.integers(0, f.order, 4096, dtype=np.int64)
        b = rng.integers(0, f.order, 4096, dtype=np.int64)
        assert not f.vsub(a, a).any()
        assert np.array_equal(f.vadd(a, f.vsub(b, a)), b)
        assert np.array_equal(f.vadd(a, b), f.vadd(b, a))
        assert np.array_equal(f.vsub(0, f.vsub(0, a)), a)


def test_char3_sum_tables_are_built_only_for_char3_arithmetic():
    """The chunk sum tables of characteristic-3 addition are built on first
    use, not on import: a CLI spectrum and a char-2 count leave them unbuilt,
    and precompute on F_{3^18}, which builds no exp/log table, builds them."""
    code = ("import contextlib, io\n"
            "from maxcurve import cli, gf\n"
            "built = [gf._trit_tables.cache_info().currsize]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    exits = [cli.main(['spectrum', '--family', 'ree-cover', '--s', '1']),\n"
            "             cli.main(['count', '--family', 'suzuki-cover', '--s', '1', '--ext', '4'])]\n"
            "built.append(gf._trit_tables.cache_info().currsize)\n"
            "gf.make_field(3, 18).precompute(3)\n"
            "built.append(gf._trit_tables.cache_info().currsize)\n"
            "print(exits, built)\n")
    src = str(Path(gf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] [0, 0, 1]"


def test_table_and_digit_paths_agree_on_gf2_12(monkeypatch):
    """Every code of F_{2^12} through vmul, vpow and vtrace, once on the
    exp/log tables and once on digit arrays."""
    f = F2_12
    codes = np.arange(f.order)

    def outputs():
        out = [f.vmul(codes, codes[::-1]), f.vmul(codes, f.generator_code())]
        out += [f.vpow(codes, e) for e in (0, 2, 5, 64, f.order - 1, f.order)]
        out += [f.vpow(codes[1:], e) for e in (-1, -7)]
        out += [f.vtrace(codes, d) for d in (1, 2, 3, 4, 6, 12)]
        return [o.tolist() for o in out]

    tabled = outputs()
    monkeypatch.setattr(gf, "TABLE_LIMIT", 0)
    assert outputs() == tabled


def reference_tables(f):
    """exp/log by stepping one scalar multiplication at a time: the
    reference for the block-doubling build of FieldSpec.tables."""
    g, n = f.generator_code(), f.order - 1
    exp = np.zeros(n, dtype=np.int64)
    cur = 1
    for i in range(n):
        exp[i] = cur
        cur = f.mul(cur, g)
    log = np.full(f.order, -1, dtype=np.int64)
    log[exp] = np.arange(n)
    return exp, log


class TestTables:
    """FieldSpec.tables against the scalar loop, and beyond its reach
    against the digit-array product, which reads no table."""

    @pytest.mark.parametrize("p,k", [(2, k) for k in range(1, 17)] + [(3, k) for k in range(1, 11)])
    def test_default_fields_match_scalar_loop(self, p, k):
        f = make_field(p, k)
        exp, log = f.tables()
        ref_exp, ref_log = reference_tables(f)
        assert exp.dtype == log.dtype == np.int32
        assert np.array_equal(exp, ref_exp) and np.array_equal(log, ref_log)

    @pytest.mark.parametrize("p,modulus,x_primitive", [
        (2, (1, 1, 1, 1, 1), False),  # x^4+x^3+x^2+x+1: x has order 5
        (3, (1, 0, 1), False),  # x^2+1: x has order 4
        (2, _alternative_modulus_2_12(), True),
    ])
    def test_other_moduli_match_scalar_loop(self, p, modulus, x_primitive):
        f = gf.FieldSpec(p, len(modulus) - 1, modulus)
        assert (f.generator_code() == f.gen) == x_primitive
        exp, log = f.tables()
        ref_exp, ref_log = reference_tables(f)
        assert np.array_equal(exp, ref_exp) and np.array_equal(log, ref_log)

    @pytest.mark.parametrize("p,k,digest", [
        (2, 20, "d9bbf13f33c1e260b790f9f421b476acf69614250c250c8fc849abd27eb5c2fb"),
        (3, 9, "eaabbc0a039a44145992e925cd6be0ce8cfde0a8ba0bb9f95560319feca6550b"),
        (3, 12, "4e159b3bfff9c5db5c06072e474c41600c4c67940214bb91bf66ef5280231df1"),
    ])
    def test_exp_bytes_pinned(self, p, k, digest):
        # the digests of the int64 tables that the int32 ones replaced
        assert hashlib.sha256(make_field(p, k).tables()[0].astype(np.int64).tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("p,k", [(2, 20), (3, 12)])
    def test_large_tables_on_digit_path(self, p, k, monkeypatch):
        f = make_field(p, k)
        exp, log = f.tables()
        g = f.generator_code()
        monkeypatch.setattr(gf, "TABLE_LIMIT", 0)
        chunk = 1 << 16
        nxt = np.concatenate([f.vmul(exp[lo : lo + chunk], g) for lo in range(0, len(exp), chunk)])
        assert np.array_equal(nxt, np.roll(exp, -1))  # exp[i] g = exp[i+1], and g^(order-1) = 1
        assert log[0] == -1 and np.array_equal(log[exp], np.arange(len(exp)))


class TestTableWidths:
    """The int32 tables never leak into results: every product and power
    comes back as int64, and exponent products past 2^31 do not wrap."""

    @pytest.mark.parametrize("p,k", [(2, 20), (3, 13)])
    def test_vpow_exponent_products_past_int32(self, p, k):
        f = make_field(p, k)
        exp, log = f.tables()
        n = f.order - 1
        a = exp[n - 64 :].astype(np.int64)  # the largest logarithms
        for e in (n - 1, n - 7, 3 * n - 2, -1, -5, -(n // 2) - 1):
            assert int(log[a].min()) * (e % n) > 2**31, e
            assert f.vpow(a, e).tolist() == [f.pow(x, e) for x in a.tolist()], e

    @pytest.mark.parametrize("tabled", [True, False])
    def test_products_and_powers_are_int64(self, tabled, monkeypatch):
        if not tabled:
            monkeypatch.setattr(gf, "TABLE_LIMIT", 0)
        f = F2_12
        for a, b in ((np.arange(5), np.arange(3, 8)), (np.array(5), np.array(0)), (5, 9), (0, 7)):
            assert f.vmul(a, b).dtype == np.int64
            for e in (0, 3, -1):
                if e >= 0 or np.all(np.asarray(a) != 0):
                    assert f.vpow(a, e).dtype == np.int64


def trial_division(n):
    """{prime: exponent} of n by division by 2 and every odd d up to the
    square root of what is left: the reference for _factorize."""
    out, d = {}, 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class TestFactorize:
    def test_agrees_with_trial_division_below_2e5(self):
        # a smallest-prime-factor sieve gives trial division's answers on a
        # range at once
        limit = 200_000
        spf = list(range(limit))
        for d in range(2, math.isqrt(limit) + 1):
            if spf[d] == d:
                for m in range(d * d, limit, d):
                    if spf[m] == m:
                        spf[m] = d
        assert all(spf[n] == min(trial_division(n)) for n in (2, 3, 4, 91, 65537, 199_999))
        for n in range(limit):
            ref, m = {}, n
            while m > 1:
                ref[spf[m]] = ref.get(spf[m], 0) + 1
                m //= spf[m]
            assert gf._factorize(n) == ref, n

    def test_agrees_with_trial_division_on_suzuki_orders(self):
        for s in range(1, 13):
            q0 = 2**s
            q = 2 * q0 * q0
            for n in (q - 1, q + 1, q - 2 * q0 + 1, q + 2 * q0 + 1):
                assert list(gf._factorize(n).items()) == sorted(trial_division(n).items()), n

    def test_mersenne_61_is_prime_at_once(self):
        started = time.perf_counter()
        assert gf._factorize(2**61 - 1) == {2**61 - 1: 1}
        assert time.perf_counter() - started < 1.0

    def test_splits_products_of_large_primes(self):
        primes = [1_000_003, 1_000_033, 2**31 - 1, 2**61 - 1]
        assert gf._factorize(math.prod(primes) * 2**61 * 3) == {2: 61, 3: 1, **{p: 1 for p in primes}}

    def test_proves_or_refuses_past_the_bound(self):
        # a composite past MR_BOUND is proven composite, and split into primes
        # below it; a prime past it is refused
        assert gf._factorize((2**31 - 1) ** 3 * 1_000_003) == {1_000_003: 1, 2**31 - 1: 3}
        with pytest.raises(gf.FactorizationError):
            gf._factorize(2**89 - 1)
