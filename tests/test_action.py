import collections
import dataclasses
import hashlib
import json
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcurve import action as act
from maxcurve.action import ModelError
from maxcurve.gf import FieldSpec, make_field


def scalar_places(params):
    """The place list built one x at a time with scalar field arithmetic:
    the reference for the array enumeration in build_places."""
    f = make_field(2, 12)
    exp, log = f.tables()
    n = f.order - 1
    q, q0, m = params.q, params.q0, params.m
    pre = {}
    for y in range(f.order):
        pre.setdefault(f.pow(y, q) ^ y, y)
    kernel = sorted(f.subfield_codes(2 * params.s + 1))
    zeta = int(exp[n // m])
    places = []
    for x in range(f.order):
        s = f.pow(x, q) ^ x
        c = f.mul(f.pow(x, q0), s)
        if c not in pre:
            continue
        ys = sorted(pre[c] ^ kc for kc in kernel)
        if s == 0:
            ts = [0]
        else:
            lg = int(log[s])
            if lg % m != 0:
                continue
            t0 = int(exp[lg // m])
            ts = sorted(f.mul(t0, f.pow(zeta, j)) for j in range(m))
        places.extend((x, y, t) for y in ys for t in ts)
    return places


@pytest.fixture(scope="module")
def triples(place_set):
    """The affine places as (x, y, t) tuples; place id i is entry i - 1."""
    return list(zip(*(c.tolist() for c in place_set.coords)))


def cycle_walk_order(perm) -> int:
    """The lcm of the cycle lengths, found by walking each cycle."""
    order, seen = 1, [False] * len(perm)
    for start in range(len(perm)):
        length, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = int(perm[j])
            length += 1
        if length:
            order = math.lcm(order, length)
    return order


def full_permutation_search(ps, target, generators, seed=20240901, max_tries=100_000):
    """The order search that composes and orders every random word over all
    places: the reference for find_element_of_order, which screens words on
    the small orbit and must return the same element."""
    rng = random.Random(seed)
    idperm = np.arange(len(ps), dtype=np.int32)
    for _ in range(max_tries):
        word_len = rng.randint(2, 8)
        perm = idperm
        for _ in range(word_len):
            perm = generators[rng.randrange(len(generators))][perm]
        o = act.element_order(perm)
        if o % target == 0:
            return act.power(perm, o // target)
    raise ModelError(f"no element of order {target} found in {max_tries} tries")


class TestPlaceSet:
    def test_sizes(self, place_set):
        assert len(place_set) == 29185
        assert len(place_set.keys) == 29184

    def test_small_field_places(self, place_set):
        assert len(place_set.fq_rational_ids()) == 65

    def test_t_zero_plane(self, place_set):
        assert place_set.t_zero_affine_count() == 64

    def test_places_satisfy_equations(self, place_set, triples):
        f = place_set.field
        q, q0, m = 8, 2, 5
        for x, y, t in triples[:: 257]:
            s = f.pow(x, q) ^ x
            assert f.pow(t, m) == s
            assert f.pow(y, q) ^ y == f.mul(f.pow(x, q0), s)

    def test_rejects_large_q(self):
        from maxcurve.curves import params_from_s

        with pytest.raises(ModelError):
            act.build_places(params_from_s("suzuki-cover", 2))

    def test_matches_scalar_enumeration(self, triples, q8_params):
        assert triples == scalar_places(q8_params)

    def test_keys_increase_along_the_place_list(self, place_set):
        assert np.all(np.diff(place_set.keys) > 0)

    def test_fq_rational_ids_by_membership(self, place_set):
        X, Y, T = place_set.coords
        kernel = place_set.subfield
        rational = np.isin(X, kernel) & np.isin(Y, kernel) & (T == 0)
        assert place_set.fq_rational_ids() == [0] + (np.flatnonzero(rational) + 1).tolist()

    def test_ranks_of_the_place_coordinates(self, place_set):
        # the rank of a place's y in its coset y + F_q, and of its t among
        # t * zeta^j, counted directly
        f, m = place_set.field, place_set.params.m
        zeta = f.pow(f.generator_code(), (f.order - 1) // m)
        ys, ts = (np.unique(c)[:, None] for c in place_set.coords[1:])
        assert np.array_equal(place_set.yrank[ys[:, 0]],
                              np.count_nonzero(f.vadd(ys, np.array(place_set.subfield)) < ys, axis=1))
        assert np.array_equal(place_set.trank[ts[:, 0]],
                              np.count_nonzero(f.vmul(ts, [f.pow(zeta, j) for j in range(m)]) < ts, axis=1))

    def test_wrong_kernel_size_raises(self, q8_params, monkeypatch):
        monkeypatch.setattr(FieldSpec, "subfield_codes", lambda self, d: [0, 1])
        with pytest.raises(ModelError, match="expected 8"):
            act.build_places(q8_params)


def searchsorted_ids(ps, x, y, t, what="place"):
    """Place ids by binary search on the packed keys: the reference for the
    dense index of PlaceSet.ids, with its signature.  Every triple must be a
    place."""
    keys = act._pack(ps.field.k, x, y, t)
    pos = np.searchsorted(ps.keys, keys)
    assert np.array_equal(ps.keys[np.minimum(pos, len(ps.keys) - 1)], keys), what
    return pos + 1


class TestPlaceLookup:
    def test_image_that_is_not_a_place(self, place_set):
        X, Y, T = place_set.coords
        # (0, 0, 1) fails t^m = x^q + x
        with pytest.raises(ModelError, match=r"probe: image \(0, 0, 1\) is not a place"):
            act._perm_from_affine_images(place_set, X, Y, T ^ 1, "probe")

    def test_image_set_that_is_not_a_bijection(self, place_set):
        X, Y, T = place_set.coords
        same = [np.full_like(c, c[5]) for c in (X, Y, T)]
        with pytest.raises(ModelError, match="probe: not a bijection"):
            act._perm_from_affine_images(place_set, *same, "probe")

    def test_ids_of_every_place(self, place_set):
        assert np.array_equal(place_set.ids(*place_set.coords, "place"), np.arange(1, 29185))


class TestPlaceIndex:
    """The dense index of PlaceSet.ids against binary search on the keys."""

    def test_every_place(self, place_set):
        coords = place_set.coords
        assert np.array_equal(place_set.ids(*coords, "place"), searchsorted_ids(place_set, *coords))

    def test_images_of_the_default_generators(self, place_set, generators, monkeypatch):
        index_ids = act.PlaceSet.ids
        looked_up = []

        def checked(ps, x, y, t, what):
            got = index_ids(ps, x, y, t, what)
            assert np.array_equal(got, searchsorted_ids(ps, x, y, t, what)), what
            looked_up.append(what)
            return got

        monkeypatch.setattr(act.PlaceSet, "ids", checked)
        again = act.default_generators(place_set)
        assert len(looked_up) == 5
        for name, perm in generators.items():
            assert again[name].tobytes() == perm.tobytes(), name

    def test_stabilizers_and_tori_through_both_lookups(self, place_set, monkeypatch):
        f, m = place_set.field, place_set.params.m
        codes = np.arange(f.order)
        rng = random.Random(3)
        stabilizers = []
        for i in range(10):
            # in turn A = 1, then b = 0, then A != 1 with b != 0
            A = rng.choice(place_set.subfield[1:]) if i % 3 else 1
            b = rng.choice(place_set.subfield[1:]) if i % 3 != 1 else 0
            c = rng.choice(place_set.subfield)
            delta = rng.choice(np.flatnonzero(f.vpow(codes, m) == A).tolist())
            stabilizers.append((A, b, c, delta))
        zeta = f.pow(f.generator_code(), (f.order - 1) // m)
        lambdas = [f.pow(zeta, j) for j in range(1, m)]

        def perms():
            return ([act.gen_stabilizer(place_set, *args) for args in stabilizers]
                    + [act.gen_gamma(place_set, lam) for lam in lambdas])

        by_index = perms()
        monkeypatch.setattr(act.PlaceSet, "ids", searchsorted_ids)
        by_search = perms()
        for args, a, b in zip(stabilizers + lambdas, by_index, by_search):
            assert a.tobytes() == b.tobytes(), args

    def _rejects(self, ps, triple):
        x, y, t = (np.array([c]) for c in triple)
        with pytest.raises(ModelError, match=re.escape(f"probe {triple} is not a place")):
            ps.ids(x, y, t, "probe")
        # after a place, the error still names the triple
        X, Y, T = ps.coords
        x, y, t = (np.array([int(c[100]), v]) for c, v in zip((X, Y, T), triple))
        with pytest.raises(ModelError, match=re.escape(f"probe {triple} is not a place")):
            ps.ids(x, y, t, "probe")

    def test_x_without_places(self, place_set):
        x = next(c for c in range(place_set.field.order) if c not in set(place_set.coords[0].tolist()))
        self._rejects(place_set, (x, 0, 0))

    def test_y_outside_the_coset_of_its_x(self, place_set, triples):
        x, y, t = triples[1000]
        coset = {y ^ c for c in place_set.subfield}
        other = next(c for c in range(place_set.field.order) if c not in coset)
        self._rejects(place_set, (x, other, t))

    def test_t_outside_the_roots_of_its_x(self, place_set, triples):
        x, y, t = triples[1000]
        roots = {t for (px, _, t) in triples if px == x}
        assert len(roots) == 5
        self._rejects(place_set, (x, y, next(c for c in range(1, 64) if c not in roots)))

    def test_nonzero_t_where_x_has_the_single_root_zero(self, place_set):
        # x = 0: x^q + x = 0, and a t of the largest rank lands on another
        # row of the same block
        t = int(np.flatnonzero(place_set.trank == 4)[0])
        self._rejects(place_set, (0, 0, t))

    def test_ranks_past_the_end_of_the_keys(self, place_set, triples):
        ps = place_set
        n = len(ps.keys)
        # the last block ends on the last row, and the x beyond it start
        # there: the largest ranks of y and t run past the end
        xl, yl, tl = triples[-1]
        assert ps.start[xl] + 8 * ps.width[xl] == n
        beyond = [x for x in range(xl + 1, ps.field.order) if ps.start[x] == n]
        assert beyond
        y = int(np.flatnonzero(ps.yrank == 7)[0])
        t = int(np.flatnonzero(ps.trank == 4)[0])
        for x in beyond:
            self._rejects(ps, (x, y, t))
        # in the last block, the largest ranks read the last row
        assert ps.yrank[yl] == 7 and ps.trank[tl] == 4
        self._rejects(ps, (xl, yl, next(c for c in range(1, ps.field.order)
                                        if ps.trank[c] == 4 and c != tl)))


class TestElementOrder:
    def test_identity(self):
        assert act.element_order(np.arange(29185, dtype=np.int32)) == 1

    def test_one_cycle_through_every_place(self):
        order = np.random.default_rng(7).permutation(29185)
        perm = np.empty(29185, dtype=np.int32)
        perm[order] = np.roll(order, -1)
        assert cycle_walk_order(perm) == 29185
        assert act.element_order(perm) == 29185

    @given(perm=st.integers(1, 400).flatmap(lambda n: st.permutations(range(n))))
    @settings(max_examples=200, deadline=None)
    def test_random_permutations(self, perm):
        arr = np.array(perm, dtype=np.int32)
        assert act.element_order(arr) == cycle_walk_order(perm)

    def test_default_generators(self, generators):
        for name, a in generators.items():
            assert act.element_order(a) == cycle_walk_order(a), name


class TestStabilizerGenerators:
    def test_identity(self, place_set):
        a = act.gen_stabilizer(place_set, 1, 0, 0, 1)
        assert act.fixed_points(a) == 29185
        assert act.element_order(a) == 1

    def test_pure_translation_is_involution(self, place_set):
        c = place_set.subfield[1]
        a = act.gen_stabilizer(place_set, 1, 0, c, 1)
        assert act.element_order(a) == 2
        assert act.fixed_points(a) == 1

    def test_b_translation_has_order_four(self, place_set):
        b = place_set.subfield[1]
        a = act.gen_stabilizer(place_set, 1, b, 0, 1)
        assert act.element_order(a) == 4
        assert act.fixed_points(a) == 1
        sq = a[a]
        assert act.element_order(sq) == 2
        assert act.fixed_points(sq) == 1

    def test_order_seven_torus(self, place_set):
        A = next(c for c in place_set.subfield if c not in (0, 1))
        a = act.stabilizer_in_complement(place_set, A, 0, 0)
        assert act.element_order(a) == 7
        assert act.fixed_points(a) == 2

    def test_scaling_then_translation(self, place_set):
        # A b^q0 x in the y-map: a general stabilizer element is a bijection,
        # the scaling by A followed by the translation by (b, c)
        f, m = place_set.field, place_set.params.m
        mth_powers = f.vpow(np.arange(f.order), m)
        units = [A for A in place_set.subfield if A not in (0, 1)]
        for A, b, c in zip(units, place_set.subfield[1:], reversed(place_set.subfield)):
            delta = int(np.flatnonzero(mth_powers == A)[-1])
            scaled = act.gen_stabilizer(place_set, A, 0, 0, delta)
            translated = act.gen_stabilizer(place_set, 1, b, c, 1)
            both = act.gen_stabilizer(place_set, A, b, c, delta)
            assert both.tobytes() == translated.take(scaled).tobytes(), (A, b, c)

    def test_delta_constraint_enforced(self, place_set):
        A = next(c for c in place_set.subfield if c not in (0, 1))
        with pytest.raises(ModelError):
            act.gen_stabilizer(place_set, A, 0, 0, 1)  # 1^m != A

    def test_a_zero_rejected(self, place_set):
        with pytest.raises(ModelError):
            act.gen_stabilizer(place_set, 0, 0, 0, 0)

    def test_params_must_lie_in_subfield(self, place_set):
        outside = next(c for c in range(place_set.field.order) if c not in set(place_set.subfield))
        with pytest.raises(ModelError):
            act.gen_stabilizer(place_set, 1, outside, 0, 1)

    def test_images_satisfy_equations(self, place_set, generators, triples):
        f = place_set.field
        for name, a in generators.items():
            for pid in range(1, 29185, 977):
                img = int(a[pid])
                if img == 0:
                    continue
                x, y, t = triples[img - 1]
                s = f.pow(x, 8) ^ x
                assert f.pow(t, 5) == s, name
                assert f.pow(y, 8) ^ y == f.mul(f.pow(x, 2), s), name


class TestGamma:
    def test_fixed_points_and_order(self, generators):
        gamma = generators["gamma"]
        assert act.element_order(gamma) == 5
        for k in range(1, 5):
            assert act.fixed_points(act.power(gamma, k)) == 65

    def test_commutes_with_lifted_generators(self, generators):
        gamma = generators["gamma"]
        for name in ("torus7", "wild_b", "wild_c", "phi"):
            a = generators[name]
            assert np.array_equal(a[gamma], gamma[a])

    def test_rejects_non_primitive(self, place_set):
        with pytest.raises(ModelError):
            act.gen_gamma(place_set, 1)


class TestPhi:
    def test_involution(self, generators):
        phi = generators["phi"]
        assert act.element_order(phi) == 2

    def test_swaps_infinity_with_origin(self, triples, generators):
        phi = generators["phi"]
        origin = triples.index((0, 0, 0)) + 1
        assert phi[act.PlaceSet.INFTY] == origin
        assert phi[origin] == act.PlaceSet.INFTY

    def test_single_fixed_place(self, generators):
        assert act.fixed_points(generators["phi"]) == 1

    def test_beta_vanishing_away_from_row_0(self, triples, place_set):
        # rows 0 and 1, (0, 0, 0) and (0, y, 0) with y in F_q, swapped: beta
        # vanishes only at the origin, now on row 1
        assert triples[1][0] == triples[1][2] == 0
        swapped = tuple(np.concatenate(([c[1], c[0]], c[2:])) for c in place_set.coords)
        with pytest.raises(ModelError, match="beta vanishes away from the origin"):
            act.gen_phi(dataclasses.replace(place_set, coords=swapped))

    def test_beta_vanishing_at_two_places(self, triples, place_set):
        assert triples[1][0] == triples[1][2] == 0
        X, Y, T = place_set.coords
        Y = Y.copy()
        Y[1] = 0  # row 1 holds a second (0, 0, 0)
        with pytest.raises(ModelError, match="beta vanishes at 2 affine places, expected 1"):
            act.gen_phi(dataclasses.replace(place_set, coords=(X, Y, T)))

    def test_beta_vanishing_on_the_places_of_one_pair(self, place_set):
        # the m places of the first (x, y) with m roots t moved to x = y = 0:
        # beta vanishes there and at the origin
        X, Y, T = (c.copy() for c in place_set.coords)
        r = int(np.argmax(place_set.width[X] == 5))
        X[r:r + 5] = Y[r:r + 5] = 0
        with pytest.raises(ModelError, match="beta vanishes at 6 affine places, expected 1"):
            act.gen_phi(dataclasses.replace(place_set, coords=(X, Y, T)))

    def test_completion_must_be_a_bijection(self, place_set, monkeypatch):
        monkeypatch.setattr(act.PlaceSet, "ids", lambda ps, x, y, t, what: np.full(len(x), 2, dtype=np.int32))
        with pytest.raises(ModelError, match="involution is not a bijection"):
            act.gen_phi(place_set)

    def test_completion_must_be_an_involution(self, place_set, monkeypatch):
        # the ids 2, ..., n - 1 moved by one: a bijection, of order n - 2
        monkeypatch.setattr(act.PlaceSet, "ids",
                            lambda ps, x, y, t, what: np.roll(np.arange(2, len(ps), dtype=np.int32), 1))
        with pytest.raises(ModelError, match="completed map is not an involution"):
            act.gen_phi(place_set)


def schreier_sims(gens, points):
    """The base and the basic orbit sizes of the group generated by gens,
    int permutation arrays of one length, by deterministic Schreier-Sims
    with sifting (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 4.4.2).  The base starts at points[0]; then each generator
    that fixes the base so far, and later each sifted residue, which fixes
    it too, adds the first of points that it moves.  Levels are worked
    from the deepest up: a Schreier generator u_(s p)^-1 s u_p of level i
    that does not sift to the identity joins the strong generators, and
    the work resumes at the level where its sift stopped."""
    one = np.arange(len(gens[0]), dtype=gens[0].dtype)
    base, strong = [points[0]], list(gens)

    def moved(g):  # the first of points that g moves, None for the identity
        return next((p for p in points if g[p] != p), None)

    for g in gens:
        if all(g[b] == b for b in base) and moved(g) is not None:
            base.append(moved(g))

    def inverse(u):
        inv = np.empty_like(u)
        inv[u] = one
        return inv

    def level(i):  # the generators of the stabilizer of base[:i], and the
        # transversal of its orbit of base[i]: point -> u with u[base[i]] = point
        sgens = [s for s in strong if all(s[b] == b for b in base[:i])]
        trans, frontier = {base[i]: one}, [base[i]]
        while frontier:
            reached = []
            for p in frontier:
                for s in sgens:
                    if int(s[p]) not in trans:
                        trans[int(s[p])] = s.take(trans[p])
                        reached.append(int(s[p]))
            frontier = reached
        return sgens, trans

    levels = [level(i) for i in range(len(base))]
    i = len(base) - 1
    while i >= 0:
        sgens, trans = levels[i]
        for p, s in ((p, s) for p in list(trans) for s in sgens):
            h, j = inverse(trans[int(s[p])]).take(s.take(trans[p])), i + 1
            while j < len(base) and int(h[base[j]]) in levels[j][1]:
                h, j = inverse(levels[j][1][int(h[base[j]])]).take(h), j + 1
            if not np.array_equal(h, one):
                strong.append(h)
                if j == len(base):
                    base.append(moved(h))
                    levels.append(None)
                levels[i + 1:j + 1] = [level(k) for k in range(i + 1, j + 1)]
                i = j
                break
        else:
            i -= 1
    return base, tuple(len(trans) for _, trans in levels)


class TestGroupOrder:
    """|Aut(S~_8)| = |Sz(8)| m from the engine's own generators, and its
    image on the F_q-rational places: the split Sz(8) x C_5 that
    test_missing_genus_analysis's small_model sets by hand."""

    def test_all_places(self, place_set, generators):
        fq = place_set.fq_rational_ids()  # the infinite place first
        points = fq + sorted(set(range(len(place_set))) - set(fq))
        base, orbits = schreier_sims(list(generators.values()), points)
        # two F_q-rational places, then one whose orbit under their stabilizer C_7 x C_5 is regular
        assert base[0] == act.PlaceSet.INFTY and base[1] in fq and base[2] not in fq
        assert orbits == (65, 64, 35)
        assert math.prod(orbits) == 145_600 == 29_120 * place_set.params.m

    def test_fq_rational_places(self, place_set, generators):
        fq = np.array(place_set.fq_rational_ids())
        position = np.full(len(place_set), -1)
        position[fq] = np.arange(len(fq))
        restricted = [position.take(g.take(fq)) for g in generators.values()]
        assert all((r >= 0).all() for r in restricted)
        _, orbits = schreier_sims(restricted, list(range(len(fq))))
        assert orbits == (65, 64, 7)
        assert math.prod(orbits) == 29_120  # |Sz(8)|: the kernel is <tau>, of order m = 5

    def test_chain_of_a_known_group(self):
        # the symmetric group of 5 points from a 5-cycle and a transposition
        base, orbits = schreier_sims([np.array([1, 2, 3, 4, 0]), np.array([1, 0, 2, 3, 4])], range(5))
        assert math.prod(orbits) == 120 and len(set(base)) == len(base)


class TestVerifyGroup:
    def test_rows_stages_and_modulus(self, q8_params, place_set):
        rows, stages, modulus = act.verify_group(q8_params)
        assert all(r["ok"] for r in rows) and len(rows) == 16
        results = {"rows": rows, "all_ok": True}  # the `results` of verify-group's record
        assert hashlib.sha256((json.dumps(results, sort_keys=True) + "\n").encode()).hexdigest()[:12] == "c399470caabc"
        assert list(stages) == ["places", "generators", "order_search", "orbits", "closure", "rows"]
        assert all(v >= 0 for v in stages.values())
        assert modulus == place_set.field.modulus


class TestGroupStructure:
    def test_orbits(self, place_set, generators):
        assert act.verify_orbits(place_set, list(generators.values())) == (65, 29120)

    def test_orbit_of_infinity(self, place_set, generators):
        perms = list(generators.values())
        frontier = {0}
        orbit = {0}
        while frontier:
            nxt = set()
            for p in perms:
                nxt.update(int(p[i]) for i in frontier)
            frontier = nxt - orbit
            orbit |= frontier
        assert len(orbit) == 65
        assert orbit == set(place_set.fq_rational_ids())

    def test_simple_group_alone_has_same_orbits(self, place_set, simple_group_gens):
        # the lifted simple group already acts transitively on the big orbit
        assert act.verify_orbits(place_set, simple_group_gens) == (65, 29120)

    def test_stabilizer_closure_order(self, place_set, simple_group_gens):
        assert act.stabilizer_subgroup_order(place_set, simple_group_gens[:3]) == 448 == 8 * 8 * 7

    def test_closure_of_no_generators_is_the_trivial_group(self, place_set):
        assert act.stabilizer_subgroup_order(place_set, []) == 1

    def test_closure_gives_up_above_the_cap(self, place_set, simple_group_gens, monkeypatch):
        monkeypatch.setattr(act, "CLOSURE_CAP", 100)  # the closure has 448 elements
        with pytest.raises(ModelError, match="closure exceeded cap"):
            act.stabilizer_subgroup_order(place_set, simple_group_gens[:3])

    def test_closure_rejects_generator_leaving_small_orbit(self, place_set, simple_group_gens):
        small = set(place_set.fq_rational_ids())
        big = next(i for i in range(len(place_set)) if i not in small)
        perm = np.arange(len(place_set), dtype=np.int32)
        perm[[act.PlaceSet.INFTY, big]] = [big, act.PlaceSet.INFTY]
        with pytest.raises(ModelError, match="generator 2 moves an F_q-rational place off the small orbit"):
            act.stabilizer_subgroup_order(place_set, simple_group_gens[:2] + [perm])

    def test_wild_elements_fix_one_place(self, place_set, simple_group_gens):
        for seed in (5, 6):
            e2 = act.find_element_of_order(place_set, 2, simple_group_gens, seed=seed)
            assert act.fixed_points(e2) == 1
            e4 = act.find_element_of_order(place_set, 4, simple_group_gens, seed=seed)
            assert act.fixed_points(e4) == 1

    def test_order13_fixed_free(self, place_set, simple_group_gens, generators):
        e13 = act.find_element_of_order(place_set, 13, simple_group_gens)
        assert act.fixed_points(e13) == 0
        gamma = generators["gamma"]
        assert all(act.fixed_points(e13[act.power(gamma, j)]) == 0 for j in range(1, 5))

    def test_order5_in_simple_group(self, place_set, simple_group_gens, generators):
        e5 = act.find_element_of_order(place_set, 5, simple_group_gens)
        assert act.fixed_points(e5) == 0
        gamma = generators["gamma"]
        pattern = [act.fixed_points(e5[act.power(gamma, j)]) for j in range(1, 5)]
        # measured structure: each torus product fixes one full fiber of m
        # places over its own base point; only the total 4m is consumed by
        # the different-degree computations
        assert sum(pattern) == 20
        assert pattern == [5, 5, 5, 5]

    def test_order5_fixed_fibers_have_distinct_base_points(self, place_set, simple_group_gens, generators, triples):
        e5 = act.find_element_of_order(place_set, 5, simple_group_gens, seed=99)
        gamma = generators["gamma"]
        base_points = []
        for j in range(1, 5):
            a = e5[act.power(gamma, j)]
            ids = np.flatnonzero(a == np.arange(29185))
            xy = {triples[i - 1][:2] for i in ids if i != 0}
            assert len(xy) == 1  # one full fiber
            base_points.extend(xy)
        assert len(set(base_points)) == 4

    def test_order7_tau_products(self, generators):
        t7, gamma = generators["torus7"], generators["gamma"]
        assert [act.fixed_points(t7[act.power(gamma, j)]) for j in range(1, 5)] == [2] * 4


class TestOrderSearch:
    @pytest.mark.parametrize("target", [2, 4, 5, 7, 13])
    @pytest.mark.parametrize("seed", [20240901, 5, 6, 99])
    def test_same_element_as_full_permutation_search(self, place_set, simple_group_gens, target, seed):
        got = act.find_element_of_order(place_set, target, simple_group_gens, seed=seed)
        want = full_permutation_search(place_set, target, simple_group_gens, seed=seed)
        assert np.array_equal(got, want)
        assert cycle_walk_order(got) == target

    def test_gives_up_after_max_tries(self, place_set, simple_group_gens, monkeypatch):
        # 11 does not divide |Sz(8)| = 29120, so no word has an order it divides
        monkeypatch.setattr(act, "MAX_TRIES", 50)
        with pytest.raises(ModelError, match="no element of order 11 found in 50 tries"):
            act.find_element_of_order(place_set, 11, simple_group_gens)

    def test_returns_a_fresh_array(self, place_set, simple_group_gens):
        for target in (13, 5):
            got = act.find_element_of_order(place_set, target, simple_group_gens)
            assert got.flags.writeable
            assert not any(np.shares_memory(got, g) for g in simple_group_gens)

    def test_unfaithful_restriction_names_both_orders(self, place_set, generators):
        with pytest.raises(ModelError) as err:
            act.find_element_of_order(place_set, 2, [generators["phi"], generators["gamma"]], seed=1)
        found = re.fullmatch(r"a word of order (\d+) on the small orbit has order (\d+) on all "
                             r"places: the restriction is not faithful", str(err.value))
        assert found
        small, full = map(int, found.groups())
        # gamma adds its factor 5 on the places off the small orbit
        assert small % 2 == 0 and full == math.lcm(small, 5)

    def test_generator_acting_trivially_on_small_orbit(self, place_set, generators):
        # gamma fixes every F_q-rational place, so a word's order on the small
        # orbit misses gamma's factor 5
        with pytest.raises(ModelError, match="not faithful"):
            act.find_element_of_order(place_set, 2, [generators["phi"], generators["gamma"]], seed=1)


class TestCompose:
    def test_composition_order(self, place_set, generators):
        # a[b] applies b first; the two generators do not commute, so the
        # order of the composition matters
        a, b = generators["torus7"], generators["phi"]
        ab = a[b]
        pid = 12345
        assert ab[pid] == a[b[pid]]
        assert not np.array_equal(ab, b[a])

    def test_power_matches_repeated_composition(self, generators):
        a = generators["torus7"]
        assert np.array_equal(act.power(a, 2), a[a])
        assert np.array_equal(act.power(a, 3), a[a[a]])
        assert np.array_equal(act.power(a, 7), np.arange(29185))

    @given(word=st.lists(st.integers(0, 4), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_random_words_have_group_element_orders(self, place_set, generators, word):
        names = list(generators)
        perm = np.arange(29185, dtype=np.int32)
        for idx in word:
            perm = generators[names[idx]][perm]
        order = act.element_order(perm)
        # |Aut| = 29120 * 5
        assert (29120 * 5) % order == 0


def cycle_type_permutation(cycles: list[int], n: int = 40) -> np.ndarray:
    """A permutation of n points with the given cycle lengths, the other
    points fixed, in scrambled positions."""
    points = np.random.default_rng(sum(cycles)).permutation(n)
    perm = np.arange(n, dtype=np.int32)
    start = 0
    for length in cycles:
        cycle = points[start:start + length]
        perm[cycle] = np.roll(cycle, -1)
        start += length
    return perm


def union_find_orbit_sizes(n, perms):
    """Orbit sizes by union-find over the edges i -- p(i): the reference
    for the BFS of verify_orbits."""
    parent = list(range(n))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for p in perms:
        for i, j in enumerate(p.tolist()):
            parent[root(i)] = root(j)
    return tuple(sorted(collections.Counter(root(i) for i in range(n)).values()))


@pytest.mark.parametrize("seed", range(40))
def test_verify_orbits_matches_union_find(seed):
    """Seeded random groups on 1 to 300 points, by 1 to 3 generators of
    which some are the identity; verify_orbits reads only the length of
    the place set, so range(n) stands in for it."""
    rng = np.random.default_rng(seed)
    n = {0: 1, 1: 300}.get(seed, int(rng.integers(1, 301)))
    perms = []
    for _ in range(int(rng.integers(1, 4))):
        if rng.random() < 0.25:
            perms.append(np.arange(n, dtype=np.int32))
        else:
            # a product of a few random cycles, so that the orbits vary in size
            perm = np.arange(n, dtype=np.int32)
            for _ in range(int(rng.integers(1, 4))):
                cycle = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
                perm[cycle] = perm[np.roll(cycle, -1)]
            perms.append(perm)
    assert act.verify_orbits(range(n), perms) == union_find_orbit_sizes(n, perms)


class TestHasOrder:
    """has_order checks a^o = 1 and a^(o/p) != 1 for the primes p | o; it
    must agree with element_order."""

    @pytest.mark.parametrize("cycles, order", [([4], 4), ([4, 2, 2], 4), ([8, 4, 2], 8), ([9, 3], 9),
                                               ([9, 9, 1], 9), ([4, 3], 12), ([4, 6], 12), ([3, 2, 2], 6)])
    def test_cycle_types(self, cycles, order):
        perm = cycle_type_permutation(cycles)
        assert act.element_order(perm) == order
        for o in range(1, 3 * order + 1):
            assert act.has_order(perm, o) == (o == order), o

    @given(word=st.lists(st.integers(0, 4), min_size=1, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_agrees_with_element_order_on_words(self, generators, word):
        names = list(generators)
        perm = generators[names[word[0]]]
        for idx in word[1:]:
            perm = generators[names[idx]].take(perm)
        order = act.element_order(perm)
        divisors = [d for d in range(1, order + 1) if order % d == 0]
        for o in divisors + [order + 1, 2 * order, 5 * order]:
            assert act.has_order(perm, o) == (o == order), o


class TestSharedIdentity:
    def test_power_zero_is_read_only(self, generators):
        one = act.power(generators["phi"], 0)
        assert np.array_equal(one, np.arange(29185))
        assert not one.flags.writeable
        with pytest.raises(ValueError):
            one[0] = 1
        assert act.power(generators["gamma"], 0) is one  # one array per length

    def test_positive_powers_are_fresh(self, generators):
        a = generators["torus7"]
        for n in (1, 2, 7):
            p = act.power(a, n)
            assert p.flags.writeable
            assert not np.shares_memory(p, a) and not np.shares_memory(p, act.power(a, 0))

    def test_fixed_points_leave_the_identity_as_it_is(self, generators):
        counts = [act.fixed_points(a) for a in generators.values()]
        assert all(isinstance(c, int) for c in counts)
        assert np.array_equal(act.power(generators["phi"], 0), np.arange(29185))
