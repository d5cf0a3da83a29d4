"""Machine verification that the two reference-row gaps are real.

The bundled reference rows list genus 13 (q=8 row) and genus 247 (q=32 row);
the sweeps do not produce them.  This module shows they cannot occur as
quotient genera at all, by exhausting every admissible subgroup order:

* q=8: a genus-13 quotient needs |L| <= 16 and different degree 390 - 24|L|.
  A faithful small model of the full automorphism group (its action on the
  65 small-orbit places paired with the central-component coordinate) gives
  exact element, order, and conjugacy data; together with the complete
  subgroup enumeration of the wild stabilizer part, the realizable different
  degrees never match.
* q=32: the involution bound 226(|L|-1) rules out every order below 44, and
  the two remaining admissible orders 50 and 62 realize only different
  degrees 5650 and 7066, not the required 6150 and 246.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

from maxcurve import action as act
from maxcurve.gf import make_field

TARGET_Q8 = 13
TARGET_Q32 = 247

TWO_G_MINUS_2_Q8 = 390
TWO_G_MINUS_2_Q32 = 30750

IDENTITY65 = tuple(range(65))


@pytest.fixture(scope="module")
def small_model(place_set, generators):
    """All 145600 automorphisms as (65-point action, central component).

    The 65-point action is faithful on the lifted simple group and the
    component splits off the central cyclic factor, so the pair is a
    faithful model of the whole group.  Each element remembers a generator
    word for lifting back to the full 29185-point permutation.
    """
    fq_ids = place_set.fq_rational_ids()
    pos = {pid: i for i, pid in enumerate(fq_ids)}

    def reduce(name, b):
        return (tuple(pos[int(generators[name][pid])] for pid in fq_ids), b)

    gen_list = [
        (reduce("torus7", 0), "torus7"),
        (reduce("wild_b", 0), "wild_b"),
        (reduce("wild_c", 0), "wild_c"),
        (reduce("phi", 0), "phi"),
        (reduce("gamma", 1), "gamma"),
    ]
    identity = (IDENTITY65, 0)
    seen = {identity: None}  # element -> (parent element, generator name)
    frontier = [identity]
    while frontier:
        nxt = []
        for (gp, gb), name in gen_list:
            for hp, hb in frontier:
                prod = (tuple(gp[i] for i in hp), (gb + hb) % 5)
                if prod not in seen:
                    seen[prod] = ((hp, hb), name)
                    nxt.append(prod)
        frontier = nxt
    return seen, gen_list


def perm_order(p):
    order = 1
    n = len(p)
    visited = [False] * n
    for start in range(n):
        if visited[start]:
            continue
        length, j = 0, start
        while not visited[j]:
            visited[j] = True
            j = p[j]
            length += 1
        order = math.lcm(order, length)
    return order


def element_order(elem):
    p, b = elem
    return math.lcm(perm_order(p), 5 if b else 1)


def lift_fixed_count(elem, seen, place_set, generators):
    """Fixed places of the full-action permutation, rebuilt from the word."""
    word = []
    cur = elem
    while seen[cur] is not None:
        parent, name = seen[cur]
        word.append(name)
        cur = parent
    perm = np.arange(len(place_set), dtype=np.int32)
    for name in word:
        perm = generators[name][perm]
    return int(np.count_nonzero(perm == np.arange(len(place_set))))


class TestSmallModel:
    def test_group_order(self, small_model):
        seen, _ = small_model
        assert len(seen) == 29120 * 5

    def test_element_order_histogram(self, small_model):
        seen, _ = small_model
        hist = {}
        for elem in seen:
            o = element_order(elem)
            hist[o] = hist.get(o, 0) + 1
        assert set(hist) == {1, 2, 4, 5, 7, 10, 13, 20, 35, 65}
        assert hist[2] == 455
        assert hist[4] == 3640
        assert hist[5] == 29124
        assert hist[7] == 12480
        assert hist[13] == 6720
        # no order-14 element: cyclic groups of order 14 do not exist

    def test_pure_order5_class_size(self, small_model):
        seen, gen_list = small_model
        rep = next(e for e in seen if e[1] == 0 and element_order(e) == 5)
        inverses = []
        for (gp, gb), _ in gen_list:
            inv = [0] * 65
            for i, v in enumerate(gp):
                inv[v] = i
            inverses.append((gp, tuple(inv)))
        orbit = {rep}
        frontier = [rep]
        while frontier:
            nxt = []
            for (gp, ginv) in inverses:
                for (xp, xb) in frontier:
                    conj = (tuple(gp[xp[ginv[i]]] for i in range(65)), xb)
                    if conj not in orbit:
                        orbit.add(conj)
                        nxt.append(conj)
            frontier = nxt
        # one conjugacy class of pure order-5 elements
        assert len(orbit) == 5824


class TestOrderFiveFixedData:
    def test_class_fixed_values(self, small_model, place_set, generators):
        seen, _ = small_model
        rep = next(e for e in seen if e[1] == 0 and element_order(e) == 5)
        assert lift_fixed_count(rep, seen, place_set, generators) == 0
        for b in range(1, 5):
            central = (IDENTITY65, b)
            assert lift_fixed_count(central, seen, place_set, generators) == 65
            twisted = (rep[0], b)
            assert twisted in seen
            assert lift_fixed_count(twisted, seen, place_set, generators) == 5


@lru_cache(maxsize=None)
def sylow_subgroup_profiles(q: int):
    """All subgroups of the wild stabilizer part {(b, c)} with its law
    (b, c)(b', c') = (b + b', c + c' + b^q0 b'), reported as profiles
    (order, involutions, order-4 elements).

    Element (b, c) is row b q + c of the q^2 x q^2 multiplication table, and
    a subset is a boolean mask over the rows.  The subgroup generated by H
    and x is the closure of H | {x} under products: the set times itself,
    until it stops growing."""
    s = {8: 1, 32: 2}[q]
    f = make_field(2, 2 * s + 1)
    q0 = 2**s

    codes = np.arange(q)
    twist = f.vmul(f.vpow(codes, q0)[:, None], codes[None, :])  # b^q0 b'
    b, c = np.divmod(np.arange(q * q), q)
    table = (b[:, None] ^ b[None, :]) * q + (c[:, None] ^ c[None, :] ^ twist[b[:, None], b[None, :]])

    def closure(mask):
        while True:
            rows = np.flatnonzero(mask)
            grown = mask.copy()
            grown[table[np.ix_(rows, rows)]] = True
            if np.count_nonzero(grown) == rows.size:
                return grown
            mask = grown

    trivial = np.zeros(q * q, dtype=bool)
    trivial[0] = True
    subgroups = {trivial.tobytes(): trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for H in frontier:
            for x in np.flatnonzero(~H):
                K = H.copy()
                K[x] = True
                K = closure(K)
                key = K.tobytes()
                if key not in subgroups:
                    subgroups[key] = K
                    nxt.append(K)
        frontier = nxt
    involutions = (b == 0) & (c != 0)
    profiles = set()
    for H in subgroups.values():
        profiles.add((int(np.count_nonzero(H)), int(np.count_nonzero(H & involutions)),
                      int(np.count_nonzero(H & (b != 0)))))
    return sorted(profiles)


class TestTwoGroupProfiles:
    def test_q8_profiles(self):
        by_order = {}
        for o, inv, o4 in sylow_subgroup_profiles(8):
            by_order.setdefault(o, set()).add((inv, o4))
        assert by_order[1] == {(0, 0)}
        assert by_order[2] == {(1, 0)}
        assert by_order[4] == {(3, 0), (1, 2)}
        assert by_order[8] == {(7, 0), (3, 4)}  # no quaternion-like profile
        assert by_order[16] == {(7, 8)}
        assert by_order[32] == {(7, 24)}
        assert by_order[64] == {(7, 56)}

    def test_q8_two_group_genus_set(self):
        genera = set()
        for o, inv, o4 in sylow_subgroup_profiles(8):
            delta = 26 * inv + 6 * o4
            num = TWO_G_MINUS_2_Q8 - delta + 2 * o
            assert num % (2 * o) == 0, (o, inv, o4)
            genera.add(num // (2 * o))
        assert genera == {196, 92, 45, 40, 19, 14, 6, 2, 0}
        assert TARGET_Q8 not in genera


class TestGenus13Unreachable:
    def test_all_small_orders(self, small_model, place_set, generators):
        """Genus 13 needs |L| <= 16; walk every admissible order.

        Subgroups of order coprime to 5 project isomorphically to the
        simple factor (the component map has image of order 5), and
        subgroups of order divisible by 5 decompose through the component;
        conjugation preserves the component, so twisted cyclic groups admit
        no inverting involutions and no commuting involutions (their
        centralizers have order 25).
        """
        seen, _ = small_model
        achievable: dict[int, set[int]] = {1: {196}}

        # 2-groups: all conjugate into the wild stabilizer part
        for o, inv, o4 in sylow_subgroup_profiles(8):
            if 1 < o <= 16:
                delta = 26 * inv + 6 * o4
                achievable.setdefault(o, set()).add((TWO_G_MINUS_2_Q8 - delta + 2 * o) // (2 * o))

        # order 5: pure (fixed-free), central (65 each), twisted (5 each)
        achievable[5] = {
            (TWO_G_MINUS_2_Q8 - delta + 10) // 10 for delta in (0, 4 * 65, 4 * 5)
        }

        # orders 7 and 13: cyclic only; all powers share the measured counts
        t7 = generators["torus7"]
        delta7 = sum(act.fixed_points(act.power(t7, a)) for a in range(1, 7))
        assert delta7 == 12
        achievable[7] = {(TWO_G_MINUS_2_Q8 - delta7 + 14) // 14}
        sgens = [generators[n] for n in ("torus7", "wild_b", "wild_c", "phi")]
        e13 = act.find_element_of_order(place_set, 13, sgens)
        delta13 = sum(act.fixed_points(act.power(e13, a)) for a in range(1, 13))
        assert delta13 == 0
        achievable[13] = {(TWO_G_MINUS_2_Q8 - delta13 + 26) // 26}

        # order 10: cyclic = involution times central power; dihedral over a
        # pure rotation (twisted rotations cannot be inverted)
        c10 = generators["wild_c"][generators["gamma"]]
        assert act.element_order(c10) == 10
        delta_c10 = 0
        for a in range(1, 10):
            x = act.power(c10, a)
            delta_c10 += 26 if act.element_order(x) == 2 else act.fixed_points(x)
        assert delta_c10 == 26 + 4 * 65 + 4 * 1
        delta_d10 = 5 * 26  # five reflections; pure rotations are fixed-free
        achievable[10] = {
            (TWO_G_MINUS_2_Q8 - delta_c10 + 20) // 20,
            (TWO_G_MINUS_2_Q8 - delta_d10 + 20) // 20,
        }

        # order 14: no cyclic (no order-14 elements); dihedral over order 7
        delta_d14 = 7 * 26 + delta7
        achievable[14] = {(TWO_G_MINUS_2_Q8 - delta_d14 + 28) // 28}

        union = set().union(*achievable.values())
        assert union == {6, 8, 14, 16, 19, 28, 38, 40, 45, 92, 196}
        assert TARGET_Q8 not in union


class TestGenus247Unreachable:
    def test_involution_bound_excludes_small_orders(self):
        aut = 2**10 * 5**4 * 31 * 41
        survivors = []
        for L in (L for L in range(1, 63) if aut % L == 0):
            delta = TWO_G_MINUS_2_Q32 - 492 * L
            if 0 <= delta <= 226 * (L - 1):
                survivors.append(L)
        assert survivors == [50, 62]

    def test_order_50_and_62_shapes(self):
        # Order 50 needs different degree 6150.  The 5-part of such a group
        # is a subgroup of the split 25x25 torus; an involution inverts only
        # untwisted rotations (conjugation fixes the central component) and
        # commutes with none of them (their centralizers are 5-groups), so
        # the shapes are
        #  * dihedral over the untwisted order-25 torus:
        #      25 reflections at 226, rotations fixed-free
        #  * dihedral over the 5-torsion subgroup: the mixed rotation terms
        #    total 4*1025 + 16*25 and the reflection coset 5*226 + 20*1
        #  * the central product of an involution with the full cyclic part
        d50_shapes = {
            25 * 226,
            4 * 1025 + 16 * 25 + 5 * 226 + 20 * 1,
            226 + 24 * 1025 + 24 * 1,
        }
        assert d50_shapes == {5650, 24850}
        assert TWO_G_MINUS_2_Q32 - 492 * 50 == 6150 not in d50_shapes
        # order 62: only the dihedral shape over the split torus
        assert TWO_G_MINUS_2_Q32 - 492 * 62 == 246
        assert 31 * 226 + 30 * 2 == 7066 != 246
