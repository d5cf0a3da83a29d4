"""The automorphism action on the Suzuki cover at q=8, realized as explicit
permutations of the 29185 places rational over the degree-4 extension.

Places are triples (x, y, t) of field codes plus one distinguished infinite
place at index 0.  Generators come in three flavors: stabilizer maps
(x, y, t) -> (A x + b, A^(q0+1) y + A b^q0 x + c, delta t) with delta^m = A,
the torus map t -> lambda t, and the lifted involution built from the
rational functions alpha/beta, y/beta, t/beta with its degenerate locus
completed by the forced swap of the origin with the infinite place.

Places are sorted by (x, y, t), and a dense index finds the id of a
triple without a search.  Each x that has places owns one block of
q * width[x] consecutive ids, where width[x] is m, or 1 when x^q + x = 0.
Inside the block the y values are the coset y + F_q and the t values the
m roots of x^q + x, so the rank of y in its block depends on y alone, and
so does the rank of t; the index is four tables over the field codes.

A generator's coordinate maps are evaluated once over the field codes and
gathered by the coordinates of the places.

verify_group is the check of the group at q=8 that `maxcurve verify-group`
prints: which generator plays which role, the rows with their measured and
expected values, and the seconds of each stage.  Every element order, on
the 65 F_q-rational places as on all places, is element_order's.

A permutation is a plain int32 array whose entry i is the image of place i,
so a[b] (computed as a.take(b)) applies b first, and the field arithmetic
is FieldSpec's.

Memory: the per-place arrays that outlive a pass are built once, in
build_places: the packed keys and the coordinates X, Y, T of PlaceSet,
plus one shared read-only identity permutation per length.  A pass
allocates plain temporaries; each generator, product and power is a fresh
int32 array.  The involution's maps other than t/beta are taken once per
pair (x, y), and keys are packed in place.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass

import numpy as np

from .curves import CurveParams
from .gf import FieldSpec, _factorize, make_field
from .ramification import i_sigma


# The random words find_element_of_order tries, and the most elements
# stabilizer_subgroup_order closes over, before each gives up.
MAX_TRIES = 100_000
CLOSURE_CAP = 1000


class ModelError(RuntimeError):
    """A generator failed to permute the place set: parameterization bug."""


@dataclass
class PlaceSet:
    """The places, and the dense index over the field codes that ids()
    reads: the affine place (x, y, t) sits at row
    start[x] + yrank[y] * width[x] + trank[t] of keys, if it is a place."""

    field: FieldSpec
    params: CurveParams
    keys: np.ndarray  # packed (x, y, t) of each affine place, strictly increasing
    coords: tuple[np.ndarray, np.ndarray, np.ndarray]
    subfield: list[int]
    fq_ids: list[int]  # ids of the F_q-rational places, the infinite place first
    codes: np.ndarray  # int64: every field code, the domain of the coordinate maps
    start: np.ndarray  # int32 per x: the first row of its block
    width: np.ndarray  # int32 per x: the number of t per y, m or 1
    yrank: np.ndarray  # int32 per y of a place: its rank in the coset y + F_q (0 for other codes)
    trank: np.ndarray  # int32 per t of a place: its rank among t * zeta^j (0 for other codes)

    INFTY = 0

    def __len__(self) -> int:
        return len(self.keys) + 1

    def fq_rational_ids(self) -> list[int]:
        return self.fq_ids

    def t_zero_affine_count(self) -> int:
        return int(np.count_nonzero(self.coords[2] == 0))

    def ids(self, x: np.ndarray, y: np.ndarray, t: np.ndarray, what: str) -> np.ndarray:
        """Ids of the affine places (x, y, t); ModelError names the first
        triple that is not a place.  A triple that is not a place may still
        index a row (of another block, or past the last row, which is read
        instead): its key there differs from its own."""
        row = self.start.take(x) + self.yrank.take(y) * self.width.take(x) + self.trank.take(t)
        found = self.keys.take(row, mode="clip") == _pack(self.field.k, x, y, t)
        if not found.all():
            i = int(np.argmin(found))
            raise ModelError(f"{what} {(int(x[i]), int(y[i]), int(t[i]))} is not a place")
        return row + 1


def _pack(k: int, x, y, t):
    """(x, y, t) of equal shapes as one int64 integer, ((x << k | y) << k)
    | t, shifted and ORed in place; codes below 2^k keep the lexicographic
    order."""
    key = np.left_shift(x, k, dtype=np.int64)
    key |= y
    key <<= k
    key |= t
    return key


def build_places(params: CurveParams) -> PlaceSet:
    """Enumerate all places of the q=8 cover over the degree-4 extension,
    in lexicographic coordinate order, infinite place first."""
    if params.q != 8:
        raise ModelError("place enumeration is desk scale: q=8 only")
    f = make_field(2, 12)
    n = f.order - 1
    q, q0, m = params.q, params.q0, params.m
    codes = np.arange(f.order, dtype=np.int64)

    # s = x^q + x.  The same map y -> y^q + y is linearized with the
    # subfield as kernel; pre holds its smallest preimage of each value.
    s = f.vadd(f.vpow(codes, q), codes)
    image, first = np.unique(s, return_index=True)
    pre = np.full(f.order, -1, dtype=np.int64)
    pre[image] = first
    kernel = sorted(f.subfield_codes(2 * params.s + 1))
    if len(kernel) != q:
        raise ModelError(f"the kernel of y -> y^q + y has {len(kernel)} elements, expected {q}")

    # x carries places iff y^q + y = x^q0 s and t^m = s are solvable
    y0 = pre[f.vmul(f.vpow(codes, q0), s)]
    xs = np.flatnonzero((y0 >= 0) & ((s == 0) | (f.vpow(s, n // m) == 1)))
    # each row the coset y0 + F_q, ascending
    ys = np.sort(f.vadd(y0[xs, None], np.array(kernel)), axis=1)
    # each row the m roots t0 * zeta^j, ascending: t0 = s^e with m e = 1 mod
    # n/m (at q=8, gcd(5, 819) = 1), and zeta = g^(n/m); s = 0 has the
    # single root 0, whose m copies are merged below
    zeta = f.pow(f.generator_code(), n // m)
    zetas = [f.pow(zeta, j) for j in range(m)]
    t0 = f.vpow(s[xs], pow(m, -1, n // m))
    ts = np.sort(f.vmul(t0[:, None], zetas), axis=1)
    # xs ascend, and so does each row of ys and ts: the keys come out sorted
    keys = _pack(f.k, *np.broadcast_arrays(xs[:, None, None], ys[:, :, None], ts[:, None, :])).ravel()
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]

    low = (1 << f.k) - 1
    X, Y, T = keys >> (2 * f.k), (keys >> f.k) & low, keys & low
    in_kernel = np.zeros(f.order, dtype=bool)
    in_kernel[kernel] = True
    rational = in_kernel.take(X) & in_kernel.take(Y) & (T == 0)

    # the index: each x with places owns q * width[x] rows, in x order; the
    # rank of y in y + F_q (of t among t * zeta^j) is its column in ys (ts)
    width = np.where(s == 0, 1, m).astype(np.int32)
    size = np.zeros(f.order, dtype=np.int32)
    size[xs] = q * width[xs]
    start = np.zeros(f.order, dtype=np.int32)
    np.cumsum(size[:-1], out=start[1:])
    yrank = np.zeros(f.order, dtype=np.int32)
    yrank[ys] = np.arange(q, dtype=np.int32)
    trank = np.zeros(f.order, dtype=np.int32)
    trank[ts[s[xs] != 0]] = np.arange(m, dtype=np.int32)  # the root 0 keeps rank 0
    return PlaceSet(
        field=f,
        params=params,
        keys=keys,
        coords=(X, Y, T),
        subfield=kernel,
        fq_ids=[PlaceSet.INFTY] + (np.flatnonzero(rational) + 1).tolist(),
        codes=codes,
        start=start,
        width=width,
        yrank=yrank,
        trank=trank,
    )


def _require_bijection(perm: np.ndarray, message: str) -> None:
    if np.bincount(perm).max() != 1:  # n values in [0, n), none repeated
        raise ModelError(message)


def _perm_from_affine_images(ps: PlaceSet, xi, yi, ti, tag: str) -> np.ndarray:
    perm = np.empty(len(ps), dtype=np.int32)
    perm[PlaceSet.INFTY] = PlaceSet.INFTY
    perm[1:] = ps.ids(xi, yi, ti, f"{tag}: image")
    _require_bijection(perm, f"{tag}: not a bijection")
    return perm


def gen_stabilizer(ps: PlaceSet, A: int, b: int, c: int, delta: int) -> np.ndarray:
    """Lifted stabilizer element: the scaling (A x, A^(q0+1) y, delta t),
    then the translation (x + b, y + b^q0 x + c, t), so y maps to
    A^(q0+1) y + A b^q0 x + c; requires A, b, c in the base subfield,
    A nonzero, and delta^m = A."""
    f, params = ps.field, ps.params
    q0, m = params.q0, params.m
    sub = set(ps.subfield)
    if A == 0:
        raise ModelError("A must be nonzero")
    if not {A, b, c} <= sub:
        raise ModelError("A, b, c must lie in the base subfield")
    if f.pow(delta, m) != A:
        raise ModelError("delta^m != A")
    X, Y, T = ps.coords
    xi = f.vadd(f.vmul(ps.codes, A), b).take(X)
    yi = f.vadd(f.vmul(ps.codes, f.pow(A, q0 + 1)).take(Y),
                f.vadd(f.vmul(ps.codes, f.mul(A, f.pow(b, q0))), c).take(X))
    ti = f.vmul(ps.codes, delta).take(T)
    return _perm_from_affine_images(ps, xi, yi, ti, "stabilizer")


def stabilizer_in_complement(ps: PlaceSet, A: int, b: int, c: int) -> np.ndarray:
    """The stabilizer element lying in the lifted simple group: delta is the
    unique m-th root of A inside the base subfield."""
    params = ps.params
    r = pow(params.m, -1, params.q - 1)
    delta = ps.field.pow(A, r)
    return gen_stabilizer(ps, A, b, c, delta)


def gen_gamma(ps: PlaceSet, lam: int) -> np.ndarray:
    f, m = ps.field, ps.params.m
    if f.pow(lam, m) != 1 or any(f.pow(lam, d) == 1 for d in range(1, m) if m % d == 0):
        raise ModelError("lambda must have exact order m")
    X, Y, T = ps.coords
    return _perm_from_affine_images(ps, X, Y, f.vmul(ps.codes, lam).take(T), "gamma")


def gen_phi(ps: PlaceSet) -> np.ndarray:
    """The lifted involution.  alpha = y^2q0 + x^(2q0+1), beta = x y^2q0 +
    alpha^2q0; regular images are (alpha/beta, y/beta, t/beta).  The places
    where beta vanishes, together with the infinite place, are completed by
    the unique bijective pairing, which must be the origin <-> infinity swap.
    alpha, beta, alpha/beta and y/beta depend on (x, y) alone: they are
    taken once per pair (x, y) and spread over its rows, so t/beta is the
    only product over the places.
    """
    f, q0 = ps.field, ps.params.q0
    X, Y, T = ps.coords
    # the rows of a pair (x, y) are consecutive, the first with the t of
    # rank 0; np.repeat(v, size) spreads a value v per pair over its rows
    lead = np.flatnonzero(ps.trank.take(T) == 0)
    size = np.diff(lead, append=len(T))
    x, y = X.take(lead), Y.take(lead)
    y2 = f.vpow(y, 2 * q0)
    alpha = f.vadd(y2, f.vpow(x, 2 * q0 + 1))
    beta = f.vadd(f.vmul(x, y2), f.vpow(alpha, 2 * q0))

    zeros = int(size[beta == 0].sum())
    if zeros != 1:
        raise ModelError(f"beta vanishes at {zeros} affine places, expected 1")
    # (0, 0, 0) has the least packed key, 0, so the origin is row 0 (id 1)
    # and, as the one row of its pair, pair 0
    if ps.keys[0] != 0 or beta[0] != 0:
        raise ModelError("beta vanishes away from the origin")

    beta[0] = 1  # the origin is completed below, not divided by beta
    binv = f.vpow(beta, -1)

    def rows(v):  # v per pair, spread over rows 1..
        return np.repeat(v, size)[1:]

    # t/beta, the product over the places, first: its temporaries are freed
    # before the other images are spread
    ti = f.vmul(T[1:], rows(binv))
    perm = np.empty(len(ps), dtype=np.int32)
    perm[2:] = ps.ids(rows(f.vmul(alpha, binv)), rows(f.vmul(y, binv)), ti, "involution image")
    perm[1] = PlaceSet.INFTY
    perm[PlaceSet.INFTY] = 1
    _require_bijection(perm, "involution is not a bijection")
    if not np.array_equal(perm.take(perm), _identity(len(perm))):
        raise ModelError("completed map is not an involution")
    return perm


@functools.lru_cache
def _identity(n: int) -> np.ndarray:
    """The identity permutation of n points: one shared array, read-only."""
    one = np.arange(n, dtype=np.int32)
    one.flags.writeable = False
    return one


def fixed_points(a: np.ndarray) -> int:
    return int(np.count_nonzero(a == _identity(len(a))))


def element_order(a: np.ndarray) -> int:
    """The lcm of the cycle lengths.  Pointer doubling labels every point
    with the smallest point of its cycle in at most ceil(log2 n) rounds:
    after round r, label[i] is the minimum over i, p(i), ..., p^(2^r - 1)(i).

    A round that changes no label ends the loop early.  Then label[i] <=
    label[p^(2^r)(i)] for every i, so the labels are constant on each cycle
    of p^(2^r); the 2^r consecutive points whose window holds the minimum
    of a p-cycle meet every such cycle inside it, so all carry that minimum.
    """
    n = len(a)
    jump, label = a.astype(np.intp), np.arange(n, dtype=np.intp)
    for _ in range((n - 1).bit_length()):
        nxt = np.minimum(label, label.take(jump))
        if np.array_equal(nxt, label):
            break
        label, jump = nxt, jump.take(jump)
    sizes = np.bincount(label)
    # the distinct cycle lengths are the nonzero bins past 0 of the sizes
    return math.lcm(*(np.flatnonzero(np.bincount(sizes)[1:]) + 1).tolist())


def power(a: np.ndarray, n: int) -> np.ndarray:
    """a^n for n >= 0, a fresh array for n > 0; a^0 is the shared read-only
    identity."""
    if not n:
        return _identity(len(a))
    base = a
    while not n & 1:
        base = base.take(base)
        n >>= 1
    # the lowest set bit starts the product: a square of a, fresh already,
    # or a copy of a
    result = a.copy() if base is a else base
    n >>= 1
    while n:
        base = base.take(base)
        if n & 1:
            result = base.take(result)
        n >>= 1
    return result


def has_order(a: np.ndarray, o: int) -> bool:
    """Whether the permutation a has order exactly o: a^o = 1, and a^(o/p)
    != 1 for each prime p | o."""
    one = _identity(len(a))
    return (np.array_equal(power(a, o), one)
            and not any(np.array_equal(power(a, o // p), one) for p in _factorize(o)))


def default_generators(ps: PlaceSet) -> dict[str, np.ndarray]:
    """A fixed generating set: a full-torus stabilizer element, the two wild
    translations, the involution, and the torus map with lambda = g^(n/m),
    the zeta of build_places."""
    f = ps.field
    nonzero_sub = [c for c in ps.subfield if c != 0]
    # the base subfield's unit group is cyclic of prime order, so any
    # non-identity unit generates it
    gen7 = next(c for c in nonzero_sub if c != 1)
    one = 1
    return {
        "torus7": stabilizer_in_complement(ps, gen7, 0, 0),
        "wild_b": stabilizer_in_complement(ps, one, nonzero_sub[0], 0),
        "wild_c": stabilizer_in_complement(ps, one, 0, nonzero_sub[0]),
        "phi": gen_phi(ps),
        "gamma": gen_gamma(ps, f.pow(f.generator_code(), (f.order - 1) // ps.params.m)),
    }


def verify_orbits(ps: PlaceSet, perms: list[np.ndarray]) -> tuple[int, ...]:
    """Orbit sizes of the group generated by the given permutations."""
    n = len(ps)
    seen = np.zeros(n, dtype=bool)
    sizes = []
    while not seen.all():
        start = int(np.argmin(seen))  # the first unseen place
        frontier = np.array([start])
        seen[start] = True
        size = 1
        while frontier.size:
            reached = np.zeros(n, dtype=bool)
            for p in perms:
                reached[p.take(frontier)] = True
            frontier = np.flatnonzero(reached & ~seen)
            seen[frontier] = True
            size += frontier.size
        sizes.append(size)
    return tuple(sorted(sizes))


def _small_orbit_restriction(ps: PlaceSet, generators: list[np.ndarray]) -> list[np.ndarray]:
    """Each generator as a permutation of the small orbit: entry i is the
    position within fq_rational_ids() of the image of its i-th place."""
    fq_ids = np.array(ps.fq_rational_ids())  # ascending, the infinite place first
    restricted = []
    for i, g in enumerate(generators):
        image = g.take(fq_ids)
        r = np.searchsorted(fq_ids, image)  # the position of each image within fq_ids
        # a position past the end reads the last id, which differs from the image
        if not np.array_equal(fq_ids.take(r, mode="clip"), image):
            raise ModelError(f"generator {i} moves an F_q-rational place off the small orbit")
        restricted.append(r)
    return restricted


def find_element_of_order(ps: PlaceSet, target: int, generators: list[np.ndarray],
                          seed: int = 20240901) -> np.ndarray:
    """Deterministic random search for an element of exact order `target`
    inside the group generated by `generators`.

    Words are screened on the generators' restrictions to the small orbit
    (the F_q-rational places), on which the lifted simple group acts
    faithfully.  Only the first word whose order there is divisible by
    `target` is composed over all places; its full order must equal its
    small-orbit order o, checked by powers (has_order), or ModelError says
    the restriction is not faithful.  The result is that word to the power
    o / target, a fresh array."""
    rng = random.Random(seed)
    small = _small_orbit_restriction(ps, generators)
    for _ in range(MAX_TRIES):
        word = [rng.randrange(len(generators)) for _ in range(rng.randint(2, 8))]
        perm = small[word[0]]
        for i in word[1:]:
            perm = small[i].take(perm)
        o = element_order(perm)
        if o % target == 0:
            full = generators[word[0]]
            for i in word[1:]:  # a word has at least two letters, so full is a fresh array
                full = generators[i].take(full)
            if not has_order(full, o):
                raise ModelError(f"a word of order {o} on the small orbit has order {element_order(full)} "
                                 "on all places: the restriction is not faithful")
            return power(full, o // target)
    raise ModelError(f"no element of order {target} found in {MAX_TRIES} tries")


def stabilizer_subgroup_order(ps: PlaceSet, generators: list[np.ndarray]) -> int:
    """Order of the group generated by complement stabilizer elements, such
    as torus7, wild_b and wild_c of default_generators, via closure on their
    restrictions to the small orbit (the F_q-rational places), which tell
    the elements apart."""
    gens = _small_orbit_restriction(ps, generators)
    one = np.arange(len(ps.fq_rational_ids()), dtype=np.intp)  # the dtype of the restrictions
    seen, frontier = {one.tobytes()}, [one]
    while frontier:
        nxt = []
        for g in gens:
            for h in frontier:
                prod = g[h]
                key = prod.tobytes()
                if key not in seen:
                    if len(seen) >= CLOSURE_CAP:
                        raise ModelError("closure exceeded cap")
                    seen.add(key)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


def verify_group(params: CurveParams) -> tuple[list[dict], dict[str, float], tuple[int, ...]]:
    """The q=8 check of the group: its rows (check, measured, expected, ok)
    in a fixed order, the seconds of each stage, and the field modulus.

    The roles of default_generators: gamma is tau, whose powers tau^j
    (j = 1..m-1) fix the small orbit; wild_c is an involution, wild_b has
    order 4 and torus7 order 7; torus7, wild_b, wild_c and phi generate the
    lifted simple group, in which the searches find elements of order 13
    and 5, and the first three its stabilizer of the infinite place, of
    order q^2 (q - 1).  Each stage runs once, in order, and its seconds
    run from the end of the one before; rows builds the tau powers and the
    rows from the results of the others."""
    q, m = params.q, params.m
    marks = [time.perf_counter()]
    ps = build_places(params)
    marks.append(time.perf_counter())
    gens = default_generators(ps)
    marks.append(time.perf_counter())
    sgens = [gens["torus7"], gens["wild_b"], gens["wild_c"], gens["phi"]]
    e13 = find_element_of_order(ps, 13, sgens)
    e5 = find_element_of_order(ps, 5, sgens)
    marks.append(time.perf_counter())
    orbits = list(verify_orbits(ps, list(gens.values())))
    marks.append(time.perf_counter())
    closure = stabilizer_subgroup_order(ps, sgens[:3])
    marks.append(time.perf_counter())

    gamma = gens["gamma"]
    gamma_powers = [gamma]  # gamma^j for j = 1..m-1
    for _ in range(m - 2):
        gamma_powers.append(gamma.take(gamma_powers[-1]))
    rows = []

    def row(name, measured, expected):
        rows.append({"check": name, "measured": measured, "expected": expected,
                     "ok": measured == expected})

    row("place count", len(ps), 29185)
    row("small-field places", len(ps.fq_rational_ids()), q * q + 1)
    row("t=0 affine places", ps.t_zero_affine_count(), q * q)
    row("tau fixed places (all powers)", [fixed_points(g) for g in gamma_powers],
        [i_sigma("tau_power", params)] * (m - 1))
    row("involution fixed places", fixed_points(gens["wild_c"]), 1)
    row("involution order", element_order(gens["wild_c"]), 2)
    row("order-4 fixed places", fixed_points(gens["wild_b"]), 1)
    t7 = gens["torus7"]
    row("order-7 fixed places", fixed_points(t7), i_sigma("div_q_minus_1", params))
    row("order-7 tau products", [fixed_points(t7.take(g)) for g in gamma_powers], [2] * (m - 1))
    row("order-13 fixed places", fixed_points(e13), i_sigma("div_q_plus_2q0_plus_1", params))
    row("order-13 tau products", [fixed_points(e13.take(g)) for g in gamma_powers], [0] * (m - 1))
    row("order-5 fixed places", fixed_points(e5), i_sigma("div_m_plain", params))
    pattern = [fixed_points(e5.take(g)) for g in gamma_powers]
    # measured reality: the contribution spreads as m at each power; the
    # aggregate 4m is what every different-degree computation consumes
    row("order-5 tau products (aggregate)", sum(pattern), 4 * m)
    row("order-5 tau products (pattern)", sorted(pattern), [m] * (m - 1))
    row("orbit sizes", orbits, [65, 29120])
    row("stabilizer closure order", closure, q * q * (q - 1))
    marks.append(time.perf_counter())

    names = ("places", "generators", "order_search", "orbits", "closure", "rows")
    return rows, {k: b - a for k, a, b in zip(names, marks, marks[1:])}, ps.field.modulus
