"""Different-degree machinery: per-class ramification contributions i(sigma),
the higher-ramification filtration at the infinite place, and the
Riemann-Hurwitz genus solver used as the integrality oracle everywhere."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .curves import CurveParams, Family, require, resolve_curve


class UnknownClassError(ValueError):
    pass


# The keys of _suzuki_table and _ree_table tag the conjugacy types of the
# nontrivial elements of the full automorphism group, written as
# sigma * tau^k with sigma in the lifted simple group and tau generating the
# central cyclic factor of order m.


def _suzuki_table(params: CurveParams) -> dict[str, tuple[int, int]]:
    q, q0, m = params.q, params.q0, params.m
    # class -> (i(sigma), i(sigma * tau^k) for k != 0)
    return {
        "tau_power": (q * q + 1, q * q + 1),
        "order2": (m * (2 * q0 + 1) + 1, 1),
        "order4": (m + 1, 1),
        "div_q_minus_1": (2, 2),
        "div_q_plus_2q0_plus_1": (0, 0),
        "div_m_plain": (0, 0),
    }


def _ree_table(params: CurveParams) -> dict[str, tuple[int, int]]:
    q, q0, m = params.q, params.q0, params.m
    return {
        "tau_power": (q**3 + 1, q**3 + 1),
        "order3_central": (m * (q + 3 * q0 + 1) + 1, 1),
        "order3_noncentral": (m * (3 * q0 + 1) + 1, 1),
        "order9": (m + 1, 1),
        "order2": (q + 1, q + 1),
        "order6": (1, 1),
        "div_q_minus_1": (2, 2),
        "div_q_plus_1": (0, 0),
        "div_q_plus_3q0_plus_1": (0, 0),
        "div_m_plain": (0, 0),
    }


@dataclass(frozen=True)
class ClassTable:
    """The class contributions of one curve: rows maps each class to
    (i(sigma), i(sigma * tau^k) for k != 0), and special is the value 4m
    resp. 6m of a special (sigma, tau^j) pair.  Shared by every caller and
    never mutated."""

    family: Family
    rows: dict[str, tuple[int, int]]
    special: int

    def row(self, cls: str) -> tuple[int, int]:
        row = self.rows.get(cls)
        if row is None:
            raise UnknownClassError(f"unknown class {cls!r} for {self.family}")
        return row


@lru_cache(maxsize=64)
def class_table(params: CurveParams) -> ClassTable:
    """The class table of the curve, built once per parameter set."""
    if params.p == 2:
        return ClassTable(params.family, _suzuki_table(params), 4 * params.m)
    return ClassTable(params.family, _ree_table(params), 6 * params.m)


def i_sigma(cls: str, params: CurveParams):
    """Contribution of one element of the given class to the different degree.

    For the special class pairing an order-dividing-m element with the unique
    matching tau power, returns the pair (plain value, special value); the
    special value occurs for exactly one tau exponent per such element.
    """
    table = class_table(params)
    if cls == "div_m_special_j":
        return (0, table.special)
    return table.row(cls)[0]


def i_sigma_tau(cls: str, params: CurveParams) -> int:
    """Contribution of (class element) * tau^k for k != 0, special j aside."""
    return class_table(params).row(cls)[1]


@dataclass(frozen=True)
class RamificationFiltration:
    """Higher ramification groups at the infinite place, recorded as
    (label, order, last index at which the subgroup persists)."""

    family: Family
    levels: tuple[tuple[str, int, int], ...]

    @property
    def last_nontrivial_index(self) -> int:
        return self.levels[-1][2]


def filtration(family: Family | str, params: CurveParams) -> RamificationFiltration:
    family, params = resolve_curve(family, params)
    q, q0, m = params.q, params.q0, params.m
    if family.char == 2:
        levels = (
            ("full_stabilizer", q * q * (q - 1) * m, 0),
            ("wild_order_le_4", q * q, m),
            ("involutions", q, m * (2 * q0 + 1)),
        )
        require(m * (2 * q0 + 1) == q * q + 1 - m * q, "m (2 q0 + 1) != q^2 + 1 - m q")
    else:
        levels = (
            ("full_stabilizer", q**3 * (q - 1) * m, 0),
            ("sylow3", q**3, m),
            ("derived", q * q, m * (3 * q0 + 1)),
            ("center", q, m * (q + 3 * q0 + 1)),
        )
        require(m * (q + 3 * q0 + 1) == q * q - q + 1, "m (q + 3 q0 + 1) != q^2 - q + 1")
    return RamificationFiltration(family=family, levels=levels)


def i_from_filtration(cls: str, params: CurveParams) -> int:
    """Wild i(sigma) recomputed as the number of filtration levels containing
    the element (one fixed place, membership counted from index 0)."""
    filt = filtration(params.family, params)
    membership = {
        "order2": {"full_stabilizer", "wild_order_le_4", "involutions"},
        "order4": {"full_stabilizer", "wild_order_le_4"},
        "order3_central": {"full_stabilizer", "sylow3", "derived", "center"},
        "order3_noncentral": {"full_stabilizer", "sylow3", "derived"},
        "order9": {"full_stabilizer", "sylow3"},
    }[cls]
    total = 0
    prev_end = -1
    for label, _, last in filt.levels:
        if label in membership:
            total += last - prev_end
        prev_end = last
    return total


def delta_from_composition(composition, params: CurveParams) -> int:
    """Sum the contributions of a group's nontrivial elements.

    Entries are (class, multiplicity) or (class, multiplicity, with_tau);
    with_tau means the elements carry a nontrivial tau component, so the
    cross value from the contribution table applies.  div_m_special_j
    entries count declared special (sigma, tau^j) pairs at 4m resp. 6m.
    """
    table = class_table(params)
    total = 0
    for entry in composition:
        cls, mult = entry[0], entry[1]
        if mult < 0:
            raise ValueError("negative multiplicity")
        if cls == "div_m_special_j":
            total += mult * table.special
        else:
            with_tau = len(entry) > 2 and entry[2]
            total += mult * table.row(cls)[1 if with_tau else 0]
    return total


def census_different(census: dict[str, int], pairs: int, table: ClassTable) -> tuple[int, int, int, int]:
    """(|H|, A, B, C) of a subgroup H from its class census (the nontrivial
    classes with their element counts) in one pass, one row lookup per
    class, over the curve's class table.

    A is the different degree of H, B that of one coset H tau^k with k != 0
    (tau^k and the census with a tau component), and C that of the given
    number of special (sigma, tau^j) pairs at 4m resp. 6m.  H x C_n with
    pairs (gcd(d, n) - 1) special pairs then has the different degree
    A + (n - 1) B + (gcd(d, n) - 1) C.  delta_from_composition stays the
    per-entry path the sweep is checked against.
    """
    rows = table.rows
    size, plain, cross = 1, 0, rows["tau_power"][0]
    for cls, cnt in census.items():
        if cnt < 0:
            raise ValueError("negative multiplicity")
        # a row is a nonempty tuple: row() runs only to raise for a class
        # the table lacks
        at_1, at_tau = rows.get(cls) or table.row(cls)
        size += cnt
        plain += cnt * at_1
        cross += cnt * at_tau
    return size, plain, cross, pairs * table.special


def rh_genus(two_g_minus_2_cover: int, order: int, delta: int) -> int | None:
    """Solve |L| (2 g_L - 2) + delta = 2g - 2 for g_L: g_L when it is a
    nonnegative integer, else None."""
    two_order = 2 * order
    num = two_g_minus_2_cover - delta + two_order
    if num < 0 or num % two_order:
        return None
    return num // two_order


def solve_rh(two_g_minus_2_cover: int, order: int, delta: int) -> tuple[int | None, str | None]:
    """rh_genus without raising: (g_L, None) when g_L is a nonnegative
    integer, else (None, why not)."""
    g = rh_genus(two_g_minus_2_cover, order, delta)
    if g is None:
        num = two_g_minus_2_cover - delta + 2 * order
        return None, f"RH gives genus {num}/{2 * order}, not a nonnegative integer"
    return g, None
