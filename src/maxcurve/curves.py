"""Parameter bookkeeping and closed-form invariants for the four curve
families: the Suzuki and Ree curves and their cyclic Kummer covers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property


class InvariantError(RuntimeError):
    """A computed value broke a proven bound: a bug, never bad input."""


def require(ok: bool, what: str) -> None:
    """Raise InvariantError(what) unless ok; unlike assert, kept under -O."""
    if not ok:
        raise InvariantError(what)


class Family(str, Enum):
    SUZUKI_BASE = "suzuki-base"
    SUZUKI_COVER = "suzuki-cover"
    REE_BASE = "ree-base"
    REE_COVER = "ree-cover"

    @property
    def char(self) -> int:
        return 2 if self in (Family.SUZUKI_BASE, Family.SUZUKI_COVER) else 3

    @property
    def is_cover(self) -> bool:
        return self in (Family.SUZUKI_COVER, Family.REE_COVER)


@dataclass(frozen=True)
class CurveParams:
    family: Family
    s: int
    q0: int
    q: int
    m: int

    @cached_property
    def p(self) -> int:
        # read several times per spec of a catalog sweep: resolved once
        return self.family.char

    def __post_init__(self):
        p, s, q0, q, m = self.p, self.s, self.q0, self.q, self.m
        require(q0 == p**s, f"q0 = {q0} is not {p}^{s}")
        require(q == p * q0**2, f"q = {q} is not {p} q0^2")
        require(m == q - p * q0 + 1, f"m = {m} is not q - {p} q0 + 1")
        # m divides q^2+1 (char 2) resp. q^3+1 (char 3)
        if p == 2:
            require(q**2 + 1 == m * (q + 2 * q0 + 1), "q^2 + 1 != m (q + 2 q0 + 1)")
        else:
            require(q**3 + 1 == m * (q + 1) * (q + 3 * q0 + 1), "q^3 + 1 != m (q + 1) (q + 3 q0 + 1)")


def params_from_s(family: Family | str, s: int) -> CurveParams:
    family = Family(family)
    if s < 1:
        raise ValueError("s must be >= 1")
    p = family.char
    q0 = p**s
    q = p * q0 * q0
    return CurveParams(family=family, s=s, q0=q0, q=q, m=q - p * q0 + 1)


def resolve_curve(family: Family | str, params: CurveParams) -> tuple[Family, CurveParams]:
    """The family and the params of its curve: params of another family are
    rebuilt for this one at the same s."""
    family = Family(family)
    if params.family is not family:
        params = params_from_s(family, params.s)
    return family, params


def genus(params: CurveParams) -> int:
    q, q0 = params.q, params.q0
    if params.family is Family.SUZUKI_BASE:
        return q0 * (q - 1)
    if params.family is Family.SUZUKI_COVER:
        return (q**3 - 2 * q**2 + q) // 2
    if params.family is Family.REE_BASE:
        return 3 * q0 * (q - 1) * (q + q0 + 1) // 2
    return (q**4 - 2 * q**3 + q) // 2


def hasse_weil_target(ell: int, g: int) -> int:
    """Upper bound ell + 1 + 2g*sqrt(ell); requires ell a perfect square."""
    root = math.isqrt(ell)
    if root * root != ell:
        raise ValueError(f"{ell} is not a perfect square")
    return ell + 1 + 2 * g * root


@dataclass(frozen=True)
class HermitianCoverRecord:
    family: Family
    group_order: int
    delta: int
    in_window: bool
    excluded: bool
    window: tuple[int, int]
    genus_from_delta: int


def hermitian_cover_analysis(family: Family | str, params: CurveParams, group_order: int) -> HermitianCoverRecord:
    """Degree of the different for a putative Galois covering by the ambient
    Hermitian curve, with the admissible order window and exclusions.

    For the Suzuki cover: delta = q^4 - q^2 - 2 - |G| (q^3 - 2q^2 + q - 2),
    window q+1 <= |G| <= q+2.  For the Ree cover: delta = q^6 - q^3 - 2 -
    |G| (q^4 - 2q^3 + q - 2), window q^2+q+1 <= |G| <= q^2+2q+4 minus the
    ruled-out orders q^2+q+1 and q^2+2q+1.  A group order below 1 is a
    ValueError.

    genus_from_delta is g = genus(params), the genus that Riemann-Hurwitz
    solves from delta: delta is (2 g_H - 2) - |G| (2 g - 2), so RH gives g
    for every group order, a Riemann-Hurwitz identity, not a coincidence.
    """
    family, params = resolve_curve(family, params)
    if group_order < 1:
        raise ValueError(f"group order must be a positive integer, got {group_order}")
    q = params.q
    if family is Family.SUZUKI_COVER:
        two_g_cover_minus_2 = q**4 - q**2 - 2
        window = (q + 1, q + 2)
        excluded = False
    elif family is Family.REE_COVER:
        two_g_cover_minus_2 = q**6 - q**3 - 2
        window = (q**2 + q + 1, q**2 + 2 * q + 4)
        excluded = group_order in (q**2 + q + 1, q**2 + 2 * q + 1)
    else:
        raise ValueError("only the cover families admit this analysis")
    g = genus(params)
    delta = two_g_cover_minus_2 - group_order * (2 * g - 2)
    in_window = window[0] <= group_order <= window[1]
    return HermitianCoverRecord(
        family=family,
        group_order=group_order,
        delta=delta,
        in_window=in_window,
        excluded=excluded,
        window=window,
        genus_from_delta=g,
    )
