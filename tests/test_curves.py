import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import maxcurve
from maxcurve.catalog import _subfield_branch
from maxcurve.curves import (
    CurveParams,
    Family,
    InvariantError,
    genus,
    hasse_weil_target,
    hermitian_cover_analysis,
    params_from_s,
)
from maxcurve.ramification import filtration, solve_rh


@pytest.mark.parametrize(
    "family,s,q0,q,m",
    [
        ("suzuki-cover", 1, 2, 8, 5),
        ("suzuki-cover", 2, 4, 32, 25),
        ("suzuki-base", 1, 2, 8, 5),
        ("ree-cover", 1, 3, 27, 19),
        ("ree-cover", 2, 9, 243, 217),
    ],
)
def test_params_from_s(family, s, q0, q, m):
    p = params_from_s(family, s)
    assert (p.q0, p.q, p.m) == (q0, q, m)


def test_params_rejects_s_zero():
    with pytest.raises(ValueError):
        params_from_s("suzuki-cover", 0)


@pytest.mark.parametrize(
    "family,s,expected",
    [
        ("suzuki-cover", 1, 196),
        ("suzuki-cover", 2, 15376),
        ("suzuki-base", 1, 14),
        ("suzuki-base", 2, 124),
        ("ree-base", 1, 3627),
        ("ree-cover", 1, 246051),
    ],
)
def test_genus(family, s, expected):
    assert genus(params_from_s(family, s)) == expected


@pytest.mark.parametrize("family,s", [("suzuki-cover", s) for s in (1, 2, 3)] + [("ree-cover", s) for s in (1, 2, 3)])
def test_cover_two_g_minus_2_identity(family, s):
    p = params_from_s(family, s)
    g = genus(p)
    assert g >= 2
    if family == "suzuki-cover":
        assert 2 * g - 2 == (p.q**2 + 1) * (p.q - 2)
    else:
        assert 2 * g - 2 == (p.q**3 + 1) * (p.q - 2)


def test_hasse_weil_target():
    assert hasse_weil_target(4096, 196) == 29185
    assert hasse_weil_target(4096, 0) == 4097
    assert hasse_weil_target(2**20, 15376) == 32538625
    with pytest.raises(ValueError):
        hasse_weil_target(8, 196)


class TestHermitianCover:
    def test_suzuki_window_and_delta(self):
        p = params_from_s("suzuki-cover", 1)
        rec = hermitian_cover_analysis("suzuki-cover", p, 9)
        assert rec.window == (9, 10)
        assert rec.in_window
        assert rec.delta == 520 == p.q**3 + p.q
        assert not hermitian_cover_analysis("suzuki-cover", p, 1).in_window
        assert hermitian_cover_analysis("suzuki-cover", p, 10).in_window

    def test_ree_window_exclusions_and_rh_identity(self):
        p = params_from_s("ree-cover", 1)
        q = p.q
        rec = hermitian_cover_analysis("ree-cover", p, (q + 1) ** 2)
        assert rec.window == (q * q + q + 1, q * q + 2 * q + 4)
        assert rec.in_window
        assert rec.delta == 3 * q * (q**3 + 1) == 1594404
        # the Riemann-Hurwitz identity: delta is built from the cover genus,
        # so the quotient genus it forces is that genus
        assert rec.genus_from_delta == genus(p) == 246051
        assert solve_rh(q**6 - q**3 - 2, (q + 1) ** 2, rec.delta) == (246051, None)
        assert rec.excluded  # (q+1)^2 = q^2+2q+1 is one of the ruled-out orders
        assert hermitian_cover_analysis("ree-cover", p, q * q + q + 1).excluded
        assert not hermitian_cover_analysis("ree-cover", p, q * q + q + 2).excluded

    def test_params_of_the_other_family_are_rebuilt(self):
        rec = hermitian_cover_analysis("suzuki-cover", params_from_s("suzuki-base", 1), 9)
        assert (rec.delta, rec.genus_from_delta) == (520, 196)

    def test_base_families_rejected(self):
        p = params_from_s("suzuki-base", 1)
        with pytest.raises(ValueError):
            hermitian_cover_analysis("suzuki-base", p, 9)


def test_family_enum_round_trip():
    assert Family("suzuki-cover").char == 2
    assert Family("ree-base").char == 3
    assert Family("ree-cover").is_cover and not Family("ree-base").is_cover


class TestInvariants:
    def test_inconsistent_params_raise(self):
        with pytest.raises(InvariantError, match="q0 = 5"):
            CurveParams(Family.SUZUKI_COVER, 1, 5, 7, 9)
        with pytest.raises(InvariantError):
            CurveParams(Family.REE_COVER, 1, 3, 27, 20)

    def test_raised_under_optimize(self):
        """Unlike an assert, the check survives python -O."""
        code = ("from maxcurve.curves import CurveParams, Family, InvariantError\n"
                "try:\n    CurveParams(Family.SUZUKI_COVER, 1, 5, 7, 9)\n"
                "except InvariantError:\n    print('raised')\n")
        src = str(Path(maxcurve.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0 and proc.stdout == "raised\n"

    def test_filtration_and_subfield_branches(self):
        # the checks follow from consistent parameters, so break them directly
        bad = SimpleNamespace(family=Family.SUZUKI_COVER, s=1, q0=2, q=8, m=6)
        with pytest.raises(InvariantError):
            filtration(Family.SUZUKI_COVER, bad)
        with pytest.raises(InvariantError):
            filtration(Family.REE_COVER, SimpleNamespace(family=Family.REE_COVER, s=1, q0=3, q=27, m=20))
        with pytest.raises(InvariantError):
            _subfield_branch(SimpleNamespace(p=2, s=2, q0=4, q=32, m=24), 0)
        with pytest.raises(InvariantError):
            _subfield_branch(SimpleNamespace(p=3, s=1, q0=3, q=26, m=19), 0)
