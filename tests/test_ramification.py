import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcurve import catalog as cat
from maxcurve.catalog import KINDS, divisors, spectrum
from maxcurve.curves import params_from_s
from maxcurve.ramification import (
    UnknownClassError,
    census_different,
    class_table,
    delta_from_composition,
    filtration,
    i_from_filtration,
    i_sigma,
    i_sigma_tau,
    rh_genus,
    solve_rh,
)

P8 = params_from_s("suzuki-cover", 1)
P32 = params_from_s("suzuki-cover", 2)
P27 = params_from_s("ree-cover", 1)
S7 = params_from_s("suzuki-cover", 7)
R3 = params_from_s("ree-cover", 3)


class TestContributionValues:
    def test_suzuki_rows(self):
        assert i_sigma("tau_power", P8) == 65
        assert i_sigma("order2", P8) == 26  # m(2q0+1)+1
        assert i_sigma("order4", P8) == 6
        assert i_sigma("div_q_minus_1", P8) == 2
        assert i_sigma("div_q_plus_2q0_plus_1", P8) == 0
        assert i_sigma("div_m_plain", P8) == 0
        assert i_sigma("div_m_special_j", P8) == (0, 20)

    def test_suzuki_tau_products(self):
        assert i_sigma_tau("order2", P8) == 1
        assert i_sigma_tau("order4", P8) == 1
        assert i_sigma_tau("div_q_minus_1", P8) == 2
        assert i_sigma_tau("div_q_plus_2q0_plus_1", P8) == 0
        assert i_sigma_tau("tau_power", P8) == 65

    def test_ree_rows(self):
        assert i_sigma("tau_power", P27) == 19684
        assert i_sigma("order3_central", P27) == 704 == P27.q**2 - P27.q + 2
        assert i_sigma("order3_noncentral", P27) == 191 == 704 - P27.m * P27.q
        assert i_sigma("order9", P27) == 20
        assert i_sigma("order2", P27) == 28
        assert i_sigma("order6", P27) == 1
        assert i_sigma("div_q_minus_1", P27) == 2
        assert i_sigma("div_q_plus_1", P27) == 0
        assert i_sigma("div_q_plus_3q0_plus_1", P27) == 0
        assert i_sigma("div_m_special_j", P27) == (0, 114)

    def test_unknown_class(self):
        with pytest.raises(UnknownClassError):
            i_sigma("order3_central", P8)
        with pytest.raises(UnknownClassError):
            i_sigma("nonsense", P27)


class TestFiltration:
    def test_suzuki_jumps(self):
        filt = filtration("suzuki-cover", P8)
        labels = [(lv[0], lv[1], lv[2]) for lv in filt.levels]
        assert labels == [
            ("full_stabilizer", 8 * 8 * 7 * 5, 0),
            ("wild_order_le_4", 64, 5),
            ("involutions", 8, 25),
        ]
        assert filt.last_nontrivial_index == 25 == P8.q**2 + 1 - P8.m * P8.q

    def test_ree_jumps(self):
        filt = filtration("ree-cover", P27)
        sizes = [lv[1] for lv in filt.levels]
        ends = [lv[2] for lv in filt.levels]
        assert sizes == [27**3 * 26 * 19, 27**3, 27**2, 27]
        assert ends == [0, 19, 19 * 10, 19 * 37]
        assert filt.last_nontrivial_index == 703 == P27.q**2 - P27.q + 1

    def test_params_of_the_other_family_are_rebuilt(self):
        # the params of one family name the other's curve at the same s,
        # as in every other (family, params) entry point
        assert filtration("ree-cover", P8) == filtration("ree-cover", P27)
        assert filtration("suzuki-cover", P27) == filtration("suzuki-cover", P8)
        assert filtration("suzuki-base", P8).family.value == "suzuki-base"

    def test_wild_values_from_filtration(self):
        # membership depth reproduces the table for every wild class
        assert i_from_filtration("order2", P8) == i_sigma("order2", P8)
        assert i_from_filtration("order4", P8) == i_sigma("order4", P8)
        assert i_from_filtration("order3_central", P27) == i_sigma("order3_central", P27)
        assert i_from_filtration("order3_noncentral", P27) == i_sigma("order3_noncentral", P27)
        assert i_from_filtration("order9", P27) == i_sigma("order9", P27)


class TestDeltaFromComposition:
    def test_empty(self):
        assert delta_from_composition([], P8) == 0

    def test_tau_only(self):
        assert delta_from_composition([("tau_power", 4)], P8) == 260

    def test_cyclic_m_gives_base_genus(self):
        delta = delta_from_composition([("tau_power", 4)], P8)
        assert solve_rh(390, 5, delta) == (14, None)

    def test_with_tau_entries(self):
        comp = [("order2", 1), ("tau_power", 4), ("order2", 4, True)]
        assert delta_from_composition(comp, P8) == 26 + 260 + 4

    def test_special_pairs(self):
        assert delta_from_composition([("div_m_special_j", 4)], P8) == 80
        assert delta_from_composition([("div_m_special_j", 3)], P27) == 3 * 114

    def test_negative_multiplicity(self):
        with pytest.raises(ValueError):
            delta_from_composition([("order2", -1)], P8)

    @pytest.mark.parametrize("entry", [("nonsense", 1), ("nonsense", 1, True)])
    def test_unknown_class(self, entry):
        with pytest.raises(UnknownClassError, match="unknown class 'nonsense'"):
            delta_from_composition([("order2", 1), entry], P27)

    @pytest.mark.parametrize("entry", [("order3_central", 2), ("order9", 3, True), ("order6", 1)])
    def test_ree_class_on_suzuki_curve(self, entry):
        with pytest.raises(UnknownClassError, match=f"unknown class '{entry[0]}'"):
            delta_from_composition([entry], P8)
        assert delta_from_composition([entry], P27) > 0

    @pytest.mark.parametrize("params", [P8, P32, P27], ids=["P8", "P32", "P27"])
    def test_every_spectrum_composition_matches_per_entry_sum(self, params):
        compositions = list(_swept_compositions(params))
        assert len(compositions) >= len(spectrum(params.family, params).records)
        for comp in compositions:
            assert delta_from_composition(comp, params) == _per_entry_delta(comp, params)

    @pytest.mark.parametrize("params", [P8, P32, P27, S7, R3], ids=["P8", "P32", "P27", "S7", "R3"])
    def test_sweep_matches_explicit_composition(self, params):
        # the sweep takes C_n in closed form, delta = A + (n-1) B + special
        # pairs; the reference spells out every class of H x C_n instead
        res = spectrum(params.family, params)
        records = {(r.spec.kind, r.spec.args): r for r in res.records}
        invalid = {(spec.kind, spec.args): reason for spec, reason in res.invalid}
        assert len(records) + len(invalid) == len(res.records) + len(res.invalid)
        swept = 0
        for kind, args, census, special in _swept_specs(params):
            n = args["n"]
            order = n * (1 + sum(census.values()))
            delta = delta_from_composition(_composition_from_counts(census, special, n), params)
            assert _order_and_delta(kind, params, args) == (order, delta)
            key = (kind.id, tuple(sorted(args.items())))
            if key in records:
                assert (records[key].order, records[key].delta) == (order, delta), key
            else:
                assert key in invalid, key
                genus, reason = solve_rh(cat._two_g_minus_2(params), order, delta)
                assert genus is None, key
                assert invalid[key] == "composition fails the RH oracle: " + reason, key
            swept += 1
        assert swept == len(records) + len(invalid)

    @pytest.mark.parametrize("params", [P8, P32, P27], ids=["P8", "P32", "P27"])
    def test_census_different_matches_per_entry_path(self, params):
        # one pass over the census gives |H|, A, B and C; the reference
        # feeds the same classes through delta_from_composition
        for kind in KINDS.values():
            if kind.char != params.p:
                continue
            for h in kind.sweep(params):
                census, (pairs, _) = kind.counts(params, h)
                tau = [(cls, cnt, True) for cls, cnt in census.items()]
                assert census_different(census, pairs, class_table(params)) == (
                    1 + sum(census.values()),
                    delta_from_composition(list(census.items()), params),
                    delta_from_composition([("tau_power", 1), *tau], params),
                    delta_from_composition([("div_m_special_j", pairs)], params),
                ), (kind.id, h)

    def test_census_different_rejects_what_the_per_entry_path_rejects(self):
        with pytest.raises(ValueError, match="negative multiplicity"):
            census_different({"order2": -1}, 0, class_table(P8))
        with pytest.raises(UnknownClassError, match="unknown class 'order9' for Family.SUZUKI_COVER"):
            census_different({"order2": 1, "order9": 3}, 0, class_table(P8))
        # the count is checked before the class, as in delta_from_composition
        with pytest.raises(ValueError, match="negative multiplicity"):
            census_different({"order9": -1}, 0, class_table(P8))

    def test_tables_stay_distinct_per_curve(self):
        # P8 and P32 share family and class names; each keeps its own values
        for _ in range(2):
            assert i_sigma("order2", P8) == 26 and i_sigma("order2", P32) == 226
            assert i_sigma_tau("tau_power", P8) == 65 and i_sigma_tau("tau_power", P32) == 1025
            assert delta_from_composition([("order4", 1), ("div_m_special_j", 1)], P8) == 6 + 20
            assert delta_from_composition([("order4", 1), ("div_m_special_j", 1)], P32) == 26 + 100
        # an equal parameter set built anew reads the same table
        assert i_sigma("order2", params_from_s("suzuki-cover", 2)) == 226


def _order_and_delta(kind, params, args):
    """|H x C_n| and delta, read off the sweep's composition form (top,
    slope, c, d, den): num = top + slope n - c gcd(d, n) is 2g - 2 - delta
    + 2 |H x C_n|, and den n = 2 |H x C_n|."""
    two_g_minus_2, n = cat._two_g_minus_2(params), args["n"]
    top, slope, c, d, den = cat._composition(kind.counts(params, args), class_table(params), two_g_minus_2)
    num = top + slope * n - c * math.gcd(d, n)
    return den * n // 2, two_g_minus_2 + den * n - num


@pytest.mark.parametrize("family,s", [("suzuki-cover", s) for s in (1, 2, 3, 4)] + [("ree-cover", 1), ("ree-cover", 2)])
def test_composition_form_matches_rh_genus_per_entry(family, s):
    # the sweep tests num >= 0 and den n | num on H's composition form and
    # reads the genus num // (den n) and delta 2g - 2 + den n - num; the
    # reference is rh_genus on the per-entry delta of the explicit class
    # composition of H x C_n
    params = params_from_s(family, s)
    two_g_minus_2 = cat._two_g_minus_2(params)
    table = class_table(params)
    seen = valid = 0
    for kind, args, census, special in _swept_specs(params):
        n = args["n"]
        order = n * (1 + sum(census.values()))
        delta = delta_from_composition(_composition_from_counts(census, special, n), params)
        genus = rh_genus(two_g_minus_2, order, delta)
        top, slope, c, d, den = cat._composition(kind.counts(params, args), table, two_g_minus_2)
        num = top + slope * n - c * math.gcd(d, n)
        ok = num >= 0 and num % (den * n) == 0
        assert (den * n, two_g_minus_2 + den * n - num) == (2 * order, delta), (kind.id, args)
        assert (num // (den * n) if ok else None) == genus, (kind.id, args)
        seen += 1
        valid += ok
    res = spectrum(family, params)
    assert (seen, valid) == (res.n_specs, len(res.records))


def _composition_from_counts(census, special, n):
    """Reference: the explicit class composition of H x C_n, one entry per
    class of elements h tau^k, from the census of H and the number of
    special pairs."""
    comp = []
    for cls, cnt in census.items():
        if cnt:
            comp.append((cls, cnt, False))
            if n > 1:
                comp.append((cls, cnt * (n - 1), True))
    if n > 1:
        comp.append(("tau_power", n - 1, False))
    if special:
        comp.append(("div_m_special_j", special, False))
    return comp


def _swept_specs(params):
    """(kind, args, census, special pair count) of every spec (H, n) of the
    sweep, n running over the divisors of m."""
    for kind in KINDS.values():
        if kind.char != params.p:
            continue
        for h in kind.sweep(params):
            census, (pairs, period) = kind.counts(params, h)
            for n in divisors(params.m):
                yield kind, {**h, "n": n}, census, pairs * (math.gcd(period, n) - 1)


def _swept_compositions(params):
    """The composition of every spec of the sweep: each valid spec of the
    spectrum, found without the delta under test."""
    for _, args, census, special in _swept_specs(params):
        yield _composition_from_counts(census, special, args["n"])


def _per_entry_delta(composition, params):
    """Reference: one i_sigma / i_sigma_tau lookup per entry."""
    special = i_sigma("div_m_special_j", params)[1]
    total = 0
    for cls, mult, *tau in composition:
        if cls == "div_m_special_j":
            total += mult * special
        elif tau and tau[0]:
            total += mult * i_sigma_tau(cls, params)
        else:
            total += mult * i_sigma(cls, params)
    return total


class TestGenusFromRH:
    def test_examples(self):
        assert solve_rh(390, 1, 0) == (196, None)
        assert solve_rh(390, 5, 260) == (14, None)
        assert solve_rh(19684 * 25, 19, 18 * 19684) == (3627, None)

    def test_non_integral(self):
        assert solve_rh(390, 1, 1) == (None, "RH gives genus 391/2, not a nonnegative integer")
        assert solve_rh(390, 5, 265) == (None, "RH gives genus 135/10, not a nonnegative integer")

    def test_solve_rh_does_not_raise(self):
        assert solve_rh(390, 7, 5) == (None, "RH gives genus 399/14, not a nonnegative integer")
        assert solve_rh(390, 1, 1000) == (None, "RH gives genus -608/2, not a nonnegative integer")

    def test_negative(self):
        # genus 0 is the last one accepted
        assert solve_rh(390, 1, 392) == (0, None)
        assert solve_rh(390, 1, 394) == (None, "RH gives genus -2/2, not a nonnegative integer")

    @given(st.integers(0, 10**6), st.integers(1, 10**4), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, g, order, delta):
        two_g_minus_2 = order * (2 * g - 2) + delta
        assert solve_rh(two_g_minus_2, order, delta) == (g, None)

    @pytest.mark.parametrize("args", [(390, 1, 0), (390, 5, 260), (390, 1, 1), (390, 5, 265), (390, 7, 5),
                                      (390, 1, 1000), (390, 1, 392), (390, 1, 394)])
    def test_rh_genus_is_the_genus_of_solve_rh(self, args):
        assert rh_genus(*args) == solve_rh(*args)[0]

    @pytest.mark.parametrize("params", [P8, P27], ids=["P8", "P27"])
    def test_rh_genus_agrees_on_the_sweep(self, params):
        # the sweep tests each spec with rh_genus and builds the reason of
        # a rejected one with solve_rh later
        two_g_minus_2 = cat._two_g_minus_2(params)
        seen = 0
        for kind in KINDS.values():
            if kind.char != params.p:
                continue
            for h in kind.sweep(params):
                for n in divisors(params.m):
                    order, delta = _order_and_delta(kind, params, {**h, "n": n})
                    genus, reason = solve_rh(two_g_minus_2, order, delta)
                    assert rh_genus(two_g_minus_2, order, delta) == genus, (kind.id, h, n)
                    assert (genus is None) == (reason is not None)
                    seen += 1
        res = spectrum(params.family, params)
        assert seen == len(res.records) + len(res.invalid)
