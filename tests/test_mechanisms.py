import dataclasses
import functools
import itertools
import json
import random
from fractions import Fraction as F

import pytest

from twopoint_auctions.core import (
    AuctionSpec,
    FiniteValueDistribution,
    class_probabilities,
    profile_table,
)
from twopoint_auctions.formulas import (
    breakpoints,
    indicator_flags,
    price_b_revenue,
    revenue_bic,
    revenue_dic,
)
from twopoint_auctions.mechanisms import (
    build_bic_mechanism,
    build_dic_mechanism,
    case_hierarchies,
    interval_case,
    mechanism_to_json,
)
from twopoint_auctions.audit import (
    check_bic,
    check_bir,
    check_dic,
    check_ir,
    expected_revenue,
)
from twopoint_auctions.oracle import extract_mechanism, solve_auction_lp

from helpers import (
    cell_tables,
    cells_at,
    cheap_items,
    classify_profile,
    enumerate_profiles,
    from_rationals,
    from_tables,
    mechanism_doc,
    payment_of,
    payments,
    q_of,
    qu_statistics,
    reference_bic_mechanism,
    reference_dic_mechanism,
    render,
    shares_at,
    u_of,
    utils_at,
)
from test_core import AA, AB, BA, BB

EXAMPLE = AuctionSpec(2, F(1, 2), 1, 2)
EXAMPLE_LOW = AuctionSpec(2, F(1, 2), 1, F(3, 2))


def profiles_of(spec):
    return [t for t, _ in enumerate_profiles(spec.n, spec.dist)]


def tables_equal(m1, m2):
    """Same cell tables over the same denominator (labels may differ)."""
    return ((m1.n, m1.dist, m1.den, m1.q1, m1.q2, m1.u)
            == (m2.n, m2.dist, m2.den, m2.q1, m2.q2, m2.u))


def total_utility_mass(mech):
    return sum(
        prob * sum(u_of(mech, i, profile) for i in range(mech.n))
        for profile, prob in enumerate_profiles(mech.n, mech.dist)
    )


def total_cheap_allocation_mass(mech):
    total = F(0)
    for profile, prob in enumerate_profiles(mech.n, mech.dist):
        cheap = cheap_items(profile)
        for i in range(mech.n):
            q1, q2 = q_of(mech, i, profile)
            if cheap[0]:
                total += prob * q1
            if cheap[1]:
                total += prob * q2
    return total


def grid_specs(ns=(2, 3)):
    """Small spec grid touching all four intervals and the breakpoints."""
    specs = []
    for n in ns:
        for p in (F(1, 4), F(1, 2), F(3, 4)):
            for a in (F(0), F(1)):
                if a == 0:
                    bs = [F(1), F(2)]
                else:
                    v = breakpoints(AuctionSpec(n, p, a, a + 1))
                    bs = [
                        (a + v.v1) / 2, v.v1, (v.v1 + v.v2) / 2, v.v2,
                        (v.v2 + v.v3) / 2, v.v3, v.v3 + 1,
                    ]
                specs.extend(AuctionSpec(n, p, a, b) for b in sorted(set(bs)))
    return specs


class TestIntervalCase:
    def test_example_is_case_three(self):
        assert interval_case(EXAMPLE) == 3

    def test_boundaries_are_half_open(self):
        p, a = F(1, 2), F(1)
        v = breakpoints(AuctionSpec(2, p, a, a + 1))
        assert interval_case(AuctionSpec(2, p, a, v.v1)) == 2
        assert interval_case(AuctionSpec(2, p, a, v.v2)) == 3
        assert interval_case(AuctionSpec(2, p, a, v.v3)) == 4

    def test_zero_low_value_is_top_case(self):
        assert interval_case(AuctionSpec(2, F(1, 2), 0, 5)) == 4

    def test_hierarchy_depths(self):
        assert [len(case_hierarchies(c)[0]) for c in (1, 2, 3, 4)] == [4, 3, 2, 2]


class TestDicMechanism:
    def test_case3_bundle_sale(self):
        mech = build_dic_mechanism(EXAMPLE)
        # single active buyer: both items as a bundle at price a+b
        assert q_of(mech, 0, (BB, AA)) == (1, 1)
        assert u_of(mech, 0, (BB, AA)) == 1  # b - a, since beta=1, alpha=0
        assert payment_of(mech, 0, (BB, AA)) == 3
        assert q_of(mech, 0, (AB, AA)) == (1, 1)
        assert payment_of(mech, 0, (AB, AA)) == 3
        assert q_of(mech, 1, (AB, AA)) == (0, 0)
        # the all-low profile sells nothing in the bundle case
        assert q_of(mech, 0, (AA, AA)) == (0, 0)
        assert payment_of(mech, 0, (AA, AA)) == 0

    def test_case3_high_buyer_pays_full_bundle(self):
        # gamma = 0 at b=2, so a (b,b) buyer facing a 1-cheap opponent keeps
        # zero utility and pays 2b
        mech = build_dic_mechanism(EXAMPLE)
        assert q_of(mech, 0, (BB, AB)) == (1, 1)
        assert u_of(mech, 0, (BB, AB)) == 0
        assert payment_of(mech, 0, (BB, AB)) == 4

    def test_case4_unique_top_buyer(self):
        spec = AuctionSpec(2, F(1, 2), 1, 5)  # b >= v3 = 3
        mech = build_dic_mechanism(spec)
        for others in (AA, AB, BA):
            assert q_of(mech, 0, (BB, others)) == (1, 1)
            assert u_of(mech, 0, (BB, others)) == 0
            assert payment_of(mech, 0, (BB, others)) == 10

    def test_case1_all_low_profile_splits_everything(self):
        spec = AuctionSpec(3, F(1, 2), 1, F(11, 10))  # b < v1 = 5/3
        mech = build_dic_mechanism(spec)
        t = (AA, AA, AA)
        for i in range(3):
            assert q_of(mech, i, t) == (F(1, 3), F(1, 3))
            assert u_of(mech, i, t) == 0
            assert payment_of(mech, i, t) == F(2, 3)

    def test_case1_single_mid_buyer_utility(self):
        spec = AuctionSpec(2, F(1, 2), 1, F(3, 2))
        mech = build_dic_mechanism(spec)
        assert u_of(mech, 0, (BA, AA)) == F(1, 2) * F(1, 2)  # (b-a) * alpha/n
        assert q_of(mech, 0, (BA, AA)) == (1, 1)


class TestBicMechanism:
    def test_situation_a_half_bundles(self):
        mech = build_bic_mechanism(EXAMPLE)
        t = (AB, AB)
        for i in range(2):
            assert q_of(mech, i, t) == (F(1, 2), F(1, 2))
            assert payment_of(mech, i, t) == F(3, 2)  # (1+b)/2

    def test_situation_b_discounted_bundle(self):
        mech = build_bic_mechanism(EXAMPLE)
        assert q_of(mech, 0, (BB, AB)) == (1, 1)
        assert u_of(mech, 0, (BB, AB)) == F(1, 4)
        assert payment_of(mech, 0, (BB, AB)) == F(15, 4)  # 2b - (b-1)/4

    def test_above_v3_identical_to_dic(self):
        spec = AuctionSpec(2, F(1, 2), 1, 4)
        assert tables_equal(build_bic_mechanism(spec), build_dic_mechanism(spec))

    def test_below_v3_differs_from_dic(self):
        assert not tables_equal(build_bic_mechanism(EXAMPLE), build_dic_mechanism(EXAMPLE))

    def test_exception_only_lifts_bb_versus_one_cheap(self):
        md = build_dic_mechanism(EXAMPLE_LOW)
        mb = build_bic_mechanism(EXAMPLE_LOW)
        for profile in profiles_of(EXAMPLE_LOW):
            for i in range(2):
                if profile[i] == BB and profile[1 - i] in (AB, BA):
                    continue
                assert u_of(md, i, profile) == u_of(mb, i, profile)


class TestPayments:
    def test_full_allocation_zero_utility(self):
        spec = AuctionSpec(2, F(1, 2), 1, 5)
        mech = build_dic_mechanism(spec)
        assert payments(mech)[(BB, AA)][0] == 10

    def test_no_allocation_zero_utility(self):
        mech = build_dic_mechanism(EXAMPLE)
        assert payments(mech)[(AA, AA)] == (0, 0)

    def test_situation_a_price(self):
        mech = build_bic_mechanism(EXAMPLE)
        assert payments(mech)[(AB, AB)] == (F(3, 2), F(3, 2))


class TestRevenueEquality:
    @pytest.mark.parametrize("spec", grid_specs(), ids=str)
    def test_dic_revenue(self, spec):
        assert expected_revenue(build_dic_mechanism(spec)) == revenue_dic(spec)

    @pytest.mark.parametrize("spec", grid_specs(), ids=str)
    def test_bic_revenue(self, spec):
        assert expected_revenue(build_bic_mechanism(spec)) == revenue_bic(spec)


class TestStructuralInvariants:
    @pytest.mark.parametrize("builder", [build_dic_mechanism, build_bic_mechanism])
    def test_supply(self, builder):
        for spec in grid_specs(ns=(2, 3)):
            mech = builder(spec)
            for profile in profiles_of(spec):
                for j in range(2):
                    total = sum(q_of(mech, i, profile)[j] for i in range(spec.n))
                    assert 0 <= total <= 1

    @pytest.mark.parametrize("builder", [build_dic_mechanism, build_bic_mechanism])
    def test_buyer_permutation_symmetry(self, builder):
        # Permuting the buyers of a profile permutes its rows the same way:
        # the premise of building the tables once per type-count class.
        for spec in grid_specs(ns=(2, 3, 4)):
            mech = builder(spec)
            perms = list(itertools.permutations(range(spec.n)))
            for profile in profiles_of(spec):
                shares, utils = shares_at(mech, profile), utils_at(mech, profile)
                for perm in perms:
                    # buyer perm[i] of `permuted` holds buyer i's type
                    inverse = [perm.index(i) for i in range(spec.n)]
                    permuted = tuple(profile[k] for k in inverse)
                    assert shares_at(mech, permuted) == tuple(shares[k] for k in inverse)
                    assert utils_at(mech, permuted) == tuple(utils[k] for k in inverse)

    @pytest.mark.parametrize("builder", [build_dic_mechanism, build_bic_mechanism])
    def test_item_swap_symmetry(self, builder):
        # Swapping the items in every type swaps q1 and q2 and keeps u.
        for spec in grid_specs(ns=(2, 3, 4)):
            mech = builder(spec)
            for profile in profiles_of(spec):
                swapped = tuple(t[::-1] for t in profile)
                assert shares_at(mech, swapped) == tuple(
                    (q2, q1) for q1, q2 in shares_at(mech, profile)
                )
                assert utils_at(mech, swapped) == utils_at(mech, profile)


def reference_specs(n):
    """Specs at n buyers for p in {1/3, 1/2, 2/3}: for a = 1, b inside each
    of the four intervals and exactly at v1, v2 and v3; for a = 0, where
    every b > 0 lies in the top interval, two values of b."""
    specs = []
    for p in (F(1, 3), F(1, 2), F(2, 3)):
        specs += [AuctionSpec(n, p, 0, b) for b in (F(1, 2), F(2))]
        v = breakpoints(AuctionSpec(n, p, 1, 2))
        bs = [(1 + v.v1) / 2, v.v1, (v.v1 + v.v2) / 2, v.v2, (v.v2 + v.v3) / 2, v.v3,
              v.v3 + 1]
        specs += [AuctionSpec(n, p, 1, b) for b in bs]
    return specs


class TestAgainstReferenceBuilders:
    """The count-keyed builders equal the per-profile reference builders
    (`helpers.reference_*_mechanism`) table for table."""

    @pytest.mark.parametrize(
        "n", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)]
    )
    def test_dic(self, n):
        for spec in reference_specs(n):
            assert build_dic_mechanism(spec) == reference_dic_mechanism(spec), spec

    @pytest.mark.parametrize(
        "n", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)]
    )
    def test_bic(self, n):
        for spec in reference_specs(n):
            assert build_bic_mechanism(spec) == reference_bic_mechanism(spec), spec

    def test_every_interval_is_covered(self):
        assert {interval_case(spec) for spec in reference_specs(2)} == {1, 2, 3, 4}


def u_support_profiles(n):
    """Profiles where the built mechanisms may pay out utility: one active
    buyer against all-low, the single-high-per-item family, and the raised
    one-cheap family."""
    from helpers import class_sets

    sets = class_sets(profiles_of(AuctionSpec(n, F(1, 2), 1, 2)))
    return sets["S1"] | sets["S1_prime"] | sets["S2_prime"]


class TestClassAccounting:
    @pytest.mark.parametrize("spec", grid_specs(), ids=str)
    def test_utility_vanishes_off_support(self, spec):
        allowed = u_support_profiles(spec.n)
        for mech in (build_dic_mechanism(spec), build_bic_mechanism(spec)):
            for profile in profiles_of(spec):
                if profile not in allowed:
                    assert all(u_of(mech, i, profile) == 0 for i in range(spec.n))

    @pytest.mark.parametrize("spec", grid_specs(), ids=str)
    def test_cheap_mass_per_profile(self, spec):
        # cheap-item allocation mass per profile: 2*alpha on the all-low
        # profile; beta on one-cheap single-active; gamma (dic) or beta (bic)
        # on one-cheap multi-active
        f = indicator_flags(spec)
        md = build_dic_mechanism(spec)
        mb = build_bic_mechanism(spec)
        for profile in profiles_of(spec):
            label = classify_profile(profile).label
            cheap = cheap_items(profile)
            for mech, s2_flag in ((md, f.gamma), (mb, f.beta)):
                mass = sum(
                    q_of(mech, i, profile)[j]
                    for i in range(spec.n)
                    for j in range(2)
                    if cheap[j]
                )
                if label == "S0":
                    assert mass == 2 * f.alpha
                elif label == "S1":
                    assert mass == f.beta
                elif label == "S2":
                    assert mass == s2_flag
                else:
                    assert mass == 0

    @pytest.mark.parametrize("spec", grid_specs(), ids=str)
    def test_class_mass_identities(self, spec):
        p0, p1, p2 = class_probabilities(spec)
        f = indicator_flags(spec)
        stats_d = qu_statistics(build_dic_mechanism(spec))
        stats_b = qu_statistics(build_bic_mechanism(spec))
        assert stats_d["S0"][0] == 2 * p0 * f.alpha
        assert stats_d["S1"][0] == p1 * f.beta
        assert stats_d["S2"][0] == p2 * f.gamma
        assert stats_b["S0"][0] == 2 * p0 * f.alpha
        assert stats_b["S1"][0] == p1 * f.beta
        assert stats_b["S2"][0] == p2 * f.beta

    @pytest.mark.parametrize("spec", grid_specs(), ids=str)
    def test_utility_mass_identities(self, spec):
        p, a, b = spec.p, spec.a, spec.b
        ratio = (1 - p) / p
        stats_d = qu_statistics(build_dic_mechanism(spec))
        assert stats_d["S1"][1] == (b - a) * ratio * stats_d["S0"][0]
        assert stats_d["S1_prime"][1] == (b - a) / 2 * (
            ratio ** 2 * stats_d["S0"][0] + ratio * stats_d["S1"][0]
        )
        assert stats_d["S2_prime"][1] == (b - a) * ratio * stats_d["S2"][0]
        stats_b = qu_statistics(build_bic_mechanism(spec))
        assert stats_b["S1"][1] == (b - a) * ratio * stats_b["S0"][0]
        assert stats_b["S1_prime"][1] == (b - a) / 2 * (
            ratio ** 2 * stats_b["S0"][0] + ratio * stats_b["S1"][0]
        )
        assert stats_b["S2_prime"][1] == (b - a) * ratio / 2 * stats_b["S2"][0]

    @pytest.mark.parametrize("spec", grid_specs(), ids=str)
    def test_revenue_decomposition(self, spec):
        # revenue = price-b baseline + a * cheap mass - utility mass, exactly
        for builder in (build_dic_mechanism, build_bic_mechanism):
            mech = builder(spec)
            assert expected_revenue(mech) == (
                price_b_revenue(spec)
                + spec.a * total_cheap_allocation_mass(mech)
                - total_utility_mass(mech)
            )


class TestJsonExport:
    def test_export_shape_and_determinism(self):
        mech = build_bic_mechanism(EXAMPLE)
        doc = json.loads(render(mech))
        assert doc["label"] == "bic-optimal"
        assert len(doc["profiles"]) == 16
        assert doc["profiles"][0]["profile"] == ["aa", "aa"]
        assert doc == json.loads(render(build_bic_mechanism(EXAMPLE)))

    def test_export_payment_matches_tables(self):
        mech = build_bic_mechanism(EXAMPLE)
        doc = json.loads(render(mech))
        row = next(r for r in doc["profiles"] if r["profile"] == ["bb", "ab"])
        assert row["payment"][0] == "15/4"
        assert row["utility"][0] == "1/4"


def random_mechanism(seed):
    """A mechanism with seeded random cell tables: shares in [0,1] with
    zeros, utilities of either sign, on a random two-point spec."""
    rng = random.Random(seed)
    n = rng.choice((2, 3))
    spec = AuctionSpec(n, F(rng.randint(1, 5), 6), F(rng.randint(0, 3), rng.randint(1, 4)),
                       F(rng.randint(13, 30), 3))

    def entry(lo):
        return rng.choice((F(0), F(rng.randint(lo, 7), rng.randint(1, 9))))

    allocation, utility = cell_tables(
        n, spec.dist, lambda: ((entry(0) / 7, entry(0) / 7), entry(-7)))
    return from_rationals(spec.dist, "random\n\u00e9", allocation, utility)


@functools.cache
def check_variants():
    """None, no checks, a passing report, and reports with violations: the
    BIC mechanism's full check suite with its DIC_informational violations
    and an IR report whose violations carry no reported type."""
    bic = build_bic_mechanism(EXAMPLE)
    passing = {"IR": check_ir(bic).to_json(), "BIC": check_bic(bic).to_json(),
               "BIR": check_bir(bic).to_json(),
               "revenue": {"expected_revenue": "51/16", "r_B": "51/16", "equal": True}}
    violating = {**passing, "DIC_informational": check_dic(bic).to_json(),
                 "IR": check_ir(random_mechanism(0)).to_json(), "note": "two\nlines"}
    assert violating["DIC_informational"]["violations"]
    assert violating["IR"]["violations"]
    return (None, {}, passing, violating)


N4_SPECS = [AuctionSpec(4, p, 1, b) for p in (F(1, 2), F(2, 3))
            for b in (F(11, 10), F(7, 4), F(5, 2), F(9))]


class TestJsonRenderer:
    """The written text is exactly `json.dumps(..., indent=2)` of the
    reference document built as dicts and lists."""

    @staticmethod
    def assert_renders(mech):
        for checks in check_variants():
            assert render(mech, checks) == json.dumps(
                mechanism_doc(mech, checks), indent=2
            )

    @pytest.mark.parametrize("spec", grid_specs() + N4_SPECS, ids=str)
    def test_closed_forms(self, spec):
        self.assert_renders(build_dic_mechanism(spec))
        self.assert_renders(build_bic_mechanism(spec))

    @pytest.mark.parametrize("regime", ["dic", "bic"])
    @pytest.mark.parametrize("spec", [EXAMPLE, AuctionSpec(2, F(2, 3), F(3, 2), F(5, 2)),
                                      AuctionSpec(3, F(1, 2), 1, F(7, 4))], ids=str)
    def test_lp_optima(self, spec, regime):
        sol = solve_auction_lp(spec.n, spec.dist, regime)
        self.assert_renders(extract_mechanism(spec.n, spec.dist, sol))

    def test_written_row_by_row(self):
        # The text goes to the stream in parts, none longer than a row.
        writes = []

        class Recorder:
            write = writes.append

        mech = build_bic_mechanism(N4_SPECS[0])
        mechanism_to_json(mech, check_variants()[2], Recorder())
        assert "".join(writes) == render(mech, check_variants()[2])
        assert len(writes) > mech.n_types ** mech.n and max(map(len, writes)) < 1000

    @pytest.mark.parametrize("seed", range(8))
    def test_random_tables(self, seed):
        mech = random_mechanism(seed)
        profiles = profiles_of(mech)
        assert any(u < 0 for t in profiles for u in utils_at(mech, t))
        assert any(q == 0 for t in profiles for q_i in shares_at(mech, t) for q in q_i)
        self.assert_renders(mech)


class TestCells:
    @pytest.mark.parametrize("atoms,n", [(a, n) for a in (2, 3) for n in range(1, 6)])
    def test_profile_table_cells_are_the_reference_cells(self, atoms, n):
        # Buyer i's cell at each profile of the table is the one its type
        # and the profile's type counts give.
        dist = FiniteValueDistribution(tuple(range(1, atoms + 1)), (F(1, atoms),) * atoms)
        table = profile_table(n, dist)
        assert len(table.cells) == n
        assert all(len(cells) == len(table.profiles) for cells in table.cells)
        assert list(zip(*table.cells)) == [cells_at(dist, t) for t in table.profiles]

    def test_tables_must_cover_the_cells(self):
        mech = build_bic_mechanism(EXAMPLE)
        with pytest.raises(ValueError, match="cells"):
            dataclasses.replace(mech, u=mech.u[:-1])

    def test_tables_must_be_a_function_of_the_cell(self):
        # Buyer 0 at (ab, ba) and buyer 1 at (ba, ab) hold one cell; tables
        # that tell them apart are not a symmetric mechanism.
        profiles = profiles_of(EXAMPLE)
        allocation = {t: ((0, 0), (0, 0)) for t in profiles}
        utility = {t: (0, 0) for t in profiles}
        from_tables(EXAMPLE.dist, "custom", allocation, utility, 1)
        utility[AB, BA] = (1, 0)
        with pytest.raises(ValueError, match=r"differ within the cell of buyer 1 at \(\(1, 0\), \(0, 1\)\)"):
            from_tables(EXAMPLE.dist, "custom", allocation, utility, 1)
        utility[BA, AB] = (0, 1)
        assert utils_at(from_tables(EXAMPLE.dist, "custom", allocation, utility, 1), (BA, AB)) == (0, 1)
        allocation[BB, BB] = ((1, 0), (0, 1))
        with pytest.raises(ValueError, match="differ within the cell"):
            from_tables(EXAMPLE.dist, "custom", allocation, utility, 1)

    def test_equal_cells_at_different_types(self):
        # Every buyer holds the cell (q1, q2, u) = (1/2, 0, 0) at every
        # profile, so its payment, half its item-1 value, depends on its type
        # alone: the export must key each cell's texts by the type too.
        profiles = profiles_of(EXAMPLE)
        mech = from_tables(EXAMPLE.dist, "custom", {t: ((1, 0), (1, 0)) for t in profiles},
                           {t: (0, 0) for t in profiles}, 2)
        text = render(mech)
        assert text == json.dumps(mechanism_doc(mech), indent=2)
        row = json.loads(text)["profiles"][profiles.index((AA, BA))]
        assert row["payment"] == ["1/2", "1/1"]
