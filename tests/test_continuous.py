from fractions import Fraction as F

import pytest

from twopoint_auctions.core import AuctionSpec, CapExceeded, InvalidSpec
from twopoint_auctions.continuous import (
    ContinuousSpec,
    corollary_probe,
    discretize,
)
from twopoint_auctions.formulas import revenue_bic, revenue_dic
from twopoint_auctions.oracle import solve_auction_lp

from helpers import collapsed_two_point_spec


class TestSpecValidation:
    def test_valid(self):
        ContinuousSpec(2, 10, 2, 1)

    def test_rejects_overlapping_intervals(self):
        with pytest.raises(InvalidSpec):
            ContinuousSpec(2, 1, 2, 1)  # needs a > 1/(lam-1) = 1

    def test_rejects_other_buyer_counts(self):
        with pytest.raises(InvalidSpec):
            ContinuousSpec(3, 10, 2, 1)

    def test_rejects_flat_ratio(self):
        with pytest.raises(InvalidSpec):
            ContinuousSpec(2, 10, 1, 1)


class TestDiscretize:
    def test_single_point_per_interval(self):
        dist = discretize(ContinuousSpec(2, 10, 2, 1))
        assert dist.values == (F(21, 2), F(41, 2))
        assert dist.probs == (F(1, 2), F(1, 2))

    def test_two_points_per_interval(self):
        dist = discretize(ContinuousSpec(2, 6, 2, 2))
        assert dist.values == (F(25, 4), F(27, 4), F(49, 4), F(51, 4))
        assert dist.probs == (F(1, 4),) * 4

    def test_total_mass(self):
        for m in (1, 2, 3):
            dist = discretize(ContinuousSpec(2, 10, 2, m))
            assert sum(dist.probs) == 1
            assert len(dist.values) == 2 * m

    def test_low_mass_is_exactly_half(self):
        cspec = ContinuousSpec(2, 10, 2, 3)
        dist = discretize(cspec)
        low = sum(
            p for v, p in zip(dist.values, dist.probs) if v <= cspec.a + 1
        )
        assert low == F(1, 2)


class TestCollapseConsistency:
    @pytest.mark.parametrize("a", [F(10), F(20)])
    def test_single_atom_grid_equals_two_point_oracle(self, a):
        cspec = ContinuousSpec(2, a, 2, 1)
        two = collapsed_two_point_spec(cspec)
        for impl in ("dic", "bic"):
            grid_value = solve_auction_lp(2, discretize(cspec), impl).optimum
            oracle_value = solve_auction_lp(two.n, two.dist, impl).optimum
            assert grid_value == oracle_value

    def test_collapsed_values_match_formulas(self):
        # the collapsed instance lands in the middle interval, where the
        # closed forms give r*a + 15/16 for scale a
        cspec = ContinuousSpec(2, 10, 2, 1)
        two = collapsed_two_point_spec(cspec)
        assert solve_auction_lp(2, discretize(cspec), "dic").optimum == revenue_dic(two) == F(25, 8) * 10 + F(15, 16)
        assert solve_auction_lp(2, discretize(cspec), "bic").optimum == revenue_bic(two) == F(51, 16) * 10 + F(15, 16)


class TestCap:
    def test_grid_cap(self, monkeypatch):
        # grid_m = 4 has 64 types and 133,120 type-count cells, over the
        # oracle's cell cap: refused before any program is solved.
        from twopoint_auctions import oracle

        monkeypatch.setattr(oracle, "solve", lambda *args: pytest.fail("solved"))
        for impl in ("dic", "bic"):
            with pytest.raises(CapExceeded, match="133120 type-count cells"):
                solve_auction_lp(2, discretize(ContinuousSpec(2, 10, 2, 4)), impl)


class TestProbe:
    def test_single_atom_probe_rows(self):
        rows = corollary_probe([F(10), F(40)], grid_m=1)
        assert [(r.a, r.impl) for r in rows] == [
            (10, "dic"), (10, "bic"), (40, "dic"), (40, "bic")]
        for dic, bic in zip(rows[::2], rows[1::2]):
            assert bic.optimum > dic.optimum
            assert dic.ratio == dic.optimum / dic.a
            assert dic.ref == F(25, 8) and bic.ref == F(51, 16)
            assert dic.within_band and bic.within_band
        # scaled distance to the reference shrinks with a
        assert abs(rows[2].ratio - F(25, 8)) <= abs(rows[0].ratio - F(25, 8))

    def test_gap_ratio_trends_to_two_percent(self):
        rows = corollary_probe([F(10), F(80)], grid_m=1)
        gaps = [(bic.optimum - dic.optimum) / dic.optimum
                for dic, bic in zip(rows[::2], rows[1::2])]
        assert abs(gaps[1] - F(1, 50)) < abs(gaps[0] - F(1, 50))

    def test_other_ratio_has_no_band(self):
        rows = corollary_probe([F(10)], grid_m=1, lam=F(3), impls=("dic",))
        assert [(r.impl, r.within_band) for r in rows] == [("dic", None)]
        assert rows[0].ref == revenue_dic(AuctionSpec(2, F(1, 2), 1, 3))
