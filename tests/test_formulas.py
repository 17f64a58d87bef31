import itertools
import random
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twopoint_auctions.core import AuctionSpec, CapExceeded, class_probabilities
from twopoint_auctions.formulas import (
    breakpoints,
    check_digit_limit,
    grand_bundle_revenue,
    indicator_flags,
    price_b_revenue,
    revenue_bic,
    revenue_dic,
    revenue_report,
    separate_revenue,
    sweep_high_value,
)

from helpers import enumerate_profiles
from test_core import probabilities, spec_strategy

EXAMPLE = AuctionSpec(2, F(1, 2), 1, 2)


def posted_price_bundle_revenue(spec, price):
    """Independent oracle: enumerate profiles; the bundle sells to anyone
    whose two-item sum meets the price (at most one unit is sold)."""
    revenue = F(0)
    for profile, prob in enumerate_profiles(spec.n, spec.dist):
        sums = [spec.dist.values[x1] + spec.dist.values[x2] for x1, x2 in profile]
        if max(sums) >= price:
            revenue += prob * price
    return revenue


def single_item_optimum(spec):
    """Independent single-item oracle: brute-force exact LP over all
    truthful one-item mechanisms for n buyers with the two-point marginal."""
    from helpers import make_lp
    from twopoint_auctions.simplex import solve

    n, values = spec.n, (spec.a, spec.b)
    probs = (spec.p, 1 - spec.p)
    profiles = list(itertools.product((0, 1), repeat=n))

    def prob(t):
        out = F(1)
        for k in t:
            out *= probs[k]
        return out

    variables = [("q", i, t) for t in profiles for i in range(n)]
    variables += [("u", i, t) for t in profiles for i in range(n)]
    objective = {}
    constraints = []
    for t in profiles:
        w = prob(t)
        for i in range(n):
            objective[("q", i, t)] = w * values[t[i]]
            objective[("u", i, t)] = -w
            constraints.append(({("u", i, t): F(1)}, ">=", 0))
        constraints.append(({("q", i, t): F(1) for i in range(n)}, "<=", 1))
    for i in range(n):
        for others in itertools.product((0, 1), repeat=n - 1):
            for k_true in (0, 1):
                k_rep = 1 - k_true
                truthful = others[:i] + (k_true,) + others[i:]
                deviated = others[:i] + (k_rep,) + others[i:]
                dv = values[k_true] - values[k_rep]
                constraints.append(
                    (
                        {
                            ("u", i, truthful): F(1),
                            ("u", i, deviated): F(-1),
                            ("q", i, deviated): -dv,
                        },
                        ">=",
                        0,
                    )
                )
    return solve(make_lp(variables, objective, constraints)).optimum


class TestBreakpoints:
    def test_frozen_half(self):
        v = breakpoints(EXAMPLE)
        assert (v.v1, v.v2, v.v3) == (F(5, 3), F(2), F(3))

    def test_frozen_third(self):
        v = breakpoints(AuctionSpec(2, F(1, 3), 1, 2))
        assert (v.v1, v.v2, v.v3) == (F(5, 4), F(3, 2), F(2))

    def test_zero_low_value(self):
        v = breakpoints(AuctionSpec(2, F(1, 2), 0, 1))
        assert (v.v1, v.v2, v.v3) == (0, 0, 0)

    @given(spec_strategy())
    @settings(max_examples=60, deadline=None)
    def test_ordering(self, spec):
        v = breakpoints(spec)
        if spec.a > 0:
            assert spec.a < v.v1 < v.v2 < v.v3
        else:
            assert v.v1 == v.v2 == v.v3 == 0

    @given(spec_strategy())
    @settings(max_examples=60, deadline=None)
    def test_flags_are_nested(self, spec):
        f = indicator_flags(spec)
        assert f.alpha <= f.gamma <= f.beta
        v = breakpoints(spec)
        assert f.alpha == int(spec.b < v.v1)
        assert f.gamma == int(spec.b < v.v2)
        assert f.beta == int(spec.b < v.v3)


class TestRevenueFormulas:
    def test_example_values(self):
        assert revenue_dic(EXAMPLE) == F(25, 8)
        assert revenue_bic(EXAMPLE) == F(51, 16)
        assert separate_revenue(EXAMPLE) == 3
        assert grand_bundle_revenue(EXAMPLE) == F(45, 16)

    def test_two_percent_gap(self):
        gap = (revenue_bic(EXAMPLE) - revenue_dic(EXAMPLE)) / revenue_dic(EXAMPLE)
        assert gap == F(1, 50)

    def test_dic_segment_formula(self):
        # affine piece on [2,3): (3 + 11 b) / 8
        for b in (F(2), F(9, 4), F(5, 2), F(47, 16)):
            spec = AuctionSpec(2, F(1, 2), 1, b)
            assert revenue_dic(spec) == (3 + 11 * b) / 8

    def test_bic_segment_formula(self):
        # affine piece on [5/3,3): (9 + 21 b) / 16
        for b in (F(5, 3), F(2), F(11, 4), F(47, 16)):
            spec = AuctionSpec(2, F(1, 2), 1, b)
            assert revenue_bic(spec) == (9 + 21 * b) / 16

    def test_low_b_values(self):
        # frozen values cross-checked by the LP oracle in test_oracle
        spec = AuctionSpec(2, F(1, 2), 1, F(3, 2))
        assert revenue_dic(spec) == F(81, 32)
        assert revenue_bic(spec) == F(41, 16)

    @given(spec_strategy())
    @settings(max_examples=60, deadline=None)
    def test_above_v3_everything_collapses(self, spec):
        v3 = breakpoints(spec).v3
        high = AuctionSpec(spec.n, spec.p, spec.a, max(spec.b, v3) + 1)
        assert revenue_dic(high) == revenue_bic(high) == price_b_revenue(high)
        assert separate_revenue(high) == price_b_revenue(high)

    @given(spec_strategy())
    @settings(max_examples=60, deadline=None)
    def test_gap_formula(self, spec):
        p, a, b = spec.p, spec.a, spec.b
        _, _, p2 = class_probabilities(spec)
        lhs = revenue_bic(spec) - revenue_dic(spec)
        half = a - (1 - p) / (2 * p) * (b - a)
        full = a - (1 - p) / p * (b - a)
        rhs = p2 * (max(half, F(0)) - max(full, F(0)))
        assert lhs == rhs


class TestSeparateSale:
    def test_example(self):
        assert separate_revenue(AuctionSpec(2, F(1, 2), 1, F(3, 2))) == F(5, 2)

    def test_large_b_branch(self):
        spec = AuctionSpec(2, F(1, 2), 1, 100)
        assert separate_revenue(spec) == 2 * F(3, 4) * 100

    @given(spec_strategy(ns=(2, 3)))
    @settings(max_examples=15, deadline=None)
    def test_matches_single_item_lp(self, spec):
        assert separate_revenue(spec) == 2 * single_item_optimum(spec)


class TestGrandBundle:
    def test_derived_value(self):
        # oracle: enumerate the three candidate posted prices
        spec = AuctionSpec(2, F(1, 2), 1, F(3, 2))
        values = {
            price: posted_price_bundle_revenue(spec, price)
            for price in (2 * spec.a, spec.a + spec.b, 2 * spec.b)
        }
        assert max(values.values()) == F(75, 32)
        assert grand_bundle_revenue(spec) == F(75, 32)

    def test_zero_low_value(self):
        spec = AuctionSpec(2, F(1, 2), 0, 1)
        assert grand_bundle_revenue(spec) == max(
            posted_price_bundle_revenue(spec, 1), posted_price_bundle_revenue(spec, 2)
        )

    @given(spec_strategy())
    @settings(max_examples=40, deadline=None)
    def test_matches_enumeration_oracle(self, spec):
        prices = (2 * spec.a, spec.a + spec.b, 2 * spec.b)
        assert grand_bundle_revenue(spec) == max(
            posted_price_bundle_revenue(spec, r) for r in prices
        )

    @given(spec_strategy(), st.fractions(min_value=0, max_value=5, max_denominator=7))
    @settings(max_examples=40, deadline=None)
    def test_support_prices_dominate(self, spec, price):
        # any posted bundle price does no better than the best support point
        assert posted_price_bundle_revenue(spec, price) <= grand_bundle_revenue(spec)


class TestRevenueReport:
    def test_example(self):
        rep = revenue_report(EXAMPLE)
        assert (rep.r_dic, rep.r_bic, rep.srev, rep.bundle_rev) == (
            F(25, 8),
            F(51, 16),
            F(3),
            F(45, 16),
        )
        assert rep.s_b == 3

    @given(spec_strategy())
    @settings(max_examples=60, deadline=None)
    def test_ordering_invariant(self, spec):
        rep = revenue_report(spec)
        assert rep.r_bic >= rep.r_dic >= rep.srev >= rep.s_b

    @given(spec_strategy())
    @settings(max_examples=60, deadline=None)
    def test_collapse_characterization(self, spec):
        # equal optima across implementations iff separate sale is optimal
        rep = revenue_report(spec)
        v3 = rep.breakpoints.v3
        if spec.b >= v3:
            assert rep.r_bic == rep.r_dic == rep.srev
        else:
            assert rep.r_bic > rep.r_dic > rep.srev
        assert (rep.r_dic == rep.r_bic) == (rep.r_dic == rep.srev)


class TestPiecewiseStructure:
    @pytest.mark.parametrize("p", [F(1, 4), F(1, 2), F(2, 3)])
    def test_continuity_at_breakpoints(self, p):
        # the affine piece on each side extrapolates exactly to the value at
        # the breakpoint, so left and right limits agree with the function
        a = F(1)
        v = breakpoints(AuctionSpec(2, p, a, a + 1))
        eps = min(v.v1 - a, v.v2 - v.v1, v.v3 - v.v2) / 4
        for x in (v.v1, v.v2, v.v3):
            for fn in (revenue_dic, revenue_bic, separate_revenue):
                at = fn(AuctionSpec(2, p, a, x))
                left = [fn(AuctionSpec(2, p, a, x - k * eps)) for k in (1, 2)]
                right = [fn(AuctionSpec(2, p, a, x + k * eps)) for k in (1, 2)]
                assert 2 * left[0] - left[1] == at
                assert 2 * right[0] - right[1] == at

    @pytest.mark.parametrize("p", [F(1, 4), F(1, 2), F(2, 3)])
    @pytest.mark.parametrize("n", [2, 3])
    def test_second_differences_vanish_within_pieces(self, n, p):
        a = F(1)
        v = breakpoints(AuctionSpec(n, p, a, a + 1))
        edges = [a, v.v1, v.v2, v.v3, v.v3 + 2]
        for lo, hi in zip(edges, edges[1:]):
            xs = [lo + F(k, 4) * (hi - lo) for k in (1, 2, 3)]
            for fn in (revenue_dic, revenue_bic, separate_revenue):
                ys = [fn(AuctionSpec(n, p, a, x)) for x in xs]
                assert ys[2] - 2 * ys[1] + ys[0] == 0


class TestSweep:
    def test_breakpoints_included_and_flagged(self):
        rows = sweep_high_value(2, F(1, 2), 1, F(5, 4), 4, steps=2)
        bs = [r.b for r in rows]
        assert bs == sorted(bs)
        marked = {r.b for r in rows if r.is_breakpoint}
        assert marked == {F(5, 3), F(2), F(3)}
        assert len(rows) == 5  # 2 grid points + 3 breakpoints

    def test_grid_point_on_breakpoint_not_duplicated(self):
        rows = sweep_high_value(2, F(1, 2), 1, 2, 3, steps=3)
        assert [r.b for r in rows] == [F(5, 3), F(2), F(5, 2), F(3)]
        assert [r.is_breakpoint for r in rows] == [True, True, False, True]

    def test_affine_within_pieces(self):
        rows = sweep_high_value(2, F(1, 2), 1, F(17, 8), F(23, 8), steps=7)
        inside = [r for r in rows if F(2) <= r.b < F(3)]
        slopes = {
            (r2.r_dic - r1.r_dic) / (r2.b - r1.b)
            for r1, r2 in zip(inside, inside[1:])
        }
        assert slopes == {F(11, 8)}

    def test_gap_sign_pattern(self):
        rows = sweep_high_value(2, F(1, 2), 1, F(5, 4), 4, steps=12)
        for r in rows:
            if r.b < 3:
                assert r.r_bic > r.r_dic
            else:
                assert r.r_bic == r.r_dic == r.srev

    def test_range_validation(self):
        with pytest.raises(ValueError):
            sweep_high_value(2, F(1, 2), 1, 1, 4, steps=5)  # b_lo == a
        with pytest.raises(ValueError):
            sweep_high_value(2, F(1, 2), 1, 2, 4, steps=1)

    def test_zero_low_value_has_no_breakpoint_rows(self):
        rows = sweep_high_value(2, F(1, 2), 0, 1, 2, steps=3)
        assert not any(r.is_breakpoint for r in rows)
        assert len(rows) == 3


class TestInvariantErrors:
    def test_revenue_ordering_violation_raises(self, monkeypatch):
        # a real error, not an assert, so it survives python -O
        from twopoint_auctions import formulas

        monkeypatch.setattr(
            formulas, "separate_revenue", lambda spec: revenue_dic(spec) + 1
        )
        with pytest.raises(RuntimeError, match="revenue ordering"):
            revenue_report(EXAMPLE)


class TestDigitLimit:
    @pytest.mark.parametrize("limit", [20, 60])
    def test_refusal_is_sure(self, monkeypatch, limit):
        # Whenever the check refuses, SREV's denominator has more than
        # `limit` digits, so printing it would fail; instances well below
        # the bound pass.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: limit)
        rng = random.Random(limit)
        refused = passed = 0
        for _ in range(300):
            a = F(rng.randint(0, 6), rng.randint(1, 5))
            spec = AuctionSpec(rng.randint(2, 4 * limit), F(rng.randint(1, 11), 12),
                               a, a + F(rng.randint(1, 9), rng.randint(1, 5)))
            try:
                check_digit_limit(spec)
                passed += 1
            except CapExceeded:
                refused += 1
                assert separate_revenue(spec).denominator >= 10 ** limit, spec
        assert refused > 30 and passed > 30
