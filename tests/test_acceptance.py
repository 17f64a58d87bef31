"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a PASS line once its exact
assertions hold (run with -s or -rP to see them).  Everything asserted here
is an exact Fraction equality or an exact comparison; there are no numeric
tolerances anywhere.
"""

import csv
import io
import time
from fractions import Fraction as F

import pytest

from twopoint_auctions.cli import main as cli_main
from twopoint_auctions.core import AuctionSpec, class_probabilities
from twopoint_auctions.formulas import (
    breakpoints,
    grand_bundle_revenue,
    indicator_flags,
    revenue_bic,
    revenue_dic,
    revenue_report,
    separate_revenue,
)
from twopoint_auctions.mechanisms import build_bic_mechanism, build_dic_mechanism
from twopoint_auctions.audit import (
    check_bic,
    check_bir,
    check_dic,
    check_ir,
    expected_revenue,
)
from twopoint_auctions.oracle import certification_grid, certify_main_theorem
from twopoint_auctions.continuous import ContinuousSpec, discretize
from twopoint_auctions.oracle import solve_auction_lp

from helpers import (
    classify_profile,
    collapsed_two_point_spec,
    enumerate_profiles,
    interim_q,
    interim_u,
    qu_statistics,
)
from test_core import AA, AB, BA, BB

EXAMPLE = AuctionSpec(2, F(1, 2), 1, 2)
GRID = certification_grid()  # n in {2,3} x 5 p's x a in {0,1} x interval sweep of b


def report(criterion, message):
    print(f"[criterion {criterion}] PASS: {message}")


class TestCriterion1:
    def test_flagship_exact_values(self):
        t0 = time.perf_counter()
        rep = revenue_report(EXAMPLE)
        elapsed = time.perf_counter() - t0
        assert rep.r_dic == F(25, 8)
        assert rep.r_bic == F(51, 16)
        assert rep.srev == F(3)
        assert rep.bundle_rev == F(45, 16)
        report(1, f"r_D=25/8 r_B=51/16 SREV=3 bundle=45/16 exactly "
                  f"({elapsed * 1e3:.2f} ms)")


class TestCriterion2:
    def test_two_percent_gap(self):
        gap = (revenue_bic(EXAMPLE) - revenue_dic(EXAMPLE)) / revenue_dic(EXAMPLE)
        assert gap == F(1, 50)
        report(2, "(r_B - r_D)/r_D == 1/50 exactly")


class TestCriterion3:
    def test_main_theorem_certification_grid(self):
        t0 = time.perf_counter()
        mismatches = []
        for spec in GRID:
            rep = certify_main_theorem(spec)
            if not rep.all_equal:
                mismatches.append(rep)
        elapsed = time.perf_counter() - t0
        assert not mismatches
        report(3, f"lp_D == r_D and lp_B == r_B exactly on all {len(GRID)} "
                  f"grid specs ({elapsed:.1f} s)")


class TestCriterion4:
    def test_mechanism_achievability_and_audits(self):
        t0 = time.perf_counter()
        for spec in GRID:
            md = build_dic_mechanism(spec)
            assert expected_revenue(md) == revenue_dic(spec)
            assert check_ir(md).passed
            assert check_dic(md).passed
            mb = build_bic_mechanism(spec)
            assert expected_revenue(mb) == revenue_bic(spec)
            assert check_ir(mb).passed
            assert check_bic(mb).passed
            assert check_bir(mb).passed
        elapsed = time.perf_counter() - t0
        report(4, f"both mechanisms hit their formulas and pass their audit "
                  f"suites on all {len(GRID)} grid specs ({elapsed:.1f} s)")


class TestCriterion5:
    def test_dic_violation_witness(self):
        failing, passing = 0, 0
        for spec in GRID:
            rep = check_dic(build_bic_mechanism(spec))
            if spec.b >= breakpoints(spec).v3:
                assert rep.passed
                passing += 1
            else:
                assert not rep.passed
                others = (AB,) + (AA,) * (spec.n - 2)
                assert any(
                    (v.buyer, v.true_type, v.reported_type, v.others)
                    == (0, BB, AB, others)
                    for v in rep.violations
                )
                failing += 1
        report(5, f"bayesian-optimal mechanism fails DIC with the named "
                  f"witness on {failing} sub-v3 specs, passes on {passing}")


class TestCriterion6:
    def test_class_mass_and_utility_identities(self):
        for spec in GRID:
            p, a, b = spec.p, spec.a, spec.b
            p0, p1, p2 = class_probabilities(spec)
            mass = {"S0": F(0), "S1": F(0), "S2": F(0)}
            for profile, prob in enumerate_profiles(spec.n, spec.dist):
                label = classify_profile(profile).label
                if label in mass:
                    mass[label] += prob
            assert (mass["S0"], mass["S1"], mass["S2"]) == (p0, p1, p2)
            f = indicator_flags(spec)
            ratio = (1 - p) / p
            for mech, s2_flag, s2_u in (
                (build_dic_mechanism(spec), f.gamma, ratio),
                (build_bic_mechanism(spec), f.beta, ratio / 2),
            ):
                stats = qu_statistics(mech)
                assert stats["S0"][0] == 2 * p0 * f.alpha
                assert stats["S1"][0] == p1 * f.beta
                assert stats["S2"][0] == p2 * s2_flag
                assert stats["S1"][1] == (b - a) * ratio * stats["S0"][0]
                assert stats["S1_prime"][1] == (b - a) / 2 * (
                    ratio ** 2 * stats["S0"][0] + ratio * stats["S1"][0]
                )
                assert stats["S2_prime"][1] == (b - a) * s2_u * stats["S2"][0]
        report(6, f"class masses and utility-mass identities hold exactly on "
                  f"all {len(GRID)} grid specs, both mechanisms")


class TestCriterion7:
    def test_sweep_piecewise_structure(self, capsys):
        code = cli_main([
            "sweep", "--n", "2", "--p", "1/2", "--a", "1",
            "--b-min", "5/4", "--b-max", "4", "--steps", "23",
        ])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))

        def frac(row, stem):
            return F(int(row[stem + "_num"]), int(row[stem + "_den"]))

        segment = [
            (frac(r, "b"), frac(r, "rD")) for r in rows if F(2) <= frac(r, "b") < F(3)
        ]
        assert len(segment) >= 3
        slopes = {
            (y2 - y1) / (x2 - x1)
            for (x1, y1), (x2, y2) in zip(segment, segment[1:])
        }
        assert slopes == {F(11, 8)}
        for r in rows:
            if frac(r, "b") >= 3:
                assert frac(r, "rD") == frac(r, "rB") == frac(r, "srev")
            else:
                assert frac(r, "rB") > frac(r, "rD")
        with capsys.disabled():
            report(7, "swept r_D has slope 11/8 on [2,3) and all three curves "
                      "merge from b=3 on")


class TestCriterion8:
    def test_continuous_exploration(self):
        t0 = time.perf_counter()
        values = {}
        for grid_m in (1, 2):
            for a in (F(10), F(20), F(40)):
                cspec = ContinuousSpec(2, a, 2, grid_m)
                lp_d = solve_auction_lp(2, discretize(cspec), "dic").optimum
                lp_b = solve_auction_lp(2, discretize(cspec), "bic").optimum
                assert lp_b > lp_d
                values[(grid_m, a)] = (lp_d, lp_b)
        # collapse consistency at grid_m=1 against the two-point oracle
        for a in (F(10), F(20), F(40)):
            two = collapsed_two_point_spec(ContinuousSpec(2, a, 2, 1))
            assert values[(1, a)][0] == solve_auction_lp(two.n, two.dist, "dic").optimum
            assert values[(1, a)][1] == solve_auction_lp(two.n, two.dist, "bic").optimum
        # scaled convergence toward the normalized two-point optimum
        for grid_m in (1, 2):
            near = abs(values[(grid_m, F(40))][0] / 40 - F(25, 8))
            far = abs(values[(grid_m, F(10))][0] / 10 - F(25, 8))
            assert near <= far
        elapsed = time.perf_counter() - t0
        report(8, f"lp_B > lp_D on all 6 cells, grid_m=1 collapses to the "
                  f"two-point oracle, and lp_D/a approaches 25/8 "
                  f"({elapsed:.0f} s)")


class TestCriterion9:
    def test_interim_facts_for_bic_mechanism(self):
        types = (AA, AB, BA, BB)
        for spec in GRID:
            mech = build_bic_mechanism(spec)
            q = {t: interim_q(mech.interim, 0, t) for t in types}
            u = {t: interim_u(mech.interim, 0, t) for t in types}
            for t1 in types:
                for t2 in types:
                    if t1[0] >= t2[0] and t1[1] >= t2[1]:
                        assert q[t1][0] >= q[t2][0] and q[t1][1] >= q[t2][1]
            d = spec.b - spec.a
            assert u[AB] - u[AA] == d * q[AA][1]
            assert u[BB] - u[AB] == d * q[AB][0]
            assert q[AB][0] <= q[AB][1]
            assert q[BA][0] >= q[BA][1]
        report(9, f"interim monotonicity, envelope equalities and cross-item "
                  f"comparisons hold exactly on all {len(GRID)} grid specs")
