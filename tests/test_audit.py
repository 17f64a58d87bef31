import functools
import itertools
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from twopoint_auctions.continuous import ContinuousSpec, discretize
from twopoint_auctions.core import (
    AuctionSpec,
    CapExceeded,
    FiniteValueDistribution,
    buyer_types,
    profile_classes,
)
from twopoint_auctions.formulas import breakpoints, indicator_flags
from twopoint_auctions.mechanisms import (
    Mechanism,
    build_bic_mechanism,
    build_dic_mechanism,
    mechanism_to_json,
)
from twopoint_auctions.audit import (
    AuditReport,
    Violation,
    check_bic,
    check_bir,
    check_dic,
    check_ir,
    expected_revenue,
    violation_count,
)
from twopoint_auctions.oracle import extract_mechanism, solve_auction_lp

from helpers import (
    cell_tables,
    cells_at,
    cheap_items,
    class_sets,
    enumerate_profiles,
    from_rationals,
    from_tables,
    insert,
    interim_q,
    interim_u,
    payment_of,
    q_of,
    qu_statistics,
    u_of,
)
from test_core import AA, AB, BA, BB, TYPES
from test_mechanisms import grid_specs, profiles_of, total_utility_mass

EXAMPLE = AuctionSpec(2, F(1, 2), 1, 2)


def zero_mechanism(spec):
    zero = (0, 0)
    profiles = profiles_of(spec)
    return from_tables(
        spec.dist,
        "custom",
        {t: tuple(zero for _ in range(spec.n)) for t in profiles},
        {t: tuple(0 for _ in range(spec.n)) for t in profiles},
        1,
    )


def with_cell(mech, profile, buyer, shares=None, utility=None):
    """The mechanism with the share pair or the utility at one entry's cell
    replaced by rationals: every buyer that holds the cell of `buyer` at
    `profile`, at any profile, takes them."""
    planted = cells_at(mech.dist, profile)[buyer]
    allocation, utilities = {}, {}
    for t in profiles_of(mech):
        at = [x == planted for x in cells_at(mech.dist, t)]
        allocation[t] = tuple(shares if here and shares is not None else q_of(mech, i, t)
                              for i, here in enumerate(at))
        utilities[t] = tuple(utility if here and utility is not None else u_of(mech, i, t)
                             for i, here in enumerate(at))
    return from_rationals(mech.dist, "custom", allocation, utilities)


def with_utility(mech, profile, buyer, value):
    """The mechanism with the utility at one entry's cell replaced."""
    return with_cell(mech, profile, buyer, utility=value)


def type_values(mech, t):
    return (mech.dist.values[t[0]], mech.dist.values[t[1]])


def transfer_equation_check(mech):
    """Misreport utility derived from (q, s) satisfies
    u_i(t_i <- t'_i, t_-i) = u_i(t'_i, t_-i) + (t_i - t'_i).q_i(t'_i, t_-i),
    exactly, for all indices.  An identity of definitions; checked anyway.
    """
    others_space = [o for o, _ in enumerate_profiles(mech.n - 1, mech.dist)]
    for i in range(mech.n):
        for t_true in TYPES:
            val_true = type_values(mech, t_true)
            for t_rep in TYPES:
                val_rep = type_values(mech, t_rep)
                for others in others_space:
                    deviated = insert(others, i, t_rep)
                    q1, q2 = q_of(mech, i, deviated)
                    s = payment_of(mech, i, deviated)
                    misreport_u = val_true[0] * q1 + val_true[1] * q2 - s
                    expected = (
                        u_of(mech, i, deviated)
                        + (val_true[0] - val_rep[0]) * q1
                        + (val_true[1] - val_rep[1]) * q2
                    )
                    if misreport_u != expected:
                        return False
    return True


def dic_case_family(others):
    """Tag an opponent profile by the structure that drives the truthfulness
    analysis: A all-low; B/C one column all-low with high values only in the
    other; D high values in both columns but no (b,b) opponent; E some (b,b)
    opponent."""
    if any(t == BB for t in others):
        return "E"
    col1_low = all(t[0] == 0 for t in others)
    col2_low = all(t[1] == 0 for t in others)
    if col1_low and col2_low:
        return "A"
    if col1_low:
        return "B"
    if col2_low:
        return "C"
    return "D"


class TestExpectedRevenue:
    def test_example_values(self):
        assert expected_revenue(build_dic_mechanism(EXAMPLE)) == F(25, 8)
        assert expected_revenue(build_bic_mechanism(EXAMPLE)) == F(51, 16)

    def test_zero_mechanism(self):
        assert expected_revenue(zero_mechanism(EXAMPLE)) == 0


class TestIR:
    @pytest.mark.parametrize("spec", grid_specs(), ids=str)
    def test_built_mechanisms_pass(self, spec):
        assert check_ir(build_dic_mechanism(spec)).passed
        assert check_ir(build_bic_mechanism(spec)).passed

    def test_planted_defect(self):
        # The planted cell is buyer 0's at (ab, ba) and buyer 1's at (ba, ab).
        bad = with_utility(build_dic_mechanism(EXAMPLE), (AB, BA), 0, F(-1))
        report = check_ir(bad)
        assert not report.passed
        assert len(report.violations) == 2
        v = report.violations[0]
        assert (v.buyer, v.true_type, v.others) == (0, AB, (BA,))
        assert (v.lhs, v.rhs) == (F(-1), F(0))
        v = report.violations[1]
        assert (v.buyer, v.true_type, v.others) == (1, AB, (BA,))
        assert (v.lhs, v.rhs) == (F(-1), F(0))

    def test_constraint_count(self):
        report = check_ir(build_dic_mechanism(EXAMPLE))
        assert report.n_constraints == 2 * 16


class TestProfileCapBeforeWork:
    """Past the profile cap, the readers by profile refuse a mechanism
    before they build anything per profile."""

    @staticmethod
    def _negative_at_n9():
        # 4^9 profiles; the cell every buyer holds at the all-low profile
        # has utility -1.
        size = len(profile_classes(9, 4)) * 4
        zeros = (0,) * size
        return Mechanism(9, EXAMPLE.dist, "custom", 1, zeros, zeros, (-1,) + zeros[1:])

    def test_ir_listing_is_refused_before_any_table(self):
        mech = self._negative_at_n9()
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match=r"4\^9 = 262144 profiles"):
                check_ir(mech)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_export_is_refused_before_any_write(self):
        writes = []

        class Recorder:
            write = writes.append

        with pytest.raises(CapExceeded, match=r"4\^9 = 262144 profiles"):
            mechanism_to_json(self._negative_at_n9(), None, Recorder())
        assert writes == []


class TestDIC:
    @pytest.mark.parametrize("spec", grid_specs(), ids=str)
    def test_dic_mechanism_passes(self, spec):
        assert check_dic(build_dic_mechanism(spec)).passed

    def test_zero_mechanism_passes(self):
        assert check_dic(zero_mechanism(EXAMPLE)).passed

    def test_constraint_count(self):
        assert check_dic(build_dic_mechanism(EXAMPLE)).n_constraints == 2 * 12 * 4
        spec3 = AuctionSpec(3, F(1, 2), 1, 2)
        assert check_dic(build_dic_mechanism(spec3)).n_constraints == 3 * 12 * 16

    @pytest.mark.parametrize("spec", grid_specs(), ids=str)
    def test_bic_mechanism_witness(self, spec):
        """Below v3 the Bayesian-optimal mechanism fails dominant-strategy
        truthfulness, and the named witness is in the violation set: a (b,b)
        buyer facing one (a,b) opponent (others all-low) gains by reporting
        (a,b).  From v3 on it passes."""
        report = check_dic(build_bic_mechanism(spec))
        if spec.b >= breakpoints(spec).v3:
            assert report.passed
            return
        assert not report.passed
        others = (AB,) + (AA,) * (spec.n - 2)
        witness = [
            v
            for v in report.violations
            if (v.buyer, v.true_type, v.reported_type, v.others)
            == (0, BB, AB, others)
        ]
        assert len(witness) == 1
        v = witness[0]
        # u_0((b,b),others) = (b-a)/4 against rhs (b-a)*q^1 = (b-a)/2
        assert v.lhs == (spec.b - spec.a) / 4
        assert v.rhs == (spec.b - spec.a) / 2

    @pytest.mark.parametrize("n", range(1, 7))
    def test_listing_matches_the_per_profile_reference(self, n):
        """The listing reads each opponent profile's class from the n - 1
        buyers' cells (none at n = 1): every buyer, type pair and opponent
        profile, in order, against `ref_check_dic`, on a random mechanism
        that fails at many profiles and on a passing one: the null
        mechanism at n = 1, and from n = 2 the Bayesian-optimal mechanism
        (failing) and the dominant-strategy one (passing)."""
        spec = AuctionSpec(max(n, 2), F(1, 2), 1, F(5, 4))
        if n == 1:
            zero = cell_tables(1, spec.dist, lambda: ((F(0), F(0)), F(0)))
            mechs = [random_mechanism(spec.dist, 1, seed=1),
                     from_rationals(spec.dist, "custom", *zero)]
        else:
            # At n = 6 the reference takes about 1.5 s a mechanism.
            mechs = [random_mechanism(spec.dist, n, seed=n)] if n < 6 else []
            mechs += [build_bic_mechanism(spec), build_dic_mechanism(spec)]
        reports = [check_dic(mech) for mech in mechs]
        assert reports == [ref_check_dic(mech) for mech in mechs]
        assert [r.passed for r in reports] == [False] * (len(mechs) - 1) + [True]

    def test_violation_order_is_deterministic(self):
        r1 = check_dic(build_bic_mechanism(EXAMPLE))
        r2 = check_dic(build_bic_mechanism(EXAMPLE))
        assert r1.violations == r2.violations


class TestBICandBIR:
    @pytest.mark.parametrize("spec", grid_specs(), ids=str)
    def test_built_mechanisms_pass(self, spec):
        mb = build_bic_mechanism(spec)
        assert check_bic(mb).passed
        assert check_bir(mb).passed
        md = build_dic_mechanism(spec)
        assert check_bic(md).passed  # averaging preserves truthfulness
        assert check_bir(md).passed

    def test_constraint_counts(self):
        mech = build_bic_mechanism(EXAMPLE)
        assert check_bic(mech).n_constraints == 2 * 12
        assert check_bir(mech).n_constraints == 2 * 4

    def test_planted_interim_defect(self):
        mech = build_bic_mechanism(EXAMPLE)
        bad = mech
        for others in TYPES:
            bad = with_utility(bad, (AA, others), 0, F(-5))
        rep = check_bir(bad)
        assert not rep.passed
        assert rep.violations[0].others == "averaged"
        assert rep.violations[0].true_type == AA

    def test_planted_bb_bonus_fails_reported_pairs(self):
        # lifting the (b,b) row uniformly makes misreporting *to* (b,b)
        # attractive; the violations appear exactly on those pairs
        mech = build_bic_mechanism(EXAMPLE)
        bad = mech
        for others in TYPES:
            profile = (BB, others)
            bad = with_utility(bad, profile, 0, u_of(bad, 0, profile) + 100)
        rep = check_bic(bad)
        assert not rep.passed
        assert {(v.true_type, v.reported_type) for v in rep.violations} == {
            (AA, BB),
            (AB, BB),
            (BA, BB),
        }

    def test_payments_are_rederived_from_tables(self):
        # the audit consumes (q, u) only; shifting u changes the derived
        # payment, which expected_revenue must reflect: the shifted cell is
        # buyer 0's at (bb, aa) and buyer 1's at (aa, bb), 1/16 each
        mech = build_bic_mechanism(EXAMPLE)
        shifted = with_utility(mech, (BB, AA), 0, u_of(mech, 0, (BB, AA)) + 1)
        assert expected_revenue(shifted) == expected_revenue(mech) - 2 * F(1, 16)


class TestTransferEquation:
    @pytest.mark.parametrize(
        "builder", [build_dic_mechanism, build_bic_mechanism, zero_mechanism]
    )
    def test_identity_holds(self, builder):
        assert transfer_equation_check(builder(EXAMPLE))

    def test_interim_form(self):
        mech = build_bic_mechanism(EXAMPLE)
        for i in range(2):
            for t_true in TYPES:
                for t_rep in TYPES:
                    vt = type_values(mech, t_true)
                    vr = type_values(mech, t_rep)
                    q = interim_q(mech.interim, i, t_rep)
                    misreport = sum(
                        F(1, 4)
                        * (
                            vt[0] * q_of(mech, i, (t_rep, o) if i == 0 else (o, t_rep))[0]
                            + vt[1] * q_of(mech, i, (t_rep, o) if i == 0 else (o, t_rep))[1]
                            - payment_of(mech, i, (t_rep, o) if i == 0 else (o, t_rep))
                        )
                        for o in TYPES
                    )
                    expected = interim_u(mech.interim, i, t_rep) + (
                        (vt[0] - vr[0]) * q[0] + (vt[1] - vr[1]) * q[1]
                    )
                    assert misreport == expected


class TestClassSets:
    def test_sizes(self):
        sets = class_sets(profiles_of(AuctionSpec(3, F(1, 2), 1, 2)))
        assert len(sets["S0"]) == 1
        assert len(sets["S1"]) == 6
        assert len(sets["S1_prime"]) == 9
        # every raised one-cheap profile is reachable from exactly one parent
        assert len(sets["S2_prime"]) == 3 * len(sets["S2"])

    def test_example_q_masses(self):
        spec = AuctionSpec(2, F(1, 2), 1, F(3, 2))  # alpha = 1
        stats = qu_statistics(build_dic_mechanism(spec))
        assert stats["S0"][0] == F(1, 8)  # 2 * p0
        assert stats["S1_prime"][0] == 0
        assert stats["S2_prime"][0] == 0

    @pytest.mark.parametrize("spec", grid_specs(ns=(2, 3)), ids=str)
    def test_bic_upper_bound_chain_is_tight(self, spec):
        # the interim machinery's lower bound on utility mass is achieved
        p, a, b = spec.p, spec.a, spec.b
        mech = build_bic_mechanism(spec)
        stats = qu_statistics(mech)
        bound = (b - a) * (
            (1 - p ** 2) / (2 * p ** 2) * stats["S0"][0]
            + (1 - p) / (2 * p) * (stats["S1"][0] + stats["S2"][0])
        )
        assert total_utility_mass(mech) == bound


class TestInterimFacts:
    """Interim monotonicity and envelope equalities of the Bayesian-optimal
    mechanism, across the grid."""

    @staticmethod
    def _geq(x, y):
        return x[0] >= y[0] and x[1] >= y[1]

    @pytest.mark.parametrize("spec", grid_specs(), ids=str)
    def test_interim_allocation_monotone(self, spec):
        mech = build_bic_mechanism(spec)
        for t1, t2 in itertools.product(TYPES, repeat=2):
            if all(x >= y for x, y in zip(t1, t2)):
                assert self._geq(interim_q(mech.interim, 0, t1), interim_q(mech.interim, 0, t2))

    @pytest.mark.parametrize("spec", grid_specs(), ids=str)
    def test_envelope_equalities(self, spec):
        mech = build_bic_mechanism(spec)
        d = spec.b - spec.a
        u = {t: interim_u(mech.interim, 0, t) for t in TYPES}
        q_aa = interim_q(mech.interim, 0, AA)
        q_ab = interim_q(mech.interim, 0, AB)
        assert u[AB] - u[AA] == d * q_aa[1]
        assert u[BB] - u[AB] == d * q_ab[0]

    @pytest.mark.parametrize("spec", grid_specs(), ids=str)
    def test_cross_item_interim_comparisons(self, spec):
        mech = build_bic_mechanism(spec)
        q_ab = interim_q(mech.interim, 0, AB)
        q_ba = interim_q(mech.interim, 0, BA)
        assert q_ab[0] <= q_ab[1]
        assert q_ba[0] >= q_ba[1]


class TestCaseFamilies:
    def test_partition_at_n3(self):
        seen = {}
        for others in itertools.product(TYPES, repeat=2):
            seen.setdefault(dic_case_family(others), []).append(others)
        assert set(seen) == {"A", "B", "C", "D", "E"}
        assert seen["A"] == [(AA, AA)]
        assert (AB, BA) in seen["D"]

    def test_no_middle_family_at_n2(self):
        families = {dic_case_family((t,)) for t in TYPES}
        assert families == {"A", "B", "C", "E"}

    def test_dic_audit_covers_every_family(self):
        spec = AuctionSpec(3, F(1, 2), 1, 2)
        mech = build_dic_mechanism(spec)
        report = check_dic(mech)
        assert report.passed
        families = {
            dic_case_family(others)
            for others in itertools.product(TYPES, repeat=2)
        }
        assert families == {"A", "B", "C", "D", "E"}


class TestReportSerialization:
    def test_json_round_trip_fields(self):
        report = check_dic(build_bic_mechanism(EXAMPLE))
        doc = report.to_json()
        assert doc["condition"] == "DIC"
        assert doc["passed"] is False
        v = doc["violations"][0]
        assert set(v) == {"buyer", "true_type", "reported_type", "others", "lhs", "rhs"}
        assert v["lhs"] == "1/4"
        assert (v["true_type"], v["reported_type"], v["others"]) == ("bb", "ab", ["ab"])


# ---------------------------------------------------------------------------
# Differential tests against the Fraction audits
# ---------------------------------------------------------------------------
#
# The audits below are the Fraction versions that the integer audits
# replaced, kept as the reference: every product and sum is a Fraction
# operation, read through the mechanism's rational accessors.


def ref_profile_probability(dist, profile):
    counts = [0] * len(dist.probs)
    for x1, x2 in profile:
        counts[x1] += 1
        counts[x2] += 1
    out = F(1)
    for prob, count in zip(dist.probs, counts):
        out *= prob ** count
    return out


def ref_enumerate_profiles(n, dist):
    profiles = itertools.product(buyer_types(dist), repeat=n)
    return [(t, ref_profile_probability(dist, t)) for t in profiles]


def ref_payment(mech, i, profile):
    q1, q2 = q_of(mech, i, profile)
    x1, x2 = profile[i]
    return q1 * mech.dist.values[x1] + q2 * mech.dist.values[x2] - u_of(mech, i, profile)


def ref_expected_revenue(mech):
    total = F(0)
    for profile, prob in ref_enumerate_profiles(mech.n, mech.dist):
        total += prob * sum(ref_payment(mech, i, profile) for i in range(mech.n))
    return total


def ref_interim(mech, opponents, i, t_i):
    u = q1 = q2 = F(0)
    for others, w in opponents:
        profile = insert(others, i, t_i)
        a1, a2 = q_of(mech, i, profile)
        u += w * u_of(mech, i, profile)
        q1 += w * a1
        q2 += w * a2
    return u, (q1, q2)


def ref_check_ir(mech):
    violations = []
    count = 0
    for profile, _ in ref_enumerate_profiles(mech.n, mech.dist):
        for i in range(mech.n):
            count += 1
            u = u_of(mech, i, profile)
            if u < 0:
                others = profile[:i] + profile[i + 1 :]
                violations.append(Violation(i, profile[i], None, others, u, F(0)))
    return AuditReport("IR", not violations, tuple(violations), count)


def ref_check_dic(mech):
    n, values = mech.n, mech.dist.values
    types = buyer_types(mech.dist)
    others_space = [others for others, _ in ref_enumerate_profiles(n - 1, mech.dist)]
    # Buyer i's utility and shares at each profile, read once per profile.
    at = functools.cache(lambda i, profile: (u_of(mech, i, profile), q_of(mech, i, profile)))
    violations = []
    count = 0
    for i in range(n):
        for t_true in types:
            for t_rep in types:
                if t_rep == t_true:
                    continue
                d1 = values[t_true[0]] - values[t_rep[0]]
                d2 = values[t_true[1]] - values[t_rep[1]]
                for others in others_space:
                    count += 1
                    lhs = at(i, insert(others, i, t_true))[0]
                    u, (q1, q2) = at(i, insert(others, i, t_rep))
                    rhs = u + d1 * q1 + d2 * q2
                    if lhs < rhs:
                        violations.append(Violation(i, t_true, t_rep, others, lhs, rhs))
    return AuditReport("DIC", not violations, tuple(violations), count)


def ref_check_bir(mech):
    opponents = ref_enumerate_profiles(mech.n - 1, mech.dist)
    violations = []
    count = 0
    for i in range(mech.n):
        for t_i in buyer_types(mech.dist):
            count += 1
            u_bar = ref_interim(mech, opponents, i, t_i)[0]
            if u_bar < 0:
                violations.append(Violation(i, t_i, None, "averaged", u_bar, F(0)))
    return AuditReport("BIR", not violations, tuple(violations), count)


def ref_check_bic(mech):
    values = mech.dist.values
    types = buyer_types(mech.dist)
    opponents = ref_enumerate_profiles(mech.n - 1, mech.dist)
    violations = []
    count = 0
    for i in range(mech.n):
        interim = {t: ref_interim(mech, opponents, i, t) for t in types}
        for t_true in types:
            for t_rep in types:
                if t_rep == t_true:
                    continue
                count += 1
                lhs = interim[t_true][0]
                u_rep, (q1, q2) = interim[t_rep]
                rhs = (
                    u_rep
                    + (values[t_true[0]] - values[t_rep[0]]) * q1
                    + (values[t_true[1]] - values[t_rep[1]]) * q2
                )
                if lhs < rhs:
                    violations.append(Violation(i, t_true, t_rep, "averaged", lhs, rhs))
    return AuditReport("BIC", not violations, tuple(violations), count)


def ref_qu_statistics(mech):
    probs = dict(ref_enumerate_profiles(mech.n, mech.dist))
    stats = {}
    for name, profiles in class_sets(profiles_of(mech)).items():
        q_mass = u_mass = F(0)
        for profile in profiles:
            prob = probs[profile]
            cheap = cheap_items(profile)
            for i in range(mech.n):
                q1, q2 = q_of(mech, i, profile)
                if cheap[0]:
                    q_mass += prob * q1
                if cheap[1]:
                    q_mass += prob * q2
                u_mass += prob * u_of(mech, i, profile)
        stats[name] = (q_mass, u_mass)
    return stats


# A three-atom marginal with non-integer values and unequal masses, and the
# two-atom grid_m=1 discretization of a continuous cell (values 21/2, 41/2).
THREE_ATOMS = FiniteValueDistribution((F(1, 2), F(4, 3), F(5, 2)), (F(1, 2), F(1, 3), F(1, 6)))
DISCRETIZED = discretize(ContinuousSpec(2, 10, 2, 1))


def random_mechanism(dist, n, seed):
    """Cell tables drawn from small rationals, some negative and some
    over-allocating: many violations of every kind, in a fixed order."""
    rng = random.Random(seed)
    shares = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]

    def draw():
        return ((rng.choice(shares), rng.choice(shares)),
                F(rng.randint(-2, 12), rng.choice((1, 2, 3, 5, 7))))

    allocation, utility = cell_tables(n, dist, draw)
    return from_rationals(dist, "custom", allocation, utility)


def differential_cases():
    cases = []
    for spec in (
        AuctionSpec(2, F(1, 3), 1, F(5, 4)),
        AuctionSpec(2, F(1, 2), 1, 2),
        AuctionSpec(3, F(2, 3), F(1, 2), F(7, 3)),
        AuctionSpec(3, F(1, 2), 1, F(7, 4)),
        AuctionSpec(3, F(1, 4), 0, 2),
        AuctionSpec(4, F(1, 2), 1, F(7, 4)),
        AuctionSpec(5, F(2, 3), 1, F(5, 2)),
    ):
        for build in (build_dic_mechanism, build_bic_mechanism):
            mech = build(spec)
            cases.append((f"{build.__name__}-{spec}", mech))
            if spec.n > 4:
                continue
            # planted cell defects: a negative utility, a lifted (b,b) row,
            # and an over-allocated cell with a negative share
            bad = with_utility(mech, (AB,) * spec.n, 0, F(-1, 3))
            cases.append((f"{build.__name__}-negative-{spec}", bad))
            top = (BB,) + (AA,) * (spec.n - 1)
            cases.append((f"{build.__name__}-lifted-{spec}",
                          with_utility(bad, top, 0, u_of(mech, 0, top) + F(7, 5))))
            cases.append((f"{build.__name__}-misallocated-{spec}",
                          with_cell(mech, (AA,) * spec.n, 0, shares=(F(1), F(-1, 2)))))
    for dist_name, dist in (("three-atoms", THREE_ATOMS), ("discretized", DISCRETIZED)):
        for n in (2, 3):
            cases.append((f"random-{dist_name}-n{n}", random_mechanism(dist, n, seed=n)))
        for regime in ("dic", "bic"):
            sol = solve_auction_lp(2, dist, regime)
            cases.append((f"optimum-{regime}-{dist_name}",
                          extract_mechanism(2, dist, sol)))
    for regime in ("dic", "bic"):
        spec = AuctionSpec(3, F(1, 2), 1, F(7, 4))
        sol = solve_auction_lp(3, spec.dist, regime)
        cases.append((f"optimum-{regime}-{spec}", extract_mechanism(3, spec.dist, sol)))
    return cases


DIFFERENTIAL_CASES = differential_cases()


class TestAgainstFractionReference:
    @pytest.mark.parametrize("name, mech", DIFFERENTIAL_CASES,
                             ids=[name for name, _ in DIFFERENTIAL_CASES])
    def test_reports_match(self, name, mech):
        for check, ref in ((check_ir, ref_check_ir), (check_dic, ref_check_dic),
                           (check_bir, ref_check_bir), (check_bic, ref_check_bic)):
            assert check(mech) == ref(mech)
        assert expected_revenue(mech) == ref_expected_revenue(mech)

    @pytest.mark.parametrize("name, mech", DIFFERENTIAL_CASES,
                             ids=[name for name, _ in DIFFERENTIAL_CASES])
    def test_interim_table_matches(self, name, mech):
        opponents = ref_enumerate_profiles(mech.n - 1, mech.dist)
        for i in range(mech.n):
            for t in buyer_types(mech.dist):
                u, q = ref_interim(mech, opponents, i, t)
                assert (interim_u(mech.interim, i, t), interim_q(mech.interim, i, t)) == (u, q)

    @pytest.mark.parametrize("name, mech", DIFFERENTIAL_CASES,
                             ids=[name for name, _ in DIFFERENTIAL_CASES])
    def test_violation_count_is_the_listings_length(self, name, mech):
        for check in (check_ir, check_dic, check_bir, check_bic):
            report = check(mech)
            assert violation_count(mech, report.condition) == len(report.violations)

    def test_cases_cover_every_violation_kind(self):
        reports = [check(mech) for _, mech in DIFFERENTIAL_CASES
                   for check in (check_ir, check_dic, check_bir, check_bic)]
        failed = {r.condition for r in reports if not r.passed}
        assert failed == {"IR", "DIC", "BIR", "BIC"}

    @pytest.mark.parametrize("spec", [AuctionSpec(2, F(1, 3), 1, F(5, 4)),
                                      AuctionSpec(3, F(2, 3), F(1, 2), F(7, 3))], ids=str)
    def test_qu_statistics_match(self, spec):
        for build in (build_dic_mechanism, build_bic_mechanism):
            mech = build(spec)
            assert qu_statistics(mech) == ref_qu_statistics(mech)
