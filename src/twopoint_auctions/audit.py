"""Exhaustive, exact verification of participation and truthfulness.

A mechanism is the pair (allocation, utility); payments are rederived here
before any check, so inconsistent (q, u, s) triples cannot arise.  Every
constraint is evaluated as an exact Fraction comparison and every violation
is reported with its replay key (buyer, true type, reported type, opponent
profile) and both sides of the failed inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    Profile,
    Type,
    buyer_types,
    cheap_items,
    classify_profile,
    enumerate_profiles,
    insert,
    profile_probability,
    rat_str,
    type_label,
)
from .mechanisms import Mechanism


@dataclass(frozen=True)
class Violation:
    buyer: int
    true_type: Type
    reported_type: Optional[Type]
    others: object  # opponent profile tuple, or "averaged" for interim checks
    lhs: Fraction
    rhs: Fraction

    def to_json(self) -> dict:
        return {
            "buyer": self.buyer,
            "true_type": type_label(self.true_type),
            "reported_type": (
                None if self.reported_type is None else type_label(self.reported_type)
            ),
            "others": (
                [type_label(t) for t in self.others]
                if isinstance(self.others, tuple)
                else self.others
            ),
            "lhs": rat_str(self.lhs),
            "rhs": rat_str(self.rhs),
        }


@dataclass(frozen=True)
class AuditReport:
    condition: str  # IR | DIC | BIR | BIC
    passed: bool
    violations: tuple
    n_constraints: int = 0

    def to_json(self) -> dict:
        return {
            "condition": self.condition,
            "passed": self.passed,
            "n_constraints": self.n_constraints,
            "violations": [v.to_json() for v in self.violations],
        }


def expected_revenue(mech: Mechanism) -> Fraction:
    """Sum over profiles of Pr{t} * total derived payment at t."""
    n = mech.n
    total = Fraction(0)
    for profile, prob in enumerate_profiles(n, mech.dist):
        total += prob * sum(mech.payment(i, profile) for i in range(n))
    return total


def _interim(mech: Mechanism, opponents: list, i: int, t_i: Type):
    """Buyer i's interim utility and allocation at type t_i, averaged over
    the weighted opponent profiles `opponents`."""
    u = q1 = q2 = Fraction(0)
    for others, w in opponents:
        profile = insert(others, i, t_i)
        a1, a2 = mech.q(i, profile)
        u += w * mech.u(i, profile)
        q1 += w * a1
        q2 += w * a2
    return u, (q1, q2)


def interim_utility(mech: Mechanism, i: int, t_i: Type) -> Fraction:
    return _interim(mech, enumerate_profiles(mech.n - 1, mech.dist), i, t_i)[0]


def interim_allocation(mech: Mechanism, i: int, t_i: Type) -> tuple[Fraction, Fraction]:
    return _interim(mech, enumerate_profiles(mech.n - 1, mech.dist), i, t_i)[1]


def check_ir(mech: Mechanism) -> AuditReport:
    """u_i(t) >= 0 for every buyer and profile."""
    n = mech.n
    violations = []
    count = 0
    for profile, _ in enumerate_profiles(n, mech.dist):
        for i in range(n):
            count += 1
            u = mech.u(i, profile)
            if u < 0:
                others = profile[:i] + profile[i + 1 :]
                violations.append(
                    Violation(i, profile[i], None, others, u, Fraction(0))
                )
    return AuditReport("IR", not violations, tuple(violations), count)


def check_dic(mech: Mechanism) -> AuditReport:
    """u_i(t_i,t_-i) >= u_i(t'_i,t_-i) + (t_i - t'_i).q_i(t'_i,t_-i),
    over all buyers, ordered pairs of distinct types, and opponent profiles.
    """
    n, values = mech.n, mech.dist.values
    types = buyer_types(mech.dist)
    others_space = [others for others, _ in enumerate_profiles(n - 1, mech.dist)]
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
                    truthful = insert(others, i, t_true)
                    deviated = insert(others, i, t_rep)
                    q1, q2 = mech.q(i, deviated)
                    lhs = mech.u(i, truthful)
                    rhs = mech.u(i, deviated) + d1 * q1 + d2 * q2
                    if lhs < rhs:
                        violations.append(
                            Violation(i, t_true, t_rep, others, lhs, rhs)
                        )
    return AuditReport("DIC", not violations, tuple(violations), count)


def check_bir(mech: Mechanism) -> AuditReport:
    """Interim utility of truthful participation is nonnegative."""
    opponents = enumerate_profiles(mech.n - 1, mech.dist)
    violations = []
    count = 0
    for i in range(mech.n):
        for t_i in buyer_types(mech.dist):
            count += 1
            u_bar = _interim(mech, opponents, i, t_i)[0]
            if u_bar < 0:
                violations.append(
                    Violation(i, t_i, None, "averaged", u_bar, Fraction(0))
                )
    return AuditReport("BIR", not violations, tuple(violations), count)


def check_bic(mech: Mechanism) -> AuditReport:
    """ubar_i(t_i) - ubar_i(t'_i) >= (t_i - t'_i).qbar_i(t'_i) over all
    buyers and ordered pairs of distinct types."""
    values = mech.dist.values
    types = buyer_types(mech.dist)
    opponents = enumerate_profiles(mech.n - 1, mech.dist)
    violations = []
    count = 0
    for i in range(mech.n):
        interim = {t: _interim(mech, opponents, i, t) for t in types}
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
                    violations.append(
                        Violation(i, t_true, t_rep, "averaged", lhs, rhs)
                    )
    return AuditReport("BIC", not violations, tuple(violations), count)


# ---------------------------------------------------------------------------
# Class mass statistics
# ---------------------------------------------------------------------------


def _bump(profile: Profile, i: int, item: int) -> Profile:
    """Raise buyer i's value for `item` to atom 1 (the high value b)."""
    x1, x2 = profile[i]
    t2 = (1, x2) if item == 0 else (x1, 1)
    return profile[:i] + (t2,) + profile[i + 1 :]


def class_sets(profiles) -> dict:
    """The five profile families, among the given profiles, whose masses
    drive the revenue accounting.

    S0: the all-low profile.  S1/S2: one cheap item with one / several
    active buyers.  S1': profiles with exactly one high value per item.
    S2': S2 profiles with one entry of the cheap column raised to b.
    """
    s0, s1, s2 = set(), set(), set()
    for profile in profiles:
        label = classify_profile(profile).label
        if label == "S0":
            s0.add(profile)
        elif label == "S1":
            s1.add(profile)
        elif label == "S2":
            s2.add(profile)
    (all_low,) = s0
    n = len(all_low)
    s1p = {_bump(_bump(all_low, i, 0), j, 1) for i in range(n) for j in range(n)}
    s2p = set()
    for profile in s2:
        item = 0 if cheap_items(profile)[0] else 1
        for i in range(n):
            s2p.add(_bump(profile, i, item))
    # The raised families are disjoint and contain no cheap items.
    if s1p & s2p:
        raise RuntimeError("the raised families S1' and S2' overlap")
    if any(cheap_items(profile) != (False, False) for profile in s1p | s2p):
        raise RuntimeError("a raised-family profile has a cheap item")
    return {"S0": s0, "S1": s1, "S2": s2, "S1_prime": s1p, "S2_prime": s2p}


def qu_statistics(mech: Mechanism) -> dict:
    """Exact Q(S) (cheap-item allocation mass) and U(S) (utility mass) for
    the five class families."""
    sets = class_sets(mech.profiles())
    stats = {}
    for name, profiles in sets.items():
        q_mass = Fraction(0)
        u_mass = Fraction(0)
        for profile in profiles:
            prob = profile_probability(mech.dist, profile)
            cheap = cheap_items(profile)
            for i in range(mech.n):
                q1, q2 = mech.q(i, profile)
                if cheap[0]:
                    q_mass += prob * q1
                if cheap[1]:
                    q_mass += prob * q2
                u_mass += prob * mech.u(i, profile)
        stats[name] = (q_mass, u_mass)
    return stats
