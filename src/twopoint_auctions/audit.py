"""Exhaustive, exact verification of participation and truthfulness.

A mechanism is the pair (allocation, utility); payments are rederived here
before any check, so inconsistent (q, u, s) triples cannot arise.  Every
constraint is an exact comparison, made between integers: both sides are
multiplied by the mechanism's denominator, the lcm of the value
denominators and, for interim sums, the profile-weight scale.  Every
violation is reported with its replay key (buyer, true type, reported type,
opponent profile) and both sides of the failed inequality as Fractions.
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
    opponent_positions,
    profile_table,
    rat_str,
    scaled,
    type_label,
)
from .mechanisms import Mechanism, payment_row


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
    table = profile_table(mech.n, mech.dist)
    vals, vden = scaled(mech.dist.values)
    profiles, arows, urows = mech.rows()
    total = sum(
        w * sum(payment_row(vals, vden, shares, utils, t))
        for t, w, shares, utils in zip(profiles, table.weights, arows, urows)
    )
    return Fraction(total, table.scale * mech.den * vden)


def check_ir(mech: Mechanism) -> AuditReport:
    """u_i(t) >= 0 for every buyer and profile."""
    profiles, _, urows = mech.rows()
    violations = []
    for profile, us in zip(profiles, urows):
        if min(us) >= 0:
            continue
        for i, u in enumerate(us):
            if u < 0:
                others = profile[:i] + profile[i + 1 :]
                violations.append(
                    Violation(i, profile[i], None, others, Fraction(u, mech.den), Fraction(0))
                )
    return AuditReport("IR", not violations, tuple(violations), len(profiles) * mech.n)


def _type_pairs(dist):
    """Ordered pairs of distinct types with their type indices and the
    value differences t_true - t_rep as integers over `vden`."""
    types = buyer_types(dist)
    vals, vden = scaled(dist.values)
    pairs = [
        (a, t_true, c, t_rep,
         vals[t_true[0]] - vals[t_rep[0]], vals[t_true[1]] - vals[t_rep[1]])
        for a, t_true in enumerate(types)
        for c, t_rep in enumerate(types)
        if c != a
    ]
    return types, pairs, vden


def check_dic(mech: Mechanism) -> AuditReport:
    """u_i(t_i,t_-i) >= u_i(t'_i,t_-i) + (t_i - t'_i).q_i(t'_i,t_-i),
    over all buyers, ordered pairs of distinct types, and opponent profiles.
    """
    n = mech.n
    types, pairs, vden = _type_pairs(mech.dist)
    others_space = profile_table(n - 1, mech.dist).profiles
    _, arows, urows = mech.rows()
    scale = mech.den * vden
    violations = []
    for i in range(n):
        # both sides times den * vden
        u = [r[i] * vden for r in urows]
        q1 = [r[i][0] for r in arows]
        q2 = [r[i][1] for r in arows]
        positions, step = opponent_positions(n, len(types), i)
        for a, t_true, c, t_rep, d1, d2 in pairs:
            lhs_at = [u[pos + a * step] for pos in positions]
            for o, pos in enumerate(positions):
                k = pos + c * step
                lhs = lhs_at[o]
                rhs = u[k] + d1 * q1[k] + d2 * q2[k]
                if lhs < rhs:
                    violations.append(Violation(
                        i, t_true, t_rep, others_space[o],
                        Fraction(lhs, scale), Fraction(rhs, scale),
                    ))
    count = n * len(pairs) * len(others_space)
    return AuditReport("DIC", not violations, tuple(violations), count)


def check_bir(mech: Mechanism) -> AuditReport:
    """Interim utility of truthful participation is nonnegative."""
    interim = mech.interim
    violations = []
    for i, u_i in enumerate(interim.utility):
        for t_i, u in u_i.items():
            if u < 0:
                violations.append(Violation(
                    i, t_i, None, "averaged", Fraction(u, interim.scale), Fraction(0)
                ))
    count = mech.n * len(buyer_types(mech.dist))
    return AuditReport("BIR", not violations, tuple(violations), count)


def check_bic(mech: Mechanism) -> AuditReport:
    """ubar_i(t_i) - ubar_i(t'_i) >= (t_i - t'_i).qbar_i(t'_i) over all
    buyers and ordered pairs of distinct types."""
    interim = mech.interim
    _, pairs, vden = _type_pairs(mech.dist)
    scale = interim.scale * vden
    violations = []
    for i in range(mech.n):
        u_i, q_i = interim.utility[i], interim.allocation[i]
        for _, t_true, _, t_rep, d1, d2 in pairs:
            # both sides times the interim scale and vden
            lhs = u_i[t_true] * vden
            q1, q2 = q_i[t_rep]
            rhs = u_i[t_rep] * vden + d1 * q1 + d2 * q2
            if lhs < rhs:
                violations.append(Violation(
                    i, t_true, t_rep, "averaged", Fraction(lhs, scale), Fraction(rhs, scale)
                ))
    return AuditReport("BIC", not violations, tuple(violations), mech.n * len(pairs))


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
    table = profile_table(mech.n, mech.dist)
    weight = dict(zip(table.profiles, table.weights))
    sets = class_sets(mech.profiles())
    scale = table.scale * mech.den
    stats = {}
    for name, profiles in sets.items():
        q_mass = u_mass = 0
        for profile in profiles:
            w = weight[profile]
            cheap = cheap_items(profile)
            for (q1, q2), u in zip(mech.allocation[profile], mech.utility[profile]):
                if cheap[0]:
                    q_mass += w * q1
                if cheap[1]:
                    q_mass += w * q2
                u_mass += w * u
        stats[name] = (Fraction(q_mass, scale), Fraction(u_mass, scale))
    return stats
