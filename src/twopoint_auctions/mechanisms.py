"""Construction of the revenue-optimal mechanisms as explicit tables.

A mechanism is stored as the pair (allocation table, utility table) over all
profiles of its finite type model; payments are always derived as
s_i(t) = q_i(t).t_i - u_i(t).

The dominant-strategy-optimal mechanism allocates each item through a
ranked hierarchy of buyer types, with the ranking tightening as b grows
through the intervals (a,v1), [v1,v2), [v2,v3), [v3,oo); on the middle-high
interval it additionally offers the two items as a bundle at price a+b to a
buyer whose opponents all have the lowest type.  The Bayesian-optimal
mechanism reuses the widest relevant hierarchy up to v3 and raises the
utility of a (b,b) buyer facing a one-cheap-item opponent profile, which is
exactly where it stops being dominant-strategy incentive compatible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .core import (
    AuctionSpec,
    FiniteValueDistribution,
    HierarchyScheme,
    Profile,
    Type,
    active_buyers,
    allocate_hierarchy,
    cheap_items,
    enumerate_profiles,
    profile_probability,
    rat_str,
    type_label,
)
from .formulas import breakpoints, indicator_flags

LABEL_DIC = "dic-optimal"
LABEL_BIC = "bic-optimal"

# The two-point types, named by their letters.
AA, AB, BA, BB = (0, 0), (0, 1), (1, 0), (1, 1)


@dataclass(frozen=True)
class Mechanism:
    """Full allocation and utility tables over all profiles of n buyers
    whose values are drawn from `dist`."""

    dist: FiniteValueDistribution
    label: str
    allocation: Mapping  # profile -> tuple over buyers of (q_item1, q_item2)
    utility: Mapping  # profile -> tuple over buyers of Fraction

    @property
    def n(self) -> int:
        return len(next(iter(self.allocation)))

    def q(self, i: int, profile: Profile) -> tuple[Fraction, Fraction]:
        return self.allocation[profile][i]

    def u(self, i: int, profile: Profile) -> Fraction:
        return self.utility[profile][i]

    def payment(self, i: int, profile: Profile) -> Fraction:
        q1, q2 = self.allocation[profile][i]
        x1, x2 = profile[i]
        values = self.dist.values
        return q1 * values[x1] + q2 * values[x2] - self.utility[profile][i]

    def profiles(self):
        return self.allocation.keys()


def interval_case(spec: AuctionSpec) -> int:
    """1..4 for b in (a,v1), [v1,v2), [v2,v3), [v3,oo)."""
    v = breakpoints(spec)
    if spec.b < v.v1:
        return 1
    if spec.b < v.v2:
        return 2
    if spec.b < v.v3:
        return 3
    return 4


def case_hierarchies(case: int) -> tuple[HierarchyScheme, HierarchyScheme]:
    """Per-item ranking schemes for each interval of b.

    Item 1 prefers (b,b), then (b,a), then (for low b) (a,b) and (a,a);
    item 2 is the mirror image.  Higher intervals truncate the ranking.
    """
    depth = {1: 4, 2: 3, 3: 2, 4: 2}[case]
    h1 = HierarchyScheme((BB, BA, AB, AA)[:depth])
    h2 = HierarchyScheme((BB, AB, BA, AA)[:depth])
    return h1, h2


def _is_one_cheap(others: Sequence[Type]) -> bool:
    cheap = cheap_items(others)
    return cheap[0] != cheap[1]


def _utility_table(spec: AuctionSpec, bic_exception: bool):
    """Utility of each buyer at each profile.

    Base rule (flags alpha, beta, gamma evaluated at the spec):
      (b-a) * alpha/n                 for a one-high type against all-low
      (b-a) * (alpha/n + beta)        for (b,b) against all-low
      (b-a) * gamma / (1+|active|)    for (b,b) against a 1-cheap remainder
      0                               otherwise.
    With bic_exception, the third branch becomes
      (b-a) * beta / (2*(1+|active|)).
    """
    n, a, b = spec.n, spec.a, spec.b
    f = indicator_flags(spec)
    table = {}
    for profile, _ in enumerate_profiles(n, spec.dist):
        us = []
        for i in range(n):
            others = profile[:i] + profile[i + 1 :]
            t_i = profile[i]
            if all(t == AA for t in others):
                if t_i in (AB, BA):
                    u = (b - a) * Fraction(f.alpha, n)
                elif t_i == BB:
                    u = (b - a) * (Fraction(f.alpha, n) + f.beta)
                else:
                    u = Fraction(0)
            elif t_i == BB and _is_one_cheap(others):
                k = 1 + len(active_buyers(others))
                if bic_exception:
                    u = (b - a) * Fraction(f.beta, 2 * k)
                else:
                    u = (b - a) * Fraction(f.gamma, k)
            else:
                u = Fraction(0)
            us.append(u)
        table[profile] = tuple(us)
    return table


def _hierarchy_allocation(spec, h1, h2):
    table = {}
    for profile, _ in enumerate_profiles(spec.n, spec.dist):
        shares1 = allocate_hierarchy(h1, profile)
        shares2 = allocate_hierarchy(h2, profile)
        table[profile] = tuple(zip(shares1, shares2))
    return table


def build_dic_mechanism(spec: AuctionSpec) -> Mechanism:
    """The dominant-strategy-optimal mechanism for the spec."""
    case = interval_case(spec)
    h1, h2 = case_hierarchies(case)
    allocation = _hierarchy_allocation(spec, h1, h2)
    if case == 3:
        # Bundle override: a buyer facing an all-low remainder is offered both
        # items at price a+b; only non-(a,a) types buy.  At the all-low
        # profile nobody buys and nothing is allocated.
        one = Fraction(1)
        zero = Fraction(0)
        for profile in list(allocation):
            active = active_buyers(profile)
            if len(active) <= 1:
                allocation[profile] = tuple(
                    (one, one) if i in active else (zero, zero)
                    for i in range(spec.n)
                )
    return Mechanism(
        dist=spec.dist,
        label=LABEL_DIC,
        allocation=allocation,
        utility=_utility_table(spec, bic_exception=False),
    )


def build_bic_mechanism(spec: AuctionSpec) -> Mechanism:
    """The Bayesian-optimal mechanism for the spec.

    Below v3 it runs the interval-appropriate hierarchy allocation (the
    widest ranking below v1, the three-level ranking on [v1,v3)) with the
    raised-utility exception for (b,b) buyers; from v3 on it coincides with
    the dominant-strategy mechanism.
    """
    case = interval_case(spec)
    if case == 4:
        dic = build_dic_mechanism(spec)
        return Mechanism(spec.dist, LABEL_BIC, dic.allocation, dic.utility)
    h1, h2 = case_hierarchies(1 if case == 1 else 2)
    return Mechanism(
        dist=spec.dist,
        label=LABEL_BIC,
        allocation=_hierarchy_allocation(spec, h1, h2),
        utility=_utility_table(spec, bic_exception=True),
    )


def payments(mech: Mechanism) -> dict:
    """Derived payment table: profile -> tuple over buyers."""
    return {
        profile: tuple(mech.payment(i, profile) for i in range(mech.n))
        for profile in mech.profiles()
    }


def mechanism_to_json(mech: Mechanism) -> dict:
    """Canonical JSON export of a two-point mechanism: profiles in table
    (enumeration) order, types as letters, rationals as 'num/den' strings,
    payments included."""
    n, dist = mech.n, mech.dist
    (p, _), (a, b) = dist.probs, dist.values
    pays = payments(mech)
    rows = []
    for profile in mech.profiles():
        rows.append(
            {
                "profile": [type_label(t) for t in profile],
                "probability": rat_str(profile_probability(dist, profile)),
                "allocation": [
                    [rat_str(q) for q in mech.q(i, profile)] for i in range(n)
                ],
                "utility": [rat_str(mech.u(i, profile)) for i in range(n)],
                "payment": [rat_str(pays[profile][i]) for i in range(n)],
            }
        )
    return {"spec": AuctionSpec(n, p, a, b).to_json(), "label": mech.label, "profiles": rows}
