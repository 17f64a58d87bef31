"""Construction of the revenue-optimal mechanisms as explicit tables.

A mechanism is stored as the pair (allocation table, utility table) over all
profiles of its finite type model, as integers over one common denominator;
payments are always derived as s_i(t) = q_i(t).t_i - u_i(t).

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

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as quote
from typing import Mapping, TextIO

from .core import (
    AuctionSpec,
    FiniteValueDistribution,
    HierarchyScheme,
    buyer_types,
    opponent_positions,
    profile_table,
    rat_str,
    scaled,
    type_label,
)
from .formulas import breakpoints, indicator_flags

LABEL_DIC = "dic-optimal"
LABEL_BIC = "bic-optimal"

# The two-point types, named by their letters.
AA, AB, BA, BB = (0, 0), (0, 1), (1, 0), (1, 1)


def _numerator(x, den: int) -> int:
    """x * den for a rational (or int) x whose denominator divides den."""
    return x.numerator * (den // x.denominator)


def payment_row(vals, vden, shares, utils, profile) -> tuple[int, ...]:
    """Every buyer's payment q_i.t_i - u_i over den * vden, from the share
    and utility numerators over den and the values as integers over vden."""
    return tuple(
        q1 * vals[x1] + q2 * vals[x2] - u * vden
        for (q1, q2), u, (x1, x2) in zip(shares, utils, profile)
    )


@dataclass(frozen=True)
class InterimTable:
    """Each buyer's interim utility and allocation at each of its types,
    averaged over the opponents' profiles, as integers over `scale`:
    ubar_i(t) = utility[i][t] / scale, qbar_ij(t) = allocation[i][t][j] / scale.
    """

    scale: int
    utility: tuple  # per buyer: {type: numerator}
    allocation: tuple  # per buyer: {type: (item 1 numerator, item 2 numerator)}


@dataclass(frozen=True)
class Mechanism:
    """Full allocation and utility tables over all profiles of n buyers
    whose values are drawn from `dist`, as integers over the one positive
    denominator `den`: buyer i's share of item j at profile t is
    allocation[t][i][j] / den and its utility utility[t][i] / den.
    """

    dist: FiniteValueDistribution
    label: str
    allocation: Mapping  # profile -> tuple over buyers of (q_item1, q_item2) numerators
    utility: Mapping  # profile -> tuple over buyers of utility numerators
    den: int

    @property
    def n(self) -> int:
        return len(next(iter(self.allocation)))

    def profiles(self):
        return self.allocation.keys()

    def rows(self) -> tuple[tuple, list, list]:
        """The profiles in `profile_table` order with their allocation and
        utility rows."""
        profiles = profile_table(self.n, self.dist).profiles
        return (
            profiles,
            [self.allocation[t] for t in profiles],
            [self.utility[t] for t in profiles],
        )

    @functools.cached_property
    def interim(self) -> InterimTable:
        """The interim table, built once per mechanism: each buyer's
        utility and allocation at each type, weighted by the probability of
        every opponent profile."""
        n, types = self.n, buyer_types(self.dist)
        opponents = profile_table(n - 1, self.dist)
        _, arows, urows = self.rows()
        utility, allocation = [], []
        for i in range(n):
            positions, step = opponent_positions(n, len(types), i)
            u_i, q_i = {}, {}
            for c, t in enumerate(types):
                u = q1 = q2 = 0
                for pos, w in zip(positions, opponents.weights):
                    k = pos + c * step
                    a1, a2 = arows[k][i]
                    u += w * urows[k][i]
                    q1 += w * a1
                    q2 += w * a2
                u_i[t] = u
                q_i[t] = (q1, q2)
            utility.append(u_i)
            allocation.append(q_i)
        return InterimTable(opponents.scale * self.den, tuple(utility), tuple(allocation))


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


def _common_den(spec: AuctionSpec) -> int:
    """A denominator for every share and utility of the closed-form
    mechanisms: shares are 1/k and utilities (b-a) times alpha/n, beta,
    gamma/k or beta/(2k), for k <= n."""
    return 2 * math.lcm(*range(1, spec.n + 1)) * (spec.b - spec.a).denominator


def _closed_form(
    spec: AuctionSpec, label: str, hierarchy_case: int, bundle: bool, raise_bb: bool
) -> Mechanism:
    """The closed-form mechanism as tables over den.

    The mechanism is symmetric, so a buyer's share pair and utility depend
    only on its own type and on how many opponents hold each type.  Both are
    computed once per class of profiles with the same type counts, C(n+3, 3)
    classes for 4^n profiles, and every row of a class reuses them.

    Allocation: each item goes to the buyers of the first type of its
    hierarchy (`case_hierarchies(hierarchy_case)`) that anyone holds, split
    equally.  With `bundle`, a lone active (non-(a,a)) buyer instead gets both
    items, and at the all-low profile nothing is allocated.

    Utility (flags alpha, beta, gamma evaluated at the spec):
      (b-a) * alpha/n                 for a one-high type against all-low
      (b-a) * (alpha/n + beta)        for (b,b) against all-low
      (b-a) * gamma / (1+|active|)    for (b,b) against a 1-cheap remainder
      0                               otherwise.
    With `raise_bb`, the third branch becomes
      (b-a) * beta / (2*(1+|active|)).
    """
    n, d = spec.n, spec.b - spec.a
    den = _common_den(spec)
    f = indicator_flags(spec)
    one_high = _numerator(d * Fraction(f.alpha, n), den)
    both_high = _numerator(d * (Fraction(f.alpha, n) + f.beta), den)
    # by k = 1 + |active opponents|
    one_cheap = [
        _numerator(d * (Fraction(f.beta, 2 * k) if raise_bb else Fraction(f.gamma, k)), den)
        for k in range(1, n + 1)
    ]
    h1, h2 = case_hierarchies(hierarchy_case)
    types = buyer_types(spec.dist)

    @functools.cache
    def entry(key: tuple) -> tuple[dict, dict]:
        """Share pair and utility numerator of each type present at a
        profile whose type counts are `key`."""
        count = dict(zip(types, key))
        present = [t for t in types if count[t]]
        if bundle and count[AA] >= n - 1:
            shares = {t: (0, 0) if t == AA else (den, den) for t in present}
        else:
            winners = [next((t for t in h.levels if count[t]), None) for h in (h1, h2)]
            shares = {
                t: tuple(den // count[t] if t == w else 0 for w in winners)
                for t in present
            }
        us = {}
        for t in present:
            # The opponents' type counts; item 1 (2) is cheap for them when
            # none of them values it at b.
            aa, ab, ba, bb = (c - (s == t) for s, c in zip(types, key))
            if aa == n - 1:
                us[t] = both_high if t == BB else 0 if t == AA else one_high
            elif t == BB and (ba + bb == 0) != (ab + bb == 0):
                us[t] = one_cheap[n - 1 - aa]
            else:
                us[t] = 0
        return shares, us

    allocation, utility = {}, {}
    for profile in profile_table(n, spec.dist).profiles:
        shares, us = entry(tuple(map(profile.count, types)))
        allocation[profile] = tuple(map(shares.__getitem__, profile))
        utility[profile] = tuple(map(us.__getitem__, profile))
    return Mechanism(spec.dist, label, allocation, utility, den)


def build_dic_mechanism(spec: AuctionSpec) -> Mechanism:
    """The dominant-strategy-optimal mechanism for the spec.

    On [v2,v3) a buyer facing an all-low remainder is offered both items as
    a bundle at price a+b; only non-(a,a) types buy."""
    case = interval_case(spec)
    return _closed_form(spec, LABEL_DIC, case, bundle=case == 3, raise_bb=False)


def build_bic_mechanism(spec: AuctionSpec) -> Mechanism:
    """The Bayesian-optimal mechanism for the spec.

    Below v3 it runs the interval-appropriate hierarchy allocation (the
    widest ranking below v1, the three-level ranking on [v1,v3)) with the
    raised-utility exception for (b,b) buyers; from v3 on it coincides with
    the dominant-strategy mechanism.
    """
    case = interval_case(spec)
    if case == 4:
        return _closed_form(spec, LABEL_BIC, 4, bundle=False, raise_bb=False)
    return _closed_form(spec, LABEL_BIC, 1 if case == 1 else 2, bundle=False, raise_bb=True)


# The indent-2 text of one profile row, two levels into the document.
_ROW = (
    "    {\n"
    '      "profile": [\n        %s\n      ],\n'
    '      "probability": %s,\n'
    '      "allocation": [\n        %s\n      ],\n'
    '      "utility": [\n        %s\n      ],\n'
    '      "payment": [\n        %s\n      ]\n'
    "    }"
)
_PAIR = "[\n          %s,\n          %s\n        ]"
_ITEM_SEP = ",\n        "


def _nested(value) -> str:
    """The indent-2 text of a value one level into the document.  The
    encoder escapes every newline inside a string, so each one it writes is
    layout and takes the extra indent."""
    return json.dumps(value, indent=2).replace("\n", "\n  ")


def mechanism_to_json(mech: Mechanism, checks, out: TextIO) -> None:
    """Write the canonical JSON export of a two-point mechanism to `out`:
    profiles in table (enumeration) order, types as letters, rationals as
    'num/den' strings, payments included, then `checks` when given.

    The text is exactly `json.dumps(doc, indent=2)` of the document
    {"spec", "label", "profiles", "checks"}, written row by row from the
    integer tables, so no more than one row's text is held at a time: each
    distinct numerator, allocation pair and type is quoted once, and no
    per-row dict or list is built."""
    n, dist = mech.n, mech.dist
    (p, _), (a, b) = dist.probs, dist.values
    table = profile_table(n, dist)
    vals, vden = scaled(dist.values)

    def formatter(den):
        return functools.cache(lambda x: quote(rat_str(Fraction(x, den))))

    prob_str = formatter(table.scale)
    entry_str = formatter(mech.den)
    pay_str = formatter(mech.den * vden)
    pair_str = functools.cache(lambda q: _PAIR % (entry_str(q[0]), entry_str(q[1])))
    type_str = functools.cache(lambda t: quote(type_label(t)))
    join = _ITEM_SEP.join
    write = out.write
    write('{\n  "spec": ' + _nested(AuctionSpec(n, p, a, b).to_json())
          + ',\n  "label": ' + quote(mech.label) + ',\n  "profiles": [\n')
    sep = ""
    profiles, arows, urows = mech.rows()
    for profile, w, shares, utils in zip(profiles, table.weights, arows, urows):
        write(sep)
        write(_ROW % (
            join(map(type_str, profile)),
            prob_str(w),
            join(map(pair_str, shares)),
            join(map(entry_str, utils)),
            join(map(pay_str, payment_row(vals, vden, shares, utils, profile))),
        ))
        sep = ",\n"
    write("\n  ]")
    if checks:
        write(',\n  "checks": ' + _nested(checks))
    write("\n}")
