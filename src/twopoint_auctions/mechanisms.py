"""Construction of the revenue-optimal mechanisms as integer cell tables.

Every mechanism here is symmetric across buyers and items: a buyer's
shares and utility depend only on its own type and on how many buyers hold
each type.  A mechanism is therefore stored once per type-count cell
(the profile's class and the buyer's own type) as three tables, the share
of item 1, the share of item 2 and the utility, integers over one common
denominator.  Every consumer (the audits, the interim table, the export
and the LP certificate) reads the cells; a reader by profile finds each
buyer's cell in `ProfileTable.cells`.  Payments are always derived as
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

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii as quote
from typing import TextIO

from .core import (
    AuctionSpec,
    FiniteValueDistribution,
    buyer_types,
    class_weights,
    opponent_cells,
    profile_classes,
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


@dataclass(frozen=True)
class InterimTable:
    """A buyer's interim utility and allocation at each of its types,
    averaged over the opponents' profiles, as integers over `scale`:
    ubar_i(t) = utility[t] / scale, qbar_ij(t) = allocation[t][j] / scale.
    The mechanism is symmetric, so every buyer has this one table.
    """

    scale: int
    utility: dict  # {type: numerator}
    allocation: dict  # {type: (item 1 numerator, item 2 numerator)}


@dataclass(frozen=True)
class Mechanism:
    """A symmetric mechanism for n buyers whose values are drawn from
    `dist`, as three integer tables over the type-count cells of
    `ProfileTable.cells` and the one positive denominator `den`: a buyer at
    cell x gets the share q1[x] / den of item 1 and q2[x] / den of item 2,
    and has utility u[x] / den.  Cells that no profile holds are 0.
    """

    n: int
    dist: FiniteValueDistribution
    label: str
    den: int
    q1: tuple
    q2: tuple
    u: tuple

    def __post_init__(self):
        size = len(profile_classes(self.n, self.n_types)) * self.n_types
        if not len(self.q1) == len(self.q2) == len(self.u) == size:
            raise ValueError(f"a mechanism of {self.n} buyers has {size} cells")

    @property
    def n_types(self) -> int:
        """The number of buyer types: the atoms squared."""
        return len(self.dist.values) ** 2

    @functools.cached_property
    def interim(self) -> InterimTable:
        """The interim table, built once per mechanism: a buyer's utility
        and allocation at each type, weighted by the probability of every
        opponent profile.  Every buyer holds one cell against all opponent
        profiles of one class (`opponent_cells`), so the sums run over the
        classes, each weighted by its profiles' total weight
        (`class_weights`), and every buyer's table is the same."""
        types = buyer_types(self.dist)
        mass, scale = class_weights(self.n - 1, self.dist.probs)
        at = opponent_cells(self.n, len(types))

        def mean(table, x):
            return sum(w * table[cells[x]] for w, cells in zip(mass, at))

        utility = {t: mean(self.u, x) for x, t in enumerate(types)}
        allocation = {t: (mean(self.q1, x), mean(self.q2, x)) for x, t in enumerate(types)}
        return InterimTable(scale * self.den, utility, allocation)


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


def case_hierarchies(case: int) -> tuple[tuple, tuple]:
    """Per-item rankings of buyer types for each interval of b, highest
    rank first.  The first ranked type that a profile holds wins the item,
    and its buyers split it equally; unranked types never get it.

    Item 1 prefers (b,b), then (b,a), then (for low b) (a,b) and (a,a);
    item 2 is the mirror image.  Higher intervals truncate the ranking.
    """
    depth = {1: 4, 2: 3, 3: 2, 4: 2}[case]
    return (BB, BA, AB, AA)[:depth], (BB, AB, BA, AA)[:depth]


def _common_den(spec: AuctionSpec) -> int:
    """A denominator for every share and utility of the closed-form
    mechanisms: shares are 1/k and utilities (b-a) times alpha/n, beta,
    gamma/k or beta/(2k), for k <= n."""
    return 2 * math.lcm(*range(1, spec.n + 1)) * (spec.b - spec.a).denominator


def _closed_form(
    spec: AuctionSpec, label: str, hierarchy_case: int, bundle: bool, raise_bb: bool
) -> Mechanism:
    """The closed-form mechanism as cell tables over den.

    The mechanism is symmetric, so a buyer's share pair and utility depend
    only on its own type and on how many opponents hold each type.  Both are
    computed once per type-count cell, a class of profiles with the
    same type counts (C(n+3, 3) classes for 4^n profiles) and an own type.
    The symmetric auction LP numbers its columns by the same cells.

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
    keys = profile_classes(n, len(types))
    # Share pairs and utility numerators by class * 4 + own type index.
    q1s, q2s, us = ([0] * (len(keys) * len(types)) for _ in range(3))
    for k, key in enumerate(keys):
        count = dict(zip(types, key))
        winners = [next((t for t in h if count[t]), None) for h in (h1, h2)]
        for c, t in enumerate(types):
            if not count[t]:
                continue
            x = k * len(types) + c
            if bundle and count[AA] >= n - 1:
                q1s[x] = q2s[x] = 0 if t == AA else den
            else:
                q1s[x], q2s[x] = (den // count[t] if t == w else 0 for w in winners)
            # The opponents' type counts; item 1 (2) is cheap for them when
            # none of them values it at b.
            aa, ab, ba, bb = (m - (s == t) for s, m in zip(types, key))
            if aa == n - 1:
                us[x] = both_high if t == BB else 0 if t == AA else one_high
            elif t == BB and (ba + bb == 0) != (ab + bb == 0):
                us[x] = one_cheap[n - 1 - aa]
    return Mechanism(n, spec.dist, label, den, tuple(q1s), tuple(q2s), tuple(us))


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


_LITERALS = {True: "true", False: "false", None: "null"}


def _nested(value, indent: str = "  ") -> str:
    """The text `json.dumps(value, indent=2)` gives a value whose line is
    indented by `indent`.  A dict or list is its items' texts joined, and
    only floats and empty containers go through the encoder: its indent-2
    mode is the pure-Python one, several times slower on the violation
    lists of a check suite."""
    kind = type(value)
    if kind is str:
        return quote(value)
    if kind is int:
        return str(value)
    if kind is bool or value is None:
        return _LITERALS[value]
    if kind is dict and value:
        inner = indent + "  "
        items = [inner + quote(k) + ": " + _nested(v, inner) for k, v in value.items()]
    elif kind in (list, tuple) and value:
        inner = indent + "  "
        items = [inner + _nested(v, inner) for v in value]
    else:
        return json.dumps(value)
    brackets = "{}" if kind is dict else "[]"
    return brackets[0] + "\n" + ",\n".join(items) + "\n" + indent + brackets[1]


def mechanism_to_json(mech: Mechanism, checks, out: TextIO) -> None:
    """Write the canonical JSON export of a two-point mechanism to `out`:
    profiles in table (enumeration) order, types as letters, rationals as
    'num/den' strings, payments included, then `checks` when given.

    The text is exactly `json.dumps(doc, indent=2)` of the document
    {"spec", "label", "profiles", "checks"}, written row by row, so no more
    than one row's text is held at a time.  A buyer's texts at a profile
    depend only on its cell: each cell's type, shares and utility are
    quoted, and its payment q.t - u computed, once, and each buyer's cells
    (`ProfileTable.cells`) are read through that table.  The profile cap
    refuses an instance before anything is written."""
    n, dist = mech.n, mech.dist
    (p, _), (a, b) = dist.probs, dist.values
    table = profile_table(n, dist)
    types = buyer_types(dist)
    vals, vden = scaled(dist.values)
    prob_str = functools.cache(lambda w: quote(rat_str(Fraction(w, table.scale))))

    def entry_str(x):
        return quote(rat_str(Fraction(x, mech.den)))

    def texts(x, q1, q2, u):
        """The texts of a buyer at cell x: type, share pair, utility and
        payment."""
        t1, t2 = types[x % len(types)]
        payment = Fraction(q1 * vals[t1] + q2 * vals[t2] - u * vden, mech.den * vden)
        return (quote(type_label((t1, t2))), _PAIR % (entry_str(q1), entry_str(q2)),
                entry_str(u), quote(rat_str(payment)))

    cell_texts = list(map(texts, itertools.count(), mech.q1, mech.q2, mech.u))
    join = _ITEM_SEP.join
    write = out.write
    write('{\n  "spec": ' + _nested(AuctionSpec(n, p, a, b).to_json())
          + ',\n  "label": ' + quote(mech.label) + ',\n  "profiles": [\n')
    buyers = [map(cell_texts.__getitem__, cells) for cells in table.cells]
    sep = ""
    for w, row in zip(table.weights, zip(*buyers)):
        profile, shares, utils, pays = zip(*row)
        write(sep)
        write(_ROW % (join(profile), prob_str(w), join(shares), join(utils), join(pays)))
        sep = ",\n"
    write("\n  ]")
    if checks:
        write(',\n  "checks": ' + _nested(checks))
    write("\n}")
