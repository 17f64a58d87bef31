"""Exhaustive, exact verification of participation and truthfulness.

A mechanism is a set of integer tables over the type-count cells (shares
of each item and utility); payments are rederived here before any check,
so inconsistent (q, u, s) triples cannot arise.  Every constraint is an
exact comparison, made between integers: both sides are multiplied by the
mechanism's denominator, the lcm of the value denominators and, for interim
sums, the profile-weight scale.

The audits run over the cells, and they are exact, not a sample.  A
buyer's participation constraint at a profile reads one cell, so IR is
checked once per cell.  Its truthfulness constraint for one ordered type
pair against one opponent profile reads the cells it holds at its true and
at its reported type against the opponents' class (`opponent_cells`), the
same for every buyer and every opponent profile of that class, so DIC is
checked once per (opponent class, type pair).  Every buyer shares one
interim table, so BIR is checked once per type and BIC once per type
pair.  Each audit counts its constraints by arithmetic, and
`violation_count` counts a failing audit's violations the same way.  Only
a check that fails is walked by buyer and profile to report its
violations, so the reports list every violating (buyer, profile, type
pair) in enumeration order.  Every
violation carries its replay key (buyer, true type, reported type,
opponent profile) and both sides of the failed inequality as Fractions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    Type,
    buyer_types,
    class_sizes,
    opponent_cells,
    profile_classes,
    profile_table,
    rat_str,
    scaled,
    type_label,
    type_pairs,
    value_differences,
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
    """n times the sum over types t of pi(t) * (t.qbar(t) - ubar(t)), from
    the interim table that every buyer shares: the expectation, over every
    profile, of the total derived payment."""
    interim = mech.interim
    probs, pden = scaled(mech.dist.probs)
    vals, vden = scaled(mech.dist.values)
    total = 0
    for (x1, x2), (q1, q2) in interim.allocation.items():
        total += probs[x1] * probs[x2] * (
            q1 * vals[x1] + q2 * vals[x2] - interim.utility[x1, x2] * vden)
    return Fraction(mech.n * total, pden * pden * interim.scale * vden)


def check_ir(mech: Mechanism) -> AuditReport:
    """u_i(t) >= 0 for every buyer and profile, checked once per cell."""
    violations = []
    if min(mech.u) < 0:
        table = profile_table(mech.n, mech.dist)
        for profile, *cells in zip(table.profiles, *table.cells):
            for i, x in enumerate(cells):
                u = mech.u[x]
                if u < 0:
                    others = profile[:i] + profile[i + 1 :]
                    violations.append(Violation(
                        i, profile[i], None, others, Fraction(u, mech.den), Fraction(0)
                    ))
    return AuditReport("IR", not violations, tuple(violations), mech.n_types ** mech.n * mech.n)


def _type_pairs(dist):
    """Ordered pairs of distinct types (`type_pairs` order) with their type
    indices and the value differences t_true - t_rep as integers over
    `vden` (`value_differences`)."""
    types = buyer_types(dist)
    diffs, vden = value_differences(dist)
    pairs = [(x, types[x], y, types[y], *d)
             for (x, y), d in zip(type_pairs(len(dist.values)), diffs)]
    return types, pairs, vden


def _dic_failures(mech: Mechanism) -> list:
    """Per type pair (`_type_pairs` order), its failing opponent classes
    (`opponent_cells` order), each with the two sides as Fractions.

    Both sides are taken times den * vden.  The two sides of one
    constraint read the cells at the true and the reported type against
    the opponents' class, so each (opponent class, type pair) is compared
    once."""
    q1, q2, u = mech.q1, mech.q2, mech.u
    types, pairs, vden = _type_pairs(mech.dist)
    at = opponent_cells(mech.n, len(types))
    scale = mech.den * vden
    found = []
    for a, _, c, _, d1, d2 in pairs:
        failed = {}
        for k, cells in enumerate(at):
            x, y = cells[a], cells[c]
            lhs = u[x] * vden
            rhs = u[y] * vden + d1 * q1[y] + d2 * q2[y]
            if lhs < rhs:
                failed[k] = Fraction(lhs, scale), Fraction(rhs, scale)
        found.append(failed)
    return found


def check_dic(mech: Mechanism) -> AuditReport:
    """u_i(t_i,t_-i) >= u_i(t'_i,t_-i) + (t_i - t'_i).q_i(t'_i,t_-i),
    over all buyers, ordered pairs of distinct types, and opponent profiles.

    Each (opponent class, type pair) is compared once (`_dic_failures`);
    the failures are then listed for every buyer and every opponent
    profile of a failing class.  The opponent profiles' positions are
    indexed by class once, each profile's class read from the cell that
    its first buyer holds in the n - 1 buyers' table, and a type pair
    lists the positions of its failing classes merged in profile order.
    With one buyer the only opponent profile is the empty one, class 0."""
    n = mech.n
    types, pairs, _ = _type_pairs(mech.dist)
    found = _dic_failures(mech)
    listed = []
    if any(found):
        table, n_types = profile_table(n - 1, mech.dist), len(types)
        classes = [x // n_types for x in table.cells[0]] if n > 1 else [0]
        positions = {}
        for pos, k in enumerate(classes):
            positions.setdefault(k, []).append(pos)
        listed = [
            (t_true, t_rep, table.profiles[pos], failed[classes[pos]])
            for (_, t_true, _, t_rep, _, _), failed in zip(pairs, found)
            for pos in sorted(itertools.chain.from_iterable(map(positions.get, failed)))
        ]
    violations = tuple(Violation(i, t_true, t_rep, others, *sides)
                       for i in range(n) for t_true, t_rep, others, sides in listed)
    count = n * len(pairs) * len(types) ** (n - 1)
    return AuditReport("DIC", not violations, violations, count)


def check_bir(mech: Mechanism) -> AuditReport:
    """Interim utility of truthful participation is nonnegative, checked
    once per type and listed for every buyer."""
    interim = mech.interim
    failed = [(t, Fraction(u, interim.scale)) for t, u in interim.utility.items() if u < 0]
    violations = tuple(Violation(i, t, None, "averaged", u, Fraction(0))
                       for i in range(mech.n) for t, u in failed)
    return AuditReport("BIR", not violations, violations, mech.n * mech.n_types)


def check_bic(mech: Mechanism) -> AuditReport:
    """ubar_i(t_i) - ubar_i(t'_i) >= (t_i - t'_i).qbar_i(t'_i) over all
    buyers and ordered pairs of distinct types, checked once per pair and
    listed for every buyer."""
    interim = mech.interim
    u, q = interim.utility, interim.allocation
    _, pairs, vden = _type_pairs(mech.dist)
    scale = interim.scale * vden
    failed = []
    for _, t_true, _, t_rep, d1, d2 in pairs:
        # both sides times the interim scale and vden
        lhs = u[t_true] * vden
        q1, q2 = q[t_rep]
        rhs = u[t_rep] * vden + d1 * q1 + d2 * q2
        if lhs < rhs:
            failed.append((t_true, t_rep, Fraction(lhs, scale), Fraction(rhs, scale)))
    violations = tuple(Violation(i, t_true, t_rep, "averaged", lhs, rhs)
                       for i in range(mech.n) for t_true, t_rep, lhs, rhs in failed)
    return AuditReport("BIC", not violations, violations, mech.n * len(pairs))


def violation_count(mech: Mechanism, condition: str) -> int:
    """The number of violations that the audit of `condition` (IR, DIC,
    BIR or BIC) lists, read from its failing cells or opponent classes
    without the walk over the profiles: a failing DIC (opponent class,
    type pair) fails once per buyer and opponent profile of the class.
    The interim audits read no profile, so their lists are counted."""
    n, n_types = mech.n, mech.n_types
    if condition == "IR":
        # A cell fails for the buyers holding it at each profile of its class.
        keys, sizes = profile_classes(n, n_types), class_sizes(n, n_types)
        return sum(keys[x // n_types][x % n_types] * sizes[x // n_types]
                   for x, u in enumerate(mech.u) if u < 0)
    if condition == "DIC":
        sizes = class_sizes(n - 1, n_types)
        return n * sum(sizes[k] for failed in _dic_failures(mech) for k in failed)
    return len((check_bir if condition == "BIR" else check_bic)(mech).violations)
