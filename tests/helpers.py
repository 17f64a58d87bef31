"""Helpers shared by the test modules."""

import functools
import io
import itertools
import math
from fractions import Fraction

from dataclasses import dataclass
from typing import Sequence

from twopoint_auctions.core import (
    DEFAULT_PROFILE_CAP,
    AuctionSpec,
    class_cells,
    profile_table,
    rat_str,
    scaled,
    type_label,
)
from twopoint_auctions.formulas import indicator_flags
from twopoint_auctions.mechanisms import (
    LABEL_BIC,
    LABEL_DIC,
    Mechanism,
    _common_den,
    _numerator,
    case_hierarchies,
    interval_case,
    mechanism_to_json,
)
from twopoint_auctions.simplex import Constraint, LinearProgram, _violated

AA, AB, BA, BB = (0, 0), (0, 1), (1, 0), (1, 1)


@dataclass(frozen=True)
class ProfileClass:
    """Classification of a profile by its cheap items and active buyers.

    label is one of "S0" (the all-low profile), "S1" (one cheap item, one
    active buyer), "S2" (one cheap item, two or more active buyers), or
    "other".  active_buyers lists the 0-based buyers whose type is not the
    all-low (0,0).
    """

    label: str
    cheap_items: tuple[bool, bool]
    active_buyers: tuple[int, ...]


def cheap_items(profile: Sequence) -> tuple[bool, bool]:
    """Item j is cheap iff every buyer values it at the lowest atom."""
    return (
        all(t[0] == 0 for t in profile),
        all(t[1] == 0 for t in profile),
    )


def active_buyers(profile: Sequence) -> tuple[int, ...]:
    """Buyers whose type is not the all-low (0,0)."""
    return tuple(i for i, t in enumerate(profile) if t != (0, 0))


def classify_profile(profile: Sequence) -> ProfileClass:
    cheap = cheap_items(profile)
    active = active_buyers(profile)
    if cheap[0] and cheap[1]:
        label = "S0"
    elif cheap[0] != cheap[1]:
        label = "S1" if len(active) == 1 else "S2"
    else:
        label = "other"
    return ProfileClass(label, cheap, active)


def collapsed_two_point_spec(cspec) -> AuctionSpec:
    """The grid_m=1 discretization of a `ContinuousSpec` is exactly a
    two-point instance."""
    return AuctionSpec(
        cspec.n,
        Fraction(1, 2),
        cspec.a + Fraction(1, 2),
        cspec.lam * cspec.a + Fraction(1, 2),
    )


def enumerate_profiles(n, dist, cap=DEFAULT_PROFILE_CAP):
    """All (k^2)^n profiles in `profile_table` order (lexicographic, buyer 0
    slowest), each with its exact probability as a Fraction."""
    table = profile_table(n, dist, cap)
    return [
        (t, Fraction(w, table.scale)) for t, w in zip(table.profiles, table.weights)
    ]


def insert(others, i, t):
    """The profile in which buyer i has type t and the others keep their order."""
    return tuple(others[:i]) + (t,) + tuple(others[i:])


def payment_row(vals, vden, shares, utils, profile):
    """Every buyer's payment q_i.t_i - u_i over den * vden, from the share
    and utility numerators over den and the values as integers over vden."""
    return tuple(
        q1 * vals[x1] + q2 * vals[x2] - u * vden
        for (q1, q2), u, (x1, x2) in zip(shares, utils, profile)
    )


def mechanism_doc(mech, checks=None):
    """The mechanism export as a dict of lists, built row by row: the
    reference whose `json.dumps(..., indent=2)` text
    `mechanisms.mechanism_to_json` must reproduce byte for byte."""
    n, dist = mech.n, mech.dist
    (p, _), (a, b) = dist.probs, dist.values
    table = profile_table(n, dist)
    weight = dict(zip(table.profiles, table.weights))
    vals, vden = scaled(dist.values)

    # Each distinct numerator is reduced and printed once.
    def formatter(den):
        return functools.cache(lambda x: rat_str(Fraction(x, den)))

    prob_str = formatter(table.scale)
    entry_str = formatter(mech.den)
    pay_str = formatter(mech.den * vden)
    rows = []
    for profile, shares in mech.allocation.items():
        utils = mech.utility[profile]
        rows.append(
            {
                "profile": [type_label(t) for t in profile],
                "probability": prob_str(weight[profile]),
                "allocation": [[entry_str(q1), entry_str(q2)] for q1, q2 in shares],
                "utility": [entry_str(u) for u in utils],
                "payment": [
                    pay_str(s) for s in payment_row(vals, vden, shares, utils, profile)
                ],
            }
        )
    doc = {"spec": AuctionSpec(n, p, a, b).to_json(), "label": mech.label, "profiles": rows}
    if checks:
        doc["checks"] = checks
    return doc


def render(mech, checks=None):
    """`mechanism_to_json`'s text, written to a string."""
    out = io.StringIO()
    mechanism_to_json(mech, checks, out)
    return out.getvalue()


# ---------------------------------------------------------------------------
# Rational views of the integer tables and programs
# ---------------------------------------------------------------------------


def from_tables(dist, label, allocation, utility, den):
    """The mechanism with the given integer tables over den: `allocation`
    maps each profile to its buyers' (q1, q2) numerators and `utility` to
    their utility numerators.  Every profile of the type model must be a
    key, and the tables must be a function of the type-count cell: every
    buyer that holds one cell (`class_cells`) at some profile holds the same
    entries there.  ValueError otherwise."""
    profiles = profile_table(len(next(iter(allocation))), dist).profiles
    if set(allocation) != set(profiles) or set(utility) != set(profiles):
        raise ValueError("the tables do not cover the profiles exactly")
    n, n_types = len(profiles[0]), len(dist.values) ** 2
    keys, cells = class_cells(n, n_types)
    entries = {}
    for pos, t in enumerate(profiles):
        for i, (shares, u) in enumerate(zip(allocation[t], utility[t])):
            if entries.setdefault(cells[i][pos], (*shares, u)) != (*shares, u):
                raise ValueError(f"the tables differ within the cell of buyer {i} at {t}")
    tables = [[0] * (len(keys) * n_types) for _ in range(3)]
    for x, row in entries.items():
        for table, value in zip(tables, row):
            table[x] = value
    return Mechanism(n, dist, label, den, *map(tuple, tables))


def cell_tables(n, dist, draw):
    """Allocation and utility tables by profile that are a function of the
    type-count cell: `draw()` gives a cell's (share pair, utility) when the
    cell is first met, in profile and then buyer order."""
    _, cells = class_cells(n, len(dist.values) ** 2)
    drawn = {}
    allocation, utility = {}, {}
    for pos, t in enumerate(profile_table(n, dist).profiles):
        row = []
        for buyer_cells in cells:
            x = buyer_cells[pos]
            if x not in drawn:
                drawn[x] = draw()
            row.append(drawn[x])
        allocation[t] = tuple(shares for shares, _ in row)
        utility[t] = tuple(u for _, u in row)
    return allocation, utility


def from_rationals(dist, label, allocation, utility):
    """The mechanism with the given tables of rationals, stored over the
    lcm of their denominators."""
    den = math.lcm(
        *(q.denominator for shares in allocation.values() for q_i in shares for q in q_i),
        *(u.denominator for us in utility.values() for u in us),
    )
    return from_tables(
        dist,
        label,
        {t: tuple((_numerator(q1, den), _numerator(q2, den)) for q1, q2 in shares)
         for t, shares in allocation.items()},
        {t: tuple(_numerator(u, den) for u in us) for t, us in utility.items()},
        den,
    )


def q_of(mech, i, profile):
    """Buyer i's shares of the two items at the profile."""
    q1, q2 = mech.allocation[profile][i]
    return Fraction(q1, mech.den), Fraction(q2, mech.den)


def u_of(mech, i, profile):
    """Buyer i's utility at the profile."""
    return Fraction(mech.utility[profile][i], mech.den)


def payment_of(mech, i, profile):
    """Buyer i's payment q_i.t_i - u_i at the profile."""
    vals, vden = scaled(mech.dist.values)
    row = payment_row(vals, vden, mech.allocation[profile], mech.utility[profile], profile)
    return Fraction(row[i], mech.den * vden)


def payments(mech):
    """Derived payment table: profile -> tuple over buyers."""
    vals, vden = scaled(mech.dist.values)
    scale = mech.den * vden
    return {
        t: tuple(
            Fraction(s, scale)
            for s in payment_row(vals, vden, shares, mech.utility[t], t)
        )
        for t, shares in mech.allocation.items()
    }


def interim_u(table, i, t):
    """Buyer i's interim utility at type t: every buyer reads the one
    table."""
    return Fraction(table.utility[t], table.scale)


def interim_q(table, i, t):
    """Buyer i's interim shares of the two items at type t."""
    q1, q2 = table.allocation[t]
    return Fraction(q1, table.scale), Fraction(q2, table.scale)


def make_constraint(index, coeffs, rel, rhs, tag=""):
    """The integer row of sum(c * v for v, c in coeffs.items()) rel rhs, for
    rational coefficients keyed by variable: columns from `index`
    (variable -> column), zeros left out, over the lcm of the denominators."""
    coeffs = {index[v]: Fraction(c) for v, c in coeffs.items() if c != 0}
    rhs = Fraction(rhs)
    scale = math.lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
    return Constraint(
        tuple((j, _numerator(c, scale)) for j, c in coeffs.items()),
        rel, _numerator(rhs, scale), scale, tag,
    )


def make_lp(variables, objective, rows, nonneg=()):
    """The integer program of a rational one: `objective` maps variables to
    coefficients, each row is (coeffs, rel, rhs) or (coeffs, rel, rhs, tag)
    and `nonneg` names variables."""
    index = {v: j for j, v in enumerate(variables)}
    objective = {index[v]: Fraction(c) for v, c in objective.items() if c != 0}
    obj_scale = math.lcm(*(c.denominator for c in objective.values()))
    return LinearProgram(
        list(variables),
        {j: _numerator(c, obj_scale) for j, c in objective.items()},
        obj_scale,
        [make_constraint(index, *row) for row in rows],
        {index[v] for v in nonneg},
    )


def n_constraints(lp, tag=None):
    """The number of the program's rows, or of those tagged `tag`."""
    return sum(1 for c in lp.constraints if tag is None or c.tag == tag)


def tag_pool(lp, tags):
    """The program without its rows tagged `tags`, and a separator for
    `simplex.solve` over those rows: at each primal, the withheld rows it
    violates, in program order, each returned once."""
    pool = [c for c in lp.constraints if c.tag in tags]
    kept = LinearProgram(lp.variables, lp.objective, lp.obj_scale,
                         [c for c in lp.constraints if c.tag not in tags], lp.nonneg)

    def separate(x, X):
        violated = [c for c in pool if _violated(c, x, X)]
        pool[:] = [c for c in pool if not _violated(c, x, X)]
        return violated

    return kept, separate


def _canonical(t, i, swap):
    """Buyer i's type first and the others' sorted behind it, with the two
    items swapped if asked."""
    if swap:
        t = tuple((x2, x1) for x1, x2 in t)
    return (t[i],) + tuple(sorted(t[:i] + t[i + 1 :]))


def representative(v):
    """The least member of a variable's orbit under reorderings of the
    buyers and the item swap: the reference for the symmetric program's
    column names.

    The least image moves the variable's buyer to 0 and sorts the other
    buyers' types; an allocation variable takes the swap that makes its item
    0, a utility variable whichever swap gives the smaller profile.
    """
    if v[0] == "q":
        _, i, j, t = v
        return ("q", 0, 0, _canonical(t, i, j == 1))
    _, i, t = v
    return ("u", 0, min(_canonical(t, i, False), _canonical(t, i, True)))


def interim_representative(v):
    """The column of a variable in the symmetric Bayesian program: an
    allocation's orbit representative, and for a utility, full or of a
    cell orbit, the type orbit of its buyer's type, ("U", 0, the smaller of
    the type and its item swap)."""
    if v[0] == "q":
        return representative(v)
    _, i, t = v
    return ("U", 0, min(t[i], t[i][::-1]))


def full_variables(n, n_atoms):
    """The full program's variables for n buyers over k atoms, in its
    order: q[i,j,t] (profile, buyer, item order), then u[i,t] (profile,
    buyer order)."""
    types = itertools.product(range(n_atoms), repeat=2)
    profiles = list(itertools.product(types, repeat=n))
    return ([("q", i, j, t) for t in profiles for i in range(n) for j in range(2)]
            + [("u", i, t) for t in profiles for i in range(n)])


def reference_columns(n, n_atoms):
    """The reference for `oracle._columns`: each full variable's orbit id,
    the representatives numbered in order of first appearance, and the
    representatives in that order."""
    index = {}
    orbit = tuple(index.setdefault(representative(v), len(index))
                  for v in full_variables(n, n_atoms))
    return orbit, tuple(index)


def full_assignment(n, dist, sol):
    """The full program's Fraction assignment of a symmetric solution:
    every variable takes its representative's value, a utility its type's
    interim value if the solution is of the Bayesian program."""
    assignment = sol.assignment
    rep = interim_representative if sol.variables[-1][0] == "U" else representative
    return {v: assignment[rep(v)] for v in full_variables(n, len(dist.values))}


def extract_from_assignment(dist, assignment, label="custom"):
    """The mechanism of a full Fraction assignment, through
    `from_rationals`: the reference for `oracle.extract_mechanism`."""
    profiles = list(dict.fromkeys(v[-1] for v in assignment))
    n = len(profiles[0])
    allocation = {
        t: tuple((assignment[("q", i, 0, t)], assignment[("q", i, 1, t)]) for i in range(n))
        for t in profiles
    }
    utility = {t: tuple(assignment[("u", i, t)] for i in range(n)) for t in profiles}
    return from_rationals(dist, label, allocation, utility)


def hierarchy_winners(scheme, profile):
    """The buyers of minimum rank in the scheme, who split the item
    equally; none when no buyer's type is ranked."""
    ranks = [scheme.levels.index(t) if t in scheme.levels else None for t in profile]
    finite = [r for r in ranks if r is not None]
    if not finite:
        return []
    best = min(finite)
    return [i for i, r in enumerate(ranks) if r == best]


def _reference_tables(spec, hierarchy_case, bundle, raise_bb):
    """The closed-form allocation and utility tables, built buyer by buyer
    and profile by profile from the paper's rules: the reference for the
    count-keyed builders in `mechanisms`."""
    n, d = spec.n, spec.b - spec.a
    den = _common_den(spec)

    def num(x):
        x = Fraction(x) * den
        if x.denominator != 1:
            raise ValueError(f"{x / den} is not a multiple of 1/{den}")
        return x.numerator

    f = indicator_flags(spec)
    one_high = num(d * Fraction(f.alpha, n))
    both_high = num(d * (Fraction(f.alpha, n) + f.beta))
    # by k = 1 + |active opponents|
    one_cheap = [
        num(d * (Fraction(f.beta, 2 * k) if raise_bb else Fraction(f.gamma, k)))
        for k in range(1, n + 1)
    ]
    h1, h2 = case_hierarchies(hierarchy_case)
    allocation, utility = {}, {}
    for profile in profile_table(n, spec.dist).profiles:
        active = active_buyers(profile)
        if bundle and len(active) <= 1:
            # A lone active buyer takes both items as a bundle.
            shares = tuple((den, den) if i in active else (0, 0) for i in range(n))
        else:
            w1 = hierarchy_winners(h1, profile)
            w2 = hierarchy_winners(h2, profile)
            shares = tuple(
                (den // len(w1) if i in w1 else 0, den // len(w2) if i in w2 else 0)
                for i in range(n)
            )
        us = []
        for i, t_i in enumerate(profile):
            others = profile[:i] + profile[i + 1:]
            cheap = cheap_items(others)
            if all(t == AA for t in others):
                if t_i in (AB, BA):
                    u = one_high
                elif t_i == BB:
                    u = both_high
                else:
                    u = 0
            elif t_i == BB and cheap[0] != cheap[1]:
                u = one_cheap[len(active_buyers(others))]
            else:
                u = 0
            us.append(u)
        allocation[profile] = shares
        utility[profile] = tuple(us)
    return allocation, utility, den


def reference_dic_mechanism(spec):
    """`build_dic_mechanism`, built profile by profile."""
    case = interval_case(spec)
    allocation, utility, den = _reference_tables(spec, case, case == 3, False)
    return from_tables(spec.dist, LABEL_DIC, allocation, utility, den)


def reference_bic_mechanism(spec):
    """`build_bic_mechanism`, built profile by profile."""
    case = interval_case(spec)
    if case == 4:
        allocation, utility, den = _reference_tables(spec, 4, False, False)
    else:
        allocation, utility, den = _reference_tables(
            spec, 1 if case == 1 else 2, False, True
        )
    return from_tables(spec.dist, LABEL_BIC, allocation, utility, den)


def reference_pivot(tab, r, s):
    """`simplex._Tableau.pivot` as first written: every row holding column
    s is copied whole over the denominator dens[i] * den, the pivot row is
    subtracted, and the row is divided by its gcd."""

    def reduced(row, den):
        g = math.gcd(den, *row.values())
        return {j: x // g for j, x in row.items()}, den // g

    rows, dens = tab.rows, tab.dens
    piv = rows[r][s]
    sign = 1 if piv > 0 else -1
    rows[r], dens[r] = reduced({j: sign * x for j, x in rows[r].items()}, abs(piv))
    row, den = rows[r], dens[r]
    for i, other in enumerate(rows):
        a = other.get(s)
        if a is None or i == r:
            continue
        new = {j: x * den for j, x in other.items()}
        for j, x in row.items():
            y = new.get(j, 0) - a * x
            if y:
                new[j] = y
            else:
                del new[j]
        rows[i], dens[i] = reduced(new, dens[i] * den)


# ---------------------------------------------------------------------------
# Class mass statistics
# ---------------------------------------------------------------------------


def _bump(profile, i, item):
    """Raise buyer i's value for `item` to atom 1 (the high value b)."""
    x1, x2 = profile[i]
    t2 = (1, x2) if item == 0 else (x1, 1)
    return profile[:i] + (t2,) + profile[i + 1 :]


def class_sets(profiles):
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


def qu_statistics(mech):
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
