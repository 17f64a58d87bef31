"""Brute-force LP certification of the optimal revenues.

The oracle knows nothing about the closed forms: it maximizes expected
payment over *all* feasible allocation/utility tables, subject to either the
per-profile truthfulness constraints (dominant-strategy program) or the
interim ones (Bayesian program), and reports the exact optimum.  Agreement
with the formula module is then an exact rational equality test.

Builders work over any finite per-item value distribution shared by all
buyers and both items; the two-point family is the special case with two
atoms.  Because the distribution is exchangeable across buyers and items,
every program here is invariant under the buyer/item symmetry group, and
averaging any optimum over that group gives a symmetric one (Daskalakis &
Weinberg, EC 2012).  Every program is therefore solved with one variable
per orbit.  The reduction is itself validated: the test suite asserts its
optima equal (exactly) those of the full program solved directly, and every
expanded solution is re-verified against the full constraint set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import (
    AuctionSpec,
    CapExceeded,
    FiniteValueDistribution,
    buyer_types,
    enumerate_profiles,
    insert,
    rat_str,
)
from .formulas import revenue_bic, revenue_dic
from .mechanisms import Mechanism
from .simplex import LinearProgram, LPSolution, make_constraint, solve

#: LP-oracle ceiling: exhaustive programs are kept desk-scale.
DEFAULT_LP_PROFILE_CAP = 4 ** 4

#: Programs with more per-profile truthfulness rows than this generate the
#: non-local ones lazily.
LAZY_THRESHOLD = 1500


def build_auction_lp(
    n: int,
    dist: FiniteValueDistribution,
    regime: str,
    max_profiles: int = DEFAULT_LP_PROFILE_CAP,
) -> LinearProgram:
    """The revenue-maximization LP over full (q, u) tables.

    Variables: q[i,j,t] (allocation, nonnegative) and u[i,t] (utility, free)
    for every buyer i, item j, profile t.  Objective: expected payment
    sum_t Pr{t} sum_i (t_i . q_i(t) - u_i(t)).  Rows: per-item supply at
    every profile; then either per-profile participation ('ir') and
    truthfulness ('dic') rows, or their interim counterparts ('bir', 'bic').
    """
    if regime not in ("dic", "bic"):
        raise ValueError("regime must be 'dic' or 'bic'")
    types = buyer_types(dist)
    n_profiles = len(types) ** n
    if n_profiles > max_profiles:
        raise CapExceeded(
            f"instance too large for exhaustive mode: {n_profiles} profiles "
            f"exceeds the LP cap of {max_profiles}"
        )
    weighted = enumerate_profiles(n, dist, max_profiles)
    profiles = [t for t, _ in weighted]

    q_vars = [
        ("q", i, j, t) for t in profiles for i in range(n) for j in range(2)
    ]
    u_vars = [("u", i, t) for t in profiles for i in range(n)]
    variables = q_vars + u_vars

    objective = {}
    for t, prob in weighted:
        for i in range(n):
            for j in range(2):
                objective[("q", i, j, t)] = prob * dist.values[t[i][j]]
            objective[("u", i, t)] = -prob
    constraints = []
    for t in profiles:
        for j in range(2):
            constraints.append(
                make_constraint(
                    {("q", i, j, t): Fraction(1) for i in range(n)},
                    "<=",
                    1,
                    tag="supply",
                )
            )

    others_space = enumerate_profiles(n - 1, dist)

    if regime == "dic":
        for t in profiles:
            for i in range(n):
                constraints.append(
                    make_constraint({("u", i, t): Fraction(1)}, ">=", 0, tag="ir")
                )
        for i in range(n):
            for t_true in types:
                for t_rep in types:
                    if t_rep == t_true:
                        continue
                    dv = [dist.values[x] - dist.values[y] for x, y in zip(t_true, t_rep)]
                    # One-step misreports along a single coordinate tend to
                    # be the binding rows; tag them so lazy solving can keep
                    # them in the model from the start.
                    adjacent = sorted(
                        (abs(t_true[0] - t_rep[0]), abs(t_true[1] - t_rep[1]))
                    ) == [0, 1]
                    tag = "dic_local" if adjacent else "dic"
                    for others, _ in others_space:
                        truthful = insert(others, i, t_true)
                        deviated = insert(others, i, t_rep)
                        coeffs = {
                            ("u", i, truthful): Fraction(1),
                            ("u", i, deviated): Fraction(-1),
                        }
                        for j in range(2):
                            if dv[j] != 0:
                                coeffs[("q", i, j, deviated)] = -dv[j]
                        constraints.append(
                            make_constraint(coeffs, ">=", 0, tag=tag)
                        )
    else:
        for i in range(n):
            for t_i in types:
                coeffs = {("u", i, insert(o, i, t_i)): w for o, w in others_space}
                constraints.append(make_constraint(coeffs, ">=", 0, tag="bir"))
        for i in range(n):
            for t_true in types:
                for t_rep in types:
                    if t_rep == t_true:
                        continue
                    dv = [dist.values[x] - dist.values[y] for x, y in zip(t_true, t_rep)]
                    coeffs = {}
                    for o, w in others_space:
                        truthful = insert(o, i, t_true)
                        deviated = insert(o, i, t_rep)
                        coeffs[("u", i, truthful)] = (
                            coeffs.get(("u", i, truthful), Fraction(0)) + w
                        )
                        coeffs[("u", i, deviated)] = (
                            coeffs.get(("u", i, deviated), Fraction(0)) - w
                        )
                        for j in range(2):
                            if dv[j] != 0:
                                key = ("q", i, j, deviated)
                                coeffs[key] = coeffs.get(key, Fraction(0)) - w * dv[j]
                    constraints.append(make_constraint(coeffs, ">=", 0, tag="bic"))

    lp = LinearProgram(
        variables=variables,
        objective=objective,
        constraints=constraints,
        nonneg=set(q_vars),
    )
    return lp.validate()


def build_dic_lp(spec: AuctionSpec, max_profiles: int = DEFAULT_LP_PROFILE_CAP):
    return build_auction_lp(spec.n, spec.dist, "dic", max_profiles)


def build_bic_lp(spec: AuctionSpec, max_profiles: int = DEFAULT_LP_PROFILE_CAP):
    return build_auction_lp(spec.n, spec.dist, "bic", max_profiles)


# ---------------------------------------------------------------------------
# Buyer/item symmetry reduction
# ---------------------------------------------------------------------------


def _canonical(t, i, swap):
    """Buyer i's type first and the others' sorted behind it, with the two
    items swapped if asked."""
    if swap:
        t = tuple((x2, x1) for x1, x2 in t)
    return (t[i],) + tuple(sorted(t[:i] + t[i + 1 :]))


def symmetry_representatives(lp: LinearProgram) -> dict:
    """Map each variable to the least member of its orbit under reorderings
    of the buyers and the item swap.

    The least image moves the variable's buyer to 0 and sorts the other
    buyers' types; an allocation variable takes the swap that makes its item
    0, a utility variable whichever swap gives the smaller profile.
    """
    rep = {}
    for v in lp.variables:
        if v[0] == "q":
            _, i, j, t = v
            rep[v] = ("q", 0, 0, _canonical(t, i, j == 1))
        else:
            _, i, t = v
            rep[v] = ("u", 0, min(_canonical(t, i, False), _canonical(t, i, True)))
    return rep


def symmetrize_lp(lp: LinearProgram, rep: dict) -> LinearProgram:
    """Restrict the LP to the symmetric subspace (all orbit members equal).

    For an exchangeable distribution the optimum is unchanged: averaging any
    feasible point over the group stays feasible and preserves the
    objective.  The test suite asserts the exact agreement rather than
    assuming it.
    """
    variables = []
    seen = set()
    for v in lp.variables:
        r = rep[v]
        if r not in seen:
            seen.add(r)
            variables.append(r)
    objective = {}
    for v, c in lp.objective.items():
        r = rep[v]
        objective[r] = objective.get(r, Fraction(0)) + c
    constraints = []
    row_keys = set()
    for cons in lp.constraints:
        coeffs = {}
        for v, c in cons.coeffs:
            r = rep[v]
            coeffs[r] = coeffs.get(r, Fraction(0)) + c
        key = (tuple(sorted(coeffs.items())), cons.rel, cons.rhs)
        if key in row_keys:
            continue
        row_keys.add(key)
        constraints.append(make_constraint(coeffs, cons.rel, cons.rhs, cons.tag))
    nonneg = {rep[v] for v in lp.nonneg}
    return LinearProgram(variables, objective, constraints, nonneg).validate()


def expand_assignment(lp: LinearProgram, rep: dict, assignment: dict) -> dict:
    return {v: assignment[rep[v]] for v in lp.variables}


def dic_row_count(lp: LinearProgram) -> int:
    return lp.n_constraints("dic") + lp.n_constraints("dic_local")


def solve_auction_lp(lp: LinearProgram) -> LPSolution:
    """Solve an auction LP through the symmetry reduction.

    Large per-profile truthfulness families are generated lazily (one-step
    misreport rows stay seeded).  The returned assignment covers the full
    variable set and is verified against every original row.
    """
    rep = symmetry_representatives(lp)
    reduced = symmetrize_lp(lp, rep)
    lazy = ("dic",) if dic_row_count(reduced) > LAZY_THRESHOLD else ()
    sol = solve(reduced, lazy_tags=lazy)
    if sol.status != "optimal":
        return sol
    assignment = expand_assignment(lp, rep, sol.assignment)
    full = LPSolution(sol.status, sol.optimum, assignment, sol.pivots)
    from .simplex import _certify  # full-model feasibility certificate

    _certify(lp, full)
    return full


# ---------------------------------------------------------------------------
# Mechanism extraction and certification
# ---------------------------------------------------------------------------


def extract_mechanism(
    dist: FiniteValueDistribution, assignment: dict, label: str = "custom"
) -> Mechanism:
    """Turn an auction-LP assignment back into explicit mechanism tables,
    keyed by the program's own profiles in its variable order."""
    profiles = list(dict.fromkeys(v[-1] for v in assignment))
    n = len(profiles[0])
    allocation = {
        t: tuple((assignment[("q", i, 0, t)], assignment[("q", i, 1, t)]) for i in range(n))
        for t in profiles
    }
    utility = {t: tuple(assignment[("u", i, t)] for i in range(n)) for t in profiles}
    return Mechanism(dist, label, allocation, utility)


@dataclass(frozen=True)
class CertificationReport:
    spec: AuctionSpec
    lp_dic: Fraction
    r_dic: Fraction
    equal_dic: bool
    lp_bic: Fraction
    r_bic: Fraction
    equal_bic: bool

    @property
    def all_equal(self) -> bool:
        return self.equal_dic and self.equal_bic

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "lp_D": rat_str(self.lp_dic),
            "r_D": rat_str(self.r_dic),
            "equal_D": self.equal_dic,
            "lp_B": rat_str(self.lp_bic),
            "r_B": rat_str(self.r_bic),
            "equal_B": self.equal_bic,
        }


def certify_main_theorem(
    spec: AuctionSpec, max_profiles: int = DEFAULT_LP_PROFILE_CAP
) -> CertificationReport:
    """Exact equality test between the LP optima and the closed forms."""
    sol_d = solve_auction_lp(build_dic_lp(spec, max_profiles))
    sol_b = solve_auction_lp(build_bic_lp(spec, max_profiles))
    if sol_d.status != "optimal" or sol_b.status != "optimal":
        raise RuntimeError("auction LPs must be feasible and bounded")
    r_d = revenue_dic(spec)
    r_b = revenue_bic(spec)
    return CertificationReport(
        spec=spec,
        lp_dic=sol_d.optimum,
        r_dic=r_d,
        equal_dic=sol_d.optimum == r_d,
        lp_bic=sol_b.optimum,
        r_bic=r_b,
        equal_bic=sol_b.optimum == r_b,
    )


# ---------------------------------------------------------------------------
# The certification grid
# ---------------------------------------------------------------------------


def grid_b_values(n: int, p: Fraction, a: Fraction) -> list:
    """Three interior points per linearity interval plus the breakpoints.

    With a = 0 every breakpoint collapses to 0 and only the top interval
    exists; three separated points stand in for the whole sweep.
    """
    if a == 0:
        return [Fraction(1), Fraction(2), Fraction(3)]
    probe = AuctionSpec(n, p, a, a + 1)
    from .formulas import breakpoints

    v = breakpoints(probe)
    out = set()
    edges = [a, v.v1, v.v2, v.v3, v.v3 + (v.v3 - a)]
    for lo, hi in zip(edges, edges[1:]):
        for k in (1, 2, 3):
            out.add(lo + Fraction(k, 4) * (hi - lo))
    out.update((v.v1, v.v2, v.v3))
    return sorted(x for x in out if x > a)


def certification_grid(
    ns: Sequence[int] = (2, 3),
    ps: Sequence = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)),
    a_values: Sequence = (Fraction(0), Fraction(1)),
) -> list:
    """The built-in grid of specs used for end-to-end certification."""
    specs = []
    for n in ns:
        for p in ps:
            for a in a_values:
                for b in grid_b_values(n, p, a):
                    specs.append(AuctionSpec(n, p, a, b))
    return specs
