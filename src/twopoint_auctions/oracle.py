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
Weinberg, EC 2012).  The solver is therefore given the symmetric program,
one variable per orbit, built directly; the full program is built only for
`--lp-export` and as the tests' reference.  Every optimum is expanded into
explicit mechanism tables and audited as a mechanism: supply, the regime's
participation and truthfulness audits, and its expected revenue.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import audit
from .core import (
    AuctionSpec,
    CapExceeded,
    FiniteValueDistribution,
    buyer_types,
    enumerate_profiles,
    insert,
    profile_table,
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


def _canonical(t, i, swap):
    """Buyer i's type first and the others' sorted behind it, with the two
    items swapped if asked."""
    if swap:
        t = tuple((x2, x1) for x1, x2 in t)
    return (t[i],) + tuple(sorted(t[:i] + t[i + 1 :]))


def representative(v):
    """The least member of a variable's orbit under reorderings of the
    buyers and the item swap.

    The least image moves the variable's buyer to 0 and sorts the other
    buyers' types; an allocation variable takes the swap that makes its item
    0, a utility variable whichever swap gives the smaller profile.
    """
    if v[0] == "q":
        _, i, j, t = v
        return ("q", 0, 0, _canonical(t, i, j == 1))
    _, i, t = v
    return ("u", 0, min(_canonical(t, i, False), _canonical(t, i, True)))


def _full_variables(n: int, profiles) -> tuple[list, list]:
    q_vars = [("q", i, j, t) for t in profiles for i in range(n) for j in range(2)]
    u_vars = [("u", i, t) for t in profiles for i in range(n)]
    return q_vars, u_vars


def _truthfulness_terms(dist, i, t_true, t_rep, others) -> list:
    """Buyer i's truthfulness row against one opponent profile:
    u_i(t_true) - u_i(t_rep) - (t_true - t_rep).q_i(t_rep) >= 0."""
    truthful = insert(others, i, t_true)
    deviated = insert(others, i, t_rep)
    terms = [(("u", i, truthful), Fraction(1)), (("u", i, deviated), Fraction(-1))]
    for j in range(2):
        dv = dist.values[t_true[j]] - dist.values[t_rep[j]]
        if dv != 0:
            terms.append((("q", i, j, deviated), -dv))
    return terms


def _build(
    n: int,
    dist: FiniteValueDistribution,
    regime: str,
    max_profiles: int,
    symmetric: bool,
) -> LinearProgram:
    """The revenue-maximization LP, full or buyer/item-symmetric.

    Every variable is read through a column map, the identity or
    `representative`, and each row is accumulated under the mapped columns;
    identical rows are kept once, in order of first appearance.
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
    q_vars, u_vars = _full_variables(n, profiles)
    col = ({v: representative(v) for v in q_vars + u_vars}.__getitem__
           if symmetric else (lambda v: v))

    objective = {}
    for t, prob in weighted:
        for i in range(n):
            for j in range(2):
                r = col(("q", i, j, t))
                c = prob * dist.values[t[i][j]]
                objective[r] = objective[r] + c if r in objective else c
            r = col(("u", i, t))
            objective[r] = objective[r] - prob if r in objective else -prob

    rows = {}

    def add(terms, rel, rhs, tag):
        coeffs = {}
        for v, c in terms:
            r = col(v)
            coeffs[r] = coeffs[r] + c if r in coeffs else c
        key = (tuple(sorted(coeffs.items())), rel, rhs)
        if key not in rows:
            rows[key] = make_constraint(coeffs, rel, rhs, tag)

    for t in profiles:
        for j in range(2):
            add([(("q", i, j, t), Fraction(1)) for i in range(n)], "<=", 1, "supply")

    # In the symmetric program every buyer's truthfulness and participation
    # rows repeat buyer 0's, and opponent profiles that reorder each other
    # give the same truthfulness row, first met at the sorted one.
    buyers = range(1) if symmetric else range(n)
    others_space = enumerate_profiles(n - 1, dist)
    pairs = [(t_true, t_rep) for t_true in types for t_rep in types if t_rep != t_true]
    if regime == "dic":
        for t in profiles:
            for i in range(n):
                add([(("u", i, t), Fraction(1))], ">=", 0, "ir")
        opponents = [o for o, _ in others_space if not symmetric or list(o) == sorted(o)]
        for i in buyers:
            for t_true, t_rep in pairs:
                # One-step misreports along a single coordinate tend to be
                # the binding rows; tag them so lazy solving can keep them
                # in the model from the start.
                adjacent = sorted(
                    (abs(t_true[0] - t_rep[0]), abs(t_true[1] - t_rep[1]))
                ) == [0, 1]
                tag = "dic_local" if adjacent else "dic"
                for others in opponents:
                    add(_truthfulness_terms(dist, i, t_true, t_rep, others), ">=", 0, tag)
    else:
        # Interim rows: the opponent-weighted sums of the per-profile ones.
        for i in buyers:
            for t_i in types:
                add([(("u", i, insert(o, i, t_i)), w) for o, w in others_space],
                    ">=", 0, "bir")
        for i in buyers:
            for t_true, t_rep in pairs:
                add([(v, w * c) for o, w in others_space
                     for v, c in _truthfulness_terms(dist, i, t_true, t_rep, o)],
                    ">=", 0, "bic")

    lp = LinearProgram(
        variables=list(dict.fromkeys(map(col, q_vars + u_vars))),
        objective=objective,
        constraints=list(rows.values()),
        nonneg={col(v) for v in q_vars},
    )
    return lp.validate()


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
    return _build(n, dist, regime, max_profiles, symmetric=False)


def build_dic_lp(spec: AuctionSpec, max_profiles: int = DEFAULT_LP_PROFILE_CAP):
    return build_auction_lp(spec.n, spec.dist, "dic", max_profiles)


def build_bic_lp(spec: AuctionSpec, max_profiles: int = DEFAULT_LP_PROFILE_CAP):
    return build_auction_lp(spec.n, spec.dist, "bic", max_profiles)


def dic_row_count(lp: LinearProgram) -> int:
    return lp.n_constraints("dic") + lp.n_constraints("dic_local")


def solve_auction_lp(
    n: int,
    dist: FiniteValueDistribution,
    regime: str,
    max_profiles: int = DEFAULT_LP_PROFILE_CAP,
) -> LPSolution:
    """Solve the auction LP through its symmetric program and certify the
    optimum as a mechanism.

    Large per-profile truthfulness families are generated lazily (one-step
    misreport rows stay seeded).  An auction LP is feasible and bounded, so
    any other status raises.  The returned assignment covers the full
    variable set; its mechanism has passed `certify_optimum`.
    """
    lp = _build(n, dist, regime, max_profiles, symmetric=True)
    lazy = ("dic",) if dic_row_count(lp) > LAZY_THRESHOLD else ()
    sol = solve(lp, lazy_tags=lazy)
    if sol.status != "optimal":
        raise RuntimeError(f"certificate failure: the auction LP is {sol.status}")
    q_vars, u_vars = _full_variables(n, profile_table(n, dist, max_profiles).profiles)
    assignment = {v: sol.assignment[representative(v)] for v in q_vars + u_vars}
    certify_optimum(extract_mechanism(dist, assignment), regime, sol.optimum)
    return LPSolution(sol.status, sol.optimum, assignment, sol.pivots)


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
    return Mechanism.from_rationals(dist, label, allocation, utility)


def certify_optimum(mech: Mechanism, regime: str, optimum: Fraction) -> None:
    """Check an LP optimum as a mechanism; raise on any failure.

    Every share is nonnegative and no item is given out more than once at
    any profile; the regime's audits (IR and DIC, or BIR and BIC) pass; and
    the mechanism's expected revenue is the optimum.
    """
    den = mech.den
    for t, shares in mech.allocation.items():
        if any(q < 0 for q_i in shares for q in q_i):
            raise RuntimeError(f"certificate failure: negative allocation at {t}")
        for j in range(2):
            if sum(q_i[j] for q_i in shares) > den:
                raise RuntimeError(f"certificate failure: item {j + 1} over-allocated at {t}")
    checks = (audit.check_ir, audit.check_dic) if regime == "dic" else (
        audit.check_bir, audit.check_bic)
    for check in checks:
        report = check(mech)
        if not report.passed:
            raise RuntimeError(
                f"certificate failure: {report.condition} fails "
                f"({len(report.violations)} violations)"
            )
    revenue = audit.expected_revenue(mech)
    if revenue != optimum:
        raise RuntimeError(
            f"certificate failure: expected revenue {rat_str(revenue)} "
            f"differs from the LP optimum {rat_str(optimum)}"
        )


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
    sol_d = solve_auction_lp(spec.n, spec.dist, "dic", max_profiles)
    sol_b = solve_auction_lp(spec.n, spec.dist, "bic", max_profiles)
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
