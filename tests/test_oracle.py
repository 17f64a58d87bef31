import dataclasses
import itertools
import math
import random
import re
from fractions import Fraction as F

import pytest

from twopoint_auctions.core import (
    AuctionSpec,
    CapExceeded,
    FiniteValueDistribution,
    buyer_types,
)
from twopoint_auctions.formulas import breakpoints, price_b_revenue, revenue_bic, revenue_dic
from twopoint_auctions.mechanisms import build_bic_mechanism, build_dic_mechanism
from twopoint_auctions.audit import (
    check_bic,
    check_bir,
    check_dic,
    check_ir,
    expected_revenue,
)
from twopoint_auctions import oracle
from twopoint_auctions.oracle import (
    build_auction_lp,
    certification_grid,
    certify_main_theorem,
    certify_optimum,
    certify_specs,
    extract_mechanism,
    grid_b_values,
    solve_auction_lp,
)
from twopoint_auctions.continuous import ContinuousSpec, discretize
from twopoint_auctions.simplex import _violated, solve

from helpers import (
    cells_at,
    enumerate_profiles,
    extract_from_assignment,
    from_rationals,
    full_assignment,
    insert,
    interim_representative,
    make_lp,
    n_constraints,
    q_of,
    reference_columns,
    representative,
    shares_at,
    u_of,
)

EXAMPLE = AuctionSpec(2, F(1, 2), 1, 2)
THREE_ATOMS = FiniteValueDistribution((F(1), F(2), F(3)), (F(1, 3),) * 3)


def _apply_to_profile(perm, swap, profile):
    out = [None] * len(profile)
    for i, t in enumerate(profile):
        out[perm[i]] = (t[1], t[0]) if swap else t
    return tuple(out)


def _apply_to_var(perm, swap, var):
    """Reference group action: buyer i moves to perm[i], and the items
    swap if asked."""
    if var[0] == "q":
        _, i, j, t = var
        return ("q", perm[i], 1 - j if swap else j, _apply_to_profile(perm, swap, t))
    _, i, t = var
    return ("u", perm[i], _apply_to_profile(perm, swap, t))


def _group(n):
    return [
        (perm, swap)
        for perm in itertools.permutations(range(n))
        for swap in (False, True)
    ]


def _reduce(lp, rep=representative):
    """Reference reduction of a program: map every variable through `rep`,
    its orbit representative by default, sum the objective and each row
    under the map, and keep identical rows once, in order of first
    appearance.  With `interim_representative`, applied to the symmetric
    program, it averages the utilities per type orbit: every utility of a
    type orbit becomes one column, its coefficients summed."""
    variables = list(dict.fromkeys(rep(v) for v in lp.variables))
    objective = {}
    for v, c in lp.objective_terms():
        r = rep(v)
        objective[r] = objective.get(r, F(0)) + c
    rows = {}
    for terms, rel, rhs, tag in lp.rows():
        coeffs = {}
        for v, c in terms:
            r = rep(v)
            coeffs[r] = coeffs.get(r, F(0)) + c
        rows.setdefault((tuple(sorted(coeffs.items())), rel, rhs), (coeffs, rel, rhs, tag))
    return make_lp(variables, objective, rows.values()).validate()


def _fold_participation(lp):
    """The reference program with its participation rows ('ir', 'bir')
    folded into the columns' nonnegativity, as the builder states them.
    Each folded row must be a single-column row >= 0, with rhs 0 and a
    positive coefficient, on a utility column, and every utility column
    must have exactly one."""
    folded = []
    for c in lp.constraints:
        if c.tag in ("ir", "bir"):
            assert (len(c.coeffs), c.rel, c.rhs) == (1, ">=", 0), c
            (j, a), = c.coeffs
            assert a > 0 and lp.variables[j][0] in ("u", "U"), c
            folded.append(j)
    utilities = [j for j, v in enumerate(lp.variables) if v[0] in ("u", "U")]
    assert sorted(folded) == utilities
    return dataclasses.replace(
        lp, constraints=[c for c in lp.constraints if c.tag not in ("ir", "bir")])


SYMMETRY_PARAMS = [
    pytest.param(1, EXAMPLE.dist, id="n1"),
    pytest.param(2, EXAMPLE.dist, id="n2"),
    pytest.param(3, EXAMPLE.dist, id="n3"),
    pytest.param(2, THREE_ATOMS, id="three-atoms"),
    pytest.param(2, discretize(ContinuousSpec(2, 10, 2, 2)), id="grid-m2"),
]

SYMMETRY_CASES = pytest.mark.parametrize("n,dist", SYMMETRY_PARAMS)


def _full_program(n, dist, regime):
    """The full per-profile program, from the reference builder."""
    return _ref_build(n, dist, regime, symmetric=False)


class TestProgramShapes:
    def test_dic_counts_at_n2(self):
        lp = _full_program(EXAMPLE.n, EXAMPLE.dist, "dic")
        q_vars = [v for v in lp.variables if v[0] == "q"]
        u_vars = [v for v in lp.variables if v[0] == "u"]
        assert len(q_vars) == 2 * 2 * 16  # buyers x items x profiles
        assert len(u_vars) == 2 * 16
        # 8 of a buyer's 12 misreports are one-step, per opponent type
        assert n_constraints(lp, "dic_local") == 2 * 8 * 4
        assert n_constraints(lp, "dic") == 2 * 4 * 4
        assert n_constraints(lp, "ir") == 2 * 16
        assert n_constraints(lp, "supply") == 2 * 16

    def test_bic_counts_at_n2(self):
        lp = _full_program(EXAMPLE.n, EXAMPLE.dist, "bic")
        assert n_constraints(lp, "bic_local") == 2 * 8
        assert n_constraints(lp, "bic") == 2 * 4
        assert n_constraints(lp, "bir") == 2 * 4
        assert n_constraints(lp, "supply") == 2 * 16

    @pytest.mark.parametrize("n,n_atoms,admitted", [
        (34, 2, True), (35, 2, False), (2, 6, True), (2, 8, False)])
    def test_cap_counts_type_count_cells(self, monkeypatch, n, n_atoms, admitted):
        # The cap is 2^15 type-count cells, checked before the column map
        # is built: two-atom n = 34 has 31,080 cells and n = 35 33,744; the
        # continuous grid_m = 3 (6 atoms) has 23,976 and grid_m = 4 133,120.
        def past_the_cap(*args):
            raise LookupError("past the cap")

        monkeypatch.setattr(oracle, "_columns", past_the_cap)
        dist = FiniteValueDistribution(tuple(map(F, range(n_atoms))), (F(1, n_atoms),) * n_atoms)
        with pytest.raises(LookupError if admitted else CapExceeded):
            build_auction_lp(n, dist, "dic")

    @pytest.mark.parametrize("n,n_atoms", [(2, 2), (5, 2), (3, 3), (2, 6)])
    def test_cap_unit_is_the_table_length(self, n, n_atoms):
        # The checked count C(n + T - 1, T - 1) * T is the length of the
        # column map's per-cell arrays, and so of every mechanism table.
        cells = math.comb(n + n_atoms ** 2 - 1, n_atoms ** 2 - 1) * n_atoms ** 2
        assert all(len(per_cell) == cells for per_cell in oracle._columns(n, n_atoms, False)[1])


# A two-atom type's one-step misreports: one item reported an atom lower,
# and their reverses.
DOWNWARD = {((0, 1), (0, 0)), ((1, 0), (0, 0)), ((1, 1), (0, 1)), ((1, 1), (1, 0))}
UPWARD = {(y, x) for x, y in DOWNWARD}


def _one_step(n_atoms):
    """The one-step misreports (x, y) of `n_atoms` atoms, as type pairs:
    y is x with one item's atom one higher or lower."""
    types = list(itertools.product(range(n_atoms), repeat=2))
    return {(x, y) for x in types for y in types
            if sum(abs(a - b) for a, b in zip(x, y)) == 1}


class TestSeededRows:
    """The candidates a program is solved from: with two atoms the downward
    one-step misreports alone, with more atoms every one-step misreport.
    The rest are withheld and separated; `local` and the row tags still
    flag every one-step misreport."""

    @pytest.mark.parametrize("n_atoms", [2, 3, 6])
    @pytest.mark.parametrize("regime", ["dic", "bic"])
    def test_seeded_candidates(self, n_atoms, regime):
        n = 3 if n_atoms < 6 else 2
        truth = oracle._candidates(n, n_atoms, regime)
        types = list(itertools.product(range(n_atoms), repeat=2))
        pairs = [(types[x], types[y]) for x, y in truth.pairs]
        one_step = _one_step(n_atoms)
        if n_atoms == 2:
            assert one_step == DOWNWARD | UPWARD
        seeded = DOWNWARD if n_atoms == 2 else one_step
        assert truth.local == tuple(pair in one_step for pair in pairs)
        assert truth.seeded == tuple(c for c in truth.all if pairs[c[0]] in seeded)
        assert truth.withheld == tuple(c for c in truth.all if pairs[c[0]] not in seeded)

    @pytest.mark.parametrize("regime", ["dic", "bic"])
    def test_export_keeps_the_local_tags(self, regime):
        # Every one-step row, upward ones included, is tagged local.
        lp = build_auction_lp(EXAMPLE.n, EXAMPLE.dist, regime)
        seeded, _ = oracle._seeded_program(EXAMPLE.n, EXAMPLE.dist, regime)
        local = f"{regime}_local"
        assert n_constraints(lp, local) > n_constraints(seeded, local) > 0
        assert n_constraints(seeded, regime) == 0

    # Pivots and separated rows summed over the 180 grid specs.
    @pytest.mark.parametrize("regime,pivots,separated", [("dic", 3518, 99), ("bic", 2839, 0)])
    def test_grid_totals(self, regime, pivots, separated):
        sols = [solve_auction_lp(s.n, s.dist, regime) for s in certification_grid()]
        assert (sum(sol.pivots for sol in sols), sum(len(sol.added) for sol in sols)) == (
            pivots, separated)


class TestOptima:
    def test_example_dic(self):
        sol = solve_auction_lp(EXAMPLE.n, EXAMPLE.dist, "dic")
        assert sol.optimum == F(25, 8)

    def test_example_bic(self):
        sol = solve_auction_lp(EXAMPLE.n, EXAMPLE.dist, "bic")
        assert sol.optimum == F(51, 16)

    def test_low_b(self):
        spec = AuctionSpec(2, F(1, 2), 1, F(3, 2))
        assert solve_auction_lp(spec.n, spec.dist, "dic").optimum == F(81, 32)
        assert solve_auction_lp(spec.n, spec.dist, "bic").optimum == F(41, 16)

    def test_above_v3_collapses_to_price_b(self):
        spec = AuctionSpec(2, F(1, 2), 1, 4)
        assert solve_auction_lp(spec.n, spec.dist, "dic").optimum == price_b_revenue(spec)
        assert solve_auction_lp(spec.n, spec.dist, "bic").optimum == price_b_revenue(spec)

    @pytest.mark.parametrize(
        "b", [F(5, 4), F(5, 3), F(7, 4), F(2), F(5, 2), F(3), F(4)]
    )
    def test_bayesian_dominates_and_strictness(self, b):
        spec = AuctionSpec(2, F(1, 2), 1, b)
        lp_d = solve_auction_lp(spec.n, spec.dist, "dic").optimum
        lp_b = solve_auction_lp(spec.n, spec.dist, "bic").optimum
        assert lp_b >= lp_d
        assert (lp_b > lp_d) == (b < breakpoints(spec).v3)

    def test_built_mechanisms_are_feasible_points(self):
        # achievability: constructed revenue never exceeds the optimum and
        # matches it exactly
        for spec in (EXAMPLE, AuctionSpec(2, F(1, 3), 1, F(3, 2))):
            lp_d = solve_auction_lp(spec.n, spec.dist, "dic").optimum
            lp_b = solve_auction_lp(spec.n, spec.dist, "bic").optimum
            assert expected_revenue(build_dic_mechanism(spec)) == lp_d
            assert expected_revenue(build_bic_mechanism(spec)) == lp_b


class TestMechanismExtraction:
    def test_dic_solution_passes_dic_audit(self):
        sol = solve_auction_lp(EXAMPLE.n, EXAMPLE.dist, "dic")
        mech = extract_mechanism(EXAMPLE.n, EXAMPLE.dist, sol)
        assert check_ir(mech).passed
        assert check_dic(mech).passed
        assert expected_revenue(mech) == sol.optimum

    def test_bic_solution_passes_bic_audit(self):
        sol = solve_auction_lp(EXAMPLE.n, EXAMPLE.dist, "bic")
        mech = extract_mechanism(EXAMPLE.n, EXAMPLE.dist, sol)
        assert check_bir(mech).passed
        assert check_bic(mech).passed
        assert expected_revenue(mech) == sol.optimum

    def test_symmetrized_solution_passes_audits(self):
        spec = AuctionSpec(3, F(1, 2), 1, 2)
        sol = solve_auction_lp(spec.n, spec.dist, "dic")
        mech = extract_mechanism(spec.n, spec.dist, sol)
        assert check_ir(mech).passed
        assert check_dic(mech).passed
        assert expected_revenue(mech) == sol.optimum

    def test_three_atom_solutions_pass_their_audits(self):
        # The audits read values and probabilities from the distribution, so
        # they check LP mechanisms over any finite marginal.  The Bayesian
        # optimum beats the dominant-strategy one, so its mechanism must
        # break IR or DIC somewhere.
        dist = THREE_ATOMS
        sol_d = solve_auction_lp(2, dist, "dic")
        sol_b = solve_auction_lp(2, dist, "bic")
        assert (sol_d.optimum, sol_b.optimum) == (F(109, 27), F(110, 27))
        mech_d = extract_mechanism(2, dist, sol_d)
        assert mech_d.n == 2 and mech_d.n_types ** mech_d.n == 81
        assert check_ir(mech_d).passed
        assert check_dic(mech_d).passed
        assert expected_revenue(mech_d) == F(109, 27)
        mech_b = extract_mechanism(2, dist, sol_b)
        assert check_bir(mech_b).passed
        assert check_bic(mech_b).passed
        assert expected_revenue(mech_b) == F(110, 27)
        assert not (check_ir(mech_b).passed and check_dic(mech_b).passed)


class TestSymmetryReduction:
    def test_constraint_set_is_group_invariant(self):
        lp = _full_program(EXAMPLE.n, EXAMPLE.dist, "dic")
        rows = {
            (tuple(sorted(terms)), rel, rhs) for terms, rel, rhs, _ in lp.rows()
        }
        for perm, swap in _group(2):
            mapped = {
                (
                    tuple(
                        sorted(
                            (_apply_to_var(perm, swap, v), coef)
                            for v, coef in terms
                        )
                    ),
                    rel,
                    rhs,
                )
                for terms, rel, rhs, _ in lp.rows()
            }
            assert mapped == rows

    def test_objective_is_group_invariant(self):
        objective = dict(_full_program(EXAMPLE.n, EXAMPLE.dist, "bic").objective_terms())
        for perm, swap in _group(2):
            mapped = {
                _apply_to_var(perm, swap, v): c for v, c in objective.items()
            }
            assert mapped == objective

    @SYMMETRY_CASES
    def test_representatives_are_group_minima(self, n, dist):
        # Both regimes declare the same variables; the Bayesian one builds
        # faster.
        lp = _full_program(n, dist, "bic")
        group = _group(n)
        for v in lp.variables:
            assert representative(v) == min(
                _apply_to_var(perm, swap, v) for perm, swap in group
            )

    @SYMMETRY_CASES
    @pytest.mark.parametrize("regime", ["dic", "bic"])
    def test_symmetric_program_is_the_reduced_full_program(self, n, dist, regime):
        # The Bayesian one is the reduced program with its utilities
        # averaged per type orbit.  Solved cold, with every row in place,
        # it has the optimum the solve path certifies.
        reduced = _reduce(_full_program(n, dist, regime))
        if regime == "bic":
            reduced = _reduce(reduced, interim_representative)
        reduced = _fold_participation(reduced)
        sym = build_auction_lp(n, dist, regime)
        assert sym.variables == reduced.variables
        assert list(sym.objective.items()) == list(reduced.objective.items())
        assert sym.obj_scale == reduced.obj_scale
        assert sym.constraints == reduced.constraints
        assert solve(sym).optimum == solve_auction_lp(n, dist, regime).optimum

    @pytest.mark.parametrize(
        "spec",
        [
            EXAMPLE,
            AuctionSpec(2, F(1, 2), 1, F(3, 2)),
            AuctionSpec(2, F(1, 3), 1, F(9, 8)),
            AuctionSpec(2, F(2, 3), 1, 3),
            AuctionSpec(2, F(3, 4), 0, 2),
            AuctionSpec(2, F(1, 4), 2, 3),
        ],
        ids=str,
    )
    def test_reduction_preserves_optimum_exactly(self, spec):
        for regime in ("dic", "bic"):
            lp = _full_program(spec.n, spec.dist, regime)
            assert solve_auction_lp(spec.n, spec.dist, regime).optimum == solve(lp).optimum

    @pytest.mark.slow
    def test_reduction_preserves_optimum_at_n3(self):
        spec = AuctionSpec(3, F(1, 2), 1, 2)
        lp = _full_program(spec.n, spec.dist, "dic")
        assert solve_auction_lp(spec.n, spec.dist, "dic").optimum == solve(lp).optimum

    def test_reduction_shrinks_model(self):
        spec = AuctionSpec(3, F(1, 2), 1, 2)
        lp = _full_program(spec.n, spec.dist, "dic")
        reduced = build_auction_lp(spec.n, spec.dist, "dic")
        assert len(reduced.variables) < len(lp.variables) / 6
        assert len(reduced.constraints) < len(lp.constraints) / 6


# The 180-spec grid and the a=10 grid_m=1 and grid_m=2 cells.
INTERIM_CASES = [(s.n, s.dist) for s in certification_grid()] + [
    (2, discretize(ContinuousSpec(2, 10, 2, m))) for m in (1, 2)]


class TestInterimProgram:
    """The symmetric Bayesian program, one utility column per type orbit,
    keeps the optimum of the per-cell program, and the solve path's
    separated optima break no row of the full symmetric program."""

    @pytest.mark.slow
    def test_optimum_equals_the_per_cell_program(self):
        for n, dist in INTERIM_CASES:
            per_cell = solve(_ref_build(n, dist, "bic", symmetric=True))
            assert solve_auction_lp(n, dist, "bic").optimum == per_cell.optimum, (n, dist)

    @pytest.mark.parametrize("regime", ["dic", "bic"])
    def test_separated_optimum_satisfies_every_row(self, regime):
        for n, dist in INTERIM_CASES:
            sol = solve_auction_lp(n, dist, regime)
            full = build_auction_lp(n, dist, regime)
            assert len(sol.primal) == len(full.variables)
            violated = [c for c in full.constraints if _violated(c, sol.primal, sol.primal_den)]
            assert not violated, (n, dist)


class TestOptimumCertificate:
    def test_program_without_truthfulness_rows_is_refused(self, monkeypatch):
        # A program solved without its truthfulness rows, seeded or
        # separated, has a larger optimum; the audits catch it before any
        # comparison with the closed form.
        build = oracle._seeded_program

        def without_dic_rows(*args, **kwargs):
            lp, _ = build(*args, **kwargs)
            lp.constraints = [c for c in lp.constraints if not c.tag.startswith("dic")]
            return lp, None

        monkeypatch.setattr(oracle, "_seeded_program", without_dic_rows)
        with pytest.raises(RuntimeError, match="certificate failure: DIC"):
            certify_main_theorem(EXAMPLE)

    def test_separator_that_finds_nothing_is_refused(self, monkeypatch):
        # The a=10 grid_m=2 DIC cell needs 28 separated rows; solved with
        # its seeded rows alone, its optimum is certified as an LP but its
        # mechanism fails the DIC audit.
        dist = discretize(ContinuousSpec(2, 10, 2, 2))
        sol = solve_auction_lp(2, dist, "dic")
        assert len(sol.added) == 28 and {c.tag for c in sol.added} == {"dic"}
        build = oracle._seeded_program
        calls = []

        def blind(*args, **kwargs):
            lp, _ = build(*args, **kwargs)
            return lp, lambda x, X: calls.append(X) or []

        monkeypatch.setattr(oracle, "_seeded_program", blind)
        with pytest.raises(RuntimeError, match="certificate failure: DIC fails"):
            solve_continuous_cell(10, "dic")
        assert len(calls) == 1

    def _mechanism(self, change):
        # The example's DIC optimum with `change` applied to the share pair
        # of the cell every buyer holds at the all-low profile.
        sol = solve_auction_lp(EXAMPLE.n, EXAMPLE.dist, "dic")
        mech = extract_mechanism(EXAMPLE.n, EXAMPLE.dist, sol)
        profiles = [t for t, _ in enumerate_profiles(mech.n, mech.dist)]
        planted = cells_at(mech.dist, profiles[0])[0]
        allocation = {
            t: tuple(change(q_of(mech, i, t)) if x == planted else q_of(mech, i, t)
                     for i, x in enumerate(cells_at(mech.dist, t)))
            for t in profiles
        }
        utility = {t: tuple(u_of(mech, i, t) for i in range(mech.n)) for t in profiles}
        return from_rationals(mech.dist, mech.label, allocation, utility), sol.optimum

    def test_over_allocation_is_refused(self):
        mech, optimum = self._mechanism(lambda shares: (F(1), F(0)))
        with pytest.raises(RuntimeError, match=r"certificate failure: item 1 over-allocated at \(\(0, 0\), \(0, 0\)\)"):
            certify_optimum(mech, "dic", optimum)

    def test_negative_share_is_refused(self):
        mech, optimum = self._mechanism(lambda shares: (F(-1, 2), F(0)))
        with pytest.raises(RuntimeError, match=r"certificate failure: negative allocation at \(\(0, 0\), \(0, 0\)\)"):
            certify_optimum(mech, "dic", optimum)

    def test_revenue_must_equal_the_optimum(self):
        mech, optimum = self._mechanism(lambda shares: shares)
        with pytest.raises(RuntimeError, match="certificate failure: expected revenue"):
            certify_optimum(mech, "dic", optimum + 1)


def _walked_share_failure(mech):
    """The first share failure met walking the profiles, as
    `certify_optimum` names it."""
    for t, _ in enumerate_profiles(mech.n, mech.dist):
        shares = shares_at(mech, t)
        if any(q < 0 for q_i in shares for q in q_i):
            return f"negative allocation at {t}"
        for j in range(2):
            if sum(q_i[j] for q_i in shares) > mech.den:
                return f"item {j + 1} over-allocated at {t}"
    return None


class TestCertificateFailureWithoutProfiles:
    """`certify_optimum` reads no profile: past the profile table's cap a
    failing mechanism is a certificate failure, and below it the failure
    reads as the walk over the profiles would name and count it."""

    @staticmethod
    def _certify(mech, spec):
        with pytest.raises(RuntimeError) as info:
            certify_optimum(mech, "dic", revenue_dic(spec))
        return str(info.value)

    @pytest.mark.parametrize("n", [9, 12])
    def test_failures_past_the_profile_cap(self, n):
        spec = AuctionSpec(n, F(1, 2), 1, 2)
        mech = build_dic_mechanism(spec)
        lowered = dataclasses.replace(mech, u=tuple(u - mech.den for u in mech.u))
        assert re.fullmatch(r"certificate failure: IR fails \(\d+ violations\)",
                            self._certify(lowered, spec))
        negative = dataclasses.replace(mech, q1=mech.q1[:-1] + (-1,))
        assert self._certify(negative, spec) == (
            f"certificate failure: negative allocation at {((1, 1),) * n}")

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_named_profile_is_the_walks(self, n):
        # Two planted share faults: the message names the first profile, in
        # profile-table order, that the walk finds failing.
        spec = AuctionSpec(n, F(1, 2), 1, 2)
        mech = build_dic_mechanism(spec)
        rng = random.Random(n)
        held = sorted({x for t, _ in enumerate_profiles(n, spec.dist)
                       for x in cells_at(spec.dist, t)})
        for _ in range(20):
            tables = [list(mech.q1), list(mech.q2)]
            for x in rng.sample(held, 2):
                tables[rng.randrange(2)][x] = rng.choice([-1, mech.den + 1])
            bad = dataclasses.replace(mech, q1=tuple(tables[0]), q2=tuple(tables[1]))
            assert self._certify(bad, spec) == (
                f"certificate failure: {_walked_share_failure(bad)}")

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_counted_violations_are_the_walks(self, n):
        # Lowered utilities fail IR; a lifted utility at every cell of one
        # type fails DIC for the types that may report it.
        spec = AuctionSpec(n, F(1, 2), 1, 2)
        mech = build_dic_mechanism(spec)
        lowered = dataclasses.replace(mech, u=tuple(u - mech.den for u in mech.u))
        lifted = dataclasses.replace(mech, u=tuple(
            u + (x % 4 == 1) * mech.den for x, u in enumerate(mech.u)))
        for bad, check in ((lowered, check_ir), (lifted, check_dic)):
            report = check(bad)
            assert not report.passed
            assert self._certify(bad, spec) == (
                f"certificate failure: {report.condition} fails "
                f"({len(report.violations)} violations)")


class TestCertification:
    def test_example_report(self):
        report = certify_main_theorem(EXAMPLE)
        assert report.all_equal
        assert report.lp_dic == F(25, 8) and report.lp_bic == F(51, 16)
        doc = report.to_json()
        assert doc["equal_D"] and doc["equal_B"]
        assert doc["lp_D"] == "25/8" and doc["lp_B"] == "51/16"

    def test_n3_report(self):
        report = certify_main_theorem(AuctionSpec(3, F(1, 2), 1, 2))
        assert report.all_equal
        # oracle value equals the closed form computed independently
        assert report.lp_dic == revenue_dic(AuctionSpec(3, F(1, 2), 1, 2))

    def test_four_buyers_single_shot(self):
        report = certify_main_theorem(AuctionSpec(4, F(1, 2), 1, 2))
        assert report.all_equal
        assert report.lp_dic == F(241, 64) and report.lp_bic == F(975, 256)

    @pytest.mark.slow
    def test_breakpoint_grid_n4_to_n10(self):
        # Five p values, b in {1, 2, 3} at a = 0 and b at the breakpoints
        # v1, v2, v3 at a = 1: 210 specs, all under the cell cap, certified
        # as one batch.
        specs = []
        for n in range(4, 11):
            for p in (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)):
                v = breakpoints(AuctionSpec(n, p, 1, 2))
                specs += [AuctionSpec(n, p, 0, b) for b in (1, 2, 3)]
                specs += [AuctionSpec(n, p, 1, b) for b in (v.v1, v.v2, v.v3)]
        assert len(specs) == 210
        reports = certify_specs(specs)
        assert [r.spec for r in reports] == specs
        assert [r.spec for r in reports if not r.all_equal] == []

    def test_single_buyer_lp_solves(self):
        dist = EXAMPLE.dist
        lp_d = solve_auction_lp(1, dist, "dic").optimum
        lp_b = solve_auction_lp(1, dist, "bic").optimum
        assert lp_b >= lp_d > 0


# (optimum, pivots) of the symmetric solve under Devex pricing, from the
# downward one-step truthfulness rows, the other rows separated: a change of
# pivot rule, tie-break, reference weights, seeded rows, columns or tableau
# arithmetic shows here first.  The two n = 3 DIC solves separate rows, two
# at b = 31/30 and one at b = 23/14.
PINNED_PIVOTS = [
    (2, F(1, 2), 1, 2, "dic", F(25, 8), 12),
    (2, F(1, 2), 1, 2, "bic", F(51, 16), 11),
    (2, F(1, 4), 0, 1, "dic", F(15, 8), 7),
    (2, F(2, 3), 1, F(14, 5), "dic", F(1352, 405), 14),
    (3, F(1, 4), 1, F(31, 30), "dic", F(42243, 20480), 38),
    (3, F(3, 4), 1, F(23, 14), "dic", F(74201, 28672), 39),
    (3, F(1, 2), 1, F(11, 4), "bic", F(1239, 256), 22),
    (3, F(1, 3), 0, 1, "bic", F(52, 27), 16),
]


class TestPivotSequence:
    @pytest.mark.parametrize("n,p,a,b,regime,optimum,pivots", PINNED_PIVOTS)
    def test_grid_programs(self, n, p, a, b, regime, optimum, pivots):
        sol = solve_auction_lp(n, AuctionSpec(n, p, a, b).dist, regime)
        assert (sol.optimum, sol.pivots) == (optimum, pivots)

    # DIC: the relaxation's cold pivots plus the warm round's dual pivots,
    # 324 + 24 at both a=10 and a=20.
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "a,regime,optimum,pivots",
        [(10, "dic", F(16305, 512), 348), (10, "bic", F(2079, 64), 158),
         (20, "dic", F(32305, 512), 348)],
    )
    def test_continuous_cell(self, a, regime, optimum, pivots):
        assert solve_continuous_cell(a, regime) == (optimum, pivots)

    # a=40 carries the widest tableau entries of the continuous cells; DIC
    # takes 324 cold pivots and 24 dual ones.
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "regime,optimum,pivots", [("dic", F(64305, 512), 348), ("bic", F(8199, 64), 158)]
    )
    def test_widest_continuous_cell(self, regime, optimum, pivots):
        assert solve_continuous_cell(40, regime) == (optimum, pivots)

    # 36 types per buyer: the largest programs the continuous lab solves.
    @pytest.mark.slow
    def test_grid_m3_dic_cell(self):
        assert solve_continuous_cell(10, "dic", grid_m=3) == (F(3425, 108), 2699)

    @pytest.mark.slow
    def test_grid_m3_bic_cell(self):
        assert solve_continuous_cell(10, "bic", grid_m=3) == (F(13975, 432), 783)

    def test_pricing_state_does_not_leak_between_solves(self):
        first = solve_continuous_cell(10, "dic")
        solve_continuous_cell(10, "bic")
        assert solve_continuous_cell(10, "dic") == first == (F(16305, 512), 348)


EXTRACTION_CASES = [
    pytest.param(n, AuctionSpec(n, p, a, b).dist, id=f"grid-{n}-{p}-{a}-{b}")
    for n, p, a, b, *_ in PINNED_PIVOTS
] + [pytest.param(2, discretize(ContinuousSpec(2, 10, 2, 1)), id="continuous-a10-m1")]


class TestIntegerExtraction:
    """`extract_mechanism` reads the symmetric primal's numerators through
    the orbit map; it equals, field by field and den included, the
    mechanism `from_rationals` makes of the full Fraction assignment."""

    @pytest.mark.parametrize("regime", ["dic", "bic"])
    @pytest.mark.parametrize("n,dist", EXTRACTION_CASES)
    def test_equals_the_fraction_path(self, n, dist, regime):
        sol = solve_auction_lp(n, dist, regime)
        mech = extract_mechanism(n, dist, sol)
        ref = extract_from_assignment(dist, full_assignment(n, dist, sol))
        assert (mech.dist, mech.label, mech.den) == (ref.dist, ref.label, ref.den)
        assert (mech.q1, mech.q2, mech.u) == (ref.q1, ref.q2, ref.u)

    def test_refuses_a_solution_of_another_program(self):
        sol = solve_auction_lp(2, EXAMPLE.dist, "dic")
        with pytest.raises(ValueError, match="symmetric auction program"):
            extract_mechanism(3, EXAMPLE.dist, sol)


def solve_continuous_cell(a, regime, grid_m=2):
    """(optimum, pivots) of the continuous cell at a, lam=2."""
    dist = discretize(ContinuousSpec(2, a, 2, grid_m))
    sol = solve_auction_lp(2, dist, regime)
    return sol.optimum, sol.pivots


class TestGrid:
    def test_grid_b_values_structure(self):
        bs = grid_b_values(2, F(1, 2), F(1))
        v = breakpoints(AuctionSpec(2, F(1, 2), 1, 2))
        assert {v.v1, v.v2, v.v3} <= set(bs)
        assert len(bs) == 15  # 3 interior points in 4 intervals + 3 breakpoints
        assert all(b > 1 for b in bs)
        intervals = [(1, v.v1), (v.v1, v.v2), (v.v2, v.v3), (v.v3, 100)]
        for lo, hi in intervals:
            assert sum(1 for b in bs if lo < b < hi) >= 3

    def test_grid_b_values_zero_low(self):
        assert grid_b_values(2, F(1, 2), F(0)) == [1, 2, 3]

    def test_grid_size(self):
        specs = certification_grid()
        assert len(specs) == 2 * 5 * (15 + 3)
        assert len({(s.n, s.p, s.a, s.b) for s in specs}) == len(specs)


# ---------------------------------------------------------------------------
# The integer builder against a Fraction reference builder
# ---------------------------------------------------------------------------


def _ref_full_variables(n, profiles):
    q_vars = [("q", i, j, t) for t in profiles for i in range(n) for j in range(2)]
    u_vars = [("u", i, t) for t in profiles for i in range(n)]
    return q_vars, u_vars


def _ref_truthfulness_terms(dist, i, t_true, t_rep, others):
    truthful = insert(others, i, t_true)
    deviated = insert(others, i, t_rep)
    terms = [(("u", i, truthful), F(1)), (("u", i, deviated), F(-1))]
    for j in range(2):
        dv = dist.values[t_true[j]] - dist.values[t_rep[j]]
        if dv != 0:
            terms.append((("q", i, j, deviated), -dv))
    return terms


def _ref_build(n, dist, regime, symmetric):
    """Reference builder of the full per-profile program or, with
    `symmetric`, of the symmetric one: every coefficient summed as a
    Fraction, every variable mapped through `representative` on the spot if
    symmetric, and rows keyed by their Fraction coefficients, zero sums
    included.  Participation is a row, as the paper states it: u >= 0 per
    utility ('ir') or its interim sum >= 0 per type ('bir');
    `_fold_participation` reads those rows as the builder's bounds."""
    types = buyer_types(dist)
    weighted = enumerate_profiles(n, dist)
    profiles = [t for t, _ in weighted]
    q_vars, u_vars = _ref_full_variables(n, profiles)
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
        rows.setdefault((tuple(sorted(coeffs.items())), rel, rhs), (coeffs, rel, rhs, tag))

    for t in profiles:
        for j in range(2):
            add([(("q", i, j, t), F(1)) for i in range(n)], "<=", 1, "supply")

    buyers = range(1) if symmetric else range(n)
    others_space = enumerate_profiles(n - 1, dist)
    pairs = [(t_true, t_rep) for t_true in types for t_rep in types if t_rep != t_true]
    if regime == "dic":
        for t in profiles:
            for i in range(n):
                add([(("u", i, t), F(1))], ">=", 0, "ir")
        opponents = [o for o, _ in others_space if not symmetric or list(o) == sorted(o)]
        for i in buyers:
            for t_true, t_rep in pairs:
                adjacent = sorted(
                    (abs(t_true[0] - t_rep[0]), abs(t_true[1] - t_rep[1]))
                ) == [0, 1]
                tag = "dic_local" if adjacent else "dic"
                for others in opponents:
                    add(_ref_truthfulness_terms(dist, i, t_true, t_rep, others), ">=", 0, tag)
    else:
        for i in buyers:
            for t_i in types:
                add([(("u", i, insert(o, i, t_i)), w) for o, w in others_space],
                    ">=", 0, "bir")
        for i in buyers:
            for t_true, t_rep in pairs:
                adjacent = sorted(
                    (abs(t_true[0] - t_rep[0]), abs(t_true[1] - t_rep[1]))
                ) == [0, 1]
                add([(v, w * c) for o, w in others_space
                     for v, c in _ref_truthfulness_terms(dist, i, t_true, t_rep, o)],
                    ">=", 0, "bic_local" if adjacent else "bic")

    return make_lp(
        list(dict.fromkeys(map(col, q_vars + u_vars))), objective, rows.values()).validate()


# Equally spaced atoms: opposite one-step misreports on the two items cancel
# a symmetric truthfulness row's q coefficients, so rows are told apart by
# their zero entries.
SPACED_ATOMS = FiniteValueDistribution((F(0), F(1), F(2)), (F(1, 2), F(1, 3), F(1, 6)))

BUILDER_CASES = SYMMETRY_PARAMS + [
    pytest.param(n, AuctionSpec(n, p, a, b).dist, id=f"grid-{n}-{p}-{a}-{b}")
    for n, p, a, b, *_ in PINNED_PIVOTS
] + [
    pytest.param(2, SPACED_ATOMS, id="spaced-n2"),
    pytest.param(3, SPACED_ATOMS, id="spaced-n3", marks=pytest.mark.slow),
]


class TestAgainstFractionBuilder:
    @pytest.mark.parametrize("n,dist", BUILDER_CASES)
    @pytest.mark.parametrize("regime", ["dic", "bic"])
    @pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "full"])
    def test_identical_program(self, n, dist, regime, symmetric):
        # The built program against the symmetric reference, or against the
        # full per-profile reference with each orbit's variables reduced to
        # one column.
        lp = build_auction_lp(n, dist, regime)
        ref = _ref_build(n, dist, regime, symmetric)
        if not symmetric:
            ref = _reduce(ref)
        if regime == "bic":
            ref = _reduce(ref, interim_representative)
        ref = _fold_participation(ref)
        assert lp.variables == ref.variables
        assert list(lp.objective.items()) == list(ref.objective.items())
        assert lp.obj_scale == ref.obj_scale
        assert lp.objective_terms() == ref.objective_terms()
        assert len(lp.constraints) == len(ref.constraints)
        for row, ref_row in zip(lp.constraints, ref.constraints):
            assert row.coeffs == ref_row.coeffs
            assert (row.rel, row.rhs, row.scale, row.tag) == (
                ref_row.rel, ref_row.rhs, ref_row.scale, ref_row.tag)
        assert list(lp.rows()) == list(ref.rows())


class TestColumnMap:
    @pytest.mark.parametrize(
        "n,n_atoms", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (2, 4), (2, 6)])
    def test_per_cell_orbits_and_names_equal_the_representative_map(self, n, n_atoms):
        # Buyer i's q[i,1], q[i,2] and u[i] variables at every profile take
        # the orbits of its cell there, numbered and named as the
        # representatives in order of first appearance; a cell that no
        # profile holds has none.
        orbit, ref_names = reference_columns(n, n_atoms)
        names, (q1, q2, u) = oracle._columns(n, n_atoms, False)
        assert names == ref_names
        dist = FiniteValueDistribution(tuple(range(1, n_atoms + 1)), (F(1, n_atoms),) * n_atoms)
        u0 = 2 * n * n_atoms ** (2 * n)
        held = set()
        for pos, (t, _) in enumerate(enumerate_profiles(n, dist)):
            for i, x in enumerate(cells_at(dist, t)):
                held.add(x)
                assert (q1[x], q2[x], u[x]) == (
                    orbit[2 * (n * pos + i)], orbit[2 * (n * pos + i) + 1],
                    orbit[u0 + n * pos + i])
        assert {x for x, r in enumerate(u) if r is not None} == held
        assert q1.count(None) == q2.count(None) == u.count(None) == len(u) - len(held)

    @pytest.mark.parametrize("regime", ["dic", "bic"])
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_one_map_per_cold_solve(self, n, regime):
        # The builder, its candidates and the extraction all read the one
        # map of the regime's program, and its fixed rows that map's
        # allocation part: no other regime's map is built.
        for cached in (oracle._allocation_columns, oracle._columns, oracle._fixed_rows,
                       oracle._candidates):
            cached.cache_clear()
        solve_auction_lp(n, EXAMPLE.dist, regime)
        assert oracle._columns.cache_info().misses == 1
        assert oracle._allocation_columns.cache_info().misses == 1

    def test_one_set_of_supply_rows_for_both_regimes(self):
        # The supply rows read only the allocation columns, which both
        # regimes share: a DIC and then a BIC solve build them once.
        for cached in (oracle._allocation_columns, oracle._columns, oracle._fixed_rows):
            cached.cache_clear()
        for regime in ("dic", "bic"):
            solve_auction_lp(3, EXAMPLE.dist, regime)
        assert oracle._fixed_rows.cache_info().misses == 1
        assert oracle._allocation_columns.cache_info().misses == 1
        assert oracle._columns.cache_info().misses == 2
