import dataclasses
import math
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.optimize

from twopoint_auctions import oracle, simplex
from twopoint_auctions.continuous import ContinuousSpec, discretize
from twopoint_auctions.core import AuctionSpec
from twopoint_auctions.simplex import (
    Constraint,
    LinearProgram,
    LPSolution,
    SimplexError,
    _certify,
    lp_to_text,
    solve,
)

from helpers import (
    assignment,
    duals,
    make_lp,
    n_constraints,
    reference_pivot,
    reference_simplex_loop,
    tag_pool,
)


def two_variable_lp():
    return make_lp(
        ["x", "y"],
        {"x": 2, "y": 3},
        [({"x": 1, "y": 1}, "<=", 4), ({"x": 1, "y": 3}, "<=", 6)],
    )


def lp1d(c, rows):
    return make_lp(["x"], {"x": c}, [({"x": a}, rel, b) for a, rel, b in rows])


class TestBasics:
    def test_one_dimensional(self):
        sol = solve(lp1d(1, [(1, "<=", F(3, 7))]))
        assert sol.optimum == F(3, 7)
        assert assignment(sol)["x"] == F(3, 7)

    def test_degenerate_redundant_rows_terminate(self, monkeypatch):
        monkeypatch.setattr(simplex, "STALL_LIMIT", 0)
        rows = [(1, "<=", 1)] * 6 + [(2, "<=", 2)] * 6 + [(1, ">=", 0)] * 4
        sol = solve(lp1d(1, rows))
        assert sol.optimum == 1

    def test_infeasible(self):
        # x >= 2 fails at the origin, so the program is refused before any
        # pivot, although the rows also exclude each other.
        with pytest.raises(ValueError, match=re.escape(
                "constraint 1 does not hold at the origin: >= 2 over 1")):
            solve(lp1d(1, [(1, "<=", 1), (1, ">=", 2)]))

    def test_unbounded(self):
        with pytest.raises(SimplexError, match="unbounded"):
            solve(lp1d(1, []))

    @pytest.mark.parametrize("row", [(1, ">=", 5), (-1, "<=", -5), (1, ">=", F(1, 10 ** 30))],
                             ids=["ge-positive", "le-negative", "ge-tiny"])
    def test_feasible_away_from_the_origin(self, row):
        # x >= 5 is feasible, but not at the origin: the contract refuses
        # it, exactly, however small its right-hand side.
        with pytest.raises(ValueError, match="constraint 0 does not hold at the origin"):
            solve(lp1d(-1, [row]))

    def test_two_variables_exact(self):
        sol = solve(two_variable_lp())
        assert sol.optimum == 9  # at the vertex x=3, y=1
        assert (assignment(sol)["x"], assignment(sol)["y"]) == (3, 1)

    def test_entries_wider_than_a_float(self):
        # x = W u, y = v / W and every row times W: the coefficients reach
        # W², the right-hand sides W and more, far past a float's range.
        W = 2 ** 1100 + 1
        narrow = make_lp(
            ["x", "y", "z"],
            {"x": 2, "y": 3, "z": 1},
            [({"x": 1, "y": 1, "z": 1}, "<=", 4), ({"x": 1, "y": 3}, "<=", 6),
             ({"x": -1, "z": 1}, "<=", 1)],
        )
        wide = make_lp(
            ["u", "v", "w"],
            {"u": 2 * W * W, "v": 3, "w": W},
            [({"u": W * W, "v": 1, "w": W}, "<=", 4 * W), ({"u": W * W, "v": 3}, "<=", 6 * W),
             ({"u": -W * W, "w": W}, "<=", W)],
        )
        small, sol = solve(narrow), solve(wide)
        _certify(wide, sol)
        assert sol.optimum == W * small.optimum
        x, y, z = assignment(small).values()
        assert list(assignment(sol).values()) == [x / W, y * W, z]

    def test_devex_norm_of_wide_entries(self):
        # log2(1 + (10**400)² + (10**-400)²), whose terms no float holds
        norm = simplex._log2_norm([(10 ** 400, 1), (1, 10 ** 400)])
        assert norm == pytest.approx(800 * math.log2(10))
        assert simplex._log2_norm([]) == 0.0

    def test_validation_rejects_undeclared(self):
        lp = LinearProgram(["x"], {1: 1}, 1, [])
        with pytest.raises(ValueError, match="declared columns"):
            solve(lp)

    def test_relation_validation(self):
        lp = LinearProgram(["x"], {0: 1}, 1, [Constraint(((0, 1),), "==", 0)])
        with pytest.raises(ValueError, match="relation"):
            solve(lp)

    @pytest.mark.parametrize(
        "row",
        [
            Constraint(((0, F(1)),), "<=", 1),
            Constraint(((0, 1.0),), "<=", 1),
            Constraint(((0, 0),), "<=", 1),
            Constraint(((0, 1),), "<=", F(1)),
            Constraint(((0, 1),), "<=", 1, scale=0),
            Constraint(((0, 1),), "<=", 1, scale=-2),
            Constraint(((1, 1),), "<=", 1),
            Constraint(((-1, 1),), "<=", 1),
            Constraint(((0, 1), (0, 2)), "<=", 1),
            Constraint(((0, 1),), "<", 1),
        ],
        ids=["fraction-coefficient", "float-coefficient", "zero-coefficient",
             "fraction-rhs", "zero-scale", "negative-scale", "column-past-end",
             "negative-column", "column-twice", "bad-rel"],
    )
    def test_invalid_constraint_raises_value_error(self, row):
        with pytest.raises(ValueError):
            solve(LinearProgram(["x"], {0: 1}, 1, [row]))


class TestRules:
    # With no stall allowed, the first degenerate pivot hands the solve to
    # Bland's rule for good.
    @pytest.mark.parametrize("stall_limit", [0, simplex.STALL_LIMIT], ids=["bland", "auto"])
    def test_rules_agree(self, monkeypatch, stall_limit):
        monkeypatch.setattr(simplex, "STALL_LIMIT", stall_limit)
        lp = make_lp(
            ["x", "y", "z"],
            {"x": 10, "y": -57, "z": -9},
            [
                ({"x": 1, "y": -11, "z": -5}, "<=", 0),
                ({"x": 1, "y": -3, "z": -1}, "<=", 0),
                ({"x": 1}, "<=", 1),
            ],
        )
        # a classic cycling-prone instance; both rules must terminate at 1
        assert solve(lp).optimum == 1


class TestLazyRows:
    """Rows joining in rounds through `solve`'s separator, here
    `helpers.tag_pool`: the rows of some tags are withheld, and each round
    adds those the optimum violates."""

    def test_lazy_matches_dense(self):
        # x <= 20 bounds the relaxation, which would otherwise raise.
        rows = [({"x": 1, "y": k}, "<=", k * k + 1, "lazy") for k in range(1, 20)]
        box = [({"y": 1}, "<=", 5), ({"x": 1}, "<=", 20)]
        lp = make_lp(["x", "y"], {"x": 1, "y": 3}, rows + box)
        dense = solve(lp)
        lazy = solve(*tag_pool(lp, ("lazy",)))
        assert dense.optimum == lazy.optimum

    def test_row_met_with_equality_is_not_added(self):
        # The relaxation's optimum (1, 1) meets both pool rows with
        # equality, the first over its scale 3; neither may be added, so
        # the solve is the relaxation's alone.
        def lp(rows):
            return make_lp(["x", "y"], {"x": 1, "y": 1}, rows)

        box = [({"x": 1}, "<=", 1), ({"y": 1}, "<=", 1)]
        lazy = [
            ({"x": F(1, 3), "y": F(1, 3)}, "<=", F(2, 3), "lazy"),
            ({"x": -1, "y": -1}, ">=", -2, "lazy"),
        ]
        alone = solve(lp(box))
        sol = solve(*tag_pool(lp(lazy + box), ("lazy",)))
        assert lp(lazy + box).constraints[0].scale == 3
        assert (sol.optimum, assignment(sol)) == (alone.optimum, assignment(alone))
        assert sol.pivots == alone.pivots
        assert sol.added == () and duals(sol) == duals(alone)

    def test_row_cutting_off_the_relaxation_optimum(self):
        # The relaxation's optimum (3, 3) breaks x + y <= 4, which the warm
        # round adds and repairs with dual pivots, to the vertex (3, 1).
        def lp(rows):
            return make_lp(["x", "y"], {"x": 2, "y": 1}, rows)

        box = [({"x": 1}, "<=", 3), ({"y": 1}, "<=", 3)]
        cut = [({"x": 1, "y": 1}, "<=", 4, "lazy")]
        relaxation = solve(lp(box))
        dense = solve(lp(box + cut))
        lazy = solve(*tag_pool(lp(box + cut), ("lazy",)))
        assert relaxation.optimum == 9 and dense.optimum == 7
        assert_same_solution(lazy, dense)
        assert lazy.added == tuple(lp(box + cut).constraints[2:])
        assert duals(lazy) == (F(1), F(0), F(1))
        assert lazy.pivots > relaxation.pivots

    def test_rows_making_the_program_infeasible(self):
        # x + y >= 3 cannot hold in the unit box, nor at the origin: it is
        # refused in the program and when the separator returns it.
        lp = make_lp(["x", "y"], {"x": 1, "y": 1},
                     [({"x": 1}, "<=", 1), ({"y": 1}, "<=", 1),
                      ({"x": 1, "y": 1}, ">=", 3, "lazy")])
        with pytest.raises(ValueError, match=re.escape(
                "constraint 2 (lazy) does not hold at the origin")):
            solve(lp)
        with pytest.raises(ValueError, match=re.escape(
                "constraint 0 (lazy) does not hold at the origin")):
            solve(*tag_pool(lp, ("lazy",)))

    def test_unbounded_relaxation_raises_without_separation(self):
        # Without its withheld rows y is unbounded: the solve raises and
        # never calls the separator, though the rows would bound the
        # program.
        lp = make_lp(["x", "y"], {"x": 1, "y": 2},
                     [({"x": 1}, "<=", 2), ({"y": 1}, "<=", 3, "lazy"),
                      ({"x": 1, "y": 1}, "<=", 4, "lazy")])
        relaxation, separate = tag_pool(lp, ("lazy",))
        calls = []
        with pytest.raises(SimplexError, match="unbounded"):
            solve(relaxation, lambda x, X: calls.append(X) or separate(x, X))
        assert calls == [] and solve(lp).optimum == 7

    def test_continuous_dic_program(self):
        lp = oracle.build_auction_lp(2, discretize(ContinuousSpec(2, 10, 2, 1)), "dic")
        assert n_constraints(lp, "dic") > 0
        dense = solve(lp)
        relaxation, separate = tag_pool(lp, ("dic",))
        lazy = solve(relaxation, separate)
        _certify(relaxation, lazy)
        assert (lazy.optimum, assignment(lazy)) == (dense.optimum, assignment(dense))
        assert duals_by_row(relaxation, lazy) == duals_by_row(lp, dense)


def assert_same_solution(sol, ref):
    assert sol.optimum == ref.optimum
    assert assignment(sol) == assignment(ref)
    assert duals(sol) == duals(ref)


def duals_by_row(lp, sol):
    """The solution's nonzero duals, each with its row, the added rows
    included."""
    rows = [*lp.constraints, *sol.added]
    return sorted((repr(c), y) for c, y in zip(rows, duals(sol)) if y)


def assert_unit_basis(tab, basis):
    """Each basic column is its row's unit column (the entry is the row's
    denominator) and zero in every other row, the objective row included."""
    for i, col in enumerate(basis):
        assert [row.get(col, 0) for row in tab.rows] == [
            tab.dens[i] if k == i else 0 for k in range(len(tab.rows))
        ]


class TestAddRows:
    """`_Solver.add_rows` refuses, with SimplexError, a tableau or a row
    that breaks what the warm start relies on."""

    # The box's optimum (3, 3) breaks CUT and meets LOOSE.
    CUT, LOOSE = make_lp(["x", "y"], {}, [({"x": 1, "y": 1}, "<=", 4),
                                          ({"x": 1, "y": 1}, "<=", 9)]).constraints

    def solver(self):
        lp = make_lp(["x", "y"], {"x": 2, "y": 1},
                     [({"x": 1}, "<=", 3), ({"y": 1}, "<=", 3)])
        return simplex._Solver(lp)

    def test_adds_the_row_and_repairs_the_basis(self):
        state = self.solver()
        assert state.add_rows([self.CUT]) > 0
        assert state.lp.constraints[2] == self.CUT
        assert state.primal() == ([3, 1], 1)
        assert_unit_basis(state.tab, state.basis)

    def test_basic_column_not_unit(self):
        state = self.solver()
        r = state.basis.index(0)
        state.tab.rows[r][0] *= 2
        with pytest.raises(SimplexError, match="not a unit column"):
            state.add_rows([self.CUT])

    def test_basic_column_left_in_the_row(self, monkeypatch):
        state = self.solver()
        monkeypatch.setattr(simplex._Tableau, "clear", lambda tab, r, s, targets: None)
        with pytest.raises(SimplexError, match="basic column is left"):
            state.add_rows([self.CUT])

    def test_row_that_holds(self):
        state = self.solver()
        with pytest.raises(SimplexError, match="holds at the current vertex"):
            state.add_rows([self.LOOSE])

    def test_dual_ratio_test_without_entering_column(self):
        # Rows that hold at the origin never reach this: basic x0 = -1 with
        # no negative entry proves the rows infeasible, a raised invariant.
        tab = simplex._Tableau([{0: 1, 1: 1, simplex.RHS: -1}, {}])
        with pytest.raises(SimplexError, match="row 0 has no entering column"):
            simplex._dual_simplex(tab, [0])


class TestCertificate:
    def test_tampered_solution_rejected(self):
        lp = lp1d(1, [(1, "<=", 1)])
        with pytest.raises(SimplexError):
            _certify(lp, LPSolution(F(2), 0, (2,), 1, (1,), 1))

    def test_tampered_dual_rejected(self):
        lp = two_variable_lp()
        sol = solve(lp)
        # (3, 1/2), (3/2, 0) and (-3/2, 1/2) over the denominator 2, and
        # (0, 3/2), sign-correct with b·y = 9 but Aᵀy = (3/2, 9/2) short of c
        # on x
        for dual in [(6, 1), (3, 0), (-3, 1), (0, 3)]:
            with pytest.raises(SimplexError, match="certificate failure"):
                _certify(lp, dataclasses.replace(sol, dual=dual, dual_den=2))

    def test_infeasible_primal_at_the_optimum_rejected(self):
        # (0, 3) attains 2x + 3y = 9 but breaks x + 3y <= 6.
        lp = two_variable_lp()
        sol = solve(lp)
        with pytest.raises(SimplexError, match="constraint violated"):
            _certify(lp, dataclasses.replace(sol, primal=(0, 3), primal_den=1))

    def test_wrong_sign_dual_rejected(self):
        # max x s.t. x <= 1, x <= 2: y = (3, -1) has Aᵀy = 2 >= 1 and b·y = 1,
        # and only its second sign is wrong.
        lp = lp1d(1, [(1, "<=", 1), (1, "<=", 2)])
        sol = solve(lp)
        with pytest.raises(SimplexError, match="wrong sign"):
            _certify(lp, dataclasses.replace(sol, dual=(3, -1), dual_den=1))

    def test_missing_dual_rejected(self):
        lp = two_variable_lp()
        sol = solve(lp)
        with pytest.raises(SimplexError, match="no dual"):
            _certify(lp, dataclasses.replace(sol, dual=()))


def _replaced(vector, k, value):
    return vector[:k] + (value,) + vector[k + 1:]


def flagship_program(regime):
    return oracle.build_auction_lp(2, AuctionSpec(2, F(1, 2), 1, 2).dist, regime)


class TestIntegerCertificate:
    """Each tampering below of a certified solution's integer vectors is
    refused: it changes c·x or b·y, breaks a dual's sign, or leaves a row
    without its dual."""

    @pytest.fixture(params=["two-variable", "auction-n2-dic", "auction-n2-bic"])
    def solved(self, request):
        if request.param == "two-variable":
            lp = two_variable_lp()
        else:
            lp = flagship_program(request.param.removeprefix("auction-n2-"))
        sol = solve(lp)
        _certify(lp, sol)
        return lp, sol

    def assert_refused(self, lp, sol, **changes):
        with pytest.raises(SimplexError, match="certificate failure"):
            _certify(lp, dataclasses.replace(sol, **changes))

    def test_primal_numerator_plus_one(self, solved):
        lp, sol = solved
        for j in lp.objective:
            self.assert_refused(lp, sol, primal=_replaced(sol.primal, j, sol.primal[j] + 1))

    def test_primal_denominator_doubled(self, solved):
        lp, sol = solved
        self.assert_refused(lp, sol, primal_den=2 * sol.primal_den)

    def test_dual_sign_flipped(self, solved):
        lp, sol = solved
        flipped = [k for k, y in enumerate(sol.dual) if y]
        assert flipped
        for k in flipped:
            self.assert_refused(lp, sol, dual=_replaced(sol.dual, k, -sol.dual[k]))

    def test_dual_numerator_off_by_one(self, solved):
        lp, sol = solved
        rows = [k for k, c in enumerate(lp.constraints) if c.rhs]
        assert rows
        for k in rows:
            for d in (1, -1):
                self.assert_refused(lp, sol, dual=_replaced(sol.dual, k, sol.dual[k] + d))

    @pytest.mark.parametrize("regime", ["dic", "bic"])
    def test_negative_utility_refused_by_its_bound(self, regime):
        # Participation is the utility columns' lower bound, with no row of
        # its own: a utility of -1 is refused as negative before any row is
        # read.
        lp = flagship_program(regime)
        sol = solve(lp)
        utilities = [j for j, v in enumerate(lp.variables) if v[0] in ("u", "U")]
        assert utilities
        for j in utilities:
            with pytest.raises(SimplexError, match=re.escape(
                    f"certificate failure: {lp.variables[j]!r} negative")):
                _certify(lp, dataclasses.replace(sol, primal=_replaced(sol.primal, j, -1)))

    def test_dual_vector_one_short(self, solved):
        lp, sol = solved
        self.assert_refused(lp, sol, dual=sol.dual[:-1])

    def test_optimum_off_by_one_over_x(self, solved):
        lp, sol = solved
        for d in (1, -1):
            self.assert_refused(lp, sol, optimum=sol.optimum + F(d, sol.primal_den))


class TestDuals:
    def test_two_variables(self):
        # 2 = y1 + y2 and 3 = y1 + 3*y2 at the vertex x=3, y=1; b.y = 9
        assert duals(solve(two_variable_lp())) == (F(3, 2), F(1, 2))

    def test_lower_bound_row_has_nonpositive_dual(self):
        # max y s.t. x - y >= -1, x <= 2: both rows bind at (2, 3), and
        # Aᵀy >= c reads y1 + y2 >= 0 on x and -y1 >= 1 on y.
        lp = make_lp(["x", "y"], {"y": 1},
                     [({"x": 1, "y": -1}, ">=", -1), ({"x": 1}, "<=", 2)])
        sol = solve(lp)
        assert (sol.optimum, duals(sol)) == (3, (F(-1), F(1)))

    def test_added_rows_take_their_duals_after_the_program_rows(self):
        # The relaxation's optimum x = 9 breaks both withheld rows; x <= 5
        # binds at the final optimum and x <= 7 is slack.
        rows = [({"x": 1}, "<=", k, "lazy") for k in (5, 7)]
        lp = make_lp(["x"], {"x": 1}, rows + [({"x": 1}, "<=", 9)])
        sol = solve(*tag_pool(lp, ("lazy",)))
        assert sol.added == tuple(lp.constraints[:2])
        assert sol.optimum == 5 and duals(sol) == (F(0), F(1), F(0))


def copy_tableau(tab):
    copy = simplex._Tableau([dict(row) for row in tab.rows])
    copy.dens = list(tab.dens)
    return copy


def random_tableau(rng, m, ncols):
    """m constraint rows and an objective row of small sparse integers,
    each over its own denominator, in reduced form."""
    rows, dens = [], []
    for _ in range(m + 1):
        cols = rng.sample(range(ncols), rng.randint(1, ncols // 2))
        row = {j: rng.choice((-4, -3, -2, -1, 1, 2, 3, 6)) for j in cols}
        row[simplex.RHS] = rng.randint(-6, 6)
        row = {j: x for j, x in row.items() if x}
        den = rng.choice((1, 1, 2, 3, 4, 6))
        g = math.gcd(den, *row.values())
        rows.append({j: x // g for j, x in row.items()})
        dens.append(den // g)
    tab = simplex._Tableau(rows)
    tab.dens = dens
    return tab


def assert_index(tab):
    """The column index lists only constraint rows, and the rows it lists
    that still hold a column are exactly the constraint rows holding it."""
    rows, m = tab.rows, len(tab.rows) - 1
    columns = {j for row in rows for j in row if j != simplex.RHS}
    for j in columns | tab.cols.keys() | tab.gained.keys():
        listed = {*tab.cols.get(j, ()), *(i for part in tab.gained.get(j, ()) for i in part)}
        assert listed <= set(range(m))
        assert {i for i in listed if j in rows[i]} == {i for i in range(m) if j in rows[i]}


# The cold cases solve with every row in the model.  The lazy case
# withholds every truthfulness row, so the relaxation's optimum breaks some
# and the warm rounds make dual pivots.  n3-p3/4's DIC program resets the
# Devex weights once, and every case changes the objective row's
# denominator.
SOLVER_CASES = pytest.mark.parametrize(
    "n,dist,lazy",
    [
        (3, AuctionSpec(3, F(1, 4), 1, F(31, 30)).dist, ()),
        (3, AuctionSpec(3, F(3, 4), 1, F(23, 14)).dist, ()),
        (2, discretize(ContinuousSpec(2, 10, 2, 1)), ()),
        (2, discretize(ContinuousSpec(2, 10, 2, 1)),
         ("dic", "dic_local", "bic", "bic_local")),
    ],
    ids=["n3-p1/4", "n3-p3/4", "continuous-a10-m1", "continuous-a10-m1-lazy"],
)


class TestPivotKernel:
    """`_Tableau.pivot` against `helpers.reference_pivot`, which copies
    every row holding the entering column whole: the two must leave the
    same rows and denominators after every pivot, and the column index
    must list the rows holding each column."""

    def test_random_tableaus(self):
        rng = random.Random(20261018)
        seen = set()
        for _ in range(60):
            m, ncols = rng.randint(2, 8), rng.randint(3, 10)
            tab = random_tableau(rng, m, ncols)
            for _ in range(3 * m):
                r = rng.randrange(m)
                cols = [j for j in tab.rows[r] if j != simplex.RHS]
                if not cols:
                    continue
                s = rng.choice(cols)
                before, ref = copy_tableau(tab), copy_tableau(tab)
                reference_pivot(ref, r, s)
                tab.pivot(r, s)
                assert tab.rows == ref.rows and tab.dens == ref.dens
                assert_index(tab)
                seen.update(pivot_cases(before, tab, r, s))
        assert seen == {"negative pivot", "den > 1", "rescaled", "in place",
                        "cancelled", "filled in"}

    @pytest.mark.parametrize("regime", ["dic", "bic"])
    @SOLVER_CASES
    def test_solver_tableaus(self, monkeypatch, n, dist, lazy, regime):
        pivot = simplex._Tableau.pivot
        dual_simplex = simplex._dual_simplex
        add_rows = simplex._Solver.add_rows
        calls, dual_pivots, warm_pivots = [], [], []

        def checked(tab, r, s, holders=None):
            ref = copy_tableau(tab)
            reference_pivot(ref, r, s)
            pivot(tab, r, s, holders)
            assert tab.rows == ref.rows and tab.dens == ref.dens
            assert_index(tab)
            calls.append((r, s))

        def checked_dual(tab, basis):
            assert_unit_basis(tab, basis)
            pivots = dual_simplex(tab, basis)
            dual_pivots.append(pivots)
            return pivots

        def checked_add_rows(state, new):
            pivots = add_rows(state, new)
            assert_unit_basis(state.tab, state.basis)
            assert_index(state.tab)
            warm_pivots.append(pivots)
            return pivots

        lp = oracle.build_auction_lp(n, dist, regime)
        if lazy:
            dense = solve(lp)
        monkeypatch.setattr(simplex._Tableau, "pivot", checked)
        monkeypatch.setattr(simplex, "_dual_simplex", checked_dual)
        monkeypatch.setattr(simplex._Solver, "add_rows", checked_add_rows)
        if lazy:
            sol = solve(*tag_pool(lp, lazy))
            assert sol.optimum == dense.optimum
            # a dual-feasible basis needs no primal pivot after the dual pivots
            assert warm_pivots == dual_pivots and sum(dual_pivots) > 0
        else:
            sol = solve(lp)
            assert not dual_pivots
        assert len(calls) == sol.pivots > 0


class TestIncrementalPricing:
    """`_simplex_loop` keeps the Devex scores in a heap and reads the
    entering column's rows from the index; `helpers.reference_simplex_loop`
    rescans the objective row and every row at each pivot.  From each
    solver tableau both must enter the same column and leave the same row
    at every pivot."""

    @pytest.mark.parametrize("stall_limit", [simplex.STALL_LIMIT, 0], ids=["devex", "bland"])
    @pytest.mark.parametrize("regime", ["dic", "bic"])
    @SOLVER_CASES
    def test_same_pivots_as_the_full_scan(self, monkeypatch, request, n, dist, lazy, regime,
                                          stall_limit):
        monkeypatch.setattr(simplex, "STALL_LIMIT", stall_limit)
        loop, pivot = simplex._simplex_loop, simplex._Tableau.pivot
        made, replays = [], []

        def recorded(tab, r, s, holders=None):
            made.append((r, s))
            pivot(tab, r, s, holders)

        def replayed(tab, basis):
            ref, ref_basis = copy_tableau(tab), list(basis)
            replays.append(reference_simplex_loop(ref, ref_basis, stall_limit))
            del made[:]
            pivots = loop(tab, basis)
            assert made == replays[-1][0] and pivots == len(made)
            assert (tab.rows, tab.dens, basis) == (ref.rows, ref.dens, ref_basis)
            return pivots

        monkeypatch.setattr(simplex._Tableau, "pivot", recorded)
        monkeypatch.setattr(simplex, "_simplex_loop", replayed)
        lp = oracle.build_auction_lp(n, dist, regime)
        solve(*tag_pool(lp, lazy)) if lazy else solve(lp)
        (made_ref, resets, den_changes, bland), = replays
        assert made_ref and den_changes > 0
        # The lazy case's relaxation makes no degenerate pivot.
        assert bland == (stall_limit == 0 and not lazy)
        assert (resets > 0) == (request.node.callspec.id == "n3-p3/4-dic-devex")


def pivot_cases(before, after, r, s):
    """The kinds of row update a pivot on (r, s) made."""
    if before.rows[r][s] < 0:
        yield "negative pivot"
    row, den = after.rows[r], after.dens[r]
    for i, old in enumerate(before.rows):
        if i == r or s not in old:
            continue
        if before.dens[i] > 1:
            yield "den > 1"
        yield "in place" if old[s] % den == 0 else "rescaled"
        new = after.rows[i]
        if any(j in old and j not in new for j in row if j != s):
            yield "cancelled"
        if any(j not in old for j in new):
            yield "filled in"


def random_lp(rng, nvars, nrows):
    """A random program that holds at the origin: <= rows with nonnegative
    right-hand sides, >= rows with nonpositive ones, and half the time a
    row bounding the sum of the variables, without which the program may be
    unbounded.  Each other row is tagged "lazy" at random."""
    variables = [f"x{i}" for i in range(nvars)]
    objective = {v: F(rng.randint(-5, 5)) for v in variables}
    constraints = []
    if rng.random() < 0.5:
        constraints.append(({v: F(1) for v in variables}, "<=", F(nvars * 6)))
    for _ in range(nrows):
        coeffs = {v: F(rng.randint(-4, 4)) for v in variables}
        rel = rng.choice(["<=", ">="])
        rhs = F(rng.randint(0, 12) if rel == "<=" else rng.randint(-12, 0))
        constraints.append((coeffs, rel, rhs, rng.choice(["", "lazy"])))
    return make_lp(variables, objective, constraints)


def highs(lp):
    """HiGHS's result for the program.  Its presolve is off: with it, HiGHS
    reports some unbounded draws, whose origin is feasible, as infeasible."""
    a_ub, b_ub = [], []
    for terms, rel, rhs, _ in lp.rows():
        coeffs = dict(terms)
        sgn = 1 if rel == "<=" else -1
        a_ub.append([sgn * float(coeffs.get(v, 0)) for v in lp.variables])
        b_ub.append(sgn * float(rhs))
    objective = dict(lp.objective_terms())
    return scipy.optimize.linprog(
        [-float(objective.get(v, 0)) for v in lp.variables],
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        bounds=(0, None),
        method="highs",
        options={"presolve": False},
    )


class TestAgainstScipy:
    """Random programs that hold at the origin against HiGHS: each optimum
    matches, and each unbounded draw raises.  Each bounded draw is solved
    again with its "lazy" rows withheld and separated, which drives the
    warm rounds' dual simplex."""

    def test_random_instances(self, monkeypatch):
        dual_simplex = simplex._dual_simplex
        dual_pivots = []

        def counted(tab, basis):
            dual_pivots.append(dual_simplex(tab, basis))
            return dual_pivots[-1]

        monkeypatch.setattr(simplex, "_dual_simplex", counted)
        rng = random.Random(20240811)
        kinds = dict.fromkeys(["solved cold", "unbounded", "relaxation unbounded",
                               "took dual pivots"], 0)
        for _ in range(60):
            lp = random_lp(rng, rng.randint(2, 5), rng.randint(1, 6))
            ref = highs(lp)
            assert ref.status in (0, 3)  # the origin is feasible
            if ref.status == 3:
                with pytest.raises(SimplexError, match="unbounded"):
                    solve(lp)
                kinds["unbounded"] += 1
                continue
            sol = solve(lp)
            assert abs(float(sol.optimum) + ref.fun) < 1e-7
            state = simplex._Solver(lp)
            assert state.pivots == sol.pivots
            assert_unit_basis(state.tab, state.basis)
            kinds["solved cold"] += 1
            relaxation, separate = tag_pool(lp, ("lazy",))
            if highs(relaxation).status == 3:
                with pytest.raises(SimplexError, match="unbounded"):
                    solve(relaxation, separate)
                kinds["relaxation unbounded"] += 1
                continue
            del dual_pivots[:]
            lazy = solve(relaxation, separate)
            assert lazy.optimum == sol.optimum
            assert (sum(dual_pivots) > 0) == bool(lazy.added)
            kinds["took dual pivots"] += sum(dual_pivots) > 0
        assert min(kinds.values()) >= 5, kinds


class TestExport:
    def test_text_export_contents(self):
        lp = make_lp([("q", 0)], {("q", 0): F(1, 16)}, [({("q", 0): 1}, "<=", 1)])
        text = lp_to_text(lp, "demo")
        assert text.startswith("\\ demo")
        assert "Maximize" in text and "Subject To" in text and "End" in text
        assert "1/16 q_0" in text  # exact comment
        assert "0.0625 q_0" in text  # decimal body
        assert "q_0 >= 0" in text
