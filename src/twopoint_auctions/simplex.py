"""Exact rational linear programming.

A program is a maximization over nonnegative columns, held in integers,
and every one of its rows holds at the origin.  A constraint is its
integer coefficients, keyed by column, and its right-hand side, all over
one positive scale and in lowest terms; the objective is integers over one
scale.  Variable names serve only the text export and diagnostics, and
`LinearProgram.rows` gives the rational view of the program.

A primal simplex over a sparse exact tableau.  Each row, the objective row
included, is a dict of its nonzero integer entries over its own positive
denominator, divided by their common gcd after every update, so the entries
stay narrow.  A pivot touches only the rows with a nonzero in the entering
column, which a column index lists without a scan of every row, and
rewrites only the pivot row's support in each of them; it rescales a whole
row only when the pivot row's denominator does not divide that row's
multiplier, its entry in the entering column.  The index holds every
constraint row holding each column, and may hold rows that have since lost
it: it grows only on the rows that a pivot can fill in, and drops the stale
rows when it is read.  The entering column is chosen by Devex pricing, the
largest squared reduced cost over a reference weight that approximates the
column's steepest-edge norm (Harris, "Pivot selection methods of the Devex
LP code", Math. Prog. 1973); the weights are floats, updated on the pivot
row's support, and only pick among the columns with a positive reduced
cost, so the pivots themselves stay exact.  The scores are kept in a heap
and recomputed only where a pivot changed them, on the pivot row's support,
or all of them when the objective row's denominator changes or the weights
reset; each is computed from the same numbers as a scan of the whole
objective row, so the pick is the scan's.  The solver falls back to Bland's
rule, the anti-cycling guarantee, once it stalls on degenerate pivots.  The
origin is feasible, so the solve starts at the slack basis.
Rows can also join in warm-started rounds, from a separation callback that
is given each optimum and returns the rows it violates: they join the
optimal tableau, each basic in its own slack, and dual simplex pivots under
Bland's rule, which is finite, restore primal feasibility without leaving
the optimal basis behind.  An unbounded program raises `SimplexError`.

Solutions are certified exactly before they are returned, against every
constraint of the program and every row added to it: the primal is
substituted into every constraint and the objective, and the dual read off
the final objective row must be sign-correct, dual-feasible and attain the
same objective (Applegate, Cook, Dash & Espinoza, "Exact solutions to
linear programming problems", Oper. Res. Lett. 2007).  The solver returns the
primal and the duals each as integer numerators over one denominator, and
the certificate compares integers against the rows as given.  A `Fraction`
is made only at the API edge: the optimum, the `assignment` and `duals`
views, and the rational row view.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .core import decimal_str, rat_str


@dataclass(frozen=True)
class Constraint:
    """sum(a * x[j] for j, a in coeffs) rel rhs, every number over `scale`.

    Coefficients are (column index, int) pairs with no zeros and no column
    twice.  The builders store a row in lowest terms,
    gcd(scale, coefficients, rhs) = 1, so equal rows compare equal."""

    coeffs: tuple
    rel: str  # "<=" or ">="
    rhs: int
    scale: int = 1
    tag: str = ""


@dataclass
class LinearProgram:
    """A maximization LP in integers over nonnegative columns, each of its
    rows holding at the origin.

    Column j is the variable `variables[j]`, bounded below by zero; the
    objective is sum(c * x[j] for j, c in objective.items()) / obj_scale,
    zeros left out.
    """

    variables: list
    objective: dict
    obj_scale: int
    constraints: list

    def validate(self):
        """Raise ValueError unless every relation is <= or >=, every scale a
        positive int, every right-hand side an int that the origin meets,
        and every coefficient a nonzero int at a declared column, one per
        column and row."""
        n = len(self.variables)
        if len(set(self.variables)) != n:
            raise ValueError("duplicate variable declaration")
        rows = [("objective", self.objective.items(), "<=", 0, self.obj_scale)]
        rows += [(f"constraint {k}" + (f" ({c.tag})" if c.tag else ""),
                  c.coeffs, c.rel, c.rhs, c.scale) for k, c in enumerate(self.constraints)]
        for what, terms, rel, rhs, scale in rows:
            if rel not in ("<=", ">="):
                raise ValueError(f"relation must be <= or >=, got {rel!r}")
            if type(scale) is not int or scale <= 0 or type(rhs) is not int:
                raise ValueError(f"{what} needs an int over a positive int scale, "
                                 f"got {rhs!r} over {scale!r}")
            cols = {j for j, a in terms if type(j) is int and 0 <= j < n and type(a) is int and a}
            if len(cols) != len(terms):
                raise ValueError(f"{what} coefficients must be nonzero ints at distinct "
                                 f"declared columns, got {tuple(terms)!r}")
            if rhs < 0 if rel == "<=" else rhs > 0:
                raise ValueError(f"{what} does not hold at the origin: {rel} {rhs} over {scale}")
        return self

    def objective_terms(self) -> list:
        """The objective as (variable, Fraction) terms."""
        names, scale = self.variables, self.obj_scale
        return [(names[j], Fraction(c, scale)) for j, c in self.objective.items()]

    def rows(self):
        """The constraints as rationals: (terms, rel, rhs, tag), the terms
        (variable, Fraction) pairs."""
        names = self.variables
        for c in self.constraints:
            terms = tuple((names[j], Fraction(a, c.scale)) for j, a in c.coeffs)
            yield terms, c.rel, Fraction(c.rhs, c.scale), c.tag


@dataclass(frozen=True)
class LPSolution:
    """An optimum and its certified vectors.

    The primal is x[j] = primal[j] / primal_den, one value per column; the
    duals are dual[k] / dual_den, one per constraint of the program solved,
    in its order, then one per row of `added`, the rows that joined the
    solve in its rounds.  `assignment` and `duals` are Fraction views of
    them, keyed by `variables`.
    """

    optimum: Fraction
    pivots: int
    primal: tuple
    primal_den: int
    dual: tuple
    dual_den: int
    variables: Sequence = field(default=(), repr=False, compare=False)
    added: tuple = field(default=(), repr=False)

    @property
    def assignment(self) -> dict:
        return {v: Fraction(x, self.primal_den) for v, x in zip(self.variables, self.primal)}

    @property
    def duals(self) -> tuple:
        return tuple(Fraction(y, self.dual_den) for y in self.dual)


class SimplexError(RuntimeError):
    pass


#: Key of the right-hand side in a tableau row; every other key is a column.
RHS = -1


class _Tableau:
    """Sparse exact tableau.

    Row i is a dict {column: int} of its nonzero entries, the right-hand
    side under `RHS`, over its own positive denominator `dens[i]`; each
    update divides a row by the gcd of its entries and denominator, so a
    row's form is unique.  The last row is the objective row, and the rows
    before it are the constraint rows.  A pivot changes a row holding the
    entering column in place, on the pivot row's support alone, and copies
    the whole row only to rescale it, when the pivot row's denominator does
    not divide the row's entry in that column.

    The column index finds the constraint rows holding a column without
    scanning every row: the rows of `cols[j]` and of the parts in
    `gained[j]` hold every constraint row holding column j.  They may also
    hold rows that have since lost the column, and a row more than once.
    `cols[j]` is a sorted list of rows, set when the tableau is made and
    each time `holders` reads the column.  A row gains a column only in a
    pivot on (r, s), which adds column s's holders to `gained[j]` as one
    part for each column j of row r, or when it joins the tableau.  The
    objective row is left out of the index: rows join just before that
    row, which shifts no indexed row.
    """

    def __init__(self, rows):
        self.rows = rows
        self.dens = [1] * len(rows)
        self.cols = cols = {}
        for i in range(len(rows) - 1):
            for j in rows[i]:
                if j in cols:
                    cols[j].append(i)
                else:
                    cols[j] = [i]
        cols.pop(RHS, None)
        self.gained = {}

    def insert(self, row: dict, where: dict) -> int:
        """Add `row`, over the denominator 1, as the last constraint row,
        just before the objective row, and price it: clear every basic
        column from it with that column's row.  `where` maps each basic
        column to its row, which must hold the column as a unit column.
        Returns the new row's index."""
        rows, dens = self.rows, self.dens
        i = len(rows) - 1
        rows.insert(i, row)
        dens.insert(i, 1)
        for col in [j for j in row if j in where]:
            r = where[col]
            if rows[r].get(col) != dens[r]:
                raise SimplexError("basic column is not a unit column")
            self.clear(r, col, (i,))
        if any(j in where for j in rows[i]):
            raise SimplexError(f"a basic column is left in row {i}")
        cols = self.cols
        for j in rows[i]:
            if j != RHS:
                cols.setdefault(j, []).append(i)
        return i

    def holders(self, s: int) -> list:
        """The constraint rows holding column s, in row order; they become
        the column's index, and the caller must not change the list."""
        rows, listed = self.rows, self.cols.get(s, ())
        parts = self.gained.pop(s, None)
        if parts is None:
            live = [i for i in listed if s in rows[i]]
        else:
            parts.append(listed)
            live = sorted({i for part in parts for i in part if s in rows[i]})
        self.cols[s] = live
        return live

    def pivot(self, r: int, s: int, holders: Sequence[int] | None = None):
        """Make column s the unit column of constraint row r: rescale row r
        and clear column s from the other rows holding it, the objective row
        included.  `holders` lists the constraint rows holding column s, in
        row order, when the caller has already read them with `holders`."""
        rows, dens = self.rows, self.dens
        piv = rows[r].get(s, 0)
        if piv == 0:
            raise SimplexError("zero pivot")
        row = rows[r] if piv > 0 else {j: -x for j, x in rows[r].items()}
        rows[r], dens[r] = _reduced(row, abs(piv))
        if holders is None:
            holders = self.holders(s)
        last = len(rows) - 1
        self.clear(r, s, [*holders, last] if s in rows[last] else holders)
        # A row that gained a column held column s and gained one of row r's.
        gained = self.gained
        for j in rows[r]:
            if j in gained:
                gained[j].append(holders)
            else:
                gained[j] = [holders]
        gained.pop(RHS, None)

    def clear(self, r: int, s: int, targets: Sequence[int]):
        """Clear column s from each row of `targets` other than r with row
        r, whose entry in column s is its denominator: a unit column.

        Row i loses (a / dens[i]) * row r, a = row i's entry in column s.
        With den row r's denominator and g0 = gcd(a, den), the difference
        is over dens[i] * (den // g0): row i is rescaled by den // g0 only
        when that is not 1, and otherwise changes in place on row r's
        support alone."""
        rows, dens = self.rows, self.dens
        row, den = rows[r], dens[r]
        for i in targets:
            if i == r:
                continue
            other = rows[i]
            a = other[s]
            g0 = math.gcd(a, den)
            mult, a = den // g0, a // g0
            if mult != 1:
                other = {j: x * mult for j, x in other.items()}
            for j, x in row.items():
                y = other.get(j, 0) - a * x
                if y:
                    other[j] = y
                else:
                    del other[j]
            rows[i], dens[i] = _reduced(other, dens[i] * mult)


def _reduced(row: dict, den: int):
    g = math.gcd(den, *row.values())
    if g == 1:
        return row, den
    return {j: x // g for j, x in row.items()}, den // g


#: Consecutive degenerate pivots tolerated before the pivot rule falls back
#: to Bland for good.  Bland is the anti-cycling guarantee; Devex pricing is
#: much faster on these programs, so the fallback is a safety net rather
#: than the common path, but the Devex loop's only termination guarantee.
STALL_LIMIT = 50_000

#: log2 of the factor by which the entering column's Devex weight may exceed
#: its steepest-edge weight before every weight is reset to 1.
_DEVEX_RESET = math.log2(10)


def _simplex_loop(tab: _Tableau, basis: list):
    """Primal simplex pivots, from a primal-feasible basis, until the
    objective row, the row after the last basic row, has no positive
    reduced cost.  Returns the pivots made; an entering column with no
    leaving row raises SimplexError: the program is unbounded.

    The entering column is chosen by Devex pricing (Forrest & Goldfarb,
    "Steepest-edge simplex algorithms for linear programming", Math. Prog.
    1992): it maximizes d_j² / w_j over the positive reduced costs d_j,
    ties to the smallest column, with reference weights w_j that start at 1
    and approximate the steepest-edge weight 1 + |B⁻¹a_j|².  After a pivot
    on (r, s), with l the column that left and α_rj the new row r's entry
    in column j, w_j = max(w_j, α_rj² w_s) on row r's support and w_l =
    max(α_rl² w_s, 1); every weight is reset to 1 before a pivot whose w_s
    exceeds 10 times 1 + |B⁻¹a_s|².  The weights are held as h_j =
    log2(w_j) / 2, which no width of the entries overflows, and only pick
    the entering column: that column always has a positive reduced cost,
    and the ratio test and the pivot stay exact.

    The scores log2(d_j) - h_j, d_j the objective row's numerator, are kept
    in a heap of (-score, j), with `score` holding each positive reduced
    cost's current entry, so the pick, the heap's least valid entry, is the
    largest score and then the smallest column.  While the objective row's
    denominator stays put, a pivot on row r changes the objective row and
    h only on row r's support, so only those scores are recomputed, each
    from the same d_j and h_j as a scan of the whole row would use: the
    pick is the scan's.  When the denominator changes every numerator
    changes, and when the weights reset every h_j does, and the heap is
    rebuilt from the whole row.  The ratio test reads the rows holding the
    entering column from the tableau's column index, in row order."""
    rows, dens = tab.rows, tab.dens
    m = len(basis)
    pivots = 0
    use_bland = False
    stall = 0
    log2, heappush = math.log2, heapq.heappush
    h = {}  # nonbasic column -> log2(w_j) / 2, absent for w_j = 1
    score = heap = None  # column -> -score, and the (-score, column) heap
    while True:
        # The objective row's entries share one denominator, so the scores
        # compare the numerators.
        s = None
        if use_bland:
            s = min((j for j, x in rows[m].items() if x > 0 and j != RHS), default=None)
        else:
            if score is None:
                score = {j: h.get(j, 0.0) - log2(x)
                         for j, x in rows[m].items() if x > 0 and j != RHS}
                heap = list(zip(score.values(), score))
                heapq.heapify(heap)
            while heap:
                v, j = heap[0]
                if score.get(j) == v:
                    s = j
                    break
                heapq.heappop(heap)
        if s is None:
            return pivots
        # Ratio test: smallest rhs/col over rows with positive column entry
        # (each row's denominator cancels); ties resolved toward the
        # smallest leaving basis index (Bland).  The constraint rows holding
        # column s and the objective row are the ones the pivot updates.
        holders = tab.holders(s)
        r = None
        best_num = best_col = None
        for i in holders:
            col = rows[i][s]
            if col <= 0:
                continue
            num = rows[i].get(RHS, 0)
            if r is None:
                r, best_num, best_col = i, num, col
                continue
            lhs = num * best_col
            rhs = best_num * col
            if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                r, best_num, best_col = i, num, col
        if r is None:
            raise SimplexError(f"the program is unbounded along column {s}")
        degenerate = best_num == 0
        # The norm is at least 1, so only a weight above 10 needs it.
        hs = h.pop(s, 0.0)
        obj_den = dens[m]
        if 2 * hs > _DEVEX_RESET and 2 * hs > _DEVEX_RESET + _log2_norm(
                [(rows[i][s], dens[i]) for i in holders]):
            h.clear()
            hs = 0.0
            score = None
        tab.pivot(r, s, holders)
        basis[r] = s
        pivots += 1
        stall = stall + 1 if degenerate else 0
        use_bland = use_bland or stall > STALL_LIMIT
        if use_bland or dens[m] != obj_den:
            score = None
        # Row r's support is the nonbasic columns, the one that left
        # included, and its unit entry in column s.
        c = hs - log2(dens[r])
        obj = rows[m]
        for j, x in rows[r].items():
            if j != s and j != RHS:
                v = log2(abs(x)) + c
                hj = h.get(j, 0.0)
                if v > hj:
                    h[j] = hj = v
                if score is not None:
                    d = obj.get(j, 0)
                    if d > 0:
                        score[j] = v = hj - log2(d)
                        heappush(heap, (v, j))
                    else:
                        score.pop(j, None)
        if score is not None:
            del score[s]
            if len(heap) > 2 * len(score):
                heap = list(zip(score.values(), score))
                heapq.heapify(heap)


def _log2_norm(entries) -> float:
    """log2(1 + sum((a / d)²)) over the (a, d) pairs, for entries of any
    width."""
    terms = [2 * (math.log2(abs(a)) - math.log2(d)) for a, d in entries]
    top = max([0.0, *terms])
    return top + math.log2(2.0 ** -top + sum(2.0 ** (t - top) for t in terms))


def solve(
    lp: LinearProgram, separate: Callable[[list, int], Sequence[Constraint]] | None = None
) -> LPSolution:
    """Exact simplex.  With `separate`, rows join in rounds: at each optimum,
    separate(x, X) returns the rows that the primal x / X violates, in a
    fixed order, and the solve ends at the first optimum for which it
    returns none.  The returned solution carries the rows added in `added`
    and is certified against the program's rows and those; its duals prove
    it optimal over both.

    The rounds are warm-started: the violated rows join the optimal tableau
    and dual simplex pivots under Bland's rule restore primal feasibility.
    The program and each row that joins it are validated: they hold at the
    origin.  An unbounded program raises SimplexError with no further call
    of `separate`."""
    lp.validate()
    state = _Solver(lp)
    x, X = state.primal()
    while separate and (rows := list(separate(x, X))):
        dataclasses.replace(lp, constraints=rows).validate()
        state.add_rows(rows)
        x, X = state.primal()
    y, Y = state.duals()
    cx = sum(c * x[j] for j, c in lp.objective.items())
    sol = LPSolution(Fraction(cx, lp.obj_scale * X), state.pivots, tuple(x), X, tuple(y), Y,
                     lp.variables, tuple(state.lp.constraints[len(lp.constraints):]))
    _certify(lp, sol)
    return sol


def _violated(c: Constraint, x: Sequence[int], X: int) -> bool:
    """Whether the row fails at the primal x / X."""
    total = sum(a * x[j] for j, a in c.coeffs)  # over scale * X
    rhs = c.rhs * X
    return total > rhs if c.rel == "<=" else total < rhs


def _certify(lp: LinearProgram, sol: LPSolution):
    """Check an optimum exactly against the whole program, its rows and the
    solution's added rows: the primal is nonnegative, feasible and attains
    the optimum, and the duals are sign-correct, dual-feasible (Aᵀy ≥ c,
    every column being nonnegative) and attain it too, b·y = c·x.

    Only the program and the solution's vectors are read.  The checks
    compare integers: row k over its scale s_k, the objective over
    obj_scale, the primal over X, and the duals, taken over each row's
    scale, over Y·S for S the lcm of the scales of the rows with a nonzero
    dual.
    """
    x, X = sol.primal, sol.primal_den
    y, Y = sol.dual, sol.dual_den
    opt = sol.optimum
    names, constraints = lp.variables, [*lp.constraints, *sol.added]
    if len(x) != len(names) or X <= 0:
        raise SimplexError("certificate failure: no primal value for every variable")
    for v, xj in zip(names, x):
        if xj < 0:
            raise SimplexError(f"certificate failure: {v!r} negative")
    for c in constraints:
        if _violated(c, x, X):
            raise SimplexError("certificate failure: constraint violated")
    cx = sum(c * x[j] for j, c in lp.objective.items())  # over obj_scale * X
    if cx * opt.denominator != opt.numerator * lp.obj_scale * X:
        raise SimplexError("certificate failure: objective mismatch")
    if len(y) != len(constraints) or Y <= 0:
        raise SimplexError("certificate failure: no dual for every constraint")
    for c, yk in zip(constraints, y):
        if (yk < 0) if c.rel == "<=" else (yk > 0):
            raise SimplexError("certificate failure: dual of the wrong sign")
    S = math.lcm(*(c.scale for c, yk in zip(constraints, y) if yk))
    aty = [0] * len(names)  # over Y * S
    by = 0
    for c, yk in zip(constraints, y):
        if yk:
            z = yk * (S // c.scale)
            by += z * c.rhs
            for j, a in c.coeffs:
                aty[j] += z * a
    YS, obj_scale, objective = Y * S, lp.obj_scale, lp.objective
    for j, v in enumerate(names):
        if aty[j] * obj_scale < objective.get(j, 0) * YS:
            raise SimplexError(f"certificate failure: dual infeasible at {v!r}")
    if by * opt.denominator != opt.numerator * YS:
        raise SimplexError("certificate failure: dual objective mismatch")


class _Solver:
    """One solve's tableau, kept across its rounds.

    Tableau row i holds row i of `lp`, the solver's copy of the program,
    made a <= row by `signs[i]`, with the slack column nvars + i; column
    j < nvars is variable j, and the objective row comes last.  The
    constructor solves the program, which holds at the origin, from the
    slack basis, a feasible one, and sets `pivots`; an unbounded program
    raises SimplexError.  At the optimum `primal` and `duals` read the
    vectors off the tableau, and `add_rows` adds rows to the program."""

    def __init__(self, lp: LinearProgram):
        self.lp = lp = dataclasses.replace(lp, constraints=list(lp.constraints))
        self.nvars = nvars = len(lp.variables)
        self.signs = []
        rows = self._rows(lp.constraints)
        self.basis = basis = [nvars + i for i in range(len(rows))]
        rows.append(dict(lp.objective))
        self.tab = _Tableau(rows)
        self.pivots = _simplex_loop(self.tab, basis)

    def _rows(self, constraints: Sequence[Constraint]) -> list:
        """The rows `constraints` as <= rows, each with the next slack column
        and its integer entries over the denominator 1; appends their signs
        to `signs`."""
        signs, out = self.signs, []
        for c in constraints:
            sign = -1 if c.rel == ">=" else 1
            row = {j: sign * a for j, a in c.coeffs}
            row[self.nvars + len(signs)] = 1  # slack
            if c.rhs:
                row[RHS] = sign * c.rhs
            signs.append(sign)
            out.append(row)
        return out

    def add_rows(self, new: Sequence[Constraint]) -> int:
        """Add the rows `new`, each violated at the optimal basis and each
        holding at the origin, to the program, and restore primal
        feasibility with dual simplex pivots, to the new optimum.  Returns
        the pivots made.

        A new row is made basic in its own slack once it is priced: every
        basic column is cleared from it with that column's row, which leaves
        the row's value at the current vertex, negative, in its right-hand
        side.  The objective row does not change, so the basis stays dual
        feasible, and a dual simplex that ends primal feasible ends
        optimal."""
        tab, basis = self.tab, self.basis
        rows = tab.rows
        where = {col: i for i, col in enumerate(basis)}
        self.lp.constraints += new
        for row in self._rows(new):
            i = tab.insert(row, where)
            if rows[i].get(RHS, 0) >= 0:
                raise SimplexError("an added row holds at the current vertex")
            where[self.nvars + i] = i
            basis.append(self.nvars + i)
        pivots = _dual_simplex(tab, basis)
        self.pivots += pivots
        return pivots

    def primal(self):
        """The primal as integers x over X, one per column; X is the lcm of
        the denominators of the basic rows that hold a nonzero structural
        value."""
        rows, dens, nvars = self.tab.rows, self.tab.dens, self.nvars
        basic = [(i, col) for i, col in enumerate(self.basis)
                 if col < nvars and RHS in rows[i]]
        X = math.lcm(*(dens[i] for i, _ in basic))
        x = [0] * nvars
        for i, col in basic:
            x[col] = rows[i][RHS] * (X // dens[i])
        return x, X

    def duals(self):
        """The duals as integers y over Y, one per row of the program.

        They come from the final objective row, over Y = dens[m] *
        obj_scale: a slack's reduced cost is minus its row's multiplier
        times the row's signed scale."""
        m = len(self.signs)
        reduced = self.tab.rows[m]
        y = [-reduced.get(self.nvars + i, 0) * sign * c.scale
             for i, (c, sign) in enumerate(zip(self.lp.constraints, self.signs))]
        return y, self.tab.dens[m] * self.lp.obj_scale


def _dual_simplex(tab: _Tableau, basis: list):
    """Dual simplex pivots, from a dual-feasible basis, until every
    right-hand side is nonnegative.  Bland's rule: the leaving row is the
    one with a negative right-hand side whose basic column is smallest, and
    the entering column the one with the smallest ratio obj[j] / a[j] over
    the row's negative entries, ties to the smallest column; the objective
    row is the row after the last basic row.  The rule is finite.  Returns
    the pivots made once every right-hand side is nonnegative; a leaving row
    with no negative entry would prove rows that hold at the origin
    infeasible, and raises SimplexError."""
    rows = tab.rows
    m = len(basis)
    pivots = 0
    while True:
        leaving = [(basis[i], i) for i in range(m) if rows[i].get(RHS, 0) < 0]
        if not leaving:
            return pivots
        r = min(leaving)[1]
        # The objective row's entries share one denominator and so do row
        # r's; with a, best_a < 0, o / a < best_o / best_a is
        # o * best_a < best_o * a.
        obj = rows[m]
        s = best_o = best_a = None
        for j, a in rows[r].items():
            if a >= 0 or j == RHS:
                continue
            o = obj.get(j, 0)
            if s is None or o * best_a < best_o * a or (o * best_a == best_o * a and j < s):
                s, best_o, best_a = j, o, a
        if s is None:
            raise SimplexError(f"row {r} has no entering column: the rows are infeasible")
        tab.pivot(r, s)
        basis[r] = s
        pivots += 1


# ---------------------------------------------------------------------------
# Textual export
# ---------------------------------------------------------------------------


def _name_str(v) -> str:
    if isinstance(v, tuple):
        return "_".join(_name_str(x) for x in v)
    return str(v)


def _term_str(coef: Fraction, name: str, exact: bool) -> str:
    c = rat_str(coef) if exact else decimal_str(coef)
    return f"{c} {name}"


def lp_to_text(lp: LinearProgram, title: str = "lp") -> str:
    """Human-readable LP text: decimal coefficients in the body, the exact
    fractions in comment lines, for cross-checks with external solvers."""
    out = [f"\\ {title}", "\\ exact coefficients appear in comments", "Maximize"]
    terms = [(v, c) for v, c in lp.objective_terms() if c != 0]
    out.append("\\ exact: " + " + ".join(_term_str(c, _name_str(v), True) for v, c in terms))
    out.append(" obj: " + " + ".join(_term_str(c, _name_str(v), False) for v, c in terms))
    out.append("Subject To")
    for k, (coeffs, rel, rhs, _) in enumerate(lp.rows()):
        body = " + ".join(_term_str(c, _name_str(v), False) for v, c in coeffs)
        exact = " + ".join(_term_str(c, _name_str(v), True) for v, c in coeffs)
        out.append(f"\\ exact: {exact} {rel} {rat_str(rhs)}")
        out.append(f" c{k}: {body} {rel} {decimal_str(rhs)}")
    out.append("Bounds")
    out.extend(f" {_name_str(v)} >= 0" for v in lp.variables)
    out.append("End")
    return "\n".join(out) + "\n"
