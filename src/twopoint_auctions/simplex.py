"""Exact rational linear programming.

A primal simplex over a sparse exact tableau.  Each row, the objective row
included, is a dict of its nonzero integer entries over its own positive
denominator, divided by their common gcd after every update, so the entries
stay narrow.  A pivot touches only the rows with a nonzero in the entering
column, which the ratio test has already collected, and rewrites only the
pivot row's support in each of them; it rescales a whole row only when the
pivot row's denominator does not divide that row's multiplier, its entry
in the entering column.  The solver pivots on the largest reduced cost and
falls back to Bland's rule, the anti-cycling guarantee, once it stalls on
degenerate pivots; an infeasible origin is handled by a phase one over
artificials.

Solutions are certified exactly before they are returned, against every
constraint of the program, lazy rows included: the primal is substituted
into every constraint and the objective, and the dual read off the final
objective row must be sign-correct, dual-feasible and attain the same
objective (Applegate, Cook, Dash & Espinoza, "Exact solutions to linear
programming problems", Oper. Res. Lett. 2007).  The certificate compares
integers: each row over its own lcm scale, the primal and the scaled
duals each over one common denominator.  The program's data and the
solution are Fractions at the API.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .core import decimal_str, rat_str, scaled


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple  # tuple of (variable name, Fraction) pairs
    rel: str  # "<=" or ">="
    rhs: Fraction
    tag: str = ""

    def __post_init__(self):
        if self.rel not in ("<=", ">="):
            raise ValueError(f"relation must be <= or >=, got {self.rel!r}")


def make_constraint(coeffs: Mapping, rel: str, rhs, tag: str = "") -> Constraint:
    items = tuple((v, Fraction(c)) for v, c in coeffs.items() if c != 0)
    return Constraint(items, rel, Fraction(rhs), tag)


@dataclass
class LinearProgram:
    """A maximization LP over named variables.

    `nonneg` lists variables bounded below by zero; the rest are free.
    Every variable referenced by the objective or a constraint must be
    declared in `variables` (checked on validate()).
    """

    variables: list
    objective: dict
    constraints: list
    nonneg: set = field(default_factory=set)

    def validate(self):
        declared = set(self.variables)
        if len(declared) != len(self.variables):
            raise ValueError("duplicate variable declaration")
        for v in self.objective:
            if v not in declared:
                raise ValueError(f"objective references undeclared variable {v!r}")
        for c in self.constraints:
            for v, _ in c.coeffs:
                if v not in declared:
                    raise ValueError(f"constraint references undeclared variable {v!r}")
        for v in self.nonneg:
            if v not in declared:
                raise ValueError(f"nonneg references undeclared variable {v!r}")
        return self

    def n_constraints(self, tag=None) -> int:
        if tag is None:
            return len(self.constraints)
        return sum(1 for c in self.constraints if c.tag == tag)


@dataclass(frozen=True)
class LPSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    optimum: Fraction | None
    assignment: dict
    pivots: int = 0
    #: One multiplier per constraint of the program solved, in its order;
    #: empty when the solution carries no dual.
    duals: tuple = ()


class SimplexError(RuntimeError):
    pass


def _scaled_row(c: Constraint) -> tuple[int, list, int]:
    """A row times its scale, the lcm of its denominators: (scale,
    [(variable, integer coefficient)], integer right-hand side)."""
    scale = math.lcm(c.rhs.denominator, *(coef.denominator for _, coef in c.coeffs))
    coeffs = [(v, coef.numerator * (scale // coef.denominator)) for v, coef in c.coeffs]
    return scale, coeffs, c.rhs.numerator * (scale // c.rhs.denominator)


def _presolve_nonneg(lp: LinearProgram):
    """Split off single-variable rows of the form c*x >= 0 (c > 0) or
    c*x <= 0 (c < 0): they are exactly variable nonnegativity.  Returns the
    indices of the rows kept, those of the rows split off, and the
    nonnegative variables."""
    nonneg = set(lp.nonneg)
    kept, split = [], []
    for k, c in enumerate(lp.constraints):
        if len(c.coeffs) == 1 and c.rhs == 0:
            (v, coef), = c.coeffs
            if (c.rel == ">=" and coef > 0) or (c.rel == "<=" and coef < 0):
                nonneg.add(v)
                split.append(k)
                continue
        kept.append(k)
    return kept, split, nonneg


#: Key of the right-hand side in a tableau row; every other key is a column.
RHS = -1


class _Tableau:
    """Sparse exact tableau.

    Row i is a dict {column: int} of its nonzero entries, the right-hand
    side under `RHS`, over its own positive denominator `dens[i]`; each
    update divides a row by the gcd of its entries and denominator, so a
    row's form is unique.  A pivot changes a row holding the entering
    column in place, on the pivot row's support alone, and copies the whole
    row only to rescale it, when the pivot row's denominator does not
    divide the row's entry in that column.
    """

    def __init__(self, rows):
        self.rows = rows
        self.dens = [1] * len(rows)

    def pivot(self, r: int, s: int, holders: Sequence[int] | None = None):
        """Make column s the unit column of row r: rescale row r and update
        only the rows with a nonzero in column s, which `holders` lists
        when the caller has already scanned for them.

        Row i loses (a / dens[i]) * row r, a = row i's entry in column s.
        With den the pivot row's new denominator and g0 = gcd(a, den), the
        difference is over dens[i] * (den // g0): row i is rescaled by
        den // g0 only when that is not 1, and otherwise changes in place
        on row r's support alone."""
        rows, dens = self.rows, self.dens
        piv = rows[r].get(s, 0)
        if piv == 0:
            raise SimplexError("zero pivot")
        row = rows[r] if piv > 0 else {j: -x for j, x in rows[r].items()}
        row, den = _reduced(row, abs(piv))
        rows[r], dens[r] = row, den
        if holders is None:
            holders = [i for i, other in enumerate(rows) if s in other]
        for i in holders:
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

    def value(self, r: int, c: int) -> Fraction:
        return Fraction(self.rows[r].get(c, 0), self.dens[r])


def _reduced(row: dict, den: int):
    g = math.gcd(den, *row.values())
    if g == 1:
        return row, den
    return {j: x // g for j, x in row.items()}, den // g


#: Consecutive degenerate pivots tolerated before the pivot rule falls back
#: to Bland for good.  Bland is the anti-cycling guarantee; the largest-
#: coefficient rule is much faster on these programs, so the fallback is a
#: safety net rather than the common path.
STALL_LIMIT = 50_000


def _simplex_loop(tab: _Tableau, basis: list, obj_row: int, ncols: int):
    """Run pivots until the objective row has no positive reduced cost in
    the columns below `ncols`.  Returns ("optimal", pivots) or
    ("unbounded", pivots)."""
    rows = tab.rows
    m = len(basis)
    pivots = 0
    use_bland = False
    stall = 0
    while True:
        # The objective row's entries share one denominator, so the largest
        # numerator is the largest reduced cost; ties go to the smallest column.
        candidates = [
            (-x, j) for j, x in rows[obj_row].items() if x > 0 and 0 <= j < ncols
        ]
        if not candidates:
            return ("optimal", pivots)
        if use_bland:
            s = min(j for _, j in candidates)
        else:
            s = min(candidates)[1]
        # Ratio test: smallest rhs/col over rows with positive column entry
        # (each row's denominator cancels); ties resolved toward the
        # smallest leaving basis index (Bland).  The rows holding column s,
        # objective rows included, are the ones the pivot updates.
        holders = [i for i, row in enumerate(rows) if s in row]
        r = None
        best_num = best_col = None
        for i in holders:
            col = rows[i][s]
            if col <= 0 or i >= m:
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
            return ("unbounded", pivots)
        degenerate = best_num == 0
        tab.pivot(r, s, holders)
        basis[r] = s
        pivots += 1
        stall = stall + 1 if degenerate else 0
        use_bland = use_bland or stall > STALL_LIMIT


def solve(lp: LinearProgram, lazy_tags: Sequence[str] = ()) -> LPSolution:
    """Exact simplex.  With `lazy_tags`, rows carrying those tags start out
    of the model and are added in rounds whenever the relaxation's optimum
    violates them; the returned solution satisfies every row exactly, and
    its duals (zero on rows never added) prove it optimal."""
    lp.validate()
    lazy_tags = set(lazy_tags)
    active = [k for k, c in enumerate(lp.constraints) if c.tag not in lazy_tags]
    pool = [k for k, c in enumerate(lp.constraints) if c.tag in lazy_tags]
    total_pivots = 0
    while True:
        sub = LinearProgram(
            variables=list(lp.variables),
            objective=dict(lp.objective),
            constraints=[lp.constraints[k] for k in active],
            nonneg=set(lp.nonneg),
        )
        sol = _solve_once(sub)
        total_pivots += sol.pivots
        if sol.status == "unbounded" and pool:
            # the withheld rows may bound the ray; fold them all in
            active, pool = active + pool, []
            continue
        if sol.status != "optimal":
            return LPSolution(sol.status, None, {}, total_pivots)
        x, X = _integer_primal(sol.assignment)
        violated = [
            k for k in pool
            if _violated(lp.constraints[k].rel, _scaled_row(lp.constraints[k]), x, X)
        ]
        if not violated:
            duals = [Fraction(0)] * len(lp.constraints)
            for k, y in zip(active, sol.duals):
                duals[k] = y
            sol = LPSolution(sol.status, sol.optimum, sol.assignment, total_pivots, tuple(duals))
            _certify(lp, sol)
            return sol
        added = set(violated)
        pool = [k for k in pool if k not in added]
        active = active + violated


def _integer_primal(assignment) -> tuple[dict, int]:
    """The primal as integers over one denominator: ({variable: numerator}, X)."""
    nums, X = scaled(list(assignment.values()))
    return dict(zip(assignment, nums)), X


def _violated(rel: str, row, x: dict, X: int) -> bool:
    """Whether a `_scaled_row` fails at the integer primal x over X."""
    _, coeffs, rhs = row
    total = sum(a * x[v] for v, a in coeffs)  # over scale * X
    return total > rhs * X if rel == "<=" else total < rhs * X


def _certify(lp: LinearProgram, sol: LPSolution):
    """Check an optimum exactly against the whole program: the primal is
    feasible and attains the optimum, and the duals are sign-correct,
    dual-feasible (Aᵀy = c on free variables, Aᵀy ≥ c on nonnegative ones)
    and attain it too, b·y = c·x.

    The checks compare integers: each row is taken times its own scale
    (`_scaled_row`), the objective and the primal each over the lcm of
    their denominators (C and X), and each multiplier divided by its row's
    scale over the lcm Z of the quotients' denominators.
    """
    x, X = _integer_primal(sol.assignment)
    opt = sol.optimum
    for v in lp.nonneg:
        if x[v] < 0:
            raise SimplexError(f"certificate failure: {v!r} negative")
    rows = [_scaled_row(c) for c in lp.constraints]
    for c, row in zip(lp.constraints, rows):
        if _violated(c.rel, row, x, X):
            raise SimplexError("certificate failure: constraint violated")
    c_nums, C = scaled(list(lp.objective.values()))
    cx = sum(a * x[v] for v, a in zip(lp.objective, c_nums))  # over C * X
    if cx * opt.denominator != opt.numerator * C * X:
        raise SimplexError("certificate failure: objective mismatch")
    if len(sol.duals) != len(lp.constraints):
        raise SimplexError("certificate failure: no dual for every constraint")
    for c, y in zip(lp.constraints, sol.duals):
        if (y < 0) if c.rel == "<=" else (y > 0):
            raise SimplexError("certificate failure: dual of the wrong sign")
    # y * coef = (y / scale) * (coef * scale), row by row
    z, Z = scaled([Fraction(y, scale) for y, (scale, _, _) in zip(sol.duals, rows)])
    aty = dict.fromkeys(lp.variables, 0)  # over Z
    by = 0
    for zk, (_, coeffs, rhs) in zip(z, rows):
        if zk:
            by += zk * rhs
            for v, a in coeffs:
                aty[v] += zk * a
    for v in lp.variables:
        cv = lp.objective.get(v, 0)
        lhs, rhs = aty[v] * cv.denominator, cv.numerator * Z
        if (lhs < rhs) if v in lp.nonneg else (lhs != rhs):
            raise SimplexError(f"certificate failure: dual infeasible at {v!r}")
    if by * opt.denominator != opt.numerator * Z:
        raise SimplexError("certificate failure: dual objective mismatch")


def _solve_once(lp: LinearProgram) -> LPSolution:
    kept, split, nonneg = _presolve_nonneg(lp)

    # Column layout: one column per nonneg variable, two (x+ and x-) per
    # free variable, then slacks, then any phase-one artificials.
    columns = []  # (variable, +1|-1)
    col_of = {}
    for v in lp.variables:
        col_of[v] = len(columns)
        columns.append((v, 1))
        if v not in nonneg:
            columns.append((v, -1))
    nstruct = len(columns)
    m = len(kept)
    ncols = nstruct + m

    # Integer data: every row is turned into a <= row and scaled by its own
    # lcm of denominators (`scales` keeps the signed factor, for the duals);
    # row scaling changes no variable values.
    rows, scales, neg_rhs_rows = [], [], []
    for i, k in enumerate(kept):
        c = lp.constraints[k]
        scale, coeffs, rhs = _scaled_row(c)
        sign = -1 if c.rel == ">=" else 1
        row = {}
        for v, a in coeffs:
            row[col_of[v]] = sign * a
            if v not in nonneg:
                row[col_of[v] + 1] = -sign * a
        row[nstruct + i] = 1  # slack
        row[RHS] = sign * rhs
        if row[RHS] < 0:
            neg_rhs_rows.append(i)
        rows.append({j: x for j, x in row.items() if x})
        scales.append(sign * scale)
    obj_scale = math.lcm(*(coef.denominator for coef in lp.objective.values()))
    obj = {}
    for v, coef in lp.objective.items():
        obj[col_of[v]] = int(coef * obj_scale)
        if v not in nonneg:
            obj[col_of[v] + 1] = -obj[col_of[v]]
    rows.append({j: x for j, x in obj.items() if x})

    basis = [nstruct + i for i in range(m)]
    tab = _Tableau(rows)
    pivots = 0

    if neg_rhs_rows:
        # Phase one: negate infeasible equality rows (slack coefficient
        # becomes -1), give each an artificial unit column, and minimize the
        # artificials' sum.
        phase = {}
        for k, i in enumerate(neg_rhs_rows):
            rows[i] = {j: -x for j, x in rows[i].items()}
            for j, x in rows[i].items():
                phase[j] = phase.get(j, 0) + x
            rows[i][ncols + k] = 1
            basis[i] = ncols + k
        rows.append({j: x for j, x in phase.items() if x})
        tab.dens.append(1)
        status, p = _simplex_loop(tab, basis, m + 1, ncols)
        pivots += p
        if status != "optimal":
            raise SimplexError("phase one cannot be unbounded")
        if tab.value(m + 1, RHS) != 0:
            return LPSolution("infeasible", None, {}, pivots)
        # Drive basic artificials out with degenerate pivots.  The slack
        # columns give every row a nonzero below `ncols`.
        for i in range(m):
            if basis[i] >= ncols:
                entry = min((j for j in rows[i] if 0 <= j < ncols), default=None)
                if entry is None:
                    raise SimplexError("zero row after phase one")
                tab.pivot(i, entry)
                basis[i] = entry
                pivots += 1
        rows.pop()
        tab.dens.pop()
        for i, row in enumerate(rows):
            rows[i] = {j: x for j, x in row.items() if j < ncols}

    status, p = _simplex_loop(tab, basis, m, ncols)
    pivots += p
    if status == "unbounded":
        return LPSolution("unbounded", None, {}, pivots)

    values = {}
    for i, var_col in enumerate(basis):
        if var_col < nstruct:
            values[columns[var_col]] = tab.value(i, RHS)
    assignment = {}
    for v in lp.variables:
        assignment[v] = values.get((v, 1), Fraction(0)) - values.get(
            (v, -1), Fraction(0)
        )
    optimum = sum(coef * assignment[v] for v, coef in lp.objective.items())

    # Duals from the final objective row: a slack's reduced cost is minus
    # its row's multiplier; undo the row's signed scale and the objective's.
    # A split-off sign row takes its variable's reduced cost over its own
    # coefficient, which makes Aᵀy = c hold on a free variable that the
    # presolve made nonnegative.
    reduced = rows[m]
    d_obj = tab.dens[m] * obj_scale
    duals = [Fraction(0)] * len(lp.constraints)
    for i, k in enumerate(kept):
        duals[k] = Fraction(-reduced.get(nstruct + i, 0) * scales[i], d_obj)
    seen = set()
    for k in split:
        (v, coef), = lp.constraints[k].coeffs
        if v not in seen:
            seen.add(v)
            duals[k] = Fraction(reduced.get(col_of[v], 0), d_obj) / coef
    return LPSolution("optimal", optimum, assignment, pivots, tuple(duals))


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
    terms = [(v, c) for v, c in lp.objective.items() if c != 0]
    out.append("\\ exact: " + " + ".join(_term_str(c, _name_str(v), True) for v, c in terms))
    out.append(" obj: " + " + ".join(_term_str(c, _name_str(v), False) for v, c in terms))
    out.append("Subject To")
    for k, cons in enumerate(lp.constraints):
        body = " + ".join(_term_str(c, _name_str(v), False) for v, c in cons.coeffs)
        exact = " + ".join(_term_str(c, _name_str(v), True) for v, c in cons.coeffs)
        out.append(f"\\ exact: {exact} {cons.rel} {rat_str(cons.rhs)}")
        out.append(f" c{k}: {body} {cons.rel} {decimal_str(cons.rhs)}")
    out.append("Bounds")
    for v in lp.variables:
        name = _name_str(v)
        if v in lp.nonneg:
            out.append(f" {name} >= 0")
        else:
            out.append(f" {name} free")
    out.append("End")
    return "\n".join(out) + "\n"
