"""Exact rational linear programming.

A dense tableau simplex over exact arithmetic.  The tableau is kept as a
numpy object array of Python integers with one shared denominator
(fraction-free Gauss-Jordan pivoting), so the hot loop is big-int
multiply/subtract/exact-divide instead of Fraction arithmetic.  Bland's rule
guarantees termination; the solver pivots on the largest coefficient and
falls back to Bland permanently once it stalls on degenerate pivots.

Solutions are certified: the assignment is re-substituted into every
constraint and into the objective with Fraction arithmetic before it is
returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import decimal_str, rat_str


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


class SimplexError(RuntimeError):
    pass


def _lcm(nums: Iterable[int]) -> int:
    out = 1
    for x in nums:
        out = out * x // math.gcd(out, x)
    return out


def _presolve_nonneg(lp: LinearProgram):
    """Split off single-variable rows of the form c*x >= 0 (c > 0) or
    c*x <= 0 (c < 0): they are exactly variable nonnegativity."""
    nonneg = set(lp.nonneg)
    rows = []
    for c in lp.constraints:
        if len(c.coeffs) == 1 and c.rhs == 0:
            (v, coef), = c.coeffs
            if (c.rel == ">=" and coef > 0) or (c.rel == "<=" and coef < 0):
                nonneg.add(v)
                continue
        rows.append(c)
    return rows, nonneg


class _Tableau:
    """Integer tableau with a shared (signed) denominator."""

    def __init__(self, matrix, denom=1):
        self.T = matrix  # object ndarray, last column = rhs
        self.d = denom

    def pivot(self, r: int, s: int):
        T = self.T
        piv = T[r, s]
        if piv == 0:
            raise SimplexError("zero pivot")
        row_r = T[r].copy()
        col_s = T[:, s].copy()
        T *= piv
        T -= np.outer(col_s, row_r)
        T //= self.d
        T[r] = row_r
        self.d = piv

    def value(self, r: int, c: int) -> Fraction:
        return Fraction(int(self.T[r, c]), int(self.d))

    def sign(self, r: int, c: int) -> int:
        x = self.T[r, c]
        if x == 0:
            return 0
        pos = (x > 0) == (self.d > 0)
        return 1 if pos else -1


#: Consecutive degenerate pivots tolerated before the pivot rule falls back
#: to Bland for good.  Bland is the anti-cycling guarantee; the largest-
#: coefficient rule is much faster on these programs, so the fallback is a
#: safety net rather than the common path.
STALL_LIMIT = 50_000


def _simplex_loop(tab: _Tableau, basis: list, obj_row: int, ncols: int, allowed):
    """Run pivots until the objective row has no positive reduced cost.

    `allowed(j)` filters columns permitted to enter.  Returns
    ("optimal", pivots) or ("unbounded", pivots).
    """
    T = tab.T
    m = len(basis)
    pivots = 0
    use_bland = False
    stall = 0
    while True:
        candidates = [
            j for j in range(ncols)
            if allowed(j) and tab.sign(obj_row, j) > 0
        ]
        if not candidates:
            return ("optimal", pivots)
        if use_bland:
            s = min(candidates)
        else:
            # Largest scaled reduced cost; deterministic smallest-index ties.
            best = None
            s = candidates[0]
            for j in candidates:
                key = abs(T[obj_row, j])
                if best is None or key > best:
                    best, s = key, j
        # Ratio test: smallest rhs/col over rows with positive column entry;
        # ties resolved toward the smallest leaving basis index (Bland).
        r = None
        best_num = best_den = None
        for i in range(m):
            if tab.sign(i, s) <= 0:
                continue
            num, den = T[i, -1], T[i, s]
            if r is None:
                r, best_num, best_den = i, num, den
                continue
            # num/den < best_num/best_den via cross-multiplication; the two
            # denominators share the tableau sign so den*best_den > 0 and
            # the inequality direction is preserved.
            lhs = num * best_den
            rhs = best_num * den
            if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                r, best_num, best_den = i, num, den
        if r is None:
            return ("unbounded", pivots)
        degenerate = T[r, -1] == 0
        tab.pivot(r, s)
        basis[r] = s
        pivots += 1
        stall = stall + 1 if degenerate else 0
        use_bland = use_bland or stall > STALL_LIMIT


def solve(lp: LinearProgram, lazy_tags: Sequence[str] = ()) -> LPSolution:
    """Exact simplex.  With `lazy_tags`, rows carrying those tags start out
    of the model and are added in rounds whenever the relaxation's optimum
    violates them; the returned solution satisfies every row exactly."""
    lp.validate()
    lazy_tags = set(lazy_tags)
    active = [c for c in lp.constraints if c.tag not in lazy_tags]
    pool = [c for c in lp.constraints if c.tag in lazy_tags]
    total_pivots = 0
    while True:
        sub = LinearProgram(
            variables=list(lp.variables),
            objective=dict(lp.objective),
            constraints=active,
            nonneg=set(lp.nonneg),
        )
        sol = _solve_dense(sub)
        total_pivots += sol.pivots
        if sol.status == "unbounded" and pool:
            # the withheld rows may bound the ray; fold them all in
            active, pool = active + pool, []
            continue
        if sol.status != "optimal":
            return LPSolution(sol.status, None, {}, total_pivots)
        violated = [c for c in pool if _violated(c, sol.assignment)]
        if not violated:
            sol = LPSolution(sol.status, sol.optimum, sol.assignment, total_pivots)
            _certify(lp, sol)
            return sol
        keep = {id(c) for c in violated}
        pool = [c for c in pool if id(c) not in keep]
        active = active + violated


def _violated(c: Constraint, assignment) -> bool:
    total = sum(coef * assignment[v] for v, coef in c.coeffs)
    return total > c.rhs if c.rel == "<=" else total < c.rhs


def _certify(lp: LinearProgram, sol: LPSolution):
    x = sol.assignment
    for v in lp.nonneg:
        if x[v] < 0:
            raise SimplexError(f"certificate failure: {v!r} negative")
    for c in lp.constraints:
        if _violated(c, x):
            raise SimplexError("certificate failure: constraint violated")
    obj = sum(coef * x[v] for v, coef in lp.objective.items())
    if obj != sol.optimum:
        raise SimplexError("certificate failure: objective mismatch")


def _solve_dense(lp: LinearProgram) -> LPSolution:
    rows, nonneg = _presolve_nonneg(lp)

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
    m = len(rows)

    # Integer data: every row (and the objective) is scaled by its own
    # positive lcm of denominators; row scaling changes no variable values.
    data = np.zeros((m + 1, nstruct + m + 1), dtype=object)
    neg_rhs_rows = []
    for i, c in enumerate(rows):
        sgn = 1 if c.rel == "<=" else -1
        scale = _lcm(
            [coef.denominator for _, coef in c.coeffs] + [c.rhs.denominator]
        )
        for v, coef in c.coeffs:
            data[i, col_of[v]] = int(sgn * coef * scale)
        data[i, nstruct + i] = 1  # slack
        data[i, -1] = int(sgn * c.rhs * scale)
        if data[i, -1] < 0:
            neg_rhs_rows.append(i)
    # second pass for free-variable negative columns
    for j, (v, part) in enumerate(columns):
        if part == -1:
            data[:, j] = -data[:, j - 1]
    obj_scale = _lcm([coef.denominator for coef in lp.objective.values()] or [1])
    for v, coef in lp.objective.items():
        j = col_of[v]
        data[m, j] = int(coef * obj_scale)
        if v not in nonneg:
            data[m, j + 1] = -int(coef * obj_scale)

    basis = [nstruct + i for i in range(m)]
    tab = _Tableau(data)
    ncols = nstruct + m
    pivots = 0

    if neg_rhs_rows:
        # Phase one: negate infeasible equality rows (slack coefficient
        # becomes -1), give each an artificial unit column, and minimize the
        # artificials' sum.
        nart = len(neg_rhs_rows)
        wide = np.zeros((m + 2, ncols + nart + 1), dtype=object)
        wide[: m + 1, :ncols] = data[:, :ncols]
        wide[: m + 1, -1] = data[:, -1]
        for k, i in enumerate(neg_rhs_rows):
            wide[i, :] = -wide[i, :]
            wide[i, ncols + k] = 1
            basis[i] = ncols + k
            wide[m + 1, :] += wide[i, :]
        for k in range(nart):
            wide[m + 1, ncols + k] = 0
        tab = _Tableau(wide)
        total_cols = ncols + nart
        status, p = _simplex_loop(tab, basis, m + 1, total_cols, lambda j: j < ncols)
        pivots += p
        if status != "optimal":
            raise SimplexError("phase one cannot be unbounded")
        if tab.value(m + 1, -1) != 0:
            return LPSolution("infeasible", None, {}, pivots)
        # Drive basic artificials out (degenerate pivots; zero rows are
        # redundant and dropped together with their artificial).
        drop_rows = []
        for i in range(m):
            if basis[i] >= ncols:
                entry = next(
                    (j for j in range(ncols) if tab.T[i, j] != 0), None
                )
                if entry is None:
                    drop_rows.append(i)
                else:
                    tab.pivot(i, entry)
                    basis[i] = entry
                    pivots += 1
        if drop_rows:
            keep = [i for i in range(m) if i not in set(drop_rows)]
            tab.T = tab.T[keep + [m, m + 1], :]
            basis = [basis[i] for i in keep]
            m = len(basis)
        tab.T = np.delete(tab.T, list(range(ncols, ncols + nart)), axis=1)
        tab.T = tab.T[:-1, :]

    status, p = _simplex_loop(tab, basis, m, ncols, lambda j: True)
    pivots += p
    if status == "unbounded":
        return LPSolution("unbounded", None, {}, pivots)

    values = {}
    for i, var_col in enumerate(basis):
        if var_col < nstruct:
            v, part = columns[var_col]
            values[(v, part)] = tab.value(i, -1)
    assignment = {}
    for v in lp.variables:
        assignment[v] = values.get((v, 1), Fraction(0)) - values.get(
            (v, -1), Fraction(0)
        )
    optimum = sum(coef * assignment[v] for v, coef in lp.objective.items())
    return LPSolution("optimal", optimum, assignment, pivots)


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
