"""Brute-force LP certification of the optimal revenues.

The oracle knows nothing about the closed forms: it maximizes expected
payment over *all* feasible allocation/utility tables, subject to either the
per-profile truthfulness constraints (dominant-strategy program) or the
interim ones (Bayesian program), and reports the exact optimum.  Agreement
with the formula module is then an exact rational equality test.

The programs work over any finite per-item value distribution shared by
all buyers and both items; the two-point family is the special case with
two atoms.  Because the distribution is exchangeable across buyers and items,
every program here is invariant under the buyer/item symmetry group, and
averaging any optimum over that group gives a symmetric one (Daskalakis &
Weinberg, EC 2012).  So the package builds only the symmetric program, one
variable per orbit, directly; the full per-profile program is not built.
Every optimum is read into a mechanism's cell tables and audited as a
mechanism: supply, the regime's participation and truthfulness audits, and
its expected revenue.  Participation, u >= 0 or interim U >= 0, is the
utility columns' lower bound: the solver takes every column nonnegative.

The Bayesian program rests on a second averaging argument.  Buyer i's
utilities u_i(x, o), at type x against opponents o, enter its participation
and truthfulness rows only through the interim utility U_i(x) =
sum_o w_o u_i(x, o) / W(n-1) (Border, Econometrica 1991), the supply rows
not at all, and the objective through Pr(x) w_o u_i(x, o), so again
through U_i(x).  Replacing each u_i(x, .) by its average U_i(x) therefore
keeps every row and the objective's value: a feasible solution stays
feasible with the same objective.  So the symmetric Bayesian program has
one utility column per type orbit (a type and its item swap) in place of
one per cell, bounded below by zero as the interim participation U >= 0
asks, and every cell of the extracted mechanism takes its type's utility.
The dominant-strategy program, whose rows read each u_i(x, o) on its own,
keeps one utility column per cell.

Both regimes share one truthfulness candidate, the index pair (k, o) of
a misreport k and an opponent class o: a buyer's dominant-strategy row
against that class's opponent profiles.  The Bayesian row (k, None) sums
those rows over the classes by weight.  Every program is solved by one
rule: the rows of the seeded misreports, the one-step ones (tagged
'dic_local' or 'bic_local'), with two atoms only the downward ones
(`_candidates`), are in the model from the start.  At each optimum the
separator reads every other candidate at the primal, folded over the
classes by weight for a Bayesian one, and builds it as a row only when
the primal violates it.  `build_auction_lp` (and `certify --lp-export`)
turns every candidate into a row: the program whose optimum is certified.

The program stays in integers from the builder to the mechanism audit:
every row and the objective are summed and deduplicated over one scale per
program and handed to the solver in lowest terms, and the solver's primal,
integers over one denominator, becomes the mechanism's tables directly.
The symmetric program's columns are the type-count cells (class and own
type), the index the closed-form mechanisms are built on, joined under the
item swap; they depend only on n, the number of atoms and the regime, so one
column map per (n, atoms, regime) serves every build and extraction.  The
objective and every row are summed over the classes and the opponents'
classes (`opponent_cells`), weighted by their probabilities
(`class_weights`), never over the profiles.  So a program's size is
capped in the unit its build walks, the type-count cells: C(n + T - 1,
T - 1) classes of T types, times T.  An instance of more than `CELL_CAP`
cells is refused before any of it is built.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import sys
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from . import audit
from .core import (
    AuctionSpec,
    CapExceeded,
    FiniteValueDistribution,
    atom_types,
    buyer_types,
    class_weights,
    opponent_cells,
    profile_classes,
    rat_str,
    scaled,
    type_pairs,
    value_differences,
)
from .formulas import breakpoints, revenue_bic, revenue_dic
from .mechanisms import Mechanism
from .simplex import Constraint, LinearProgram, LPSolution, solve

#: Ceiling on an auction program's type-count cells: it admits every
#: two-atom n <= 34 (31,080 cells at n = 34) and the continuous grid_m <= 3
#: (23,976), and refuses n >= 35 and grid_m = 4 (133,120 cells, whose DIC
#: program ran past 900 s).
CELL_CAP = 2 ** 15

#: The fewest type-count cells, summed over a batch's jobs, for which
#: `solve_auction_lps` forks: below it a fork and the pickled results cost
#: more than the solves they overlap.
PARALLEL_CELLS = 2 ** 9


@functools.lru_cache(maxsize=4)
def _held(n: int, n_types: int) -> tuple:
    """Per class of n buyers (`profile_classes` order), the cells that its
    buyers hold, in type order, each with the number of buyers holding it."""
    return tuple(tuple((k * n_types + c, m) for c, m in enumerate(key) if m)
                 for k, key in enumerate(profile_classes(n, n_types)))


@functools.lru_cache(maxsize=4)
def _allocation_columns(n: int, n_atoms: int) -> tuple:
    """The allocation part of `_columns`, which both regimes share: each
    cell's item-swapped cell, the held cells in class order, the allocation
    orbits in column order, each as its first cell, and each cell's columns
    of its shares of item 1 and item 2."""
    types = atom_types(n_atoms)
    n_types = len(types)
    keys = profile_classes(n, n_types)
    # The item swap sends type (x1, x2) to (x2, x1), and a cell to the cell
    # of its class with the types swapped and of its own type swapped.
    flip = [x2 * n_atoms + x1 for x1, x2 in types]
    classes = {key: k for k, key in enumerate(keys)}
    swap = tuple(classes[tuple(key[s] for s in flip)] * n_types + flip[c]
                 for key in keys for c in range(n_types))
    held = tuple(x for cells in _held(n, n_types) for x, _ in cells)
    orbits = tuple(dict.fromkeys(y for x in held for y in (x, swap[x])))
    ids = {x: r for r, x in enumerate(orbits)}
    q1, q2 = (tuple(map(ids.get, xs)) for xs in (range(len(swap)), swap))
    return swap, held, orbits, q1, q2


@functools.lru_cache(maxsize=8)
def _columns(n: int, n_atoms: int, interim: bool) -> tuple[tuple, tuple]:
    """Each column's name in the symmetric program, and the columns of each
    cell's share of item 1, share of item 2 and utility (None at a cell
    that no profile holds).

    A cell's share of item 1 is its own allocation orbit, its share of
    item 2 the item-swapped cell's, its utility the smaller cell's of the
    two or, with `interim`, its type orbit's (the type and its item swap):
    the Bayesian program's interim utility (see the module docstring).
    The orbits are numbered in order of first appearance over the held
    cells in class order, first each cell's allocation and its swapped
    cell's, then each cell's utility: the order of the full program's
    variables, since each class's cells first appear together, in type
    order, at its sorted profile.  Each is named after its least member:
    buyer 0's type first, the others' sorted, item 0 for an allocation and
    the smaller profile of the two for a utility, or ("U", 0, the smaller
    type).  The allocation columns come first and do not depend on
    `interim`: they are `_allocation_columns`'s.
    """
    swap, held, q_orbits, q1, q2 = _allocation_columns(n, n_atoms)
    types = atom_types(n_atoms)
    n_types = len(types)
    keys = profile_classes(n, n_types)
    if interim:
        u_key = [min(x % n_types, y % n_types) for x, y in enumerate(swap)]
    else:
        u_key = [min(x, y) for x, y in enumerate(swap)]
    u_orbits = tuple(dict.fromkeys(u_key[x] for x in held))
    ids = {x: len(q_orbits) + r for r, x in enumerate(u_orbits)}

    def profile(x):
        key, c = keys[x // n_types], x % n_types
        return (types[c],) + tuple(
            t for s, t in enumerate(types) for _ in range(key[s] - (s == c)))

    names = tuple(("q", 0, 0, profile(x)) for x in q_orbits) + tuple(
        ("U", 0, types[x]) if interim else ("u", 0, min(profile(x), profile(swap[x])))
        for x in u_orbits)
    # A cell is held iff its swapped cell is, so its utility has a column
    # iff its share of item 1 has one.
    u = tuple(None if r is None else ids[x] for r, x in zip(q1, u_key))
    return names, (q1, q2, u)


@functools.lru_cache(maxsize=4)
def _fixed_rows(n: int, n_atoms: int) -> tuple:
    """The supply rows, each distinct row kept once in order of first
    appearance: the program's rows that depend on neither values nor
    probabilities, nor on the regime.

    In lowest terms a supply row, one per class and item, is its columns'
    multiplicities <= 1, the count of buyers at each cell.  No
    truthfulness row equals one: only supply rows are <= rows.  They read
    only the allocation columns, which both regimes share."""
    *_, q1, q2 = _allocation_columns(n, n_atoms)
    supply = {}
    # The cells of one class lie in distinct orbits of each item.
    for cells in _held(n, n_atoms ** 2):
        for q in (q1, q2):
            coeffs = {q[x]: m for x, m in cells}
            supply.setdefault(tuple(sorted(coeffs.items())), coeffs)
    return tuple(Constraint(tuple(c.items()), "<=", 1, 1, "supply") for c in supply.values())


class _Candidates(NamedTuple):
    """A program's truthfulness candidates, read through its column map.

    A candidate is an index pair (k, o): the misreport `pairs[k]`, type
    index x reporting y, against the opponent class o (`opponent_cells`
    order), or (k, None), the Bayesian row, summed over the classes by
    weight.  `cells[x][o]` is the (u, q1, q2) columns of a buyer at type x
    against class o; `local` flags the one-step misreports (one atom along
    one item) and `seeded` those whose rows are seeded (`_candidates`)."""

    pairs: tuple
    local: tuple
    seeded: tuple
    cells: tuple


@functools.lru_cache(maxsize=8)
def _candidates(n: int, n_atoms: int, regime: str) -> _Candidates:
    """The program's truthfulness candidates: one buyer's alone, since
    every buyer's rows repeat each other, and one per opponent class, since
    opponent profiles of one class give the same row.  Their columns come
    from `_columns`, the interim ones in the Bayesian program.

    The seeded misreports are the one-step ones, and with two atoms only
    the downward ones, whose reported type is lower: the downward rows pin
    the optimum down (Myerson, Math. Oper. Res. 1981), and the upward
    one-step rows of a two-atom program almost never bind.  With more
    atoms the upward one-step rows keep most other candidates from being
    separated, so they are seeded too."""
    types, pairs = atom_types(n_atoms), type_pairs(n_atoms)
    local = tuple(sorted(abs(a - b) for a, b in zip(types[x], types[y])) == [0, 1]
                  for x, y in pairs)
    seeded = tuple(one_step and (n_atoms > 2 or sum(types[y]) < sum(types[x]))
                   for one_step, (x, y) in zip(local, pairs))
    _, (q1, q2, u) = _columns(n, n_atoms, regime == "bic")
    at = opponent_cells(n, len(types))
    cells = tuple(tuple((u[c[x]], q1[c[x]], q2[c[x]]) for c in at) for x in range(len(types)))
    return _Candidates(pairs, local, seeded, cells)


def check_cell_cap(n: int, n_atoms: int, regime: str) -> int:
    """The type-count cells of the regime's program of n buyers over
    n_atoms atoms; a bad regime raises ValueError and more than `CELL_CAP`
    cells CapExceeded, whose message gives only a bound when a number in it
    is too long to print."""
    if regime not in ("dic", "bic"):
        raise ValueError("regime must be 'dic' or 'bic'")
    n_types = n_atoms ** 2
    cells = math.comb(n + n_types - 1, n_types - 1) * n_types
    if cells > CELL_CAP:
        count = f"at least 10^{sys.get_int_max_str_digits()} type-count cells"
        with contextlib.suppress(ValueError):
            count = f"{n} buyers of {n_types} types give {cells} type-count cells"
        raise CapExceeded(
            f"instance too large for exhaustive mode: {count}, over the cap of {CELL_CAP}"
        )
    return cells


class _Program:
    """An auction program under construction: its columns, objective and
    fixed rows, and the rows of the truthfulness candidates added so far,
    each distinct row kept once in order of first appearance.

    The objective and the rows are accumulated in integers over one scale
    per program: L = lcm(value denominators) for the dominant-strategy
    rows, L times the profile weight scale W for the Bayesian rows and for
    the objective.  A row is keyed by its integer coefficients, zero sums
    included; a row that is kept is stored in lowest terms, without its
    zeros.  The supply rows come from `_fixed_rows`.  A candidate's class
    is one of `classes`: each opponent class, or None alone for the
    Bayesian rows (`_Candidates`).  An instance of more than `CELL_CAP`
    type-count cells is refused before any of it is built."""

    def __init__(self, n, dist, regime):
        n_atoms = len(dist.values)
        check_cell_cap(n, n_atoms, regime)
        types = atom_types(n_atoms)
        n_types = len(types)
        names, (q1, q2, u) = _columns(n, n_atoms, regime == "bic")
        values, lcm_v = scaled(dist.values)

        # A buyer at cell x of a class of weight w pays its shares' values
        # less its utility, and count(x) buyers of the class hold x.
        weights, scale = class_weights(n, dist.probs)
        objective = {}
        for k, cells in enumerate(_held(n, n_types)):
            for x, m in cells:
                t = types[x % n_types]
                for r, v in ((q1[x], values[t[0]]), (q2[x], values[t[1]]), (u[x], -lcm_v)):
                    objective[r] = objective.get(r, 0) + m * weights[k] * v
        obj_scale = lcm_v * scale

        self.regime = regime
        self.truth = truth = _candidates(n, n_atoms, regime)
        self.dv, self.lcm_v = value_differences(dist)
        self.rows = {}
        self.weights, self.scale, self.classes = None, lcm_v, range(len(truth.cells[0]))
        if regime == "bic":
            # Interim rows: the opponent-weighted sums of the per-profile
            # ones.  An opponent class weight over W(n-1) is on the program
            # scale times g = W(n) / W(n-1).
            others, others_scale = class_weights(n - 1, dist.probs)
            g = scale // others_scale
            self.weights = [w * g for w in others]
            self.scale, self.classes = obj_scale, (None,)
        g = math.gcd(obj_scale, *objective.values())
        self.lp = LinearProgram(
            variables=list(names),
            objective={r: c // g for r, c in objective.items() if c},
            obj_scale=obj_scale // g,
            constraints=list(_fixed_rows(n, n_atoms)),
        )

    def add(self, k: int, o):
        """Keep the row of the candidate (k, o) over the program scale, w
        times u(x) - u(y) - (x - y).q(y) >= 0 for type x misreporting y:
        w = 1 at the opponent class o, or summed over the classes with
        their weights if o is None.  Returns the row, or None if kept."""
        (x, y), dv, lcm_v, at = self.truth.pairs[k], self.dv[k], self.lcm_v, self.truth.cells
        terms = zip(at[x], at[y], self.weights) if o is None else [(at[x][o], at[y][o], 1)]
        coeffs = {}
        for (true, _, _), (dev, *shares), w in terms:
            coeffs[true] = coeffs.get(true, 0) + w * lcm_v
            coeffs[dev] = coeffs.get(dev, 0) - w * lcm_v
            for r, d in zip(shares, dv):
                if d:
                    coeffs[r] = coeffs.get(r, 0) - w * d
        key = tuple(sorted(coeffs.items()))
        if key in self.rows:
            return None
        g = math.gcd(self.scale, *coeffs.values())
        tag = self.regime + "_local" if self.truth.local[k] else self.regime
        row = self.rows[key] = Constraint(
            tuple((r, c // g) for r, c in coeffs.items() if c), ">=", 0, self.scale // g, tag)
        return row

    def add_pairs(self, ks: Iterable[int]) -> None:
        """Keep the rows of the misreports ks against every class, in row
        order."""
        for k in ks:
            for o in self.classes:
                self.add(k, o)

    def model(self) -> LinearProgram:
        """The program with the rows kept so far."""
        return dataclasses.replace(self.lp, constraints=[*self.lp.constraints, *self.rows.values()])

    def separate(self, x: Sequence[int], X: int) -> list:
        """The rows of the unseeded candidates that the primal x / X
        violates, in row order, each built once and only if it is not in
        the model yet.  A candidate (k, o), type x misreporting y, is read
        at its columns, L (u(x, o) - u(y, o)) - dv . q(y, o); a Bayesian
        one, (k, None), at each type's columns folded over the classes by
        weight, U(x) = sum_o w_o u(x, o) and Q_j(y) = sum_o w_o q_j(y, o),
        over the weight scale."""
        truth, lcm_v, at = self.truth, self.lcm_v, self.truth.cells
        if self.weights:
            # U, Q_1 and Q_2 of type t at 3t, 3t + 1 and 3t + 2.
            x = [sum(w * x[c[j]] for c, w in zip(cells, self.weights))
                 for cells in at for j in range(3)]
            at = [[(3 * t, 3 * t + 1, 3 * t + 2)] for t in range(len(at))]
        violated = []
        for k, ((t, s), (d1, d2)) in enumerate(zip(truth.pairs, self.dv)):
            if truth.seeded[k]:
                continue
            for o, (u, _, _), (v, q1, q2) in zip(self.classes, at[t], at[s]):
                if lcm_v * (x[u] - x[v]) < d1 * x[q1] + d2 * x[q2]:
                    violated.append((k, o))
        return [row for row in itertools.starmap(self.add, violated) if row is not None]


def _seeded_program(
    n: int, dist: FiniteValueDistribution, regime: str
) -> tuple[LinearProgram, Callable[[Sequence[int], int], list]]:
    """The symmetric program with its seeded truthfulness rows alone
    (`_candidates`), and the separator of its other truthfulness
    candidates (`solve`'s `separate`)."""
    program = _Program(n, dist, regime)
    program.add_pairs(itertools.compress(itertools.count(), program.truth.seeded))
    return program.model(), program.separate


def build_auction_lp(n: int, dist: FiniteValueDistribution, regime: str) -> LinearProgram:
    """The buyer/item-symmetric revenue-maximization LP with every
    truthfulness candidate built as a row: the program whose optimum
    `solve_auction_lp` certifies, which it solves from the seeded rows
    (`_candidates`) and a subset of the others.

    Variables, each nonnegative: one per orbit of the full program's
    q[i,j,t] (allocation) and u[i,t] (utility, whose bound u >= 0 is
    participation), for buyer i, item j and profile t (`_columns`); the
    Bayesian program has one interim utility U >= 0 per type orbit
    instead.  Objective: expected payment sum_t Pr{t} sum_i (t_i . q_i(t) -
    u_i(t)).  Rows, each distinct one kept once in order of first
    appearance: per-item supply ('supply'), then truthfulness rows against
    each opponent profile ('dic_local', 'dic') or their interim
    counterparts ('bic_local', 'bic').
    """
    program = _Program(n, dist, regime)
    program.add_pairs(range(len(program.truth.pairs)))
    return program.model()


def solve_auction_lp(n: int, dist: FiniteValueDistribution, regime: str) -> LPSolution:
    """Solve the auction LP through its symmetric program and certify the
    optimum as a mechanism.

    The program holds the regime's seeded truthfulness rows, those of the
    one-step misreports, only the downward ones with two atoms
    (`_candidates`); the other ones join in warm rounds, built by the
    separator as the optimum violates them.  Every row holds at the
    origin, the null mechanism, every allocation column sits in a supply
    row and every utility column lowers the objective, so `solve` ends at
    a certified optimum.  The returned solution is the symmetric
    program's, its separated rows included; its mechanism
    (`extract_mechanism`) has passed `certify_optimum`, which audits it
    over every truthfulness constraint and so refuses the optimum of an
    incomplete separator.
    """
    lp, separate = _seeded_program(n, dist, regime)
    sol = solve(lp, separate)
    certify_optimum(extract_mechanism(n, dist, sol), regime, sol.optimum)
    return sol


class WorkerLost(RuntimeError):
    """A worker process of `solve_auction_lps` ended without its results."""


def solve_auction_lps(jobs: Sequence[tuple]) -> list[LPSolution]:
    """`solve_auction_lp` over independent jobs (n, dist, regime): their
    solutions in job order, and the sequential run's failure, the first
    failing job's exception, if one fails.

    Every job's regime and cell cap are checked before any solve.  A batch
    of fewer than `PARALLEL_CELLS` type-count cells in all is solved in
    process, and so is any batch when the process may run on one CPU only,
    cannot fork, or runs other threads.  Otherwise the jobs are split into
    contiguous runs of about equal cells, one per CPU: the parent solves
    the first run and forked children the others, each sending its
    solutions, or its run's first failure, back pickled over a pipe.  A
    failure is raised after every child has been reaped, and a child that
    ends without its results raises `WorkerLost`.
    """
    cells = [check_cell_cap(n, len(dist.values), regime) for n, dist, regime in jobs]
    total = sum(cells)
    workers = _workers(len(jobs)) if total >= PARALLEL_CELLS else 1
    if workers == 1:
        return [solve_auction_lp(*job) for job in jobs]
    # Job k joins the run in which its middle cell falls.
    runs, before = [[] for _ in range(workers)], 0
    for k, c in enumerate(cells):
        runs[(2 * before + c) * workers // (2 * total)].append(k)
        before += c
    return _solve_forked(jobs, [run for run in runs if run])


def _workers(n_jobs: int) -> int:
    """The processes that may solve n_jobs jobs side by side: one per CPU
    that the process may run on, and one only without `os.fork` or beside
    another thread."""
    import os
    import threading

    if n_jobs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return min(n_jobs, len(os.sched_getaffinity(0)))
    return min(n_jobs, os.cpu_count() or 1)


def _solve_forked(jobs: Sequence[tuple], runs: list) -> list[LPSolution]:
    """The solutions of `runs`, runs of job indices: the first solved here,
    each other one in a forked child.  A child leaves only through
    `os._exit`, so it runs no exit handler and flushes none of the parent's
    buffers, and sends (solutions, None) or (solutions before the failure,
    exception).  On any exception here, the children still running are
    killed; all are reaped before this returns or raises."""
    import os
    import pickle
    import signal

    children = []
    try:
        for run in runs[1:]:
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    out, failure = [], None
                    try:
                        for k in run:
                            out.append(solve_auction_lp(*jobs[k]))
                    except Exception as exc:
                        failure = exc
                    with open(w, "wb") as fh:
                        pickle.dump((out, failure), fh)
                    code = 0
                finally:
                    os._exit(code)
            os.close(w)
            children.append([pid, r, run])
        solutions = {k: solve_auction_lp(*jobs[k]) for k in runs[0]}
        for child in children:
            pid, r, run = child
            with open(r, "rb") as fh:
                child[1] = None
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            child[0] = None
            code = os.waitstatus_to_exitcode(status)
            if code or not data:
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise WorkerLost(f"a worker process ended without its results ({how})")
            out, failure = pickle.loads(data)
            if failure is not None:
                raise failure
            solutions.update(zip(run, out))
        return [solutions[k] for k in range(len(jobs))]
    finally:
        for pid, r, _ in children:
            if r is not None:
                os.close(r)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


# ---------------------------------------------------------------------------
# Mechanism extraction and certification
# ---------------------------------------------------------------------------


def extract_mechanism(n: int, dist: FiniteValueDistribution, sol: LPSolution) -> Mechanism:
    """The cell tables of a symmetric auction-LP solution, labelled "custom".

    Each cell takes the values of its orbits (`_columns`): its share of
    item 1 from its own, its share of item 2 from the item-swapped cell's,
    its utility from the smaller cell's of the two, or, from a Bayesian
    program, its type's interim utility.  The tables hold the primal's
    numerators over den = X / gcd(X, numerators), the lcm of the values'
    reduced denominators."""
    x, X = sol.primal, sol.primal_den
    interim = sol.variables[-1][0] == "U"
    names, per_cell = _columns(n, len(dist.values), interim)
    if len(x) != len(names) or tuple(sol.variables) != names:
        raise ValueError("the solution is not of the symmetric auction program")
    g = math.gcd(X, *x)
    value = [v // g for v in x]
    q1, q2, u = (tuple(0 if r is None else value[r] for r in orbits) for orbits in per_cell)
    return Mechanism(n, dist, "custom", X // g, q1, q2, u)


def certify_optimum(mech: Mechanism, regime: str, optimum: Fraction) -> None:
    """Check an LP optimum as a mechanism; raise on any failure.

    Every share is nonnegative and no item is given out more than once at
    any profile; the regime's audits (IR and DIC, or BIR and BIC) pass; and
    the mechanism's expected revenue is the optimum.  No profile is read.
    The share checks run per class: the buyers at a profile of a class
    hold its cells, count_c of them at type c, so the item's total is
    sum_c count_c * q[class, c].  A share failure names the sorted profile
    of the first failing class, the first failing profile in
    `profile_table` order; an audit failure counts its violations
    (`audit.violation_count`).
    """
    den, tables = mech.den, (mech.q1, mech.q2)
    types = buyer_types(mech.dist)
    keys = profile_classes(mech.n, mech.n_types)
    for key, cells in zip(keys, _held(mech.n, mech.n_types)):
        if any(q[x] < 0 for q in tables for x, _ in cells):
            fault = "negative allocation"
        else:
            fault = next((f"item {j + 1} over-allocated" for j, q in enumerate(tables)
                          if sum(m * q[x] for x, m in cells) > den), None)
        if fault:
            profile = tuple(t for t, m in zip(types, key) for _ in range(m))
            raise RuntimeError(f"certificate failure: {fault} at {profile}")
    for condition in ("IR", "DIC") if regime == "dic" else ("BIR", "BIC"):
        count = audit.violation_count(mech, condition)
        if count:
            raise RuntimeError(
                f"certificate failure: {condition} fails ({count} violations)")
    revenue = audit.expected_revenue(mech)
    if revenue != optimum:
        raise RuntimeError(
            f"certificate failure: expected revenue {rat_str(revenue)} "
            f"differs from the LP optimum {rat_str(optimum)}"
        )


@dataclasses.dataclass(frozen=True)
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


def certify_specs(specs: Sequence[AuctionSpec]) -> list[CertificationReport]:
    """`certify_main_theorem` over specs, whose 2 * len(specs) programs are
    solved as one batch (`solve_auction_lps`), each spec's DIC program
    before its BIC one."""
    sols = solve_auction_lps([(s.n, s.dist, regime) for s in specs for regime in ("dic", "bic")])
    reports = []
    for spec, sol_d, sol_b in zip(specs, sols[::2], sols[1::2]):
        r_d = revenue_dic(spec)
        r_b = revenue_bic(spec)
        reports.append(CertificationReport(
            spec=spec,
            lp_dic=sol_d.optimum,
            r_dic=r_d,
            equal_dic=sol_d.optimum == r_d,
            lp_bic=sol_b.optimum,
            r_bic=r_b,
            equal_bic=sol_b.optimum == r_b,
        ))
    return reports


def certify_main_theorem(spec: AuctionSpec) -> CertificationReport:
    """Exact equality test between the LP optima and the closed forms."""
    return certify_specs([spec])[0]


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
    v = breakpoints(AuctionSpec(n, p, a, a + 1))
    out = set()
    edges = [a, v.v1, v.v2, v.v3, v.v3 + (v.v3 - a)]
    for lo, hi in zip(edges, edges[1:]):
        for k in (1, 2, 3):
            out.add(lo + Fraction(k, 4) * (hi - lo))
    out.update((v.v1, v.v2, v.v3))
    return sorted(x for x in out if x > a)


def certification_grid() -> list:
    """The built-in grid of specs used for end-to-end certification."""
    return [AuctionSpec(n, p, a, b)
            for n in (2, 3)
            for p in map(Fraction, ("1/4", "1/3", "1/2", "2/3", "3/4"))
            for a in (Fraction(0), Fraction(1))
            for b in grid_b_values(n, p, a)]
