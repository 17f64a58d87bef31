"""Numeric exploration of the two-interval continuous family.

The value distribution is uniform over [a, a+1] u [lam*a, lam*a+1] per
buyer-item cell (two buyers).  Discretizing each interval with grid_m
equal-mass midpoint atoms yields a finite instance whose exact LP optimum is
computable; scaling by 1/a it approaches the two-point optimum of the
normalized instance (2, 1/2, 1, lam) as a grows.  Everything here is an
exploration harness, not a proof: band membership of the discretized optima
against the known additive-error windows is reported as indicative only.
The oracle's cell cap (`oracle.CELL_CAP`) bounds grid_m: grid_m <= 3 is
solved, and grid_m = 4, whose 64 types give 133,120 type-count cells, is
refused before any solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import AuctionSpec, FiniteValueDistribution, InvalidSpec, rat
from .formulas import revenue_bic, revenue_dic
from .oracle import solve_auction_lp, solve_auction_lps

#: Additive error windows above r*a for the true continuous optima at lam=2,
#: valid for a >= 6: [r_D*a, r_D*a + 5/4) and [r_B*a, r_B*a + 3/2).
BAND_SLACK = {"dic": Fraction(5, 4), "bic": Fraction(3, 2)}


@dataclass(frozen=True)
class ContinuousSpec:
    """Two-buyer two-item instance with two-interval uniform marginals."""

    n: int
    a: Fraction
    lam: Fraction
    grid_m: int

    def __post_init__(self):
        object.__setattr__(self, "a", rat(self.a))
        object.__setattr__(self, "lam", rat(self.lam))
        if self.n != 2:
            raise InvalidSpec("the continuous lab is restricted to n=2")
        if self.lam <= 1:
            raise InvalidSpec("lam must exceed 1")
        if self.a <= 1 / (self.lam - 1):
            raise InvalidSpec("a must exceed 1/(lam-1) so the intervals are disjoint")
        if self.grid_m < 1:
            raise InvalidSpec("grid_m must be a positive integer")


def discretize(cspec: ContinuousSpec) -> FiniteValueDistribution:
    """2*grid_m equal-mass atoms at the midpoint grid of the two intervals.

    Atom s of an interval with left endpoint L sits at L + (s + 1/2)/grid_m,
    carrying mass 1/(2*grid_m); the low/high mass split stays exactly 1/2.
    """
    m = cspec.grid_m
    atoms = []
    for left in (cspec.a, cspec.lam * cspec.a):
        for s in range(m):
            atoms.append(left + Fraction(2 * s + 1, 2 * m))
    w = Fraction(1, 2 * m)
    return FiniteValueDistribution(tuple(atoms), tuple(w for _ in atoms))


def lp_over_grid(cspec: ContinuousSpec, impl: str) -> Fraction:
    """Exact LP optimum of the discretized instance, impl in {'dic','bic'}."""
    return solve_auction_lp(cspec.n, discretize(cspec), impl).optimum


@dataclass(frozen=True)
class ProbeRow:
    a: Fraction
    grid_m: int
    impl: str  # 'dic' or 'bic'
    optimum: Fraction
    ratio: Fraction  # optimum / a
    ref: Fraction  # the two-point reference r value of (2, 1/2, 1, lam)
    within_band: bool | None  # indicative; evaluated only at lam=2


def corollary_probe(
    a_values: Sequence,
    grid_m: int,
    lam=Fraction(2),
    impls: Sequence[str] = ("dic", "bic"),
) -> list[ProbeRow]:
    """Discretized optima across a list of scales, one row per scale and
    regime in `impls`, and only those regimes' programs are solved, as one
    batch (`oracle.solve_auction_lps`).

    ref carries the normalized two-point optimum the scaled value
    approaches.  Band membership checks the discretized value against the
    additive window known for the true continuous optimum at lam=2; the
    discretized value only approximates that, so the flag is indicative.
    """
    lam = rat(lam)
    cspecs = [ContinuousSpec(2, rat(a), lam, grid_m) for a in a_values]
    reference = AuctionSpec(2, Fraction(1, 2), 1, lam)
    revenue = {"dic": revenue_dic, "bic": revenue_bic}
    refs = {impl: revenue[impl](reference) for impl in impls}
    jobs = [(cspec, impl) for cspec in cspecs for impl in impls]
    sols = solve_auction_lps([(cspec.n, discretize(cspec), impl) for cspec, impl in jobs])
    rows = []
    for (cspec, impl), sol in zip(jobs, sols):
        opt, ref = sol.optimum, refs[impl]
        band = (ref * cspec.a <= opt < ref * cspec.a + BAND_SLACK[impl]) if lam == 2 else None
        rows.append(ProbeRow(cspec.a, grid_m, impl, opt, opt / cspec.a, ref, band))
    return rows
