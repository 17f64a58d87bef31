"""Closed-form optimal revenues and benchmarks.

For an instance (n, p, a, b) the optimal revenue under each implementation
is continuous and piecewise linear in b, with breakpoints

    v1 = (1+p^2)/(1-p^2) a,   v2 = a/(1-p),   v3 = (1+p)/(1-p) a,

and a <= v1 <= v2 <= v3 (strictly when a > 0).  Past v3 both optima collapse
to selling each item separately at price b.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .core import AuctionSpec, CapExceeded, InvalidSpec, class_probabilities, rat

#: Ceiling on a sweep's grid points: 10,000 steps print about 1 MB of CSV
#: in about 1.3 s on a 2-vCPU VM, and the work grows linearly beyond.
MAX_SWEEP_STEPS = 10_000


def check_digit_limit(spec: AuctionSpec) -> None:
    """Raise CapExceeded, before any revenue is computed, when SREV, which
    every report and sweep row prints, is sure to have a denominator of
    more digits than Python prints (`sys.get_int_max_str_digits()`).

    With p = N/D, b = B/E and b - a = c/e in lowest terms, SREV is
    2 (1 - p^n) b or 2 (b - p^(n-1) (b - a)), of denominator at least
    D^n / 2B or D^(n-1) / 2cE: so at least D^(n-1) / 2BEc, a number of
    more than (n-1) log10 D - log10(2BEc) digits.  Since D >= 2, an n - 1
    past bitlen(2BEc) + 4 limit + 8 gives more than 2^(4 limit + 8) >
    10^(limit + 2) without a logarithm, which takes n as a float."""
    limit, b = sys.get_int_max_str_digits(), spec.b
    lower = 2 * b.numerator * b.denominator * (b - spec.a).numerator
    if limit and (spec.n - 1 > lower.bit_length() + 4 * limit + 8
                  # a digit spared for the float logarithms
                  or (spec.n - 1) * math.log10(spec.p.denominator) - math.log10(lower) > limit + 1):
        raise CapExceeded(f"the revenues at n={spec.n} have more than {limit} digits, "
                          "past Python's integer string limit")


def _pos(x: Fraction) -> Fraction:
    """max(x, 0)"""
    return x if x > 0 else Fraction(0)


@dataclass(frozen=True)
class Breakpoints:
    v1: Fraction
    v2: Fraction
    v3: Fraction


@dataclass(frozen=True)
class IndicatorFlags:
    """alpha = [b < v1], gamma = [b < v2], beta = [b < v3] (strict)."""

    alpha: int
    beta: int
    gamma: int


def breakpoints(spec: AuctionSpec) -> Breakpoints:
    p, a = spec.p, spec.a
    return Breakpoints(
        v1=(1 + p ** 2) / (1 - p ** 2) * a,
        v2=a / (1 - p),
        v3=(1 + p) / (1 - p) * a,
    )


def indicator_flags(spec: AuctionSpec) -> IndicatorFlags:
    v = breakpoints(spec)
    return IndicatorFlags(
        alpha=int(spec.b < v.v1),
        beta=int(spec.b < v.v3),
        gamma=int(spec.b < v.v2),
    )


def price_b_revenue(spec: AuctionSpec) -> Fraction:
    """Selling each item separately at posted price b: 2(1-p^n)b."""
    return 2 * (1 - spec.p ** spec.n) * spec.b


def revenue_dic(spec: AuctionSpec) -> Fraction:
    """Optimal dominant-strategy revenue (exact)."""
    p, a, b = spec.p, spec.a, spec.b
    p0, p1, p2 = class_probabilities(spec)
    return (
        price_b_revenue(spec)
        + p0 * _pos(2 * a - (1 - p ** 2) / p ** 2 * (b - a))
        + p1 * _pos(a - (1 - p) / (2 * p) * (b - a))
        + p2 * _pos(a - (1 - p) / p * (b - a))
    )


def revenue_bic(spec: AuctionSpec) -> Fraction:
    """Optimal Bayesian revenue (exact)."""
    p, a, b = spec.p, spec.a, spec.b
    p0, p1, p2 = class_probabilities(spec)
    return (
        price_b_revenue(spec)
        + p0 * _pos(2 * a - (1 - p ** 2) / p ** 2 * (b - a))
        + (p1 + p2) * _pos(a - (1 - p) / (2 * p) * (b - a))
    )


def separate_revenue(spec: AuctionSpec) -> Fraction:
    """Optimal revenue from selling the two items separately.

    The single-item optimum over a two-point marginal is the better of two
    posted-price schemes: price b offered to everyone, or price b offered to
    the first n-1 buyers in turn with a final take-it-or-leave-it offer of a
    to the last.  Doubled across the two items:
        2 * max{(1-p^n) b, p^(n-1) a + (1-p^(n-1)) b}.
    """
    n, p, a, b = spec.n, spec.p, spec.a, spec.b
    return 2 * max((1 - p ** n) * b, p ** (n - 1) * a + (1 - p ** (n - 1)) * b)


def grand_bundle_revenue(spec: AuctionSpec) -> Fraction:
    """Best posted-price revenue for the two items sold only as one bundle.

    A buyer's bundle value is 2a, a+b, or 2b with probabilities p^2,
    2p(1-p), (1-p)^2; only those support points can be optimal prices.
    Benchmark only: no optimality claim beyond posted bundle prices.
    """
    n, p, a, b = spec.n, spec.p, spec.a, spec.b
    below = {  # per-buyer probability that the bundle value is < price
        2 * a: Fraction(0),
        a + b: p ** 2,
        2 * b: p ** 2 + 2 * p * (1 - p),
    }
    return max(price * (1 - prob ** n) for price, prob in below.items())


@dataclass(frozen=True)
class RevenueReport:
    spec: AuctionSpec
    r_dic: Fraction
    r_bic: Fraction
    srev: Fraction
    s_b: Fraction
    bundle_rev: Fraction
    flags: IndicatorFlags
    breakpoints: Breakpoints


def revenue_report(spec: AuctionSpec) -> RevenueReport:
    check_digit_limit(spec)
    report = RevenueReport(
        spec=spec,
        r_dic=revenue_dic(spec),
        r_bic=revenue_bic(spec),
        srev=separate_revenue(spec),
        s_b=price_b_revenue(spec),
        bundle_rev=grand_bundle_revenue(spec),
        flags=indicator_flags(spec),
        breakpoints=breakpoints(spec),
    )
    if not (report.r_bic >= report.r_dic >= report.srev >= report.s_b):
        raise RuntimeError(f"revenue ordering r_B >= r_D >= SREV >= s_b fails at {spec}")
    return report


@dataclass(frozen=True)
class SweepRow:
    b: Fraction
    r_dic: Fraction
    r_bic: Fraction
    srev: Fraction
    flags: IndicatorFlags
    is_breakpoint: bool


def sweep_high_value(n, p, a, b_lo, b_hi, steps: int) -> list[SweepRow]:
    """Evaluate the three revenue curves on an inclusive even grid over
    [b_lo, b_hi], plus rows at any breakpoint above a (flagged), sorted by b.

    steps is the number of grid points (>= 2, both endpoints included);
    more than MAX_SWEEP_STEPS raises CapExceeded before any work, as does
    `check_digit_limit` at b_hi.
    """
    p, a, b_lo, b_hi = rat(p), rat(a), rat(b_lo), rat(b_hi)
    if steps < 2:
        raise ValueError("steps must be at least 2")
    if steps > MAX_SWEEP_STEPS:
        raise CapExceeded(f"sweep of {steps} steps exceeds the cap of {MAX_SWEEP_STEPS} steps")
    if not (a < b_lo < b_hi):
        raise ValueError("b range must satisfy a < b_lo < b_hi")
    top = AuctionSpec(n, p, a, b_hi)
    check_digit_limit(top)
    bs = {b_lo + Fraction(k, steps - 1) * (b_hi - b_lo) for k in range(steps)}
    v = breakpoints(top)
    marks = {x for x in (v.v1, v.v2, v.v3) if x > a}
    rows = []
    for b in sorted(bs | marks):
        spec = AuctionSpec(n, p, a, b)
        rows.append(
            SweepRow(
                b=b,
                r_dic=revenue_dic(spec),
                r_bic=revenue_bic(spec),
                srev=separate_revenue(spec),
                flags=indicator_flags(spec),
                is_breakpoint=b in marks,
            )
        )
    return rows
