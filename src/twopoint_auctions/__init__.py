"""Exact analysis of two-item auctions with two-point IID valuations.

Closed-form optimal revenues under dominant-strategy and Bayesian
implementations, the explicit optimal mechanisms, exhaustive exact
incentive audits, and an independent exact-LP certifier.
"""

from .core import (
    AuctionSpec,
    CapExceeded,
    FiniteValueDistribution,
    HierarchyScheme,
    InvalidSpec,
    class_probabilities,
    rat,
    rat_str,
)
from .formulas import (
    Breakpoints,
    IndicatorFlags,
    RevenueReport,
    breakpoints,
    grand_bundle_revenue,
    indicator_flags,
    revenue_bic,
    revenue_dic,
    revenue_report,
    separate_revenue,
    sweep_high_value,
)
from .mechanisms import (
    Mechanism,
    build_bic_mechanism,
    build_dic_mechanism,
)
from .audit import (
    AuditReport,
    check_bic,
    check_bir,
    check_dic,
    check_ir,
    expected_revenue,
)
from .oracle import (
    certification_grid,
    certify_main_theorem,
    certify_specs,
    extract_mechanism,
    solve_auction_lp,
    solve_auction_lps,
)
from .simplex import LinearProgram, LPSolution, solve
from .continuous import ContinuousSpec, corollary_probe, discretize, lp_over_grid

__version__ = "0.1.0"
