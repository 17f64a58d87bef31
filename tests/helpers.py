"""Helpers shared by the test modules."""

import functools
from fractions import Fraction

from twopoint_auctions.core import (
    DEFAULT_PROFILE_CAP,
    AuctionSpec,
    profile_table,
    rat_str,
    scaled,
    type_label,
)
from twopoint_auctions.mechanisms import payment_row


def enumerate_profiles(n, dist, cap=DEFAULT_PROFILE_CAP):
    """All (k^2)^n profiles in `profile_table` order (lexicographic, buyer 0
    slowest), each with its exact probability as a Fraction."""
    table = profile_table(n, dist, cap)
    return [
        (t, Fraction(w, table.scale)) for t, w in zip(table.profiles, table.weights)
    ]


def insert(others, i, t):
    """The profile in which buyer i has type t and the others keep their order."""
    return tuple(others[:i]) + (t,) + tuple(others[i:])


def mechanism_doc(mech, checks=None):
    """The mechanism export as a dict of lists, built row by row: the
    reference whose `json.dumps(..., indent=2)` text
    `mechanisms.mechanism_to_json` must reproduce byte for byte."""
    n, dist = mech.n, mech.dist
    (p, _), (a, b) = dist.probs, dist.values
    table = profile_table(n, dist)
    weight = dict(zip(table.profiles, table.weights))
    vals, vden = scaled(dist.values)

    # Each distinct numerator is reduced and printed once.
    def formatter(den):
        return functools.cache(lambda x: rat_str(Fraction(x, den)))

    prob_str = formatter(table.scale)
    entry_str = formatter(mech.den)
    pay_str = formatter(mech.den * vden)
    rows = []
    for profile, shares in mech.allocation.items():
        utils = mech.utility[profile]
        rows.append(
            {
                "profile": [type_label(t) for t in profile],
                "probability": prob_str(weight[profile]),
                "allocation": [[entry_str(q1), entry_str(q2)] for q1, q2 in shares],
                "utility": [entry_str(u) for u in utils],
                "payment": [
                    pay_str(s) for s in payment_row(vals, vden, shares, utils, profile)
                ],
            }
        )
    doc = {"spec": AuctionSpec(n, p, a, b).to_json(), "label": mech.label, "profiles": rows}
    if checks:
        doc["checks"] = checks
    return doc
