"""Helpers shared by the test modules."""

from fractions import Fraction

from twopoint_auctions.core import DEFAULT_PROFILE_CAP, profile_table


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
