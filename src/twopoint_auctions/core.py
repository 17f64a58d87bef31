"""Exact domain model for n-buyer, two-item auctions with two-point IID values.

Every number in the computational path is exact: values, probabilities,
allocations, utilities and revenues are rationals, never floats; floats
appear only in rendered output.  Rationals cross the API and the output as
fractions.Fraction.  Sums over the profiles run over their type-count
classes (`profile_classes`, `class_weights`) in integers over one stated
denominator and build a Fraction only for a value that leaves them; only
readers by profile walk `profile_table`, the one capped per-profile
structure, whose `cells` give each buyer's type-count cell at each profile.

Every buyer-item value is drawn from one finite marginal, a
`FiniteValueDistribution`.  A buyer type is the index pair (x1, x2) into its
atoms: the buyer values item j at `values[x_j]`.  A profile is a tuple of n
types, buyer 0 first.  The two-point family is the case of two atoms, a
(index 0) and b (index 1); the letters appear only in rendered output.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import sys
from array import array
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction
from operator import add
from typing import Sequence

#: Ceiling on the number of profiles handled exhaustively: n=8
#: buyers of two-point types.  Memory grows about fourfold per buyer; a
#: checked n=8 mechanism written as JSON takes about 0.3 s and peaks near
#: 35 MB on a 2-vCPU VM, so n=10 would need several hundred MB.
DEFAULT_PROFILE_CAP = 4 ** 8


class CapExceeded(ValueError):
    """Instance too large for exhaustive mode."""


class InvalidSpec(ValueError):
    """Auction parameters outside the supported family."""


def rat(x) -> Fraction:
    """Parse an exact rational: Fraction, int, or a 'num/den' / integer string.

    Decimal strings are rejected; use `rat_allow_decimal` where a caller has
    explicitly opted in to exact decimal parsing.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        s = x.strip()
        if "." in s or "e" in s.lower():
            raise ValueError(f"decimal input is not allowed here: {x!r}")
        return Fraction(s)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def rat_allow_decimal(x) -> Fraction:
    """Like `rat` but also accepts finite decimal strings (parsed exactly);
    one whose digits-over-a-power-of-ten form would exceed Python's integer
    string limit (`sys.get_int_max_str_digits()`) is refused unconverted."""
    if isinstance(x, str) and ("." in x or "e" in x.lower()):
        d = Decimal(x.strip())
        limit = sys.get_int_max_str_digits()
        if limit and d.is_finite():
            _, digits, exp = d.as_tuple()
            if len(digits) + max(exp, 0) > limit or 1 - exp > limit:
                raise ValueError(f"decimal input exceeds {limit} digits: {x!r}")
        return Fraction(d)
    return rat(x)


def rat_str(x: Fraction) -> str:
    """Canonical 'num/den' rendering (always carries the denominator).  A
    part with more digits than Python converts to a string
    (`sys.get_int_max_str_digits()`) raises CapExceeded."""
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise CapExceeded(f"a result has more than {sys.get_int_max_str_digits()} digits, "
                          "past Python's integer string limit") from None


def decimal_str(x: Fraction) -> str:
    """Decimal rendering to 12 significant digits, for display only."""
    with localcontext() as ctx:
        ctx.prec = 12
        d = Decimal(x.numerator) / Decimal(x.denominator)
    return str(d)


@dataclass(frozen=True)
class FiniteValueDistribution:
    """One marginal shared by every buyer-item cell: atoms and their masses."""

    values: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.values) != len(self.probs):
            raise ValueError("values and probs must align")
        if sum(self.probs, Fraction(0)) != 1:
            raise ValueError("atom masses must sum to 1")
        if any(p <= 0 for p in self.probs):
            raise ValueError("atom masses must be positive")
        if list(self.values) != sorted(set(self.values)):
            raise ValueError("atoms must be strictly increasing")


@dataclass(frozen=True)
class AuctionSpec:
    """A two-item instance: n >= 2 buyers, values a < b, low value drawn w.p. p.

    All 2n buyer-item values are IID draws from `dist`, the two-atom
    marginal (a w.p. p, b w.p. 1-p).
    """

    n: int
    p: Fraction
    a: Fraction
    b: Fraction
    dist: FiniteValueDistribution = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "p", rat(self.p))
        object.__setattr__(self, "a", rat(self.a))
        object.__setattr__(self, "b", rat(self.b))
        if not isinstance(self.n, int) or self.n < 1:
            raise InvalidSpec("n must be a positive integer")
        if self.n < 2:
            raise InvalidSpec("n must be at least 2")
        if not (0 < self.p < 1):
            raise InvalidSpec("p must lie in (0,1)")
        if self.a < 0:
            raise InvalidSpec("a must be nonnegative")
        if not (self.a < self.b):
            raise InvalidSpec("b must exceed a")
        dist = FiniteValueDistribution((self.a, self.b), (self.p, 1 - self.p))
        object.__setattr__(self, "dist", dist)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "p": rat_str(self.p),
            "a": rat_str(self.a),
            "b": rat_str(self.b),
        }


Type = tuple  # (x1, x2): atom indices of the values for items 1 and 2
Profile = tuple  # tuple of n types, buyer 0 first


def buyer_types(dist: FiniteValueDistribution) -> list[Type]:
    """Every type in lexicographic order; for two atoms
    (a,a) < (a,b) < (b,a) < (b,b)."""
    return list(itertools.product(range(len(dist.values)), repeat=2))


def scaled(xs: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """The rationals xs as integers over one denominator: (numerators,
    the lcm of the denominators)."""
    den = math.lcm(*(x.denominator for x in xs))
    return tuple(x.numerator * (den // x.denominator) for x in xs), den


@dataclass(frozen=True)
class ProfileTable:
    """Every profile of n buyers in lexicographic order, buyer 0 varying
    slowest and each buyer's types in `buyer_types` order, its
    probability as the integer `weights[k]` over `scale`, and per buyer an
    array over the profiles of the type-count cell the buyer holds there:
    class * T + its own type index, for T types and the profile's class in
    `profile_classes` order.

    A profile's position, written in base T = k^2 for k atoms, lists its
    buyers' type indices (x1 * k + x2), buyer 0 most significant, so buyer
    i's type moves the position in steps of T^(n-1-i).
    """

    profiles: tuple
    weights: tuple
    scale: int
    cells: tuple


def check_profile_cap(n: int, dist: FiniteValueDistribution) -> None:
    """Refuse, with CapExceeded, n buyers whose profiles outnumber
    `DEFAULT_PROFILE_CAP`.  Two or more types to the cap's bit length
    exceed it, so no larger power is tested; the message leaves out a
    count of more than 2^16 buyers or too long to print."""
    n_types = len(dist.values) ** 2
    if n_types ** min(n, DEFAULT_PROFILE_CAP.bit_length()) > DEFAULT_PROFILE_CAP:
        count = f"{n_types}^{n}"
        if n <= 2 ** 16:
            with contextlib.suppress(ValueError):
                count += f" = {n_types ** n}"
        raise CapExceeded(
            f"instance too large for exhaustive mode: {count} "
            f"profiles exceeds the cap of {DEFAULT_PROFILE_CAP}"
        )


def profile_table(n: int, dist: FiniteValueDistribution) -> ProfileTable:
    """The profiles, their probabilities over the scale
    lcm(prob denominators)^(2n), and each buyer's cells, after the cap
    check.  A table depends on the atoms' masses alone, not on their
    values; the tables of the last few (n, masses) pairs are kept for the
    next caller."""
    check_profile_cap(n, dist)
    return _profile_table(n, dist.probs)


@functools.lru_cache(maxsize=4)
def _profile_table(n: int, masses: tuple) -> ProfileTable:
    # A profile's weight is the product of its buyers' type weights, by
    # independence of all 2n draws.
    types = list(itertools.product(range(len(masses)), repeat=2))
    probs, den = scaled(masses)
    type_weights = [probs[x1] * probs[x2] for x1, x2 in types]
    weights = [1]
    for _ in range(n):
        weights = [w * v for w in weights for v in type_weights]
    # A sorted profile of type indices names its class.
    index = {s: k * len(types) for k, s in enumerate(
        itertools.combinations_with_replacement(range(len(types)), n))}
    positions = list(itertools.product(range(len(types)), repeat=n))
    base = [index[tuple(sorted(t))] for t in positions]
    cells = tuple(array("I", map(add, base, own)) for own in zip(*positions))
    return ProfileTable(tuple(itertools.product(types, repeat=n)), tuple(weights),
                        den ** (2 * n), cells)


@functools.lru_cache(maxsize=4)
def profile_classes(n: int, n_types: int) -> tuple:
    """The type-count classes of n buyers' profiles: each class's counts
    per type index, in order of first appearance in `profile_table` order,
    which is the lexicographic order of their sorted profiles."""
    return tuple(tuple(s.count(c) for c in range(n_types))
                 for s in itertools.combinations_with_replacement(range(n_types), n))


@functools.lru_cache(maxsize=4)
def class_sizes(n: int, n_types: int) -> tuple:
    """Each type-count class's number of profiles (`profile_classes`
    order): n! / prod m_c! for type counts m_c."""
    return tuple(math.factorial(n) // math.prod(map(math.factorial, key))
                 for key in profile_classes(n, n_types))


@functools.lru_cache(maxsize=4)
def class_weights(n: int, masses: tuple) -> tuple[tuple, int]:
    """Each type-count class's probability (`profile_classes` order): its
    `class_sizes` profiles, each of weight prod w_c^m_c for type counts
    m_c and type weights w_c, over the scale of `profile_table`."""
    probs, den = scaled(masses)
    type_weights = [a * b for a in probs for b in probs]
    sizes, keys = class_sizes(n, len(type_weights)), profile_classes(n, len(type_weights))
    return tuple(size * math.prod(map(pow, type_weights, key))
                 for size, key in zip(sizes, keys)), den ** (2 * n)


@functools.lru_cache(maxsize=4)
def opponent_cells(n: int, n_types: int) -> tuple:
    """Where a buyer among n meets its opponents' type-count classes: per
    class of the other n - 1 buyers (`profile_classes(n - 1)` order), the
    type-count cell of n buyers (`ProfileTable.cells`) that a buyer of each
    type index holds against it.  Every buyer holds that one cell against
    every opponent profile of the class, so a table over the cells reads
    the same for each of them."""
    index = {key: k for k, key in enumerate(profile_classes(n, n_types))}
    return tuple(
        array("I", [index[key[:x] + (key[x] + 1,) + key[x + 1:]] * n_types + x
                    for x in range(n_types)])
        for key in profile_classes(n - 1, n_types)
    )


@functools.lru_cache(maxsize=None)
def type_label(t: Type, pretty: bool = False) -> str:
    """Letter rendering of a type for JSON and CLI text: atom x is the x-th
    letter, so two-point types read 'aa'..'bb', or '(a,b)' when pretty."""
    letters = [chr(ord("a") + x) for x in t]
    return "(" + ",".join(letters) + ")" if pretty else "".join(letters)


def class_probabilities(spec: AuctionSpec) -> tuple[Fraction, Fraction, Fraction]:
    """Exact masses of the S0, S1, S2 profile classes.

    p0 = p^(2n); p1 = 2n p^(2n-1)(1-p); p2 = 2 p^n (1 - p^n - n p^(n-1)(1-p)).
    """
    n, p = spec.n, spec.p
    p0 = p ** (2 * n)
    p1 = 2 * n * p ** (2 * n - 1) * (1 - p)
    p2 = 2 * p ** n * (1 - p ** n - n * p ** (n - 1) * (1 - p))
    return (p0, p1, p2)
