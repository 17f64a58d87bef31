import ast
import itertools
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twopoint_auctions
from twopoint_auctions.core import (
    AuctionSpec,
    CapExceeded,
    FiniteValueDistribution,
    InvalidSpec,
    buyer_types,
    check_profile_cap,
    class_probabilities,
    class_weights,
    opponent_cells,
    profile_classes,
    profile_table,
    rat,
    rat_allow_decimal,
    rat_str,
    decimal_str,
    scaled,
    type_label,
)

from helpers import classify_profile, enumerate_profiles, hierarchy_winners, insert

# The two-point types, named by their letter rendering.
AA, AB, BA, BB = (0, 0), (0, 1), (1, 0), (1, 1)
TYPES = (AA, AB, BA, BB)

probabilities = st.fractions(min_value=F(1, 20), max_value=F(19, 20), max_denominator=20)


def spec_strategy(ns=(2, 3, 4)):
    return st.builds(
        lambda n, p, low, gap: AuctionSpec(n, p, low, low + gap),
        st.sampled_from(ns),
        probabilities,
        st.fractions(min_value=0, max_value=3, max_denominator=8),
        st.fractions(min_value=F(1, 8), max_value=4, max_denominator=8),
    )


class TestRationalPlumbing:
    def test_rat_parses_fraction_strings(self):
        assert rat("3/7") == F(3, 7)
        assert rat("2") == F(2)
        assert rat(F(1, 3)) == F(1, 3)

    def test_rat_rejects_decimals(self):
        with pytest.raises(ValueError):
            rat("0.5")

    def test_decimals_are_exact_when_allowed(self):
        assert rat_allow_decimal("0.5") == F(1, 2)
        assert rat_allow_decimal("1.25e-3") == F(1, 800)
        assert rat_allow_decimal("1e4299").numerator == 10 ** 4299

    def test_decimal_beyond_the_digit_limit_is_rejected(self):
        # Python refuses integer strings beyond sys.get_int_max_str_digits()
        # (4,300 by default); a decimal exponent must not get round that.
        with pytest.raises(ValueError, match="exceeds"):
            rat_allow_decimal("1e5000")
        with pytest.raises(ValueError, match="exceeds"):
            rat_allow_decimal("1e-5000")

    def test_rat_str_always_carries_denominator(self):
        assert rat_str(F(3)) == "3/1"
        assert rat_str(F(-5, 8)) == "-5/8"

    def test_decimal_str(self):
        assert decimal_str(F(51, 16)) == "3.1875"
        assert decimal_str(F(1, 3)).startswith("0.3333333333")


class TestAuctionSpec:
    def test_valid(self):
        spec = AuctionSpec(2, "1/2", 1, 2)
        assert spec.p == F(1, 2)
        assert spec.dist == FiniteValueDistribution((F(1), F(2)), (F(1, 2), F(1, 2)))
        assert buyer_types(spec.dist) == list(TYPES)

    @pytest.mark.parametrize(
        "n,p,a,b",
        [
            (1, "1/2", 1, 2),  # single buyer
            (2, "1", 1, 2),  # p at the boundary
            (2, "0", 1, 2),
            (2, "1/2", 2, 2),  # a == b
            (2, "1/2", -1, 2),  # negative low value
        ],
    )
    def test_invalid(self, n, p, a, b):
        with pytest.raises(InvalidSpec):
            AuctionSpec(n, p, a, b)

    def test_zero_low_value_allowed(self):
        AuctionSpec(2, "1/2", 0, 1)


class TestEnumeration:
    def test_uniform_two_point(self):
        spec = AuctionSpec(2, F(1, 2), 1, 2)
        pairs = enumerate_profiles(2, spec.dist)
        assert len(pairs) == 16
        assert all(prob == F(1, 16) for _, prob in pairs)

    def test_lowest_profile_probability(self):
        spec = AuctionSpec(2, F(1, 3), 1, 2)
        assert enumerate_profiles(2, spec.dist)[0] == ((AA, AA), F(1, 3) ** 4)

    def test_empty_profile_has_probability_one(self):
        spec = AuctionSpec(2, F(1, 3), 1, 2)
        assert enumerate_profiles(0, spec.dist) == [((), 1)]

    def test_probability_counts_atoms(self):
        dist = FiniteValueDistribution((1, 2, 3), (F(1, 2), F(1, 3), F(1, 6)))
        probs = dict(enumerate_profiles(2, dist))
        assert probs[((0, 2), (1, 1))] == F(1, 2) * F(1, 6) * F(1, 3) ** 2

    def test_weights_over_one_scale(self):
        # lcm(2, 3, 6)^(2n) = 6^4 at n = 2; the (0,2),(1,1) profile has
        # atom counts 1, 2, 1, so weight 3 * 2^2 * 1
        dist = FiniteValueDistribution((1, 2, 3), (F(1, 2), F(1, 3), F(1, 6)))
        table = profile_table(2, dist)
        assert table.scale == 6 ** 4
        assert table.weights[table.profiles.index(((0, 2), (1, 1)))] == 12
        assert sum(table.weights) == table.scale

    def test_table_shared_by_equal_masses(self):
        # The profiles depend on the number of atoms and the weights on the
        # masses alone, so two marginals that differ only in their atoms
        # share one cached table.
        first = AuctionSpec(3, F(1, 3), 1, F(5, 4)).dist
        second = AuctionSpec(3, F(1, 3), 2, 7).dist
        assert first != second
        assert profile_table(3, first) is profile_table(3, second)

    def test_order_is_lexicographic(self):
        spec = AuctionSpec(2, F(1, 2), 1, 2)
        profiles = list(profile_table(2, spec.dist).profiles)
        assert profiles[0] == (AA, AA)
        assert profiles[1] == (AA, AB)
        assert profiles[4] == (AB, AA)
        assert profiles[-1] == (BB, BB)
        assert profiles == sorted(profiles)
        # index pairs sort like their letter renderings
        labels = [[type_label(t) for t in profile] for profile in profiles]
        assert labels == sorted(labels)

    @given(spec_strategy())
    @settings(max_examples=40, deadline=None)
    def test_probabilities_sum_to_one(self, spec):
        table = profile_table(spec.n, spec.dist)
        assert sum(table.weights) == table.scale

    def test_cap(self):
        spec = AuctionSpec(9, F(1, 2), 1, 2)
        with pytest.raises(CapExceeded, match=r"4\^9 = 262144 profiles exceeds the cap of 65536"):
            profile_table(9, spec.dist)
        with pytest.raises(CapExceeded):
            profile_table(11, spec.dist)
        check_profile_cap(8, spec.dist)

    @pytest.mark.parametrize("atoms,n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                         (3, 1), (3, 2), (3, 3)])
    def test_opponent_cells(self, atoms, n):
        # Buyer i of type t against the opponents o holds, at the profile
        # with t inserted, the cell `opponent_cells` gives at t for the
        # class that counts o's types.
        dist = FiniteValueDistribution(tuple(range(1, atoms + 1)), (F(1, atoms),) * atoms)
        types = buyer_types(dist)
        table = profile_table(n, dist)
        position = {t: pos for pos, t in enumerate(table.profiles)}
        cells = table.cells
        keys = profile_classes(n - 1, len(types))
        at = opponent_cells(n, len(types))
        assert len(at) == len(keys)
        for others in profile_table(n - 1, dist).profiles:
            k = keys.index(tuple(others.count(t) for t in types))
            for i in range(n):
                for c, t in enumerate(types):
                    assert cells[i][position[insert(others, i, t)]] == at[k][c]

    @pytest.mark.parametrize("atoms,n", [(2, n) for n in range(6)] + [(3, n) for n in range(4)])
    def test_classes_in_order_of_first_appearance(self, atoms, n):
        # The classes' counts, in order of first appearance along the
        # profile table, n = 0 and n = 1 included.
        dist = FiniteValueDistribution(tuple(range(1, atoms + 1)), (F(1, atoms),) * atoms)
        types = buyer_types(dist)
        walk = dict.fromkeys(tuple(t.count(x) for x in types)
                             for t in profile_table(n, dist).profiles)
        assert profile_classes(n, len(types)) == tuple(walk)

    @pytest.mark.parametrize("atoms,n", [(a, n) for a in (2, 3) for n in range(7)])
    def test_class_weights_sum_the_profile_weights(self, atoms, n):
        # Each class weight is its profiles' total weight over the table's
        # scale.
        masses = {2: (F(1, 3), F(2, 3)), 3: (F(1, 2), F(1, 3), F(1, 6))}[atoms]
        dist = FiniteValueDistribution(tuple(range(1, atoms + 1)), masses)
        probs, den = scaled(masses)
        type_weights = [probs[x1] * probs[x2] for x1, x2 in buyer_types(dist)]
        index = {key: k for k, key in enumerate(profile_classes(n, len(type_weights)))}
        mass = [0] * len(index)
        for t in itertools.product(range(len(type_weights)), repeat=n):
            mass[index[tuple(map(t.count, range(len(type_weights))))]] += math.prod(
                map(type_weights.__getitem__, t))
        assert class_weights(n, masses) == (tuple(mass), den ** (2 * n))

    def test_insert(self):
        assert insert((AB, BA), 1, BB) == (AB, BB, BA)
        assert insert((), 0, AA) == (AA,)


class TestTypeLabel:
    def test_letters_and_pretty_form(self):
        assert [type_label(t) for t in TYPES] == ["aa", "ab", "ba", "bb"]
        assert type_label(AB, pretty=True) == "(a,b)"


class TestHierarchy:
    def test_unique_minimum_gets_all(self):
        assert hierarchy_winners((BB, BA, AB, AA), (BA, BB)) == [1]

    def test_tie_splits_uniformly(self):
        # every tied buyer wins, and the builders split the item among them
        assert hierarchy_winners((BB, AB, BA, AA), (AB, AB)) == [0, 1]

    def test_unlisted_types_get_nothing(self):
        assert hierarchy_winners((BB, BA), (AB, AB)) == []

    @given(
        st.lists(st.permutations(TYPES), min_size=1, max_size=1),
        st.lists(st.sampled_from(TYPES), min_size=2, max_size=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_supply_invariant(self, order, profile):
        # a full ranking always has winners: exactly the least-rank buyers
        h = tuple(order[0])
        ranks = [h.index(t) for t in profile]
        best = min(ranks)
        assert hierarchy_winners(h, tuple(profile)) == [
            i for i, r in enumerate(ranks) if r == best
        ]


class TestClassification:
    def test_lowest_profile(self):
        c = classify_profile((AA, AA, AA))
        assert c.label == "S0"
        assert c.cheap_items == (True, True)
        assert c.active_buyers == ()

    def test_single_active(self):
        c = classify_profile((BA, AA))
        assert c.label == "S1"
        assert c.cheap_items == (False, True)
        assert c.active_buyers == (0,)

    def test_two_active(self):
        c = classify_profile((AB, AB))
        assert c.label == "S2"
        assert c.cheap_items == (True, False)
        assert c.active_buyers == (0, 1)

    def test_other(self):
        assert classify_profile((AB, BA)).label == "other"
        assert classify_profile((BB, BB)).label == "other"

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_partition_and_counts(self, n):
        labels = {"S0": 0, "S1": 0, "S2": 0, "other": 0}
        for profile in itertools.product(TYPES, repeat=n):
            labels[classify_profile(profile).label] += 1
        assert labels["S0"] == 1
        assert labels["S1"] == 2 * n
        assert sum(labels.values()) == 4 ** n

    def test_one_cheap_profiles_have_single_column_of_highs(self):
        for profile in itertools.product(TYPES, repeat=3):
            c = classify_profile(profile)
            if c.label in ("S1", "S2"):
                non_cheap = 0 if not c.cheap_items[0] else 1
                highs = sum(t[non_cheap] == 1 for t in profile)
                assert highs == len(c.active_buyers)


class TestClassProbabilities:
    def test_frozen_half(self):
        # independently derived by enumerating, classifying and summing below
        assert class_probabilities(AuctionSpec(2, F(1, 2), 1, 2)) == (
            F(1, 16),
            F(1, 4),
            F(1, 8),
        )

    def test_frozen_third(self):
        assert class_probabilities(AuctionSpec(2, F(1, 3), 1, 2)) == (
            F(1, 81),
            F(8, 81),
            F(8, 81),
        )

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("p", [F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4)])
    def test_matches_enumeration(self, n, p):
        spec = AuctionSpec(n, p, 1, 2)
        masses = {"S0": F(0), "S1": F(0), "S2": F(0)}
        for profile, prob in enumerate_profiles(n, spec.dist):
            label = classify_profile(profile).label
            if label in masses:
                masses[label] += prob
        assert class_probabilities(spec) == (masses["S0"], masses["S1"], masses["S2"])

    @given(spec_strategy())
    @settings(max_examples=30, deadline=None)
    def test_class_mass_nonnegative(self, spec):
        p0, p1, p2 = class_probabilities(spec)
        assert p0 > 0 and p1 > 0 and p2 >= 0


class TestSource:
    def test_no_assert_statements(self):
        # Invariants raise real errors: `python -O` strips assert statements.
        sources = sorted(pathlib.Path(twopoint_auctions.__file__).parent.glob("*.py"))
        assert sources
        found = [
            f"{path.name}:{node.lineno}"
            for path in sources
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_cli_import_leaves_numpy_out(self):
        # The package needs no numpy; importing it would cost start-up time
        # and memory on every run.
        src = pathlib.Path(twopoint_auctions.__file__).parent.parent
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, twopoint_auctions.cli; print('numpy' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
