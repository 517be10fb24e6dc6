import math
from fractions import Fraction

import pytest

from swarmdec.drift import empirical_firing_probabilities
from swarmdec.hypergeom import _hits, pmf, pmf_bruteforce, pmf_table


def rational_pmf(n, count, g, k):
    """Independent exact-rational reference."""
    if k > count or g - k > n - count:
        return Fraction(0)
    return Fraction(
        math.comb(count, k) * math.comb(n - count, g - k), math.comb(n, g)
    )


class TestBruteForceOracle:
    def test_hand_counted_case(self):
        # Population 1,1,0,0; the 6 pairs contain exactly one success 4 times.
        assert pmf_bruteforce(4, 2, 2)[1] == 4 / 6
        assert pmf_bruteforce(4, 2, 2) == (1 / 6, 4 / 6, 1 / 6)

    def test_certain_draw(self):
        assert pmf_bruteforce(5, 5, 3)[3] == 1.0
        assert pmf_bruteforce(5, 5, 3)[2] == 0.0

    def test_size_limit(self):
        with pytest.raises(ValueError):
            pmf_bruteforce(25, 10, 3)

    def test_matches_rational_reference(self):
        for count in range(11):
            law = pmf_bruteforce(10, count, 4)
            for k in range(5):
                assert law[k] == pytest.approx(
                    float(rational_pmf(10, count, 4, k)), abs=1e-15
                )


class TestPmf:
    def test_no_successes_in_population(self):
        assert pmf(10, 0, 4, 0) == 1.0

    def test_half_population(self):
        # Enumeration: C(5,2)*C(5,2) = 100 of the C(10,4) = 210 subsets.
        assert pmf_bruteforce(10, 5, 4)[2] == 100 / 210
        assert pmf(10, 5, 4, 2) == 100 / 210

    def test_all_success_population(self):
        assert pmf(101, 101, 7, 7) == 1.0

    def test_out_of_support(self):
        assert pmf(10, 3, 4, 4) == 0.0  # k > K
        assert pmf(10, 8, 4, 1) == 0.0  # G - k > N - K

    @pytest.mark.parametrize(
        "n, count, g, k",
        [(10, 11, 4, 2), (10, -1, 4, 2), (10, 5, 0, 0), (10, 5, 11, 2), (10, 5, 4, 5), (10, 5, 4, -1)],
    )
    def test_domain_errors(self, n, count, g, k):
        with pytest.raises(ValueError):
            pmf(n, count, g, k)

    @pytest.mark.parametrize("n, g", [(101, 101), (1001, 101)])
    def test_table_is_pmf_at_every_state(self, n, g):
        # pmf_table steps through its integer column by the binomial ratios;
        # pmf divides its own two binomials.
        for count in range(n + 1):
            assert pmf_table(n, count, g) == tuple(pmf(n, count, g, k) for k in range(g + 1)), count

    def test_agrees_with_bruteforce_everywhere_small(self):
        for n in (7, 12):
            for g in (3, 5):
                for count in range(n + 1):
                    assert pmf_table(n, count, g) == pmf_bruteforce(n, count, g)


class TestLawTuple:
    def test_frozen_values(self):
        # Enumeration of C(10,4) subsets: counts 5, 50, 100, 50, 5 of 210.
        table = pmf_table(10, 5, 4)
        expected = [5 / 210, 50 / 210, 100 / 210, 50 / 210, 5 / 210]
        assert list(table) == pytest.approx(expected, abs=1e-15)
        assert list(table) == pytest.approx(
            [0.0238095, 0.2380952, 0.4761905, 0.2380952, 0.0238095], abs=1e-7
        )

    def test_degenerate_full_draw(self):
        assert pmf_table(7, 7, 7) == (0, 0, 0, 0, 0, 0, 0, 1)

    def test_iteration_and_indexing(self):
        table = pmf_table(10, 5, 4)
        assert table[2] == pmf(10, 5, 4, 2)
        assert len(list(table)) == 5


class TestDistributionProperties:
    @pytest.mark.parametrize("g", [3, 5, 7])
    def test_normalization_full_sweep(self, g):
        for n in range(g, 302):
            for count in range(n + 1):
                total = math.fsum(pmf_table(n, count, g))
                assert abs(total - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [9, 10, 101])
    @pytest.mark.parametrize("g", [3, 7])
    def test_relabeling_symmetry_is_exact(self, n, g):
        if g > n:
            pytest.skip("group larger than population")
        for count in range(n + 1):
            for k in range(g + 1):
                assert pmf(n, count, g, k) == pmf(n, n - count, g, g - k)

    def test_support_bounds(self):
        n, g = 20, 7
        for count in range(n + 1):
            lo = max(0, g - (n - count))
            hi = min(g, count)
            for k in range(g + 1):
                p = pmf(n, count, g, k)
                if lo <= k <= hi:
                    assert p > 0.0
                else:
                    assert p == 0.0

    @pytest.mark.parametrize("g", [5, 7])
    def test_mean_identity(self, g):
        n = 101
        for count in range(n + 1):
            mean = math.fsum(
                k * p for k, p in enumerate(pmf_table(n, count, g))
            )
            assert abs(mean - g * count / n) <= 1e-10


try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # hypothesis comes with the test extra
    st = None

if st is not None:

    @st.composite
    def states(draw):
        # Odd N up to MAX_SWARM_SIZE = 2**1022 - 1, small ones often;
        # G from 1 to min(N, 64); K at the edges of the support, or anywhere.
        n = 2 * draw(st.integers(0, 60) | st.integers(0, 2**1021 - 1)) + 1
        g = draw(st.integers(1, min(n, 64)))
        edges = [c for c in (0, 1, g - 1, g, n - g, n - 1, n) if 0 <= c <= n]
        count = draw(st.sampled_from(edges) | st.integers(0, n))
        return n, count, g

    @settings(max_examples=300, deadline=None)
    @example((2**1022 - 1, 2**1021, 64))
    @example((2**1022 - 1, 1, 64))
    @given(states())
    def test_law_is_a_normalized_tuple_at_every_size(state):
        n, count, g = state
        law = pmf_table(n, count, g)
        assert type(law) is tuple and len(law) == g + 1
        assert all(p == pmf(n, count, g, k) for k, p in enumerate(law))
        assert all(0.0 <= p <= 1.0 for p in law)
        assert abs(math.fsum(law) - 1.0) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @example((2**1022 - 1, 2**1022 - 2, 64))
    @example((7, 3, 7))
    @given(states())
    def test_hits_are_the_subset_counts(state):
        n, count, g = state
        assert _hits(n, count, g) == [math.comb(count, k) * math.comb(n - count, g - k) for k in range(g + 1)]


@pytest.mark.parametrize(
    "n, count, g, draws, seed",
    [(3, 1, 3, 1, 0), (11, 0, 5, 10, 1), (101, 51, 7, 10**5, 2), (1001, 999, 25, 777, 3)],
)
def test_sampled_law_is_a_normalized_tuple(n, count, g, draws, seed):
    law = empirical_firing_probabilities(n, g, count, draws, seed)
    assert type(law) is tuple and len(law) == g + 1
    assert all(0.0 <= p <= 1.0 for p in law)
    assert abs(math.fsum(law) - 1.0) <= 1e-12
