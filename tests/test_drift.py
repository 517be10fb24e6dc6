import functools
import math
import operator
import random
import struct
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

import swarmdec
from swarmdec import cli, drift, hypergeom
from swarmdec.drift import (
    MAX_SAMPLES,
    FixedPoint,
    Stability,
    analytic_drift,
    analytic_drift_curve,
    empirical_drift,
    empirical_firing_probabilities,
    find_fixed_points,
    rule_firing_probabilities,
)
from swarmdec.hypergeom import pmf_table
from swarmdec.model import NoiseSpec, RulePolarity, RuleSet, count_of_z, iter_rulesets, lattice_z
from swarmdec.schema import parse_polarity_string

NO_NOISE = NoiseSpec(0.0)


def lattice_zs(n: int) -> tuple[float, ...]:
    """The lattice ``z_K = 2K/N - 1`` for ``K = 0..N``."""
    return tuple(lattice_z(count, n) for count in range(n + 1))


@functools.lru_cache(maxsize=None)
def rational_rule_drift(n: int, count: int, rules: RuleSet) -> Fraction:
    """Exact-rational reference for the rule term of the drift, from the
    binomials of the hypergeometric law themselves."""
    g = rules.group_size
    hits = [math.comb(count, k) * math.comb(n - count, g - k) for k in range(g + 1)]
    return Fraction(sum(map(operator.mul, rules.signed_weights, hits)), math.comb(n, g))


def rational_drift(n: int, rules: RuleSet, epsilon: float, z: float) -> Fraction:
    """Exact-rational drift at ``z``: the rule term of the state whose exact
    cell holds ``z``, minus ``epsilon * z``."""
    z = Fraction(z)
    count = min(max(math.floor(n * (z + 1) / 2 + Fraction(1, 2)), 0), n)
    return rational_rule_drift(n, count, rules) - Fraction(epsilon) * z


def lattice_sign_changes(
    n: int, rules: RuleSet | None, epsilon: float, lo: float, hi: float
) -> list[tuple[Fraction, Stability]]:
    """Every sign change in ``[lo, hi]`` of the program's own lattice drift
    ``R_K - epsilon*z``, exactly: ``R_K`` is ``_rule_term``'s double, ``K``'s
    cell is ``[(2K-1-N)/N, (2K+1-N)/N)``, and all arithmetic is rational."""
    eps = Fraction(epsilon)

    def term(count):
        return Fraction(0) if rules is None else Fraction(drift._rule_term(n, rules, count))

    def sign(x):
        return (x > 0) - (x < 0)

    first = max(count_of_z(n, lo) - 1, 0)
    last = min(count_of_z(n, hi) + 1, n)
    changes = []
    for count in range(first, last + 1):
        upper = Fraction(2 * count + 1 - n, n)
        if eps and Fraction(2 * count - 1 - n, n) <= term(count) / eps <= upper:
            changes.append((term(count) / eps, Stability.STABLE))  # falls through zero
        if count < last:  # the jump from cell count to the next
            left, right = sign(term(count) - eps * upper), sign(term(count + 1) - eps * upper)
            if left != right:
                changes.append((upper, Stability.STABLE if left > right else Stability.UNSTABLE))
    return [(x, s) for x, s in changes if Fraction(lo) <= x <= Fraction(hi)]


def rational_sign_runs(n: int, rules: RuleSet) -> list[int]:
    """Collapsed sign sequence of the rule drift over the lattice."""
    runs: list[int] = []
    for count in range(n + 1):
        value = rational_rule_drift(n, count, rules)
        sign = 0 if value == 0 else (1 if value > 0 else -1)
        if not runs or runs[-1] != sign:
            runs.append(sign)
    return runs


class TestAnalyticDrift:
    @pytest.mark.parametrize("rules", [None, parse_polarity_string("M", 3)], ids=["noise-only", "M"])
    @pytest.mark.parametrize("n", [2**1023 + 1, 10**400 + 1])
    def test_swarm_above_the_cap_is_refused(self, n, rules):
        # The lattice map of such an N overflowed a double (OverflowError).
        with pytest.raises(ValueError, match="swarm size"):
            analytic_drift(n, rules, NO_NOISE, 1.0)
        with pytest.raises(ValueError, match="swarm size"):
            list(analytic_drift_curve(n, rules, NO_NOISE, 5))
        with pytest.raises(ValueError, match="swarm size"):
            find_fixed_points(n, rules, NO_NOISE, 5)

    def test_pure_noise_extrema(self):
        for epsilon in (0.05, 0.1):
            noise = NoiseSpec(epsilon)
            assert analytic_drift(101, None, noise, 1.0) == -epsilon
            assert analytic_drift(101, None, noise, -1.0) == epsilon

    def test_pure_noise_is_linear(self):
        for z in (-0.75, -0.2, 0.0, 0.4, 1.0):
            assert analytic_drift(101, None, NoiseSpec(0.1), z) == -(0.1 * z)

    def test_boundaries_are_critical_without_noise(self):
        for rules in iter_rulesets(7):
            assert analytic_drift(101, rules, NO_NOISE, 1.0) == 0.0
            assert analytic_drift(101, rules, NO_NOISE, -1.0) == 0.0

    def test_center_value_all_majority(self):
        # z = 0 quantizes to K = 51 (half rounds away from zero), where
        # the all-majority drift is strictly positive; the mirrored
        # state K = 50 gives the exact negation.
        rules = parse_polarity_string("MMM", 7)
        expected = float(rational_rule_drift(101, 51, rules))
        assert expected > 0
        assert analytic_drift(101, rules, NO_NOISE, 0.0) == pytest.approx(
            expected, abs=1e-15
        )
        just_below = analytic_drift(101, rules, NO_NOISE, -1e-6)
        assert just_below == pytest.approx(-expected, abs=1e-15)

    def test_value_against_rational_reference_at_half(self):
        # z = 0.5 quantizes to K = 76.
        rules = parse_polarity_string("MMM", 7)
        expected = float(rational_rule_drift(101, 76, rules))
        assert expected > 0
        assert analytic_drift(101, rules, NO_NOISE, 0.5) == pytest.approx(
            expected, abs=1e-15
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            analytic_drift(101, None, NO_NOISE, 1.5)
        with pytest.raises(ValueError, match="at least 2 points"):
            analytic_drift_curve(101, None, NO_NOISE, 1)

    def test_noise_superposes_exactly(self):
        rules = parse_polarity_string("MmM", 7)
        for epsilon in (0.05, 0.1):
            noisy = NoiseSpec(epsilon)
            for z in lattice_zs(101):
                assert analytic_drift(101, rules, noisy, z) == analytic_drift(
                    101, rules, NO_NOISE, z
                ) - epsilon * z

    @pytest.mark.parametrize("epsilon", [0.0, 0.07])
    def test_lattice_antisymmetry(self, epsilon):
        n = 101
        noise = NoiseSpec(epsilon)
        zs = lattice_zs(n)
        for rules in iter_rulesets(7):
            for count in range(n + 1):
                a = analytic_drift(n, rules, noise, zs[count])
                b = analytic_drift(n, rules, noise, zs[n - count])
                assert abs(a + b) <= 1e-12

    def test_curve_on_grid(self):
        rules = parse_polarity_string("MMM", 7)
        points = list(analytic_drift_curve(101, rules, NO_NOISE, grid_points=201))
        assert len(points) == 201
        assert points[0] == (-1.0, 0.0) and points[-1] == (1.0, 0.0)

    @pytest.mark.parametrize("sizes", [range(2, 3000), [20001, 10**6]], ids=["2-2999", "large"])
    def test_grid_is_numpy_linspace_bit_for_bit(self, sizes):
        for n in sizes:
            expected = np.linspace(-1.0, 1.0, n)
            assert np.array(list(drift._Grid(n))).tobytes() == expected.tobytes(), n


def per_point_drift(n: int, rules: RuleSet | None, epsilon: float, z: float) -> float:
    """The drift by its definition, point by point: every point rounds z to
    its state (as ``state_of_z`` does) and takes that state's exact rational
    rule term, rounded once, minus the noise term."""
    noise_term = epsilon * z
    if rules is None:
        return -noise_term
    count = min(max(math.floor(n * (z + 1.0) / 2.0 + 0.5), 0), n)  # half away from zero
    return float(rational_rule_drift(n, count, rules)) - noise_term


def bits(values) -> bytes:
    """The doubles as bytes, so that -0.0 and 0.0 differ."""
    values = list(values)
    return struct.pack(f"{len(values)}d", *values)


#: (N, rule set) of every G = 3, 5, 7 rule set and ``None`` at each N it fits.
ENGINE_CASES = [
    (n, rules)
    for n in (1, 3, 101, 100001)
    for rules in (None, *(r for g in (3, 5, 7) for r in iter_rulesets(g)))
    if rules is None or rules.group_size <= n
]


class TestLatticeEngine:
    """The per-state rule term gives every double the per-point definition
    gives: the correctly rounded rational rule term minus ``epsilon * z``."""

    @pytest.mark.parametrize(
        "n, rules", ENGINE_CASES, ids=[f"{n}-{r.label if r else 'none'}" for n, r in ENGINE_CASES]
    )
    def test_bit_identical_to_per_point_formula(self, n, rules):
        rng = random.Random(n)
        off_lattice = sorted(
            [rng.uniform(-1.0, 1.0) for _ in range(300)]
            # ties between two states, rounded away from zero
            + [(2 * count + 1) / n - 1.0 for count in range(0, n, max(1, n // 50))]
            + [-1.0, 1.0]
        )
        # the lattice states z_K: every one below N = 2000, every (N // 1000)-th above
        lattice = [lattice_z(count, n) for count in range(0, n + 1, max(1, n // 1000))]
        for epsilon in (0.0, 0.05, 0.1):
            noise = NoiseSpec(epsilon)
            for grid in (2, 201, 2001):
                zs, values = zip(*analytic_drift_curve(n, rules, noise, grid))
                expected = [per_point_drift(n, rules, epsilon, z) for z in zs]
                assert bits(values) == bits(expected), (epsilon, grid)
                assert zs == tuple(drift._Grid(grid))
            for zs in (off_lattice, lattice):
                expected = [per_point_drift(n, rules, epsilon, z) for z in zs]
                values = drift._drift_values(n, rules, epsilon, zs)
                assert bits(values) == bits(expected), epsilon
            points = [-1.0, 1.0, off_lattice[len(off_lattice) // 2]]
            assert bits(analytic_drift(n, rules, noise, z) for z in points) == bits(
                per_point_drift(n, rules, epsilon, z) for z in points
            )

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_fixed_points_scan_is_the_per_point_curve(self, monkeypatch, epsilon):
        rules = parse_polarity_string("MmM", 7)
        scanned = []
        real = drift._drift_values

        def recording(*args):
            values = list(real(*args))
            scanned.append((args[3], values))
            return iter(values)

        monkeypatch.setattr(drift, "_drift_values", recording)
        find_fixed_points(101, rules, NoiseSpec(epsilon), 2001)
        (zs, values), *_ = scanned
        assert bits(values) == bits(per_point_drift(101, rules, epsilon, z) for z in zs)


def count_rule_columns(monkeypatch) -> list:
    """Record the arguments of every integer column (``_hits``) the drift
    module builds, one per rule term."""
    calls = []
    real = drift._hits

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(drift, "_hits", counting)
    return calls


def count_bisect_evaluations(monkeypatch) -> list:
    """One entry per drift evaluation made inside ``_bisect``."""
    evaluations = []
    real = drift._bisect

    def counting(f, *args):
        def counted(z):
            evaluations.append(z)
            return f(z)

        return real(counted, *args)

    monkeypatch.setattr(drift, "_bisect", counting)
    return evaluations


class TestTablesBuilt:
    def test_curve_builds_one_table_per_state(self, monkeypatch):
        calls = count_rule_columns(monkeypatch)
        points = analytic_drift_curve(101, parse_polarity_string("MMm", 7), NoiseSpec(0.05), 20001)
        assert calls == []  # lazy: no column until the points are read
        assert len(list(points)) == 20001
        assert len(calls) == 102
        assert sorted(count for _, count, _ in calls) == list(range(102))

    @pytest.mark.parametrize(
        "label, epsilon, grid, float_bisection_steps",
        # the steps, one column each, that a float bisection to a 1e-9 bracket took
        [("MMM", 0.0, 2001, 20), ("MMM", 0.1, 2001, 60), ("MMm", 0.05, 2001, 60),
         ("mmm", 0.0, 2001, 20), ("Mm", 0.1, 201, 72)],
    )
    def test_fixed_points_scan_builds_one_table_per_state(
        self, monkeypatch, label, epsilon, grid, float_bisection_steps
    ):
        calls = count_rule_columns(monkeypatch)
        evaluations = count_bisect_evaluations(monkeypatch)
        rules = parse_polarity_string(label, 2 * len(label) + 1)
        find_fixed_points(101, rules, NoiseSpec(epsilon), grid)
        # The scan visits every state once.  No two neighbouring grid points
        # here lie more than one state apart, so the bisection evaluates no
        # state, and each of the two stable zeros at epsilon > 0 reads the
        # rule terms of the two states around it.
        assert evaluations == []
        assert len(calls) == 102 + (4 if epsilon else 0) < 102 + float_bisection_steps

    def test_bisection_count_at_large_n(self, monkeypatch):
        calls = count_rule_columns(monkeypatch)
        evaluations = count_bisect_evaluations(monkeypatch)
        find_fixed_points(1001, parse_polarity_string("MmM", 7), NoiseSpec(0.05), 501)
        assert len(evaluations) == 4  # 66 steps of a float bisection to 1e-9
        # The scan, the bisections, and the two states around each of the two stable zeros.
        assert len(calls) == 501 + 4 + 4


class TestNegateCheck:
    """The lattice drift of a rule set's polarity complement is its exact
    negation, ``a == -b`` at every state: the contract ``validate`` checks."""

    PAIRS = [
        (rules.label, rules.complement().label)
        for g in (3, 5, 7, 9, 11)
        for rules in iter_rulesets(g)
        if rules.label[0] == "M"
    ]

    @pytest.mark.parametrize("a, b", PAIRS)
    def test_complementary_pairs_negate(self, a, b):
        g = 2 * len(a) + 1
        rules_a, rules_b = parse_polarity_string(a, g), parse_polarity_string(b, g)
        for n in sorted({g, g + 2, 11, 101, 1001}):
            values_a = list(drift._drift_values(n, rules_a, 0.0, lattice_zs(n)))
            values_b = list(drift._drift_values(n, rules_b, 0.0, lattice_zs(n)))
            assert len(values_a) == n + 1
            assert all(x == -y for x, y in zip(values_a, values_b)), (n, a)


class TestEmpiricalDrift:
    def test_validation(self):
        with pytest.raises(ValueError):
            list(empirical_drift(101, None, NO_NOISE, 0, seed=0))
        with pytest.raises(ValueError, match="samples_per_state must be in 1"):
            list(empirical_drift(101, None, NO_NOISE, MAX_SAMPLES + 1, seed=0, rule_rate=0.0))
        with pytest.raises(ValueError):
            list(empirical_drift(101, None, NO_NOISE, 10, seed=0, rule_rate=0.5))
        with pytest.raises(ValueError):
            list(empirical_drift(100, None, NO_NOISE, 10, seed=0, rule_rate=0.0))

    @pytest.mark.parametrize("rule_rate", [math.nan, math.inf, -0.5])
    def test_non_finite_or_negative_rule_rate_rejected(self, rule_rate):
        rules = parse_polarity_string("MMm", 7)
        with pytest.raises(ValueError, match="rule rate must be finite and >= 0"):
            list(empirical_drift(101, rules, NO_NOISE, 10, seed=0, rule_rate=rule_rate))

    @pytest.mark.parametrize("epsilon, rule_rate", [(0.0, 1e308), (1e308, 0.5), (1e308, 0.0)])
    def test_overflowing_rate_rejected(self, epsilon, rule_rate):
        rules = parse_polarity_string("MMm", 7)
        with pytest.raises(ValueError, match="overflows"):
            list(empirical_drift(101, rules, NoiseSpec(epsilon), 10, seed=0, rule_rate=rule_rate))

    def test_negative_seed_rejected(self):
        rules = parse_polarity_string("MMm", 7)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            list(empirical_drift(11, rules, NO_NOISE, 10, seed=-1))
        with pytest.raises(ValueError, match="seed must be >= 0"):
            empirical_firing_probabilities(11, 7, 5, 10, seed=-1)

    def test_frozen_states_report_zero(self):
        curve = empirical_drift(11, None, NO_NOISE, 10, seed=0, rule_rate=0.0)
        assert {estimate for _, estimate in curve} == {0.0}

    def test_consensus_exact_zero_without_noise(self):
        rules = parse_polarity_string("MMM", 7)
        curve = list(empirical_drift(101, rules, NO_NOISE, 200, seed=3))
        assert curve[0] == (-1.0, 0.0)
        assert curve[-1] == (1.0, 0.0)

    def test_matches_analytic_small_system(self):
        rules = parse_polarity_string("M", 3)
        noise = NoiseSpec(0.1)
        curve = empirical_drift(21, rules, noise, 20_000, seed=2)
        worst = max(
            abs(estimate - analytic_drift(21, rules, noise, z))
            for z, estimate in curve
        )
        assert worst < 0.05

    def test_metadata_and_lattice(self):
        rules = parse_polarity_string("MM", 5)
        curve = empirical_drift(11, rules, NO_NOISE, 50, seed=0)
        assert tuple(z for z, _ in curve) == lattice_zs(11)

    def test_deterministic_and_order_independent_seeding(self):
        rules = parse_polarity_string("MM", 5)
        a = list(empirical_drift(11, rules, NoiseSpec(0.1), 500, seed=9))
        b = list(empirical_drift(11, rules, NoiseSpec(0.1), 500, seed=9))
        assert a == b


class TestFiringProbabilities:
    def test_analytic_is_composition_law(self):
        assert rule_firing_probabilities(101, 7, 51) == pmf_table(101, 51, 7)

    def test_empirical_matches_law(self):
        table = empirical_firing_probabilities(101, 7, 51, draws=200_000, seed=1)
        expected = pmf_table(101, 51, 7)
        for k in range(8):
            assert abs(table[k] - expected[k]) < 0.01

    def test_empirical_validation(self):
        with pytest.raises(ValueError):
            empirical_firing_probabilities(101, 7, 51, draws=0, seed=1)
        for draws in (MAX_SAMPLES + 1, 10**20):
            with pytest.raises(ValueError, match="draws must be in 1"):
                empirical_firing_probabilities(101, 7, 51, draws=draws, seed=1)


#: False-alarm probability of each cell's bound in the sampled-law tests.
CELL_FALSE_ALARM = 1e-9


def bernstein_radius(draws: int, p: float, delta: float = CELL_FALSE_ALARM) -> float:
    """Smallest ``t`` with ``P(|Binomial(draws, p) - draws*p| >= t) <= delta``
    by Bernstein's inequality (summands in [0, 1])."""
    log_term = math.log(2.0 / delta)
    a = log_term / 3.0
    return a + math.sqrt(a * a + 2.0 * draws * p * (1.0 - p) * log_term)


def binomial_pmf(n: int, p: float) -> list[float]:
    """Exact ``Binomial(n, p)`` probabilities of ``k = 0..n``, each rounded
    once from its rational value."""
    q = Fraction(p)
    return [float(math.comb(n, k) * q**k * (1 - q) ** (n - k)) for k in range(n + 1)]


class TestBinomial:
    """``drift._binomial`` draws ``Binomial(n, p)`` on each of its branches."""

    DRAWS = 200_000

    @pytest.mark.parametrize(
        "n, p",
        [
            (1, 0.3),  # n = 1
            (1, 0.8),  # n = 1, reflected
            (40, 0.1),  # geometric method, n*p = 4
            (100, 0.0999),  # geometric method, n*p just below 10
            (100, 0.1001),  # BTRS, n*p just above 10
            (200, 0.3),  # BTRS
            (60, 0.85),  # reflected to the geometric method
            (200, 0.7),  # reflected to BTRS
        ],
    )
    def test_every_cell_follows_the_binomial_law(self, n, p):
        uniform = random.Random(0).random
        hits = [0] * (n + 1)
        for _ in range(self.DRAWS):
            hits[drift._binomial(uniform, n, p)] += 1
        # Each cell is Binomial(DRAWS, p_k); at most 201 cells at 1e-9 each.
        for k, p_k in enumerate(binomial_pmf(n, p)):
            assert abs(hits[k] - self.DRAWS * p_k) <= bernstein_radius(self.DRAWS, p_k), k

    @pytest.mark.parametrize("p", [0.3, 0.7, 5e-9])  # BTRS, reflected, geometric
    def test_largest_n(self, p):
        # A sum of independent Binomial(n, p) draws is Binomial(draws * n, p).
        uniform = random.Random(1).random
        values = [drift._binomial(uniform, MAX_SAMPLES, p) for _ in range(2000)]
        assert all(type(v) is int and 0 <= v <= MAX_SAMPLES for v in values)
        total = len(values) * MAX_SAMPLES
        assert abs(sum(values) - total * p) <= bernstein_radius(total, p)

    @pytest.mark.parametrize("p", [5e-324, 1e-320, 1 - 2**-53, 1.0])
    def test_extreme_p_draws_an_int_in_range(self, p):
        # At a subnormal p the geometric gap is inf, which floor() refuses.
        uniform = random.Random(2).random
        for n in (1, 10, 1000, MAX_SAMPLES):
            for _ in range(100):
                value = drift._binomial(uniform, n, p)
                assert type(value) is int and 0 <= value <= n, (n, value)


class TestUrnCounts:
    """``_urn_counts`` draws the histogram of ``draws`` sequential-urn groups."""

    N, G, DRAWS = 21, 7, 10**7

    @pytest.mark.parametrize("count", range(N + 1))
    def test_histogram_follows_the_composition_law(self, count):
        rng = random.Random(20 * 2**64 + count)
        hits = drift._urn_counts(rng, self.N, count, self.G, self.DRAWS)
        assert sum(hits) == self.DRAWS
        lowest, highest = max(0, self.G - (self.N - count)), min(self.G, count)
        assert all(h == 0 for k, h in enumerate(hits) if not lowest <= k <= highest)
        # Each cell is Binomial(DRAWS, p_k); 8 cells per state at 1e-9 each.
        for k, p in enumerate(pmf_table(self.N, count, self.G)):
            assert abs(hits[k] - self.DRAWS * p) <= bernstein_radius(self.DRAWS, p), (count, k)

    def test_cost_does_not_grow_with_draws(self):
        start = time.perf_counter()
        table = empirical_firing_probabilities(101, 7, 51, MAX_SAMPLES, seed=5)
        assert time.perf_counter() - start < 5.0
        assert math.fsum(table) == 1.0

    def test_group_larger_than_swarm_rejected(self):
        with pytest.raises(ValueError, match="group size"):
            empirical_firing_probabilities(3, 5, 1, draws=10, seed=0)
        with pytest.raises(ValueError, match="count_x1"):
            empirical_firing_probabilities(11, 5, 12, draws=10, seed=0)


class TestRouteIndependence:
    """The samplers never read the pmf they are compared with: the pmf,
    ``pmf_table`` and its integer column ``_hits`` raise when called from
    inside a sampler, numpy cannot be imported, and the sampled outputs are
    unchanged."""

    SAMPLERS = {drift.empirical_drift.__code__, drift.empirical_firing_probabilities.__code__}
    COMMANDS = [
        ["probs", "--agents", "31", "--group", "7", "--empirical", "--samples", "5000"],
        ["drift", "--agents", "31", "--rules", "MMm", "--epsilon", "0.05", "--empirical",
         "--samples", "5000"],
    ]

    def run_everything(self, tmp_path):
        rules = parse_polarity_string("MMm", 7)
        results = [
            list(empirical_drift(31, rules, NoiseSpec(0.05), 5000, seed=3)),
            [empirical_firing_probabilities(31, 7, count, 5000, seed=3) for count in range(32)],
        ]
        tmp_path.mkdir()
        for index, argv in enumerate(self.COMMANDS):
            out = tmp_path / f"{index}.csv"
            assert cli.main([*argv, "--seed", "3", "--out", str(out)]) == 0
            results.append(out.with_suffix(".empirical.csv").read_bytes())
        return results

    def forbid(self, monkeypatch):
        samplers = self.SAMPLERS

        def guarded(fn):
            def wrapper(*args, **kwargs):
                frame = sys._getframe(1)
                while frame is not None:
                    if frame.f_code in samplers:
                        raise AssertionError(f"a sampler called {fn.__name__}")
                    frame = frame.f_back
                return fn(*args, **kwargs)
            return wrapper

        for module in (swarmdec, hypergeom, drift, cli):
            for name in ("pmf", "pmf_table", "_hits"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, guarded(getattr(module, name)))
        # The samplers run on the standard library: importing numpy fails.
        monkeypatch.setitem(sys.modules, "numpy", None)

    def test_samplers_run_without_the_pmf(self, tmp_path, monkeypatch, capsys):
        expected = self.run_everything(tmp_path / "free")
        with monkeypatch.context() as patch:
            self.forbid(patch)
            assert self.run_everything(tmp_path / "guarded") == expected
        capsys.readouterr()

    def test_guard_catches_a_sampler_reading_the_pmf(self, monkeypatch):
        self.forbid(monkeypatch)
        monkeypatch.setattr(drift, "_urn_counts", lambda *args: list(drift.pmf_table(*args[1:4])))
        with pytest.raises(AssertionError, match="a sampler called pmf_table"):
            empirical_firing_probabilities(31, 7, 10, 100, seed=0)

    def test_guard_catches_a_sampler_importing_numpy(self, monkeypatch):
        self.forbid(monkeypatch)

        def numpy_counts(*args):
            import numpy

            return [numpy.int64(0)] * 8

        monkeypatch.setattr(drift, "_urn_counts", numpy_counts)
        with pytest.raises(ImportError, match="numpy"):
            empirical_firing_probabilities(31, 7, 10, 100, seed=0)


def test_sampler_memory_is_bounded():
    # Drawing groups one by one would hold 8 bytes per draw (16 MB for
    # each call here); the samplers hold one histogram per state.
    tracemalloc.start()
    try:
        empirical_firing_probabilities(101, 7, 51, draws=2_000_000, seed=1)
        list(empirical_drift(3, parse_polarity_string("M", 3), NO_NOISE, 2_000_000, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


class TestPerStatePool:
    """Each lattice state draws from its own generator, seeded with
    ``seed * 2**64 + K``, and the samplers share no state between calls,
    so the states may be sampled in any order on a pool of threads;
    results must not depend on its size."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_independent_of_worker_count(self, workers):
        rules = parse_polarity_string("MMm", 7)
        serial = [
            empirical_firing_probabilities(31, 7, count, 3000, seed=8) for count in range(32)
        ]
        drift_serial = list(empirical_drift(31, rules, NoiseSpec(0.05), 3000, seed=8))
        with ThreadPoolExecutor(workers) as pool:
            pooled = pool.map(
                lambda count: empirical_firing_probabilities(31, 7, count, 3000, seed=8),
                reversed(range(32)),
            )
            drifts = [
                pool.submit(lambda: list(empirical_drift(31, rules, NoiseSpec(0.05), 3000, seed=8)))
                for _ in range(workers)
            ]
            assert list(pooled)[::-1] == serial
            assert [future.result() for future in drifts] == [drift_serial] * workers

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_overflowing_rate_rejected(self, workers):
        rules = parse_polarity_string("MMm", 7)

        def sample():
            with pytest.raises(ValueError, match="overflows for N = 101"):
                list(empirical_drift(101, rules, NO_NOISE, 10, seed=0, rule_rate=1e308))

        with ThreadPoolExecutor(workers) as pool:
            for future in [pool.submit(sample) for _ in range(workers)]:
                future.result()


class TestFixedPoints:
    def test_all_majority_structure(self):
        rules = parse_polarity_string("MMM", 7)
        points = find_fixed_points(101, rules, NO_NOISE)
        assert [fp.stability for fp in points] == [
            Stability.STABLE,
            Stability.UNSTABLE,
            Stability.STABLE,
        ]
        assert points[0].z == -1.0
        assert abs(points[1].z) <= 1e-6
        assert points[2].z == 1.0

    def test_all_minority_structure(self):
        rules = parse_polarity_string("mmm", 7)
        points = find_fixed_points(101, rules, NO_NOISE)
        assert [fp.stability for fp in points] == [
            Stability.UNSTABLE,
            Stability.STABLE,
            Stability.UNSTABLE,
        ]
        assert abs(points[1].z) <= 1e-6

    def test_mixed_set_has_five_fixed_points(self):
        rules = parse_polarity_string("Mmm", 7)
        points = find_fixed_points(101, rules, NO_NOISE)
        assert len(points) == 5
        assert [fp.stability for fp in points] == [
            Stability.STABLE,
            Stability.UNSTABLE,
            Stability.STABLE,
            Stability.UNSTABLE,
            Stability.STABLE,
        ]

    def test_noise_pushes_critical_points_inside(self):
        rules = parse_polarity_string("MMM", 7)
        points = find_fixed_points(101, rules, NoiseSpec(0.1))
        stable = [fp for fp in points if fp.stability is Stability.STABLE]
        assert len(stable) == 2
        for fp in stable:
            assert abs(fp.z) < 1.0 - 1.0 / 101
        assert all(fp.z not in (-1.0, 1.0) for fp in points)

    def test_pure_noise_single_stable_root(self):
        points = find_fixed_points(101, None, NoiseSpec(0.1))
        assert len(points) == 1
        assert points[0].stability is Stability.STABLE
        assert abs(points[0].z) <= 1e-3

    def test_pure_noise_at_tiny_epsilon_is_stable_at_zero(self):
        # The strict + -> - crossing of -epsilon*z was once called marginal,
        # at z = 2.995e-10: its slope, 1e-11, fell below a slope threshold.
        (point,) = find_fixed_points(101, None, NoiseSpec(1e-11), 200)
        assert point.stability is Stability.STABLE
        assert point.z.hex() == (0.0).hex()

    def test_brackets_hold_exact_sign_changes_at_tiny_noise(self):
        # Each bracket holds a sign change of the exact rational drift, with
        # the stability its signs give (once, a float bracket narrowed to
        # 1e-9 held none, and its point was called marginal).
        n, rules, epsilon = 11, parse_polarity_string("MMm", 7), 1e-11
        points = find_fixed_points(n, rules, NoiseSpec(epsilon), 200)
        assert len(points) == 5
        for fp in points:
            lo, hi = fp.bracket
            assert lo <= fp.z <= hi
            d_lo, d_hi = (rational_drift(n, rules, epsilon, z) for z in (lo, hi))
            if fp.stability is Stability.STABLE:
                assert d_lo > 0 > d_hi, fp
            else:
                assert fp.stability is Stability.UNSTABLE and d_lo < 0 < d_hi, fp

    @pytest.mark.parametrize("grid_points", [2001, 201])
    @pytest.mark.parametrize("n", [11, 101, 1001])
    def test_sign_changes_are_the_rounded_lattice_zeros(self, n, grid_points):
        # Each zero between two grid points lies within half an ulp of an
        # exact sign change of the lattice drift, with its direction.  At
        # epsilon 0.3 to 1.0 some stable zeros lie where the rule term rises
        # (0 < R' < epsilon), so that the drift falls through zero in the
        # lower of two adjacent cells while the root R_K/epsilon of the upper
        # cell lies below their boundary too; a grid of 201 points puts such
        # a pair between two grid points at N = 1001.
        grid = {z: i for i, z in enumerate(drift._Grid(grid_points))}
        checked = 0
        for rules in [None, *(r for g in (3, 5, 7) for r in iter_rulesets(g))]:
            for epsilon in (0.0, 0.05, 0.1, 1e-11, 0.3, 0.6, 1.0):
                for fp in find_fixed_points(n, rules, NoiseSpec(epsilon), grid_points):
                    lo, hi = fp.bracket
                    if grid[hi] != grid[lo] + 1 or 0.0 in (
                        analytic_drift(n, rules, NoiseSpec(epsilon), lo),
                        analytic_drift(n, rules, NoiseSpec(epsilon), hi),
                    ):
                        continue  # a zero plateau
                    half_ulp = Fraction(math.ulp(fp.z)) / 2
                    assert any(
                        abs(Fraction(fp.z) - x) <= half_ulp and s is fp.stability
                        for x, s in lattice_sign_changes(n, rules, epsilon, lo, hi)
                    ), (rules, epsilon, fp)
                    checked += 1
        assert checked >= 100

    def test_identically_zero_drift_is_marginal(self):
        points = find_fixed_points(101, None, NO_NOISE)
        assert points == [FixedPoint(0.0, Stability.MARGINAL, (-1.0, 1.0))]

    def test_bracket_soundness(self):
        noise = NoiseSpec(0.05)
        for rules in iter_rulesets(7):
            for fp in find_fixed_points(101, rules, noise):
                lo, hi = fp.bracket
                assert lo <= fp.z <= hi
                f_lo = analytic_drift(101, rules, noise, lo)
                f_hi = analytic_drift(101, rules, noise, hi)
                if fp.stability is Stability.STABLE:
                    assert f_lo > 0 > f_hi
                elif fp.stability is Stability.UNSTABLE:
                    assert f_lo < 0 < f_hi

    @pytest.mark.parametrize(
        "n, label, epsilon, grid",
        [(895240849967267265, "MMM", 0.0, 367), (97811231052565155, "mmm", 1e-11, 107)],
    )
    def test_zero_stays_in_its_bracket_above_2_53(self, n, label, epsilon, grid):
        # count_of_z rounds N here, so the grid point z = 0 maps to a state
        # whose cell boundary lies just outside the bracket that ends there.
        points = find_fixed_points(n, parse_polarity_string(label, 7), NoiseSpec(epsilon), grid)
        assert 0.0 in [fp.z for fp in points]
        assert all(fp.bracket[0] <= fp.z <= fp.bracket[1] for fp in points)

    @pytest.mark.parametrize("n", [101, 1001])
    def test_mirror_zeros_negate_bit_for_bit(self, n):
        # R_{N-K} == -R_K and the boundary (2K+1-N)/N is rounded once, so
        # every zero has its mirror image, and the centre is exactly 0.0.
        for rules in iter_rulesets(7):
            for epsilon in (0.0, 0.05, 0.1):
                zs = [fp.z for fp in find_fixed_points(n, rules, NoiseSpec(epsilon))]
                half = len(zs) // 2
                assert [z.hex() for z in zs[half + 1:]] == [(-z).hex() for z in reversed(zs[:half])]
                assert zs[half].hex() == (0.0).hex(), (rules, epsilon, zs)

    def test_mirror_zeros_at_the_largest_swarm(self):
        # Here lattice_z and count_of_z round, and the bisection stops where
        # the lattice z of its two states are adjacent doubles, so the two
        # sides end on states that are not mirror images: a pair differs in
        # its last bits.  The two centre states have the exact rule terms
        # +-2.19e-308, so the drift jumps through zero at z = 0; the
        # bisection stops some 8e290 states short of them, at lattice z that
        # no longer differ, and reports the zero of the right state's line
        # R_K - 0.1*z, -2.19e-307, within that resolution (ulp(1.0)) of 0.
        points = find_fixed_points(2**1022 - 1, parse_polarity_string("Mmm", 7), NoiseSpec(0.1), 201)
        assert [(fp.z, fp.stability.value) for fp in points] == [
            (-0.967916192035067, "stable"),
            (-0.642309571150074, "unstable"),
            (-2.1903070794680264e-307, "stable"),
            (0.6423095711500738, "unstable"),
            (0.9679161920350668, "stable"),
        ]
        for fp, mirror in zip(points[:2], reversed(points[3:])):
            assert abs(fp.z + mirror.z) <= 2 * math.ulp(fp.z)
        assert abs(points[2].z) <= math.ulp(1.0)

    @pytest.mark.parametrize("g", [5, 7])
    def test_interior_count_matches_rational_oracle(self, g):
        # The reported interior fixed points must reproduce the sign
        # structure of the exact rational drift over the lattice.
        n = 101
        for rules in iter_rulesets(g):
            runs = rational_sign_runs(n, rules)
            assert runs[0] == 0 and runs[-1] == 0  # consensus plateaus
            interior_runs = [s for s in runs[1:-1]]
            assert 0 not in interior_runs, "unexpected interior rational zero"
            expected_interior = sum(
                1 for a, b in zip(interior_runs, interior_runs[1:]) if a != b
            )
            points = find_fixed_points(n, rules, NO_NOISE)
            interior = [fp for fp in points if abs(fp.z) < 1.0]
            assert len(interior) == expected_interior
            # Boundary stability follows the drift just inside.
            assert points[0].z == -1.0 and points[-1].z == 1.0
            left = Stability.STABLE if interior_runs[0] < 0 else Stability.UNSTABLE
            right = Stability.STABLE if interior_runs[-1] > 0 else Stability.UNSTABLE
            assert points[0].stability is left
            assert points[-1].stability is right

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            find_fixed_points(101, None, NoiseSpec(0.1), grid_points=2)

    @pytest.mark.parametrize(
        "label, epsilon, expected",
        [
            ("MMM", 0.0, [
                FixedPoint(-1.0, Stability.STABLE, (-1.0, -0.991)),
                FixedPoint(0.0, Stability.UNSTABLE, (-0.0010000000000000009, 0.0)),
                FixedPoint(1.0, Stability.STABLE, (0.9910000000000001, 1.0)),
            ]),
            ("MMM", 0.1, [
                FixedPoint(-0.9702970297029703, Stability.STABLE, (-0.971, -0.97)),
                FixedPoint(0.0, Stability.UNSTABLE, (-0.0010000000000000009, 0.0)),
                FixedPoint(0.9702970297029703, Stability.STABLE, (0.97, 0.9710000000000001)),
            ]),
        ],
    )
    def test_pinned_fixed_points(self, label, epsilon, expected):
        # Pinned bit for bit: the values the numpy.linspace grid gives (the
        # all-zero case is pinned by test_identically_zero_drift_is_marginal).
        rules = parse_polarity_string(label, 7)
        assert find_fixed_points(101, rules, NoiseSpec(epsilon)) == expected


class TestMixedG5RuleSet:
    def test_interior_root_sits_near_zero(self):
        # The two-majority/two-minority G=5 set has one interior
        # (unstable) root; the bracketing places it at the center, not
        # at any off-center location.
        rules = parse_polarity_string("Mm", 5)
        points = find_fixed_points(101, rules, NO_NOISE)
        assert [fp.stability for fp in points] == [
            Stability.STABLE,
            Stability.UNSTABLE,
            Stability.STABLE,
        ]
        assert abs(points[1].z) <= 1e-6
        # Exact rational signs flip once, between K = 50 and K = 51.
        assert rational_rule_drift(101, 50, rules) < 0
        assert rational_rule_drift(101, 51, rules) > 0



try:
    from hypothesis import example, given, settings, strategies as st
except ImportError:  # hypothesis comes with the test extra
    st = None

if st is not None:

    @st.composite
    def rule_states(draw):
        # Odd N up to MAX_SWARM_SIZE = 2**1022 - 1, small ones often; odd G
        # from 3 to min(N, 64) with any polarities; K at the edges of the
        # support, or anywhere.
        n = 2 * draw(st.integers(1, 60) | st.integers(1, 2**1021 - 1)) + 1
        g = 2 * draw(st.integers(1, (min(n, 64) - 1) // 2)) + 1
        polarities = draw(st.lists(st.sampled_from(RulePolarity), min_size=g // 2, max_size=g // 2))
        edges = [c for c in (0, 1, g - 1, g, n - g, n - 1, n, n // 2, n // 2 + 1) if 0 <= c <= n]
        count = draw(st.sampled_from(edges) | st.integers(0, n))
        return n, count, RuleSet(g, tuple(polarities))

    @settings(max_examples=300, deadline=None)
    @example((2**1022 - 1, 2**1021 - 1, parse_polarity_string("Mmm", 7)))
    @example((101, 49, parse_polarity_string("MmM", 7)))
    @example((3, 1, parse_polarity_string("m", 3)))
    @given(rule_states())
    def test_rule_term_is_the_correctly_rounded_integer_sum(state):
        n, count, rules = state
        term = drift._rule_term(n, rules, count)
        assert term == float(rational_rule_drift(n, count, rules))
        # A nonzero double equals only itself, so this is bit for bit.
        assert term == -drift._rule_term(n, rules.complement(), count)
