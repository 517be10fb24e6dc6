"""End-to-end acceptance checks.

Each test prints one ``[acceptance] <id>: PASS/FAIL`` line (run with
``pytest -s`` to see them all); tolerances are pinned in the assertions.
"""

import functools
import json
import math
import tempfile
from pathlib import Path

import pytest

from swarmdec.cli import main as cli_main
from swarmdec.drift import (
    Stability,
    analytic_drift,
    analytic_drift_curve,
    empirical_drift,
    empirical_firing_probabilities,
    find_fixed_points,
    rule_firing_probabilities,
)
from swarmdec.hypergeom import pmf_bruteforce, pmf_table
from swarmdec.model import NoiseSpec, SwarmState, iter_rulesets, lattice_z
from swarmdec.schema import format_schema, parse_polarity_string, parse_schema
from swarmdec.ssa import SimConfig, simulate

N_AGENTS = 101
NO_NOISE = NoiseSpec(0.0)

COMPLEMENT_PAIRS = [("MMM", "mmm"), ("MMm", "mmM"), ("MmM", "mMm"), ("Mmm", "mMM")]

# Expected canonical listings for every G=7 rule set, written out by hand
# from the rule semantics (majority shrinks the minority side, minority
# grows it; mirror compositions share one polarity).
EXPECTED_G7_LISTINGS = {
    "MMM": (
        "X1+6X2 -> 7X2\n2X1+5X2 -> X1+6X2\n3X1+4X2 -> 2X1+5X2\n"
        "4X1+3X2 -> 5X1+2X2\n5X1+2X2 -> 6X1+X2\n6X1+X2 -> 7X1\n"
    ),
    "MMm": (
        "X1+6X2 -> 7X2\n2X1+5X2 -> X1+6X2\n3X1+4X2 -> 4X1+3X2\n"
        "4X1+3X2 -> 3X1+4X2\n5X1+2X2 -> 6X1+X2\n6X1+X2 -> 7X1\n"
    ),
    "MmM": (
        "X1+6X2 -> 7X2\n2X1+5X2 -> 3X1+4X2\n3X1+4X2 -> 2X1+5X2\n"
        "4X1+3X2 -> 5X1+2X2\n5X1+2X2 -> 4X1+3X2\n6X1+X2 -> 7X1\n"
    ),
    "Mmm": (
        "X1+6X2 -> 7X2\n2X1+5X2 -> 3X1+4X2\n3X1+4X2 -> 4X1+3X2\n"
        "4X1+3X2 -> 3X1+4X2\n5X1+2X2 -> 4X1+3X2\n6X1+X2 -> 7X1\n"
    ),
    "mMM": (
        "X1+6X2 -> 2X1+5X2\n2X1+5X2 -> X1+6X2\n3X1+4X2 -> 2X1+5X2\n"
        "4X1+3X2 -> 5X1+2X2\n5X1+2X2 -> 6X1+X2\n6X1+X2 -> 5X1+2X2\n"
    ),
    "mMm": (
        "X1+6X2 -> 2X1+5X2\n2X1+5X2 -> X1+6X2\n3X1+4X2 -> 4X1+3X2\n"
        "4X1+3X2 -> 3X1+4X2\n5X1+2X2 -> 6X1+X2\n6X1+X2 -> 5X1+2X2\n"
    ),
    "mmM": (
        "X1+6X2 -> 2X1+5X2\n2X1+5X2 -> 3X1+4X2\n3X1+4X2 -> 2X1+5X2\n"
        "4X1+3X2 -> 5X1+2X2\n5X1+2X2 -> 4X1+3X2\n6X1+X2 -> 5X1+2X2\n"
    ),
    "mmm": (
        "X1+6X2 -> 2X1+5X2\n2X1+5X2 -> 3X1+4X2\n3X1+4X2 -> 4X1+3X2\n"
        "4X1+3X2 -> 3X1+4X2\n5X1+2X2 -> 4X1+3X2\n6X1+X2 -> 5X1+2X2\n"
    ),
}


def criterion(cid, title):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {cid} ({title}): FAIL")
                raise
            print(f"[acceptance] {cid} ({title}): PASS")
            return result

        return wrapper

    return decorate


@criterion("01", "composition pmf agrees with the enumeration oracle")
def test_01_pmf_oracle_equivalence():
    for n in (7, 10, 12, 16):
        for g in (3, 5, 7):
            if g > n:
                continue
            for count in range(n + 1):
                assert pmf_table(n, count, g) == pmf_bruteforce(n, count, g)


@criterion("02", "pmf normalization and mean identities at N=101")
def test_02_normalization_and_mean():
    for g in (5, 7):
        for count in range(N_AGENTS + 1):
            table = pmf_table(N_AGENTS, count, g)
            total = math.fsum(table)
            mean = math.fsum(k * p for k, p in enumerate(table))
            assert abs(total - 1.0) <= 1e-12
            assert abs(mean - g * count / N_AGENTS) <= 1e-10


@criterion("03", "noise superposes on the rule drift")
def test_03_noise_superposition():
    # Stated as drift(z; eps) + eps*z == drift(z; 0) to within 1 ulp;
    # checked in the floating-point-exact rearrangement
    # drift(z; eps) == drift(z; 0) - eps*z, which is 0 ulp.
    zs = [lattice_z(count, N_AGENTS) for count in range(N_AGENTS + 1)]
    for rules in iter_rulesets(7):
        for epsilon in (0.05, 0.1):
            noisy = NoiseSpec(epsilon)
            for z in zs:
                with_noise = analytic_drift(N_AGENTS, rules, noisy, z)
                without = analytic_drift(N_AGENTS, rules, NO_NOISE, z)
                assert with_noise == without - epsilon * z


@criterion("04", "pure-noise drift hits the noise level at the extrema")
def test_04_pure_noise_drift():
    epsilon = 0.1
    noise = NoiseSpec(epsilon)
    assert analytic_drift(N_AGENTS, None, noise, 1.0) == -epsilon
    assert analytic_drift(N_AGENTS, None, noise, -1.0) == epsilon

    samples = 10**5
    curve = empirical_drift(N_AGENTS, None, noise, samples, seed=1, rule_rate=0.0)
    for z, estimate in curve:
        expected = analytic_drift(N_AGENTS, None, noise, z)
        stderr = epsilon * math.sqrt(max(0.0, 1.0 - z * z) / samples)
        # 1e-15 absorbs the rescaling round-off where the standard
        # error vanishes (at the extrema the estimator is
        # deterministic up to one float rounding).
        assert abs(estimate - expected) <= 3.0 * stderr + 1e-15


@criterion("05", "complementary rule sets have opposite drift curves")
def test_05_complement_negation():
    for label_a, label_b in COMPLEMENT_PAIRS:
        # Bit for bit, at every point of a grid that visits every state.
        curve_a, curve_b = (
            analytic_drift_curve(N_AGENTS, parse_polarity_string(label, 7), NO_NOISE, 2001)
            for label in (label_a, label_b)
        )
        assert all(a == -b for (_, a), (_, b) in zip(curve_a, curve_b))


@criterion("06", "fixed-point structure of the uniform rule sets")
def test_06_fixed_point_structure():
    majority = find_fixed_points(
        N_AGENTS, parse_polarity_string("MMM", 7), NO_NOISE, grid_points=2001
    )
    assert [fp.stability for fp in majority] == [
        Stability.STABLE,
        Stability.UNSTABLE,
        Stability.STABLE,
    ]
    assert majority[0].z == -1.0
    assert abs(majority[1].z) <= 1e-6
    assert majority[2].z == 1.0

    minority = find_fixed_points(
        N_AGENTS, parse_polarity_string("mmm", 7), NO_NOISE, grid_points=2001
    )
    assert [fp.stability for fp in minority] == [
        Stability.UNSTABLE,
        Stability.STABLE,
        Stability.UNSTABLE,
    ]
    assert minority[0].z == -1.0
    assert abs(minority[1].z) <= 1e-6
    assert minority[2].z == 1.0


@criterion("07", "noise pushes the stable points strictly inside")
def test_07_noise_pushes_inside():
    points = find_fixed_points(
        N_AGENTS, parse_polarity_string("MMM", 7), NoiseSpec(0.1), grid_points=2001
    )
    stable = [fp for fp in points if fp.stability is Stability.STABLE]
    assert stable
    for fp in stable:
        assert abs(fp.z) < 1.0 - 1.0 / N_AGENTS


@criterion("08", "Monte Carlo drift matches the analytic curve")
def test_08_empirical_vs_analytic_drift():
    rules = parse_polarity_string("MMm", 7)
    noise = NoiseSpec(0.05)
    curve = empirical_drift(N_AGENTS, rules, noise, samples_per_state=10**5, seed=0)
    sup = max(
        abs(estimate - analytic_drift(N_AGENTS, rules, noise, z))
        for z, estimate in curve
    )
    assert sup < 0.02


@criterion("09", "sampled firing frequencies match the composition law")
def test_09_empirical_firing_probabilities():
    observed = empirical_firing_probabilities(N_AGENTS, 7, 51, draws=10**6, seed=0)
    expected = rule_firing_probabilities(N_AGENTS, 7, 51)
    for k in range(8):
        assert abs(observed[k] - expected[k]) < 5e-3


@criterion("10", "majority dynamics absorb at consensus and stay")
def test_10_ssa_absorption():
    rules = parse_polarity_string("MMM", 7)
    reach_config = SimConfig(max_events=10**6, stop_at_consensus=True)
    stay_config = SimConfig(max_events=300)
    for seed in range(100):
        trajectory = simulate(SwarmState(N_AGENTS, 51), rules, reach_config, seed)
        assert trajectory.n_events < 10**6
        assert abs(trajectory.final_state.z) == 1.0
        continuation = simulate(trajectory.final_state, rules, stay_config, seed + 1)
        assert continuation.final_state == trajectory.final_state
        assert set(continuation.counts) <= {trajectory.final_state.count_x1}


@criterion("11", "schema text round-trips and matches the canonical listings")
def test_11_parser_round_trip():
    for g in (3, 5, 7, 9):
        for rules in iter_rulesets(g):
            assert parse_schema(format_schema(rules)) == rules
    for rules in iter_rulesets(7):
        assert format_schema(rules) == EXPECTED_G7_LISTINGS[rules.label]


@criterion("12", "commands are byte-deterministic under fixed flags")
def test_12_cli_determinism():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        def run_twice(args, name):
            paths = [tmp / f"{name}_{i}{Path(name).suffix or '.out'}" for i in (0, 1)]
            for path in paths:
                assert cli_main([*args, "--out", str(path)]) == 0
            assert paths[0].read_bytes() == paths[1].read_bytes()

        run_twice(
            ["simulate", "--rules", "MMm", "--epsilon", "0.05", "--events",
             "2000", "--seed", "9"],
            "trajectory",
        )
        run_twice(
            ["drift", "--agents", "31", "--rules", "Mm", "--epsilon", "0.1",
             "--grid", "101", "--samples", "2000", "--seed", "5", "--empirical"],
            "drift",
        )
        run_twice(["fixed-points", "--rules", "mMm", "--epsilon", "0.05"], "fp")
        for i in (0, 1):
            # The empirical siblings must match as well.
            a = (tmp / f"drift_{i}.out")
            assert a.exists()
        sib = [tmp / f"drift_{i}.out.empirical.csv" for i in (0, 1)]
        assert sib[0].read_bytes() == sib[1].read_bytes()


def test_acceptance_summary_is_complete():
    # Every numbered criterion above must exist exactly once.
    ids = sorted(
        name.split("_")[1] for name in globals() if name.startswith("test_") and name[5:7].isdigit()
    )
    assert ids == [f"{i:02d}" for i in range(1, 13)]
