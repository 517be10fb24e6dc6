"""Tests of the benchmark's independent reference and checks.

    python3 -m pytest bench/test_reference.py

Small cases are compared with subset enumeration written here; the
statistical checks are tried on a faithful and on a deliberately biased
synthetic Gillespie run.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

import checks
import reference as ref
from workloads import WORKLOADS, schema_text


def enumerate_groups(n, count, group):
    population = [1] * count + [0] * (n - count)
    return [sum(draw) for draw in itertools.combinations(population, group)]


@pytest.mark.parametrize("n", range(1, 10))
def test_pmf_matches_subset_enumeration(n):
    for group in (1, 3, 5, 7):
        if group > n:
            continue
        for count in range(n + 1):
            draws = enumerate_groups(n, count, group)
            for k in range(group + 1):
                expected = Fraction(draws.count(k), len(draws))
                assert ref.pmf_exact(n, count, group, k) == expected
                assert ref.pmf_float(n, count, group, k) == float(expected)


@pytest.mark.parametrize("label", ["M", "m", "MM", "Mm", "mM", "mm"])
def test_rule_term_matches_enumeration(label):
    group = 2 * len(label) + 1
    for n in (group, group + 2, 9):
        for count in range(n + 1):
            draws = enumerate_groups(n, count, group)
            expected = Fraction(sum(ref.signed_weight(label, k) for k in draws), len(draws))
            assert ref.rule_term(n, label, count) == expected


def test_signed_weight_follows_polarity():
    # G=3: one X1 in the group is the minority; a majority rule converts it.
    assert ref.signed_weight("M", 1) == -1 and ref.signed_weight("M", 2) == 1
    assert ref.signed_weight("m", 1) == 1 and ref.signed_weight("m", 2) == -1
    assert ref.signed_weight("Mm", 0) == ref.signed_weight("Mm", 5) == 0
    # Polarity slot = minority count: k=1 and k=4 share 'M', k=2 and k=3 share 'm'.
    assert [ref.signed_weight("Mm", k) for k in range(6)] == [0, -1, 1, -1, 1, 0]
    assert ref.all_labels(7) == ["MMM", "MMm", "MmM", "Mmm", "mMM", "mMm", "mmM", "mmm"]


def test_lattice_state_rounds_ties_away_from_zero():
    assert ref.lattice_state(5, Fraction(0)) == 3
    assert ref.lattice_state(101, Fraction(-1)) == 0
    assert ref.lattice_state(101, Fraction(1)) == 101
    for count in range(102):
        assert ref.lattice_state(101, ref.lattice_z(101, count)) == count


def test_exact_drift_negates_for_complements():
    for label in ref.all_labels(7):
        a = ref.ExactDrift(21, label, 0.0)
        b = ref.ExactDrift(21, ref.complement(label), 0.0)
        for count in range(22):
            z = ref.lattice_z(21, count)
            assert a(z) == -b(z)
            assert a(z) == -a(ref.lattice_z(21, 21 - count))
    noise = ref.ExactDrift(21, None, 0.1)
    assert noise(Fraction(1, 2)) == Fraction(-1, 20)


def test_bernstein_radius_covers_binomial_tail():
    n, p, delta = 200, 0.3, 1e-3
    radius = ref.bernstein_radius(n * p * (1 - p), 1.0, delta)
    tail = sum(
        math.comb(n, x) * p**x * (1 - p) ** (n - x)
        for x in range(n + 1)
        if abs(x - n * p) > radius
    )
    assert tail <= delta
    assert ref.bernstein_radius(0.0, 1.0) > 0


def test_gamma_mean_bound():
    assert ref.gamma_mean_ok(10**6, 10**6)
    assert ref.gamma_mean_ok(10**6, 1.003e6)
    assert not ref.gamma_mean_ok(10**6, 1.01e6)
    assert not ref.gamma_mean_ok(10**6, 0.99e6)


def synthetic_run(n, label, epsilon, events, seed, with_replacement=False):
    """A Gillespie run written from the model's definition (urn draws)."""
    rng = random.Random(seed)
    group = 2 * len(label) + 1
    ledger = ref.SsaLedger(n, label, 0.5, epsilon / 2)
    count = (n + 1) // 2
    for _ in range(events):
        a_group, a12, a21 = 0.5 * n, epsilon / 2 * count, epsilon / 2 * (n - count)
        total = a_group + a12 + a21
        dt = rng.expovariate(total)
        u = rng.random() * total
        if u < a_group:
            if with_replacement:
                k = sum(rng.random() < count / n for _ in range(group))
            else:
                k = sum(rng.sample([1] * count + [0] * (n - count), group))
            ledger.record(count, dt, "group", k)
            count += ref.signed_weight(label, k)
        elif u < a_group + a12:
            ledger.record(count, dt, "noise12", None)
            count -= 1
        else:
            ledger.record(count, dt, "noise21", None)
            count += 1
    return ledger


def test_ledger_accepts_faithful_run():
    assert synthetic_run(11, "Mmm", 0.2, 20000, seed=3).problems() == []


def test_ledger_rejects_biased_compositions():
    problems = synthetic_run(11, "Mmm", 0.2, 20000, seed=3, with_replacement=True).problems()
    assert any(p.startswith("composition") for p in problems)


def test_ledger_rejects_wrong_clock():
    ledger = synthetic_run(11, "Mmm", 0.2, 20000, seed=4)
    ledger.scaled_dt_sum *= 1.05
    assert any("propensity" in p for p in ledger.problems())


def write_fixed_points(path, points, n=101, label="MMM", epsilon=0.0, grid=2001):
    header = (f"# swarmdec 0.1.0 agents={n} group=7 rules={label} epsilon={epsilon:g} "
              f"seed=0 grid={grid}")
    path.write_text(header + "\n" + json.dumps(points) + "\n")


def test_fixed_point_check(tmp_path):
    path = tmp_path / "fp.json"
    good = [
        {"z": -1.0, "stability": "stable", "bracket": [-1.0, -0.99]},
        {"z": -4.7e-10, "stability": "unstable", "bracket": [-9.5e-10, 0.0]},
        {"z": 1.0, "stability": "stable", "bracket": [0.99, 1.0]},
    ]
    write_fixed_points(path, good)
    assert checks.check_fixed_points(path, 101, "MMM", 0.0, 2001, 0) == []
    wrong = [dict(good[0]), dict(good[1], stability="stable"), dict(good[2])]
    write_fixed_points(path, wrong)
    assert any("exact drift says unstable" in p
               for p in checks.check_fixed_points(path, 101, "MMM", 0.0, 2001, 0))
    write_fixed_points(path, [good[0], good[2]])
    assert any("has no bracket" in p
               for p in checks.check_fixed_points(path, 101, "MMM", 0.0, 2001, 0))


def test_drift_check_catches_small_error(tmp_path):
    n, label = 101, "MMm"
    drift = ref.ExactDrift(n, label, 0.05)
    zs = [-1 + 2 * i / 200 for i in range(201)]
    zs[100] = 0.0
    rows = [f"{z!r},{float(drift(z))!r}" for z in zs]
    header = "# swarmdec 0.1.0 agents=101 group=7 rules=MMm epsilon=0.05 seed=0 grid=201"
    path = tmp_path / "d.csv"
    path.write_text("\n".join([header, "z,dzdt", *rows]) + "\n")
    assert checks.check_drift_curve(path, n, label, 0.05, 201, 0)[0] == []
    rows[50] = f"{zs[50]!r},{float(drift(zs[50])) + 1e-11!r}"
    path.write_text("\n".join([header, "z,dzdt", *rows]) + "\n")
    assert checks.check_drift_curve(path, n, label, 0.05, 201, 0)[0]


def test_inputs_depend_only_on_seed(tmp_path):
    for name, plan in WORKLOADS.items():
        a, b = tmp_path / f"{name}-a", tmp_path / f"{name}-b"
        a.mkdir()
        b.mkdir()
        plan_a, plan_b = plan(7, a), plan(7, b)
        assert plan_a.seeds == plan_b.seeds
        assert [op.argv for op in plan_a.ops] == [
            tuple(str(x).replace(str(b), str(a)) for x in op.argv) for op in plan_b.ops
        ]
        assert {p.name: p.read_bytes() for p in a.iterdir()} == {
            p.name: p.read_bytes() for p in b.iterdir()
        }
    assert schema_text("MmM", random.Random(1)) != schema_text("MmM", random.Random(2))
