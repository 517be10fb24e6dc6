"""Checks of swarmdec output files against the independent reference.

Every function returns a list of problems (empty when the file is right).
Nothing is compared with a stored copy of earlier output: analytic values
are compared with exact rational arithmetic, sampled values with the exact
law and a stated confidence radius (``reference.DELTA`` per statistic).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

from reference import (
    ExactDrift,
    SsaLedger,
    all_labels,
    bernstein_radius,
    lattice_state,
    lattice_z,
    pmf_float,
    signed_weight,
)

#: Largest allowed |file value - exact drift| for analytic drift rows.
DRIFT_TOL = 1e-12
#: Largest allowed |z column - 2K/N + 1| on lattice rows.
LATTICE_Z_TOL = 4e-16
#: The program's default ``--rule-rate``, which every workload runs with.
RULE_RATE = 0.5


def _fmt(value) -> str:
    """The provenance spelling of a flag value (``%g`` for floats)."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def check_provenance(name: str, line: str, expected: dict) -> list[str]:
    """First line is ``# swarmdec <version> key=value ...`` with the given pairs."""
    if not line.startswith("# swarmdec "):
        return [f"{name}: first line is not a provenance line: {line[:80]!r}"]
    fields = dict(
        part.split("=", 1) for part in line.split()[3:] if "=" in part
    )
    problems = []
    for key, value in expected.items():
        want = _fmt(value)
        if fields.get(key) != want:
            problems.append(f"{name}: provenance {key}={fields.get(key)!r}, expected {want!r}")
    return problems


def read_csv(path: Path) -> tuple[str, list[str], list[list[str]]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) < 2:
        raise ValueError(f"{path.name}: fewer than two lines")
    return lines[0], lines[1].split(","), [line.split(",") for line in lines[2:]]


def read_curve(path: Path, expected: dict) -> tuple[list[str], list[float], list[float]]:
    """Provenance problems, z column and dz/dt column of a drift CSV."""
    head, columns, rows = read_csv(path)
    problems = check_provenance(path.name, head, expected)
    if columns != ["z", "dzdt"]:
        problems.append(f"{path.name}: header {columns}, expected z,dzdt")
    zs = [float(r[0]) for r in rows]
    ds = [float(r[1]) for r in rows]
    if any(b <= a for a, b in zip(zs, zs[1:])):
        problems.append(f"{path.name}: z column does not increase strictly")
    return problems, zs, ds


def check_drift_curve(
    path: Path, n: int, label: str | None, epsilon: float, grid: int, seed: int
) -> tuple[list[str], list[float], list[float]]:
    """Analytic drift rows within ``DRIFT_TOL`` of the exact rational drift."""
    group = 2 * len(label) + 1 if label else None
    problems, zs, ds = read_curve(
        path,
        {"agents": n, "group": group, "rules": label or "none",
         "epsilon": epsilon, "seed": seed, "grid": grid},
    )
    if len(zs) != grid:
        problems.append(f"{path.name}: {len(zs)} rows, expected {grid}")
    if zs and (zs[0] != -1.0 or zs[-1] != 1.0):
        problems.append(f"{path.name}: grid spans [{zs[0]}, {zs[-1]}], expected [-1, 1]")
    exact = ExactDrift(n, label, epsilon)
    worst = 0.0
    for z, d in zip(zs, ds):
        worst = max(worst, abs(d - float(exact(z))))
    if worst > DRIFT_TOL:
        problems.append(f"{path.name}: max |dzdt - exact| = {worst:.3e} > {DRIFT_TOL}")
    return problems, zs, ds


def check_pure_noise(path: Path, zs: list[float], ds: list[float], epsilon: float) -> list[str]:
    bad = sum(d != -(epsilon * z) for z, d in zip(zs, ds))
    return [f"{path.name}: {bad} rows differ from -eps*z"] if bad else []


def check_superposition(
    name: str, zs: list[float], quiet: list[float], noisy: list[float], epsilon: float
) -> list[str]:
    """drift(z; eps) == drift(z; 0) - eps*z bit for bit."""
    bad = sum(b != a - epsilon * z for z, a, b in zip(zs, quiet, noisy))
    return [f"{name}: {bad} rows break bit-exact noise superposition"] if bad else []


def check_negation(name: str, ds_a: list[float], ds_b: list[float]) -> list[str]:
    """Complementary rule sets give pointwise negated curves, bit for bit."""
    bad = sum(b != -a for a, b in zip(ds_a, ds_b))
    if len(ds_a) != len(ds_b) or bad:
        return [f"{name}: complementary curves do not negate ({bad} rows)"]
    return []


def check_antisymmetry(name: str, n: int, zs: list[float], ds: list[float]) -> list[str]:
    """At eps = 0: drift(z_K) == -drift(z_{N-K}) on every pair of rows."""
    by_state = {lattice_state(n, Fraction(z)): d for z, d in zip(zs, ds)}
    worst = 0.0
    for count, d in by_state.items():
        mirror = by_state.get(n - count)
        if mirror is not None:
            worst = max(worst, abs(d + mirror))
    if worst > DRIFT_TOL:
        return [f"{name}: max |drift(z_K) + drift(z_(N-K))| = {worst:.3e}"]
    return []


def check_probs(path: Path, n: int, group: int, seed: int) -> list[str]:
    """Analytic firing probabilities equal the correctly rounded exact pmf."""
    head, columns, rows = read_csv(path)
    problems = check_provenance(
        path.name, head, {"agents": n, "group": group, "rules": None, "epsilon": None, "seed": seed}
    )
    if columns != ["z"] + [f"p{k}" for k in range(group + 1)]:
        problems.append(f"{path.name}: header {columns}")
    if len(rows) != n + 1:
        return problems + [f"{path.name}: {len(rows)} rows, expected {n + 1}"]
    bad = 0
    for count, row in enumerate(rows):
        if abs(float(row[0]) - float(lattice_z(n, count))) > LATTICE_Z_TOL:
            problems.append(f"{path.name}: row {count} has z={row[0]}")
        bad += sum(
            float(cell) != pmf_float(n, count, group, k) for k, cell in enumerate(row[1:])
        )
    if bad:
        problems.append(f"{path.name}: {bad} cells differ from the exact pmf")
    return problems


def check_probs_empirical(path: Path, n: int, group: int, samples: int, seed: int) -> list[str]:
    """Sampled composition frequencies within a Bernstein radius of the pmf."""
    head, _, rows = read_csv(path)
    problems = check_provenance(
        path.name, head, {"agents": n, "group": group, "seed": seed, "samples": samples}
    )
    if len(rows) != n + 1:
        return problems + [f"{path.name}: {len(rows)} rows, expected {n + 1}"]
    for count, row in enumerate(rows):
        hits = [float(cell) * samples for cell in row[1:]]
        if any(abs(h - round(h)) > 1e-6 for h in hits):
            problems.append(f"{path.name}: row {count} is not a count over {samples}")
        if round(sum(hits)) != samples:
            problems.append(f"{path.name}: row {count} sums to {sum(hits) / samples}")
        for k, h in enumerate(hits):
            p = pmf_float(n, count, group, k)
            radius = bernstein_radius(samples * p * (1.0 - p), 1.0)
            if abs(h - samples * p) > radius:
                problems.append(
                    f"{path.name}: K={count} k={k}: {h:.0f} hits, expected "
                    f"{samples * p:.1f} +/- {radius:.1f}"
                )
    return problems


def check_drift_empirical(
    path: Path, n: int, label: str, epsilon: float, samples: int, seed: int
) -> list[str]:
    """Monte Carlo drift on the lattice within a Bernstein radius of the exact drift.

    One sample moves K by ``+1``, ``-1`` or ``0``; the estimate is
    ``(2/N) * total_rate * mean step``, whose mean is the exact drift.
    """
    problems, zs, ds = read_curve(
        path,
        {"agents": n, "group": 2 * len(label) + 1, "rules": label,
         "epsilon": epsilon, "seed": seed, "samples": samples, "rule-rate": RULE_RATE},
    )
    if len(zs) != n + 1:
        return problems + [f"{path.name}: {len(zs)} rows, expected {n + 1}"]
    group = 2 * len(label) + 1
    exact = ExactDrift(n, label, epsilon)
    c = epsilon / 2.0
    for count, (z, d) in enumerate(zip(zs, ds)):
        a_group, a12, a21 = RULE_RATE * n, c * count, c * (n - count)
        total = a_group + a12 + a21
        moves = a_group * (
            1.0 - pmf_float(n, count, group, 0) - pmf_float(n, count, group, group)
        )
        mean = float(exact.rule(count)) * a_group / total + (a21 - a12) / total
        variance = (moves + a12 + a21) / total - mean * mean
        radius = bernstein_radius(samples * max(variance, 0.0), 2.0) / samples
        target = float(exact(lattice_z(n, count)))
        if abs(z - float(lattice_z(n, count))) > LATTICE_Z_TOL:
            problems.append(f"{path.name}: row {count} has z={z}")
        if abs(d - target) > (2.0 / n) * total * radius + DRIFT_TOL:
            problems.append(
                f"{path.name}: K={count}: {d:.6g}, exact {target:.6g} +/- "
                f"{(2.0 / n) * total * radius:.3g}"
            )
    return problems


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def check_fixed_points(
    path: Path, n: int, label: str, epsilon: float, grid: int, seed: int
) -> list[str]:
    """Every bracket encloses a sign change or zero of the exact drift, the
    stability matches the signs around it, and no sign change of the exact
    drift between neighbouring grid points is left without a bracket."""
    lines = path.read_text(encoding="utf-8").splitlines()
    problems = check_provenance(
        path.name,
        lines[0],
        {"agents": n, "group": 2 * len(label) + 1, "rules": label,
         "epsilon": epsilon, "seed": seed, "grid": grid},
    )
    points = json.loads("\n".join(lines[1:]))
    drift = ExactDrift(n, label, epsilon)
    step = Fraction(2, grid - 1)

    def first_sign(*zs: Fraction) -> int:
        for z in zs:
            if -1 <= z <= 1:
                s = _sign(drift(z))
                if s:
                    return s
        return 0

    brackets = []
    for point in points:
        lo, hi = (Fraction(v) for v in point["bracket"])
        z_star = Fraction(point["z"])
        brackets.append((lo, hi))
        if not lo <= z_star <= hi:
            problems.append(f"{path.name}: z={point['z']} lies outside its bracket")
        d_lo, d_hi, d_mid = drift(lo), drift(hi), drift(z_star)
        if not (d_lo == 0 or d_hi == 0 or d_mid == 0 or _sign(d_lo) != _sign(d_hi)):
            problems.append(f"{path.name}: bracket {point['bracket']} holds no zero or sign change")
        left = first_sign(lo, lo - step) if lo > -1 else None
        right = first_sign(hi, hi + step) if hi < 1 else None
        if left is None:
            expected = "stable" if right < 0 else "unstable"
        elif right is None:
            expected = "stable" if left > 0 else "unstable"
        elif left > 0 > right:
            expected = "stable"
        elif left < 0 < right:
            expected = "unstable"
        else:
            expected = "marginal"
        if point["stability"] != expected:
            problems.append(
                f"{path.name}: z={point['z']} is {point['stability']}, exact drift says {expected}"
            )

    slack = Fraction(1, 10**12)
    grid_z = [Fraction(2 * i, grid - 1) - 1 for i in range(grid)]
    signs = [_sign(drift(z)) for z in grid_z]
    for i, z in enumerate(grid_z):
        if signs[i] == 0 and not any(lo - slack <= z <= hi + slack for lo, hi in brackets):
            problems.append(f"{path.name}: exact zero at z={float(z)} has no bracket")
        if i + 1 < grid and signs[i] * signs[i + 1] < 0:
            nxt = grid_z[i + 1]
            if not any(z - slack <= lo and hi <= nxt + slack for lo, hi in brackets):
                problems.append(
                    f"{path.name}: sign change in [{float(z)}, {float(nxt)}] has no bracket"
                )
    return problems


def check_rulesets(text: str, group: int) -> list[str]:
    """The listing names every rule set once, each with its canonical reactions."""
    blocks = [b for b in text.strip("\n").split("\n\n") if b]
    problems = []
    labels = [b.splitlines()[0] for b in blocks]
    if labels != all_labels(group):
        return [f"rulesets: labels {labels}, expected {all_labels(group)}"]
    for block in blocks:
        label, *reactions = block.splitlines()
        if len(reactions) != group - 1:
            problems.append(f"rulesets {label}: {len(reactions)} reactions")
            continue
        for k, line in enumerate(reactions, start=1):
            w = signed_weight(label, k)
            want = f"  {_side(k, group - k)} -> {_side(k + w, group - k - w)}"
            if line != want:
                problems.append(f"rulesets {label}: {line!r}, expected {want!r}")
    return problems


def _side(x1: int, x2: int) -> str:
    terms = [f"{c if c > 1 else ''}{s}" for c, s in ((x1, "X1"), (x2, "X2")) if c > 0]
    return "+".join(terms)


def check_validate(text: str) -> list[str]:
    report = json.loads(text)
    failed = [c["name"] for c in report.get("checks", []) if not c.get("passed")]
    if report.get("passed") is not True or failed or not report.get("checks"):
        return [f"validate: passed={report.get('passed')}, failing checks {failed}"]
    return []


def check_simulate(
    path: Path, summary_text: str, n: int, label: str, epsilon: float,
    events: int, seed: int, init_k: int,
) -> list[str]:
    """Replay a fully recorded trajectory and test it against its exact laws.

    Times increase strictly, each count step equals the event's signed
    weight, null draws are uniform groups, and the channel counts,
    compositions and ``dt * total propensity`` agree with the propensities
    and the hypergeometric law at the visited states (``SsaLedger``).
    """
    group = 2 * len(label) + 1
    ledger = SsaLedger(n, label, RULE_RATE, epsilon / 2.0)
    weights = [signed_weight(label, k) for k in range(group + 1)]
    problems: list[str] = []
    tallies = {"rule": 0, "null": 0, "noise12": 0, "noise21": 0}
    count, last_time, rows = init_k, 0.0, 0
    with path.open(encoding="utf-8") as fh:
        head = fh.readline().rstrip("\n")
        problems += check_provenance(
            path.name, head,
            {"agents": n, "group": group, "rules": label, "epsilon": epsilon,
             "seed": seed, "rule-rate": RULE_RATE, "events": events,
             "init-k": init_k, "elide-nulls": False},
        )
        if fh.readline().rstrip("\n") != "time,event,k,count_x1,z":
            problems.append(f"{path.name}: unexpected column header")
        record = ledger.record
        for line in fh:
            t_text, kind, k_text, count_text, z_text = line.split(",")
            t = float(t_text)
            after = int(count_text)
            if kind == "rule" or kind == "null":
                k = int(k_text)
                step = weights[k]
                if (kind == "null") != (step == 0):
                    problems.append(f"{path.name}: row {rows}: {kind} event with k={k}")
                    break
                record(count, t - last_time, "group", k)
            elif kind == "noise12":
                step = -1
                record(count, t - last_time, kind, None)
            elif kind == "noise21":
                step = 1
                record(count, t - last_time, kind, None)
            else:
                problems.append(f"{path.name}: row {rows}: unknown event {kind!r}")
                break
            tallies[kind] += 1
            if not t > last_time:
                problems.append(f"{path.name}: row {rows}: time {t} does not increase")
                break
            if after != count + step or not 0 <= after <= n:
                problems.append(f"{path.name}: row {rows}: count {count} -> {after} after {kind}")
                break
            if abs(float(z_text) - (2.0 * after / n - 1.0)) > LATTICE_Z_TOL:
                problems.append(f"{path.name}: row {rows}: z={z_text.strip()} for K={after}")
                break
            count, last_time, rows = after, t, rows + 1
    if rows != events:
        problems.append(f"{path.name}: {rows} events recorded, expected {events}")
    if problems:
        return problems
    problems += [f"{path.name}: {p}" for p in ledger.problems()]
    summary = json.loads(summary_text)
    expected_summary = {
        "final_count_x1": count, "final_time": last_time, "n_events": events,
        "event_counts": tallies, "seed": seed,
    }
    for key, want in expected_summary.items():
        if summary.get(key) != want:
            problems.append(f"simulate summary: {key}={summary.get(key)!r}, expected {want!r}")
    if not math.isclose(summary.get("final_z", math.nan), 2.0 * count / n - 1.0, abs_tol=1e-15):
        problems.append(f"simulate summary: final_z={summary.get('final_z')!r}")
    return problems

