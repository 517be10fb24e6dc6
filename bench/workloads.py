"""The benchmark workloads: their commands, generated inputs and checks.

A workload's ``plan(seed, inputs)`` writes the generated input files into
``inputs`` and returns the CLI commands of one round together with the
function that checks the files one round left behind.  Every input the
program sees derives from the workload seed, except the non-UTF-8 schema
file, whose bytes are fixed so that the one known failing command fails
the same way on every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from reference import all_labels, complement, signed_weight


@dataclass(frozen=True)
class Op:
    """One CLI command (arguments after ``swarmdec``) and its expected exit.

    ``expect="ok"``: exit 0.  ``expect="config-error"``: exit 2 with a
    single ``swarmdec:`` line on standard error and no traceback.
    """

    argv: tuple[str, ...]
    expect: str = "ok"


@dataclass(frozen=True)
class Outcome:
    code: int
    stdout: str
    stderr: str


def succeeded(op: Op, outcome: Outcome) -> bool:
    if op.expect == "ok":
        return outcome.code == 0
    lines = outcome.stderr.strip().splitlines()
    return outcome.code == 2 and len(lines) == 1 and lines[0].startswith("swarmdec: ")


@dataclass
class Plan:
    ops: list[Op]
    check: Callable[[Path, list[Outcome]], list[str]]
    seeds: dict


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"swarmdec-bench/{workload}/{seed}")


def _args(**flags) -> tuple[str, ...]:
    out: list[str] = []
    for key, value in flags.items():
        flag = f"--{key.replace('_', '-')}"
        out += [flag] if value is True else [flag, str(value)]
    return tuple(out)


def schema_text(label: str, rng: random.Random) -> str:
    """Reaction text for a rule set, laid out differently per seed.

    Reactions come in shuffled order with free spacing, either arrow,
    explicit or bare unit coefficients, either species order, and
    interleaved comment and blank lines; all of it is valid grammar.
    """
    group = 2 * len(label) + 1
    lines = ["# generated rule set"]

    def side(x1: int, x2: int) -> str:
        terms = []
        for coef, species in ((x1, "X1"), (x2, "X2")):
            if coef:
                unit = "1" if rng.random() < 0.3 else ""
                terms.append(f"{coef if coef > 1 else unit}{species}")
        if rng.random() < 0.5:
            terms.reverse()
        return (" + " if rng.random() < 0.5 else "+").join(terms)

    reactions = []
    for k in range(1, group):
        w = signed_weight(label, k)
        arrow = rng.choice(["->", " -> ", "→", " → "])
        pad = " " * rng.randrange(3)
        reactions.append(f"{pad}{side(k, group - k)}{arrow}{side(k + w, group - k - w)}")
    rng.shuffle(reactions)
    for reaction in reactions:
        if rng.random() < 0.25:
            lines.append(rng.choice(["", "# note", "   "]))
        lines.append(reaction)
    return "\n".join(lines) + "\n"


#: Seed-independent schema file that is not valid UTF-8 (Latin-1 comment).
NON_UTF8_SCHEMA = (
    b"# r\xe8gle de majorit\xe9\n"
    b"X1+6X2 -> 7X2\n2X1+5X2 -> X1+6X2\n3X1+4X2 -> 2X1+5X2\n"
    b"4X1+3X2 -> 5X1+2X2\n5X1+2X2 -> 6X1+X2\n6X1+X2 -> 7X1\n"
)

G7_LABELS = all_labels(7)


def plan_readme_quick(seed: int, inputs: Path) -> Plan:
    rng = _rng("readme-quick", seed)
    cli_seed = rng.randrange(2**31)
    schema_label = rng.choice(G7_LABELS)
    schema_eps = rng.choice([0.0, 0.05, 0.1])
    schema_path = inputs / "generated_g7.schema"
    schema_path.write_text(schema_text(schema_label, rng), encoding="utf-8")
    bad_path = inputs / "latin1_g7.schema"
    bad_path.write_bytes(NON_UTF8_SCHEMA)

    ops = [
        Op(("drift",) + _args(agents=101, rules="Mm", epsilon=0, grid=201, seed=cli_seed, out="g5_quiet.csv")),
        Op(("drift",) + _args(agents=101, rules="Mm", epsilon=0.1, grid=201, seed=cli_seed, out="g5_noisy.csv")),
        Op(("probs",) + _args(agents=101, group=5, seed=cli_seed, out="g5_probs.csv")),
    ]
    ops += [
        Op(("drift",) + _args(agents=101, rules=r, epsilon=0, grid=201, seed=cli_seed, out=f"g7_{r}.csv"))
        for r in G7_LABELS
    ]
    ops += [
        Op(("drift",) + _args(rules="none", epsilon=0.1, seed=cli_seed, out="pure_noise.csv")),
        Op(("fixed-points",) + _args(rules="MMM", epsilon=0, seed=cli_seed, out="fp_quiet.json")),
        Op(("fixed-points",) + _args(rules="MMM", epsilon=0.1, seed=cli_seed, out="fp_noisy.json")),
        Op(("rulesets",) + _args(group=7)),
        Op(("validate",)),
        Op(("drift",) + _args(schema=schema_path, agents=101, epsilon=schema_eps, grid=201,
                              seed=cli_seed, out="schema_drift.csv")),
        Op(("drift",) + _args(schema=bad_path, agents=101, seed=cli_seed, out="latin1_drift.csv"),
           expect="config-error"),
    ]

    def check(out: Path, outcomes: list[Outcome]) -> list[str]:
        problems: list[str] = []
        p, zs, quiet = checks.check_drift_curve(out / "g5_quiet.csv", 101, "Mm", 0.0, 201, cli_seed)
        problems += p
        p, _, noisy = checks.check_drift_curve(out / "g5_noisy.csv", 101, "Mm", 0.1, 201, cli_seed)
        problems += p + checks.check_superposition("g5 noise", zs, quiet, noisy, 0.1)
        problems += checks.check_probs(out / "g5_probs.csv", 101, 5, cli_seed)
        curves = {}
        for r in G7_LABELS:
            p, zs7, curves[r] = checks.check_drift_curve(out / f"g7_{r}.csv", 101, r, 0.0, 201, cli_seed)
            problems += p + checks.check_antisymmetry(f"g7_{r}", 101, zs7, curves[r])
        for r in G7_LABELS:
            if r[0] == "M":
                problems += checks.check_negation(f"g7 {r}/{complement(r)}", curves[r], curves[complement(r)])
        p, zs, ds = checks.check_drift_curve(out / "pure_noise.csv", 101, None, 0.1, 201, cli_seed)
        problems += p + checks.check_pure_noise(out / "pure_noise.csv", zs, ds, 0.1)
        problems += checks.check_fixed_points(out / "fp_quiet.json", 101, "MMM", 0.0, 2001, cli_seed)
        problems += checks.check_fixed_points(out / "fp_noisy.json", 101, "MMM", 0.1, 2001, cli_seed)
        problems += checks.check_rulesets(outcomes[14].stdout, 7)
        problems += checks.check_validate(outcomes[15].stdout)
        problems += checks.check_drift_curve(
            out / "schema_drift.csv", 101, schema_label, schema_eps, 201, cli_seed
        )[0]
        if (out / "latin1_drift.csv").exists():
            problems.append("latin1_drift.csv: written although the schema file is unreadable")
        return problems

    return Plan(ops, check, {"cli": cli_seed, "schema_rules": schema_label, "schema_epsilon": schema_eps})


def plan_simulate(seed: int, inputs: Path) -> Plan:
    sim_seed = _rng("simulate-1e6", seed).randrange(2**31)
    events = 1_000_000
    ops = [Op(("simulate",) + _args(agents=101, rules="Mmm", epsilon=0.1, events=events,
                                    init_z=0, seed=sim_seed, out="run.csv"))]

    def check(out: Path, outcomes: list[Outcome]) -> list[str]:
        return checks.check_simulate(
            out / "run.csv", outcomes[0].stdout, 101, "Mmm", 0.1, events, sim_seed, init_k=51
        )

    return Plan(ops, check, {"simulate": sim_seed})


def plan_empirical(seed: int, inputs: Path) -> Plan:
    rng = _rng("empirical-1e6", seed)
    probs_seed, drift_seed = rng.randrange(2**31), rng.randrange(2**31)
    ops = [
        Op(("probs",) + _args(agents=101, group=7, empirical=True, samples=1_000_000,
                              seed=probs_seed, out="g7_probs.csv")),
        Op(("drift",) + _args(agents=101, rules="MMm", epsilon=0.05, empirical=True,
                              samples=100_000, seed=drift_seed, out="mmm_drift.csv")),
    ]

    def check(out: Path, outcomes: list[Outcome]) -> list[str]:
        problems = checks.check_probs(out / "g7_probs.csv", 101, 7, probs_seed)
        problems += checks.check_probs_empirical(out / "g7_probs.empirical.csv", 101, 7, 1_000_000, probs_seed)
        problems += checks.check_drift_curve(out / "mmm_drift.csv", 101, "MMm", 0.05, 201, drift_seed)[0]
        problems += checks.check_drift_empirical(
            out / "mmm_drift.empirical.csv", 101, "MMm", 0.05, 100_000, drift_seed
        )
        return problems

    return Plan(ops, check, {"probs": probs_seed, "drift": drift_seed})


#: Workload name -> plan function; BENCHMARK.json and README.md say why each exists.
WORKLOADS = {
    "readme-quick": plan_readme_quick,
    "simulate-1e6": plan_simulate,
    "empirical-1e6": plan_empirical,
}
