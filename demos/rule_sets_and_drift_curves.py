"""Every rule set of a 7-agent neighbourhood, and the drift curve of each.

A group of G agents can react in G-1 ways (one per composition), and
mirror compositions must share a polarity, so there are 2^((G-1)/2)
distinct rule sets: 8 for G = 7.  This script prints each one with its
canonical reaction listing, writes its analytic drift curve to a CSV
file, and shows two structural facts:

* complementary rule sets (every polarity flipped) produce exactly
  negated drift curves;
* the fixed-point structure flips with the dominant polarity: the
  all-majority set is bistable at consensus, the all-minority set is
  attracted to the undecided center, and mixed sets can hold five
  fixed points.
"""

from pathlib import Path

from swarmdec import (
    NoiseSpec,
    analytic_drift_curve,
    find_fixed_points,
    format_schema,
    iter_rulesets,
    schema_of_ruleset,
)

N_AGENTS = 101
GROUP = 7
OUT_DIR = Path("demo_output")


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    quiet = NoiseSpec(0.0)

    rulesets = list(iter_rulesets(GROUP))
    drifts = {}
    print(f"{len(rulesets)} rule sets for group size {GROUP}:\n")
    for rules in rulesets:
        print(rules.label)
        for line in format_schema(schema_of_ruleset(rules)).splitlines():
            print(f"  {line}")

        curve = list(analytic_drift_curve(N_AGENTS, rules, quiet, grid_points=201))
        drifts[rules.label] = [d for _, d in curve]
        out = OUT_DIR / f"drift_g7_{rules.label}.csv"
        rows = "\n".join(f"{z:.17g},{d:.17g}" for z, d in curve)
        out.write_text(f"z,dzdt\n{rows}\n")

        points = find_fixed_points(N_AGENTS, rules, quiet)
        summary = ", ".join(f"z={fp.z:+.3f} {fp.stability.value}" for fp in points)
        print(f"  fixed points: {summary}")
        print(f"  curve -> {out}\n")

    print("complement pairs negate each other's drift curve:")
    for rules in rulesets:
        if rules.label[0] == "M":
            other = rules.complement().label
            negated = all(a == -b for a, b in zip(drifts[rules.label], drifts[other]))
            print(f"  {rules.label} vs {other}: {negated}")


if __name__ == "__main__":
    main()
