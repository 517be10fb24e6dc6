"""A 5-agent neighbourhood with two majority and two minority rules.

The mixed rule set pairs positive feedback at lopsided compositions
(one against four) with negative feedback at the close ones (two
against three):

    X1+4X2 -> 5X2
    2X1+3X2 -> 3X1+2X2
    3X1+2X2 -> 2X1+3X2
    4X1+X2 -> 5X1

Its polarity string is "Mm".  Without noise the drift still has stable
consensus at z = +/-1; the single interior (unstable) root sits at the
center, where the lattice drift changes sign between K = 50 and K = 51.
With noise the consensus points dissolve and the stable points move
inside, exactly as for the 7-agent sets.
"""

from pathlib import Path

from swarmdec import (
    NoiseSpec,
    analytic_drift_curve,
    find_fixed_points,
    format_schema,
    parse_polarity_string,
    rule_firing_probabilities,
)

N_AGENTS = 101
OUT_DIR = Path("demo_output")


def write_curve(path: Path, points) -> None:
    rows = "\n".join(f"{z:.17g},{d:.17g}" for z, d in points)
    path.write_text(f"z,dzdt\n{rows}\n")


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    rules = parse_polarity_string("Mm", 5)
    print("reactions:")
    for line in format_schema(rules).splitlines():
        print(f"  {line}")

    for epsilon in (0.0, 0.1):
        noise = NoiseSpec(epsilon)
        out = OUT_DIR / f"drift_g5_Mm_eps{epsilon:g}.csv"
        write_curve(out, analytic_drift_curve(N_AGENTS, rules, noise, 201))
        points = find_fixed_points(N_AGENTS, rules, noise)
        summary = ", ".join(f"z={fp.z:+.4f} {fp.stability.value}" for fp in points)
        print(f"\neps={epsilon:g}: {summary}")
        print(f"  curve -> {out}")

    # The four rules fire with the composition probabilities of k = 1..4;
    # the uniform draws k = 0 and k = 5 convert nobody.
    out = OUT_DIR / "firing_probabilities_g5.csv"
    lines = ["z," + ",".join(f"p{k}" for k in range(6))]
    for count in range(N_AGENTS + 1):
        z = 2.0 * count / N_AGENTS - 1.0
        table = rule_firing_probabilities(N_AGENTS, 5, count)
        lines.append(f"{z:.6g}," + ",".join(f"{p:.6g}" for p in table))
    out.write_text("\n".join(lines) + "\n")
    print(f"\nfiring probabilities for all states -> {out}")


if __name__ == "__main__":
    main()
