"""Theory vs sampling for the rule firing probabilities.

Which rule fires is decided by the composition of the drawn group, and
drawing G agents without replacement from N with K of opinion X1 makes
that composition hypergeometric.  The probabilities depend only on the
state (N, K) and the group size: neither the rule polarities nor the
noise level enter.

This script tabulates the closed-form law alongside frequencies from a
million simulated draws per state, writing an overlay CSV with one
theoretical and one sampled column per composition.
"""

from pathlib import Path

from swarmdec import (
    empirical_firing_probabilities,
    rule_firing_probabilities,
)
from swarmdec.model import lattice_z

N_AGENTS = 101
GROUP = 7
DRAWS = 1_000_000
OUT_DIR = Path("demo_output")


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "firing_probabilities_overlay.csv"

    theory_cols = ",".join(f"p{k}" for k in range(GROUP + 1))
    sampled_cols = ",".join(f"f{k}" for k in range(GROUP + 1))
    lines = [f"z,{theory_cols},{sampled_cols}"]

    worst = 0.0
    for count in range(0, N_AGENTS + 1, 5):
        theory = rule_firing_probabilities(N_AGENTS, GROUP, count)
        sampled = empirical_firing_probabilities(
            N_AGENTS, GROUP, count, DRAWS, seed=0
        )
        worst = max(worst, max(abs(a - b) for a, b in zip(theory, sampled)))
        row = ",".join(f"{p:.6g}" for p in (*theory, *sampled))
        lines.append(f"{lattice_z(count, N_AGENTS):.6g},{row}")

    out.write_text("\n".join(lines) + "\n")
    print(f"{DRAWS} draws per state, every 5th lattice state")
    print(f"largest |theory - sampled| across all cells: {worst:.2e}")
    print(f"overlay table -> {out}")

    center = rule_firing_probabilities(N_AGENTS, GROUP, 51)
    print("\ncomposition law at the near-balanced state K=51:")
    for k, p in enumerate(center):
        bar = "#" * round(200 * p)
        print(f"  k={k}: {p:.4f} {bar}")


if __name__ == "__main__":
    main()
