"""Event-driven runs of the swarm under three contrasting regimes.

The exact simulation draws exponential waiting times from the total
event rate and picks group interactions or noise flips proportionally.
Three runs from a near-balanced start show the macroscopic pictures:

* all-majority rules amplify any imbalance: the run locks into
  consensus (|z| = 1) within a few hundred events and never leaves;
* all-minority rules fight imbalance: the run hovers around z = 0
  indefinitely;
* pure noise (no rules) relaxes the mean of z toward 0 exponentially.

Each trajectory is written as a CSV of time-stamped events.
"""

from pathlib import Path

from swarmdec import (
    SimConfig,
    SwarmState,
    parse_polarity_string,
    simulate,
    trajectory_csv_lines,
)

N_AGENTS = 101
OUT_DIR = Path("demo_output")


def write_trajectory(name: str, trajectory) -> Path:
    out = OUT_DIR / name
    out.write_text("\n".join(trajectory_csv_lines(trajectory)) + "\n")
    return out


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    start = SwarmState(N_AGENTS, 51)

    majority = parse_polarity_string("MMM", 7)
    run = simulate(
        start, majority, SimConfig(max_events=10**5, stop_at_consensus=True), seed=7
    )
    out = write_trajectory("trajectory_MMM.csv", run)
    print(
        f"all-majority: consensus z={run.final_state.z:+.0f} after "
        f"{run.n_events} events (t={run.final_time:.2f})  -> {out}"
    )

    minority = parse_polarity_string("mmm", 7)
    run = simulate(start, minority, SimConfig(max_events=20_000), seed=7)
    zs = [2.0 * count / N_AGENTS - 1.0 for count in run.counts]
    out = write_trajectory("trajectory_mmm.csv", run)
    print(
        f"all-minority: after {run.n_events} events z stays in "
        f"[{min(zs):+.3f}, {max(zs):+.3f}], final z={run.final_state.z:+.3f}"
        f"  -> {out}"
    )

    noisy = SimConfig(rule_rate=0.0, noise_rate=0.05, t_max=50.0)
    lopsided = SwarmState(N_AGENTS, 91)
    finals = [
        simulate(lopsided, None, noisy, seed=100 + i).final_state.z
        for i in range(200)
    ]
    mean = sum(finals) / len(finals)
    print(
        f"pure noise: 200 replicates from z={lopsided.z:+.2f}, "
        f"mean z(t=50) = {mean:+.3f} (relaxing toward 0)"
    )
    run = simulate(lopsided, None, noisy, seed=100)
    out = write_trajectory("trajectory_noise.csv", run)
    print(f"one replicate recorded -> {out}")


if __name__ == "__main__":
    main()
