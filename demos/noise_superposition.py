"""How noise reshapes the drift curve without touching the rule dynamics.

Spontaneous flips at per-agent rate c = epsilon/2 contribute exactly
-epsilon*z to the drift, independent of the group rules.  Two
consequences, both shown here:

* the drift curve with noise is the noiseless curve minus epsilon*z,
  to the last bit;
* consensus stops being a critical point: the all-majority system's
  stable points move from z = +/-1 strictly inside, landing where the
  rule drift balances the noise pull.

The purely noise-driven system (no rules at all) is written out too:
its drift is the straight line -epsilon*z, equal to -/+epsilon at the
two extrema.
"""

from pathlib import Path

from swarmdec import (
    NoiseSpec,
    analytic_drift,
    analytic_drift_curve,
    find_fixed_points,
    parse_polarity_string,
)

N_AGENTS = 101
OUT_DIR = Path("demo_output")


def write_curve(path: Path, points) -> None:
    rows = "\n".join(f"{z:.17g},{d:.17g}" for z, d in points)
    path.write_text(f"z,dzdt\n{rows}\n")


def main() -> None:
    OUT_DIR.mkdir(exist_ok=True)
    rules = parse_polarity_string("MMM", 7)

    for epsilon in (0.0, 0.05, 0.1):
        curve = analytic_drift_curve(N_AGENTS, rules, NoiseSpec(epsilon), 201)
        out = OUT_DIR / f"drift_MMM_eps{epsilon:g}.csv"
        write_curve(out, curve)
        stable = [
            fp.z
            for fp in find_fixed_points(N_AGENTS, rules, NoiseSpec(epsilon))
            if fp.stability.value == "stable"
        ]
        print(f"eps={epsilon:<5g} stable points at {[round(z, 4) for z in stable]}"
              f"  -> {out}")

    print("\nsuperposition is exact on the lattice:")
    quiet = NoiseSpec(0.0)
    noisy = NoiseSpec(0.1)
    exact = all(
        analytic_drift(N_AGENTS, rules, noisy, z)
        == analytic_drift(N_AGENTS, rules, quiet, z) - 0.1 * z
        for z in (k * 2.0 / N_AGENTS - 1.0 for k in range(N_AGENTS + 1))
    )
    print(f"  drift(z; 0.1) == drift(z; 0) - 0.1*z at every state: {exact}")

    pure = list(analytic_drift_curve(N_AGENTS, None, noisy, 201))
    out = OUT_DIR / "drift_pure_noise_eps0.1.csv"
    write_curve(out, pure)
    print(f"\npure noise: drift(-1) = {pure[0][1]:+g}, drift(+1) = {pure[-1][1]:+g}"
          f"  -> {out}")


if __name__ == "__main__":
    main()
