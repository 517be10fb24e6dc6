"""Independent reference for the swarm model, written apart from swarmdec.

Nothing here imports the package under test.  The composition law is the
exact rational hypergeometric pmf ``C(K,k) C(N-K,G-k) / C(N,G)``, the rule
weights follow the model's definition (a majority rule converts one agent
toward the group majority, a minority rule away from it), and the drift is
``sum_k w_k P(k) - eps z`` evaluated in exact rational arithmetic.

The statistical helpers give two-sided confidence radii used to judge
sampled output against these exact laws:

* ``bernstein_radius`` for a sum of independent (or martingale) increments
  bounded by ``b`` with total variance ``v`` (Bernstein / Freedman):
  ``P(|S - E S| >= t) <= 2 exp(-t^2 / (2 (v + b t / 3)))``;
* ``gamma_mean_ok`` for a sum of ``n`` unit exponentials (Chernoff):
  ``P(S/n >= r) <= exp(-n (r - 1 - ln r))`` for ``r > 1``, and the same
  expression bounds the lower tail for ``r < 1``.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

#: Per-statistic false-alarm probability of every confidence check.
DELTA = 1e-9


def pmf_exact(n: int, count: int, group: int, k: int) -> Fraction:
    """Exact probability of ``k`` X1 holders in a group of ``group`` drawn
    without replacement from ``n`` agents of which ``count`` hold X1."""
    if k < 0 or k > group or k > count or group - k > n - count:
        return Fraction(0)
    return Fraction(
        math.comb(count, k) * math.comb(n - count, group - k), math.comb(n, group)
    )


def pmf_float(n: int, count: int, group: int, k: int) -> float:
    """``pmf_exact`` correctly rounded to the nearest double."""
    return float(pmf_exact(n, count, group, k))


def signed_weight(label: str, k: int) -> int:
    """Change of the X1 count when the rule for composition ``k`` fires.

    ``label`` holds one 'M' (majority) or 'm' (minority) per minority
    count ``1..(G-1)/2``; the group size is ``2 len(label) + 1``.
    """
    group = 2 * len(label) + 1
    if not 0 <= k <= group:
        raise ValueError(f"composition {k} outside 0..{group}")
    if k in (0, group):
        return 0
    toward_majority = 1 if 2 * k > group else -1
    polarity = label[min(k, group - k) - 1]
    if polarity not in "Mm":
        raise ValueError(f"bad polarity {polarity!r} in {label!r}")
    return toward_majority if polarity == "M" else -toward_majority


def complement(label: str) -> str:
    return label.swapcase()


def all_labels(group: int) -> list[str]:
    """Every rule set of a group size, 'M' before 'm' in each slot."""
    return ["".join(p) for p in itertools.product("Mm", repeat=(group - 1) // 2)]


@functools.cache
def rule_term(n: int, label: str, count: int) -> Fraction:
    """Exact ``sum_k w_k P(k)`` at state ``count`` (cached per state)."""
    group = 2 * len(label) + 1
    numerator = 0
    for k in range(max(1, group - (n - count)), min(group - 1, count) + 1):
        numerator += (
            signed_weight(label, k)
            * math.comb(count, k)
            * math.comb(n - count, group - k)
        )
    return Fraction(numerator, math.comb(n, group))


def lattice_state(n: int, z: Fraction) -> int:
    """Nearest lattice count to ``z``, ties away from zero (exact)."""
    count = math.floor(n * (z + 1) / 2 + Fraction(1, 2))
    return min(max(count, 0), n)


def lattice_z(n: int, count: int) -> Fraction:
    return Fraction(2 * count - n, n)


class ExactDrift:
    """Exact drift ``rule_term(K(z)) - eps z`` of one configuration."""

    def __init__(self, n: int, label: str | None, epsilon: float):
        self.n = n
        self.label = label
        self.epsilon = Fraction(str(epsilon))

    def rule(self, count: int) -> Fraction:
        if self.label is None:
            return Fraction(0)
        return rule_term(self.n, self.label, count)

    def __call__(self, z) -> Fraction:
        z = Fraction(z)
        return self.rule(lattice_state(self.n, z)) - self.epsilon * z


def bernstein_radius(variance: float, bound: float, delta: float = DELTA) -> float:
    """Smallest ``t`` with ``2 exp(-t^2 / (2 (variance + bound t / 3))) <= delta``."""
    log_term = math.log(2.0 / delta)
    a = bound * log_term / 3.0
    return a + math.sqrt(a * a + 2.0 * variance * log_term)


def gamma_mean_ok(n: int, total: float) -> bool:
    """Whether ``total`` is a plausible sum of ``n`` unit exponentials."""
    if n < 1 or total <= 0:
        return False
    r = total / n
    return n * (r - 1.0 - math.log(r)) <= math.log(2.0 / DELTA)


class SsaLedger:
    """Replay statistics of a Gillespie run against its exact laws.

    Fed one event at a time with the state *before* the event, it keeps
    per-state tallies; ``problems`` then tests every channel count and
    every composition count against the summed exact probabilities with a
    Freedman (martingale Bernstein) radius at ``DELTA`` each, and the sum
    of ``dt * total propensity`` against a Gamma(n, 1) Chernoff bound.
    """

    CHANNELS = ("group", "noise12", "noise21")

    def __init__(self, n: int, label: str, rule_rate: float, noise_rate: float):
        self.n = n
        self.label = label
        self.group = 2 * len(label) + 1
        self.rates = [
            (rule_rate * n, noise_rate * count, noise_rate * (n - count))
            for count in range(n + 1)
        ]
        self.totals = [sum(r) for r in self.rates]
        self.visits = [0] * (n + 1)
        self.channel = {name: [0] * (n + 1) for name in self.CHANNELS}
        self.composition = [[0] * (self.group + 1) for _ in range(n + 1)]
        self.scaled_dt_sum = 0.0
        self.events = 0

    def record(self, count: int, dt: float, channel: str, k: int | None) -> None:
        self.events += 1
        self.visits[count] += 1
        self.channel[channel][count] += 1
        if channel == "group":
            self.composition[count][k] += 1
        self.scaled_dt_sum += dt * self.totals[count]

    def problems(self) -> list[str]:
        out = []
        for index, name in enumerate(self.CHANNELS):
            observed = expected = variance = 0.0
            for count, visits in enumerate(self.visits):
                if not visits:
                    continue
                p = self.rates[count][index] / self.totals[count]
                observed += self.channel[name][count]
                expected += visits * p
                variance += visits * p * (1.0 - p)
            radius = bernstein_radius(variance, 1.0)
            if abs(observed - expected) > radius:
                out.append(
                    f"channel {name}: {observed:.0f} events, expected "
                    f"{expected:.1f} +/- {radius:.1f}"
                )
        for k in range(self.group + 1):
            observed = expected = variance = 0.0
            for count, draws in enumerate(self.channel["group"]):
                if not draws:
                    continue
                p = pmf_float(self.n, count, self.group, k)
                observed += self.composition[count][k]
                expected += draws * p
                variance += draws * p * (1.0 - p)
            radius = bernstein_radius(variance, 1.0)
            if abs(observed - expected) > radius:
                out.append(
                    f"composition k={k}: {observed:.0f} draws, expected "
                    f"{expected:.1f} +/- {radius:.1f}"
                )
        if not gamma_mean_ok(self.events, self.scaled_dt_sum):
            out.append(
                f"mean of dt * total propensity is "
                f"{self.scaled_dt_sum / max(self.events, 1):.6f}, expected 1"
            )
        return out
