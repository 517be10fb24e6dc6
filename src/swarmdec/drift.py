"""Macroscopic drift of the order parameter and its fixed points.

The expected motion of ``z = 2K/N - 1`` per unit time decomposes into a
rule term and a noise term::

    dz/dt = sum_k w_k * P(X = k)  -  epsilon * z

where ``P(X = k)`` is the hypergeometric probability of drawing a group
with ``k`` X1 opinions at the current state and ``w_k`` is the signed
weight of the rule that fires there (zero at the uniform compositions).
The noise term is a plain linear restoring drift, so noise superposes on
the rule dynamics without altering the firing probabilities.

The drift depends on ``z`` only through the lattice state ``K`` nearest
to it (``model.count_of_z``), and only its rule term
``R_K = sum_k w_k * P_K(k)`` costs anything.  ``_rule_term`` is the one
place that computes it, correctly rounded: the integer sum of ``w_k``
times the column ``C(K, k) * C(N - K, G - k)`` of ``hypergeom._hits``,
divided once by ``C(N, G)``.  The analytic routes walk their ``z``
values in increasing order, so they compute ``R_K`` once per state
visited and evaluate ``R_K - epsilon * z`` at every point
(``_drift_values``).  ``analytic_drift`` is one such point,
``analytic_drift_curve`` streams a uniform grid, and
``find_fixed_points`` scans one and bisects over ``K`` in each sign change
for the exact zero of the lattice drift.  The polarity complement of a
rule set negates every weight, hence the integer, so its rule term is
``-R_K`` bit for bit and the two noise-free curves satisfy ``a == -b`` at
every point; ``swarmdec validate`` requires exactly that on the lattice.
Its checks are ``validation_checks``: the composition law against its
enumeration oracle, then three properties of the drift at every lattice
state, read from ``_drift_values`` itself, so a fault in the evaluator
the commands run fails them.

``empirical_drift`` estimates the same quantity by Monte Carlo, and
``empirical_firing_probabilities`` the composition law itself, by
sampling the urn that the law describes (a group is drawn one agent at a
time, without replacement, from ``K`` X1 and ``N - K`` X2 agents), never
the pmf.  Only the histogram of the groups' X1 counts is used, so
``_urn_counts`` draws that histogram directly, by binomial splitting:
all groups take each pick together, and the groups holding ``d`` X1 so
far split binomially into those that draw an X1 and those that do not.
Each group still follows the urn, independently of the others, so the
histogram has the same law as that of groups drawn one by one, and a
state costs at most ``G(G+1)/2`` binomials whatever the number of
samples.

Both drift routes yield the curve as ``(z, dz/dt)`` pairs, lazily, so
that memory does not grow with the grid or the lattice.  Both routes run
on the standard library: each binomial is drawn by :func:`_binomial`
from the uniforms of a ``random.Random`` (Mersenne Twister), whose
stream Python keeps the same for the same seed, so the sampled files do
not change with the Python version.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from typing import Callable, Iterable, Iterator

from . import hypergeom
from .hypergeom import _hits, _validate, pmf_table
from .model import MAX_SAMPLES, NoiseSpec, RuleSet, _Record, cell_boundary, check_event_rate, check_swarm_size, count_of_z, iter_rulesets, lattice_z

__all__ = [
    "FixedPoint",
    "MAX_SAMPLES",
    "Stability",
    "analytic_drift",
    "analytic_drift_curve",
    "empirical_drift",
    "empirical_firing_probabilities",
    "find_fixed_points",
    "rule_firing_probabilities",
    "validation_checks",
]


class Stability(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"


#: Stability of a zero by the signs of the drift (``> 0``) on its two sides.
_STABILITY = {(True, False): Stability.STABLE, (False, True): Stability.UNSTABLE}


class FixedPoint(_Record):
    """A zero of the lattice drift, its stability, and the grid points around it."""

    z: float
    stability: Stability
    bracket: tuple[float, float]


class _Grid:
    """``n`` evenly spaced points from -1 to 1, generated one at a time on
    every iteration, never held; each is the same double as in
    ``numpy.linspace(-1.0, 1.0, n)``, whose arithmetic this repeats."""

    def __init__(self, n: int) -> None:
        self.n = n

    def __iter__(self) -> Iterator[float]:
        step = 2.0 / (self.n - 1)
        for i in range(self.n - 1):
            yield i * step + -1.0
        yield 1.0


def _rule_term(n_agents: int, rules: RuleSet, count: int) -> float:
    """Rule term ``R_K = sum_k w_k * P_K(k)`` of the drift at state ``K``,
    correctly rounded: the exact integer ``sum_k w_k * C(K, k) * C(N - K, G - k)``
    divided once by ``C(N, G)``, so complementary rule sets give exactly
    negated terms.
    """
    g = rules.group_size
    _validate(n_agents, count, g, 0)
    return sum(w * h for w, h in zip(rules.signed_weights, _hits(n_agents, count, g))) / math.comb(n_agents, g)


def _drift_values(
    n_agents: int, rules: RuleSet | None, epsilon: float, zs: Iterable[float]
) -> Iterator[float]:
    """``dz/dt = R_K - epsilon*z`` at each ``z`` of ``zs`` (in [-1, 1]).

    ``K`` is the lattice state nearest ``z`` (:func:`count_of_z`), and
    ``R_K`` is computed by :func:`_rule_term` only when ``K`` changes from
    one ``z`` to the next, so a non-decreasing ``zs`` costs one term per
    state it visits.  With ``rules=None`` only the noise term
    ``-(epsilon*z)`` remains.  Raises ValueError, when iterated, if
    ``n_agents`` fails :func:`check_swarm_size`.
    """
    check_swarm_size(n_agents)
    if rules is None:
        for z in zs:
            yield -(epsilon * z)
        return
    count = None
    for z in zs:
        k = count_of_z(n_agents, z)
        if k != count:
            count = k
            term = _rule_term(n_agents, rules, k)
        yield term - epsilon * z


def analytic_drift(
    n_agents: int, rules: RuleSet | None, noise: NoiseSpec, z: float
) -> float:
    """Expected ``dz/dt`` at order parameter ``z``.

    ``z`` is quantized to the nearest lattice state (half away from
    zero) before evaluating the composition probabilities.  With
    ``rules=None`` only the noise term ``-epsilon*z`` remains, which is
    the purely noise-driven system.

    The rule term is one exact integer divided once (:func:`_rule_term`),
    so complementary rule sets produce exactly negated values and the
    noise term superposes exactly.
    """
    if not -1.0 <= z <= 1.0:
        raise ValueError(f"order parameter must lie in [-1, 1], got {z}")
    return next(_drift_values(n_agents, rules, noise.epsilon, (z,)))


def analytic_drift_curve(
    n_agents: int,
    rules: RuleSet | None,
    noise: NoiseSpec,
    grid_points: int = 201,
) -> Iterator[tuple[float, float]]:
    """``(z, dz/dt)`` of the analytic drift on a uniform z grid over [-1, 1],
    generated one point at a time, so memory does not grow with the grid."""
    if grid_points < 2:
        raise ValueError(f"grid must have at least 2 points, got {grid_points}")
    zs = _Grid(grid_points)
    return zip(zs, _drift_values(n_agents, rules, noise.epsilon, zs))


def validation_checks() -> list[dict]:
    """The checks of ``swarmdec validate``, in report order, as
    ``{name, passed, detail}`` dicts: ``hypergeom.pmf_table`` against its
    enumeration oracle ``hypergeom.pmf_bruteforce`` for N in {7, 10, 12},
    G in {3, 5, 7} and every K, then the antisymmetry, complement negation
    and noise superposition of the drift at every lattice state ``z_K``,
    ``K = 0..101``, of every G = 7 rule set at each noise level, all three
    read from the evaluator the commands run (:func:`_drift_values`)."""
    worst_pmf = max(0.0, *(
        abs(p - q)
        for n in (7, 10, 12) for g in (3, 5, 7) for count in range(n + 1)
        for p, q in zip(hypergeom.pmf_table(n, count, g), hypergeom.pmf_bruteforce(n, count, g))
    ))
    n_agents = 101
    zs = [lattice_z(count, n_agents) for count in range(n_agents + 1)]
    drifts = {
        rules: {epsilon: list(_drift_values(n_agents, rules, epsilon, zs)) for epsilon in (0.0, 0.05, 0.1)}
        for rules in iter_rulesets(7)
    }
    worst_sum = max(0.0, *(
        abs(a + b)
        for by_epsilon in drifts.values() for epsilon in (0.0, 0.1)
        for a, b in zip(by_epsilon[epsilon], reversed(by_epsilon[epsilon]))
    ))
    negated = all(
        a == -b
        for rules, by_epsilon in drifts.items()
        if rules.label[0] == "M"  # each pair once
        for a, b in zip(by_epsilon[0.0], drifts[rules.complement()][0.0])
    )
    superposed = all(
        with_noise == without - epsilon * z
        for by_epsilon in drifts.values() for epsilon in (0.05, 0.1)
        for z, with_noise, without in zip(zs, by_epsilon[epsilon], by_epsilon[0.0])
    )
    checks = [
        ("pmf-bruteforce-agreement", worst_pmf == 0.0, f"max |pmf - enumeration| = {worst_pmf:.3e}"),
        ("lattice-antisymmetry", worst_sum <= 1e-12, f"max |drift(z_K) + drift(z_(N-K))| = {worst_sum:.3e}"),
        ("complement-negation", negated, "drift curves of complementary rule sets negate pointwise"),
        ("noise-superposition", superposed, "drift(z; eps) == drift(z; 0) - eps*z bit-exactly"),
    ]
    return [{"name": name, "passed": passed, "detail": detail} for name, passed, detail in checks]


def _binomial(uniform: Callable[[], float], n: int, p: float) -> int:
    """One ``Binomial(n, p)`` variate from the uniforms ``uniform()`` in [0, 1).

    ``p > 0.5`` is reflected to ``n - Binomial(n, 1 - p)``.  Below a mean
    ``n * p`` of 10 the geometric method (Devroye 1986, X.4.3) counts the
    successes whose geometric waiting times fit within ``n`` trials;
    otherwise Hörmann's BTRS (1993, *J. Stat. Comput. Simul.* 46:101)
    samples by transformed rejection with squeeze, at a bounded expected
    number of uniform pairs whatever ``n``.
    """
    if p > 0.5:
        return n - _binomial(uniform, n, 1.0 - p)
    if p <= 0.0:
        return 0
    if n * p < 10.0:
        log_q = math.log1p(-p)
        successes = trials = 0
        while True:
            # Failures before the next success, as a float: at a tiny p it
            # exceeds any n, or is inf, so compare it before flooring.
            gap = math.log(1.0 - uniform()) / log_q
            if gap >= n - trials:
                return successes
            trials += math.floor(gap) + 1
            successes += 1
    q = 1.0 - p
    spq = math.sqrt(n * p * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    while True:
        u = uniform() - 0.5
        v = 1.0 - uniform()  # in (0, 1], so that its log below is finite
        us = 0.5 - abs(u)
        if us == 0.0:  # u = -0.5, where the hat has its pole
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        if us >= 0.07 and v <= v_r:
            return k
        # Outside the squeeze (one pair in five at a large n*p*q): compare
        # with the log of the pmf ratio f(k) / f(m) at the mode m.
        alpha = (2.83 + 5.1 / b) * spq
        m = math.floor((n + 1) * p)
        v = math.log(v * alpha / (a / (us * us) + b))
        log_ratio = (
            math.lgamma(m + 1) + math.lgamma(n - m + 1) - math.lgamma(k + 1)
            - math.lgamma(n - k + 1) + (k - m) * math.log(p / q)
        )
        if v <= log_ratio:
            return k


def _urn_counts(
    rng: random.Random, n_agents: int, good: int, group_size: int, draws: int
) -> list[int]:
    """Histogram ``c[k]``, ``k = 0..group_size``, of the X1 counts of
    ``draws`` independent groups, each drawn one agent at a time without
    replacement from an urn of ``good`` X1 among ``n_agents`` agents.

    All groups are drawn together, by binomial splitting (Davis 1993):
    ``c[d]`` holds the groups with ``d`` X1 among their first ``j`` picks,
    and at pick ``j`` each of them draws an X1 with probability
    ``(good - d) / (n_agents - j)``, independently of the others, so
    ``Binomial(c[d], (good - d) / (n_agents - j))`` of them move to
    ``d + 1``, drawn by :func:`_binomial` from ``rng``.  After
    ``group_size`` picks ``c`` has the law of the histogram of ``draws``
    urn draws, at a cost of at most ``group_size * (group_size + 1) / 2``
    binomials, whatever ``draws``.  The urn's per-pick ratios are its only
    input: this never reads the hypergeometric pmf it is meant to check.
    """
    _validate(n_agents, good, group_size, 0)
    uniform = rng.random
    counts = [draws] + [0] * group_size
    for pick in range(group_size):
        left = n_agents - pick
        # Highest d first, so that groups moved at this pick move once.
        for d in range(min(pick, good), -1, -1):
            if not counts[d] or d == good:
                continue  # no group here, or no X1 left in the urn
            if good - d == left:  # only X1 left
                moved = counts[d]
            else:
                moved = _binomial(uniform, counts[d], (good - d) / left)
            counts[d] -= moved
            counts[d + 1] += moved
    return counts


def _split_events(
    rng: random.Random, samples: int, a_group: float, a_12: float, a_21: float
) -> tuple[int, int, int]:
    # Multinomial split via chained binomials; identical in law, and
    # immune to "probabilities sum above 1" rounding complaints.
    total = a_group + a_12 + a_21
    n_group = _binomial(rng.random, samples, a_group / total) if a_group > 0 else 0
    rest = samples - n_group
    noise_total = a_12 + a_21
    if rest == 0 or noise_total == 0:
        return n_group, 0, rest
    n_12 = _binomial(rng.random, rest, a_12 / noise_total) if a_12 > 0 else 0
    return n_group, n_12, rest - n_12


def _state_rng(seed: int, count: int) -> random.Random:
    """The generator of lattice state ``count``: a ``random.Random`` seeded
    with ``seed * 2**64 + count``, so one seed per ``(seed, count)`` while
    ``count < 2**64``."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return random.Random(seed * 2**64 + count)


def _check_samples(name: str, count: int) -> None:
    if not 1 <= count <= MAX_SAMPLES:
        raise ValueError(f"{name} must be in 1..{MAX_SAMPLES}, got {count}")


def empirical_drift(
    n_agents: int,
    rules: RuleSet | None,
    noise: NoiseSpec,
    samples_per_state: int,
    seed: int,
    rule_rate: float = 0.5,
) -> Iterator[tuple[float, float]]:
    """Monte Carlo drift estimate on the full lattice ``K = 0..N``, yielded
    as ``(z_K, dz/dt)`` one state at a time, in K order.

    At every lattice state the chain is reset and ``samples_per_state``
    independent single events are sampled: a channel chosen by
    propensity, and for a group event the X1 count of a group drawn from
    the urn.  The mean count change per event times the total event
    rate, rescaled by ``2/N``, estimates ``dz/dt`` there.

    Only the number of events per channel and the histogram of the
    groups' X1 counts enter that mean, so these are drawn directly, with
    the same law as the events one by one: the channel counts by chained
    binomials, the histogram by :func:`_urn_counts`.  The cost per state
    is a few dozen binomials, whatever ``samples_per_state``.

    Each state uses its own generator (:func:`_state_rng`), so the curve
    is independent of evaluation order.  Raises ValueError, when iterated,
    if ``samples_per_state`` is not in ``1..MAX_SAMPLES``, at the first
    state whose total event rate overflows, and at the first state sampled
    if ``seed`` is negative.
    """
    check_swarm_size(n_agents)
    _check_samples("samples_per_state", samples_per_state)
    if not 0 <= rule_rate < math.inf:
        raise ValueError(f"rule rate must be finite and >= 0, got {rule_rate}")
    if rules is None and rule_rate != 0:
        raise ValueError("rule_rate > 0 requires a rule set")
    c = noise.epsilon / 2.0
    a_group = rule_rate * n_agents
    for count in range(n_agents + 1):
        a_12 = c * count
        a_21 = c * (n_agents - count)
        total = check_event_rate(a_group + a_12 + a_21, n_agents)
        estimate = 0.0
        if total != 0.0:
            rng = _state_rng(seed, count)
            n_group, n_12, n_21 = _split_events(rng, samples_per_state, a_group, a_12, a_21)
            delta_sum = n_21 - n_12
            if n_group > 0:
                hits = _urn_counts(rng, n_agents, count, rules.group_size, n_group)
                delta_sum += sum(w * h for w, h in zip(rules.signed_weights, hits))
            estimate = (2.0 / n_agents) * (delta_sum / samples_per_state) * total
        yield lattice_z(count, n_agents), estimate


def rule_firing_probabilities(
    n_agents: int, group_size: int, count_x1: int
) -> tuple[float, ...]:
    """Probability that the rule at each composition ``k = 0..G`` fires
    at this state, one entry per ``k``.

    This is exactly the hypergeometric composition law (``pmf_table``); in
    particular it does not depend on the noise level or on the rule polarities.
    """
    return pmf_table(n_agents, count_x1, group_size)


def empirical_firing_probabilities(
    n_agents: int, group_size: int, count_x1: int, draws: int, seed: int
) -> tuple[float, ...]:
    """Observed frequency of each composition ``k = 0..G`` over ``draws``
    group draws (``1..MAX_SAMPLES``) from the urn (:func:`_urn_counts`), by
    the generator of state ``count_x1`` (:func:`_state_rng`), one entry
    per ``k``; the counts sum to ``draws``."""
    _check_samples("draws", draws)
    rng = _state_rng(seed, count_x1)
    counts = _urn_counts(rng, n_agents, count_x1, group_size, draws)
    return tuple(float(c) / draws for c in counts)


def _bisect(f, lo: int, hi: int, f_lo: float, n_agents: int) -> tuple[int, int]:
    """Narrow the sign change of ``f`` from state ``lo``, where it takes
    ``f_lo``, to state ``hi`` until the two are adjacent or their lattice
    z are equal or adjacent doubles; returns the two states."""
    lo_positive = f_lo > 0
    while hi - lo > 1 and lattice_z(hi, n_agents) > math.nextafter(lattice_z(lo, n_agents), 2.0):
        mid = (lo + hi) // 2
        fm = f(mid)
        if fm == 0.0 or (fm > 0) == lo_positive:
            lo = mid
        else:
            hi = mid
    return lo, hi


def find_fixed_points(
    n_agents: int,
    rules: RuleSet | None,
    noise: NoiseSpec,
    grid_points: int = 2001,
) -> list[FixedPoint]:
    """Locate and classify every zero of the analytic drift on [-1, 1].

    The curve is scanned on a uniform grid, in one pass that holds only
    the last nonzero point and the ends of the current run of zeros, so
    memory does not grow with the grid.  On the cell of state ``K`` the
    drift is ``R_K - epsilon*z``, so the zero of a sign change between two
    grid points is found by bisecting over the states between them
    (:func:`_bisect`): a jump at a cell boundary (:func:`cell_boundary`) or
    the root ``R_K/epsilon`` inside a cell, either rounded once from the
    exact zero.  A change from + to - is stable, one from - to + unstable;
    the bracket is the two grid points around the zero.  Runs of exact
    zeros are collapsed: a zero plateau touching a boundary is reported as
    the boundary fixed point ``z = +/-1`` (classified by the drift just
    inside), and an interior plateau as one fixed point at its midpoint.
    A drift that vanishes identically yields one marginal fixed point
    spanning the whole interval.
    """
    if grid_points < 3:
        raise ValueError(f"grid must have at least 3 points, got {grid_points}")

    def term(count: int) -> float:
        return 0.0 if rules is None else _rule_term(n_agents, rules, count)

    found: list[FixedPoint] = []
    z_prev = f_prev = None
    zero_lo = zero_hi = None
    zs = _Grid(grid_points)
    for z, f in zip(zs, _drift_values(n_agents, rules, noise.epsilon, zs)):
        if f == 0.0:
            if zero_lo is None:
                zero_lo = z
            zero_hi = z
            continue
        if f_prev is None:
            if zero_lo is not None:  # zero plateau at the left boundary
                stability = Stability.STABLE if f < 0 else Stability.UNSTABLE
                found.append(FixedPoint(-1.0, stability, (zero_lo, zero_hi)))
        elif zero_lo is not None or (f_prev > 0) != (f > 0):
            stability = _STABILITY.get((f_prev > 0, f > 0), Stability.MARGINAL)
            if zero_lo is not None:  # interior zero plateau: one point at its midpoint
                root = 0.5 * (zero_lo + zero_hi)
            else:
                lo, hi = _bisect(
                    lambda count: term(count) - noise.epsilon * lattice_z(count, n_agents),
                    count_of_z(n_agents, z_prev), count_of_z(n_agents, z), f_prev, n_agents,
                )
                root = cell_boundary(lo, n_agents)  # where the drift jumps through zero
                if f_prev > 0 and noise.epsilon > 0.0:  # or it falls through zero in cell lo or hi
                    in_lo = term(lo) / noise.epsilon
                    root = in_lo if in_lo <= root else max(root, term(hi) / noise.epsilon)
                root = min(max(root, z_prev), z)  # count_of_z rounds N above 2**53
            found.append(FixedPoint(root, stability, (z_prev, z)))
        z_prev, f_prev = z, f
        zero_lo = None

    if f_prev is None:
        return [FixedPoint(0.0, Stability.MARGINAL, (-1.0, 1.0))]
    if zero_lo is not None:  # zero plateau at the right boundary
        stability = Stability.STABLE if f_prev > 0 else Stability.UNSTABLE
        found.append(FixedPoint(1.0, stability, (zero_lo, zero_hi)))
    return found
