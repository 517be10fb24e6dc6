"""Hypergeometric law of group compositions drawn without replacement.

When ``G`` agents are drawn uniformly without replacement from a swarm
of ``N`` agents of which ``K`` hold opinion X1, the number ``k`` of X1
opinions in the group follows the hypergeometric distribution

    P(X = k) = C(K, k) * C(N - K, G - k) / C(N, G).

``pmf`` evaluates this exactly: Python integers never overflow, so the
binomials are computed in full precision and only the final division
rounds (to nearest, once).  The law at one state is a plain tuple of
``G + 1`` floats indexed by ``k``: ``pmf_table`` divides the integer
column of ``_hits``, built in O(G) big-integer steps by the binomial
ratios, and ``pmf_bruteforce``, an independent validation oracle, the
counts of an enumeration of every subset.  Both count the same subsets
and divide by ``C(N, G)``, so they agree with ``pmf`` bit for bit.
"""

from __future__ import annotations

import itertools
import math

__all__ = ["pmf", "pmf_bruteforce", "pmf_table"]

_BRUTEFORCE_MAX_N = 24


def _validate(n_agents: int, count_x1: int, group_size: int, k: int) -> None:
    if not 0 <= count_x1 <= n_agents:
        raise ValueError(f"count_x1 must lie in [0, {n_agents}], got {count_x1}")
    if not 1 <= group_size <= n_agents:
        raise ValueError(f"group size must lie in [1, {n_agents}], got {group_size}")
    if not 0 <= k <= group_size:
        raise ValueError(f"composition k must lie in [0, {group_size}], got {k}")


def pmf(n_agents: int, count_x1: int, group_size: int, k: int) -> float:
    """Probability of drawing exactly ``k`` X1 opinions in one group.

    Parameters
    ----------
    n_agents : population size N.
    count_x1 : number K of X1 opinions in the population.
    group_size : number G of agents drawn without replacement.
    k : composition whose probability is wanted, 0 <= k <= G.

    Compositions outside the feasible support (more X1 than the
    population holds, or more X2 than it holds) have probability 0.
    """
    _validate(n_agents, count_x1, group_size, k)
    if k > count_x1 or group_size - k > n_agents - count_x1:
        return 0.0
    return math.comb(count_x1, k) * math.comb(n_agents - count_x1, group_size - k) / math.comb(n_agents, group_size)


def _hits(n_agents: int, count_x1: int, group_size: int) -> list[int]:
    """The size-G subsets holding ``k`` X1, ``C(K, k) * C(N - K, G - k)``, for
    ``k = 0..G``, of valid arguments.

    From the lowest feasible ``k``, ``max(0, G - (N - K))``, each entry is
    the last times ``(K - k)(G - k)`` divided by ``(k + 1)(N - K - G + k + 1)``,
    a division that is exact and never by zero.
    """
    others = n_agents - count_x1
    low = max(0, group_size - others)
    hits = [0] * low + [math.comb(count_x1, low) * math.comb(others, group_size - low)]
    for k in range(low, group_size):
        hits.append(hits[-1] * (count_x1 - k) * (group_size - k) // ((k + 1) * (others - group_size + k + 1)))
    return hits


def pmf_table(n_agents: int, count_x1: int, group_size: int) -> tuple[float, ...]:
    """The law of ``k = 0..G`` at one state: ``G + 1`` entries ``pmf(..., k)``,
    the column of :func:`_hits` divided by one ``C(N, G)``."""
    _validate(n_agents, count_x1, group_size, 0)
    subsets = math.comb(n_agents, group_size)
    return tuple(h / subsets for h in _hits(n_agents, count_x1, group_size))


def pmf_bruteforce(n_agents: int, count_x1: int, group_size: int) -> tuple[float, ...]:
    """Validation oracle: the law of ``k = 0..G`` at one state, by enumeration.

    Builds a population of ``count_x1`` ones and ``N - count_x1`` zeros,
    walks every size-G subset once, counts ``hits[k]``, the subsets whose
    element sum is ``k``, and returns ``hits[k] / C(N, G)`` for each ``k``.
    All arithmetic is integer until the final division.  Limited to
    ``N <= 24`` to keep the enumeration tractable.
    """
    if n_agents > _BRUTEFORCE_MAX_N:
        raise ValueError(f"subset enumeration is limited to N <= {_BRUTEFORCE_MAX_N}, got {n_agents}")
    _validate(n_agents, count_x1, group_size, 0)
    population = [1] * count_x1 + [0] * (n_agents - count_x1)
    hits = [0] * (group_size + 1)
    for draw in itertools.combinations(population, group_size):
        hits[sum(draw)] += 1
    subsets = math.comb(n_agents, group_size)
    return tuple(h / subsets for h in hits)
