"""Hypergeometric law of group compositions drawn without replacement.

When ``G`` agents are drawn uniformly without replacement from a swarm
of ``N`` agents of which ``K`` hold opinion X1, the number ``k`` of X1
opinions in the group follows the hypergeometric distribution

    P(X = k) = C(K, k) * C(N - K, G - k) / C(N, G).

``pmf`` evaluates this exactly: Python integers never overflow, so the
binomials are computed in full precision and only the final division
rounds (to nearest, once).  The law at one state is a plain tuple of
``G + 1`` floats indexed by ``k``: ``pmf_table`` builds it as ``pmf`` does,
and ``pmf_bruteforce``, an independent validation oracle, by enumerating
every subset once.  Both divide the same integer count by ``C(N, G)``,
so the two tuples are equal bit for bit.
"""

from __future__ import annotations

import itertools
import math

__all__ = ["pmf", "pmf_bruteforce", "pmf_table"]

_BRUTEFORCE_MAX_N = 24


def _validate(n_agents: int, count_x1: int, group_size: int, k: int) -> None:
    if not 0 <= count_x1 <= n_agents:
        raise ValueError(
            f"count_x1 must lie in [0, {n_agents}], got {count_x1}"
        )
    if not 1 <= group_size <= n_agents:
        raise ValueError(
            f"group size must lie in [1, {n_agents}], got {group_size}"
        )
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
    return _probability(n_agents, count_x1, group_size, k, math.comb(n_agents, group_size))


def _probability(n_agents: int, count_x1: int, group_size: int, k: int, subsets: int) -> float:
    """:func:`pmf` of valid arguments, given ``subsets = C(N, G)``."""
    if k > count_x1 or group_size - k > n_agents - count_x1:
        return 0.0
    return math.comb(count_x1, k) * math.comb(n_agents - count_x1, group_size - k) / subsets


def pmf_table(n_agents: int, count_x1: int, group_size: int) -> tuple[float, ...]:
    """The law of ``k = 0..G`` at one state: ``G + 1`` entries ``pmf(..., k)``,
    which share one ``C(N, G)``."""
    _validate(n_agents, count_x1, group_size, 0)
    subsets = math.comb(n_agents, group_size)
    return tuple(_probability(n_agents, count_x1, group_size, k, subsets) for k in range(group_size + 1))


def pmf_bruteforce(n_agents: int, count_x1: int, group_size: int) -> tuple[float, ...]:
    """Validation oracle: the law of ``k = 0..G`` at one state, by enumeration.

    Builds a population of ``count_x1`` ones and ``N - count_x1`` zeros,
    walks every size-G subset once, counts ``hits[k]``, the subsets whose
    element sum is ``k``, and returns ``hits[k] / C(N, G)`` for each ``k``.
    All arithmetic is integer until the final division.  Limited to
    ``N <= 24`` to keep the enumeration tractable.
    """
    if n_agents > _BRUTEFORCE_MAX_N:
        raise ValueError(
            f"subset enumeration is limited to N <= {_BRUTEFORCE_MAX_N}, "
            f"got {n_agents}"
        )
    _validate(n_agents, count_x1, group_size, 0)
    population = [1] * count_x1 + [0] * (n_agents - count_x1)
    hits = [0] * (group_size + 1)
    for draw in itertools.combinations(population, group_size):
        hits[sum(draw)] += 1
    subsets = math.comb(n_agents, group_size)
    return tuple(h / subsets for h in hits)
