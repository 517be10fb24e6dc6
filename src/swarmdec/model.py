"""State space and interaction rules of a binary-opinion swarm.

A swarm of ``N`` agents, each holding opinion ``X1`` or ``X2``, is fully
described by the pair ``(N, K)`` where ``K`` counts the agents holding
``X1``.  Agents interact in groups of odd size ``G`` drawn uniformly
without replacement; depending on the rule polarity assigned to the
group's composition, one agent converts toward the group majority
(positive feedback) or toward the group minority (negative feedback).
Spontaneous noise flips move single agents in either direction.

Every event changes ``K`` by at most one, so the macroscopic order
parameter ``z = 2K/N - 1`` walks on the lattice ``z_K = 2K/N - 1``.
All values in this module are immutable and all functions are pure,
so they can be shared freely across threads.
"""

from __future__ import annotations

import functools
import itertools
import math
from enum import Enum
from typing import Iterator

__all__ = [
    "NoiseSpec",
    "RulePolarity",
    "RuleSet",
    "SwarmState",
    "cell_boundary",
    "check_event_rate",
    "check_group_size",
    "check_swarm_size",
    "count_of_z",
    "iter_rulesets",
    "lattice_z",
    "parse_polarity_string",
    "signed_weight",
    "state_of_z",
]


#: Largest swarm size: up to it, ``2N`` is a finite double, so the lattice
#: arithmetic (``2K/N - 1``, ``N(z+1)/2``) never overflows.
MAX_SWARM_SIZE = 2**1022 - 1
#: Largest swarm size of a simulation: the urn's picks are drawn as int64 integers.
MAX_AGENTS = 2**63 - 1
#: Largest number of samples per state of the empirical samplers.  Every
#: count then stays far below 2**53, so it is exact as a float and each
#: frequency ``count / draws`` is correctly rounded.
MAX_SAMPLES = 1_000_000_000


def check_swarm_size(n_agents: int) -> None:
    """Raise ValueError unless ``n_agents`` is a positive odd integer of at
    most :data:`MAX_SWARM_SIZE`."""
    if n_agents <= 0 or n_agents % 2 == 0:
        raise ValueError(f"swarm size must be a positive odd integer, got {n_agents}")
    if n_agents > MAX_SWARM_SIZE:
        raise ValueError(f"swarm size must be at most 2**1022 - 1, got {n_agents}")


def check_group_size(group_size: int) -> None:
    """Raise ValueError unless ``group_size`` is an odd integer >= 3."""
    if group_size < 3 or group_size % 2 == 0:
        raise ValueError(f"group size must be an odd integer >= 3, got {group_size}")


def lattice_z(count_x1: int, n_agents: int) -> float:
    """Order parameter ``z_K = 2K/N - 1`` of the lattice state ``K``."""
    return 2.0 * count_x1 / n_agents - 1.0


def cell_boundary(count_x1: int, n_agents: int) -> float:
    """``z = (2K+1-N)/N``, the boundary of states ``K`` and ``K + 1``, rounded once."""
    return (2 * count_x1 + 1 - n_agents) / n_agents


def check_event_rate(total: float, n_agents: int) -> float:
    """The summed rate ``total`` of all event channels; ValueError if it overflows."""
    if total == math.inf:
        raise ValueError(
            f"total event rate (rule_rate + noise_rate) * N overflows for N = {n_agents}"
        )
    return total


class _Record:
    """Base of the package's immutable records.  A subclass lists its fields
    as class annotations, in order, with optional defaults.  An instance is
    built from positional or keyword arguments, checked by ``__post_init__``,
    equal and hashed by its fields (equal only within one class), read-only,
    and reprs as ``Name(field=value, ...)``."""

    def __init_subclass__(cls) -> None:
        cls._fields = getattr(cls, "_fields", ()) + tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs) -> None:
        cls, fields, values = type(self), self._fields, self.__dict__
        values.update(zip(fields, args))
        for name in fields[len(args):]:
            if name not in kwargs and not hasattr(cls, name):
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            values[name] = kwargs.pop(name) if name in kwargs else getattr(cls, name)
        if kwargs or len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes only the fields {', '.join(fields)}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")
    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class RulePolarity(Enum):
    """Whether a group interaction reinforces its majority or its minority."""

    MAJORITY = "M"
    MINORITY = "m"


class SwarmState(_Record):
    """Macroscopic swarm state: ``n_agents`` total, ``count_x1`` holding X1.

    The swarm size must be odd so that the population can never split
    into an exact tie.
    """

    n_agents: int
    count_x1: int

    def __post_init__(self) -> None:
        check_swarm_size(self.n_agents)
        if not 0 <= self.count_x1 <= self.n_agents:
            raise ValueError(
                f"count_x1 must lie in [0, {self.n_agents}], got {self.count_x1}"
            )

    @property
    def z(self) -> float:
        """Order parameter x1-fraction minus x2-fraction, in [-1, 1]."""
        return lattice_z(self.count_x1, self.n_agents)


class NoiseSpec(_Record):
    """Macroscopic noise level ``epsilon`` (drift per unit z per unit time)."""

    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if not self.epsilon >= 0.0 or not math.isfinite(self.epsilon):
            raise ValueError(f"noise level must be finite and >= 0, got {self.epsilon}")


class RuleSet(_Record):
    """A symmetric assignment of rule polarities for one group size.

    ``polarities[i]`` governs both group compositions whose minority
    count is ``i + 1``; mirror compositions (``k`` and ``G - k`` agents
    of X1) therefore share a polarity by construction.  A group size
    ``G`` has ``(G - 1) // 2`` independent polarity slots, hence
    ``2 ** ((G - 1) // 2)`` distinct rule sets.
    """

    group_size: int
    polarities: tuple[RulePolarity, ...]

    def __post_init__(self) -> None:
        g = self.group_size
        check_group_size(g)
        expected = (g - 1) // 2
        if len(self.polarities) != expected:
            raise ValueError(
                f"group size {g} needs {expected} polarity entries, "
                f"got {len(self.polarities)}"
            )
        if not all(isinstance(p, RulePolarity) for p in self.polarities):
            raise TypeError("polarities must be RulePolarity values")

    @property
    def label(self) -> str:
        """Compact encoding, one 'M'/'m' per minority count 1..(G-1)/2."""
        return "".join(p.value for p in self.polarities)

    @functools.cached_property
    def signed_weights(self) -> tuple[int, ...]:
        """:func:`signed_weight` of every composition ``k = 0..G``, each under
        the polarity of its minority count ``min(k, G - k)``."""
        g = self.group_size
        return (0, *(signed_weight(k, g, self.polarities[min(k, g - k) - 1]) for k in range(1, g)), 0)

    def complement(self) -> "RuleSet":
        """The rule set with every polarity flipped."""
        flipped = tuple(
            RulePolarity.MINORITY if p is RulePolarity.MAJORITY else RulePolarity.MAJORITY
            for p in self.polarities
        )
        return RuleSet(self.group_size, flipped)


def parse_polarity_string(s: str, group_size: int) -> RuleSet:
    """Rule set encoded as one 'M'/'m' per minority count, e.g. ``MMm``:
    the inverse of :attr:`RuleSet.label`."""
    check_group_size(group_size)
    expected = (group_size - 1) // 2
    if len(s) != expected:
        raise ValueError(
            f"polarity string for group size {group_size} must have length {expected}, got {len(s)}"
        )
    for i, ch in enumerate(s):
        if ch not in ("M", "m"):
            raise ValueError(f"invalid polarity character {ch!r} at position {i}; expected 'M' or 'm'")
    return RuleSet(group_size, tuple(map(RulePolarity, s)))


def count_of_z(n_agents: int, z: float) -> int:
    """Count ``K`` of the lattice state nearest the order parameter ``z``.

    ``N*(z+1)/2`` rounded half away from zero and clamped to ``[0, N]``,
    which keeps the mapping symmetric about ``z = 0``.  Neither ``z`` nor
    ``n_agents`` (see :func:`check_swarm_size`) is checked here.
    """
    # The pre-rounding value is >= 0 for z >= -1, so half-away-from-zero
    # reduces to floor(x + 1/2).
    count = math.floor(n_agents * (z + 1.0) / 2.0 + 0.5)
    return min(max(count, 0), n_agents)


def state_of_z(n_agents: int, z: float) -> SwarmState:
    """Nearest lattice state (:func:`count_of_z`) for a continuous order
    parameter ``z`` in [-1, 1]."""
    check_swarm_size(n_agents)
    if not -1.0 <= z <= 1.0:
        raise ValueError(f"order parameter must lie in [-1, 1], got {z}")
    return SwarmState(n_agents, count_of_z(n_agents, z))


def signed_weight(k: int, group_size: int, polarity: RulePolarity) -> int:
    """Direction in which ``count_x1`` moves when a rule fires.

    For a drawn group containing ``k`` agents of opinion X1, a majority
    rule converts one agent toward the more numerous side (``+1`` if X1
    is the majority, ``-1`` otherwise) and a minority rule does the
    opposite.  Uniform groups (``k = 0`` or ``k = G``) contain no agent
    to convert, so their weight is zero.
    """
    if not 0 <= k <= group_size:
        raise ValueError(f"composition k must lie in [0, {group_size}], got {k}")
    if k == 0 or k == group_size:
        return 0
    toward_majority = (2 * k > group_size) - (2 * k < group_size)
    if polarity is RulePolarity.MAJORITY:
        return toward_majority
    return -toward_majority


def iter_rulesets(group_size: int) -> Iterator[RuleSet]:
    """All ``2 ** ((G-1)/2)`` rule sets for a group size, in label order,
    built one at a time.

    Labels sort with 'M' before 'm', so the listing starts with the
    all-majority set and ends with the all-minority one.
    """
    check_group_size(group_size)
    slots = (group_size - 1) // 2
    return (
        RuleSet(group_size, combo)
        for combo in itertools.product(
            (RulePolarity.MAJORITY, RulePolarity.MINORITY), repeat=slots
        )
    )
