"""Exact event-driven simulation of the swarm (Gillespie direct method).

Three event channels compete as independent Poisson clocks:

* group interactions, at total rate ``rule_rate * N``;
* noise flips X1 -> X2, at rate ``noise_rate * K``;
* noise flips X2 -> X1, at rate ``noise_rate * (N - K)``.

The total propensity ``(rule_rate + noise_rate) * N`` does not depend on
``K``: waiting times are exponential in it and the channel is chosen
proportionally to its rate.  A group event draws ``G`` agents one by one
without replacement (a sequential urn on integer picks, independent of
:func:`swarmdec.hypergeom.pmf`); the composition ``k`` (number of X1
opinions drawn) selects the rule that fires.  Uniform draws (``k = 0``
or ``k = G``) convert nobody and are recorded as null events.

Randomness comes in whole blocks of :data:`BLOCK_EVENTS` events:
exponentials, channel uniforms and the urn picks, whose bounds
``N, N-1, ..., N-G+1`` do not depend on ``K`` either.  A same-seed run
that stops earlier is therefore an exact prefix of a longer one.  The
picks are those ``Generator.integers`` draws, computed from whole random
words at once (:func:`_pick_drawer`).

There is one event loop, :class:`EventBlocks`.  It does with numpy, a
batch of blocks at a time, all that does not depend on ``K``: the clock,
and, up to :data:`_SORTED_GROUPS` agents a group, each group event's ``G``
sorted urn thresholds, whose number ``<= K`` is its ``k`` at count ``K``
(:func:`_urn_thresholds`).  Only that lookup (or, for larger groups, the
urn itself) and the count are left to a per-event loop, which records one
code per event: its ``k``, or a noise code.  The count path, kinds and
``k`` column are table lookups of those codes.  It yields the record of
each batch as a block of columns while the run goes on, and knows the
run's end once it is exhausted.  :func:`simulate` joins the
blocks into a :class:`Trajectory`.

With ``rule_rate = 0.5`` and ``noise_rate = epsilon / 2`` the expected
motion of ``z = 2K/N - 1`` per unit time equals the analytic drift
curve of :mod:`swarmdec.drift` with noise level ``epsilon``, so
simulated time is directly comparable to the drift model.

A single run is strictly sequential; independent replicates may run
concurrently, each with its own generator (seed ``base + index``).

numpy is imported only where it is used: where random numbers are drawn
(iterating :class:`EventBlocks`) and where CSV rows are formatted
(:mod:`swarmdec.csvrows`, imported only then), so importing this module
loads neither.  ``EventBlocks._forked``, which the ``simulate`` command
runs once its configuration is checked, imports :mod:`swarmdec.csvrows`,
and numpy with it, before it forks: the forked process finds numpy loaded
instead of importing it beside its parent.  The fork stays single-threaded,
as the thread pool of numpy's OpenBLAS stops at a fork (its own
``pthread_atfork`` handler).  The forked process iterates the run and
pickles each block up a pipe, then the run's end state or its error's
text, while the parent formats each block as it arrives and takes on the
end, so neither holds more than a batch.  The child never touches a
file, is killed and reaped however the reading ends, and on Linux dies
with its parent.  This needs ``os.fork`` (POSIX).
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import sys
from array import array
from bisect import bisect_right
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .model import MAX_AGENTS, RuleSet, SwarmState, _Record, check_event_rate

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BLOCK_EVENTS",
    "EVENT_LABELS",
    "EventBlocks",
    "FrozenSystemError",
    "NOISE12",
    "NOISE21",
    "NULL",
    "RULE",
    "SimConfig",
    "Trajectory",
    "simulate",
    "trajectory_csv_lines",
]

#: Event kinds: the CSV label of each kind code stored in ``Trajectory.kinds``.
EVENT_LABELS = ("rule", "null", "noise12", "noise21")
RULE, NULL, NOISE12, NOISE21 = range(len(EVENT_LABELS))

#: Events per block of random draws in :class:`EventBlocks`.
BLOCK_EVENTS = 256
#: Events per batch of blocks of draws that :class:`EventBlocks` handles
#: with numpy at once (2048) up to :data:`_SORTED_GROUPS` agents a group,
#: and most rows of a block it yields; larger batches cost fewer numpy calls
#: an event but hold more memory while they run.  A larger group's batch is
#: one block.
_BATCH_EVENTS = 8 * BLOCK_EVENTS
#: Largest group size whose urn thresholds :class:`EventBlocks` computes:
#: that costs ``G**2 / 2`` numpy steps an event, where running the urn in
#: the event loop costs ``G`` Python steps; the two cost about the same at G = 25 to 31.
_SORTED_GROUPS = 25


class FrozenSystemError(RuntimeError):
    """Every propensity is zero; no further event can occur."""


class SimConfig(_Record):
    """Rates and stopping bounds for a simulation run.

    ``noise_rate`` is the per-agent flip rate; a macroscopic noise
    level ``epsilon`` corresponds to ``noise_rate = epsilon / 2``
    (see :meth:`from_noise_level`).  At least one stopping condition
    (``max_events``, ``t_max`` or ``stop_at_consensus``) must be set.
    The clock is a double, so without ``t_max`` a run ends before an
    event that would happen after the largest finite one.
    """

    rule_rate: float = 0.5
    noise_rate: float = 0.0
    max_events: int | None = None
    t_max: float | None = None
    record_null_draws: bool = True
    stop_at_consensus: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.rule_rate < math.inf:
            raise ValueError(f"rule rate must be finite and >= 0, got {self.rule_rate}")
        if not 0 <= self.noise_rate < math.inf:
            raise ValueError(f"noise rate must be finite and >= 0, got {self.noise_rate}")
        if self.max_events is not None and self.max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {self.max_events}")
        if self.t_max is not None and not 0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be finite and > 0, got {self.t_max}")
        if self.max_events is None and self.t_max is None and not self.stop_at_consensus:
            raise ValueError(
                "unbounded run: set max_events, t_max or stop_at_consensus"
            )

    @classmethod
    def from_noise_level(cls, epsilon: float, **kwargs) -> "SimConfig":
        """Config whose per-agent flip rate realizes noise level ``epsilon``."""
        return cls(noise_rate=epsilon / 2.0, **kwargs)


class Trajectory(_Record):
    """Recorded events of one simulation run, stored as columns.

    Recorded event ``i`` happened at ``times[i]``, has kind code
    ``kinds[i]`` (an index into :data:`EVENT_LABELS`), group composition
    ``ks[i]`` (0 for noise flips) and leaves ``counts[i]`` agents holding
    X1.  The columns are :class:`array.array` objects: doubles for the
    times, unsigned integers just wide enough for the rest.
    ``n_events`` counts every event including null draws that were not
    recorded; ``final_time``/``final_state`` describe the run's end
    even when the tail of the record is elided.
    """

    initial_state: SwarmState
    times: array
    kinds: array
    ks: array
    counts: array
    final_state: SwarmState
    final_time: float
    n_events: int

    def event_counts(self) -> dict[str, int]:
        """Events per kind label, elided null draws included."""
        recorded = [self.kinds.count(code) for code in range(len(EVENT_LABELS))]
        return _label_counts(recorded, self.n_events)


def _pick_drawer(rng: np.random.Generator, bounds: np.ndarray) -> Callable[[np.ndarray], None]:
    """A function that fills a ``(BLOCK_EVENTS, G)`` block with the picks
    ``rng.integers(bounds, size=(BLOCK_EVENTS, G))`` draws, from the same
    random words, so that the generator goes on from where it would.

    For a bound ``b`` in ``[2, 2**32)`` numpy draws a pick by Lemire's
    method on a 32-bit half word: ``(u * b) >> 32``, unless the low 32
    bits of ``u * b`` fall below ``(2**32 - b) % b``, when it rejects ``u``
    and draws again.  Half words come low half first from 64-bit words,
    so an even number of picks takes whole words, done here in one go.  A
    block with a rejection is drawn again by ``rng.integers`` after the
    generator is wound back, as are all blocks of other bounds, those
    drawn while a half word is left over, and all blocks on a big-endian
    host, where viewing a word as two half words puts its high half first.
    """
    import numpy as np

    bit_generator = rng.bit_generator
    wide = np.tile(bounds.astype(np.uint64), BLOCK_EVENTS)
    cutoffs = ((2**32 - wide) % wide).astype(np.uint32)
    words = wide.size // 2
    lemire = bounds.size > 0 and 2 <= bounds.min() and bounds.max() < 2**32 and sys.byteorder == "little"
    fast = lemire

    def draw(out: np.ndarray) -> None:
        nonlocal fast
        if fast:
            scaled = bit_generator.random_raw(words).view(np.uint32) * wide
            if not (scaled.astype(np.uint32) < cutoffs).any():
                np.right_shift(scaled, 32, out=out.reshape(-1).view(np.uint64))
                return
            bit_generator.advance(-words)
        out[...] = rng.integers(bounds, size=out.shape)
        fast = lemire and not bit_generator.state["has_uint32"]

    return draw


def _urn_thresholds(picks: np.ndarray) -> np.ndarray:
    """Sorted urn thresholds of each group event whose G picks are a row of
    ``picks`` (pick ``j`` in ``[0, N - j)``), one row per event.

    Pick ``j`` takes the agent at index ``picks[j]`` among the ``N - j`` left,
    kept in order with the X1 holders first.  Pulled back through the
    earlier picks (row ``i`` is still ``p_i + 1`` when it is used), it is
    agent ``y - 1`` of all ``N``, so at count ``K`` the event draws as many
    X1 agents as it has thresholds ``y <= K``, exactly as the sequential urn.
    """
    y = picks.T.copy()
    y += 1
    for i in range(len(y) - 2, -1, -1):
        y[i + 1 :] += y[i + 1 :] >= y[i]
    thresholds = y.T.copy()
    thresholds.sort()
    return thresholds


def _urn_count(picks: Sequence[int], count: int) -> int:
    """X1 agents the sequential urn draws with ``picks`` (pick ``j`` in
    ``[0, N - j)``) at count ``count``: the agents left are kept in order
    with the X1 holders first."""
    favorable = count
    for pick in picks:
        if pick < favorable:
            favorable -= 1
    return count - favorable


def _int_column(largest: int) -> array:
    """Empty unsigned column just wide enough for values up to ``largest``."""
    return next((array(c) for c in "BHI" if largest < 256 ** array(c).itemsize), array("Q"))


def _columns(n_agents: int) -> tuple[array, array, array, array]:
    """Empty ``(times, kinds, ks, counts)`` columns of a run of ``N`` agents."""
    return array("d"), array("B"), _int_column(n_agents), _int_column(n_agents)


def _label_counts(recorded: Sequence[int], n_events: int) -> dict[str, int]:
    """Events per kind label from the recorded events per kind code; the
    events missing from the record are elided null draws."""
    counts = dict(zip(EVENT_LABELS, recorded))
    counts["null"] += n_events - sum(recorded)
    return counts


class EventBlocks:
    """The recorded events of one run, as blocks of columns.

    Iterating runs the simulation from ``initial`` until a stopping
    bound of ``config`` hits, and yields ``(times, kinds, ks, counts)``
    blocks of :class:`array.array` columns, laid out as in
    :class:`Trajectory`: one block per batch of up to
    :data:`_BATCH_EVENTS` events (:data:`BLOCK_EVENTS` above
    :data:`_SORTED_GROUPS` agents a group) that recorded any.  ``final_state``,
    ``final_time``, ``n_events`` and :meth:`event_counts` describe the run
    up to the last block yielded, and its end once the iteration is
    exhausted.  Iterating again replays the same run.

    ``seed`` seeds the numpy generator made when the iteration starts, so
    that importing numpy waits for the first event.  The configuration is
    checked here, before any event:
    ValueError for an impossible or overflowing one,
    :class:`FrozenSystemError` when every propensity is zero.  A run that
    stops before its first event (``stop_at_consensus`` from a consensus)
    draws nothing and checks nothing.
    """

    def __init__(
        self,
        initial: SwarmState,
        rules: RuleSet | None,
        config: SimConfig,
        seed: int,
    ) -> None:
        n = initial.n_agents
        if n > MAX_AGENTS:
            raise ValueError(f"swarm size must be <= {MAX_AGENTS} to simulate, got {n}")
        self.initial, self.rules, self.config, self.seed = initial, rules, config, seed
        self.final_state, self.final_time, self.n_events = initial, 0.0, 0
        self._recorded = [0] * len(EVENT_LABELS)
        self._stops = (0, n) if config.stop_at_consensus else ()
        if initial.count_x1 in self._stops:
            return
        group_size = rules.group_size if rules is not None else 0
        if group_size > n:
            raise ValueError(f"group size {group_size} exceeds swarm size {n}")
        self._a_group = config.rule_rate * n
        if self._a_group > 0 and rules is None:
            raise ValueError("rule_rate > 0 requires a rule set")
        # The X1 -> X2 threshold a_group + noise*K is this very expression at
        # K = N, so u = uniform*total < total never picks X2 -> X1 at K = N.
        self._total = check_event_rate(self._a_group + config.noise_rate * n, n)
        if self._total <= 0:
            raise FrozenSystemError("all propensities are zero; the system is frozen")

    def event_counts(self) -> dict[str, int]:
        """Events per kind label so far, elided null draws included."""
        return _label_counts(self._recorded, self.n_events)

    def __iter__(self) -> Iterator[tuple[array, array, array, array]]:
        n = self.initial.n_agents
        count = self.initial.count_x1
        config, stops = self.config, self._stops
        max_events = config.max_events if config.max_events is not None else math.inf
        t_max = config.t_max if config.t_max is not None else sys.float_info.max
        t = 0.0
        n_events = 0
        self._recorded = [0] * len(EVENT_LABELS)
        running = count not in stops
        if running:
            import numpy as np

            rng = np.random.default_rng(self.seed)
            rules, a_group, total = self.rules, self._a_group, self._total
            group_size = rules.group_size if rules is not None else 0
            draw_picks = _pick_drawer(rng, np.arange(n, n - group_size, -1))
            # An event's code is its composition k, or one of the two noise
            # codes after k = 0..G; the tables give its step, kind and k.
            weights = rules.signed_weights if rules is not None else (0,)
            down, up = len(weights), len(weights) + 1
            step = np.array([*weights, -1, 1])
            kind_of = np.array([RULE if w else NULL for w in weights] + [NOISE12, NOISE21])
            k_of = np.array([*range(len(weights)), 0, 0])
            noise = config.noise_rate
            sort = group_size <= _SORTED_GROUPS
            drawn = bisect_right if sort else _urn_count
            # The urn's picks fill G words an event, so a large group draws
            # a batch of one block: its picks are most of what the run holds.
            batch = _BATCH_EVENTS if sort else BLOCK_EVENTS
            # Draws of one batch, refilled by each: clock[0] is the time
            # before it, then the waits.  Made once, their pages are touched once.
            clock, us = np.empty(batch + 1), np.empty(batch)
            picks = np.empty((batch, group_size), dtype=np.int64)
        while running:
            for lo in range(0, batch, BLOCK_EVENTS):
                block = slice(lo, lo + BLOCK_EVENTS)
                rng.standard_exponential(out=clock[1:][block])
                rng.random(out=us[block])
                draw_picks(picks[block])
            clock[0] = t
            # Accumulating is sequential, so the clock is t += wait, event by
            # event; an infinite wait (or sum) passes t_max.
            with np.errstate(over="ignore"):
                clock[1:] /= total
                np.add.accumulate(clock, out=clock)
            us *= total
            # Each event's G sorted thresholds as one tuple; the G picks of a
            # large group as a slice of the batch's, read only by a group event.
            if sort:
                flat = _urn_thresholds(picks).ravel().tolist()
                groups = zip(*[iter(flat)] * group_size) if group_size else itertools.repeat(())
            else:
                flat = memoryview(picks.ravel())
                groups = (flat[lo : lo + group_size] for lo in itertools.count(0, group_size))
            # Events before the clock passes t_max or max_events is reached.
            stop = min(int(clock.searchsorted(t_max, "right")) - 1, max_events - n_events)
            # Codes below 256 go to a bytearray, which appends faster than an array.
            record, start = bytearray() if up < 256 else _int_column(up), count
            add_code = record.append
            for u, group in zip(us[:stop].tolist(), groups):
                if u < a_group:
                    k = drawn(group, count)
                    count += weights[k]
                    add_code(k)
                elif u < a_group + noise * count:
                    count -= 1
                    add_code(down)
                else:
                    count += 1
                    add_code(up)
            codes = np.asarray(memoryview(record))
            path = np.concatenate(([start], step[codes])).cumsum()
            if stops:  # the run ends at its first consensus, not at the batch's end
                ended = np.flatnonzero((path == 0) | (path == n))
                path = path[: ended[0] + 1] if len(ended) else path
            done = len(path) - 1
            count = int(path[-1])
            n_events += done
            t = float(clock[done])
            running = done == batch and n_events < max_events and count not in stops
            self.final_state, self.final_time, self.n_events = SwarmState(n, count), t, n_events
            codes = codes[:done]
            rows = [clock[1 : done + 1], kind_of[codes], k_of[codes], path[1:]]
            if not config.record_null_draws:
                rows = [row[rows[1] != NULL] for row in rows]
            tally = np.bincount(rows[1], minlength=len(EVENT_LABELS)).tolist()
            self._recorded = [a + b for a, b in zip(self._recorded, tally)]
            if len(rows[0]):
                columns = _columns(n)
                for column, row in zip(columns, rows):
                    column.frombytes(row.astype(column.typecode).tobytes())
                yield columns

    @contextlib.contextmanager
    def _forked(self) -> Iterator[Iterator[str]]:
        """Iterate in a forked process, and yield an iterator of the run's CSV
        lines (:func:`swarmdec.csvrows.csv_blocks`), each block formatted
        here as it arrives; once they are read, this object holds the run's
        end.  The iterator raises OSError with the text of the run's error,
        or if the process dies."""
        import pickle
        import signal

        # Before the fork, so that numpy is imported once and the child inherits it.
        from .csvrows import csv_blocks

        sys.stdout.flush()
        sys.stderr.flush()
        parent = os.getpid()
        source_fd, sink_fd = os.pipe()
        sigint = {signal.SIGINT}
        # Blocked across the fork and for the child's whole life: Ctrl-C is the
        # parent's to handle, and no KeyboardInterrupt can surface in the child.
        signal.pthread_sigmask(signal.SIG_BLOCK, sigint)
        try:
            pid = os.fork()
        except BaseException:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, sigint)
            os.close(source_fd)
            os.close(sink_fd)
            raise
        if pid == 0:  # the simulation; it leaves this branch only by os._exit
            try:
                # SIGTERM ends this process, whatever handler the parent has.
                signal.signal(signal.SIGTERM, signal.SIG_DFL)
                # A run that records no rows sends no block to meet a closed pipe
                # with, so on Linux the process is killed when the parent dies
                # (PR_SET_PDEATHSIG), by whatever signal; and ends if it already has.
                if sys.platform == "linux":
                    import ctypes

                    ctypes.CDLL(None).prctl(1, signal.SIGKILL)
                if os.getppid() != parent:
                    os._exit(0)
                os.close(source_fd)
                with os.fdopen(sink_fd, "wb") as sink:
                    try:
                        for block in self:
                            pickle.dump(block, sink)
                        end = vars(self)
                    except Exception as exc:  # its text is the parent's to report
                        end = f"simulation process failed: {exc!r}"
                    pickle.dump(end, sink)
            finally:
                os._exit(0)
        os.close(sink_fd)
        source = os.fdopen(source_fd, "rb")

        def blocks() -> Iterator[tuple]:
            while isinstance(item := pickle.load(source), tuple):
                yield item
            if isinstance(item, str):
                raise OSError(item)
            vars(self).update(item)

        try:
            try:
                signal.pthread_sigmask(signal.SIG_UNBLOCK, sigint)
                yield csv_blocks(blocks(), self.initial.n_agents)
            finally:
                source.close()
                # Not left to meet the closed pipe: a run that records no rows
                # sends no block, and may draw on for as long as max_events allows.
                # A process that has sent its end, or died, keeps its status.
                os.kill(pid, signal.SIGKILL)
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        except (EOFError, pickle.UnpicklingError):  # the pipe ended before the run did
            how = f"killed by signal {-status}" if status < 0 else f"exited with status {status}"
            raise OSError(f"simulation process {how}") from None


def simulate(
    initial: SwarmState,
    rules: RuleSet | None,
    config: SimConfig,
    seed: int,
) -> Trajectory:
    """Run the simulation from ``initial`` until a stopping bound hits.

    The run is reproducible: identical inputs and seed give an
    identical trajectory, and a same-seed run with a smaller bound is a
    prefix of it.  Null draws still advance time and count toward
    ``max_events`` when ``record_null_draws`` is off; they are merely
    dropped from the record.  The record is the :class:`EventBlocks` of
    the run, joined.
    """
    blocks = EventBlocks(initial, rules, config, seed)
    columns = _columns(initial.n_agents)
    for block in blocks:
        for column, part in zip(columns, block):
            column.extend(part)
    return Trajectory(
        initial, *columns, blocks.final_state, blocks.final_time, blocks.n_events
    )


def trajectory_csv_lines(
    trajectory: Trajectory, provenance: str | None = None
) -> Iterator[str]:
    """Render a trajectory as CSV lines (no trailing newlines).

    Columns: ``time,event,k,count_x1,z`` with the event labels
    ``rule``/``noise12``/``noise21``/``null``; ``k`` is empty for noise
    events; floats carry 17 significant digits.
    """
    from .csvrows import csv_blocks

    if provenance is not None:
        yield provenance
    columns = (trajectory.times, trajectory.kinds, trajectory.ks, trajectory.counts)
    blocks = (
        [column[lo : lo + _BATCH_EVENTS] for column in columns]
        for lo in range(0, len(trajectory.times), _BATCH_EVENTS)
    )
    for text in csv_blocks(blocks, trajectory.initial_state.n_agents):
        yield from text.splitlines()
