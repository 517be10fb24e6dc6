import math
import sys
import tracemalloc
from array import array
from bisect import bisect_right
from fractions import Fraction
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import pytest

from swarmdec.model import RuleSet, SwarmState
from swarmdec.schema import parse_polarity_string
from swarmdec.ssa import (
    BLOCK_EVENTS,
    EVENT_LABELS,
    MAX_AGENTS,
    EventBlocks,
    NOISE12,
    NOISE21,
    NULL,
    RULE,
    FrozenSystemError,
    SimConfig,
    Trajectory,
    _BATCH_EVENTS,
    _SORTED_GROUPS,
    _pick_drawer,
    _urn_draws,
    _urn_thresholds,
    simulate,
    trajectory_csv_lines,
)
from swarmdec.csvrows import _DECADES, _TABLE_KEYS, CSV_HEADER, _TextTable, csv_blocks
from swarmdec.hypergeom import pmf_table

MMM = parse_polarity_string("MMM", 7)
MMm = parse_polarity_string("MMm", 7)
MMM_G5 = parse_polarity_string("MM", 5)


def _pick_bounds(n: int, group_size: int) -> np.ndarray:
    return np.arange(n, n - group_size, -1)


def _urn(picks: Sequence[int], favorable: int) -> int:
    """X1 agents among urn picks: ``picks[j]`` is uniform over the ``N - j``
    agents left, of which those below ``favorable`` hold X1 (integer
    comparison, so the count follows the hypergeometric law exactly).
    The reference for the urn that :class:`EventBlocks` runs inline."""
    hits = 0
    for pick in picks:
        if pick < favorable:
            hits += 1
            favorable -= 1
    return hits


def _replay(n, count, rules, config, seed, events):
    """``(time, kind, k, count)`` of the first ``events`` events of a run
    from ``count``, the stopping bounds of ``config`` aside: the blocks of
    draws redrawn from a same-seeded generator, one event at a time, each
    group event's k by :func:`_urn`.  The reference for EventBlocks."""
    rng = np.random.default_rng(seed)
    total = config.rule_rate * n + config.noise_rate * n  # as EventBlocks sums it
    group_size = rules.group_size
    t, rows = 0.0, []
    while len(rows) < events:
        dts = (rng.standard_exponential(BLOCK_EVENTS) / total).tolist()
        us = (rng.random(BLOCK_EVENTS) * total).tolist()
        picks = rng.integers(_pick_bounds(n, group_size), size=(BLOCK_EVENTS, group_size)).tolist()
        for dt, u, group in zip(dts, us, picks):
            t += dt
            if u < config.rule_rate * n:
                k = _urn(group, count)
                count += rules.signed_weight(k)
                kind = RULE if rules.signed_weight(k) else NULL
            elif u < config.rule_rate * n + config.noise_rate * count:
                k, kind = 0, NOISE12
                count -= 1
            else:
                k, kind = 0, NOISE21
                count += 1
            rows.append((t, kind, k, count))
    return rows[:events]


def replace(record, **changes):
    """A new record of the same class, with ``changes`` to its fields."""
    return type(record)(**{**vars(record), **changes})


def verify_trajectory(trajectory: Trajectory, rules: RuleSet | None) -> None:
    """Replay a trajectory record and raise ValueError on any inconsistency.

    Checks strictly increasing times and that every recorded count
    follows from the previous one under the recorded event kind.
    """
    count = trajectory.initial_state.count_x1
    n = trajectory.initial_state.n_agents
    last_time = 0.0
    rows = zip(trajectory.times, trajectory.kinds, trajectory.ks, trajectory.counts)
    for i, (time, kind, k, recorded) in enumerate(rows):
        if not time > last_time:
            raise ValueError(f"event {i}: time {time} does not increase")
        last_time = time
        if kind == RULE:
            if rules is None:
                raise ValueError("rule events in a trajectory without rules")
            count += rules.signed_weight(k)
        elif kind == NOISE12:
            count -= 1
        elif kind == NOISE21:
            count += 1
        elif kind != NULL:
            raise ValueError(f"event {i}: unknown kind code {kind}")
        if not 0 <= count <= n:
            raise ValueError(f"event {i}: count {count} leaves [0, {n}]")
        if count != recorded:
            raise ValueError(
                f"event {i}: recorded count {recorded}, replay gives {count}"
            )
    # Elided events are null draws, which never change the count, so the
    # final state must match the last recorded count unconditionally.
    if trajectory.counts and trajectory.counts[-1] != trajectory.final_state.count_x1:
        raise ValueError("final state disagrees with the last recorded event")


def one_event(state, rules, config, seed):
    """``(dt, kind, k, new_state)`` of the first event of a run from ``state``,
    the stopping bounds of ``config`` aside."""
    config = replace(
        config, max_events=1, t_max=None, record_null_draws=True, stop_at_consensus=False
    )
    ((times, kinds, ks, counts),) = EventBlocks(state, rules, config, seed)
    return times[0], kinds[0], ks[0], SwarmState(state.n_agents, counts[0])


class TestSimConfig:
    def test_defaults(self):
        config = SimConfig(max_events=10)
        assert config.rule_rate == 0.5
        assert config.noise_rate == 0.0
        assert config.record_null_draws

    def test_from_noise_level(self):
        config = SimConfig.from_noise_level(0.1, max_events=10)
        assert config.noise_rate == 0.05

    def test_zero_rule_rate_allowed(self):
        SimConfig(rule_rate=0.0, noise_rate=0.1, max_events=1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rule_rate": -0.5, "max_events": 1},
            {"noise_rate": -0.1, "max_events": 1},
            {"max_events": 0},
            {"t_max": 0.0},
            {},  # unbounded
            {"rule_rate": math.nan, "max_events": 1},
            {"rule_rate": math.inf, "max_events": 1},
            {"noise_rate": math.nan, "max_events": 1},
            {"noise_rate": math.inf, "max_events": 1},
            {"t_max": math.inf},
            {"t_max": math.nan},
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    def test_stop_at_consensus_is_a_bound(self):
        SimConfig(stop_at_consensus=True)


class TestPropensities:
    # The total rate (r + c) * N sets each waiting time exactly: dt is the
    # first standard exponential of the run's first block divided by it.
    @staticmethod
    def first_event(state, rules, config, seed):
        dt, kind, _, _ = one_event(state, rules, config, seed)
        return dt, kind, np.random.default_rng(seed).standard_exponential(1)[0]

    def test_rule_only(self):
        config = SimConfig(rule_rate=0.5, max_events=1)
        dt, kind, e = self.first_event(SwarmState(101, 0), MMM, config, 1)
        assert dt == e / 50.5
        assert kind == NULL

    def test_noise_only(self):
        config = SimConfig(rule_rate=0.0, noise_rate=0.05, max_events=1)
        for seed in range(20):
            dt, kind, e = self.first_event(SwarmState(101, 101), None, config, seed)
            assert dt == e / (0.05 * 101)
            assert kind == NOISE12

    def test_total(self):
        config = SimConfig(rule_rate=0.5, noise_rate=0.01, max_events=1)
        dt, _, e = self.first_event(SwarmState(101, 40), MMM, config, 3)
        assert dt == e / (0.5 * 101 + 0.01 * 101)

    def test_overflowing_total_rate(self):
        config = SimConfig(rule_rate=1e308, max_events=1)
        with pytest.raises(ValueError, match="overflows"):
            simulate(SwarmState(101, 51), MMM, config, seed=0)

    def test_channel_frequencies_and_waiting_times(self):
        # From K = 40 of 101 with r = 0.5, c = 0.2, event i fires its channel
        # with probability r*N, c*K_i or c*(N-K_i) over the total (r+c)*N,
        # K_i being the count before it, and dt*(r+c)*N is a unit
        # exponential.  Summed over the run, each channel's count minus its
        # summed probabilities is a martingale of variance sum p_i(1-p_i).
        # Bounds are 5 standard errors.
        n, count, r, c = 101, 40, 0.5, 0.2
        draws = 20_000
        config = SimConfig(rule_rate=r, noise_rate=c, max_events=draws)
        run = simulate(SwarmState(n, count), MMM, config, seed=11)
        total = (r + c) * n
        before = [count, *run.counts[:-1]]
        for codes, rate in (
            ((RULE, NULL), lambda k: r * n),
            ((NOISE12,), lambda k: c * k),
            ((NOISE21,), lambda k: c * (n - k)),
        ):
            ps = [rate(k) / total for k in before]
            observed = sum(kind in codes for kind in run.kinds)
            assert abs(observed - math.fsum(ps)) <= 5 * math.sqrt(math.fsum(p * (1 - p) for p in ps))
        assert abs(run.final_time * total / draws - 1.0) <= 5 / math.sqrt(draws)


class TestDrawGroupComposition:
    # The urn of a group event, as _urn over picks drawn as EventBlocks
    # draws them; test_group_compositions_follow_the_urn ties the two.
    def test_bounds(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="exceeds swarm size"):
            one_event(SwarmState(5, 3), MMM, SimConfig(max_events=1), 0)
        assert _urn(rng.integers(_pick_bounds(7, 3)).tolist(), 0) == 0
        assert _urn(rng.integers(_pick_bounds(7, 3)).tolist(), 7) == 3

    def test_matches_hypergeometric_law(self):
        rng = np.random.default_rng(42)
        n, count, g = 11, 5, 3
        draws = 100_000
        counts = np.zeros(g + 1, dtype=int)
        for picks in rng.integers(_pick_bounds(n, g), size=(draws, g)).tolist():
            counts[_urn(picks, count)] += 1
        expected = pmf_table(n, count, g)
        for k in range(g + 1):
            assert abs(counts[k] / draws - expected[k]) < 0.01


class TestStep:
    # Single events and short runs of EventBlocks.
    def test_frozen_system(self):
        config = SimConfig(rule_rate=0.0, noise_rate=0.0, max_events=1)
        with pytest.raises(FrozenSystemError):
            one_event(SwarmState(101, 50), MMM, config, 0)

    def test_rules_required_when_rule_rate_positive(self):
        with pytest.raises(ValueError):
            one_event(SwarmState(101, 50), None, SimConfig(max_events=1), 0)

    def test_group_larger_than_swarm(self):
        with pytest.raises(ValueError):
            one_event(SwarmState(5, 2), MMM, SimConfig(max_events=1), 0)

    def test_consensus_without_noise_only_nulls(self):
        config = SimConfig(max_events=50)
        ((times, kinds, ks, counts),) = EventBlocks(SwarmState(101, 101), MMM, config, 3)
        assert set(zip(kinds, ks, counts)) == {(NULL, 7, 101)}
        assert len(times) == 50
        assert all(b > a for a, b in zip([0.0, *times], times))

    def test_noise_only_steps(self):
        config = SimConfig(rule_rate=0.0, noise_rate=0.2, max_events=1)
        dt, kind, k, new_state = one_event(SwarmState(101, 101), None, config, 4)
        assert kind == NOISE12
        assert new_state.count_x1 == 100

    def test_determinism(self):
        config = SimConfig(noise_rate=0.01, max_events=200)
        state = SwarmState(101, 51)
        runs = [list(EventBlocks(state, MMm, config, 123)) for _ in range(2)]
        assert runs[0] == runs[1]

    @pytest.mark.slow
    def test_group_composition_conditional_law(self):
        # The urn every group event runs: _urn over picks drawn as
        # EventBlocks draws them, at K = 51.  Conditioned on a rule firing --
        # an interior composition, since EventBlocks labels k = 0 and k = G
        # as null draws -- the composition must follow the hypergeometric
        # table renormalized over the interior compositions.
        n, g, count = 101, 7, 51
        rng = np.random.default_rng(2024)
        picks = rng.integers(_pick_bounds(n, g), size=(10**6, g))
        counts = [0] * (g + 1)
        for start in range(0, len(picks), 2**16):
            for row in picks[start:start + 2**16].tolist():
                counts[_urn(row, count)] += 1
        table = pmf_table(n, count, g)
        interior_mass = math.fsum(table.probabilities[1:g])
        fired = sum(counts[1:g])
        for k in range(1, g):
            observed = counts[k] / fired
            expected = table[k] / interior_mass
            assert abs(observed - expected) < 5e-3


class TestSimulate:
    def test_absorbing_consensus_stays(self):
        config = SimConfig(max_events=10_000)
        trajectory = simulate(SwarmState(101, 0), MMM, config, seed=0)
        assert trajectory.n_events == 10_000
        assert trajectory.final_state.count_x1 == 0
        assert set(trajectory.counts) == {0}
        assert trajectory.final_time > 0

    def test_elided_nulls_still_advance_time_and_count(self):
        config = SimConfig(max_events=500, record_null_draws=False)
        trajectory = simulate(SwarmState(101, 0), MMM, config, seed=0)
        assert len(trajectory.times) == len(trajectory.counts) == 0
        assert trajectory.n_events == 500
        assert trajectory.final_time > 0

    def test_determinism_bit_identical(self):
        config = SimConfig(noise_rate=0.02, max_events=2_000)
        first = simulate(SwarmState(101, 51), MMm, config, seed=99)
        second = simulate(SwarmState(101, 51), MMm, config, seed=99)
        assert first == second

    def test_different_seeds_differ(self):
        config = SimConfig(max_events=200)
        a = simulate(SwarmState(101, 51), MMM, config, seed=1)
        b = simulate(SwarmState(101, 51), MMM, config, seed=2)
        assert a.times != b.times

    def test_trajectory_invariants_and_replay(self):
        config = SimConfig(noise_rate=0.05, max_events=5_000)
        trajectory = simulate(SwarmState(101, 51), MMm, config, seed=7)
        times = trajectory.times
        assert all(b > a for a, b in zip(times, times[1:]))
        counts = [trajectory.initial_state.count_x1, *trajectory.counts]
        assert all(abs(b - a) <= 1 for a, b in zip(counts, counts[1:]))
        assert trajectory.final_state.n_agents == 101
        verify_trajectory(trajectory, MMm)

    def test_replay_detects_tampering(self):
        config = SimConfig(max_events=100)
        trajectory = simulate(SwarmState(101, 51), MMM, config, seed=7)
        counts = array("q", trajectory.counts)
        counts[10] = 100
        with pytest.raises(ValueError):
            verify_trajectory(replace(trajectory, counts=counts), MMM)

    def test_absorption_from_center(self):
        config = SimConfig(max_events=10**6, stop_at_consensus=True)
        trajectory = simulate(SwarmState(101, 51), MMM, config, seed=7)
        assert trajectory.final_state.count_x1 in (0, trajectory.final_state.n_agents)
        assert trajectory.n_events < 10**6
        assert abs(trajectory.final_state.z) == 1.0

    def test_stop_at_consensus_immediately(self):
        config = SimConfig(stop_at_consensus=True)
        trajectory = simulate(SwarmState(101, 101), MMM, config, seed=0)
        assert trajectory.n_events == 0
        assert len(trajectory.times) == 0

    def test_t_max_bound(self):
        config = SimConfig(noise_rate=0.01, t_max=2.0)
        trajectory = simulate(SwarmState(101, 51), MMM, config, seed=5)
        assert trajectory.final_time <= 2.0
        assert all(time <= 2.0 for time in trajectory.times)

    @pytest.mark.parametrize(
        "shorter",
        [
            {"max_events": 3_000}, {"max_events": 1}, {"t_max": 25.0}, {"t_max": 1e-3},
            {"max_events": _BATCH_EVENTS}, {"max_events": 3 * _BATCH_EVENTS},
            {"max_events": 3 * _BATCH_EVENTS + 1}, {"t_max": 55.0}, {"stop_at_consensus": True},
        ],
    )
    def test_shorter_run_is_exact_prefix(self, shorter):
        # Randomness is drawn in whole blocks, so where a run stops never
        # changes the events before it: at a batch edge, one past it, or
        # mid-batch (t_max 55 stops after event 3094 and consensus after
        # event 179 here).
        base = SimConfig(noise_rate=0.05, max_events=10_000)
        full = simulate(SwarmState(101, 51), MMm, base, seed=17)
        part = simulate(SwarmState(101, 51), MMm, replace(base, **shorter), seed=17)
        rows = len(part.times)
        assert rows < len(full.times)
        assert part.n_events == rows
        for column in ("times", "kinds", "ks", "counts"):
            assert getattr(part, column) == getattr(full, column)[:rows]
        assert part.final_time == (full.times[rows - 1] if rows else 0.0)

    def test_record_memory_per_event(self):
        # Columns take 8 bytes for the time plus 1 to 8 for each integer
        # field per event; per-event objects took about 160.
        config = SimConfig(noise_rate=0.05, max_events=200_000)
        tracemalloc.start()
        try:
            simulate(SwarmState(101, 51), MMm, config, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / config.max_events < 40

    def test_frozen_propagates(self):
        config = SimConfig(rule_rate=0.0, noise_rate=0.0, max_events=10)
        with pytest.raises(FrozenSystemError):
            simulate(SwarmState(101, 51), None, config, seed=0)

    def test_noise_only_mean_decays_exponentially(self):
        # E[z(t)] = z(0) * exp(-2 c t); at t = ln(2)/(2c) the mean halves.
        c = 0.1
        t_half = math.log(2.0) / (2.0 * c)
        config = SimConfig(rule_rate=0.0, noise_rate=c, t_max=t_half)
        initial = SwarmState(101, 91)
        replicates = 10_000
        finals = np.empty(replicates)
        for i in range(replicates):
            finals[i] = simulate(initial, None, config, seed=5000 + i).final_state.z
        mean = finals.mean()
        stderr = finals.std(ddof=1) / math.sqrt(replicates)
        assert abs(mean - initial.z / 2.0) <= 3.0 * stderr

    @pytest.mark.slow
    def test_all_minority_hovers_at_center(self):
        rules = parse_polarity_string("mmm", 7)
        config = SimConfig(max_events=10**6)
        trajectory = simulate(SwarmState(101, 51), rules, config, seed=11)
        t_prev, z_prev, acc = 0.0, trajectory.initial_state.z, 0.0
        for time, count in zip(trajectory.times, trajectory.counts):
            acc += z_prev * (time - t_prev)
            t_prev = time
            z_prev = 2.0 * count / 101 - 1.0
        time_average = acc / trajectory.final_time
        assert -0.15 <= time_average <= 0.15


class TestEventBlocks:
    @staticmethod
    def check_blocks(initial, rules, config, seed):
        """The blocks of a run: each holds the 1 to _BATCH_EVENTS records of
        one batch, and they join to simulate's Trajectory of the same run."""
        events = EventBlocks(initial, rules, config, seed)
        blocks = list(events)
        trajectory = simulate(initial, rules, config, seed=seed)
        assert all(1 <= len(times) <= _BATCH_EVENTS for times, *_ in blocks)
        for i, name in enumerate(("times", "kinds", "ks", "counts")):
            joined = blocks[0][i][:0]
            for block in blocks:
                joined.extend(block[i])
            assert joined == getattr(trajectory, name)
        assert (events.final_state, events.final_time, events.n_events) == (
            trajectory.final_state, trajectory.final_time, trajectory.n_events
        )
        assert events.event_counts() == trajectory.event_counts()
        return blocks

    def test_blocks_join_to_the_trajectory(self):
        config = SimConfig(noise_rate=0.05, max_events=3 * _BATCH_EVENTS + 100)
        blocks = self.check_blocks(SwarmState(101, 51), MMm, config, 17)
        assert [len(times) for times, *_ in blocks] == [_BATCH_EVENTS] * 3 + [100]

    def test_batches_of_elided_nulls_yield_no_block(self):
        # Next to X2 consensus with rare noise, most batches are null draws
        # only; with nulls elided, those yield nothing, not an empty block.
        batches = 20
        config = SimConfig(
            noise_rate=1e-4, max_events=batches * _BATCH_EVENTS, record_null_draws=False
        )
        blocks = self.check_blocks(SwarmState(101, 1), MMM, config, 5)
        assert 0 < len(blocks) < batches

    def test_second_iteration_replays_the_run(self):
        config = SimConfig(noise_rate=0.05, max_events=5000)
        events = EventBlocks(SwarmState(101, 51), MMm, config, 3)
        expected = simulate(SwarmState(101, 51), MMm, config, seed=3).event_counts()
        first = []
        for block in events:  # the counts so far match the events so far
            first.append(block)
            counts = events.event_counts()
            assert min(counts.values()) >= 0
            n_events = min(len(first) * _BATCH_EVENTS, config.max_events)
            assert sum(counts.values()) == events.n_events == n_events
        assert events.event_counts() == expected
        assert list(events) == first
        assert events.event_counts() == expected

    @staticmethod
    def check_follows_the_urn(rules):
        # Replay the run's draws event by event: every group event's k is
        # _urn of its own row of picks at the count before it, and every
        # time is the running sum of exponential / total.  The run spans
        # more than two batches.
        n, seed = 101, 31
        config = SimConfig(noise_rate=0.05, max_events=2 * _BATCH_EVENTS + 17)
        run = simulate(SwarmState(n, 51), rules, config, seed=seed)
        assert len(run.kinds) == config.max_events
        expected = _replay(n, 51, rules, config, seed, config.max_events)
        assert list(zip(run.times, run.kinds, run.ks, run.counts)) == expected
        groups = sum(kind in (RULE, NULL) for kind in run.kinds)
        assert groups > config.max_events // 2

    def test_group_compositions_follow_the_urn(self):
        self.check_follows_the_urn(MMm)

    def test_large_group_compositions_follow_the_urn(self):
        # Past _SORTED_GROUPS the event loop runs the urn itself.
        self.check_follows_the_urn(
            parse_polarity_string("M" * _SORTED_GROUPS, 2 * _SORTED_GROUPS + 1)
        )

    def test_elided_nulls_follow_the_urn(self):
        # As above with null draws elided, from near X2 consensus, where
        # most draws are null: the record is the replay without them.
        n, seed = 101, 37
        config = SimConfig(
            noise_rate=0.01, max_events=3 * _BATCH_EVENTS + 5, record_null_draws=False
        )
        run = simulate(SwarmState(n, 3), MMM, config, seed=seed)
        replay = _replay(n, 3, MMM, config, seed, config.max_events)
        expected = [row for row in replay if row[1] != NULL]
        assert 0 < len(expected) < len(replay) // 2
        assert list(zip(run.times, run.kinds, run.ks, run.counts)) == expected
        assert (run.n_events, run.final_time) == (config.max_events, replay[-1][0])
        assert run.event_counts()["null"] == len(replay) - len(expected)

    def test_configuration_checked_before_any_event(self):
        frozen = SimConfig(rule_rate=0.0, noise_rate=0.0, max_events=10)
        with pytest.raises(FrozenSystemError):
            EventBlocks(SwarmState(101, 51), None, frozen, 0)
        with pytest.raises(ValueError, match="overflows"):
            EventBlocks(SwarmState(101, 51), MMM, SimConfig(rule_rate=1e308, max_events=1), 0)
        with pytest.raises(ValueError, match="requires a rule set"):
            EventBlocks(SwarmState(101, 51), None, SimConfig(max_events=1), 0)


def observable(state: dict) -> dict:
    """A bit generator's state without the half word numpy keeps from the
    last word it split even when none is left over (``has_uint32 == 0``),
    and then never reads."""
    return {**state, "uinteger": state["uinteger"] if state["has_uint32"] else None}


class TestPickDrawer:
    @pytest.mark.parametrize(
        "n, g",
        [(101, g) for g in range(1, 26)]
        + [(1, 1), (7, 7), (2**31 + 1, 3), (2**32 - 1, 5), (2**32, 2), (2**32 + 9, 4), (MAX_AGENTS, 3)],
    )
    def test_picks_are_those_of_generator_integers(self, n, g):
        # Block by block, with other draws between blocks as in EventBlocks:
        # the same picks, and the generator left where rng.integers leaves it.
        # Near 2**31 Lemire's method rejects about half the words, and a
        # half word is often left over; G == N has a bound of 1.
        bounds = _pick_bounds(n, g)
        rng, reference = np.random.default_rng(n + g), np.random.default_rng(n + g)
        draw = _pick_drawer(rng, bounds)
        picks = np.empty((BLOCK_EVENTS, g), np.int64)
        left_over = set()
        for _ in range(12):
            draw(picks)
            assert picks.tolist() == reference.integers(bounds, size=(BLOCK_EVENTS, g)).tolist()
            state = reference.bit_generator.state
            assert observable(rng.bit_generator.state) == observable(state)
            left_over.add(state["has_uint32"])
            assert rng.random(3).tolist() == reference.random(3).tolist()
        if n == 2**31 + 1:
            assert left_over == {0, 1}

    def test_big_endian_host_draws_no_raw_words(self, monkeypatch):
        # The raw words' picks take each word's low half first, as only a
        # little-endian host lays it out; elsewhere rng.integers draws them all.
        monkeypatch.setattr(sys, "byteorder", "big")
        bounds = _pick_bounds(101, 7)
        rng, reference = np.random.default_rng(3), np.random.default_rng(3)
        raw_reads = []
        bit_generator = SimpleNamespace(random_raw=raw_reads.append)
        draw = _pick_drawer(SimpleNamespace(integers=rng.integers, bit_generator=bit_generator), bounds)
        picks = np.empty((BLOCK_EVENTS, 7), np.int64)
        for _ in range(3):
            draw(picks)
            assert picks.tolist() == reference.integers(bounds, size=picks.shape).tolist()
        assert raw_reads == []


class TestTrajectoryCsv:
    def test_format(self):
        config = SimConfig(noise_rate=0.05, max_events=200)
        trajectory = simulate(SwarmState(101, 51), MMM_G5, config, seed=13)
        lines = list(trajectory_csv_lines(trajectory, "# provenance"))
        assert lines[0] == "# provenance"
        assert lines[1] == "time,event,k,count_x1,z"
        # The provenance is passed on whole, whatever line breaks it holds.
        assert next(trajectory_csv_lines(trajectory, "# a\x1cb")) == "# a\x1cb"
        labels = set()
        for row in lines[2:]:
            time_s, label, k_s, count_s, z_s = row.split(",")
            labels.add(label)
            assert float(time_s) > 0
            if label in ("noise12", "noise21"):
                assert k_s == ""
            else:
                assert 0 <= int(k_s) <= 5
            assert 0 <= int(count_s) <= 101
            assert -1.0 <= float(z_s) <= 1.0
        assert "rule" in labels

    def test_rows_match_direct_formatting(self):
        n = 101
        config = SimConfig(noise_rate=0.1, max_events=20_000)
        trajectory = simulate(SwarmState(n, 51), MMm, config, seed=29)
        assert set(trajectory.kinds) == {RULE, NULL, NOISE12, NOISE21}
        rows = list(trajectory_csv_lines(trajectory))[1:]
        assert len(rows) == 20_000
        columns = zip(trajectory.times, trajectory.kinds, trajectory.ks, trajectory.counts)
        for row, (t, kind, k, count) in zip(rows, columns):
            label = EVENT_LABELS[kind]
            k_field = "" if label.startswith("noise") else str(k)
            z = 2.0 * count / n - 1.0
            assert row == f"{t:.17g},{label},{k_field},{count},{z:.17g}"

    def test_lines_are_formatted_a_block_at_a_time(self):
        # Reading the lines holds one block of _BATCH_EVENTS rows as text
        # (about 240 bytes per row of a block here), not the whole record:
        # these 80 blocks formatted as one took about 190 bytes per row of
        # the 80.
        config = SimConfig(noise_rate=0.1, max_events=10 * 8192)
        trajectory = simulate(SwarmState(101, 51), MMm, config, seed=29)
        tracemalloc.start()
        try:
            lines = sum(1 for _ in trajectory_csv_lines(trajectory))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert lines == config.max_events + 1
        assert peak < 300 * _BATCH_EVENTS

    def test_seventeen_significant_digits(self):
        config = SimConfig(max_events=5)
        trajectory = simulate(SwarmState(101, 51), MMM, config, seed=1)
        row = list(trajectory_csv_lines(trajectory))[1]
        time_s = row.split(",")[0]
        assert float(time_s) == trajectory.times[0]

    # Powers of ten and their neighbours, where the decade changes (some,
    # such as 1e-14 and 1e+98, are doubles just below the power, which
    # '%.17g' rounds up to it; none lies from 1e-4 to 1e16), the ends of the
    # range laid out without '%.17g' and past them, ties and trailing zeros.
    TIMES = [
        0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e-4, 9.9999999999999991e-5,
        1e16, 9999999999999998.0, 0.5, 1.25, 100.0, 123456789.0, 0.1 + 0.2, 2.0**-14,
        562949953421312.125, 562949953421312.375, 0.30000000000000004,
        *(
            t
            for e in range(-320, 309)
            for power in [float(f"1e{e}")]
            for t in (power, math.nextafter(power, 0.0), math.nextafter(power, math.inf))
        ),
    ]

    @staticmethod
    def time_fields(times):
        n = len(times)
        block = (array("d", times), array("B", [NULL] * n), array("B", [0] * n), array("B", [1] * n))
        _, text = csv_blocks([block], 3)
        return [row.split(",")[0] for row in text.split("\n")]

    def test_decades_start_at_their_powers_of_ten(self):
        # The writer finds each time's decade among these doubles.
        for e, start in zip(range(-4, 17), _DECADES.tolist()):
            assert Fraction(math.nextafter(start, 0.0)) < Fraction(10) ** e <= Fraction(start)

    def test_times_are_written_as_by_percent_17g(self):
        expected = ["%.17g" % t for t in self.TIMES]
        assert self.time_fields(self.TIMES) == expected
        # Each alone too, so that each decade is also laid out on its own.
        assert [self.time_fields([t])[0] for t in self.TIMES] == expected

    def test_text_table_formats_each_key_once(self):
        # Each lookup formats only the keys it adds on either side, however
        # wide their text, until the range would pass _TABLE_KEYS keys.
        calls = []
        table = _TextTable(lambda key: calls.append(key) or "x" * (key % 7))

        def lookup(keys):
            rows = table(np.array(keys))
            assert [bytes(row).rstrip(b"\0") for row in rows] == [b"x" * (key % 7) for key in keys]

        for lo in (0, 50, 100):
            lookup(range(lo, lo + 100))
        assert calls == list(range(200))
        lookup([199, 0, 120])
        assert len(calls) == 200
        lookup([100 + _TABLE_KEYS])  # more than _TABLE_KEYS keys from 0: over again
        lookup([101, 100 + _TABLE_KEYS])
        assert calls[200:] == [100 + _TABLE_KEYS, *range(101, 100 + _TABLE_KEYS)]

    @pytest.mark.parametrize("n", [101, 10**9 + 1])
    def test_rows_do_not_depend_on_how_the_run_is_cut_into_blocks(self, n):
        rng, row = np.random.default_rng(n), np.arange(_BATCH_EVENTS)
        times = np.cumsum(rng.standard_exponential(_BATCH_EVENTS)).tolist()
        kinds = rng.integers(0, 4, _BATCH_EVENTS).tolist()
        ks = [0 if kind in (NOISE12, NOISE21) else k for kind, k in zip(kinds, row % 8)]
        if n == 101:
            counts = rng.integers(0, n + 1, _BATCH_EVENTS).tolist()
        else:  # small steps either way, and jumps up, then down, past what a table holds
            steps = np.where(row % 100 == 99, 3 * _TABLE_KEYS, rng.integers(-3, 4, _BATCH_EVENTS))
            counts = (n // 2 + np.cumsum(steps * (-1) ** (row // 300))).tolist()
        columns = (array("d", times), array("B", kinds), array("q", ks), array("q", counts))
        rows = []
        for t, kind, k, count in zip(*columns):
            k_field = "" if kind in (NOISE12, NOISE21) else k
            rows.append(f"{t:.17g},{EVENT_LABELS[kind]},{k_field},{count},{2.0 * count / n - 1.0:.17g}")
        for cuts in ([*range(_BATCH_EVENTS + 1)], [0, 1023, 1024], [0, 1024]):
            blocks = [[column[lo:hi] for column in columns] for lo, hi in zip(cuts, cuts[1:])]
            header, *texts = csv_blocks(blocks, n)
            assert header == CSV_HEADER
            assert len(texts) == len(blocks)
            assert "\n".join(texts) == "\n".join(rows)

    def test_event_labels(self):
        assert EVENT_LABELS[RULE] == "rule"
        assert EVENT_LABELS[NULL] == "null"
        assert EVENT_LABELS[NOISE12] == "noise12"
        assert EVENT_LABELS[NOISE21] == "noise21"


try:
    from hypothesis import assume, example, given, settings, strategies as st
except ImportError:  # hypothesis comes with the test extra
    st = None

if st is not None:
    FUZZ_AGENTS = 11
    # All-majority and all-minority rules of every group size up to N + 2.
    FUZZ_RULES = [
        None, *(parse_polarity_string(p * (g // 2), g) for g in range(3, 15, 2) for p in "Mm")
    ]
    # Any float, often a plain rate, and rates whose waiting times overflow
    # a double or whose total barely fits one.
    FUZZ_RATES = (
        st.floats()
        | st.floats(0.0, 10.0)
        | st.sampled_from([0.0, 5e-324, 1e-310, 1e-306, 1e300, 1.6e307])
    )

    @settings(max_examples=300, deadline=None)
    # Found by this test: waiting times that overflow a double were recorded.
    @example(
        rule_rate=0.0, noise_rate=5e-324, max_events=2, t_max=None, record_nulls=False,
        stop_at_consensus=False, count=0, rules=None, seed=0,
    )
    @given(
        rule_rate=FUZZ_RATES,
        noise_rate=FUZZ_RATES,
        max_events=st.none() | st.integers(-1, 1000),
        t_max=st.none() | st.floats() | st.floats(0.0, 100.0),
        record_nulls=st.booleans(),
        stop_at_consensus=st.booleans(),
        count=st.integers(-1, FUZZ_AGENTS + 1),
        rules=st.sampled_from(FUZZ_RULES),
        seed=st.integers(0, 2**32),
    )
    def test_construction_raises_or_runs_a_valid_record(
        rule_rate, noise_rate, max_events, t_max, record_nulls, stop_at_consensus,
        count, rules, seed,
    ):
        # Any rates (negative, NaN, infinite, huge, subnormal), bounds and
        # start in an N = 11 swarm: construction raises ValueError or
        # FrozenSystemError, or the run yields a record that replays.
        try:
            config = SimConfig(
                rule_rate=rule_rate,
                noise_rate=noise_rate,
                max_events=max_events,
                t_max=t_max,
                record_null_draws=record_nulls,
                stop_at_consensus=stop_at_consensus,
            )
            initial = SwarmState(FUZZ_AGENTS, count)
            EventBlocks(initial, rules, config, seed)
        except (ValueError, FrozenSystemError):
            return
        # Only a run that max_events or a short t_max bounds surely ends soon.
        total = (rule_rate + noise_rate) * FUZZ_AGENTS
        assume(max_events is not None or (t_max is not None and t_max * total <= 10**4))
        trajectory = simulate(initial, rules, config, seed)
        verify_trajectory(trajectory, rules)
        assert trajectory.n_events <= (max_events or math.inf)
        assert trajectory.final_time <= (t_max or math.inf)
        assert math.isfinite(trajectory.final_time)

    @settings(max_examples=300, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, allow_infinity=False)
            | st.floats(1e-4, 1e16)
            | st.integers(1, 10**4).map(lambda i: i / 64),
            min_size=1,
            max_size=40,
        )
    )
    def test_times_written_as_by_percent_17g(times):
        assert TestTrajectoryCsv.time_fields(times) == ["%.17g" % t for t in times]

    @settings(max_examples=300, deadline=None)
    @given(
        n_agents=st.integers(1, 40) | st.integers(1, MAX_AGENTS) | st.just(MAX_AGENTS),
        group_size=st.integers(1, 15),
        events=st.integers(1, 4),
        data=st.data(),
    )
    def test_thresholds_follow_the_urn(n_agents, group_size, events, data):
        # The k of a group event at count K, as EventBlocks finds it among
        # its thresholds or with _urn_draws, is _urn of its picks at K, for
        # every K.  Each is a step function of K that steps only at a
        # threshold, so past 40 agents the Ks on either side of each
        # threshold cover every step.
        assume(group_size <= n_agents)
        picks = [
            [data.draw(st.integers(0, n_agents - 1 - j)) for j in range(group_size)]
            for _ in range(events)
        ]
        thresholds = _urn_thresholds(np.array(picks, dtype=np.int64)).tolist()
        for event_picks, event_thresholds in zip(picks, thresholds):
            assert all(1 <= y <= n_agents for y in event_thresholds)
            if n_agents <= 40:
                counts = range(n_agents + 1)
            else:
                counts = {0, n_agents, data.draw(st.integers(0, n_agents))}
                counts.update(y - d for y in event_thresholds for d in (0, 1))
            for count in counts:
                assert bisect_right(event_thresholds, count) == _urn(event_picks, count)
                drawn = _urn_draws(np.array([event_picks]), np.array([count]))
                assert drawn.tolist() == [_urn(event_picks, count)]
