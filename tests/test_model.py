import math
import random
import re
from array import array

import pytest

from swarmdec.drift import FixedPoint, Stability
from swarmdec.model import (
    MAX_SWARM_SIZE,
    NoiseSpec,
    RulePolarity,
    RuleSet,
    SwarmState,
    cell_boundary,
    iter_rulesets,
    lattice_z,
    signed_weight,
    state_of_z,
)
from swarmdec.ssa import SimConfig, Trajectory

M = RulePolarity.MAJORITY
m = RulePolarity.MINORITY


class TestSwarmState:
    def test_valid(self):
        state = SwarmState(101, 51)
        assert (state.n_agents, state.count_x1) == (101, 51)
        assert state.count_x1 not in (0, state.n_agents)
        assert SwarmState(101, 0).count_x1 in (0, 101)
        assert SwarmState(101, 101).count_x1 in (0, 101)

    @pytest.mark.parametrize("n, k", [(100, 50), (0, 0), (-3, 0), (101, -1), (101, 102)])
    def test_invalid(self, n, k):
        with pytest.raises(ValueError):
            SwarmState(n, k)

    def test_largest_swarm(self):
        # 2N stays a finite double, so both ends of the lattice map exactly.
        assert MAX_SWARM_SIZE == 2**1022 - 1
        assert SwarmState(MAX_SWARM_SIZE, MAX_SWARM_SIZE).z == 1.0
        assert state_of_z(MAX_SWARM_SIZE, 1.0).count_x1 == MAX_SWARM_SIZE
        assert state_of_z(MAX_SWARM_SIZE, -1.0).count_x1 == 0

    @pytest.mark.parametrize("n", [MAX_SWARM_SIZE + 2, 2**1023 + 1, 10**400 + 1])
    def test_swarm_above_the_cap(self, n):
        # Above the cap the lattice arithmetic overflowed (OverflowError).
        with pytest.raises(ValueError, match="at most 2\\*\\*1022 - 1"):
            SwarmState(n, 0)
        with pytest.raises(ValueError, match="at most 2\\*\\*1022 - 1"):
            state_of_z(n, 1.0)


class TestZMapping:
    def test_z_of_extrema(self):
        assert SwarmState(101, 101).z == 1.0
        assert SwarmState(101, 0).z == -1.0

    def test_z_of_center(self):
        assert SwarmState(101, 51).z == 2 * 51 / 101 - 1

    def test_state_of_z_extrema(self):
        assert state_of_z(101, 1.0).count_x1 == 101
        assert state_of_z(101, -1.0).count_x1 == 0

    def test_state_of_z_rounds_half_away_from_zero(self):
        # N*(z+1)/2 = 50.5 at z = 0 must round up to 51.
        assert state_of_z(101, 0.0).count_x1 == 51
        assert state_of_z(5, 0.0).count_x1 == 3

    @pytest.mark.parametrize("z", [1.5, -1.0000001, 2.0])
    def test_state_of_z_domain(self, z):
        with pytest.raises(ValueError):
            state_of_z(101, z)

    def test_round_trip_on_lattice(self):
        for count in range(102):
            state = SwarmState(101, count)
            assert state_of_z(101, state.z) == state


class TestCellBoundary:
    @staticmethod
    def counts(n: int) -> list[int]:
        """Every K up to N = 101, else the ends, the centre and 20 000 sampled K."""
        if n <= 101:
            return list(range(n))
        rng = random.Random(n)
        return [0, n // 2, n - 1] + [rng.randrange(n) for _ in range(20_000)]

    @pytest.mark.parametrize("n", [3, 101, 2**53 + 1, 2**1022 - 1])
    def test_mirror_states_give_negated_boundaries(self, n):
        for k in self.counts(n):
            b = cell_boundary(k, n)
            if 2 * k + 1 == n:  # the centre is its own mirror
                assert b == 0.0 and math.copysign(1.0, b) == 1.0
            else:
                assert cell_boundary(n - 1 - k, n).hex() == (-b).hex(), k

    @pytest.mark.parametrize("n", [3, 101, 1001, 100_001])
    def test_boundary_lies_between_its_two_states(self, n):
        # Not above 2**53: there lattice_z's two roundings break this order.
        for k in range(n):
            b = cell_boundary(k, n)
            assert lattice_z(k, n) <= b <= lattice_z(k + 1, n), k


class TestSignedWeight:
    @pytest.mark.parametrize(
        "k, g, polarity, expected",
        [
            (5, 7, M, 1),   # X1 majority, majority rule converts one X2
            (2, 7, M, -1),  # X2 majority, one X1 converts
            (2, 7, m, 1),   # minority rule is the sign flip
            (0, 7, M, 0),   # uniform group: nobody to convert
            (7, 7, M, 0),
            (7, 7, m, 0),
        ],
    )
    def test_examples(self, k, g, polarity, expected):
        assert signed_weight(k, g, polarity) == expected

    @pytest.mark.parametrize("k", [-1, 8])
    def test_domain(self, k):
        with pytest.raises(ValueError):
            signed_weight(k, 7, M)

    @pytest.mark.parametrize("g", [3, 5, 7, 9])
    def test_mirror_antisymmetry(self, g):
        for polarity in (M, m):
            for k in range(1, g):
                assert signed_weight(k, g, polarity) == -signed_weight(
                    g - k, g, polarity
                )

    @pytest.mark.parametrize("g", [3, 5, 7, 9])
    def test_polarity_flip(self, g):
        for k in range(1, g):
            assert signed_weight(k, g, M) == -signed_weight(k, g, m)

    @pytest.mark.parametrize("g", [3, 5, 7, 9])
    def test_unit_step(self, g):
        for polarity in (M, m):
            for k in range(g + 1):
                assert abs(signed_weight(k, g, polarity)) <= 1


class TestRuleSet:
    def test_label_and_mirror_lookup(self):
        # Compositions k and G - k share the polarity of their minority count.
        rules = RuleSet(7, (M, M, m))
        assert rules.label == "MMm"
        for k in range(1, 7):
            slot = rules.polarities[min(k, 7 - k) - 1]
            assert rules.signed_weights[k] == signed_weight(k, 7, slot)
            assert rules.signed_weights[k] == -rules.signed_weights[7 - k]

    def test_signed_weight_delegates(self):
        rules = RuleSet(7, (M, M, m))
        assert rules.signed_weights == (0, -1, -1, 1, -1, 1, 1, 0)  # minority slot flips the sign
        assert rules.complement().signed_weights == tuple(-w for w in rules.signed_weights)

    def test_complement_is_involutive(self):
        rules = RuleSet(7, (M, m, M))
        assert rules.complement().label == "mMm"
        assert rules.complement().complement() == rules

    @pytest.mark.parametrize(
        "g, polarities", [(4, (M,)), (7, (M, M)), (1, ()), (-5, (M,))]
    )
    def test_invalid(self, g, polarities):
        with pytest.raises(ValueError):
            RuleSet(g, polarities)


class TestEnumerateRulesets:
    def test_g7_labels(self):
        labels = [rs.label for rs in iter_rulesets(7)]
        assert labels == ["MMM", "MMm", "MmM", "Mmm", "mMM", "mMm", "mmM", "mmm"]

    def test_g5_labels(self):
        assert [rs.label for rs in iter_rulesets(5)] == ["MM", "Mm", "mM", "mm"]

    def test_g3_labels(self):
        assert [rs.label for rs in iter_rulesets(3)] == ["M", "m"]

    @pytest.mark.parametrize("g", [3, 5, 7, 9])
    def test_cardinality_and_uniqueness(self, g):
        rulesets = list(iter_rulesets(g))
        labels = [rs.label for rs in rulesets]
        assert len(rulesets) == 2 ** ((g - 1) // 2)
        assert len(set(labels)) == len(labels)
        assert labels == sorted(labels)  # 'M' < 'm' in ASCII

    @pytest.mark.parametrize("g", [4, 2, 1, 0, -3])
    def test_invalid_group(self, g):
        with pytest.raises(ValueError):
            iter_rulesets(g)


class TestNoiseSpec:
    def test_valid(self):
        assert NoiseSpec(0.0).epsilon == 0.0
        assert NoiseSpec(0.1).epsilon == 0.1

    @pytest.mark.parametrize("eps", [-0.1, float("nan"), float("inf")])
    def test_invalid(self, eps):
        with pytest.raises(ValueError):
            NoiseSpec(eps)


#: One factory per hashable public record class, each building a fresh
#: instance with the same fields on every call.
RECORDS = {
    "SwarmState": lambda: SwarmState(101, 51),
    "NoiseSpec": lambda: NoiseSpec(0.05),
    "RuleSet": lambda: RuleSet(5, (M, m)),
    "FixedPoint": lambda: FixedPoint(0.0, Stability.STABLE, (-0.1, 0.1)),
    "SimConfig": lambda: SimConfig(noise_rate=0.05, max_events=10),
}


class TestRecords:
    """The public classes are immutable records: built from positional or
    keyword fields with defaults, validated when built, equal and hashed by
    their fields within one class, read-only, and shown as
    ``Name(field=value, ...)``."""

    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
    def test_equal_fields_compare_and_hash_equal(self, make):
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
    def test_equal_only_within_one_class(self, make):
        record = make()
        twin = type("Twin", (type(record),), {})(**vars(record))
        assert vars(twin) == vars(record)
        assert twin != record and record != twin
        assert record != tuple(vars(record).values())
        assert record.__eq__(tuple(vars(record).values())) is NotImplemented

    def test_unequal_fields_compare_unequal(self):
        assert SwarmState(101, 51) != SwarmState(101, 50)
        assert RuleSet(5, (M, m)) != RuleSet(5, (m, M))
        assert SimConfig(max_events=10) != SimConfig(max_events=11)

    @pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
    def test_assignment_and_deletion_raise(self, make):
        record = make()
        before = repr(record)
        field = next(iter(vars(record)))
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert repr(record) == before

    def test_trajectory_is_read_only_and_unhashable(self):
        state = SwarmState(3, 1)
        record = Trajectory(state, array("d"), array("B"), array("B"), array("B"), state, 0.0, 0)
        with pytest.raises(AttributeError):
            record.n_events = 1
        with pytest.raises(TypeError):
            hash(record)  # array columns are unhashable

    @pytest.mark.parametrize(
        "record, text",
        [
            (SwarmState(101, 51), "SwarmState(n_agents=101, count_x1=51)"),
            (NoiseSpec(), "NoiseSpec(epsilon=0.0)"),
            (RuleSet(3, (M,)), "RuleSet(group_size=3, polarities=(<RulePolarity.MAJORITY: 'M'>,))"),
            (FixedPoint(0.0, Stability.STABLE, (-0.1, 0.1)),
             "FixedPoint(z=0.0, stability=<Stability.STABLE: 'stable'>, bracket=(-0.1, 0.1))"),
            (SimConfig(max_events=10),
             "SimConfig(rule_rate=0.5, noise_rate=0.0, max_events=10, t_max=None, "
             "record_null_draws=True, stop_at_consensus=False)"),
        ],
        ids=lambda value: type(value).__name__ if not isinstance(value, str) else None,
    )
    def test_repr(self, record, text):
        assert repr(record) == text

    def test_positional_keyword_and_default_construction(self):
        assert SwarmState(101, 51) == SwarmState(n_agents=101, count_x1=51)
        assert SwarmState(101, count_x1=51) == SwarmState(count_x1=51, n_agents=101)
        assert NoiseSpec() == NoiseSpec(0.0)
        config = SimConfig(0.5, 0.0, 10)
        assert config == SimConfig(max_events=10)
        assert (config.t_max, config.record_null_draws, config.stop_at_consensus) == (None, True, False)

    @pytest.mark.parametrize(
        "build",
        [lambda: SwarmState(101), lambda: SwarmState(101, 51, 3),
         lambda: SwarmState(101, 51, extra=1), lambda: NoiseSpec(eps=0.1)],
        ids=["missing", "too-many", "unknown-keyword", "unknown-keyword-with-default"],
    )
    def test_bad_arguments_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_signed_weights_cached_outside_the_fields(self):
        rules = RuleSet(5, (M, m))
        assert rules.signed_weights is rules.signed_weights
        assert rules.signed_weights == (0, -1, 1, -1, 1, 0)
        fresh = RuleSet(5, (M, m))
        assert rules == fresh and hash(rules) == hash(fresh)
        assert repr(rules) == repr(fresh)

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: SwarmState(100, 50), ValueError, "swarm size must be a positive odd integer, got 100"),
            (lambda: SwarmState(101, 102), ValueError, "count_x1 must lie in [0, 101], got 102"),
            (lambda: NoiseSpec(-0.1), ValueError, "noise level must be finite and >= 0, got -0.1"),
            (lambda: NoiseSpec(math.inf), ValueError, "noise level must be finite and >= 0, got inf"),
            (lambda: RuleSet(4, ()), ValueError, "group size must be an odd integer >= 3, got 4"),
            (lambda: RuleSet(5, (M,)), ValueError, "group size 5 needs 2 polarity entries, got 1"),
            (lambda: RuleSet(3, ("M",)), TypeError, "polarities must be RulePolarity values"),
            (lambda: SimConfig(rule_rate=-0.5, max_events=1), ValueError,
             "rule rate must be finite and >= 0, got -0.5"),
            (lambda: SimConfig(noise_rate=math.nan, max_events=1), ValueError,
             "noise rate must be finite and >= 0, got nan"),
            (lambda: SimConfig(max_events=0), ValueError, "max_events must be >= 1, got 0"),
            (lambda: SimConfig(t_max=0.0), ValueError, "t_max must be finite and > 0, got 0.0"),
            (lambda: SimConfig(), ValueError, "unbounded run: set max_events, t_max or stop_at_consensus"),
        ],
    )
    def test_validation_message(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()
