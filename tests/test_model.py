import pytest

from swarmdec.model import (
    NoiseSpec,
    RulePolarity,
    RuleSet,
    SwarmState,
    iter_rulesets,
    signed_weight,
    state_of_z,
)

M = RulePolarity.MAJORITY
m = RulePolarity.MINORITY


class TestSwarmState:
    def test_valid(self):
        state = SwarmState(101, 51)
        assert state.count_x2 == 50
        assert not state.is_consensus
        assert SwarmState(101, 0).is_consensus
        assert SwarmState(101, 101).is_consensus

    @pytest.mark.parametrize("n, k", [(100, 50), (0, 0), (-3, 0), (101, -1), (101, 102)])
    def test_invalid(self, n, k):
        with pytest.raises(ValueError):
            SwarmState(n, k)


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
        rules = RuleSet(7, (M, M, m))
        assert rules.label == "MMm"
        for k in range(1, 7):
            assert rules.polarity_at(k) is rules.polarity_at(7 - k)
        assert rules.polarity_at(1) is M
        assert rules.polarity_at(3) is m
        assert rules.polarity_at(4) is m

    def test_signed_weight_delegates(self):
        rules = RuleSet(7, (M, M, m))
        assert rules.signed_weight(0) == 0
        assert rules.signed_weight(7) == 0
        assert rules.signed_weight(1) == -1
        assert rules.signed_weight(3) == 1  # minority slot flips the sign

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
