import pytest

from swarmdec.model import RulePolarity, RuleSet, iter_rulesets
from swarmdec.schema import (
    SchemaError,
    SchemaSyntaxError,
    SchemaValidationError,
    _parse_line,
    format_schema,
    parse_polarity_string,
    parse_schema,
)

M = RulePolarity.MAJORITY
m = RulePolarity.MINORITY

MMM_G7 = """\
X1+6X2 -> 7X2
2X1+5X2 -> X1+6X2
3X1+4X2 -> 2X1+5X2
4X1+3X2 -> 5X1+2X2
5X1+2X2 -> 6X1+X2
6X1+X2 -> 7X1
"""

MMM_G7_GLYPH = MMM_G7.replace("->", "→")

MMM_G7_TWO_MINORITY = """\
X1+6X2 -> 7X2
2X1+5X2 -> X1+6X2
3X1+4X2 -> 4X1+3X2
4X1+3X2 -> 3X1+4X2
5X1+2X2 -> 6X1+X2
6X1+X2 -> 7X1
"""


class TestParsing:
    def test_all_majority_g7(self):
        rules = parse_schema(MMM_G7)
        assert rules == RuleSet(7, (M, M, M))
        assert rules.label == "MMM"

    def test_two_minority_slots_g7(self):
        assert parse_schema(MMM_G7_TWO_MINORITY) == RuleSet(7, (M, M, m))

    def test_arrow_glyph_accepted(self):
        assert parse_schema(MMM_G7_GLYPH) == parse_schema(MMM_G7)

    def test_g3_majority(self):
        rules = parse_schema("X1+2X2 -> 3X2\n2X1+X2 -> 3X1")
        assert rules.group_size == 3
        assert rules.label == "M"

    def test_bare_and_missing_species(self):
        assert _parse_line("X1+2X2 -> 3X2", 1) == (1, 2, 0, 3)
        assert _parse_line("2X1+X2 -> 3X1", 2) == (2, 1, 3, 0)
        explicit = "1X1+2X2 -> 3X2\n2X1+1X2 -> 3X1"
        assert parse_schema(explicit) == parse_schema("X1+2X2 -> 3X2\n2X1+X2 -> 3X1")

    def test_comments_blank_lines_whitespace(self):
        text = "# all-majority, G = 3\n\n  X1 + 2X2->3X2  \n\n2X1+X2 ->  3X1\n# done\n"
        assert parse_schema(text).label == "M"

    def test_input_order_ignored(self):
        reversed_text = "2X1+X2 -> 3X1\nX1+2X2 -> 3X2"
        assert parse_schema(reversed_text) == parse_schema("X1+2X2 -> 3X2\n2X1+X2 -> 3X1")


class TestValidationErrors:
    def test_even_group_is_arity_error(self):
        with pytest.raises(SchemaValidationError) as excinfo:
            parse_schema("2X1+2X2 -> 3X1+X2")
        assert excinfo.value.reason == "arity"

    def test_mismatched_sum_is_arity_error(self):
        text = "X1+2X2 -> 3X2\n2X1+2X2 -> 3X1+X2"
        with pytest.raises(SchemaValidationError) as excinfo:
            parse_schema(text)
        assert excinfo.value.reason == "arity"
        assert excinfo.value.line == 2

    def test_two_agent_flip_is_step_error(self):
        text = "X1+6X2 -> 3X1+4X2"
        with pytest.raises(SchemaValidationError) as excinfo:
            parse_schema(text)
        assert excinfo.value.reason == "step"

    def test_no_flip_is_step_error(self):
        with pytest.raises(SchemaValidationError) as excinfo:
            parse_schema("2X1+X2 -> 2X1+X2")
        assert excinfo.value.reason == "step"

    def test_uniform_composition_rejected(self):
        with pytest.raises(SchemaValidationError) as excinfo:
            parse_schema("3X2 -> X1+2X2")
        assert excinfo.value.reason == "composition"

    def test_duplicate_composition(self):
        text = "X1+2X2 -> 3X2\nX1+2X2 -> 2X1+X2"
        with pytest.raises(SchemaValidationError) as excinfo:
            parse_schema(text)
        assert excinfo.value.reason == "duplicate-composition"

    def test_missing_composition(self):
        text = "\n".join(MMM_G7.splitlines()[:-1])
        with pytest.raises(SchemaValidationError) as excinfo:
            parse_schema(text)
        assert excinfo.value.reason == "missing-composition"

    def test_empty_schema(self):
        with pytest.raises(SchemaValidationError) as excinfo:
            parse_schema("# nothing here\n")
        assert excinfo.value.reason == "missing-composition"

    def test_asymmetric_polarities(self):
        # k=1 shrinks the minority (majority rule), k=2 grows it (minority rule).
        text = "X1+2X2 -> 3X2\n2X1+X2 -> X1+2X2"
        with pytest.raises(SchemaValidationError) as excinfo:
            parse_schema(text)
        assert excinfo.value.reason == "asymmetry"

    # One input per reason, with its exact message and line (None when the
    # schema as a whole, not one line of it, breaks the constraint).
    PINNED = [
        ("2X1+2X2 -> 3X1+X2", "arity", 1, "group size must be an odd integer >= 3, got 4"),
        ("# G = 3\nX1+2X2 -> 3X2\n2X1+2X2 -> 3X1+X2", "arity", 3,
         "coefficients must sum to the group size 3 on both sides (got 4 -> 4)"),
        ("X1+6X2 -> 3X1+4X2", "step", 1,
         "exactly one agent must flip per reaction (X1 count changes by 2)"),
        ("3X2 -> X1+2X2", "composition", 1, "composition 0 admits no conversion (group is uniform)"),
        ("X1+2X2 -> 3X2\nX1+2X2 -> 2X1+X2", "duplicate-composition", 2,
         "two reactions share composition 1"),
        ("X1+2X2 -> 2X1+X2", "missing-composition", None,
         "schema must cover every composition 1..2; missing [2]"),
        ("X1+12X2 -> 13X2", "missing-composition", None,
         "schema must cover every composition 1..12; missing [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and 1 more"),
        ("1X1+200000X2 -> 200001X2", "missing-composition", None,
         "schema must cover every composition 1..200000; missing [2, 3, 4, 5, 6, 7, 8, 9, 10, 11] "
         "and 199989 more"),
        ("# nothing here\n", "missing-composition", None, "schema contains no reactions"),
        ("X1+2X2 -> 3X2\n2X1+X2 -> X1+2X2", "asymmetry", None,
         "compositions 1 and 2 imply different polarities (M vs m)"),
    ]

    @pytest.mark.parametrize("text, reason, line, message", PINNED)
    def test_pinned_message_and_line(self, text, reason, line, message):
        with pytest.raises(SchemaValidationError) as excinfo:
            parse_schema(text)
        error = excinfo.value
        prefix = f"line {line}: " if line is not None else ""
        assert (str(error), error.reason, error.line) == (prefix + message, reason, line)


class TestSyntaxErrors:
    def test_lowercase_species_rejected(self):
        with pytest.raises(SchemaSyntaxError) as excinfo:
            parse_schema("X1+6X2 -> 7X2\n2X1+5x2 -> X1+6X2")
        assert excinfo.value.line == 2
        assert excinfo.value.column == 6

    def test_missing_arrow(self):
        with pytest.raises(SchemaSyntaxError):
            parse_schema("X1+2X2 3X2")

    def test_double_arrow(self):
        with pytest.raises(SchemaSyntaxError):
            parse_schema("X1+2X2 -> 3X2 -> 3X2")

    def test_leading_zero_coefficient(self):
        with pytest.raises(SchemaSyntaxError) as excinfo:
            parse_schema("X1+2X2 -> 03X2")
        assert excinfo.value.column == 11

    def test_unknown_species_number(self):
        with pytest.raises(SchemaSyntaxError):
            parse_schema("X3+2X2 -> 3X2")

    def test_duplicate_species_on_one_side(self):
        with pytest.raises(SchemaSyntaxError):
            parse_schema("X1+2X1 -> 3X2")

    def test_side_must_start_with_term(self):
        with pytest.raises(SchemaSyntaxError) as excinfo:
            parse_schema("-> 3X2")
        assert excinfo.value.column == 1

    @pytest.mark.parametrize("digit", ["²", "٣"])
    def test_non_ascii_digit_rejected(self, digit):
        # str.isdigit() holds for both, and int("²") raises a bare ValueError.
        with pytest.raises(SchemaSyntaxError) as excinfo:
            parse_schema(f"X1+{digit}X2 -> 3X2")
        assert excinfo.value.column == 4

    def test_trailing_input(self):
        with pytest.raises(SchemaSyntaxError):
            parse_schema("X1+2X2 -> 3X2 X1")

    # One input per kind of syntax error, with its exact message, line and column.
    PINNED = [
        ("X3+2X2 -> 3X2", "unexpected character 'X'", 1, 1),
        ("X1+2X2 -> 3X2\n  X1+2X2 - 3X2", "unexpected character '-'", 2, 10),
        ("X1+2X2 > 3X2", "unexpected character '>'", 1, 8),
        ("X1+2X2 -> 3X2\n  X1+²X2 -> 3X2", "unexpected character '²'", 2, 6),
        ("X1+2X2 -> 03X2", "coefficient must not start with 0", 1, 11),
        ("X1+2X2 -> 3X2\n  X1+2X2 -> 3", "expected species X1 or X2", 2, 14),
        ("X1+2X2\t→\t\t3", "expected species X1 or X2", 1, 12),
        ("X1+2 -> 3X2", "expected species X1 or X2", 1, 6),
        ("X1+2X2 -> 3X2\n  X1+2X2 3X2", "expected '->'", 2, 10),
        ("X1+2X2 -> 3X2 X1", "unexpected trailing input", 1, 15),
        ("X1+2X1 -> 3X2", "species X1 listed twice on one side", 1, 5),
        ("X1+X2+X1 -> 3X2", "species X1 listed twice on one side", 1, 7),
        # The whole line is scanned first: a bad character or a leading zero
        # wins over a parse error earlier in the line.
        ("X1 X2 -> 3X2 &", "unexpected character '&'", 1, 14),
        ("X1+ -> 3X2 + 07X1", "coefficient must not start with 0", 1, 14),
    ]

    @pytest.mark.parametrize("text, message, line, column", PINNED)
    def test_pinned_message_and_position(self, text, message, line, column):
        with pytest.raises(SchemaSyntaxError) as excinfo:
            parse_schema(text)
        error = excinfo.value
        assert (str(error), error.line, error.column) == (
            f"line {line}, column {column}: {message}",
            line,
            column,
        )

    def test_over_long_coefficient(self):
        # int() refuses strings of more than 4300 digits by default.
        digits = "1" * 5000
        with pytest.raises(SchemaSyntaxError) as excinfo:
            parse_schema(f"X1+2X2 -> 3X2\nX1 + {digits}X2 -> 3X2")
        assert (excinfo.value.line, excinfo.value.column) == (2, 6)

    @pytest.mark.parametrize(
        "bad",
        [
            "X1+2X2 > 3X2",
            "X1 + + 2X2 -> 3X2",
            "2 -> 3X2",
            "X1+2X2 ->",
            "X12X2 -> 3X2",
            "X1&2X2 -> 3X2",
        ],
    )
    def test_fuzz_malformed_lines(self, bad):
        with pytest.raises(SchemaError):
            parse_schema(bad)


class TestSerialization:
    def test_minority_g3_canonical_text(self):
        rules = parse_polarity_string("m", 3)
        text = format_schema(rules)
        assert text == "X1+2X2 -> 2X1+X2\n2X1+X2 -> X1+2X2\n"

    def test_two_minority_g7_canonical_text(self):
        rules = parse_polarity_string("MMm", 7)
        assert format_schema(rules) == MMM_G7_TWO_MINORITY

    def test_reaction_text_coefficient_conventions(self):
        # A bare species for coefficient 1, no term for coefficient 0.
        lines = format_schema(parse_polarity_string("MMM", 7)).splitlines()
        assert lines[0] == "X1+6X2 -> 7X2"
        assert lines[-1] == "6X1+X2 -> 7X1"

    def test_serialize_sorts_by_composition(self):
        rules = parse_schema("2X1+X2 -> 3X1\nX1+2X2 -> 3X2")
        assert format_schema(rules) == "X1+2X2 -> 3X2\n2X1+X2 -> 3X1\n"

    def test_canonicalization_is_idempotent(self):
        messy = "5X1 + 2X2 → 6X1+X2\nX1+6X2->7X2\n6X1+X2 -> 7X1\n" \
                "2X1+5X2 -> X1+6X2\n4X1+3X2->5X1+2X2\n3X1+4X2 -> 2X1+5X2"
        once = format_schema(parse_schema(messy))
        assert once == MMM_G7
        assert format_schema(parse_schema(once)) == once

    @pytest.mark.parametrize("g", [3, 5, 7, 9, 11, 13, 15, 17])
    def test_round_trip_every_ruleset(self, g):
        for rules in iter_rulesets(g):
            assert parse_schema(format_schema(rules)) == rules


class TestPolarityString:
    def test_examples(self):
        assert parse_polarity_string("Mmm", 7).label == "Mmm"
        assert parse_polarity_string("Mmm", 7).polarities == (
            RulePolarity.MAJORITY,
            RulePolarity.MINORITY,
            RulePolarity.MINORITY,
        )

    def test_length_error(self):
        with pytest.raises(ValueError, match="length"):
            parse_polarity_string("MM", 7)

    def test_character_error(self):
        with pytest.raises(ValueError, match="character"):
            parse_polarity_string("Mx", 5)

    def test_even_group(self):
        with pytest.raises(ValueError):
            parse_polarity_string("MM", 4)

