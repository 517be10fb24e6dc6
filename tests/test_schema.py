import pytest

from swarmdec.model import RulePolarity, iter_rulesets
from swarmdec.schema import (
    Reaction,
    ReactionSchema,
    SchemaError,
    SchemaSyntaxError,
    SchemaValidationError,
    format_schema,
    parse_polarity_string,
    parse_schema,
    reaction_text,
    ruleset_of_schema,
    schema_of_ruleset,
)

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
        schema = parse_schema(MMM_G7)
        assert schema.group_size == 7
        assert len(schema.reactions) == 6
        assert ruleset_of_schema(schema).label == "MMM"

    def test_two_minority_slots_g7(self):
        assert ruleset_of_schema(parse_schema(MMM_G7_TWO_MINORITY)).label == "MMm"

    def test_arrow_glyph_accepted(self):
        assert parse_schema(MMM_G7_GLYPH) == parse_schema(MMM_G7)

    def test_g3_majority(self):
        schema = parse_schema("X1+2X2 -> 3X2\n2X1+X2 -> 3X1")
        assert schema.group_size == 3
        assert ruleset_of_schema(schema).label == "M"

    def test_bare_and_missing_species(self):
        schema = parse_schema("X1+2X2 -> 3X2\n2X1+X2 -> 3X1")
        first = schema.reactions[0]
        assert (first.lhs_x1, first.lhs_x2, first.rhs_x1, first.rhs_x2) == (1, 2, 0, 3)

    def test_comments_blank_lines_whitespace(self):
        text = "# all-majority, G = 3\n\n  X1 + 2X2->3X2  \n\n2X1+X2 ->  3X1\n# done\n"
        assert ruleset_of_schema(parse_schema(text)).label == "M"

    def test_input_order_preserved(self):
        reversed_text = "2X1+X2 -> 3X1\nX1+2X2 -> 3X2"
        schema = parse_schema(reversed_text)
        assert [r.composition for r in schema.reactions] == [2, 1]


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
        text = format_schema(schema_of_ruleset(rules))
        assert text == "X1+2X2 -> 2X1+X2\n2X1+X2 -> X1+2X2\n"

    def test_two_minority_g7_canonical_text(self):
        rules = parse_polarity_string("MMm", 7)
        assert format_schema(schema_of_ruleset(rules)) == MMM_G7_TWO_MINORITY

    def test_reaction_text_coefficient_conventions(self):
        assert reaction_text(Reaction(1, 6, 0, 7)) == "X1+6X2 -> 7X2"
        assert reaction_text(Reaction(6, 1, 7, 0)) == "6X1+X2 -> 7X1"

    def test_serialize_sorts_by_composition(self):
        schema = parse_schema("2X1+X2 -> 3X1\nX1+2X2 -> 3X2")
        assert format_schema(schema) == "X1+2X2 -> 3X2\n2X1+X2 -> 3X1\n"

    def test_canonicalization_is_idempotent(self):
        messy = "5X1 + 2X2 → 6X1+X2\nX1+6X2->7X2\n6X1+X2 -> 7X1\n" \
                "2X1+5X2 -> X1+6X2\n4X1+3X2->5X1+2X2\n3X1+4X2 -> 2X1+5X2"
        once = format_schema(parse_schema(messy))
        assert once == MMM_G7
        assert format_schema(parse_schema(once)) == once

    @pytest.mark.parametrize("g", [3, 5, 7, 9])
    def test_round_trip_every_ruleset(self, g):
        for rules in iter_rulesets(g):
            schema = schema_of_ruleset(rules)
            reparsed = parse_schema(format_schema(schema))
            assert reparsed == schema
            assert ruleset_of_schema(reparsed) == rules


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


class TestDirectConstruction:
    def test_reaction_invariants(self):
        with pytest.raises(ValueError):
            Reaction(1, 2, 3, 1)  # group size not conserved
        with pytest.raises(ValueError):
            Reaction(1, 2, 3, 0)  # two agents flip
        with pytest.raises(ValueError):
            Reaction(-1, 4, 0, 3)

    def test_schema_invariants(self):
        good = schema_of_ruleset(parse_polarity_string("M", 3))
        assert ReactionSchema(3, good.reactions) == good
        with pytest.raises(SchemaValidationError):
            ReactionSchema(3, good.reactions[:1])
        with pytest.raises(SchemaValidationError):
            ReactionSchema(4, good.reactions)
