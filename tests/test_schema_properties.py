"""Property tests of the reaction-schema parser and its validator."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from swarmdec.model import RulePolarity, RuleSet  # noqa: E402
from swarmdec.schema import (  # noqa: E402
    Reaction,
    ReactionSchema,
    SchemaSyntaxError,
    SchemaValidationError,
    format_schema,
    parse_schema,
    reaction_text,
    ruleset_of_schema,
    schema_of_ruleset,
)


@st.composite
def rulesets(draw):
    slots = draw(st.integers(min_value=1, max_value=8))
    polarities = draw(st.lists(st.sampled_from(RulePolarity), min_size=slots, max_size=slots))
    return RuleSet(2 * slots + 1, tuple(polarities))


def _reaction(k: int, group_size: int, delta: int) -> Reaction:
    if k in (0, group_size):
        delta = 1 if k == 0 else -1  # the only flip a uniform group allows
    return Reaction(k, group_size - k, k + delta, group_size - k - delta)


def reactions(group_size: int):
    """Reactions of ``group_size`` agents that :class:`Reaction` accepts."""
    return st.builds(
        _reaction, st.integers(0, group_size), st.just(group_size), st.sampled_from((-1, 1))
    )


@st.composite
def edited_schemas(draw):
    """A valid schema's reactions, shuffled, with at most one reaction
    flipped the other way, dropped or repeated."""
    rows = list(schema_of_ruleset(draw(rulesets())).reactions)
    i = draw(st.integers(0, len(rows) - 1))
    edit = draw(st.sampled_from(["keep", "flip", "drop", "repeat"]))
    if edit == "flip":
        rows[i] = _reaction(rows[i].lhs_x1, rows[i].group_size, -rows[i].delta_x1)
    elif edit == "drop":
        del rows[i]
    elif edit == "repeat":
        rows.append(rows[i])
    return draw(st.permutations(rows))


#: Reaction lists, valid as a schema or failing any schema constraint.
REACTION_LISTS = st.one_of(
    edited_schemas(),
    st.integers(1, 9).flatmap(
        lambda g: st.lists(
            st.one_of(reactions(g), reactions(g), st.integers(1, 9).flatmap(reactions)),
            min_size=1,
            max_size=g + 1,
        )
    ),
)

SCHEMA_ALPHABET = st.sampled_from(list("X12+-> →\n#03x\t")) | st.characters()


@settings(deadline=None)
@given(rulesets())
def test_format_parse_round_trip(rules):
    schema = schema_of_ruleset(rules)
    text = format_schema(schema)
    assert parse_schema(text) == schema
    assert ruleset_of_schema(parse_schema(text)) == rules
    assert format_schema(parse_schema(text)) == text


@settings(deadline=None)
@given(st.text(SCHEMA_ALPHABET, max_size=80))
def test_arbitrary_text_raises_only_schema_errors(text):
    try:
        schema = parse_schema(text)
    except (SchemaSyntaxError, SchemaValidationError):
        return
    assert format_schema(parse_schema(format_schema(schema))) == format_schema(schema)


@settings(deadline=None)
@given(REACTION_LISTS)
def test_direct_construction_and_parser_agree(rows):
    group_size = rows[0].group_size
    text = "\n".join(reaction_text(r) for r in rows)
    try:
        direct = ReactionSchema(group_size, tuple(rows))
    except SchemaValidationError as exc:
        with pytest.raises(SchemaValidationError) as parsed:
            parse_schema(text)
        assert parsed.value.reason == exc.reason
        assert exc.line is None
        whole_schema = exc.reason in ("missing-composition", "asymmetry")
        assert (parsed.value.line is None) == whole_schema
    else:
        assert parse_schema(text) == direct
