"""Property tests of the reaction-schema parser and its validator, and of
schema files given to the command line."""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

from swarmdec.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_VALIDATION, main  # noqa: E402
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


#: Schema file contents: valid and edited schemas, runs of schema tokens,
#: any text, and bytes that need not be UTF-8.
SCHEMA_FILES = st.one_of(
    rulesets().map(lambda rules: format_schema(schema_of_ruleset(rules)).encode()),
    REACTION_LISTS.map(lambda rows: "\n".join(reaction_text(r) for r in rows).encode()),
    st.lists(
        st.sampled_from(["X1", "X2", "+", "->", "→", " ", "\n", "# c", "0", "2", "7", "9" * 5000]),
        max_size=30,
    ).map(lambda tokens: "".join(tokens).encode()),
    st.text(SCHEMA_ALPHABET, max_size=80).map(lambda text: text.encode("utf-8", "surrogatepass")),
    st.binary(max_size=80),
)


@settings(max_examples=150, deadline=None)
@given(command=st.sampled_from(["drift", "probs", "simulate", "fixed-points", "rulesets"]), data=SCHEMA_FILES)
def test_schema_files_through_the_cli(command, data):
    # Any --schema file runs, or is refused by one "swarmdec:" line, with no
    # traceback and no temp or partial file left behind.
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "rules.schema").write_bytes(data)
        argv = [command, "--schema", os.path.join(tmp, "rules.schema"), "--out", os.path.join(tmp, "out")]
        if command == "simulate":
            argv += ["--events", "10"]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(argv)
        written = sorted(os.listdir(tmp))
    err_lines = stderr.getvalue().splitlines()
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_IO, EXIT_VALIDATION)
    assert len(err_lines) == (code != EXIT_OK)
    assert all(line.startswith("swarmdec: ") for line in err_lines)
    assert written == (["out", "rules.schema"] if code == EXIT_OK else ["rules.schema"])
