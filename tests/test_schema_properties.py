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
    SchemaSyntaxError,
    SchemaValidationError,
    format_schema,
    parse_schema,
)


@st.composite
def rulesets(draw):
    slots = draw(st.integers(min_value=1, max_value=8))
    polarities = draw(st.lists(st.sampled_from(RulePolarity), min_size=slots, max_size=slots))
    return RuleSet(2 * slots + 1, tuple(polarities))


# A reaction is a plain tuple (lhs_x1, lhs_x2, rhs_x1, rhs_x2).


def _reaction(k: int, group_size: int, delta: int) -> tuple[int, int, int, int]:
    if k in (0, group_size):
        delta = 1 if k == 0 else -1  # the only flip a uniform group allows
    return (k, group_size - k, k + delta, group_size - k - delta)


def reactions(group_size: int):
    """Reactions of ``group_size`` agents in which one agent flips."""
    return st.builds(
        _reaction, st.integers(0, group_size), st.just(group_size), st.sampled_from((-1, 1))
    )


#: Any coefficients, so that a side may change the group size or flip
#: more or fewer than one agent; each side keeps a species to write.
ANY_REACTIONS = st.tuples(*[st.integers(0, 9)] * 4).filter(lambda r: r[0] + r[1] and r[2] + r[3])


def _canonical_rows(rules: RuleSet) -> list[tuple[int, int, int, int]]:
    g = rules.group_size
    return [_reaction(k, g, rules.signed_weights[k]) for k in range(1, g)]


@st.composite
def edited_schemas(draw):
    """A valid schema's reactions, shuffled, with at most one reaction
    flipped the other way, dropped or repeated."""
    rows = _canonical_rows(draw(rulesets()))
    i = draw(st.integers(0, len(rows) - 1))
    edit = draw(st.sampled_from(["keep", "flip", "drop", "repeat"]))
    if edit == "flip":
        l1, l2, r1, _ = rows[i]
        rows[i] = _reaction(l1, l1 + l2, l1 - r1)
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
            st.one_of(
                reactions(g), reactions(g), st.integers(1, 9).flatmap(reactions), ANY_REACTIONS
            ),
            min_size=1,
            max_size=g + 1,
        )
    ),
)


def _side(x1: int, x2: int, unit: str) -> str:
    terms = [f"{c if c > 1 else unit}{species}" for c, species in ((x1, "X1"), (x2, "X2")) if c]
    return "+".join(terms)


def _text(rows, unit: str = "") -> str:
    """Reaction lines of ``rows``, in their order; ``unit`` is written
    before a species of coefficient 1 ("" for the bare species)."""
    return "".join(f"{_side(l1, l2, unit)} -> {_side(r1, r2, unit)}\n" for l1, l2, r1, r2 in rows)


def _is_schema(rows) -> bool:
    """Whether ``rows`` form a schema: odd G >= 3 agents on both sides of
    every reaction, one agent flipping, each composition 1..G-1 exactly
    once, and mirror compositions k and G-k moving opposite ways."""
    g = rows[0][0] + rows[0][1]
    if g < 3 or g % 2 == 0:
        return False
    deltas = {}
    for l1, l2, r1, r2 in rows:
        if l1 + l2 != g or r1 + r2 != g or abs(r1 - l1) != 1 or l1 in (0, g) or l1 in deltas:
            return False
        deltas[l1] = r1 - l1
    return len(deltas) == g - 1 and all(deltas[k] == -deltas[g - k] for k in range(1, g))


SCHEMA_ALPHABET = st.sampled_from(list("X12+-> →\n#03x\t")) | st.characters()


@settings(deadline=None)
@given(rulesets())
def test_format_parse_round_trip(rules):
    text = format_schema(rules)
    assert text == _text(_canonical_rows(rules))
    assert parse_schema(text) == rules
    assert format_schema(parse_schema(text)) == text


@settings(deadline=None)
@given(st.text(SCHEMA_ALPHABET, max_size=80))
def test_arbitrary_text_raises_only_schema_errors(text):
    try:
        rules = parse_schema(text)
    except (SchemaSyntaxError, SchemaValidationError):
        return
    assert parse_schema(format_schema(rules)) == rules


@settings(deadline=None)
@given(REACTION_LISTS, st.sampled_from(["", "1"]))
def test_parser_accepts_exactly_the_schemas(rows, unit):
    # A schema parses to the rule set whose canonical text is its reactions
    # sorted by X1 count; any other list is refused for one constraint.
    text = _text(rows, unit)
    if _is_schema(rows):
        assert format_schema(parse_schema(text)) == _text(sorted(rows))
        return
    with pytest.raises(SchemaValidationError) as excinfo:
        parse_schema(text)
    whole_schema = excinfo.value.reason in ("missing-composition", "asymmetry")
    assert (excinfo.value.line is None) == whole_schema


#: Schema file contents: valid and edited schemas, runs of schema tokens,
#: any text, and bytes that need not be UTF-8.
SCHEMA_FILES = st.one_of(
    rulesets().map(lambda rules: format_schema(rules).encode()),
    REACTION_LISTS.map(lambda rows: _text(rows).encode()),
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
