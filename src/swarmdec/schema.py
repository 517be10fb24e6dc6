"""Rule sets as reaction text: :func:`parse_schema` reads the text into a
:class:`~swarmdec.model.RuleSet` and :func:`format_schema` writes it back.

A rule set can be written out as one conversion reaction per group
composition, in a chemical-equation style::

    X1+6X2 -> 7X2
    2X1+5X2 -> X1+6X2
    ...

Grammar (one reaction per line; blank lines and lines starting with
'#' are ignored; whitespace between tokens is free)::

    line     := side ARROW side
    side     := term ("+" term)?
    term     := [1-9][0-9]* species | species
    species  := "X1" | "X2"
    ARROW    := "->" | "→"

A bare species means coefficient 1 and an absent species means 0.
Species names are case-sensitive: ``x2`` is rejected.  Serialization
always emits ``->``, ascending X1 count, bare species for coefficient 1
and omitted species for coefficient 0, so one parse/serialize pass
canonicalizes any accepted text.  The parser checks the schema
constraints once, in :func:`_check_rows`: each reaction keeps the group
size and flips one agent, every composition 1..G-1 appears once, and
mirror compositions ``k`` and ``G - k`` imply the same polarity.
"""

from __future__ import annotations

import itertools
import re

from .model import RulePolarity, RuleSet, check_group_size, parse_polarity_string, signed_weight

__all__ = [
    "SchemaError",
    "SchemaSyntaxError",
    "SchemaValidationError",
    "format_schema",
    "parse_polarity_string",
    "parse_schema",
]

#: One token of a reaction line.  ``bad`` takes any other non-space character,
#: so ``finditer`` skips whitespace only.  ``[0-9]`` is ASCII only, unlike
#: ``str.isdigit``, which also holds for '²' (which ``int()`` rejects).
_TOKEN = re.compile(
    r"(?P<arrow>->|→)|(?P<plus>\+)|(?P<coef>[0-9]+)|(?P<species>X[12])|(?P<bad>\S)"
)
#: Most missing compositions a ``missing-composition`` error lists; past them
#: it gives how many more are missing.
_LISTED_MISSING = 10


class SchemaError(ValueError):
    """Invalid reaction-schema text or structure."""


class SchemaSyntaxError(SchemaError):
    """Malformed schema text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class SchemaValidationError(SchemaError):
    """Well-formed text that violates a schema constraint.

    ``reason`` is a stable machine-readable tag: one of ``arity``,
    ``step``, ``composition``, ``duplicate-composition``,
    ``missing-composition``, ``asymmetry``.
    """

    def __init__(self, message: str, reason: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.reason = reason
        self.line = line


def _implied_polarity(k: int, group_size: int, delta_x1: int) -> RulePolarity:
    """Polarity of the rule that moves the X1 count by ``delta_x1`` at ``k``."""
    majority = signed_weight(k, group_size, RulePolarity.MAJORITY) == delta_x1
    return RulePolarity.MAJORITY if majority else RulePolarity.MINORITY


def _check_rows(
    group_size: int, rows: list[tuple[int, int, int, int, int]]
) -> tuple[RulePolarity, ...]:
    """The polarities of ``rows``, one per minority count 1..(G-1)/2; raise
    :class:`SchemaValidationError` unless the rows form a valid schema.

    Each row is ``(line, lhs_x1, lhs_x2, rhs_x1, rhs_x2)``; ``line`` is the
    1-based source line.
    """
    g = group_size
    try:
        check_group_size(g)
    except ValueError as exc:
        raise SchemaValidationError(str(exc), reason="arity", line=rows[0][0]) from None
    deltas: dict[int, int] = {}
    for line, l1, l2, r1, r2 in rows:
        if l1 + l2 != g or r1 + r2 != g:
            raise SchemaValidationError(
                f"coefficients must sum to the group size {g} on "
                f"both sides (got {l1 + l2} -> {r1 + r2})",
                reason="arity",
                line=line,
            )
        if abs(r1 - l1) != 1:
            raise SchemaValidationError(
                f"exactly one agent must flip per reaction (X1 count changes "
                f"by {r1 - l1})",
                reason="step",
                line=line,
            )
        if l1 in (0, g):
            raise SchemaValidationError(
                f"composition {l1} admits no conversion (group is uniform)",
                reason="composition",
                line=line,
            )
        if l1 in deltas:
            raise SchemaValidationError(
                f"two reactions share composition {l1}",
                reason="duplicate-composition",
                line=line,
            )
        deltas[l1] = r1 - l1
    if len(deltas) != g - 1:
        # Walking k upward past the present ones is bounded by the rows, not by G.
        absent = (k for k in range(1, g) if k not in deltas)
        missing = list(itertools.islice(absent, _LISTED_MISSING))
        more = g - 1 - len(deltas) - len(missing)
        raise SchemaValidationError(
            f"schema must cover every composition 1..{g - 1}; missing {missing}"
            + (f" and {more} more" if more else ""),
            reason="missing-composition",
        )
    polarities = []
    for k in range(1, (g + 1) // 2):
        left = _implied_polarity(k, g, deltas[k])
        right = _implied_polarity(g - k, g, deltas[g - k])
        if left is not right:
            raise SchemaValidationError(
                f"compositions {k} and {g - k} imply different "
                f"polarities ({left.value} vs {right.value})",
                reason="asymmetry",
            )
        polarities.append(left)
    return tuple(polarities)


def _parse_line(line: str, line_no: int) -> tuple[int, int, int, int]:
    """Parse one reaction line into ``(lhs_x1, lhs_x2, rhs_x1, rhs_x2)``.

    The whole line is scanned before it is parsed, so a bad character or a
    leading zero anywhere in it is reported ahead of a misplaced token.
    """
    tokens: list[tuple[str | None, str, int]] = []  # (kind, text, column); kind None ends the line
    for m in _TOKEN.finditer(line):
        kind, text, column = m.lastgroup, m.group(), m.start() + 1
        if kind == "bad":
            raise SchemaSyntaxError(f"unexpected character {text!r}", line_no, column)
        if kind == "coef" and text[0] == "0":
            raise SchemaSyntaxError("coefficient must not start with 0", line_no, column)
        tokens.append((kind, text, column))
    tokens.append((None, "", len(line) + 1))

    counts: list[int] = []
    i = 0  # the left side must be followed by the arrow, the right one by the end
    for follower, missing in (("arrow", "expected '->'"), (None, "unexpected trailing input")):
        side: dict[str, int] = {}
        while True:
            kind, text, column = tokens[i]
            coefficient = 1
            if kind == "coef":
                try:
                    coefficient = int(text)
                except ValueError:  # more digits than int() converts
                    message = f"coefficient is too long ({len(text)} digits)"
                    raise SchemaSyntaxError(message, line_no, column) from None
                i += 1
                kind, text, column = tokens[i]
            if kind != "species":
                raise SchemaSyntaxError("expected species X1 or X2", line_no, column)
            if text in side:
                raise SchemaSyntaxError(
                    f"species {text} listed twice on one side", line_no, column
                )
            side[text] = coefficient
            i += 1
            if tokens[i][0] != "plus":
                break
            i += 1
        if tokens[i][0] != follower:
            raise SchemaSyntaxError(missing, line_no, tokens[i][2])
        i += 1
        counts += side.get("X1", 0), side.get("X2", 0)
    return tuple(counts)


def parse_schema(text: str) -> RuleSet:
    """The rule set that schema text writes out, one reaction per composition.

    The group size is inferred from the first reaction; every later
    line must conserve it.  Raises :class:`SchemaSyntaxError` for
    malformed text and :class:`SchemaValidationError` (with a ``reason``
    tag) for structurally invalid schemas.
    """
    rows: list[tuple[int, int, int, int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rows.append((line_no, *_parse_line(raw, line_no)))

    if not rows:
        raise SchemaValidationError(
            "schema contains no reactions", reason="missing-composition"
        )
    group_size = rows[0][1] + rows[0][2]
    return RuleSet(group_size, _check_rows(group_size, rows))


def _format_side(c1: int, c2: int) -> str:
    terms = []
    if c1 > 0:
        terms.append("X1" if c1 == 1 else f"{c1}X1")
    if c2 > 0:
        terms.append("X2" if c2 == 1 else f"{c2}X2")
    return "+".join(terms)


def format_schema(rules: RuleSet) -> str:
    """Canonical reaction text of a rule set: one line per composition
    k = 1..G-1, in ascending order."""
    g = rules.group_size
    lines = []
    for k in range(1, g):
        w = rules.signed_weights[k]
        lines.append(f"{_format_side(k, g - k)} -> {_format_side(k + w, g - k - w)}\n")
    return "".join(lines)
