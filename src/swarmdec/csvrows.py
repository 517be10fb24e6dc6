"""The trajectory CSV that ``simulate`` writes, its rows formatted with
numpy a block at a time as each block arrives, byte for byte as Python
formats them.

The CSV starts with the header line :data:`CSV_HEADER`; each row is
``time,event,k,count_x1,z``.  The time is written as
``'%.17g'`` writes it: from ``1e-4`` up to ``1e16`` its 17 significant
digits are computed exactly as an integer (Dekker's two-product with a
power of ten, rounded half to even) and laid out without an exponent
(:func:`_time_text`); other times are left to ``'%.17g'``, one by one.
The rest of a row depends only on the event's kind and ``k`` and on the
count, and each block formats the text of its own distinct keys once
(:func:`_texts`), with nothing kept from one block to the next.

Only :mod:`swarmdec.ssa` imports this module, where it writes a CSV, so
no command but ``simulate`` loads it or numpy.
"""

from __future__ import annotations

from array import array
from typing import Callable, Iterable, Iterator

import numpy as np

from .model import lattice_z
from .ssa import EVENT_LABELS, NOISE12, NOISE21

#: The CSV's first line, which :func:`csv_blocks` yields before the rows.
CSV_HEADER = "time,event,k,count_x1,z"
#: Dekker's splitter for doubles: ``2**27 + 1``.
_SPLITTER = 134217729.0
#: ``10**p`` for p in 0..22, every one an exact double, and the high and
#: low halves of Dekker's split of each.
_POWERS = np.array([float(10**p) for p in range(23)])
_POWERS_HIGH = _SPLITTER * _POWERS - (_SPLITTER * _POWERS - _POWERS)
_POWERS_LOW = _POWERS - _POWERS_HIGH
#: The double nearest to ``10**e`` for e in -4..16, which is also the least
#: at or above it.
_DECADES = np.array([float(f"1e{e}") for e in range(-4, 17)])
#: The four ASCII digits of each number 0..9999, as one little-endian uint32.
_QUADS = np.frombuffer(b"".join(b"%04d" % i for i in range(10_000)), "<u4")


def _significant_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(digits, exponents)``: the first 17 significant digits of each
    double in ``x``, all from ``1e-4`` up to ``1e16``, as an integer in
    ``[10**16, 10**17)``, rounded half to even as ``'%.17g'`` rounds, and
    the decimal exponent ``e`` of the first digit, ``10**e <= x < 10**(e+1)``.

    With ``p = 16 - e``, the product ``x * 10**p`` is ``hi + lo`` exactly
    (Dekker's two-product), and ``hi`` is at least ``10**16 > 2**53``, so
    it is an even integer, and rounding ``lo`` half to even rounds the sum
    so.  It never rounds up to ``10**17``: in that range no double lies
    within half a unit of the 17th digit below a power of ten.
    """
    exponents = _DECADES.searchsorted(x, "right") - 5
    p = 16 - exponents
    scaled = _SPLITTER * x
    x_high = scaled - (scaled - x)
    x_low = x - x_high
    p_high, p_low = _POWERS_HIGH[p], _POWERS_LOW[p]
    hi = x * _POWERS[p]
    lo = ((x_high * p_high - hi) + x_high * p_low + x_low * p_high) + x_low * p_low
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), exponents


def _time_text(times: np.ndarray) -> np.ndarray:
    """``'%.17g' % t`` of each time, as rows of 24 NUL-padded bytes.

    ``'%.17g'`` writes a number from ``1e-4`` up to ``1e17`` without an
    exponent, with its 17 significant digits but their trailing zeros
    after the point, and the point only if a digit follows it.  Those
    below ``1e16`` are laid out here; the others are left to ``'%.17g'``,
    one by one.
    """
    fixed = (times >= 1e-4) & (times < 1e16)
    digits, exponents = _significant_digits(np.where(fixed, times, 1.0))
    # The 17 digits in ASCII: the first, then four groups of four.
    words = np.empty((len(times), 5), "<u4")
    rest = digits
    for i in range(4, 0, -1):
        rest, group = np.divmod(rest, 10_000)
        words[:, i] = _QUADS[group]
    words[:, 0] = (rest + ord("0")) << 24
    ascii = words.view(np.uint8)[:, 3:]
    text = np.zeros((len(times), 24), np.uint8)
    first, last = int(exponents.min()), int(exponents.max())
    for e in range(first, last + 1):
        rows = exponents == e if first < last else slice(None)
        if e >= 0:  # the point after the first e + 1 digits
            text[rows, : e + 1] = ascii[rows, : e + 1]
            text[rows, e + 1] = ord(".")
            text[rows, e + 2 : 18] = ascii[rows, e + 1 :]
        else:  # 0.ddd, with -e - 1 zeros before the first digit
            text[rows, : 1 - e] = np.frombuffer(b"0.000", np.uint8)[: 1 - e]
            text[rows, 1 - e : 18 - e] = ascii[rows]
    # Trailing zeros after the point go, and the point if no digit is left
    # after it: a row that ends in a zero keeps its first `end` bytes.
    ends = np.flatnonzero(digits % 10 == 0)
    if len(ends):
        e = exponents[ends]
        kept = 17 - np.argmax(ascii[ends, ::-1] != ord("0"), axis=1)
        end = np.where(kept > e + 1, kept + 1, e + 1) + np.maximum(-e, 0)
        text[ends] *= np.arange(24) < end[:, None]
    slow = np.flatnonzero(~fixed)
    if len(slow):
        texts = np.array([b"%.17g" % t for t in times[slow].tolist()], "S24")
        text[slow] = texts.view(np.uint8).reshape(-1, 24)
    return text


def _texts(keys: np.ndarray, text: Callable[[int], str]) -> np.ndarray:
    """``text(key)`` of each key, as rows of NUL-padded bytes; each
    distinct key is formatted once."""
    unique, index = np.unique(keys, return_inverse=True)
    table = np.array([text(key).encode() for key in unique.tolist()], "S")
    return table[index].view(np.uint8).reshape(len(keys), -1)


def _rows_text(times: np.ndarray, events: np.ndarray, states: np.ndarray) -> str:
    """The CSV rows of a block, joined by newlines: its times, as
    :func:`_time_text` writes them, and the NUL-padded text of each row's
    event and state, side by side without their NULs."""
    newlines = np.full((len(times), 1), ord("\n"), np.uint8)
    newlines[0] = 0
    text = np.concatenate([newlines, _time_text(times), events, states], axis=1)
    return str(text[text != 0], "ascii")


def csv_blocks(
    blocks: Iterable[tuple[array, array, array, array]], n_agents: int
) -> Iterator[str]:
    """The CSV of a run of ``N`` agents: :data:`CSV_HEADER`, then the rows
    of each block of ``(times, kinds, ks, counts)`` columns as one string,
    joined by newlines, with none after the last.  Every block must hold
    at least one row, as those of :class:`swarmdec.ssa.EventBlocks` do.

    numpy formats each block as it comes: the time as ``'%.17g'`` does
    (:func:`_time_text`), then the text of its ``(kind, k)`` and of its
    count and ``z``, each distinct key of the block formatted once
    (:func:`_texts`).
    """

    def event_text(code: int) -> str:
        kind, k = code % 4, code // 4
        return f",{EVENT_LABELS[kind]},{'' if kind in (NOISE12, NOISE21) else k},"

    def state_text(count: int) -> str:
        return f"{count},{lattice_z(count, n_agents):.17g}"

    yield CSV_HEADER
    for times, kinds, ks, counts in blocks:
        codes = np.asarray(kinds, np.int64) + 4 * np.asarray(ks, np.int64)
        events, states = _texts(codes, event_text), _texts(np.asarray(counts, np.int64), state_text)
        yield _rows_text(np.asarray(times), events, states)
