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
count.  A run's count steps by at most one, so a block's counts span no
more values than it has rows, and each value of the span is looked up
once (:func:`_texts`).  The :data:`_CACHED_TEXTS` event texts and as many
count texts used last are kept for the next blocks, so memory stays
bounded by the block, not by ``N`` or ``G``.

Only :mod:`swarmdec.ssa` imports this module, where it writes a CSV, so
no command but ``simulate`` loads it or numpy.
"""

from __future__ import annotations

import functools
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
#: How many event texts, and how many count texts, :func:`csv_blocks` keeps
#: from block to block (the ones used last).
_CACHED_TEXTS = 4096


def _quads() -> np.ndarray:
    """The four ASCII digits of each number 0..9999, as one little-endian
    uint32, then the same with the zeros after their last nonzero digit as
    NULs."""
    digits = np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10
    ascii = (digits + ord("0")).astype(np.uint8)
    kept = digits[:, ::-1].cumsum(1)[:, ::-1] > 0  # a nonzero digit at or after it
    return np.concatenate([ascii, ascii * kept]).view("<u4").ravel()


_QUADS = _quads()


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


def _time_text(times: np.ndarray, text: np.ndarray) -> None:
    """Write ``'%.17g' % t`` of each time into the NUL-filled rows of
    ``text``, 24 bytes each.

    ``'%.17g'`` writes a number from ``1e-4`` up to ``1e17`` without an
    exponent, with its 17 significant digits but their trailing zeros
    after the point, and the point only if a digit follows it.  Those
    below ``1e16`` are laid out here; the others are left to ``'%.17g'``,
    one by one.
    """
    fixed = (times >= 1e-4) & (times < 1e16)
    digits, exponents = _significant_digits(np.where(fixed, times, 1.0))
    # The 17 digits in ASCII: the first, then four groups of four, where the
    # zeros after the last nonzero digit are NULs.
    words = np.empty((len(times), 5), "<u4")
    # `half` picks the NUL-trimmed half of the table while every digit after
    # the group is a zero.
    rest, half = digits, np.full(len(times), 10_000)
    for i in range(4, 0, -1):
        high = rest // 10_000  # a floor division by a constant is faster than divmod
        group = rest - 10_000 * high
        words[:, i] = _QUADS[half + group]
        half *= group == 0
        rest = high
    words[:, 0] = (rest + ord("0")) << 24
    ascii = words.view(np.uint8)[:, 3:]
    # Laid out with the point, which goes when no digit follows it; the
    # zeros before the point stay.
    first, last = int(exponents.min()), int(exponents.max())
    for e in range(first, last + 1):
        rows = exponents == e if first < last else slice(None)
        if e >= 0:  # the point after the first e + 1 digits
            text[rows, : e + 1] = np.maximum(ascii[rows, : e + 1], ord("0"))
            text[rows, e + 1] = (ascii[rows, e + 1] != 0) * ord(".")
            text[rows, e + 2 : 18] = ascii[rows, e + 1 :]
        else:  # 0.ddd, with -e - 1 zeros before the first digit
            text[rows, : 1 - e] = np.frombuffer(b"0.000", np.uint8)[: 1 - e]
            text[rows, 1 - e : 18 - e] = ascii[rows]
    slow = np.flatnonzero(~fixed)
    if len(slow):
        texts = np.array([b"%.17g" % t for t in times[slow].tolist()], "S24")
        text[slow] = texts.view(np.uint8).reshape(-1, 24)


def _texts(keys: np.ndarray, text: Callable[[int], bytes]) -> np.ndarray:
    """``text(key)`` of each key, as an ``S`` array.  When the keys span no
    more values than there are keys, as a run's counts do (they step by at
    most one), ``text`` is called once for each value of the span; otherwise
    once for each key."""
    lo, hi = int(keys.min()), int(keys.max())
    if hi - lo < len(keys):
        return np.array([text(key) for key in range(lo, hi + 1)], "S")[keys - lo]
    return np.array([text(key) for key in keys.tolist()], "S")


def _rows_text(times: np.ndarray, events: np.ndarray, states: np.ndarray) -> str:
    """The CSV rows of a block, joined by newlines: each row's time, as
    :func:`_time_text` writes it, and the text of its event and state, laid
    side by side in one NUL-filled buffer and taken without the NULs."""
    widths = [1, 24, events.itemsize, states.itemsize]
    text = np.zeros((len(times), sum(widths)), np.uint8)
    newline, time, event, state = np.split(text, np.cumsum(widths[:-1]), axis=1)
    newline[1:] = ord("\n")
    _time_text(times, time)
    event[:] = events.view(np.uint8).reshape(len(times), -1)
    state[:] = states.view(np.uint8).reshape(len(times), -1)
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
    count and ``z``, looked up once for each value of the block's span
    (:func:`_texts`) among the texts the run keeps.
    """

    @functools.lru_cache(_CACHED_TEXTS)
    def event_text(code: int) -> bytes:
        kind, k = code % 4, code // 4
        return f",{EVENT_LABELS[kind]},{'' if kind in (NOISE12, NOISE21) else k},".encode()

    @functools.lru_cache(_CACHED_TEXTS)
    def state_text(count: int) -> bytes:
        return f"{count},{lattice_z(count, n_agents):.17g}".encode()

    yield CSV_HEADER
    for times, kinds, ks, counts in blocks:
        codes = np.asarray(kinds, np.int64) + 4 * np.asarray(ks, np.int64)
        events, states = _texts(codes, event_text), _texts(np.asarray(counts, np.int64), state_text)
        yield _rows_text(np.asarray(times), events, states)
