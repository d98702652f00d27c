"""Block-wise CSV writer for the per-node tables of `solve` and `mesh-dump`.

Rows are formatted a block of `BLOCK_ROWS` at a time with numpy and each
block is written before the next is made, so the whole file is never
held in memory.  A float64 field is byte-identical to Python's
``f"{x:.10e}"`` and a non-negative integer field to ``str(i)``.

A block is a NUL-padded ``uint8`` matrix with one row per CSV row and a
fixed-width slot per field that ends in the ``,`` or ``\\n`` after it;
``bytes.translate`` strips the padding.  A float slot is filled from the
sign, the decimal exponent and the rounded 11-digit mantissa, four bytes
at a time from lookup tables.  The few fields this arithmetic cannot
settle exactly are formatted by Python and patched into their slots.
"""

from __future__ import annotations

import sys

import numpy as np

BLOCK_ROWS = 1 << 13  # 800 kB blocks of solve rows stay in a 2 MB L2 cache

# Mantissas are scaled as |x| * 10**(10 - e) with a correctly rounded
# power of ten (the nearest double to the decimal literal).  That is two
# roundings, so the scaled mantissa m~ of a value below 1e11 is within
# m * (2u + u**2) < 1e11 * 2.3e-16 = 2.3e-5 of the exact |x| * 10**(10 - e),
# u = 2**-53: about 1.5 ulp at 1e11.  Rounding m~ to an integer therefore
# gives the correctly rounded mantissa unless the fraction of m~ lies
# within that distance of one half; every field whose fraction lies within
# _TIE_MARGIN (40x the bound) of one half is left to Python instead.  The
# safe range keeps |x| and the power of ten normal.
_TIE_MARGIN = 1e-3
_SAFE_MIN, _SAFE_MAX = 1e-290, 1e290
_POW_OFFSET = 300
_POW10 = np.array([float(f"1e{k}") for k in range(-_POW_OFFSET, 309)])


def _words(strings) -> np.ndarray:
    """Equal-length 4-byte ASCII strings as native uint32 words."""
    return np.frombuffer("".join(strings).encode("ascii"), dtype=np.uint32)


# A float slot is five words: "\0-d." | "dddd" | "dddd" | "dde+" | "dd\0," or
# "ddd,"; the sign byte is NUL for positive values, and the last byte of
# the slot is overwritten by the separator.
_FLOAT_SLOT = 20
_HEAD = _words(f"\0{sign}{lead}." for sign in ("\0", "-") for lead in range(10))
_QUAD = _words(f"{i:04d}" for i in range(10**4))
_TAIL = _words(f"{i:02d}e{sign}" for sign in "+-" for i in range(100))
_EXP = _words(f"{e:02d}\0\0" if e < 100 else f"{e:03d}\0" for e in range(400))


def _fill_float(slot: np.ndarray, values: np.ndarray) -> None:
    """Write `f"{x:.10e}"` of each value into the rows of a (rows, 20) slot."""
    a = np.abs(values)
    fallback = ~((a >= _SAFE_MIN) & (a < _SAFE_MAX))  # 0, nan, inf, extremes
    a = np.where(fallback, 1.0, a)

    e = np.floor(np.log10(a)).astype(np.int64)
    m = a * _POW10[_POW_OFFSET + 10 - e]
    nearest = np.rint(m)
    # m outside [1e10, 1e11) only next to a power of ten, where log10 may
    # round up to the next integer
    fallback |= (np.abs(m - nearest) > 0.5 - _TIE_MARGIN) | (m < 1e10) | (m >= 1e11)
    nearest[fallback] = 1e10  # keeps table indices in range; Python fills these

    digits = nearest.astype(np.int64)
    carry = digits == 10**11  # 9.99999999995 rounds up to 1.0000000000e+1
    if carry.any():
        digits[carry] = 10**10
        e[carry] += 1

    lead = digits // 10**10
    rest = digits - lead * 10**10
    quad1 = rest // 10**6
    rest -= quad1 * 10**6
    quad2 = rest // 100
    words = slot.view(np.uint32)
    words[:, 0] = _HEAD.take(lead + 10 * np.signbit(values))
    words[:, 1] = _QUAD.take(quad1)
    words[:, 2] = _QUAD.take(quad2)
    words[:, 3] = _TAIL.take(rest - quad2 * 100 + 100 * (e < 0))
    words[:, 4] = _EXP.take(np.abs(e))

    rows = np.flatnonzero(fallback)
    if len(rows):
        text = "".join(
            f"{x:.10e}".ljust(_FLOAT_SLOT - 1, "\0") for x in values[rows].tolist()
        )
        slot[rows, :-1] = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(
            len(rows), _FLOAT_SLOT - 1
        )


def _int_slot(values: np.ndarray) -> int:
    """Slot width for the digits and the separator, a multiple of 4."""
    return -(-(len(str(int(values.max()))) + 1) // 4) * 4


def _fill_int(slot: np.ndarray, values: np.ndarray) -> None:
    """Write `str(i)` of each value >= 0, right-aligned, into the rows of `slot`."""
    slot[:] = 0
    for k in range(len(str(int(values.max())))):
        place = 10**k
        digit = ord("0") + values // place % 10
        slot[:, -2 - k] = np.where((values >= place) | (k == 0), digit, 0)


def format_rows(columns: list[np.ndarray]) -> bytes:
    """The CSV rows of equal-length float64 or non-negative integer columns."""
    widths = [_int_slot(c) if c.dtype.kind in "iu" else _FLOAT_SLOT for c in columns]
    block = np.empty((len(columns[0]), sum(widths)), dtype=np.uint8)
    start = 0
    for c, width in zip(columns, widths):
        slot = block[:, start : start + width]
        (_fill_int if c.dtype.kind in "iu" else _fill_float)(slot, c)
        slot[:, -1] = ord(",")
        start += width
    block[:, -1] = ord("\n")
    return block.tobytes().translate(None, b"\0")


def write_csv(path: str | None, header: str, columns: list[np.ndarray]) -> None:
    """Write `header` and one row per entry of `columns` to `path` or stdout.

    `header` may hold several lines; it gets a final LF.
    """
    blocks = (
        format_rows([c[start : start + BLOCK_ROWS] for c in columns])
        for start in range(0, len(columns[0]), BLOCK_ROWS)
    )
    if path is None:
        sys.stdout.write(header + "\n")
        sys.stdout.writelines(block.decode("ascii") for block in blocks)
        return
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8") + b"\n")
        fh.writelines(blocks)
