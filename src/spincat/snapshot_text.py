"""The text of one snapshot file: a header, then the |rho| grid.

:func:`snapshot_lines` yields the text a piece at a time, so it is never held
whole.  Each entry from the diagonal on is formatted once: the nonzero ones
by :func:`spincat.float_text.reprs`, which gives ``repr``'s bytes for a
block of values by array operations, and each 0.0 as one shared 4-byte word.
A block of rows is laid out as bytes in numpy and made into one string per
row and per later column, in the calling process.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from . import float_text
from .dicke import Basis, x_floor_gain

# Rows formatted at a time: the text of a block's entries below the diagonal
# is kept as one piece per column, so a column's text is one piece per block
# above it.
_BLOCK_ROWS = 32
# "0.0," as one 4-byte word
_ZERO_WORD = np.frombuffer(b"0.0,", dtype=np.uint32)[0]


def snapshot_lines(mag, sector, basis: Basis, time: float) -> Iterator[str]:
    """The header and the grid ``mag = |rho_{mm'}|`` of a snapshot file in
    ``basis``, rows and columns running m = +l .. -l.  ``mag`` must be
    exactly symmetric, as every grid from ``evolve._snapshot`` is: each
    mirror pair is formatted once."""
    header = (f"# basis = {basis.value}\n"
              f"# l = {float(sector.l)!r}\n"
              f"# time = {float(time)!r}\n"
              "# grid = |rho| magnitudes, rows and columns ordered m = +l..-l\n")
    if basis is Basis.LX:
        header += ("# zeroed = |rho_rc| <= g*b_r*b_c + (o_r*b_c + b_r*o_c) written as 0.0, within"
                   " rounding and the part of rho outside the window of zero; b = |M| s,"
                   " o = |M| s_out, s = sqrt(diag rho_Lz), s_out = s outside its window, the"
                   " smallest index range outside which s sums to at most 2**-53*sum(s),"
                   f" g = {x_floor_gain(sector.dimension)!r}\n")
    yield header
    yield from _grid_lines(mag)


def _grid_lines(mag) -> Iterator[str]:
    # The lines of the grid, each ended by a newline.  |rho| of a Hermitian
    # matrix is symmetric, so each entry from the diagonal on is formatted
    # once and its text is reused for the mirror entry: row i takes its
    # entries left of the diagonal from column i, kept as one comma-joined
    # piece per block of rows above it and freed with row i.
    cols = [[] for _ in range(len(mag))]
    for i0 in range(0, len(mag), _BLOCK_ROWS):
        i1 = min(i0 + _BLOCK_ROWS, len(mag))
        pieces = _block_text(mag, i0, i1)
        for i, piece in zip(range(i0, i1), pieces):
            line, cols[i] = cols[i], None
            line.append(piece)
            yield ",".join(line) + "\n"
        for col, piece in zip(cols[i1:], pieces[i1 - i0:]):
            col.append(piece)


def _block_text(mag, i0: int, i1: int) -> list[str]:
    # The text of rows i0 .. i1-1 from column i0 on, one string per row,
    # then their text in each column j >= i1, one string per column
    return _block_bytes(mag, i0, i1).tobytes().translate(None, b"\0").decode("ascii").split(
        "\n")[:-1]


def _block_bytes(mag, i0: int, i1: int):
    # _block_text's pieces as bytes, each ended by a newline, with NULs
    # between the texts.  The nonzero entries from the diagonal on are
    # formatted once, by float_text.reprs, into rows of WIDTH bytes ended by
    # NULs.  The text is laid out in 4-byte words: one word per 0.0 and
    # WIDTH // 4 per nonzero entry.  The words are filled with "0.0," and
    # each nonzero entry's row is copied over its words.  The block's arrays
    # are freed on return, before the text is made from the words.
    block = mag[i0:i1, i0:]
    b, w = block.shape
    upper = np.triu(block) != 0.0
    values = block[upper]
    text, length = float_text.reprs(values)
    text[np.arange(len(values)), length] = ord(",")
    # ids[r, c]: 0 for a 0.0, else 1 + the index in values of the entry or,
    # left of the diagonal, of its mirror
    ids = np.zeros((b, w), dtype=np.int32)
    ids[upper] = np.arange(1, len(values) + 1, dtype=np.int32)
    square = ids[:, :b]
    square += np.tril(square.T, -1)
    # the entries in the order of the text: the rows, then the columns j >= i1
    order = np.concatenate([ids.reshape(-1), ids[:, b:].T.reshape(-1)])
    nonzero = np.flatnonzero(order)
    span = float_text.WIDTH // 4
    size = len(order) + (span - 1) * len(nonzero)
    words = np.full(size + span - 1, _ZERO_WORD)
    # rows of WIDTH bytes starting at each word, one void item each
    row = f"V{float_text.WIDTH}"
    starts = np.ndarray((size,), dtype=row, buffer=words, strides=(4,))
    starts[nonzero + (span - 1) * np.arange(len(nonzero))] = text.view(row)[order[nonzero] - 1, 0]
    # the comma of each piece's last entry ends the piece
    last = np.cumsum(np.repeat([w, b], [b, w - b])) - 1
    before = np.searchsorted(nonzero, last)  # the nonzero entries before it
    comma = 4 * (last + (span - 1) * before) + np.concatenate([[3], length])[order[last]]
    words.view(np.uint8)[comma] = ord("\n")
    return words[:size]
