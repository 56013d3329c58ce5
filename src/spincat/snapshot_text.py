"""The text of one snapshot file: a header, then the |rho| grid in row bands.

:func:`snapshot_lines` yields the text a piece at a time, so it is never held
whole.  Each entry from the diagonal on is formatted once: the nonzero ones
by :func:`spincat.float_text.reprs`, which gives ``repr``'s bytes for a
block of values by array operations, and each 0.0 as one shared 4-byte word.
A block of rows is laid out as bytes in numpy and made into one string per
row and per later column.  The grid is formatted in :func:`_band_count` row
bands of about equal cost (:func:`_row_costs`), one process per band, and
the text is the same byte for byte whatever their count.  Band 0 is
formatted by the calling process, and a single band needs no temp file or
child.  Band ``b > 0`` is a child made by :func:`os.fork`, so that it
inherits the grid and the formatter's tables without a copy or a pickle; a
child runs only numpy and string work on one thread, no BLAS and no lock
another thread could hold, talks to no other process, writes its band's text
(:func:`_band_text`) to an unnamed temp file in the target's directory, and
leaves by :func:`os._exit`.  The caller reads the bands in order and joins
each row's line from their text.
"""

from __future__ import annotations

import os
import sys
import tempfile
from collections.abc import Iterator

import numpy as np

from .dicke import Basis, x_floor_gain

# At most one band per _BAND_ROWS rows.  A second band costs about 3 ms to
# fork and reap, plus the caller's reads and joins of its text.  With repr
# per entry, at d = 256-448 two bands saved 24-46% of an Lz grid's time and
# 3-22% of an Lx grid's at tau (2-vCPU x86_64 VM, beside an N = 1000 grid,
# pairwise medians of 21-41 runs).  With the array formatter the same VM's
# second core ran in parallel only at times (two forked loops took 1.0-2.0
# times one loop's time), and at a time when it did not, two bands took
# 1.3-1.6 times one band's time at d = 256-516 and 0.99 times at d = 1001
# (medians of 21 pairs); the limit stands until it is measured on a host
# whose second core runs in parallel.
_BAND_ROWS = 128
# Rows formatted at a time: the text of a block's entries below the diagonal
# is kept as one piece per column, so a column's text is one piece per block
# above it.
_BLOCK_ROWS = 32
# An entry's cost in units of a nonzero entry's: laying out, joining and
# writing an entry and its mirror take about 27 ns, formatting a nonzero
# entry and placing its text twice 0.37-0.40 us more, for the values of an
# Lx grid at tau (one-band texts of d = 1001 grids of zeros, of such values,
# and the N = 1000 grid at tau, which the two costs predict within 6%; same
# VM, least of 9 runs).
_ENTRY_COST = 0.07
# "0.0," as one 4-byte word
_ZERO_WORD = np.frombuffer(b"0.0,", dtype=np.uint32)[0]


def snapshot_lines(mag, sector, basis: Basis, time: float, band_dir: str) -> Iterator[str]:
    """The header and the grid ``mag = |rho_{mm'}|`` of a snapshot file in
    ``basis``, rows and columns running m = +l .. -l.  ``mag`` must be
    exactly symmetric, as every grid from ``evolve._snapshot`` is: each
    mirror pair is formatted once.  ``band_dir`` is a directory on the
    target's file system, for the later bands' temp files."""
    header = (f"# basis = {basis.value}\n"
              f"# l = {float(sector.l)!r}\n"
              f"# time = {float(time)!r}\n"
              "# grid = |rho| magnitudes, rows and columns ordered m = +l..-l\n")
    if basis is Basis.LX:
        header += ("# zeroed = |rho_rc| <= g*b_r*b_c written as 0.0, within rounding of zero;"
                   f" b = |M| sqrt(diag rho_Lz), g = {x_floor_gain(sector.dimension)!r}\n")
    yield header
    yield from banded_lines(mag, band_dir, _band_count(len(mag)))


def _band_count(d: int) -> int:
    """Processes that format a d x d snapshot grid: one per usable core, at
    most one per _BAND_ROWS rows, and 1 where fork is not available."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), d // _BAND_ROWS))


def _row_costs(mag):
    # The cost of formatting each row from the diagonal on: its nonzero
    # entries, plus _ENTRY_COST per entry
    nonzero = [np.count_nonzero(mag[i, i:]) for i in range(len(mag))]
    return np.add(nonzero, _ENTRY_COST * np.arange(len(mag), 0, -1))


def _bounds(cost, bands: int) -> list[int]:
    """First rows of the bands, and d: band b starts at the first row whose
    midpoint in the running ``cost`` reaches b/bands of the total, moved as
    little as keeps each band at least one row (d >= bands)."""
    cost = np.asarray(cost, dtype=float)
    b = np.arange(1, bands)
    u = np.searchsorted(np.cumsum(cost) - 0.5 * cost, cost.sum() * b / bands) - b
    u = np.clip(np.maximum.accumulate(u), 0, len(cost) - bands)  # starts - b, nondecreasing
    return [0, *(u + b).tolist(), len(cost)]


def banded_lines(mag, band_dir: str, bands: int) -> Iterator[str]:
    """The lines of the grid of ``mag`` in ``bands`` row bands (each band at
    least one row).  Every child is reaped and every temp file closed (so
    removed) before this generator returns, raises or is closed; a child
    that fails raises :class:`RuntimeError` here."""
    from . import float_text  # noqa: F401  (builds its tables before any band forks)

    if bands > 1:
        import signal
    bounds = _bounds(_row_costs(mag), bands) if bands > 1 else [0, len(mag)]
    files, pids = [], []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            files.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline="",
                                                dir=band_dir))
            pid = os.fork()
            if pid == 0:
                # the child leaves by os._exit, so it never returns into the
                # caller's generators nor flushes buffers copied at the fork
                code = 1
                try:
                    _worker(mag, lo, hi, files[-1])
                    code = 0
                except BaseException:
                    import traceback

                    traceback.print_exc()
                    sys.stderr.flush()
                finally:
                    os._exit(code)
            pids.append(pid)
        own = _band_text(mag, 0, bounds[1])
        for _ in range(bounds[1]):
            yield next(own) + "\n"
        earlier = [own]  # each yields its band's text in the next column
        for b in range(1, bands):
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            del pids[0]
            if code:
                raise RuntimeError(f"snapshot band {b} of {bands} failed "
                                   f"(worker exit code {code})")
            files[b - 1].seek(0)
            own = iter(files[b - 1])
            for _ in range(bounds[b], bounds[b + 1]):  # the band's line keeps its newline
                yield ",".join([next(s) for s in earlier] + [next(own)])
            earlier.append(text[:-1] for text in own)
    finally:
        for pid in pids:  # the children not yet reaped
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for fh in files:
            fh.close()


def _band_text(mag, lo: int, hi: int) -> Iterator[str]:
    # The text of rows lo .. hi-1 of the grid from column lo on, one string
    # per row, then the text of those rows in each column j >= hi, one string
    # per column.  |rho| of a Hermitian matrix is symmetric, so each entry
    # from the diagonal on is formatted once and its text is reused for the
    # mirror entry: row i takes its entries left of the diagonal from column
    # i, kept as one comma-joined piece per block of rows above it and freed
    # with row i (or with column i's string).
    cols = [[] for _ in range(lo, len(mag))]
    for i0 in range(lo, hi, _BLOCK_ROWS):
        i1 = min(i0 + _BLOCK_ROWS, hi)
        pieces = _block_text(mag, i0, i1)
        for i, piece in zip(range(i0, i1), pieces):
            line, cols[i - lo] = cols[i - lo], None
            line.append(piece)
            yield ",".join(line)
        for col, piece in zip(cols[i1 - lo:], pieces[i1 - i0:]):
            col.append(piece)
    for j in range(hi - lo, len(cols)):
        line, cols[j] = cols[j], None
        yield ",".join(line)


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
    from . import float_text

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


def _worker(mag, lo: int, hi: int, fh):
    # Rows lo .. hi-1, in a child forked by banded_lines: writes the strings
    # of _band_text to fh, one per line
    for text in _band_text(mag, lo, hi):
        fh.write(text + "\n")
    fh.flush()
