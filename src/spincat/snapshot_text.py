"""The text of one snapshot file: a header, then the |rho| grid in row bands.

:func:`snapshot_lines` yields the text a piece at a time, so it is never held
whole.  Each entry from the diagonal on is formatted once, and a 0.0 without
``repr``.  The grid is formatted in :func:`_band_count` row bands of about
equal cost (:func:`_row_costs`), one process per band, and the text is the
same byte for byte whatever their count.  Band 0 is formatted by the calling
process, and a single band needs no temp file or child.  Band ``b > 0`` is a
child made by :func:`os.fork`, so that it inherits the grid without a copy
or a pickle; a child runs only Python string work, no BLAS and no lock
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
# fork and reap, plus the caller's reads and joins of its text.  At d = 256-448
# two bands saved 24-46% of an Lz grid's time and 3-22% of an Lx grid's at tau
# (2-vCPU x86_64 VM, beside an N = 1000 grid, pairwise medians of 21-41 runs).
_BAND_ROWS = 128
# Rows formatted at a time: the strings of a block's entries below the
# diagonal are joined per column, so a column's text is kept as one piece
# per block above it.
_BLOCK_ROWS = 32
# An entry's cost in units of a nonzero entry's repr: joining and writing an
# entry and its mirror take about 0.08 us, a repr about 1.0 us for the values
# of an Lx grid at tau (one-band writes of d = 1000 grids, same VM).
_ENTRY_COST = 0.075


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
    # from the diagonal on is formatted once and its string is reused for the
    # mirror entry: row i takes its entries left of the diagonal from column
    # i, kept as one comma-joined piece per block of rows above it and freed
    # with row i (or with column i's string).
    cols = [[] for _ in range(lo, len(mag))]
    for i0 in range(lo, hi, _BLOCK_ROWS):
        i1 = min(i0 + _BLOCK_ROWS, hi)
        uppers = [_texts(mag[i, i:]) for i in range(i0, i1)]
        # columns[j - i0]: the strings of (k, j), k = i0 .. i1-1 ("" for k > j)
        columns = list(zip(*[[""] * (i - i0) + upper for i, upper in enumerate(uppers, i0)]))
        for i, upper in enumerate(uppers, i0):
            pieces, cols[i - lo] = cols[i - lo], None
            pieces += columns[i - i0][:i - i0]
            pieces += upper
            yield ",".join(pieces)
        for col, column in zip(cols[i1 - lo:], columns[i1 - i0:]):
            col.append(",".join(column))
    for j in range(hi - lo, len(cols)):
        pieces, cols[j] = cols[j], None
        yield ",".join(pieces)


def _texts(row) -> list[str]:
    # repr of each entry of row: each 0.0 is the one string "0.0", and only
    # the nonzero entries are formatted.  A row without zeros takes one map,
    # 10% faster than filling it in entry by entry.
    nonzero = np.flatnonzero(row)
    if len(nonzero) == len(row):
        return list(map(repr, row.tolist()))
    texts = ["0.0"] * len(row)
    for k, text in zip(nonzero.tolist(), map(repr, row[nonzero].tolist())):
        texts[k] = text
    return texts


def _worker(mag, lo: int, hi: int, fh):
    # Rows lo .. hi-1, in a child forked by banded_lines: writes the strings
    # of _band_text to fh, one per line
    for text in _band_text(mag, lo, hi):
        fh.write(text + "\n")
    fh.flush()
