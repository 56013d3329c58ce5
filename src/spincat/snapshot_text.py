"""The text of one snapshot file: a header, then the |rho| grid in row bands.

:func:`snapshot_lines` yields the text a piece at a time, so it is never held
whole.  The grid is formatted in :func:`_band_count` row bands, one process
per band, and the text is the same byte for byte whatever their count.  Band
0 is formatted by the calling process, which yields its lines as they are
made; a single band needs no pipe, temp file or child, and does not import
:mod:`multiprocessing`.  Band ``b > 0`` is a worker made with the fork start
method, so that it inherits ``|rho|`` without a copy or a pickle; a worker
runs only Python string work and numpy comparisons, no BLAS and no lock
another thread could hold.  A worker formats its rows from the diagonal on
(:func:`_band_text`), passes each later band only the text of that band's
columns through a pipe, then takes the text left of its rows from the
earlier bands and writes its lines to an unnamed temp file in the target's
directory, which the caller yields once the worker has exited.
"""

from __future__ import annotations

import math
import os
import tempfile
from collections.abc import Iterator

import numpy as np

# At most one band per _BAND_ROWS rows.  An entry's repr costs 1.3-2 us, so n
# bands save about (1 - 1/n) of the d*d/2 reprs; a second band costs 12-15 ms
# more (fork and join, the columns' text through a pipe, the band's text
# copied back), measured on a 2-vCPU x86_64 VM in a process holding an
# N = 1000 run.  There it breaks even at about d = 190 and saves 17% of the
# grid's time at d = 256 and 25% at d = 320.
_BAND_ROWS = 128
# Rows formatted at a time: the strings of a block's entries below the
# diagonal are joined per column, so a column's text is kept as one piece
# per block above it.
_BLOCK_ROWS = 32


def snapshot_lines(rho, time: float, band_dir: str) -> Iterator[str]:
    """The header and the ``|rho_{mm'}|`` grid of a snapshot file, rows and
    columns running m = +l .. -l.  Only ``|rho|`` is kept: the caller's last
    reference to rho goes when the header is taken.  ``band_dir`` is a
    directory on the target's file system, for the later bands' temp files."""
    header = (f"# basis = {rho.basis_tag.value}\n"
              f"# l = {float(rho.sector.l)!r}\n"
              f"# time = {float(time)!r}\n"
              "# grid = |rho| magnitudes, rows and columns ordered m = +l..-l\n")
    mag = np.abs(rho.elements)
    del rho
    yield header
    yield from banded_lines(mag, band_dir, _band_count(len(mag)))


def _band_count(d: int) -> int:
    """Processes that format a d x d snapshot grid: one per usable core, at
    most one per _BAND_ROWS rows, and 1 where fork is not available or this
    process may not have children."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    bands = min(len(os.sched_getaffinity(0)), d // _BAND_ROWS)
    if bands < 2:
        return 1
    import multiprocessing

    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return bands


def _bounds(d: int, bands: int) -> list[int]:
    """First rows of the bands, and d: row i formats d - i entries, so band
    b starts where the rows before it have formatted b/bands of them all."""
    return [round(d * (1.0 - math.sqrt(1.0 - b / bands))) for b in range(bands + 1)]


def banded_lines(mag, band_dir: str, bands: int) -> Iterator[str]:
    """The lines of the grid of ``mag`` in ``bands`` row bands (each band at
    least one row).  Every worker is joined and every temp file closed (so
    removed) before this generator returns, raises or is closed; a worker
    that fails raises :class:`RuntimeError` here."""
    if bands > 1:
        import multiprocessing
    bounds = _bounds(len(mag), bands)
    pipes = {(a, b): multiprocessing.Pipe(duplex=False)
             for b in range(1, bands) for a in range(b)}
    files, workers = [], []
    try:
        for b in range(1, bands):
            files.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline="",
                                                dir=band_dir))
            worker = multiprocessing.get_context("fork").Process(
                target=_worker, daemon=True, args=(mag, bounds, b, pipes, files[-1]))
            worker.start()
            workers.append(worker)
        for (a, _), (recv, send) in pipes.items():
            recv.close()
            if a:
                send.close()
        later: list = []
        for i, text in enumerate(_band_text(mag, 0, bounds[1], later)):
            yield _line(mag, i, text)
        for c in reversed(range(1, bands)):  # later[j - bounds[1]]: column j
            try:
                _send_columns(pipes[0, c][1], later[bounds[c] - bounds[1]:])
            except BrokenPipeError:  # the worker has failed; its exit code says so
                pass
            del later[bounds[c] - bounds[1]:]
        for b, (worker, fh) in enumerate(zip(workers, files), 1):
            worker.join()
            if worker.exitcode:
                raise RuntimeError(f"snapshot band {b} of {bands} failed "
                                   f"(worker exit code {worker.exitcode})")
            fh.seek(0)
            while chunk := fh.read(1 << 20):
                yield chunk
    finally:
        for worker in workers:
            if worker.exitcode is None:
                worker.kill()
            worker.join()
            worker.close()
        for recv, send in pipes.values():
            recv.close()
            send.close()
        for fh in files:
            fh.close()


def _band_text(mag, lo: int, hi: int, later: list) -> Iterator[str]:
    # The text of rows lo .. hi-1 of the grid from column lo on, one string
    # per row.  |rho| of a Hermitian matrix is symmetric, so each entry from
    # the diagonal on is formatted once and its string is reused for the
    # mirror entry: row i takes its entries left of the diagonal from
    # column i, kept as one comma-joined piece per block of rows above it and
    # freed with row i.  ``later`` gets for every column j >= hi the list of
    # pieces of (k, j), k = lo .. hi-1.
    cols = [[] for _ in range(lo, hi)]
    later.extend([] for _ in range(hi, len(mag)))
    for i0 in range(lo, hi, _BLOCK_ROWS):
        i1 = min(i0 + _BLOCK_ROWS, hi)
        uppers = [list(map(repr, mag[i, i:].tolist())) for i in range(i0, i1)]
        # columns[j - i0]: the strings of (k, j), k = i0 .. i1-1 ("" for k > j)
        columns = list(zip(*[[""] * (i - i0) + upper for i, upper in enumerate(uppers, i0)]))
        for i, upper in enumerate(uppers, i0):
            pieces, cols[i - lo] = cols[i - lo], None
            pieces += columns[i - i0][:i - i0]
            pieces += upper
            yield ",".join(pieces)
        for col, column in zip(cols[i1 - lo:], columns[i1 - i0:]):
            col.append(",".join(column))
        for col, column in zip(later, columns[hi - i0:]):
            col.append(",".join(column))


def _line(mag, i: int, text: str) -> str:
    # Row i's line from its text: an entry left of the diagonal that differs
    # from its mirror is formatted on its own, so every entry reads
    # repr(|rho_ij|) whatever the matrix.
    lone = np.flatnonzero(mag[i, :i] != mag[:i, i]).tolist()
    if lone:
        cells = text.split(",")
        for k in lone:
            cells[k] = repr(float(mag[i, k]))
        text = ",".join(cells)
    return text + "\n"


def _send_columns(conn, pieces: list[list[str]]):
    # the text of a band's rows in each of the columns whose pieces are
    # given, one string per column, _BLOCK_ROWS columns per message
    for j in range(0, len(pieces), _BLOCK_ROWS):
        conn.send([",".join(col) for col in pieces[j:j + _BLOCK_ROWS]])


def _recv_columns(conn, lefts: list[list[str]]):
    # appends to lefts[i] the text of column i that _send_columns sends
    got = 0
    while got < len(lefts):
        texts = conn.recv()
        for left, text in zip(lefts[got:], texts):
            left.append(text)
        got += len(texts)


def _worker(mag, bounds: list[int], b: int, pipes: dict, fh):
    # Band b, in a worker forked by banded_lines: formats its rows, sends
    # each later band the text of its columns (the last band first), takes
    # the text left of its rows from each earlier band (the first first) and
    # writes its lines to fh.  Sends in that order, and receives in this
    # one, cannot wait on each other in a cycle; every pipe end it does not
    # use is closed, so a receiver sees the end of a pipe whose sender died.
    for (a, c), (recv, send) in pipes.items():
        if c != b:
            recv.close()
        if a != b:
            send.close()
    lo, hi = bounds[b], bounds[b + 1]
    later: list = []
    texts = list(_band_text(mag, lo, hi, later))
    for c in reversed(range(b + 1, len(bounds) - 1)):  # later[j - hi]: column j
        _send_columns(pipes[b, c][1], later[bounds[c] - hi:])
        del later[bounds[c] - hi:]
    lefts = [[] for _ in texts]
    for a in range(b):
        _recv_columns(pipes[a, b][0], lefts)
    texts.reverse()
    lefts.reverse()
    for i in range(lo, hi):  # each row's strings are dropped once it is written
        left = lefts.pop()
        left.append(texts.pop())
        fh.write(_line(mag, i, ",".join(left)))
    fh.flush()
