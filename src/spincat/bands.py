"""A snapshot grid's text in row bands, one forked process per band.

:func:`spincat.scenario._snapshot_csv` hands a large grid here (see
``scenario._band_count`` for when); the text is byte for byte that of its
serial writer.  Band 0 is formatted by the calling process, which yields its
lines as they are made.  Band ``b > 0`` is a worker made with the fork start
method, so that it inherits ``|rho|`` without a copy or a pickle; a worker
runs only Python string work and numpy comparisons, no BLAS and no lock
another thread could hold.  A worker formats its rows from the diagonal on
(``scenario._band_text``), passes each later band only the text of that
band's columns through a pipe, then takes the text left of its rows from the
earlier bands and writes its lines to an unnamed temp file in the target's
directory, which the caller yields once the worker has exited.  This module
is imported only when a grid is banded.
"""

from __future__ import annotations

import math
import multiprocessing
import tempfile
from collections.abc import Iterator

from .scenario import _BLOCK_ROWS, _band_text, _line


def _bounds(d: int, bands: int) -> list[int]:
    """First rows of the bands, and d: row i formats d - i entries, so band
    b starts where the rows before it have formatted b/bands of them all."""
    return [round(d * (1.0 - math.sqrt(1.0 - b / bands))) for b in range(bands + 1)]


def banded_lines(mag, band_dir: str, bands: int) -> Iterator[str]:
    """The lines of the grid of ``mag`` in ``bands`` row bands (each band at
    least one row).  Every worker is joined and every temp file closed (so
    removed) before this generator returns, raises or is closed; a worker
    that fails raises :class:`RuntimeError` here."""
    bounds = _bounds(len(mag), bands)
    ctx = multiprocessing.get_context("fork")
    pipes = {(a, b): ctx.Pipe(duplex=False) for b in range(1, bands) for a in range(b)}
    files, workers = [], []
    try:
        for b in range(1, bands):
            files.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline="",
                                                dir=band_dir))
            worker = ctx.Process(target=_worker, daemon=True,
                                 args=(mag, bounds, b, pipes, files[-1]))
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
