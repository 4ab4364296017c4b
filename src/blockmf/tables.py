"""The one CSV codec of every artifact: a header line, then comma-separated
rows with LF endings; float columns with 17 significant digits (`.17g`,
which round-trips float64), integer and label columns with `str`. A
component series (empirical measures, flows) is the table
"t,block,class,color,mass", one row per (time, block, class, colour) cell.
A series or cost writer builds the rows of one time point, with every
cell's block, class and colour fields, as one format string per file,
and fills in times and values a chunk of whole time points at a time.
The flow reader hands each chunk of rows to numpy's C text reader.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import InvalidArgumentError
from .graph import CENTRAL, CLASS_LABELS, PERIPHERAL
from .rates import _quoted

SERIES_HEADER = ("t", "block", "class", "color", "mass")
CHUNK_ROWS = 1024  # rows formatted per write: no file is built as one string


def write_table(fp, header, columns) -> None:
    """The header line (none if `header` is None), then the rows of
    `columns`, equal-length sequences: floats as .17g, the rest as str."""
    if header is not None:
        fp.write(",".join(header) + "\n")
    columns = [np.asarray(c) for c in columns]
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%s"
                   for c in columns) + "\n"
    n = len(columns[0])
    for start in range(0, n, CHUNK_ROWS):
        cells = zip(*(c[start:start + CHUNK_ROWS].tolist() for c in columns))
        fp.write(row * min(CHUNK_ROWS, n - start)
                 % tuple(itertools.chain.from_iterable(cells)))


def _write_cells(fp, header, times, values) -> None:
    """Rows (t, block, class, [color,] value) of values[i, g(, z)] at
    times[i], g = 2*block+class, written whole time points at a time; the
    colour column is there when values has one. The row format of one
    time point, each cell's key fields filled in, is built once; each
    chunk of time points is one `%` over (time, value) pairs, each time
    formatted once."""
    fp.write(",".join(header) + "\n")
    n, comps = values.shape[:2]
    cells = values[0].size
    point = "".join(
        f"%s,{g // 2},{CLASS_LABELS[g % 2]}"
        + (f",{z}" if values.ndim > 2 else "") + ",%.17g\n"
        for g in range(comps) for z in range(cells // comps))
    flat = values.reshape(n, cells)
    step = max(1, CHUNK_ROWS // cells)
    for a in range(0, n, step):
        t = ["%.17g" % x for x in np.asarray(times[a:a + step]).tolist()]
        pairs = [None] * (2 * len(t) * cells)
        pairs[::2] = [s for s in t for _ in range(cells)]
        pairs[1::2] = flat[a:a + step].ravel().tolist()
        fp.write(point * len(t) % tuple(pairs))


def write_series(fp, times, values) -> None:
    """A component series values[i, g, z] at times[i]."""
    _write_cells(fp, SERIES_HEADER, times, values)


def write_cost(fp, times, integrand, total) -> None:
    """A cost integrand[i, g] at times[i], then the "S_total" row."""
    _write_cells(fp, ("t", "block", "class", "integrand"), times, integrand)
    write_table(fp, None, [["S_total"], [total]])


# a series row; a label longer than one character keeps two and fails
# the label check
_ROW = np.dtype([("t", "f8"), ("block", "i8"), ("class", "U2"),
                 ("color", "i8"), ("mass", "f8")])


def _columns(rows):
    """The t, component, colour and mass columns of series rows (lines of
    text), parsed by numpy's C reader: floats as Python's float reads
    them, integers as int64, both in ASCII digits without `_`.
    ValueError unless every row is t,block,class,color,mass with block
    in [0, 2^62), colour >= 0, a class label, t and mass finite."""
    if "\0" in "".join(rows):  # a U2 field drops a label's trailing NULs
        raise ValueError("NUL in a row")
    row = np.loadtxt(rows, delimiter=",", comments=None, ndmin=1, dtype=_ROW)
    t, j, label, z, m = (row[name] for name in _ROW.names)
    peripheral = label == CLASS_LABELS[PERIPHERAL]
    if not np.all((peripheral | (label == CLASS_LABELS[CENTRAL]))
                  & (j >= 0) & (j < 2 ** 62)  # so 2 * j + 1 is an int64
                  & (z >= 0) & np.isfinite(t) & np.isfinite(m)):
        raise ValueError("field out of range")
    return t, 2 * j + peripheral, z, m


def read_series(fp):
    """(times, values) of a flow: rows in any order, blank lines
    skipped, times ascending. A bad header or row or a duplicate or
    missing cell raise InvalidArgumentError; `MeanFieldFlow` checks the
    grid. The rows are parsed CHUNK_ROWS lines at a time, by
    `_columns`."""
    header = fp.readline().strip()
    if header != ",".join(SERIES_HEADER):
        raise InvalidArgumentError(
            f"unexpected flow header {_quoted(header)}")
    parts, lineno, first = [], [], 2  # first: file line of the chunk's start
    while lines := list(itertools.islice(fp, CHUNK_ROWS)):
        rows = [line for line in lines if not line.isspace()]
        kept = np.arange(len(lines))  # each row's place in the chunk
        if len(rows) < len(lines):
            kept = np.flatnonzero([not line.isspace() for line in lines])
        lineno.append(first + kept)
        first += len(lines)
        if not rows:
            continue
        try:
            parts.append(_columns(rows))
        except ValueError:
            lo, hi = 0, len(rows)  # rows[:lo] parse, rows[:hi] do not
            while hi - lo > 1:
                mid = (lo + hi) // 2
                try:
                    _columns(rows[:mid])
                    lo = mid
                except ValueError:
                    hi = mid
            raise InvalidArgumentError(
                f"flow line {lineno[-1][lo]}: expected t,block,class,color,"
                f"mass with block in [0, 2^62) and color >= 0, class "
                f"{' or '.join(CLASS_LABELS)}, t and mass finite, got "
                f"{_quoted(rows[lo].strip())}"
            ) from None
    if not parts:
        raise InvalidArgumentError("empty flow file")
    lineno = np.concatenate(lineno)
    t, g, z, m = (np.concatenate(c) for c in zip(*parts))
    times, t_index = np.unique(t, return_inverse=True)
    r, K = int(g.max()) // 2 + 1, int(z.max()) + 1
    if times.size * 2 * r * K > t.size:
        raise InvalidArgumentError("flow file has missing cells")
    cell = (t_index * 2 * r + g) * K + z
    if np.bincount(cell).max() > 1:  # as many rows as cells, or more
        order = np.argsort(cell, kind="stable")
        repeat = order[1:][np.diff(cell[order]) == 0].min()
        raise InvalidArgumentError(
            f"flow line {lineno[repeat]}: repeats the (t, block, class, "
            f"color) cell of an earlier line"
        )
    values = np.empty(cell.size)
    values[cell] = m
    return times, values.reshape(times.size, 2 * r, K)
